"""Wall-clock benchmark of the live stack and the simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bulk_stream --seed 1 --seconds 20 --trace 0

Workloads: ``bulk_stream``, ``rpc_routed``, ``secure_transfer`` (live,
loopback only) and ``sim_wan`` (simulator only).  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` runs an untraced pass and a traced
pass of the same inputs and reports the per-layer metrics.  Human-readable
lines go first; the last line of standard output is one JSON object.
The exit code is 0 only when every output was verified correct.

See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from statistics import median

from common import Result, Timed, drain_tasks, percentile

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("bulk_stream", "rpc_routed", "secure_transfer", "sim_wan")

#: set-up -> warm-up -> timed batches -> teardown, this many times per pass
ROUNDS = 3
#: a pass times at least SETUP_MIN set-ups, and more (up to SETUP_MAX)
#: until SETUP_BUDGET_S of set-up was timed; the ones beyond ROUNDS tear
#: down without traffic
SETUP_MIN = 9
SETUP_MAX = 50
SETUP_BUDGET_S = 1.0
#: a live round that takes this much longer than its share of the time hangs
ROUND_SLACK_S = 60.0
#: sim_wan runs the fixed set at least this often per pass
MIN_SETS = 2


def more_setups(samples: list) -> bool:
    """``samples`` holds the seconds of each timed set-up so far."""
    if len(samples) < SETUP_MIN:
        return True
    return len(samples) < SETUP_MAX and sum(samples) < SETUP_BUDGET_S


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_repo() -> None:
    """Put the checkout's ``src`` and ``benchmarks`` on the import path.

    The benchmark's modules that import ``repro`` are imported after this.
    """
    src, benchmarks = ROOT / "src", ROOT / "benchmarks"
    if not (src / "repro").is_dir() or not (benchmarks / "paperlinks.py").is_file():
        raise SystemExit(
            f"perfbench: {ROOT} is not a checkout of the repository "
            "(src/repro or benchmarks/paperlinks.py missing)")
    sys.path[:0] = [str(src), str(benchmarks)]


# -- live workloads ---------------------------------------------------------------


def make_live(name: str, seed: int, tracer):
    import live

    if name == "bulk_stream":
        return live.BulkStream(seed, tracer)
    if name == "rpc_routed":
        return live.RpcRouted(seed, tracer)
    return live.SecureTransfer(seed, tracer)


async def live_pass(name: str, seed: int, seconds: float, result, tracer=None):
    """Rounds of set-up, warm-up, timed batches and teardown."""
    import live
    from repro import obs

    wl = make_live(name, seed, tracer)
    ops = live.Ops()
    setup_s, setup_factors, batches, pending, leaked = [], [], [], 0, []
    i = 0
    while i < ROUNDS or more_setups(setup_s):
        obs.set_registry(obs.MetricsRegistry())

        async def one_round():
            with Timed() as step:
                await wl.setup()
            setup_s.append(step.wall)
            setup_factors.append(step.factor)
            if i >= ROUNDS:
                await wl.teardown(result)
                return
            await wl.warmup()
            ops.outputs.append([])
            end = time.perf_counter() + seconds / ROUNDS
            while True:
                n0, b0 = len(ops.latencies), ops.bytes
                with Timed() as step:
                    await wl.batch(result, ops)
                ops.rescale(n0, step.factor)
                batches.append((step.wall / step.factor, len(ops.latencies) - n0,
                                ops.bytes - b0, step.wall))
                if time.perf_counter() >= end:
                    break
            await wl.teardown(result)

        await asyncio.wait_for(one_round(), seconds / ROUNDS + ROUND_SLACK_S)
        count, names = await drain_tasks()
        pending += count
        leaked += names
        i += 1
    return {
        "ops": ops, "batches": batches,
        "setup_s": [w / f for w, f in zip(setup_s, setup_factors)],
        "pending": pending, "leaked": leaked,
        "replayed_bytes": getattr(wl, "replayed_bytes", 0),
    }


def live_end_to_end(run) -> dict:
    lat = run["ops"].latencies
    batches = run["batches"]
    return {
        "goodput_mb_s": (median(b / s for s, _n, b, _w in batches) / 1e6, "MB/s"),
        "ops_per_s": (median(n / s for s, n, _b, _w in batches), "1/s"),
        "op_p50_us": (median(lat) * 1e6, "us"),
        "sim_wall_s": (median(s for s, _n, _b, _w in batches), "s"),
        "setup_s": (median(run["setup_s"]), "s"),
    }


def p99_us(samples) -> float:
    """The 99th-percentile operation time, a per-layer diagnostic."""
    return percentile(samples, 99) * 1e6


def live_same_outputs(a, b) -> bool:
    """Each round's verified outputs of two passes agree on their common prefix."""
    for ra, rb in zip(a["ops"].outputs, b["ops"].outputs):
        n = min(len(ra), len(rb))
        if ra[:n] != rb[:n]:
            return False
    return True


# -- sim_wan ----------------------------------------------------------------------


def sim_pass(seed: int, seconds: float, result, tracer=None):
    from sim import SimWan

    wl = SimWan(seed, tracer)
    while more_setups(wl.setup_s):
        wl.time_setup()
    start = time.perf_counter()
    while wl.sets < MIN_SETS or time.perf_counter() - start < seconds:
        wl.run_set(result)
    return wl


def sim_part_times(wl) -> list:
    return [t for times in wl.part_s.values() for t in times]


def sim_end_to_end(wl) -> dict:
    part_medians = {p: median(t) for p, t in wl.part_s.items()}
    wall = sum(part_medians.values())
    return {
        "goodput_mb_s": (wl.sim_bytes / wl.sets / wall / 1e6, "MB/s"),
        "ops_per_s": (len(part_medians) / wall, "1/s"),
        "op_p50_us": (median(sim_part_times(wl)) * 1e6, "us"),
        "sim_wall_s": (wall, "s"),
        "setup_s": (median(wl.setup_s), "s"),
    }


# -- the two modes ----------------------------------------------------------------


def untraced(args, result) -> None:
    if args.workload == "sim_wan":
        wl = sim_pass(args.seed, args.seconds, result)
        result.metrics.update(sim_end_to_end(wl))
        parts = sim_part_times(wl)
        result.notes.append(
            f"sets run: {wl.sets}; "
            f"op_p99_us {p99_us(parts):.6g} us "
            f"from {len(parts)} part runs")
        return
    run = asyncio.run(live_pass(args.workload, args.seed, args.seconds, result))
    result.metrics.update(live_end_to_end(run))
    lat = run["ops"].latencies
    batches = run["batches"]
    result.notes.append(
        f"host speed factor {median(w / s for s, _n, _b, w in batches):.3f}; "
        f"wall-clock goodput_mb_s "
        f"{median(b / w for _s, _n, b, w in batches) / 1e6:.6g}, ops_per_s "
        f"{median(n / w for _s, n, _b, w in batches):.6g}")
    result.notes.append(
        f"op_p99_us {p99_us(lat):.6g} us from {len(lat)} verified ops; "
        f"{len(run['setup_s'])} set-ups timed; "
        f"teardown.pending_tasks {run['pending']} {run['leaked']}")


def traced(args, result) -> None:
    """An untraced and a traced pass of one seed, half the time each."""
    import layers
    from spans import Tracer

    half = args.seconds / 2
    tracer = Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "sim_wan":
        plain = sim_pass(args.seed, half, result)
        layers.install_sim(tracer)
        try:
            wl = sim_pass(args.seed, half, result, tracer)
        finally:
            tracer.restore()
        if wl.outputs != plain.outputs:
            result.fail("traced pass changed the simulator's outputs")
        base, with_trace = sim_end_to_end(plain), sim_end_to_end(wl)
        overhead_on = "sim_wall_s"
        overhead = with_trace["sim_wall_s"][0] / base["sim_wall_s"][0]
        values = layers.sim_metrics(
            tracer, wl.sets, wl.part_s, wl.rate_resolves)
        values["op_p99_us"] = p99_us(sim_part_times(plain))
        pending = 0
    else:
        plain = asyncio.run(live_pass(args.workload, args.seed, half, result))
        layers.install_live(tracer)
        try:
            run = asyncio.run(
                live_pass(args.workload, args.seed, half, result, tracer))
        finally:
            tracer.restore()
        if not live_same_outputs(plain, run):
            result.fail("traced pass changed the verified outputs")
        base, with_trace = live_end_to_end(plain), live_end_to_end(run)
        overhead_on = "ops_per_s"
        overhead = base["ops_per_s"][0] / with_trace["ops_per_s"][0]
        values = layers.live_metrics(
            tracer, len(run["ops"].latencies), run["replayed_bytes"])
        values["op_p99_us"] = p99_us(plain["ops"].latencies)
        pending = plain["pending"] + run["pending"]
    values["trace.overhead_pct"] = (overhead - 1.0) * 100.0
    values["teardown.pending_tasks"] = pending
    values["error_rate"] = result.error_rate
    for name, unit in layers.UNITS.items():
        result.put(name, values.get(name, 0.0), unit)

    ranking = layers.self_time_by_layer(tracer)
    result.notes.append(
        f"trace overhead measured on {overhead_on}: "
        f"{values['trace.overhead_pct']:.1f}%")
    result.notes.append("self time by layer (s, async spans include waiting): "
                        + ", ".join(f"{k} {v:.3f}" for k, v in ranking[:6]))
    expect = {"secure_transfer": "security.record", "sim_wan": "sim.part"}
    if args.workload in expect:
        top = ranking[0][0] if ranking else None
        verdict = "holds" if top == expect[args.workload] else "does NOT hold"
        result.notes.append(
            f"split check: {expect[args.workload]} first by self time {verdict}")
    path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(path)
    result.notes.append(
        f"{len(tracer.records)} spans written to {path.relative_to(ROOT)} "
        f"({tracer.dropped} more aggregated only)")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repo()
    result = Result()
    (traced if args.trace else untraced)(args, result)

    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for note in result.notes:
        print(f"{args.workload} {note}")
    print(f"{args.workload} error_rate {result.error_rate:.6g} "
          f"({result.failed}/{result.attempted})")
    for error in result.errors:
        print(f"{args.workload} FAILED {error}", file=sys.stderr)
    correct = result.failed == 0 and result.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
