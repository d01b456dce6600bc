"""The ``sim_wan`` workload: the simulator alone, no sockets.

One *set* is five fixed parts.  The two paper-figure parts always use
the scenario seed the repository's ``BENCH_obs.json`` was recorded with
(9, payload seed 5), so their simulated throughput is checked against
the recorded values on every run: faster code must not change the paper
figures.  The three chaos parts take the benchmark seed.

Parts are timed in plain wall-clock seconds.  The host speed probe that
scales the live workloads' short batches does not track parts that run
for seconds: scaling by it widened the run-to-run spread here.
"""

from __future__ import annotations

import gc
import os
import time

from paperlinks import (
    AMSTERDAM_RENNES,
    DELFT_SOPHIA,
    PAYLOAD_RATIO,
    build_paper_wan,
)
from spans import maybe_span
from repro.chaos import run_chaos
from repro.core.utilization import StackSpec
from repro.workloads import payload_with_ratio

FIGURE_SEED = 9
FIGURE_PAYLOAD_SEED = 5
FIGURE_BYTES = 8_000_000
FIGURE_MESSAGE = 65536
FLEET_ENDPOINTS = 20_000

#: (part, link, stack, MB/s recorded in BENCH_obs.json)
FIGURES = (
    ("fig9", AMSTERDAM_RENNES, StackSpec.parallel(4).with_compression(), 3.659),
    ("fig10", DELFT_SOPHIA, StackSpec.parallel(8), 5.967),
)

#: (part, scenario, plan, sessions)
CHAOS = (
    ("routed_session", "wan_transfer_routed", "relay_crash@2:for=4", True),
    ("mux_fanin", "mux_fanin", "", False),
    ("fleet_fanin", "fleet_fanin", "", False),
)

PARTS = tuple(p[0] for p in FIGURES) + tuple(p[0] for p in CHAOS)


class SimWan:
    """Runs the fixed set repeatedly and checks every part's output."""

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        #: per part, the wall seconds of each run
        self.part_s: dict[str, list[float]] = {p: [] for p in PARTS}
        #: wall seconds per timed set-up
        self.setup_s: list[float] = []
        self.sets = 0
        self.sim_bytes = 0
        self.rate_resolves = 0
        #: first output of each part; every repeat must reproduce it
        self.outputs: dict[str, object] = {}
        # The fleet scenario reads its size from the environment when it
        # is built; this process is the benchmark's own.
        os.environ["REPRO_FLEET_ENDPOINTS"] = str(FLEET_ENDPOINTS)

    def _build(self, part: str, link: dict):
        with maybe_span(self.tracer, f"sim.setup.{part}"):
            scenario = build_paper_wan(link, seed=FIGURE_SEED)
            payload = payload_with_ratio(
                1 << 20, PAYLOAD_RATIO, seed=FIGURE_PAYLOAD_SEED)
        return scenario, payload

    def time_setup(self) -> None:
        """Time one set-up of the figure parts: scenario builds and payloads."""
        t0 = time.perf_counter()
        for part, link, _spec, _recorded in FIGURES:
            self._build(part, link)
        self.setup_s.append(time.perf_counter() - t0)

    def _timed(self, part: str, run):
        t0 = time.perf_counter()
        with maybe_span(self.tracer, f"sim.part.{part}"):
            out = run()
        self.part_s[part].append(time.perf_counter() - t0)
        return out

    def run_set(self, result) -> None:
        """Run every part once, each timed on its own."""
        for part, link, spec, recorded in FIGURES:
            scenario, payload = self._build(part, link)
            got = self._timed(part, lambda: scenario.measure_stack_throughput(
                "src", "dst", spec, payload, FIGURE_BYTES,
                message_size=FIGURE_MESSAGE,
            )["throughput"])
            problem = None
            if round(got, 3) != recorded:
                problem = (f"simulated {got:.3f} MB/s, BENCH_obs.json "
                           f"recorded {recorded} MB/s")
            self._verify(result, part, got, problem)
            self.sim_bytes += FIGURE_BYTES
        for part, name, plan, sessions in CHAOS:
            # Finalize the previous parts' simulator processes now: one
            # closed by the collector during a chaos run records a trace
            # event into that run and changes its report.
            gc.collect()
            report = self._timed(part, lambda: run_chaos(
                name, seed=self.seed, plan=plan, sessions=sessions))
            problem = None
            if not report.ok:
                problem = f"invariant violations {report.violations[:3]}"
            elif part == "fleet_fanin":
                if report.stats["endpoints"] != FLEET_ENDPOINTS:
                    problem = f"ran {report.stats['endpoints']} endpoints"
                self.sim_bytes += report.stats["relay_forwarded_bytes"]
                self.rate_resolves += report.stats["rate_resolves"]
            else:
                self.sim_bytes += sum(c["received_bytes"] for c in report.channels)
            self._verify(result, part, report.to_json(), problem)
        self.sets += 1

    def _verify(self, result, part: str, output, problem) -> None:
        """One part ran: it must pass its checks and repeat its first output."""
        result.attempted += 1
        first = self.outputs.setdefault(part, output)
        if problem is None and output != first:
            problem = "output differs between repeats of one seed"
        if problem is not None:
            result.fail(f"{part}: {problem}")

