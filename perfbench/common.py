"""Shared measurement helpers: run results, the host speed probe, percentiles
and the teardown probe."""

from __future__ import annotations

import asyncio
import time

#: grace period for library tasks to end after every object was closed
TEARDOWN_GRACE_S = 3.0


class Result:
    """What one workload run measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []

    def fail(self, why: str) -> None:
        """Count one failed, refused or mismatched operation."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


#: duration of one speed probe on the reference host (the 2-core host
#: this benchmark was sized on, at its median speed)
REF_PROBE_S = 1.0e-3


def _probe_work(n: int) -> int:
    """Fixed pure-Python work: integer arithmetic, dict and bytearray use."""
    acc = 0
    table = {}
    buf = bytearray(64)
    for i in range(n):
        x = (i * 2654435761) & 0xFFFFFFFF
        x ^= x >> 13
        table[i & 63] = x
        acc = (acc + table.get((i * 7) & 63, i)) & 0xFFFFFFFF
        buf[i & 63] = x & 0xFF
    return acc + buf[0]


def speed_factor() -> float:
    """How many times slower than the reference host this process runs now.

    The host's speed drifts by up to half between periods of seconds to
    minutes, and the same drift slows every part of the program alike.
    Timings divided by this factor (rates multiplied by it) are on the
    reference host's scale.  The probe is the benchmark's own code, so a
    change to the program cannot move it.
    """
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_work(2000)
        took = time.perf_counter() - t0
        if best is None or took < best:
            best = took
    return best / REF_PROBE_S


class Timed:
    """Times the enclosed step and the host's speed factor around it.

    After the block, ``wall`` holds the step's wall seconds and ``factor``
    the mean of the speed factors probed just before and just after it;
    ``wall / factor`` is the step's time on the reference host's scale.
    """

    def __enter__(self) -> "Timed":
        self._before = speed_factor()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall = time.perf_counter() - self._t0
        self.factor = (self._before + speed_factor()) / 2
        return False


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


async def drain_tasks() -> tuple[int, list[str]]:
    """Wait for every other task on the loop to end; count the stragglers.

    Called after a run closed every driver, session, mux endpoint, relay
    client and server.  A task still pending after the grace period is a
    leak: it is counted, named, cancelled and awaited, so it cannot tax
    the next run.
    """
    me = asyncio.current_task()
    others = [t for t in asyncio.all_tasks() if t is not me]
    if not others:
        return 0, []
    _done, pending = await asyncio.wait(others, timeout=TEARDOWN_GRACE_S)
    names = sorted(_task_name(t) for t in pending)
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)
    # collect results so no "exception was never retrieved" noise is printed
    for task in others:
        if task.done() and not task.cancelled():
            task.exception()
    return len(pending), names


def _task_name(task: asyncio.Task) -> str:
    coro = task.get_coro()
    return getattr(coro, "__qualname__", None) or repr(coro)
