"""In-memory span tracing around the public calls of each layer.

The traced run patches the layer entry points named in ``README.md`` on
their classes, from this file, so no module under ``src/`` changes.  Each
call becomes a span (name, start, end, parent, op id, size).  Spans nest
through a context variable, but only inside one asyncio task: a task
inherits the context of the code that created it, so a parent from
another task is dropped rather than charged for work it did not wait on.

Per-name aggregates (calls, total time, self time, bytes) are kept
online, because a bulk run makes millions of spans.  The first
:data:`KEEP_SPANS` span records are kept in memory as well and written
out as JSON lines when the run ends.

Self time is a span's duration minus the time of its child spans in the
same task.  For an ``async`` call the duration includes the time the call
waited (for the peer, for credit, for the socket), so ``us_per_call`` on
an async layer is a latency, not CPU time.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict

KEEP_SPANS = 50_000

_clock = time.perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name", "size", "state")

    def __init__(self, tracer, name, size):
        self.tracer, self.name, self.size = tracer, name, size

    def __enter__(self):
        self.state = self.tracer._open(self.name, self.size)

    def __exit__(self, *exc):
        self.tracer._close(*self.state)
        return False


class _Agg:
    __slots__ = ("calls", "total_ns", "self_ns", "bytes")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.bytes = 0


def _task():
    try:
        return asyncio.current_task()
    except RuntimeError:  # no running loop: the simulator's sync spans
        return None


class Tracer:
    """Collects spans from the wrappers it installs; :meth:`restore` undoes them."""

    def __init__(self):
        self.agg: dict[str, _Agg] = defaultdict(_Agg)
        self.by_size: dict[tuple, _Agg] = defaultdict(_Agg)
        self.records: list = []
        self.dropped = 0
        #: id of the operation the current task works on (0: none)
        self.op = contextvars.ContextVar("perfbench_op", default=0)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._patches: list = []
        self._next_id = 0

    # -- spans ------------------------------------------------------------
    def _open(self, name: str, size):
        parent = self._current.get()
        task = _task()
        if parent is not None and parent[3] is not task:
            parent = None
        self._next_id += 1
        # [id, name, start_ns, task, child_ns, parent, size]
        span = [self._next_id, name, _clock(), task, 0, parent, size]
        return span, self._current.set(span)

    def _close(self, span, token) -> None:
        end = _clock()
        self._current.reset(token)
        dur = end - span[2]
        parent = span[5]
        if parent is not None:
            parent[4] += dur
        own = dur - span[4]
        if own < 0:
            own = 0
        agg = self.agg[span[1]]
        agg.calls += 1
        agg.total_ns += dur
        agg.self_ns += own
        size = span[6]
        if size is not None:
            agg.bytes += size
            cls = self.by_size[(span[1], size_class(size))]
            cls.calls += 1
            cls.total_ns += dur
            cls.bytes += size
        if len(self.records) < KEEP_SPANS:
            self.records.append((
                span[0], span[1], span[2], end,
                parent[0] if parent is not None else 0, self.op.get(), size,
            ))
        else:
            self.dropped += 1

    def span(self, name: str, size=None):
        """Context manager for a span around the benchmark's own call."""
        return _Span(self, name, size)

    # -- wrappers ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, sizer=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``sizer(args)`` may return the byte size of the call, which the
        aggregates sum and bucket by :func:`size_class`.
        """
        orig = owner.__dict__[attr]
        tracer = self
        if inspect.iscoroutinefunction(orig):
            @functools.wraps(orig)
            async def wrapper(*args, **kwargs):
                state = tracer._open(name, sizer(args) if sizer else None)
                try:
                    return await orig(*args, **kwargs)
                finally:
                    tracer._close(*state)
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                state = tracer._open(name, sizer(args) if sizer else None)
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer._close(*state)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls.

        For per-event hot paths (the simulator) where a timed span would
        cost more than the work it measures.
        """
        orig = owner.__dict__[attr]
        agg = self.agg[name]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            agg.calls += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.agg[name].calls if name in self.agg else 0

    def us_per_call(self, name: str) -> float:
        agg = self.agg.get(name)
        return agg.total_ns / agg.calls / 1e3 if agg and agg.calls else 0.0

    def total_us(self, *names: str) -> float:
        return sum(self.agg[n].total_ns for n in names if n in self.agg) / 1e3

    def self_us(self, *names: str) -> float:
        return sum(self.agg[n].self_ns for n in names if n in self.agg) / 1e3

    def mb_per_s(self, name: str, cls: str) -> float:
        agg = self.by_size.get((name, cls))
        if not agg or not agg.total_ns:
            return 0.0
        return agg.bytes / (agg.total_ns / 1e9) / 1e6

    def write(self, path) -> None:
        """Write the kept span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, op, size in self.records:
                out.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op": op, "size": size,
                }) + "\n")
            out.write(json.dumps({"dropped": self.dropped}) + "\n")


def maybe_span(tracer, name: str):
    """A span of ``tracer`` around the benchmark's own call, if tracing."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def size_class(size: int) -> str:
    """Bucket a record or message size: ``64b`` (<= 256 B), ``1k`` (<= 4 KiB), ``64k``."""
    if size <= 256:
        return "64b"
    if size <= 4096:
        return "1k"
    return "64k"
