"""Survivable sessions: SessionLink unit tests + ReplayBuffer properties.

These tests drive :class:`repro.core.session.SessionLink` over an
in-memory pipe link, so faults are injected with byte precision — no
network stack in the way.  The end-to-end recovery matrix (real
middleboxes, real faults) lives in ``tests/chaos/test_resume.py`` and
``tests/core/test_middlebox_matrix.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.links import Link
from repro.core.retry import RetryPolicy
from repro.core.session import (
    MAX_CHUNK,
    ReplayBuffer,
    SessionConfig,
    SessionError,
    SessionLink,
)
from repro.simnet.engine import Simulator
from repro.simnet.tcp import TcpError


class _PipeEnd(Link):
    """Half of an in-memory duplex pipe with injectable faults.

    ``break_both`` severs the pipe with a transport error (both ends see
    it); ``silent = True`` swallows outbound bytes without erroring —
    the shape of a middlebox eating packets.
    """

    method = "pipe"
    native_tcp = True

    def __init__(self, sim, delay: float = 0.05):
        self._simulator = sim
        self._delay = delay
        self.peer: "_PipeEnd" = None  # type: ignore[assignment]
        self._buf = bytearray()
        self._waiters: list = []
        self._broken = None
        self._eof = False
        self.silent = False

    @property
    def sim(self):
        return self._simulator

    def send_all(self, data: bytes):
        if self._broken is not None:
            raise self._broken
        yield self._simulator.timeout(self._delay)
        if self._broken is not None:
            raise self._broken
        if self.silent:
            return
        if self.peer._broken is not None or self.peer._eof:
            raise EOFError("pipe peer is gone")
        self.peer._buf.extend(data)
        self.peer._wake()

    def recv(self, maxbytes: int):
        while True:
            if self._buf:
                take = bytes(self._buf[:maxbytes])
                del self._buf[: len(take)]
                return take
            if self._broken is not None:
                raise self._broken
            if self._eof:
                return b""
            ev = self._simulator.event()
            self._waiters.append(ev)
            yield ev

    def _wake(self, exc=None) -> None:
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if exc is not None:
                ev.fail(exc)
                ev.defused = True
            else:
                ev.succeed()

    def close(self) -> None:
        self._eof = True
        self._wake()
        if self.peer is not None and not self.peer._eof:
            self.peer._eof = True
            self.peer._wake()

    def abort(self) -> None:
        exc = EOFError("pipe aborted")
        self._broken = exc
        self._wake(exc)
        if self.peer is not None and self.peer._broken is None:
            self.peer._eof = True
            self.peer._wake()

    def break_both(self, exc=None) -> None:
        exc = exc or TcpError("pipe severed")
        for end in (self, self.peer):
            end._broken = exc
            end._wake(exc)


def _pipe_pair(sim) -> tuple[_PipeEnd, _PipeEnd]:
    a, b = _PipeEnd(sim), _PipeEnd(sim)
    a.peer, b.peer = b, a
    return a, b


_FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.05, multiplier=1.5, max_delay=0.2, jitter=0.0
)

_CONFIG = SessionConfig(ack_every=4096, max_buffer=1 << 16, heartbeat=0.5)


def _session_pair(sim, reconnect_works: bool = True):
    """An initiator/responder SessionLink pair over a fresh pipe.

    The initiator's reconnect callable builds a new pipe and hands the
    far end to the responder's ``_reattach`` — the same shape the
    factory layer provides over the real network.
    """
    a, b = _pipe_pair(sim)
    responder = SessionLink(b, sid=0xD0C, role=SessionLink.RESPONDER, config=_CONFIG)

    def reconnect(_session):
        if not reconnect_works:
            raise TcpError("no path to peer")
        na, nb = _pipe_pair(sim)
        sim.process(responder._reattach(nb), name="test-reattach")
        return na
        yield  # pragma: no cover - makes this a generator

    initiator = SessionLink(
        a,
        sid=0xD0C,
        role=SessionLink.INITIATOR,
        config=_CONFIG,
        reconnect=reconnect,
        retry_policy=_FAST_RETRY,
    )
    return initiator, responder


def _run_transfer(sim, tx, rx, payload: bytes, until: float = 120.0) -> dict:
    res: dict = {}

    def sender():
        yield from tx.send_all(payload)
        tx.close()

    def receiver():
        chunks = []
        while True:
            data = yield from rx.recv(65536)
            if not data:
                break
            chunks.append(data)
        res["got"] = b"".join(chunks)
        rx.close()

    sim.process(sender(), name="test-sender")
    sim.process(receiver(), name="test-receiver")
    sim.run(until=sim.now + until)
    return res


class TestSessionLink:
    def test_round_trip_and_graceful_close(self):
        sim = Simulator()
        ini, res = _session_pair(sim)
        payload = bytes(range(256)) * 300
        out = _run_transfer(sim, ini, res, payload)
        assert out["got"] == payload
        assert ini.state == "finished"
        assert res.state == "finished"
        assert ini.reconnects == 0

    def test_mid_stream_break_is_survived_and_replayed(self):
        sim = Simulator()
        ini, res = _session_pair(sim)
        payload = bytes(range(256)) * 2000  # ~512 KiB, many sim-seconds

        def breaker():
            yield sim.timeout(0.3)
            ini.raw.break_both()

        sim.process(breaker(), name="test-breaker")
        out = _run_transfer(sim, ini, res, payload)
        assert out["got"] == payload
        assert ini.state == "finished" and res.state == "finished"
        assert ini.reconnects == 1
        assert res.reconnects == 1
        assert ini.replayed_bytes > 0

    def test_repeated_breaks_each_resume(self):
        sim = Simulator()
        ini, res = _session_pair(sim)
        payload = bytes(range(256)) * 2000

        def breaker():
            for _ in range(3):
                yield sim.timeout(0.4)
                if ini.state == "active":
                    ini.raw.break_both()

        sim.process(breaker(), name="test-breaker")
        out = _run_transfer(sim, ini, res, payload)
        assert out["got"] == payload
        assert ini.reconnects >= 2

    def test_silent_stall_trips_the_watchdog(self):
        sim = Simulator()
        ini, res = _session_pair(sim)
        payload = bytes(range(256)) * 2000

        def stall():
            yield sim.timeout(0.3)
            raw = ini.raw
            raw.silent = True
            raw.peer.silent = True

        sim.process(stall(), name="test-staller")
        out = _run_transfer(sim, ini, res, payload)
        assert out["got"] == payload
        assert ini.reconnects >= 1  # the watchdog, not a transport error

    def test_break_during_close_still_finishes(self):
        # The FIN itself must survive recovery: sever the link after the
        # sender has closed but (possibly) before the FINACK round-trips.
        sim = Simulator()
        ini, res = _session_pair(sim)
        payload = b"tail" * 10_000

        def sender():
            yield from ini.send_all(payload)
            ini.close()
            ini.raw.break_both()

        got: dict = {}

        def receiver():
            chunks = []
            while True:
                data = yield from res.recv(65536)
                if not data:
                    break
                chunks.append(data)
            got["data"] = b"".join(chunks)
            res.close()

        sim.process(sender(), name="test-sender")
        sim.process(receiver(), name="test-receiver")
        sim.run(until=sim.now + 120)
        assert got["data"] == payload
        assert ini.state == "finished" and res.state == "finished"

    def test_resume_exhaustion_fails_the_session(self):
        sim = Simulator()
        ini, res = _session_pair(sim, reconnect_works=False)
        outcome: dict = {}

        def sender():
            try:
                yield from ini.send_all(b"x" * 200_000)
                outcome["sent"] = True
            except SessionError:
                outcome["send_error"] = True

        def receiver():
            try:
                while True:
                    data = yield from res.recv(65536)
                    if not data:
                        return
            except SessionError:
                outcome["recv_error"] = True

        def breaker():
            yield sim.timeout(0.1)
            ini.raw.break_both()

        sim.process(sender(), name="test-sender")
        sim.process(receiver(), name="test-receiver")
        sim.process(breaker(), name="test-breaker")
        sim.run(until=sim.now + 120)
        assert ini.state == "failed"
        assert outcome.get("send_error") or not outcome.get("sent")

    def test_send_after_close_raises(self):
        sim = Simulator()
        ini, res = _session_pair(sim)
        _run_transfer(sim, ini, res, b"done")
        with pytest.raises(SessionError):
            next(ini.send_all(b"more"))

    def test_backpressure_bounds_the_replay_buffer(self):
        sim = Simulator()
        ini, res = _session_pair(sim)
        payload = bytes(range(256)) * 2000
        high_water: list[int] = []

        def probe():
            while ini.state not in ("finished", "failed"):
                high_water.append(ini._core.replay.size)
                yield sim.timeout(0.05)

        sim.process(probe(), name="test-probe")
        out = _run_transfer(sim, ini, res, payload)
        assert out["got"] == payload
        assert max(high_water) <= _CONFIG.max_buffer + MAX_CHUNK


class TestReplayRetune:
    """Tuner-driven mid-stream resize of the replay-window bound."""

    def _quiet_pair(self, sim, max_buffer: int):
        config = SessionConfig(ack_every=2048, max_buffer=max_buffer,
                               heartbeat=30.0)
        a, b = _pipe_pair(sim)
        responder = SessionLink(
            b, sid=0xD0D, role=SessionLink.RESPONDER, config=config)
        def reconnect(_session):
            raise TcpError("no reconnect in this test")
            yield  # pragma: no cover - makes this a generator

        initiator = SessionLink(
            a, sid=0xD0D, role=SessionLink.INITIATOR, config=config,
            reconnect=reconnect, retry_policy=_FAST_RETRY)
        return initiator, responder, b

    def test_growth_wakes_a_blocked_sender(self):
        sim = Simulator()
        ini, res, res_pipe = self._quiet_pair(sim, max_buffer=8192)
        payload = bytes(range(256)) * 4096  # 1 MiB, >> the window

        def sender():
            yield from ini.send_all(payload)

        sim.process(sender(), name="test-sender")
        sim.run(until=0.3)
        # Silence the responder's acks: the window can only drain by
        # having its bound grown, never by acknowledgement.
        res_pipe.silent = True
        sim.run(until=1.0)
        stalled_at = ini._core.replay.end
        acked_at = ini._core.replay.start
        assert ini._core.replay.size >= 8192
        sim.run(until=2.0)
        assert ini._core.replay.end == stalled_at  # genuinely parked
        # Grow well past the stalled window (each admitted chunk may
        # overshoot the bound by up to MAX_CHUNK).
        ini.set_max_buffer(ini._core.replay.size + 4 * MAX_CHUNK)
        sim.run(until=3.0)
        # The grown bound released the sender without any ack arriving.
        assert ini._core.replay.start == acked_at
        assert ini._core.replay.end > stalled_at

    def test_shrink_keeps_buffered_bytes(self):
        sim = Simulator()
        ini, res, _ = self._quiet_pair(sim, max_buffer=1 << 16)
        payload = bytes(range(256)) * 1024

        def sender():
            yield from ini.send_all(payload)
            ini.close()

        sim.process(sender(), name="test-sender")
        sim.run(until=0.2)
        buffered = ini._core.replay.size
        ini.set_max_buffer(4096)
        assert ini.config.max_buffer == 4096
        assert ini._core.replay.size == buffered  # nothing dropped
        out: dict = {}

        def receiver():
            chunks = []
            while True:
                data = yield from res.recv(65536)
                if not data:
                    break
                chunks.append(data)
            out["got"] = b"".join(chunks)

        sim.process(receiver(), name="test-receiver")
        sim.run(until=60)
        assert out["got"] == payload

    def test_retune_is_advertised_to_the_peer(self):
        sim = Simulator()
        ini, res, _ = self._quiet_pair(sim, max_buffer=1 << 16)
        payload = bytes(range(256)) * 1024

        def sender():
            yield from ini.send_all(payload)
            # Retune mid-stream: the advisory RETUNE frame rides the
            # active session.
            ini.set_max_buffer(123456)
            yield from ini.send_all(payload)
            ini.close()

        def receiver():
            while True:
                data = yield from res.recv(65536)
                if not data:
                    return

        sim.process(sender(), name="test-sender")
        sim.process(receiver(), name="test-receiver")
        sim.run(until=60)
        assert res.peer_max_buffer == 123456

    def test_occupancy_signal_in_unit_range(self):
        sim = Simulator()
        ini, res, _ = self._quiet_pair(sim, max_buffer=8192)

        def sender():
            yield from ini.send_all(bytes(64 * 1024))

        sim.process(sender(), name="test-sender")
        sim.run(until=0.5)
        assert 0.0 <= ini.replay_occupancy <= 1.0

    def test_rejects_nonpositive(self):
        sim = Simulator()
        ini, _res, _ = self._quiet_pair(sim, max_buffer=8192)
        with pytest.raises(ValueError):
            ini.set_max_buffer(0)


class TestReplayBuffer:
    def test_basic_window(self):
        buf = ReplayBuffer()
        buf.append(b"hello")
        buf.append(b" world")
        assert (buf.start, buf.end, buf.size) == (0, 11, 11)
        assert buf.ack(5) == 5
        assert buf.unacked() == b" world"
        assert buf.ack(3) == 0  # stale ack: ignored
        assert buf.start == 5
        with pytest.raises(SessionError):
            buf.ack(12)

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.binary(min_size=0, max_size=64),
                st.floats(min_value=0.0, max_value=1.25),
            ),
            max_size=50,
        )
    )
    def test_bookkeeping_under_arbitrary_interleavings(self, ops):
        """The window is always the exact unacked suffix of the stream.

        Bytes are appended and acked in arbitrary interleavings (acks may
        be stale, current, or past the end); after every operation the
        buffer must equal ``stream[start:]``, ``end`` must equal the
        total bytes ever appended, and ``start`` must be monotone — the
        bookkeeping a resume relies on to replay exactly the gap.
        """
        buf = ReplayBuffer()
        stream = b""
        prev_start = 0
        for op in ops:
            if isinstance(op, bytes):
                buf.append(op)
                stream += op
            else:
                target = int(op * len(stream))
                if target > buf.end:
                    with pytest.raises(SessionError):
                        buf.ack(target)
                else:
                    before = buf.start
                    released = buf.ack(target)
                    assert released == max(0, target - before)
            assert buf.end == len(stream)
            assert buf.unacked() == stream[buf.start :]
            assert prev_start <= buf.start <= buf.end
            prev_start = buf.start
