"""Survivable sessions: mid-stream link recovery with offset negotiation.

The paper separates connection *establishment* from link *utilization*
(§3–§4), but an established link still dies with the one physical
connection it started on: a NAT table flush, a relay crash or an abrupt
peer drop mid-transfer severs the stream and the bytes in flight are
gone.  GridFTP answers this with restart markers and MPWide with
reconnecting wide-area paths; this module is the reproduction's version
of that cure.

:class:`SessionLink` wraps any established data :class:`~repro.core.links.Link`
with

* a session id and per-direction delivered-byte counters,
* a bounded replay buffer of unacknowledged bytes, trimmed by periodic
  cumulative acks carried on the same stream (control frames interleave
  with data frames),
* transparent re-establishment on transport error: the initiator re-runs
  the decision-tree factory (through the shared
  :class:`~repro.core.retry.RetryPolicy` backoff), sends
  ``RESUME <sid, rx_off>``, the responder's :class:`SessionRegistry`
  re-attaches the surviving session state, both sides trim their replay
  buffers to the peer's delivered offset and retransmit the rest.

The logical stream above (a utilization driver stack, an IPL port
channel) never observes the fault — ``send_all``/``recv`` simply stall
during recovery and the byte stream resumes exactly where it broke, so
delivery stays byte-identical and FIFO.

The protocol itself (frames, offsets, replay window, FIN rules, the
heartbeat decision) is the sans-IO :class:`~repro.core.session_proto.SessionCore`;
this module is its simnet binding: generator processes that move bytes
between the core and the raw link, and wake whoever waits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Generator, Optional

from .. import obs
from ..obs import TraceContext
from ..obs.flight import FlightRecorder
from ..simnet.engine import with_timeout
from .links import Link, transport_errors
from .retry import RetryPolicy, retrying
from .session_proto import (
    ACTIVE,
    CONTROL,
    DEAD,
    FAILED,
    FIN,
    FINISHED,
    MAX_CHUNK,
    NOTIFY,
    RECOVERING,
    RESUME_HDR,
    RESUME_OK_HDR,
    RESUME_POLICY,
    RETUNE,
    TRACE_SIZE,
    WAKE_RX,
    WAKE_WINDOW,
    Decoder,
    ReplayBuffer,
    SessionConfig,
    SessionCore,
    SessionError,
    off_frame,
)

__all__ = [
    "SessionLink",
    "SessionError",
    "SessionConfig",
    "SessionRegistry",
    "ReplayBuffer",
    "RESUME_POLICY",
    "MAX_CHUNK",
]


class _Mutex:
    """FIFO mutex for generator processes (serializes writes to the raw link)."""

    def __init__(self, sim) -> None:
        self._sim = sim
        self._locked = False
        self._waiters: list = []

    def acquire(self) -> Generator:
        while self._locked:
            ev = self._sim.event()
            self._waiters.append(ev)
            yield ev
        self._locked = True

    def release(self) -> None:
        self._locked = False
        if self._waiters:
            self._waiters.pop(0).succeed()


class SessionLink(Link):
    """A logical stream that survives the death of its physical link.

    ``reconnect`` (initiator only) is a generator ``reconnect(session) ->
    Link`` that re-runs establishment to the same peer; the responder
    side is passive and re-attached through its node's
    :class:`SessionRegistry`.
    """

    INITIATOR = "initiator"
    RESPONDER = "responder"

    def __init__(
        self,
        raw: Link,
        sid: int,
        role: str,
        config: Optional[SessionConfig] = None,
        reconnect: Optional[Callable[["SessionLink"], Generator]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        peer: str = "",
        ctx: Optional[TraceContext] = None,
        node: str = "",
        flight: Optional[FlightRecorder] = None,
    ):
        if role not in (self.INITIATOR, self.RESPONDER):
            raise ValueError(f"bad session role {role!r}")
        if role == self.INITIATOR and reconnect is None:
            raise ValueError("initiator sessions need a reconnect callable")
        self.sid = sid
        self.role = role
        self.peer = peer
        #: causal identity of the connect that created this session — resume
        #: spans are children of it, so a reconnect shows up in the same
        #: trace as the original transfer
        self.ctx = ctx
        self.node = node
        self.flight = flight
        self._resume_ctx: Optional[TraceContext] = None
        self.reconnects = 0
        self.replayed_bytes = 0
        self._reconnect = reconnect
        self._retry_policy = retry_policy or RESUME_POLICY
        self._sim = raw.sim
        self._core = SessionCore(sid, config, now=self._sim.now)
        self._raw = raw
        self._gen = 0
        self._failure: Optional[Exception] = None
        self._registry: Optional["SessionRegistry"] = None
        self._mutex = _Mutex(self._sim)
        self._window_waiters: list = []
        self._rx_waiters: list = []
        self._cond_waiters: list = []
        self._control_ev = None
        self._transport = transport_errors()
        self._record("session.established", ctx, {"role": role}, peer=peer)
        self._start_pump()
        self._sim.process(self._control_loop(), name=f"session-ctl-{sid:x}-{role[0]}")
        self._sim.process(
            self._heartbeat_loop(), name=f"session-hb-{sid:x}-{role[0]}"
        )

    def _record(
        self, name: str, ctx: Optional[TraceContext], note: dict, **attrs
    ) -> None:
        """An obs event carrying the session's labels, and its flight note."""
        sid = f"{self.sid:016x}"
        obs.event(
            name, ctx=ctx, node=self.node or None, sid=sid, role=self.role, **attrs
        )
        if self.flight is not None:
            self.flight.note(name, ctx=ctx or self.ctx, sid=sid, **note)

    @staticmethod
    def _abort(link: Link) -> None:
        try:
            link.abort()
        except Exception:
            pass

    # -- metadata ----------------------------------------------------------------
    @property
    def sim(self):
        return self._sim

    @property
    def method(self) -> str:  # type: ignore[override]
        return self._raw.method

    @property
    def native_tcp(self) -> bool:  # type: ignore[override]
        return self._raw.native_tcp

    @property
    def relayed(self) -> bool:  # type: ignore[override]
        return self._raw.relayed

    @property
    def state(self) -> str:
        return self._core.state

    @property
    def config(self) -> SessionConfig:
        return self._core.config

    @property
    def peer_max_buffer(self) -> int:
        """The peer's last advertised replay bound (RETUNE; informational)."""
        return self._core.peer_max_buffer

    @property
    def raw(self) -> Link:
        """The current physical link (changes across recoveries)."""
        return self._raw

    @property
    def acked_tx(self) -> int:
        """Cumulative sent bytes the peer has acknowledged delivered.

        The authority a rebalancing parallel stack uses to decide which
        blocks are safely down and which must be retransmitted over
        surviving members when this session cannot be resumed.
        """
        return self._core.replay.start

    @property
    def replay_occupancy(self) -> float:
        """Replay-buffer fill fraction in [0, 1] (the tuner's signal)."""
        return min(1.0, self._core.replay.size / max(1, self.config.max_buffer))

    def set_max_buffer(self, max_buffer: int) -> None:
        """Retune the replay-buffer bound mid-stream (tuner-driven).

        Growth releases any senders blocked on the old bound at once.
        Shrink is graceful: already-buffered bytes are never dropped —
        the window simply stops admitting new chunks until acks drain it
        below the new bound.  An advisory RETUNE frame tells the peer
        (informational; each side's bound is locally enforced).
        """
        max_buffer = int(max_buffer)
        if max_buffer <= 0:
            raise ValueError(f"max_buffer must be positive: {max_buffer}")
        old = self.config.max_buffer
        if max_buffer == old:
            return
        self._core.config = replace(self.config, max_buffer=max_buffer)
        if max_buffer > old:
            self._wake(self._window_waiters)
        obs.metrics().counter(
            "session.retunes_total", role=self.role).inc()
        obs.event(
            "session.retuned",
            ctx=self.ctx,
            node=self.node or None,
            sid=f"{self.sid:016x}",
            old=old,
            new=max_buffer,
        )
        if self.state == ACTIVE:
            self._sim.process(
                self._send_retune(max_buffer),
                name=f"session-retune-{self.sid:x}",
            )

    def _send_retune(self, max_buffer: int) -> Generator:
        # advisory only: not worth replaying across recovery
        yield from self._send(off_frame(RETUNE, max_buffer))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        core = self._core
        return (
            f"<SessionLink {self.sid:016x} {self.role} {core.state}"
            f" tx={core.tx_off} rx={core.rx_off} over {self._raw!r}>"
        )

    # -- Link interface ----------------------------------------------------------
    def send_all(self, data: bytes) -> Generator:
        core = self._core
        if core.tx_fin is not None:
            raise SessionError("send on closed session")
        view = memoryview(bytes(data))
        offset = 0
        while offset < len(view):
            yield from self._await_active()
            if core.window_full:
                # backpressure: wait for acks to release replay space
                yield from self._park(self._window_waiters)
                continue
            chunk = bytes(view[offset : offset + MAX_CHUNK])
            offset += len(chunk)
            # a chunk the link loses is replayed by recovery
            yield from self._send(core.send(chunk))

    def recv(self, maxbytes: int) -> Generator:
        core = self._core
        while True:
            if core.rx:
                return core.take(maxbytes)
            if self._failure is not None:
                raise SessionError(f"session {self.sid:016x} failed") from self._failure
            if core.rx_done:
                return b""
            yield from self._park(self._rx_waiters)

    def close(self) -> None:
        """Graceful close: FIN at the current offset, then linger until the
        peer has everything (FINACK) and has finished its own direction."""
        if self.state in (FINISHED, FAILED) or not self._core.close():
            return
        self._sim.process(self._closer(), name=f"session-close-{self.sid:x}-{self.role[0]}")

    def abort(self) -> None:
        self._fail(SessionError("session aborted"))

    # -- send-side plumbing ------------------------------------------------------
    def _send(self, data: bytes) -> Generator:
        """Write ``data`` on the current link, serialized with other writers.

        False if the link was replaced while waiting for the mutex or the
        write broke it; recovery replays whatever mattered.
        """
        gen = self._gen
        yield from self._mutex.acquire()
        try:
            if gen != self._gen:
                return False
            yield from self._raw.send_all(data)
            return True
        except self._transport as exc:
            failure = exc
        finally:
            self._mutex.release()
        self._transport_broken(gen, failure)
        return False

    def _park(self, waiters: list) -> Generator:
        ev = self._sim.event()
        waiters.append(ev)
        yield ev

    def _await_active(self) -> Generator:
        while self.state == RECOVERING:
            yield from self._park(self._cond_waiters)
        if self.state == FAILED:
            raise SessionError(f"session {self.sid:016x} failed") from self._failure
        if self.state == FINISHED:
            raise SessionError("session closed")

    @staticmethod
    def _wake(waiters: list) -> None:
        batch = waiters[:]
        waiters.clear()
        for ev in batch:
            ev.succeed()

    def _notify(self) -> None:
        self._wake(self._cond_waiters)
        self._poke_control()

    def _apply(self, actions: int) -> None:
        """Wake the waiters a core transition asked for, in core order."""
        if actions & WAKE_RX:
            self._wake(self._rx_waiters)
        if actions & CONTROL:
            self._poke_control()
        if actions & WAKE_WINDOW:
            self._wake(self._window_waiters)
        if actions & NOTIFY:
            self._notify()

    def _wait(self, cond) -> Generator:
        while not cond():
            yield from self._park(self._cond_waiters)

    # -- control channel ---------------------------------------------------------
    def _poke_control(self) -> None:
        ev = self._control_ev
        if ev is not None and not ev.triggered:
            self._control_ev = None
            ev.succeed()

    def _control_loop(self) -> Generator:
        core = self._core
        while True:
            if core.state in (FINISHED, FAILED):
                return
            if not core.control_pending:
                ev = self._sim.event()
                self._control_ev = ev
                yield ev
                continue
            frames, finack = core.control()
            if frames and (yield from self._send(frames)) and finack:
                self._apply(core.finack_written())

    def _heartbeat_loop(self) -> Generator:
        hb = self.config.heartbeat
        while True:
            if self.state in (FINISHED, FAILED):
                return
            yield self._sim.timeout(hb)
            if self.state in (FINISHED, FAILED):
                return
            if self.state != ACTIVE:
                continue  # recovery paces itself
            actions = self._core.tick(self._sim.now, self.role == self.INITIATOR)
            if actions & DEAD:
                # silent stall: the transport never errored but the peer
                # went quiet — break the link on purpose and recover
                idle = self._sim.now - self._core.last_rx
                gen = self._gen
                obs.event(
                    "session.watchdog",
                    sid=f"{self.sid:016x}",
                    idle=round(idle, 3),
                )
                self._transport_broken(
                    gen, SessionError(f"peer silent for {idle:.1f}s")
                )
            else:
                self._apply(actions)

    # -- inbound pump ------------------------------------------------------------
    def _start_pump(self) -> None:
        self._sim.process(
            self._pump(self._raw, self._gen),
            name=f"session-pump-{self.sid:x}-{self.role[0]}-g{self._gen}",
        )

    def _pump(self, raw: Link, gen: int) -> Generator:
        core = self._core
        decoder = Decoder()
        try:
            while True:
                # one field per read: type byte, then header, then payload
                data = yield from raw.recv_exactly(decoder.need())
                frames = core.feed(decoder, data, self._sim.now)
                if frames and gen != self._gen:
                    return
                for kind, value in frames:
                    self._apply(core.handle(kind, value))
        except SessionError as exc:
            if gen == self._gen and self.state not in (FINISHED, FAILED):
                self._fail(exc)  # protocol violation: not survivable
        except self._transport as exc:
            if gen != self._gen or self.state in (FINISHED, FAILED):
                return
            if isinstance(exc, EOFError) and core.tx_fin_acked and core.rx_done:
                return  # normal teardown: the peer closed first
            self._transport_broken(gen, exc)

    # -- failure & recovery ------------------------------------------------------
    def _transport_broken(self, gen: int, exc: BaseException) -> None:
        if gen != self._gen or not self._core.broken():
            return
        self._gen += 1
        self._record(
            "session.broken", self.ctx, {"error": type(exc).__name__},
            at_tx=self._core.tx_off, at_rx=self._core.rx_off,
            error=f"{type(exc).__name__}: {exc}",
        )
        self._abort(self._raw)
        if self.role == self.INITIATOR:
            self._sim.process(self._recovery(), name=f"session-recover-{self.sid:x}")
        self._notify()

    def _fail(self, exc: Exception) -> None:
        if self.state in (FINISHED, FAILED):
            return
        self._core.state = FAILED
        self._failure = exc
        self._gen += 1
        self._abort(self._raw)
        if self._registry is not None:
            self._registry.remove(self.sid)
        self._record(
            "session.failed", self.ctx, {"error": type(exc).__name__},
            error=f"{type(exc).__name__}: {exc}",
        )
        self._wake(self._rx_waiters)
        self._wake(self._window_waiters)
        self._notify()

    def _recovery(self) -> Generator:
        started = self._sim.now
        # Each recovery is one child span of the session's originating
        # trace; the same ctx rides the re-establishment handshake and the
        # RESUME frame so relay/responder records join the tree.
        resume_ctx = self.ctx.child() if self.ctx is not None else None
        self._resume_ctx = resume_ctx
        with obs.span(
            "session.resume",
            ctx=resume_ctx,
            node=self.node or None,
            sid=f"{self.sid:016x}",
            role=self.role,
        ) as span:
            retry_on = self._transport + (
                TimeoutError,
                SessionError,
                _establishment_errors(),
            )

            def attempt(_i: int) -> Generator:
                if self.state != RECOVERING:
                    raise _ResumeAborted("session no longer recovering")
                raw = yield from self._reconnect(self)
                try:
                    yield from with_timeout(
                        self._sim,
                        self._resume_initiator(raw),
                        self.config.resume_timeout,
                    )
                except BaseException:
                    self._abort(raw)
                    raise
                return None

            try:
                yield from retrying(
                    self._sim,
                    attempt,
                    self._retry_policy,
                    retry_on=retry_on,
                    key=f"session:{self.sid:x}",
                    name="session.reconnect",
                )
            except _ResumeAborted:
                span.set(outcome="aborted")
                return
            except Exception as exc:
                span.set(outcome="failed")
                self._fail(
                    SessionError(f"session {self.sid:016x} could not be resumed")
                )
                obs.event(
                    "session.resume_exhausted",
                    sid=f"{self.sid:016x}",
                    error=f"{type(exc).__name__}: {exc}",
                )
                return
            span.set(outcome="ok")
        self.reconnects += 1
        reg = obs.metrics()
        reg.counter("session.reconnects_total", role=self.role).inc()
        reg.histogram("session.resume_seconds").observe(self._sim.now - started)
        self._record(
            "session.resumed", resume_ctx, {"reconnects": self.reconnects},
            after=round(self._sim.now - started, 6), reconnects=self.reconnects,
        )

    def _resume_initiator(self, raw: Link) -> Generator:
        # RESUME carries the recovery's trace context so the responder's
        # records land in the same span tree as the initiator's resume span.
        yield from raw.send_all(self._core.resume_frame(self._resume_ctx))
        buf = yield from raw.recv_exactly(RESUME_OK_HDR.size)
        peer_rx = self._core.on_resume_ok(buf)
        yield from self._complete_resume(raw, peer_rx)

    def _resume_responder(self, raw: Link) -> Generator:
        buf = yield from raw.recv_exactly(RESUME_HDR.size)
        buf += yield from raw.recv_exactly(TRACE_SIZE)
        peer_rx, ctx = self._core.on_resume(buf)
        rctx = ctx.child() if ctx is not None else None
        yield from raw.send_all(self._core.resume_ok_frame())
        yield from self._complete_resume(raw, peer_rx)
        self.reconnects += 1
        obs.metrics().counter("session.reconnects_total", role=self.role).inc()
        # events only on this side: the invariant layer counts every ok
        # ``session.resume`` *span* against the initiator reconnect counter
        self._record(
            "session.resumed", rctx, {"reconnects": self.reconnects},
            reconnects=self.reconnects,
        )

    def _complete_resume(self, raw: Link, peer_rx: int) -> Generator:
        """Trim the replay window to the peer's delivered offset, retransmit
        the rest (plus FIN, if we were closing) on the fresh link, then
        attach it.  Runs before anyone else can write to ``raw``, so
        replayed bytes keep their stream position."""
        released, frames, replayed = self._core.replay_frames(peer_rx)
        if released:
            self._wake(self._window_waiters)
        for frame in frames:
            yield from raw.send_all(frame)
        if replayed:
            self.replayed_bytes += replayed
            obs.metrics().counter(
                "session.replayed_bytes_total", role=self.role
            ).inc(replayed)
        self._attach(raw)

    def _attach(self, raw: Link) -> None:
        self._raw = raw
        self._gen += 1
        self._core.attached(self._sim.now)
        self._start_pump()
        self._wake(self._window_waiters)
        self._notify()

    def _reattach(self, raw: Link) -> Generator:
        """Responder side: adopt a re-established link (from the registry).

        Tolerates a session that never noticed the fault (silent stall):
        the surviving link is deliberately broken first.
        """
        if self.state in (FINISHED, FAILED):
            raise SessionError(f"session {self.sid:016x} is {self.state}")
        if self.state == ACTIVE:
            self._transport_broken(self._gen, SessionError("peer re-established"))
        try:
            yield from with_timeout(
                self._sim, self._resume_responder(raw), self.config.resume_timeout
            )
        except BaseException as exc:
            self._abort(raw)
            obs.event(
                "session.reattach_failed",
                sid=f"{self.sid:016x}",
                error=f"{type(exc).__name__}: {exc}",
            )
            # stay in RECOVERING: the initiator retries

    # -- teardown ----------------------------------------------------------------
    def _closer(self) -> Generator:
        # send FIN on whatever link is current (recovery re-sends it)
        while True:
            try:
                yield from self._await_active()
            except SessionError:
                return  # failed (or finished by a concurrent path)
            if (yield from self._send(off_frame(FIN, self._core.tx_fin))):
                break
        yield from self._wait(lambda: self.state == FAILED or self._core.closed)
        if self.state == FAILED:
            return
        self._finish()

    def _finish(self) -> None:
        if self.state in (FINISHED, FAILED):
            return
        self._core.state = FINISHED
        if self._registry is not None:
            self._registry.remove(self.sid)
        self._record(
            "session.finished", self.ctx, {"reconnects": self.reconnects},
            tx=self._core.tx_off, rx=self._core.rx_off, reconnects=self.reconnects,
        )
        try:
            self._raw.close()
        except Exception:
            pass
        self._wake(self._rx_waiters)
        self._notify()


class _ResumeAborted(Exception):
    """Internal: recovery loop noticed the session is no longer recovering."""


def _establishment_errors():
    from .brokering import EstablishmentError

    return EstablishmentError


class SessionRegistry:
    """Per-node session table: tracks live sessions and serves re-attachment.

    The initiator of a broken session opens a routed link tagged
    ``sessres:<sid>`` to the responder's node; the registry's accept loop
    runs the establishment responder over it and hands the resulting raw
    link back to the surviving :class:`SessionLink`.
    """

    def __init__(self, node) -> None:
        self.node = node
        self.sim = node.sim
        self._sessions: dict[int, SessionLink] = {}
        self._acceptor = None
        self._closed = False

    def add(self, session: SessionLink) -> None:
        self._sessions[session.sid] = session
        session._registry = self
        if session.role == SessionLink.RESPONDER:
            self.ensure_acceptor()

    def remove(self, sid: int) -> None:
        self._sessions.pop(sid, None)

    def __iter__(self):
        return iter(list(self._sessions.values()))

    def ensure_acceptor(self) -> None:
        if self._acceptor is None and not self._closed:
            self._acceptor = self.sim.process(
                self._accept_loop(), name=f"session-acceptor-{self.node.node_id}"
            )

    def close(self) -> None:
        """Node shutdown: abort whatever is still alive."""
        self._closed = True
        for session in list(self._sessions.values()):
            session.abort()
        self._sessions.clear()

    def _accept_loop(self) -> Generator:
        from .dispatch import RESUME_PREFIX

        while not self._closed:
            service = yield from self.node.dispatcher.accept_resume()
            try:
                sid = int(service.open_payload[len(RESUME_PREFIX) :], 16)
            except ValueError:
                service.close()
                continue
            self.sim.process(
                self._serve(sid, service), name=f"session-reattach-{sid:x}"
            )

    def _serve(self, sid: int, service) -> Generator:
        session = self._sessions.get(sid)
        if session is None or session.state in (FINISHED, FAILED):
            obs.event("session.resume_unknown", sid=f"{sid:016x}")
            service.close()
            return
        try:
            raw = yield from self.node.broker.respond(service)
        except Exception as exc:
            obs.event(
                "session.reattach_failed",
                sid=f"{sid:016x}",
                error=f"{type(exc).__name__}: {exc}",
            )
            service.close()
            return
        service.close()
        yield from session._reattach(raw)
