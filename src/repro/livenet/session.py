"""Survivable sessions over real sockets: the asyncio binding.

The session protocol is :class:`~repro.core.session_proto.SessionCore`,
the same sans-IO core the simulated :class:`~repro.core.session.SessionLink`
drives, so both backends put the same frames on the wire
(docs/PROTOCOLS.md, "Sessions").  This module only moves bytes and
wakes waiters:

* :meth:`AsyncSessionLink.connect` opens a new session with ``RESUME``
  at offset 0 for a fresh session id; the :class:`AsyncSessionListener`
  answers ``RESUME_OK`` and hands the session to :meth:`~AsyncSessionListener.accept`;
* when the transport dies, the initiator redials (through whatever
  gateway the harness interposed, backing off under a
  :class:`~repro.core.retry.RetryPolicy`), sends ``RESUME`` with its
  delivered offset and replays the gap; the responder parks until the
  listener routes the reconnect to it by session id;
* :meth:`AsyncSessionLink.aclose` sends ``FIN`` and returns once the
  peer has ``FINACK``-ed every byte.  The closed end keeps reading until
  the peer's own ``FIN`` is ``FINACK``-ed or the link ends, so two ends
  closing at once both finish;
* one heartbeat timer per session sends ``PING`` on an idle link, and
  the initiator's watchdog breaks a link that stays silent.

Observability matches the sim layer: each successful resume records one
``session.resume`` span with ``outcome=ok`` and increments
``session.reconnects_total`` (role-labelled), and replayed bytes land in
``session.replayed_bytes_total`` — so the chaos invariant suite and
report stats work unchanged on live runs.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Optional

from .. import obs
from ..core.retry import RetryPolicy
from ..core.session_proto import (
    ACTIVE,
    DEAD,
    FAILED,
    FIN,
    FINISHED,
    MAX_CHUNK,
    NOTIFY,
    RECOVERING,
    RESUME,
    RESUME_HDR,
    RESUME_OK_HDR,
    RESUME_POLICY,
    TRACE_SIZE,
    WAKE_RX,
    WAKE_WINDOW,
    Decoder,
    SessionCore,
    SessionError,
    decode_one,
    off_frame,
)
from ..obs import fmt_id, next_id
from .transport import LiveListener, LiveSocket

__all__ = ["AsyncSessionLink", "AsyncSessionListener", "AsyncSessionError"]

#: one error type for both bindings
AsyncSessionError = SessionError

#: per-attempt budget for dialling and the RESUME/RESUME_OK exchange: a
#: gateway silently black-holing the RESUME must time the attempt out,
#: not hang the resume loop
HANDSHAKE_TIMEOUT = 3.0

#: bytes asked of the raw link per read; the decoder takes any split
_READ_SIZE = 2 * MAX_CHUNK

_LINK_ERRORS = (EOFError, OSError, asyncio.TimeoutError)


class AsyncSessionLink:
    """One survivable byte stream; exposes the LiveSocket API."""

    INITIATOR = "initiator"
    RESPONDER = "responder"

    def __init__(
        self,
        sid: int,
        role: str,
        node: str = "?",
        dial: Optional[Callable[[], Awaitable[LiveSocket]]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        ctx=None,
    ):
        self.sid = sid
        self.role = role
        self.node = node
        self.reconnects = 0
        self.replayed_bytes = 0
        self._dial = dial
        self._retry_policy = retry_policy or RESUME_POLICY
        self._ctx = ctx
        self._core = SessionCore(sid, now=time.monotonic())
        self._sock = None
        self._lock = asyncio.Lock()
        self._changed = asyncio.Event()
        self._tasks: set = set()
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._failure = ""
        #: the application is done with the session (aclose returned or
        #: it was torn down); only the lingering reader may still run
        self._closed = False

    @property
    def state(self) -> str:
        return self._core.state

    # -- construction ------------------------------------------------------
    @classmethod
    async def connect(
        cls,
        dial: Callable[[], Awaitable[LiveSocket]],
        node: str = "initiator",
        ctx=None,
        **kwargs,
    ) -> "AsyncSessionLink":
        """Dial, open the session with RESUME at offset 0, return it."""
        link = cls(
            next_id(), cls.INITIATOR, node=node, dial=dial,
            ctx=ctx or obs.current(), **kwargs,
        )
        sock = await dial()
        try:
            await link._open(sock, link._ctx)
        except BaseException:
            sock.close()
            link._teardown()
            raise
        obs.event(
            "session.established", ctx=link._ctx, node=node,
            session=fmt_id(link.sid), backend="live",
        )
        return link

    async def _open(self, sock: LiveSocket, ctx) -> int:
        """Initiator: RESUME on a fresh link, then replay; bytes replayed."""
        await sock.send_all(self._core.resume_frame(ctx))
        reply = await asyncio.wait_for(
            sock.recv_exactly(RESUME_OK_HDR.size), timeout=HANDSHAKE_TIMEOUT
        )
        return await self._attach(sock, self._core.on_resume_ok(reply))

    async def _accept(self, sock: LiveSocket, resume: bytes) -> None:
        """Responder: answer a RESUME with RESUME_OK, replay, adopt ``sock``."""
        core = self._core
        if self._closed or core.state in (FINISHED, FAILED):
            raise AsyncSessionError(f"session {fmt_id(self.sid)} is {core.state}")
        resumed = self._sock is not None
        if resumed and core.state == ACTIVE:
            # the initiator re-established a link we never saw die
            self._broken(self._sock, AsyncSessionError("peer re-established"))
        peer_rx, _ctx = core.on_resume(resume)
        await sock.send_all(core.resume_ok_frame())
        replayed = await self._attach(sock, peer_rx)
        if resumed:
            self._count_resume(replayed)
            obs.event(
                "session.attached", ctx=self._ctx, node=self.node,
                session=fmt_id(self.sid), replayed=replayed, backend="live",
            )

    async def _attach(self, sock: LiveSocket, peer_rx: int) -> int:
        """Replay what the peer is missing on ``sock``, then adopt it."""
        core = self._core
        _, frames, replayed = core.replay_frames(peer_rx)
        for frame in frames:
            await sock.send_all(frame)
        resumed = self._sock is not None
        self._sock = sock
        if resumed:
            core.attached(time.monotonic())
        else:
            core.last_rx = time.monotonic()
            self._heartbeat_task = self._spawn(self._heartbeat())
        self._spawn(self._read(sock))
        self._changed.set()
        if core.control_pending:
            await self._write(sock, b"")
        return replayed

    # -- tasks ---------------------------------------------------------------
    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._reap)
        return task

    def _reap(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled():
            task.exception()  # errors are reported through the session state

    async def _read(self, sock: LiveSocket) -> None:
        core = self._core
        decoder = Decoder()
        try:
            while sock is self._sock and core.state == ACTIVE:
                data = await sock.recv(_READ_SIZE)
                if not data:
                    raise EOFError("session link closed")
                frames = core.feed(decoder, data, time.monotonic())
                if sock is not self._sock:
                    return
                actions = 0
                for kind, value in frames:
                    actions |= core.handle(kind, value)
                self._apply(actions)
                if core.control_pending and not self._lock.locked():
                    await self._write(sock, b"")
        except SessionError as exc:
            if sock is self._sock:
                self._fail(f"protocol violation: {exc}")
        except _LINK_ERRORS as exc:
            self._broken(sock, exc)

    async def _heartbeat(self) -> None:
        core = self._core
        while True:  # cancelled by aclose and teardown
            await asyncio.sleep(core.config.heartbeat)
            if core.state != ACTIVE:
                continue
            actions = core.tick(time.monotonic(), self.role == self.INITIATOR)
            if actions & DEAD:
                self._broken(self._sock, AsyncSessionError("peer went silent"))
            elif actions and not self._lock.locked():
                await self._write(self._sock, b"")

    async def _write(self, sock: LiveSocket, frame: bytes) -> bool:
        """Write ``frame``, then any pending control frames, on ``sock``.

        A writer holding the lock flushes control frames queued while it
        wrote, so the reader never waits behind a slow send.  False when
        ``sock`` was replaced meanwhile (recovery replays what mattered)
        or the write broke it.
        """
        core = self._core
        async with self._lock:
            if sock is not self._sock:
                return False
            try:
                if frame:
                    await sock.send_all(frame)
                while core.control_pending:
                    control, finack = core.control()
                    await sock.send_all(control)
                    if finack:
                        self._apply(core.finack_written())
            except _LINK_ERRORS as exc:
                self._broken(sock, exc)
                return False
        return True

    def _apply(self, actions: int) -> None:
        if actions & (WAKE_RX | WAKE_WINDOW | NOTIFY):
            self._changed.set()
        if self._closed and self._core.closed:
            self._teardown()  # the lingering end FINACKed the peer's FIN

    async def _wait(self, cond) -> None:
        while not cond():
            self._changed.clear()
            await self._changed.wait()

    # -- failure and resume ------------------------------------------------
    def _broken(self, sock, exc: BaseException) -> None:
        if sock is not self._sock:
            return
        if self._closed:
            self._teardown()
            return
        if not self._core.broken():
            return
        sock.abort()
        if self.role == self.INITIATOR:
            self._spawn(self._recover())
        # the responder parks: the listener attaches the reconnect
        self._changed.set()

    def _fail(self, why: str) -> None:
        self._failure = why
        self._core.state = FAILED
        self._teardown()

    async def _recover(self) -> None:
        t0 = time.time()
        last = "exhausted attempts"
        # own span identity, parented on the stage/root span, so the
        # resume shows up as a child in the assembled cross-node tree
        span_ctx = self._ctx.child() if self._ctx is not None else None
        delays = self._retry_policy.delays(f"session:{self.sid:x}")
        for attempt in range(self._retry_policy.max_attempts):
            if attempt:
                await asyncio.sleep(next(delays))
            if self._core.state != RECOVERING:
                return
            sock = None
            try:
                sock = await asyncio.wait_for(
                    self._dial(), timeout=HANDSHAKE_TIMEOUT
                )
                replayed = await self._open(sock, span_ctx)
            except (*_LINK_ERRORS, SessionError) as exc:
                last = f"{type(exc).__name__}: {exc}"
                if sock is not None and sock is not self._sock:
                    sock.close()
                continue
            self._count_resume(replayed)
            obs.record_span(
                "session.resume", t0, time.time(), ctx=span_ctx,
                node=self.node, outcome="ok", attempt=attempt,
                replayed=replayed, backend="live",
            )
            return
        obs.record_span(
            "session.resume", t0, time.time(), ctx=span_ctx,
            node=self.node, outcome="error", error=last, backend="live",
        )
        self._fail(f"resume failed: {last}")

    def _count_resume(self, replayed: int) -> None:
        self.reconnects += 1
        self.replayed_bytes += replayed
        reg = obs.metrics()
        reg.counter(
            "session.reconnects_total", role=self.role,
            node=self.node, backend="live",
        ).inc()
        reg.counter(
            "session.replayed_bytes_total", node=self.node, backend="live"
        ).inc(replayed)

    # -- the socket API ----------------------------------------------------
    async def send_all(self, data: bytes) -> None:
        core = self._core
        if self._closed or core.tx_fin is not None:
            raise AsyncSessionError("session closed for sending")
        for start in range(0, len(data), MAX_CHUNK):
            if core.state != ACTIVE or core.window_full:
                await self._wait(
                    lambda: core.state != RECOVERING and not core.window_full
                    or core.state in (FINISHED, FAILED)
                )
                if core.state != ACTIVE:
                    raise AsyncSessionError(f"session {core.state}: {self._failure}")
            chunk = bytes(data[start : start + MAX_CHUNK])
            await self._write(self._sock, core.send(chunk))

    async def recv(self, maxbytes: int) -> bytes:
        core = self._core
        while not core.rx:
            if core.rx_done:
                return b""
            if core.state == FAILED:
                raise EOFError(f"session failed: {self._failure}")
            if self._closed:
                return b""
            self._changed.clear()
            await self._changed.wait()
        return core.take(maxbytes)

    async def recv_exactly(self, n: int) -> bytes:
        parts, remaining = [], n
        while remaining > 0:
            data = await self.recv(remaining)
            if not data:
                raise EOFError(f"session ended with {remaining}/{n} missing")
            parts.append(data)
            remaining -= len(data)
        return b"".join(parts)

    async def aclose(self, timeout: float = 20.0) -> None:
        """Graceful close: FIN, then wait until the peer FINACKs every byte."""
        core = self._core
        if self._closed and core.state != FAILED:
            return
        if core.state != FAILED:
            core.close()
            try:
                await asyncio.wait_for(self._send_fin(), timeout)
            except asyncio.TimeoutError:
                self._teardown()
                raise AsyncSessionError(
                    f"close timed out with {core.replay.size} bytes unacked"
                ) from None
        if core.state == FAILED:
            self._teardown()
            raise AsyncSessionError(f"session failed: {self._failure}")
        self._closed = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
        self._apply(0)  # done already, or linger for the peer's FIN

    async def _send_fin(self) -> None:
        core = self._core
        # FIN on whatever link is current (a resume replays it)
        while core.state != FAILED and not core.tx_fin_acked:
            await self._wait(lambda: core.state != RECOVERING)
            fin = off_frame(FIN, core.tx_fin)
            if core.state != ACTIVE or await self._write(self._sock, fin):
                break
        await self._wait(
            lambda: core.tx_fin_acked or core.state in (FINISHED, FAILED)
        )

    def _teardown(self) -> None:
        self._closed = True
        if self._core.state != FAILED:
            self._core.state = FINISHED
        me = asyncio.current_task()
        for task in list(self._tasks):
            if task is not me:
                task.cancel()
        if self._sock is not None:
            self._sock.close()
        self._changed.set()

    def close(self) -> None:
        """Sync close (driver-stack compatible): schedules the graceful one."""
        if not self._closed:
            self._spawn(self.aclose())

    def abort(self) -> None:
        """Hard kill of the *current transport* (not the session)."""
        if self._sock is not None:
            self._sock.abort()


class AsyncSessionListener:
    """Accepts session RESUMEs; routes reconnects to live sessions."""

    def __init__(self, listener: LiveListener, node: str = "responder"):
        self.listener = listener
        self.node = node
        self.sessions: dict[int, AsyncSessionLink] = {}
        self._accepts: asyncio.Queue = asyncio.Queue()
        self._handshakes: set = set()
        self._task = asyncio.ensure_future(self._accept_loop())

    @property
    def addr(self):
        return self.listener.addr

    async def accept(self) -> AsyncSessionLink:
        """The next *new* session (reconnects never surface here)."""
        return await self._accepts.get()

    async def _accept_loop(self) -> None:
        while True:
            sock = await self.listener.accept()
            task = asyncio.ensure_future(self._handshake(sock))
            self._handshakes.add(task)
            task.add_done_callback(self._handshakes.discard)

    async def _handshake(self, sock: LiveSocket) -> None:
        try:
            resume = await sock.recv_exactly(RESUME_HDR.size + TRACE_SIZE)
            sid, peer_rx, fin, _ctx = decode_one(resume, RESUME)
            link = self.sessions.get(sid)
            if link is not None:
                await link._accept(sock, resume)
                return
            if peer_rx or fin is not None:
                raise AsyncSessionError(f"RESUME for unknown session {fmt_id(sid)}")
            link = AsyncSessionLink(
                sid, AsyncSessionLink.RESPONDER, node=self.node,
                ctx=obs.current(),
            )
            await link._accept(sock, resume)
            self.sessions[sid] = link
            self._accepts.put_nowait(link)
        except (*_LINK_ERRORS, SessionError):
            sock.close()

    def close(self) -> None:
        self._task.cancel()
        for task in list(self._handshakes):
            task.cancel()
        self.listener.close()
        for link in self.sessions.values():
            link._teardown()
        self.sessions.clear()
