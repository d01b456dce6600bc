"""The survivable-session protocol, sans-IO: one core, two bindings.

:class:`SessionCore` is the whole session protocol as a state machine
over bytes and clock readings.  It never reads a socket, waits or
sleeps; it is handed the bytes a link delivered and the current time,
and it returns frames to write and *actions* (bit flags saying which
waiters to wake).  Like the handshake in ``repro.security.handshake``
it is driven unchanged by both backends:

* ``repro.core.session.SessionLink`` — simnet generator processes;
* ``repro.livenet.session.AsyncSessionLink`` — asyncio tasks.

So both backends put the same bytes on the wire (all integers
big-endian)::

    DATA      = u8(1) u32(len) bytes      # 1 <= len <= MAX_CHUNK
    ACK       = u8(2) u64(rx_off)         # cumulative delivered bytes
    PING      = u8(3)
    PONG      = u8(4) u64(rx_off)
    FIN       = u8(5) u64(fin_off)        # sender finished at fin_off
    FINACK    = u8(6) u64(fin_off)
    RESUME    = u8(7) u64(sid) u64(rx_off) u8(fin?) u64(fin_off) ctx[24]
    RESUME_OK = u8(8) u64(rx_off) u8(fin?) u64(fin_off)
    RETUNE    = u8(9) u64(max_buffer)     # advisory replay-window resize

``ctx`` is the initiator's trace context (``TraceContext.encode()``,
all-zero when untraced), so the responder's records join the trace of
the resume.  ``RESUME``/``RESUME_OK`` only ever open a link; everything
else flows on an attached one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from ..obs.context import TraceContext
from .retry import RetryPolicy

__all__ = [
    "SessionCore",
    "SessionConfig",
    "SessionError",
    "Decoder",
    "ReplayBuffer",
    "MAX_CHUNK",
    "RESUME_POLICY",
]

DATA, ACK, PING, PONG, FIN, FINACK, RESUME, RESUME_OK, RETUNE = range(1, 10)

_DATA_HDR = struct.Struct("!BI")
_OFF_HDR = struct.Struct("!BQ")
RESUME_HDR = struct.Struct("!BQQBQ")
RESUME_OK_HDR = struct.Struct("!BQBQ")
TRACE_SIZE = TraceContext.WIRE_SIZE
_NO_TRACE = b"\0" * TRACE_SIZE

#: fixed bytes that precede a frame's variable body, by frame type
_HEAD_SIZE = {
    DATA: _DATA_HDR.size,
    ACK: _OFF_HDR.size,
    PING: 1,
    PONG: _OFF_HDR.size,
    FIN: _OFF_HDR.size,
    FINACK: _OFF_HDR.size,
    RESUME: RESUME_HDR.size + TRACE_SIZE,
    RESUME_OK: RESUME_OK_HDR.size,
    RETUNE: _OFF_HDR.size,
}

#: largest payload per DATA frame (also the replay-retransmit chunk size)
MAX_CHUNK = 32768

#: backoff for re-running establishment after a mid-stream fault; total
#: nominal delay ~15s so recovery outlives short outages but exhausts
#: well inside a chaos run's drain window
RESUME_POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.5, multiplier=2.0, max_delay=8.0, jitter=0.25
)

ACTIVE = "active"
RECOVERING = "recovering"
FINISHED = "finished"
FAILED = "failed"

#: actions returned by :class:`SessionCore`; a binding applies them in
#: this order, which is the order the waiters must be woken in
WAKE_RX = 1  # delivered bytes or the peer's FIN: wake readers
CONTROL = 2  # control frames are pending: run :meth:`SessionCore.control`
WAKE_WINDOW = 4  # replay space was released: wake blocked senders
NOTIFY = 8  # FIN/FINACK progress: wake closers and state waiters
DEAD = 16  # the peer went silent: break the link and recover


class SessionError(Exception):
    """Session protocol failure or unrecoverable session loss."""


@dataclass(frozen=True)
class SessionConfig:
    """Tuning knobs, settable from the spec layer (``session:ack=..,buf=..,hb=..``)."""

    ack_every: int = 65536
    max_buffer: int = 1 << 20
    heartbeat: float = 2.0
    dead_factor: float = 3.0
    resume_timeout: float = 20.0

    @property
    def dead_after(self) -> float:
        return self.heartbeat * self.dead_factor

    @classmethod
    def from_layer(cls, layer) -> "SessionConfig":
        """Build from a ``session`` :class:`~repro.core.utilization.spec.LayerSpec`."""
        if layer is None:
            return cls()
        return cls(
            ack_every=int(layer.get("ack", cls.ack_every)),
            max_buffer=int(layer.get("buf", cls.max_buffer)),
            heartbeat=float(layer.get("hb", cls.heartbeat)),
        )


class ReplayBuffer:
    """Unacknowledged sent bytes: a byte window [start, end) over the stream.

    ``append`` extends the window as data is sent; ``ack(off)`` trims it
    up to a cumulative delivered offset.  Stale (non-monotone) acks are
    ignored; an ack beyond what was ever sent is a protocol violation.
    """

    def __init__(self) -> None:
        self.start = 0
        self._data = bytearray()

    @property
    def end(self) -> int:
        return self.start + len(self._data)

    @property
    def size(self) -> int:
        return len(self._data)

    def append(self, data: bytes) -> None:
        self._data.extend(data)

    def ack(self, off: int) -> int:
        """Trim to cumulative offset ``off``; returns bytes released."""
        if off < self.start:
            return 0
        if off > self.end:
            raise SessionError(f"ack beyond sent data: {off} > {self.end}")
        cut = off - self.start
        del self._data[:cut]
        self.start = off
        return cut

    def unacked(self) -> bytes:
        return bytes(self._data)


class Decoder:
    """Incremental frame decoder: any split of the input, same frames.

    :meth:`feed` returns the frames the bytes so far complete, as
    ``(type, value)``: the payload for DATA, the offset for the offset
    frames, ``None`` for PING, and a tuple of the fields for RESUME and
    RESUME_OK.  :meth:`need` is the number of bytes that completes the
    next field; a binding that reads exactly that much reads one field
    at a time.  Malformed input raises :class:`SessionError`.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        #: whether the last :meth:`feed` began a new frame
        self.began = False

    def need(self) -> int:
        buf = self._buf
        if not buf:
            return 1
        head = _HEAD_SIZE.get(buf[0], 1)
        if len(buf) < head:
            return head - len(buf)
        return head + _DATA_HDR.unpack_from(buf)[1] - len(buf)

    def feed(self, data: bytes) -> list:
        buf = self._buf
        self.began = not buf and bool(data)
        buf.extend(data)
        frames = []
        pos = 0
        while pos < len(buf):
            kind = buf[pos]
            head = _HEAD_SIZE.get(kind)
            if head is None:
                raise SessionError(f"unexpected frame type {kind}")
            if len(buf) - pos < head:
                break
            if kind == DATA:
                length = _DATA_HDR.unpack_from(buf, pos)[1]
                if length == 0 or length > MAX_CHUNK:
                    raise SessionError(f"bad DATA length {length}")
                end = pos + head + length
                if len(buf) < end:
                    break
                frames.append((DATA, bytes(buf[pos + head : end])))
            else:
                end = pos + head
                frames.append((kind, _decode_fixed(kind, buf, pos)))
            pos = end
            if pos < len(buf):
                self.began = True
        del buf[:pos]
        return frames


def _decode_fixed(kind: int, buf, pos: int):
    if kind == PING:
        return None
    if kind == RESUME:
        _, sid, rx_off, fin, fin_off = RESUME_HDR.unpack_from(buf, pos)
        start = pos + RESUME_HDR.size
        blob = bytes(buf[start : start + TRACE_SIZE])
        ctx = TraceContext.decode(blob) if any(blob) else None
        return sid, rx_off, fin_off if fin else None, ctx
    if kind == RESUME_OK:
        _, rx_off, fin, fin_off = RESUME_OK_HDR.unpack_from(buf, pos)
        return rx_off, fin_off if fin else None
    return _OFF_HDR.unpack_from(buf, pos)[1]


def decode_one(data: bytes, kind: int):
    """Decode ``data`` as exactly one frame of type ``kind``; its value."""
    dec = Decoder()
    frames = dec.feed(data)
    if len(frames) != 1 or dec.need() != 1 or frames[0][0] != kind:
        got = frames[0][0] if frames else (data[0] if data else None)
        raise SessionError(f"expected frame type {kind}, got {got}")
    return frames[0][1]


def data_frame(chunk: bytes) -> bytes:
    return _DATA_HDR.pack(DATA, len(chunk)) + chunk


def off_frame(kind: int, off: int) -> bytes:
    return _OFF_HDR.pack(kind, off)


def resume_frame(
    sid: int, rx_off: int, fin: Optional[int], ctx: Optional[TraceContext]
) -> bytes:
    head = RESUME_HDR.pack(RESUME, sid, rx_off, fin is not None, fin or 0)
    return head + (ctx.encode() if ctx is not None else _NO_TRACE)


def resume_ok_frame(rx_off: int, fin: Optional[int]) -> bytes:
    return RESUME_OK_HDR.pack(RESUME_OK, rx_off, fin is not None, fin or 0)


class SessionCore:
    """One end of a session: offsets, replay window, FIN rules, heartbeat.

    Methods take received bytes or frames and the current time, update
    the state, and return frames (``bytes``) to write or action bits
    (:data:`WAKE_RX` ... :data:`DEAD`).  The binding owns links, waiting
    and observability.
    """

    def __init__(self, sid: int, config: Optional[SessionConfig] = None,
                 now: float = 0.0):
        self.sid = sid
        self.config = config or SessionConfig()
        self.state = ACTIVE
        # tx side
        self.replay = ReplayBuffer()
        self.tx_off = 0
        self.tx_fin: Optional[int] = None
        self.tx_fin_acked = False
        # rx side
        self.rx = bytearray()
        self.rx_off = 0
        self.rx_fin: Optional[int] = None
        self.rx_finack_sent = False
        self.last_ack_sent = 0
        self.last_rx = now
        #: the peer's last advertised replay bound (RETUNE; informational)
        self.peer_max_buffer = 0
        self._flags = {"ack": False, "pong": False, "finack": False, "ping": False}

    # -- tx ---------------------------------------------------------------------
    @property
    def window_full(self) -> bool:
        return self.replay.size >= self.config.max_buffer

    def send(self, chunk: bytes) -> bytes:
        """The DATA frame for ``chunk`` (at most :data:`MAX_CHUNK` bytes).

        The bytes enter the replay buffer *before* the write, so a link
        that dies mid-frame has them retransmitted after resume.
        """
        self.replay.append(chunk)
        self.tx_off += len(chunk)
        return data_frame(chunk)

    def close(self) -> bool:
        """Mark the send direction finished; False if it already was."""
        if self.tx_fin is not None:
            return False
        self.tx_fin = self.tx_off
        return True

    # -- rx ---------------------------------------------------------------------
    def feed(self, decoder: Decoder, data: bytes, now: float) -> list:
        """Decode received bytes; a frame that begins in them feeds the
        watchdog.  The frames still have to be :meth:`handle`-d."""
        frames = decoder.feed(data)
        if decoder.began:
            self.last_rx = now
        return frames

    def handle(self, kind: int, value) -> int:
        """Apply one frame of an attached link; returns action bits."""
        if kind == DATA:
            self.rx_off += len(value)
            if self.rx_fin is not None and self.rx_off > self.rx_fin:
                raise SessionError("data past the peer's FIN offset")
            self.rx.extend(value)
            act = WAKE_RX
            if self.rx_done:
                act |= self._flag("finack")
            if self.rx_off - self.last_ack_sent >= self.config.ack_every:
                act |= self._flag("ack")
            return act
        if kind == ACK or kind == PONG:
            return WAKE_WINDOW if self.replay.ack(value) else 0
        if kind == FIN:
            if value < self.rx_off:
                raise SessionError(
                    f"peer FIN at {value} below delivered offset {self.rx_off}"
                )
            self.rx_fin = value
            act = WAKE_RX | NOTIFY
            if self.rx_off >= value:
                act |= self._flag("finack")
            return act
        if kind == FINACK:
            if self.tx_fin is None or value != self.tx_fin:
                return 0
            self.replay.ack(value)
            self.tx_fin_acked = True
            return WAKE_WINDOW | NOTIFY
        if kind == PING:
            return self._flag("pong")
        if kind == RETUNE:
            self.peer_max_buffer = value
            return 0
        raise SessionError(f"unexpected frame type {kind}")

    def take(self, maxbytes: int) -> bytes:
        take = bytes(self.rx[:maxbytes])
        del self.rx[: len(take)]
        return take

    @property
    def rx_done(self) -> bool:
        """The peer's FIN arrived and every byte before it was delivered."""
        return self.rx_fin is not None and self.rx_off >= self.rx_fin

    # -- control frames ---------------------------------------------------------
    def _flag(self, name: str) -> int:
        self._flags[name] = True
        return CONTROL

    @property
    def control_pending(self) -> bool:
        return self.state == ACTIVE and any(self._flags.values())

    def control(self) -> tuple[bytes, bool]:
        """The pending control frames as one write, and whether it holds
        the FINACK (report a successful write with :meth:`finack_written`).
        """
        flags = self._flags
        frames = []
        if flags["pong"]:
            frames.append(off_frame(PONG, self.rx_off))
            self.last_ack_sent = self.rx_off
            flags["pong"] = flags["ack"] = False
        elif flags["ack"]:
            frames.append(off_frame(ACK, self.rx_off))
            self.last_ack_sent = self.rx_off
            flags["ack"] = False
        if flags["ping"]:
            frames.append(bytes([PING]))
            flags["ping"] = False
        finack = flags["finack"] and self.rx_done
        if finack:
            frames.append(off_frame(FINACK, self.rx_fin))
            flags["finack"] = False
        return b"".join(frames), finack

    def finack_written(self) -> int:
        if self.rx_finack_sent:
            return 0
        self.rx_finack_sent = True
        return NOTIFY

    @property
    def closed(self) -> bool:
        """Both directions finished: our FIN acked, the peer's FINACKed."""
        return self.tx_fin_acked and self.rx_finack_sent

    # -- heartbeat / watchdog ---------------------------------------------------
    def tick(self, now: float, initiator: bool) -> int:
        """One heartbeat-interval tick of an active session.

        :data:`DEAD` when the initiator has heard nothing for
        ``dead_after``: a silent stall (a firewall eating packets without
        erroring; simulated TCP retransmits forever) that recovery must
        break.  Otherwise a PING is queued once the receive side idles
        for a heartbeat.  The responder never breaks the link.  Its pings
        keep the watchdog fed and double as middlebox keepalives: after a
        conntrack flush any *outbound* packet from inside the site
        re-creates the state entry, so a ping from the quiet end often
        heals the stall before the watchdog has to force a reconnect.
        """
        idle = now - self.last_rx
        if idle >= self.config.dead_after and initiator:
            return DEAD
        if idle >= self.config.heartbeat:
            return self._flag("ping")
        return 0

    # -- failure, resume --------------------------------------------------------
    def broken(self) -> bool:
        """The link died; False if the session was not active."""
        if self.state != ACTIVE:
            return False
        self.state = RECOVERING
        return True

    def resume_frame(self, ctx: Optional[TraceContext]) -> bytes:
        """The initiator's RESUME for a fresh link."""
        return resume_frame(self.sid, self.rx_off, self.tx_fin, ctx)

    def resume_ok_frame(self) -> bytes:
        return resume_ok_frame(self.rx_off, self.tx_fin)

    def on_resume(self, data: bytes) -> tuple[int, Optional[TraceContext]]:
        """Responder: check a RESUME; returns the peer's rx offset and ctx."""
        sid, peer_rx, fin, ctx = decode_one(data, RESUME)
        if sid != self.sid:
            raise SessionError(f"bad RESUME (sid {sid:016x})")
        self._peer_fin(fin)
        return peer_rx, ctx

    def on_resume_ok(self, data: bytes) -> int:
        """Initiator: check a RESUME_OK; returns the peer's rx offset."""
        peer_rx, fin = decode_one(data, RESUME_OK)
        self._peer_fin(fin)
        return peer_rx

    def _peer_fin(self, fin: Optional[int]) -> None:
        if fin is None:
            return
        if fin < self.rx_off:
            raise SessionError(
                f"peer FIN at {fin} below delivered offset {self.rx_off}"
            )
        self.rx_fin = fin

    def replay_frames(self, peer_rx: int) -> tuple[int, list, int]:
        """Trim the replay window to the peer's delivered offset.

        Returns the bytes released, the frames that retransmit the rest
        (plus FIN, if we were closing) and the number of bytes replayed.
        They must be written before anything else on the fresh link, so
        replayed bytes keep their stream position.
        """
        released = self.replay.ack(peer_rx)
        pending = self.replay.unacked()
        frames = [
            data_frame(pending[i : i + MAX_CHUNK])
            for i in range(0, len(pending), MAX_CHUNK)
        ]
        if self.tx_fin is not None:
            frames.append(off_frame(FIN, self.tx_fin))
        return released, frames, len(pending)

    def attached(self, now: float) -> int:
        """A resumed link is live: reset the watchdog and queue an ACK so
        the peer can trim its replay window even if no data flows soon."""
        self.state = ACTIVE
        self.last_rx = now
        self._flag("ack")
        if self.rx_done:
            self._flag("finack")
        return CONTROL
