"""Both session bindings put the same frames on the wire.

One scripted exchange — writes below, at and above ``MAX_CHUNK``, then a
close from each end — runs through the simulated :class:`SessionLink`
over an in-memory sim pipe and through :class:`AsyncSessionLink` over
loopback TCP.  A tap under each binding records every byte it writes to
its raw link, and the decoded frame sequences must match.

Two differences are by design and are removed before comparing: the
live binding opens a session with ``RESUME``/``RESUME_OK`` at offset 0
(the sim hands the factory's already-established link to both ends),
and a cumulative ``ACK`` carries whatever offset had been delivered
when it was written, which depends on how the bytes were batched.
"""

import asyncio
import random

import pytest

from repro.core.links import Link
from repro.core.session import SessionLink
from repro.core.session_proto import (
    ACK,
    DATA,
    FIN,
    FINACK,
    MAX_CHUNK,
    RESUME,
    RESUME_OK,
    Decoder,
)
from repro.livenet import (
    AsyncSessionLink,
    AsyncSessionListener,
    live_connect,
    live_listen,
)
from repro.simnet.engine import Simulator

from ..core.test_session import _pipe_pair

pytestmark = pytest.mark.livenet

WRITES = [
    random.Random(n).randbytes(n) for n in (100, MAX_CHUNK, MAX_CHUNK + 7000)
]
PAYLOAD = b"".join(WRITES)


class _SimTap(Link):
    """A sim link that records what is written to it."""

    def __init__(self, inner: Link):
        self.inner = inner
        self.written = bytearray()
        self.method = inner.method
        self.native_tcp = inner.native_tcp

    @property
    def sim(self):
        return self.inner.sim

    def send_all(self, data: bytes):
        self.written += data
        yield from self.inner.send_all(data)

    def recv(self, maxbytes: int):
        return (yield from self.inner.recv(maxbytes))

    def close(self) -> None:
        self.inner.close()

    def abort(self) -> None:
        self.inner.abort()


class _LiveTap:
    """A live socket that records what is written to it."""

    def __init__(self, sock):
        self.sock = sock
        self.written = bytearray()

    async def send_all(self, data: bytes) -> None:
        self.written += data
        await self.sock.send_all(data)

    async def recv(self, maxbytes: int) -> bytes:
        return await self.sock.recv(maxbytes)

    async def recv_exactly(self, n: int) -> bytes:
        return await self.sock.recv_exactly(n)

    def close(self) -> None:
        self.sock.close()

    def abort(self) -> None:
        self.sock.abort()


class _TapListener:
    def __init__(self, listener):
        self.listener = listener
        self.taps = []

    @property
    def addr(self):
        return self.listener.addr

    async def accept(self):
        tap = _LiveTap(await self.listener.accept())
        self.taps.append(tap)
        return tap

    def close(self) -> None:
        self.listener.close()


def _frames(written: bytes) -> list:
    frames = Decoder().feed(bytes(written))
    return [f for f in frames if f[0] not in (RESUME, RESUME_OK)]


def _sim_exchange() -> tuple:
    sim = Simulator()
    a, b = _pipe_pair(sim)
    ta, tb = _SimTap(a), _SimTap(b)
    responder = SessionLink(tb, sid=1, role=SessionLink.RESPONDER)
    initiator = SessionLink(
        ta, sid=1, role=SessionLink.INITIATOR, reconnect=lambda _s: iter(())
    )
    received = bytearray()

    def send():
        for chunk in WRITES:
            yield from initiator.send_all(chunk)
        initiator.close()

    def receive():
        while True:
            data = yield from responder.recv(65536)
            if not data:
                break
            received.extend(data)
        responder.close()

    sim.process(send())
    sim.process(receive())
    sim.run(until=10.0)
    assert bytes(received) == PAYLOAD
    assert initiator.state == responder.state == "finished"
    return ta.written, tb.written


async def _live_exchange() -> tuple:
    listener = _TapListener(await live_listen())
    slistener = AsyncSessionListener(listener, node="res")
    taps = []

    async def dial():
        taps.append(_LiveTap(await live_connect(listener.addr)))
        return taps[-1]

    try:
        initiator, responder = await asyncio.gather(
            AsyncSessionLink.connect(dial, node="ini"), slistener.accept()
        )

        async def send():
            for chunk in WRITES:
                await initiator.send_all(chunk)
            await initiator.aclose()

        async def receive():
            received = bytearray()
            while data := await responder.recv(65536):
                received.extend(data)
            await responder.aclose()
            return received

        _, received = await asyncio.gather(send(), receive())
        assert bytes(received) == PAYLOAD
        return taps[0].written, listener.taps[0].written
    finally:
        slistener.close()


def test_sim_and_live_bindings_write_the_same_frames(live_run):
    sim_ini, sim_res = _sim_exchange()
    live_ini, live_res = live_run(_live_exchange())

    # the live session opened as a fresh sid at offset 0 both ways
    (kind, (_sid, rx_off, fin, _ctx)), *_ = Decoder().feed(bytes(live_ini))
    assert (kind, rx_off, fin) == (RESUME, 0, None)
    assert Decoder().feed(bytes(live_res))[0] == (RESUME_OK, (0, None))

    assert _frames(live_ini) == _frames(sim_ini)
    # the data direction: the 100 B, 32 KiB and 32 KiB+7000 writes as
    # four DATA frames, FIN, then the FINACK of the responder's FIN
    assert [kind for kind, _ in _frames(sim_ini)] == [DATA] * 4 + [FIN, FINACK]

    def without_acks(frames):
        return [f for f in frames if f[0] != ACK]

    assert without_acks(_frames(live_res)) == without_acks(_frames(sim_res))
    assert any(k == ACK for k, _ in _frames(live_res))
    assert any(k == ACK for k, _ in _frames(sim_res))
