"""The three live workloads: every byte crosses the loopback interface.

Each workload object owns one stack.  A run repeats rounds of
``setup`` (timed: ``setup_s``), an untimed warm-up exchange, timed
batches of a fixed size until the round's share of the time is spent,
and ``teardown``.  Inputs are a function of the seed and the operation's
index in its round, so an untraced and a traced pass of one seed send
the same bytes.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import struct
import time

from repro.ipl.serialization import MessageReader, MessageWriter
from repro.livenet import (
    AsyncBlockChannel,
    AsyncCompressionDriver,
    AsyncParallelStreamsDriver,
    AsyncSessionLink,
    AsyncSessionListener,
    AsyncTcpBlockDriver,
    AsyncTlsDriver,
    LiveMeshRelayClient,
    LiveRelayServer,
    live_connect,
    live_listen,
)
from repro.livenet.mux import AsyncMuxEndpoint
from repro.security import CertificateAuthority, Identity
from repro.workloads import incompressible, payload_with_ratio
from spans import maybe_span

_now = time.perf_counter


#: verified outputs fingerprinted per round, for the traced-pass comparison
KEEP_OUTPUTS = 2000


class Ops:
    """Per-operation records of one pass: latencies, bytes, fingerprints."""

    def __init__(self):
        self.latencies: list[float] = []
        self.bytes = 0
        #: per round, a short fingerprint of the first verified outputs
        self.outputs: list[list] = []

    def rescale(self, first: int, factor: float) -> None:
        """Put the latencies from index ``first`` on the reference host's scale."""
        self.latencies[first:] = [t / factor for t in self.latencies[first:]]

    def verified(self, latency: float, nbytes: int, fingerprint) -> None:
        self.latencies.append(latency)
        self.bytes += nbytes
        if len(self.outputs[-1]) < KEEP_OUTPUTS:
            self.outputs[-1].append(fingerprint)


def _mark(tracer, op: int) -> None:
    """Tag the spans this task records next with operation id ``op``."""
    if tracer is not None:
        tracer.op.set(op)


async def _socket_pairs(n: int):
    listener = await live_listen()
    try:
        pairs = [
            await asyncio.gather(live_connect(listener.addr), listener.accept())
            for _ in range(n)
        ]
    finally:
        listener.close()
    return [c for c, _ in pairs], [s for _, s in pairs]


# -- bulk_stream ----------------------------------------------------------------


class BulkStream:
    """One-way 64 KiB writes over ``parallel`` striping on 2 sockets."""

    BLOCK = 65536
    STREAMS = 2
    POOL = 16
    BATCH = 512
    WARMUP = 64

    def __init__(self, seed: int, tracer=None):
        self.tracer = tracer
        data = incompressible(self.BLOCK * self.POOL, seed)
        self.blocks = [
            data[i * self.BLOCK:(i + 1) * self.BLOCK] for i in range(self.POOL)
        ]
        rng = random.Random(f"perfbench:bulk:{seed}")
        self.order = [rng.randrange(self.POOL) for _ in range(4096)]

    async def setup(self) -> None:
        cs, ss = await _socket_pairs(self.STREAMS)
        self.tx = AsyncBlockChannel(AsyncParallelStreamsDriver(cs))
        self.rx = AsyncBlockChannel(AsyncParallelStreamsDriver(ss))
        self.op = 0

    async def _transfer(self, n: int, result, ops) -> None:
        first = self.op
        self.op += n
        sent_at = [0.0] * n
        blocks = [
            self.blocks[self.order[(first + k) % len(self.order)]]
            for k in range(n)
        ]

        async def send():
            for k in range(n):
                _mark(self.tracer, first + k + 1)
                sent_at[k] = _now()
                await self.tx.write(blocks[k])

        async def recv():
            for k in range(n):
                _mark(self.tracer, first + k + 1)
                data = await self.rx.read_exactly(self.BLOCK)
                done = _now()
                if ops is None:
                    if data != blocks[k]:
                        raise RuntimeError(f"warm-up block {first + k} corrupted")
                    continue
                result.attempted += 1
                if data != blocks[k]:
                    result.fail(f"block {first + k}: received bytes differ")
                    continue
                ops.verified(
                    done - sent_at[k], len(data), (data[:16], data[-16:]))

        await asyncio.gather(send(), recv())

    async def warmup(self) -> None:
        await self._transfer(self.WARMUP, None, None)

    async def batch(self, result, ops) -> None:
        await self._transfer(self.BATCH, result, ops)

    async def teardown(self, result) -> None:
        self.tx.close()
        self.rx.close()


# -- rpc_routed -----------------------------------------------------------------


def encode_request(
    op: int, caller: int, size: int, body: bytes, check: float
) -> bytes:
    """One IPL request: op id, caller, size class, body and a float field."""
    return (
        MessageWriter()
        .write_long(op)
        .write_int(caller)
        .write_int(size)
        .write_bytes(body)
        .write_double(check)
        .getvalue()
    )


def decode_request(payload: bytes) -> tuple:
    reader = MessageReader(payload)
    fields = (
        reader.read_long(),
        reader.read_int(),
        reader.read_int(),
        reader.read_bytes(),
        reader.read_double(),
    )
    reader.finish()
    return fields


#: encoded size of a request minus its body
_IPL_OVERHEAD = len(encode_request(0, 0, 0, b"", 0.0))


class RpcRouted:
    """2 closed-loop callers, one mux channel each, over a relay-routed session.

    ``AsyncBlockChannel`` -> ``AsyncTcpBlockDriver`` -> ``AsyncMuxChannel``
    -> ``AsyncSessionLink`` -> routed link through ``LiveRelayServer``,
    registered with ``LiveMeshRelayClient`` on both ends.
    """

    CALLERS = 2
    SIZES = (64, 1024)
    BATCH = 100
    WARMUP = 20

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.replayed_bytes = 0
        self.bodies = {
            size: [
                incompressible(size - _IPL_OVERHEAD, seed * 1000 + size + i)
                for i in range(8)
            ]
            for size in self.SIZES
        }
        rng = random.Random(f"perfbench:rpc:{seed}")
        self.plan = [
            (rng.choice(self.SIZES), rng.randrange(8)) for _ in range(4096)
        ]

    async def setup(self) -> None:
        self.relay = await LiveRelayServer(name="relay-0").start()
        addrs = {"relay-0": ("127.0.0.1", self.relay.port)}
        self.alice = LiveMeshRelayClient("alice", addrs, seed=self.seed)
        self.bob = LiveMeshRelayClient("bob", addrs, seed=self.seed)
        await self.alice.connect()
        await self.bob.connect()
        self.listener = AsyncSessionListener(self.bob.link_listener(), node="bob")

        async def dial():
            return await self.alice.open_link("bob", payload=b"session")

        self.c_session, self.s_session = await asyncio.gather(
            AsyncSessionLink.connect(dial, node="alice"), self.listener.accept()
        )
        self.c_mux, self.s_mux = await asyncio.gather(
            AsyncMuxEndpoint.establish(
                self.c_session, AsyncMuxEndpoint.INITIATOR, node="alice"),
            AsyncMuxEndpoint.establish(
                self.s_session, AsyncMuxEndpoint.RESPONDER, node="bob"),
        )
        self.clients, self.servers = [], []
        for k in range(self.CALLERS):
            tag = f"caller-{k}".encode()
            cch, sch = await asyncio.gather(
                self.c_mux.open_channel(tag), self.s_mux.accept_channel(tag)
            )
            self.clients.append(AsyncBlockChannel(AsyncTcpBlockDriver(cch)))
            self.servers.append(AsyncBlockChannel(AsyncTcpBlockDriver(sch)))
        self.echoes = [
            asyncio.ensure_future(self._echo(ch)) for ch in self.servers
        ]
        self.op = [0] * self.CALLERS

    def _encode(self, *fields) -> bytes:
        with maybe_span(self.tracer, "ipl.encode"):
            return encode_request(*fields)

    def _decode(self, payload: bytes) -> tuple:
        with maybe_span(self.tracer, "ipl.decode"):
            return decode_request(payload)

    async def _echo(self, channel) -> None:
        """Decode each request and answer with a re-encoded copy."""
        while True:
            fields = self._decode(await channel.recv_message())
            if fields[0] < 0:
                return
            await channel.send_message(self._encode(*fields))

    async def _caller(self, k: int, n: int, result, ops) -> None:
        channel = self.clients[k]
        first = self.op[k]
        self.op[k] += n
        for i in range(first, first + n):
            size, pick = self.plan[(i * self.CALLERS + k) % len(self.plan)]
            sent = (i, k, size, self.bodies[size][pick], i * 0.5 + k)
            _mark(self.tracer, i * self.CALLERS + k + 1)
            t0 = _now()
            await channel.send_message(self._encode(*sent))
            reply = await channel.recv_message()
            got = self._decode(reply)
            rtt = _now() - t0
            if ops is None:
                if got != sent:
                    raise RuntimeError(f"warm-up echo {i} on caller {k} differs")
                continue
            result.attempted += 1
            if got != sent:
                bad = [f for f, (a, b) in zip(
                    ("op", "caller", "size", "body", "check"), zip(got, sent)
                ) if a != b]
                result.fail(f"caller {k} op {i}: echoed fields differ: {bad}")
                continue
            ops.verified(rtt, 2 * size, (k, i, reply))

    async def warmup(self) -> None:
        await asyncio.gather(*(
            self._caller(k, self.WARMUP, None, None) for k in range(self.CALLERS)
        ))

    async def batch(self, result, ops) -> None:
        await asyncio.gather(*(
            self._caller(k, self.BATCH, result, ops) for k in range(self.CALLERS)
        ))

    async def teardown(self, result) -> None:
        self.replayed_bytes += (
            self.c_session.replayed_bytes + self.s_session.replayed_bytes)
        for channel in self.clients:
            await channel.send_message(encode_request(-1, 0, 0, b"", 0.0))
        await asyncio.gather(*self.echoes)
        # Only the initiator closes gracefully: its FIN is acked by the
        # responder's still-running reader.  Closing both ends at once can
        # strand one (see README.md); the listener tears the responder down.
        await self.c_session.aclose()
        self.listener.close()
        self.c_mux.close()
        self.s_mux.close()
        self.alice.close()
        self.bob.close()
        self.relay.stop()


# -- secure_transfer ------------------------------------------------------------


class SecureTransfer:
    """Mutually authenticated ``tls`` over ``compress`` over ``tcp_block``.

    Each request is a 2:1-compressible message of 64 B, 1 KiB or 64 KiB
    (equal counts, seeded order); the server answers with a 64 B ack that
    carries the request's digest.
    """

    SIZES = (64, 1024, 65536)
    ACK = 64

    def __init__(self, seed: int, tracer=None):
        self.tracer = tracer
        self.payloads = {
            size: [payload_with_ratio(size, 2.0, seed * 1000 + size + i)
                   for i in range(4)]
            for size in self.SIZES
        }
        self.rng_seed = f"perfbench:secure:{seed}"
        ca = CertificateAuthority("perfbench-ca")
        self.anchors = [ca.certificate]
        key, cert = ca.issue_identity("client")
        self.client_id = Identity(key, [cert])
        key, cert = ca.issue_identity("server")
        self.server_id = Identity(key, [cert])

    async def setup(self) -> None:
        (c,), (s,) = await _socket_pairs(1)
        tx = AsyncTlsDriver(AsyncCompressionDriver(AsyncTcpBlockDriver(c)))
        rx = AsyncTlsDriver(AsyncCompressionDriver(AsyncTcpBlockDriver(s)))
        await asyncio.gather(
            tx.handshake_client(
                self.anchors, identity=self.client_id, expected_server="server"),
            rx.handshake_server(
                self.server_id, trust_anchors=self.anchors,
                require_client_auth=True),
        )
        if tx.peer_subject != "server" or rx.peer_subject != "client":
            raise RuntimeError(
                f"mutual authentication failed: {tx.peer_subject!r}, "
                f"{rx.peer_subject!r}")
        self.client = AsyncBlockChannel(tx)
        self.server = AsyncBlockChannel(rx)
        self.rng = random.Random(self.rng_seed)
        self.sent_digest = hashlib.blake2b()
        self.recv_digest = hashlib.blake2b()
        self.seq = 0
        self.acker = asyncio.ensure_future(self._ack_loop())

    async def _ack_loop(self) -> None:
        seq = 0
        while True:
            request = await self.server.recv_message()
            if not request:
                return
            self.recv_digest.update(request)
            await self.server.send_message(_ack(seq, request))
            seq += 1

    async def _exchange(self, sizes, result, ops) -> None:
        for size in sizes:
            request = self.payloads[size][self.rng.randrange(4)]
            expected = _ack(self.seq, request)
            self.seq += 1
            _mark(self.tracer, self.seq)
            t0 = _now()
            await self.client.send_message(request)
            ack = await self.client.recv_message()
            rtt = _now() - t0
            self.sent_digest.update(request)
            if ops is None:
                if ack != expected:
                    raise RuntimeError("warm-up ack does not match the request")
                continue
            result.attempted += 1
            if ack != expected:
                result.fail(f"request {self.seq - 1} ({size} B): ack mismatch")
                continue
            ops.verified(rtt, size, ack)

    async def warmup(self) -> None:
        await self._exchange(self.SIZES, None, None)

    async def batch(self, result, ops) -> None:
        sizes = list(self.SIZES)
        self.rng.shuffle(sizes)
        await self._exchange(sizes, result, ops)

    async def teardown(self, result) -> None:
        await self.client.send_message(b"")
        await self.acker
        if self.sent_digest.digest() != self.recv_digest.digest():
            result.fail("running digest of received requests differs from sent")
        self.client.close()
        self.server.close()


def _ack(seq: int, request: bytes) -> bytes:
    body = struct.pack("!Q", seq) + hashlib.blake2b(request, digest_size=32).digest()
    return body.ljust(SecureTransfer.ACK, b"\0")
