"""AsyncSessionLink over loopback: large writes, closing, task lifetime.

The protocol itself is the shared sans-IO core (``repro.core.session_proto``);
these tests pin what the asyncio binding adds around it: a single write
of any size is chunked and delivered, both ends may close at once, and
every task a session starts ends when it is closed or torn down.
"""

import asyncio
import random

import pytest

from repro.livenet import (
    AsyncSessionLink,
    AsyncSessionListener,
    live_connect,
    live_listen,
)

from .conftest import eventually

pytestmark = pytest.mark.livenet


async def _session_pair(listener: AsyncSessionListener, node: str = "a"):
    async def dial():
        return await live_connect(listener.addr)

    return await asyncio.gather(
        AsyncSessionLink.connect(dial, node=node), listener.accept()
    )


async def _only_tasks_left(keep) -> None:
    """Every task not in ``keep`` ends within 2 s."""
    await eventually(
        lambda: all(t in keep or t.done() for t in asyncio.all_tasks()),
        timeout=2.0,
    )


@pytest.mark.parametrize("size", [65_600, 1_000_000])
def test_single_write_larger_than_a_frame_arrives_whole(size, live_run):
    payload = random.Random(size).randbytes(size)

    async def main():
        listener = AsyncSessionListener(await live_listen(), node="b")
        try:
            a, b = await _session_pair(listener)
            received = asyncio.ensure_future(b.recv_exactly(size))
            await asyncio.wait_for(a.send_all(payload), 10.0)
            assert await asyncio.wait_for(received, 10.0) == payload
            assert a.reconnects == b.reconnects == 0
            await asyncio.wait_for(asyncio.gather(a.aclose(), b.aclose()), 10.0)
        finally:
            listener.close()

    live_run(main())


def test_both_ends_closing_at_once_both_finish(live_run):
    """200 pairs close both ends concurrently, at seeded random offsets,
    after traffic in both directions; none may strand."""
    rng = random.Random(200)

    async def one_pair(listener, i):
        a, b = await _session_pair(listener, node=f"a{i}")
        await a.send_all(b"x" * rng.randrange(1, 4096))
        await b.send_all(b"y" * rng.randrange(1, 4096))
        delays = (rng.random() * 0.002, rng.random() * 0.002)

        async def close(link, delay):
            await asyncio.sleep(delay)
            await link.aclose(timeout=5.0)

        await asyncio.gather(close(a, delays[0]), close(b, delays[1]))
        assert a.reconnects == b.reconnects == 0

    async def main():
        before = asyncio.all_tasks()
        listener = AsyncSessionListener(await live_listen(), node="b")
        try:
            for start in range(0, 200, 20):
                await asyncio.gather(
                    *(one_pair(listener, i) for i in range(start, start + 20))
                )
            await _only_tasks_left(before | {listener._task})
        finally:
            listener.close()

    live_run(main(), timeout=60.0)


def test_one_end_closes_after_the_other_finished(live_run):
    """The first end's ``aclose`` returns before the second even starts
    closing; the second end's FIN must still be FINACKed."""

    async def main():
        before = asyncio.all_tasks()
        listener = AsyncSessionListener(await live_listen(), node="b")
        try:
            a, b = await _session_pair(listener)
            await a.send_all(b"request")
            assert await b.recv_exactly(7) == b"request"
            await b.send_all(b"reply")
            assert await a.recv_exactly(5) == b"reply"
            await asyncio.wait_for(a.aclose(), 5.0)
            assert await b.recv(10) == b""
            await asyncio.wait_for(b.aclose(), 5.0)
            await _only_tasks_left(before | {listener._task})
        finally:
            listener.close()

    live_run(main())


def test_initiator_close_then_listener_close_ends_every_task(live_run):
    """The teardown a long-lived service uses: only the initiator closes
    gracefully, then the listener drops the responder.  Nothing the
    sessions started (readers, heartbeat timers) may outlive it."""

    async def main():
        before = asyncio.all_tasks()
        listener = AsyncSessionListener(await live_listen(), node="b")
        a, b = await _session_pair(listener)
        await a.send_all(b"ping")
        assert await b.recv_exactly(4) == b"ping"
        await asyncio.wait_for(a.aclose(), 5.0)
        listener.close()
        await _only_tasks_left(before)

    live_run(main())
