"""The layer calls the traced run wraps, and the per-layer metrics they give."""

from __future__ import annotations

import statistics

from repro.livenet.drivers import (
    AsyncBlockChannel,
    AsyncCompressionDriver,
    AsyncParallelStreamsDriver,
    AsyncTcpBlockDriver,
    AsyncTlsDriver,
)
from repro.livenet.mux import AsyncMuxChannel
from repro.livenet.relay import LiveRoutedLink
from repro.livenet.session import AsyncSessionLink
from repro.livenet.transport import LiveSocket
from repro.obs.metrics import MetricsRegistry
from repro.security.handshake import ClientHandshake, ServerHandshake
from repro.security.record import MAC_LEN, SecureSession
from repro.simnet.engine import Simulator
from repro.simnet.link import Transmitter


def _arg_len(args) -> int:
    return len(args[1])


def _plaintext_len(args) -> int:
    return len(args[1]) - MAC_LEN


#: (class, method, span name, sizer) for every live layer call wrapped
LIVE_SPANS = (
    (LiveSocket, "send_all", "transport.send_all", _arg_len),
    (LiveSocket, "recv", "transport.recv", None),
    (LiveSocket, "recv_exactly", "transport.recv", None),
    (AsyncParallelStreamsDriver, "send_block", "drivers.parallel.send_block", _arg_len),
    (AsyncParallelStreamsDriver, "recv_block", "drivers.parallel.recv_block", None),
    (AsyncTcpBlockDriver, "send_block", "drivers.tcp_block.send_block", _arg_len),
    (AsyncTcpBlockDriver, "recv_block", "drivers.tcp_block.recv_block", None),
    (AsyncBlockChannel, "send_message", "drivers.channel.send_message", _arg_len),
    (AsyncBlockChannel, "recv_message", "drivers.channel.recv_message", None),
    (AsyncCompressionDriver, "send_block", "drivers.compress.send_block", _arg_len),
    (AsyncCompressionDriver, "recv_block", "drivers.compress.recv_block", None),
    (AsyncTlsDriver, "send_block", "drivers.tls.send_block", _arg_len),
    (AsyncTlsDriver, "recv_block", "drivers.tls.recv_block", None),
    (SecureSession, "seal", "security.record.seal", _arg_len),
    (SecureSession, "open", "security.record.open", _plaintext_len),
    (ClientHandshake, "hello", "security.handshake.client.hello", None),
    (ClientHandshake, "finish", "security.handshake.client.finish", None),
    (ServerHandshake, "respond", "security.handshake.server.respond", None),
    (ServerHandshake, "finish", "security.handshake.server.finish", None),
    (AsyncSessionLink, "send_all", "session.send_all", _arg_len),
    (AsyncSessionLink, "recv_exactly", "session.recv_exactly", None),
    (AsyncMuxChannel, "send_all", "mux.send_all", _arg_len),
    (AsyncMuxChannel, "recv_exactly", "mux.recv_exactly", None),
    (LiveRoutedLink, "send_all", "relay.send_all", _arg_len),
    (LiveRoutedLink, "recv", "relay.recv", None),
    (MetricsRegistry, "counter", "obs.lookup", None),
    (MetricsRegistry, "histogram", "obs.lookup", None),
    (MetricsRegistry, "gauge", "obs.lookup", None),
)

#: (class, method, counter name) for the simulator's per-event hot paths
SIM_COUNTS = (
    (Simulator, "_step", "simnet.engine.events"),
    (Transmitter, "transmit", "simnet.link.packets"),
)

#: spans whose self time is mostly waiting on another task of this
#: process (the peer, the relay, a pump); in one process that wait is the
#: other task's busy time, already counted in that task's spans
WAITS = frozenset({
    "transport.recv", "relay.recv", "session.recv_exactly",
    "mux.recv_exactly", "mux.send_all",
})

#: per-layer metric -> unit; every traced run reports all of them, and a
#: layer the workload does not exercise reads 0
UNITS = {
    "transport.send_all.calls": "count",
    "transport.send_all.us_per_call": "us",
    "transport.recv.us_per_call": "us",
    "drivers.parallel.send_block.us_per_block": "us",
    "drivers.parallel.recv_block.us_per_block": "us",
    "drivers.tcp_block.send_block.us_per_block": "us",
    "drivers.tcp_block.recv_block.us_per_block": "us",
    "drivers.channel.send_message.us_per_msg": "us",
    "drivers.channel.recv_message.us_per_msg": "us",
    "obs.instrument_lookups_per_block": "count",
    "obs.lookup_us_per_block": "us",
    "drivers.compress.self_us_per_block": "us",
    "drivers.compress.ratio": "ratio",
    "security.record.seal_mb_s.64b": "MB/s",
    "security.record.seal_mb_s.1k": "MB/s",
    "security.record.seal_mb_s.64k": "MB/s",
    "security.record.open_mb_s.64b": "MB/s",
    "security.record.open_mb_s.1k": "MB/s",
    "security.record.open_mb_s.64k": "MB/s",
    "drivers.tls.self_us_per_block": "us",
    "security.handshake.client_ms": "ms",
    "security.handshake.server_ms": "ms",
    "session.send_all.us_per_call": "us",
    "session.recv_exactly.us_per_call": "us",
    "session.replayed_bytes": "bytes",
    "mux.send_all.us_per_call": "us",
    "mux.recv_exactly.us_per_call": "us",
    "relay.send_all.us_per_call": "us",
    "relay.recv.us_per_call": "us",
    "ipl.encode_us_per_msg": "us",
    "ipl.decode_us_per_msg": "us",
    "simnet.engine.events": "count",
    "simnet.engine.events_per_s": "1/s",
    "simnet.link.packets": "count",
    "simnet.link.packets_per_s": "1/s",
    "simnet.flow.rate_resolves": "count",
    "sim.part.fig9_s": "s",
    "sim.part.fig10_s": "s",
    "sim.part.routed_session_s": "s",
    "sim.part.mux_fanin_s": "s",
    "sim.part.fleet_fanin_s": "s",
    "op_p99_us": "us",
    "trace.overhead_pct": "%",
    "teardown.pending_tasks": "count",
    "error_rate": "ratio",
}


def install_live(tracer) -> None:
    for owner, attr, name, sizer in LIVE_SPANS:
        tracer.wrap(owner, attr, name, sizer)


def install_sim(tracer) -> None:
    for owner, attr, name in SIM_COUNTS:
        tracer.count(owner, attr, name)


def _self_per_call(tr, *names) -> float:
    calls = sum(tr.calls(n) for n in names)
    return tr.self_us(*names) / calls if calls else 0.0


def live_metrics(tr, ops: int, replayed_bytes: int) -> dict:
    """Per-layer values from a traced live pass of ``ops`` verified operations."""
    blocks = sum(tr.calls(n) for n in (
        "drivers.parallel.send_block", "drivers.parallel.recv_block",
        "drivers.tcp_block.send_block", "drivers.tcp_block.recv_block",
    ))
    compressed_out = tr.agg["drivers.tcp_block.send_block"].bytes
    values = {
        "transport.send_all.calls":
            tr.calls("transport.send_all") / ops if ops else 0.0,
        "transport.send_all.us_per_call": tr.us_per_call("transport.send_all"),
        "transport.recv.us_per_call": tr.us_per_call("transport.recv"),
        "obs.instrument_lookups_per_block":
            tr.calls("obs.lookup") / blocks if blocks else 0.0,
        "obs.lookup_us_per_block":
            tr.total_us("obs.lookup") / blocks if blocks else 0.0,
        "drivers.compress.self_us_per_block": _self_per_call(
            tr, "drivers.compress.send_block", "drivers.compress.recv_block"),
        "drivers.compress.ratio":
            tr.agg["drivers.compress.send_block"].bytes / compressed_out
            if tr.calls("drivers.compress.send_block") and compressed_out
            else 0.0,
        "drivers.tls.self_us_per_block": _self_per_call(
            tr, "drivers.tls.send_block", "drivers.tls.recv_block"),
        "session.replayed_bytes": replayed_bytes,
    }
    for driver in ("parallel", "tcp_block"):
        for call in ("send_block", "recv_block"):
            values[f"drivers.{driver}.{call}.us_per_block"] = tr.us_per_call(
                f"drivers.{driver}.{call}")
    for call in ("send_message", "recv_message"):
        values[f"drivers.channel.{call}.us_per_msg"] = tr.us_per_call(
            f"drivers.channel.{call}")
    for op in ("seal", "open"):
        for cls in ("64b", "1k", "64k"):
            values[f"security.record.{op}_mb_s.{cls}"] = tr.mb_per_s(
                f"security.record.{op}", cls)
    for side, calls in (("client", ("hello", "finish")),
                        ("server", ("respond", "finish"))):
        names = [f"security.handshake.{side}.{c}" for c in calls]
        done = tr.calls(names[-1])
        values[f"security.handshake.{side}_ms"] = (
            tr.total_us(*names) / done / 1e3 if done else 0.0)
    for name in ("session.send_all", "session.recv_exactly", "mux.send_all",
                 "mux.recv_exactly", "relay.send_all", "relay.recv"):
        values[f"{name}.us_per_call"] = tr.us_per_call(name)
    values["ipl.encode_us_per_msg"] = tr.us_per_call("ipl.encode")
    values["ipl.decode_us_per_msg"] = tr.us_per_call("ipl.decode")
    return values


def sim_metrics(tr, sets: int, part_s: dict, rate_resolves: int) -> dict:
    """Per-layer values from a traced ``sim_wan`` pass, per fixed set."""
    busy = sum(sum(times) for times in part_s.values())
    events = tr.calls("simnet.engine.events")
    packets = tr.calls("simnet.link.packets")
    values = {
        "simnet.engine.events": events / sets,
        "simnet.engine.events_per_s": events / busy,
        "simnet.link.packets": packets / sets,
        "simnet.link.packets_per_s": packets / busy,
        "simnet.flow.rate_resolves": rate_resolves / sets,
    }
    for part, times in part_s.items():
        values[f"sim.part.{part}_s"] = statistics.median(times)
    return values


def layer_of(span: str) -> str:
    """``drivers.tls.send_block`` -> ``drivers.tls``; ``session.send_all`` -> ``session``."""
    parts = span.split(".")
    if parts[0] in ("drivers", "security", "sim"):
        return ".".join(parts[:2])
    return parts[0]


def self_time_by_layer(tr) -> list:
    """(layer, self seconds) largest first, leaving out :data:`WAITS`."""
    totals: dict[str, float] = {}
    for name, agg in tr.agg.items():
        if name in WAITS or not agg.self_ns:
            continue
        layer = layer_of(name)
        totals[layer] = totals.get(layer, 0.0) + agg.self_ns / 1e9
    return sorted(totals.items(), key=lambda kv: kv[1], reverse=True)
