"""Malformed handshake input surfaces as ``HandshakeError`` and nothing else.

Regression tests for certificates that fail to decode inside a ServerHello
or ClientFinished, then decoder fuzzing of every handshake entry point with
arbitrary bytes and with byte-flipped or truncated valid messages.
"""

import functools
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    ClientHandshake,
    HandshakeError,
    Identity,
    ServerHandshake,
)


@functools.cache
def _transcript():
    """One valid mutual handshake, plus the peers still able to consume it."""
    ca = CertificateAuthority("fuzz-root")
    skey, scert = ca.issue_identity("server.grid")
    ckey, ccert = ca.issue_identity("client.grid")
    server_id, client_id = Identity(skey, [scert]), Identity(ckey, [ccert])
    anchors = [ca.certificate]

    def server():
        return ServerHandshake(
            server_id, trust_anchors=anchors, require_client_auth=True,
            seed=b"s", dh_exponent=0x23456789ABCDEF0123456789ABCDEF12,
        )

    client = ClientHandshake(
        anchors, identity=client_id, expected_server="server.grid",
        seed=b"c", dh_exponent=0x123456789ABCDEF0123456789ABCDEF1,
    )
    finishing_server = server()
    ch = client.hello()
    sh = finishing_server.respond(ch)
    cf, _ = client.finish(sh)
    finishing_server.finish(cf)
    return SimpleNamespace(
        ch=ch, sh=sh, cf=cf, client=client, server=finishing_server,
        responding_server=server(),
        server_cert=scert.encode(), client_cert=ccert.encode(),
    )


def _truncated_subject_length(cert: bytes) -> bytes:
    # The to-be-signed part starts after its own u32 length; its first
    # field is the subject's u32 length: claim more bytes than exist.
    return cert[:4] + struct.pack("!I", 0xFFFF) + cert[8:]


def _non_utf8_subject(cert: bytes) -> bytes:
    (n,) = struct.unpack("!I", cert[4:8])
    return cert[:8] + b"\xff" * n + cert[8 + n:]


def _out_of_range_key(cert: bytes) -> bytes:
    (n,) = struct.unpack("!I", cert[4:8])
    key_at = 8 + n + 4
    return cert[:key_at] + bytes(256) + cert[key_at + 256:]


CORRUPTIONS = [_truncated_subject_length, _non_utf8_subject, _out_of_range_key]


class TestMalformedCertificateInHandshake:
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_corruption_is_a_certificate_error(self, corrupt):
        with pytest.raises(CertificateError, match="malformed certificate"):
            Certificate.decode(corrupt(_transcript().server_cert))

    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_server_hello(self, corrupt):
        t = _transcript()
        bad = t.sh.replace(t.server_cert, corrupt(t.server_cert))
        assert len(bad) == len(t.sh) and bad != t.sh
        with pytest.raises(HandshakeError, match="malformed ServerHello"):
            t.client.finish(bad)

    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_client_finished(self, corrupt):
        t = _transcript()
        bad = t.cf.replace(t.client_cert, corrupt(t.client_cert))
        assert len(bad) == len(t.cf) and bad != t.cf
        with pytest.raises(HandshakeError, match="malformed ClientFinished"):
            t.server.finish(bad)


def _mutate(valid: bytes, mutation) -> bytes:
    kind, edits = mutation
    if kind == "truncate":
        return valid[: edits % len(valid)]
    data = bytearray(valid)
    for at, xor in edits:
        data[at % len(data)] ^= xor
    return bytes(data)


mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(
        st.just("flip"),
        st.lists(
            st.tuples(st.integers(min_value=0), st.integers(1, 255)),
            min_size=1, max_size=3,
        ),
    ),
)


def _only_handshake_error(step, data: bytes) -> None:
    try:
        step(data)
    except HandshakeError:
        pass


class TestHandshakeDecoderFuzz:
    @settings(max_examples=60)
    @given(st.binary(max_size=2048))
    def test_arbitrary_bytes(self, data):
        t = _transcript()
        _only_handshake_error(t.responding_server.respond, data)
        _only_handshake_error(t.client.finish, data)
        _only_handshake_error(t.server.finish, data)

    @settings(max_examples=60)
    @given(mutations)
    def test_mutated_client_hello(self, mutation):
        t = _transcript()
        _only_handshake_error(t.responding_server.respond, _mutate(t.ch, mutation))

    @settings(max_examples=150)
    @given(mutations)
    def test_mutated_server_hello(self, mutation):
        t = _transcript()
        _only_handshake_error(t.client.finish, _mutate(t.sh, mutation))

    @settings(max_examples=150)
    @given(mutations)
    def test_mutated_client_finished(self, mutation):
        t = _transcript()
        _only_handshake_error(t.server.finish, _mutate(t.cf, mutation))


class TestCertificateDecodeFuzz:
    @settings(max_examples=100)
    @given(st.binary(max_size=1024))
    def test_arbitrary_bytes(self, data):
        try:
            Certificate.decode(data)
        except CertificateError:
            pass

    @settings(max_examples=100)
    @given(mutations)
    def test_mutated_certificate(self, mutation):
        try:
            Certificate.decode(_mutate(_transcript().server_cert, mutation))
        except CertificateError:
            pass
