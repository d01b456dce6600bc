"""Record layer and TLS-like handshake, including tampering scenarios."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security import (
    CertificateAuthority,
    ClientHandshake,
    HandshakeError,
    Identity,
    MAC_LEN,
    RecordCipher,
    RecordError,
    ServerHandshake,
)


@pytest.fixture(scope="module")
def pki():
    ca = CertificateAuthority("grid-root")
    skey, scert = ca.issue_identity("server.grid")
    ckey, ccert = ca.issue_identity("client.grid")
    return {
        "ca": ca,
        "server": Identity(skey, [scert]),
        "client": Identity(ckey, [ccert]),
    }


def _run_handshake(pki, client_kwargs=None, server_kwargs=None):
    client = ClientHandshake(
        trust_anchors=[pki["ca"].certificate],
        seed=b"c",
        dh_exponent=0x123456789ABCDEF0123456789ABCDEF1,
        **(client_kwargs or {}),
    )
    server = ServerHandshake(
        identity=pki["server"],
        seed=b"s",
        dh_exponent=0x23456789ABCDEF0123456789ABCDEF12,
        **(server_kwargs or {}),
    )
    ch = client.hello()
    sh = server.respond(ch)
    cf, client_session = client.finish(sh)
    server_session = server.finish(cf)
    return client, server, client_session, server_session


class TestRecordLayer:
    def _pair(self):
        return (
            RecordCipher(b"e" * 32, b"m" * 32),
            RecordCipher(b"e" * 32, b"m" * 32),
        )

    def test_seal_open_round_trip(self):
        tx, rx = self._pair()
        assert rx.open(tx.seal(b"hello")) == b"hello"

    @given(st.lists(st.binary(max_size=200), min_size=1, max_size=10))
    def test_record_sequence_round_trips(self, messages):
        tx, rx = self._pair()
        for msg in messages:
            assert rx.open(tx.seal(msg)) == msg

    def test_tampered_ciphertext_fails(self):
        tx, rx = self._pair()
        record = bytearray(tx.seal(b"secret"))
        record[0] ^= 0xFF
        with pytest.raises(RecordError, match="MAC"):
            rx.open(bytes(record))

    def test_tampered_mac_fails(self):
        tx, rx = self._pair()
        record = bytearray(tx.seal(b"secret"))
        record[-1] ^= 0x01
        with pytest.raises(RecordError):
            rx.open(bytes(record))

    def test_replay_fails(self):
        tx, rx = self._pair()
        record = tx.seal(b"one")
        rx.open(record)
        with pytest.raises(RecordError):
            rx.open(record)  # sequence number advanced

    def test_reorder_fails(self):
        tx, rx = self._pair()
        r1, r2 = tx.seal(b"one"), tx.seal(b"two")
        with pytest.raises(RecordError):
            rx.open(r2)

    def test_truncated_record_fails(self):
        _tx, rx = self._pair()
        with pytest.raises(RecordError, match="shorter"):
            rx.open(b"tiny")

    def test_large_record_round_trip_and_tamper(self):
        """A 64 KiB record takes the vector keystream; tampering still fails."""
        tx, rx = self._pair()
        payload = bytes(range(256)) * 256
        first, second = tx.seal(payload), tx.seal(payload)
        assert len(first) == len(payload) + MAC_LEN
        assert rx.open(first) == payload
        for index in (0, len(payload) // 2, len(payload) - 1, len(second) - 1):
            tampered = bytearray(second)
            tampered[index] ^= 0x01
            with pytest.raises(RecordError, match="MAC"):
                rx.open(bytes(tampered))
        with pytest.raises(RecordError, match="MAC"):
            rx.open(first)  # replayed under sequence number 1
        assert rx.open(second) == payload

    def test_ciphertext_differs_from_plaintext(self):
        tx, _rx = self._pair()
        sealed = tx.seal(b"plaintext!")
        assert b"plaintext!" not in sealed


class TestHandshake:
    def test_anonymous_client_handshake(self, pki):
        client, server, cs, ss = _run_handshake(pki)
        assert client.peer_subject == "server.grid"
        assert server.peer_subject is None
        assert ss.open(cs.seal(b"up")) == b"up"
        assert cs.open(ss.seal(b"down")) == b"down"

    def test_mutual_auth(self, pki):
        client, server, cs, ss = _run_handshake(
            pki,
            client_kwargs={"identity": pki["client"]},
            server_kwargs={
                "trust_anchors": [pki["ca"].certificate],
                "require_client_auth": True,
            },
        )
        assert server.peer_subject == "client.grid"

    def test_server_requires_client_auth(self, pki):
        with pytest.raises(HandshakeError, match="client authentication"):
            _run_handshake(
                pki,
                server_kwargs={
                    "trust_anchors": [pki["ca"].certificate],
                    "require_client_auth": True,
                },
            )

    def test_expected_server_name_enforced(self, pki):
        with pytest.raises(HandshakeError, match="subject mismatch"):
            _run_handshake(pki, client_kwargs={"expected_server": "other.grid"})

    def test_untrusted_server_rejected(self, pki):
        rogue_ca = CertificateAuthority("rogue")
        key, cert = rogue_ca.issue_identity("server.grid")
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        server = ServerHandshake(identity=Identity(key, [cert]), seed=b"s")
        sh = server.respond(client.hello())
        with pytest.raises(HandshakeError, match="certificate rejected"):
            client.finish(sh)

    def test_tampered_server_hello_rejected(self, pki):
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        server = ServerHandshake(identity=pki["server"], seed=b"s")
        sh = bytearray(server.respond(client.hello()))
        sh[5] ^= 0x01  # flip a bit in the server random
        with pytest.raises(HandshakeError):
            client.finish(bytes(sh))

    def test_tampered_client_finished_rejected(self, pki):
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        server = ServerHandshake(identity=pki["server"], seed=b"s")
        sh = server.respond(client.hello())
        cf, _cs = client.finish(sh)
        corrupted = bytearray(cf)
        corrupted[-1] ^= 0x01
        with pytest.raises(HandshakeError, match="Finished MAC"):
            server.finish(bytes(corrupted))

    def test_mitm_key_substitution_detected(self, pki):
        """An attacker rewriting the DH value is caught — either by the
        server's subgroup validation or by the client's Finished MAC."""
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        server = ServerHandshake(identity=pki["server"], seed=b"s")
        ch = bytearray(client.hello())
        # Attacker rewrites the client's DH public value in flight.
        ch[40] ^= 0x01
        with pytest.raises(HandshakeError):
            sh = server.respond(bytes(ch))
            client.finish(sh)

    def test_expired_server_certificate_rejected(self, pki):
        skey, _ = pki["ca"].issue_identity("old.grid")
        expired = pki["ca"].issue("old.grid", skey.verify_key, 0.0, 10.0)
        client = ClientHandshake(
            trust_anchors=[pki["ca"].certificate], now=99.0, seed=b"c"
        )
        server = ServerHandshake(identity=Identity(skey, [expired]), seed=b"s")
        sh = server.respond(client.hello())
        with pytest.raises(HandshakeError, match="certificate rejected"):
            client.finish(sh)

    def test_malformed_messages_rejected(self, pki):
        server = ServerHandshake(identity=pki["server"], seed=b"s")
        with pytest.raises(HandshakeError):
            server.respond(b"\x07nonsense")
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        client.hello()
        with pytest.raises(HandshakeError):
            client.finish(b"\x99")

    def test_finish_before_hello_is_error(self, pki):
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        with pytest.raises(HandshakeError, match="hello"):
            client.finish(b"\x02" + b"\x00" * 40)

    @settings(max_examples=5, deadline=None)
    @given(st.binary(min_size=0, max_size=1000))
    def test_session_transports_arbitrary_payloads(self, pki, payload):
        _c, _s, cs, ss = _run_handshake(pki)
        assert ss.open(cs.seal(payload)) == payload
