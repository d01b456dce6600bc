"""The sans-IO session core's frame decoder, fuzzed.

Both session bindings feed whatever bytes their link delivered into
:class:`repro.core.session_proto.Decoder`, so it must treat every split
of the input alike and must turn garbage into :class:`SessionError`,
never into another exception or a wrong frame.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import session_proto as sp
from repro.obs import TraceContext

_U64 = st.integers(min_value=0, max_value=2**64 - 1)
_ID = st.integers(min_value=1, max_value=2**64 - 1)
_CTX = st.none() | st.builds(TraceContext, _ID, _ID, _U64)
_FIN = st.none() | _U64


def _feed_split(data: bytes, cuts) -> list:
    """Feed ``data`` cut at ``cuts`` (any integers) into one decoder."""
    decoder = sp.Decoder()
    frames, prev = [], 0
    for cut in sorted({c % (len(data) + 1) for c in cuts}) + [len(data)]:
        frames += decoder.feed(data[prev:cut])
        prev = cut
    return frames


_FRAME = st.one_of(
    st.binary(min_size=1, max_size=2048).map(
        lambda b: ((sp.DATA, b), sp.data_frame(b))
    ),
    st.just(((sp.DATA, b"\x5a" * sp.MAX_CHUNK), sp.data_frame(b"\x5a" * sp.MAX_CHUNK))),
    st.tuples(
        st.sampled_from([sp.ACK, sp.PONG, sp.FIN, sp.FINACK, sp.RETUNE]), _U64
    ).map(lambda t: (t, sp.off_frame(*t))),
    st.just(((sp.PING, None), bytes([sp.PING]))),
    st.tuples(_U64, _U64, _FIN, _CTX).map(
        lambda t: ((sp.RESUME, t), sp.resume_frame(*t))
    ),
    st.tuples(_U64, _FIN).map(lambda t: ((sp.RESUME_OK, t), sp.resume_ok_frame(*t))),
)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=4096), st.lists(st.integers(min_value=0), max_size=16))
def test_arbitrary_bytes_raise_only_session_error(data, cuts):
    try:
        _feed_split(data, cuts)
    except sp.SessionError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(_FRAME, max_size=12), st.lists(st.integers(min_value=0), max_size=24))
def test_valid_stream_decodes_alike_under_any_split(frames, cuts):
    expected = [frame for frame, _ in frames]
    stream = b"".join(wire for _, wire in frames)
    assert sp.Decoder().feed(stream) == expected
    assert _feed_split(stream, cuts) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(_FRAME, min_size=1, max_size=8))
def test_reading_need_bytes_at_a_time_reads_one_field_per_call(frames):
    stream = b"".join(wire for _, wire in frames)
    decoder, got, pos = sp.Decoder(), [], 0
    while pos < len(stream):
        n = decoder.need()
        got += decoder.feed(stream[pos : pos + n])
        pos += n
    assert got == [frame for frame, _ in frames]
    assert decoder.need() == 1


@pytest.mark.parametrize(
    "bad",
    [
        b"\x00",  # type 0
        b"\x0a",  # type 10
        sp.off_frame(sp.DATA, 0)[:5],  # empty DATA
        b"\x01" + (sp.MAX_CHUNK + 1).to_bytes(4, "big"),  # oversized DATA
    ],
)
def test_malformed_frames_are_session_errors(bad):
    with pytest.raises(sp.SessionError):
        sp.Decoder().feed(bad)
