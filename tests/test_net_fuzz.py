"""Property tests of the envelope decoder: whatever the bytes, decoding
yields an envelope, end of stream, or one of the four protocol errors."""

import socket

from hypothesis import given, settings, strategies as st

from epvr import net
from epvr.errors import BadMagic, CrcMismatch, TruncatedFrame, UnknownKind

PROTOCOL_ERRORS = (TruncatedFrame, BadMagic, CrcMismatch, UnknownKind)
FUZZ = settings(max_examples=200, deadline=None)

envelopes = st.builds(
    net.Envelope,
    kind=st.sampled_from(net.Kind),
    session_id=st.binary(min_size=16, max_size=16),
    sequence=st.integers(0, 2**64 - 1),
    timestamp=st.floats(0.0, 1e6),
    payload=st.binary(max_size=512),
)


@st.composite
def flipped_envelopes(draw):
    raw = bytearray(net.encode(draw(envelopes)))
    bit = draw(st.integers(0, 8 * len(raw) - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    return bytes(raw)


# arbitrary bytes, mostly behind a valid magic so the later checks are reached
wire_bytes = st.one_of(
    st.binary(max_size=1024),
    st.binary(max_size=1024).map(lambda b: net.MAGIC + b),
    flipped_envelopes(),
)


def _decode_outcome(data):
    try:
        env = net.decode(data)
    except PROTOCOL_ERRORS as e:
        return type(e)
    assert isinstance(env, net.Envelope)
    return env


def _read_outcome(data):
    """read_envelope over a socketpair whose writer sends data, then ends."""
    reader, writer = socket.socketpair()
    try:
        reader.settimeout(5.0)
        writer.sendall(data)
        writer.shutdown(socket.SHUT_WR)
        try:
            env = net.read_envelope(reader)
        except PROTOCOL_ERRORS as e:
            return type(e)
        assert env is None or isinstance(env, net.Envelope)
        return env
    finally:
        reader.close()
        writer.close()


@FUZZ
@given(wire_bytes)
def test_decode_only_returns_an_envelope_or_a_protocol_error(data):
    _decode_outcome(data)


@FUZZ
@given(wire_bytes)
def test_read_envelope_only_returns_an_envelope_none_or_a_protocol_error(data):
    _read_outcome(data)


@FUZZ
@given(envelopes)
def test_valid_envelopes_round_trip_through_both_readers(env):
    raw = net.encode(env)
    for got in (net.decode(raw), _read_outcome(raw)):
        assert (got.kind, got.session_id, got.sequence, got.payload) == (
            env.kind, env.session_id, env.sequence, env.payload)


@FUZZ
@given(flipped_envelopes())
def test_a_flipped_bit_is_never_read_as_the_original(raw):
    # the CRC catches any single-bit error in the envelope body or in itself
    assert not isinstance(_decode_outcome(raw), net.Envelope)
