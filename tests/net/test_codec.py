"""Frame codec: the one compression rule, and raw framing."""

import os
import pickle
import struct

import pytest

from repro.errors import MarshalError
from repro.net import codec, wirecodec
from repro.net.message import Message, MessageKind
from repro.net.tcpnet import TcpNetwork, _decode_frame, _encode_frame


def _wire_bytes(message, compress=False):
    """One encoded frame as the contiguous bytes the socket would carry."""
    wire = _encode_frame(message, compress)
    if isinstance(wire, bytes):
        return wire
    return b"".join(bytes(part) for part in wire)


def _roundtrip(message, compress=False):
    """Encode then decode one frame; returns ``(message, codec id, size)``."""
    wire = _wire_bytes(message, compress)
    (word,) = struct.unpack(">I", wire[:4])
    assert word & ((1 << 29) - 1) == len(wire) - 4
    return _decode_frame(word >> 29, wire[4:]), word >> 29, len(wire)


def count_compressions(monkeypatch):
    """The codec id of every ``codec.encode`` call from here on."""
    compressions = []
    real_encode = codec.encode
    monkeypatch.setattr(
        codec, "encode",
        lambda ident, blob: compressions.append(ident)
        or real_encode(ident, blob),
    )
    return compressions


class TestCodecPrimitives:
    def test_raw_id_is_zero(self):
        # A raw frame's header word is its bare body length.
        assert codec.RAW == 0

    def test_zlib_always_available(self):
        """Raw (0) and zlib (1) are the only codecs, and both need nothing
        beyond the standard library to encode and decode."""
        assert (codec.RAW, codec.ZLIB) == (0, 1)
        assert codec.encode(codec.RAW, b"data") == b"data"
        assert codec.decode(codec.RAW, b"data", 1024) == b"data"
        packed = codec.encode(codec.ZLIB, b"data")
        assert codec.decode(codec.ZLIB, packed, 1024) == b"data"

    def test_unknown_codec_id_rejected(self):
        """Every id the 3-bit header can carry besides 0 and 1 — the
        retired id 2 included — is refused on receipt."""
        for ident in range(2, 8):
            with pytest.raises(MarshalError, match="unknown codec id"):
                codec.decode(ident, b"data", 1024)

    def test_unknown_codec_name_rejected(self):
        """Codecs have no names: a sender picks one only by its id, and
        asking to encode with any id but 0 or 1 is refused."""
        assert not hasattr(codec, "codec_id")
        assert not hasattr(codec, "codec_name")
        for ident in range(2, 8):
            with pytest.raises(MarshalError, match="unknown codec id"):
                codec.encode(ident, b"data")

    def test_zlib_roundtrip(self):
        blob = b"abc" * 10_000
        packed = codec.encode(codec.ZLIB, blob)
        assert len(packed) < len(blob)
        assert codec.decode(codec.ZLIB, packed, len(blob)) == blob

    def test_decode_bounds_inflation(self):
        blob = b"x" * 100_000
        packed = codec.encode(codec.ZLIB, blob)
        with pytest.raises(MarshalError):
            codec.decode(codec.ZLIB, packed, max_size=1024)

    def test_one_compression_rule(self):
        """Below the minimum, raw; at or above it on a compressing (TCP)
        link, zlib; on a same-host link, raw whatever the size."""
        floor = codec.COMPRESS_MIN_BYTES
        assert floor == 16 * 1024
        assert codec.choose(floor - 1, compress=True) == codec.RAW
        assert codec.choose(floor, compress=True) == codec.ZLIB
        assert codec.choose(floor, compress=False) == codec.RAW
        assert codec.choose(64 << 20, compress=False) == codec.RAW


class TestFrameFormat:
    def test_sub_threshold_frame_is_raw_length_plus_envelope(self):
        """Small control messages ship uncompressed: a bare length word
        followed by the binary envelope, whatever the link."""
        message = Message(kind=MessageKind.PING, src="a", dst="b")
        body = b"".join(wirecodec.encode_envelope(message))
        raw = struct.pack(">I", len(body)) + body
        assert _wire_bytes(message, compress=True) == raw
        assert _wire_bytes(message, compress=False) == raw

    def test_a_frame_that_is_not_an_envelope_is_refused_undecoded(self):
        """After the handshake nothing but binary envelopes is decoded —
        a pickled body raises without ever reaching ``pickle.loads``."""

        class Bomb:
            def __reduce__(self):
                return (pytest.fail, ("the frame body was unpickled",))

        with pytest.raises(MarshalError, match="protocol violation"):
            _decode_frame(codec.RAW, pickle.dumps(Bomb()))
        with pytest.raises(MarshalError, match="protocol violation"):
            _decode_frame(codec.RAW, b"")

    def test_large_frame_compresses_and_roundtrips(self):
        message = Message(kind=MessageKind.INVOKE, src="a", dst="b",
                          payload=b"payload" * 50_000)
        raw_len = len(_wire_bytes(message))
        received, ident, nbytes = _roundtrip(message, compress=True)
        assert received.payload == message.payload
        assert received.msg_id == message.msg_id
        assert ident == codec.ZLIB
        assert nbytes < raw_len / 2  # wire carried the compressed body

    def test_incompressible_frame_falls_back_to_raw(self):
        message = Message(kind=MessageKind.INVOKE, src="a", dst="b",
                          payload=os.urandom(64 * 1024))
        received, ident, _ = _roundtrip(message, compress=True)
        assert received.payload == message.payload
        assert ident == codec.RAW


class TestTcpNegotiation:
    """What crosses a real connection: the link decides, per frame."""

    @pytest.fixture
    def net(self):
        # uds=False: a same-host Unix-socket channel deliberately skips
        # compression (bandwidth there is free); force TCP so these tests
        # see the network path.
        net = TcpNetwork(uds=False)
        yield net
        net.shutdown()

    def test_same_host_channel_skips_compression(self, monkeypatch):
        """A provably same-machine (Unix-socket) channel never compresses
        — the codec saves network bandwidth the channel does not
        consume."""
        net = TcpNetwork()  # uds on by default
        try:
            big = b"state" * 100_000
            net.register("src", lambda m: "ok")
            net.register("modern", lambda m: len(m.payload))
            compressions = count_compressions(monkeypatch)
            assert net.call("src", "modern", MessageKind.INVOKE, big) == len(big)
            assert compressions == []
        finally:
            net.shutdown()

    def test_negotiated_peer_gets_compressed_frames(self, net, monkeypatch):
        big = b"state" * 100_000
        net.register("src", lambda m: "ok")
        net.register("modern", lambda m: len(m.payload))
        compressions = count_compressions(monkeypatch)
        assert net.call("src", "modern", MessageKind.INVOKE, big) == len(big)
        assert compressions == [codec.ZLIB]

    @pytest.mark.parametrize("uds, expected", [
        pytest.param(False, [codec.ZLIB, codec.ZLIB], id="tcp"),
        pytest.param(True, [], id="uds"),
    ])
    def test_replies_compress_like_requests(self, monkeypatch, uds, expected):
        """A large echo is compressed in both directions over TCP — the
        server's reply included — and in neither over a Unix socket."""
        net = TcpNetwork(uds=uds)
        try:
            payload = b"mage" * (64 * 1024)  # 256 KiB, compressible
            net.register("src", lambda m: "ok")
            net.register("echo", lambda m: m.payload)
            compressions = count_compressions(monkeypatch)
            assert net.call("src", "echo", MessageKind.INVOKE,
                            payload) == payload
            assert compressions == expected
            assert [c.compress for c in net._channels.values()] == [not uds]
        finally:
            net.shutdown()

    def test_small_calls_never_compress(self, net, monkeypatch):
        net.register("src", lambda m: "ok")
        net.register("dst", lambda m: "pong")
        compressions = count_compressions(monkeypatch)
        assert net.call("src", "dst", MessageKind.PING) == "pong"
        assert compressions == []
