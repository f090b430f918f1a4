"""Frame codec: negotiation, thresholds, and raw framing."""

import struct

import pytest

from repro.errors import MarshalError
from repro.net import codec, wirecodec
from repro.net.message import Message, MessageKind
from repro.net.tcpnet import TcpNetwork, _decode_frame, _encode_frame


def _wire_bytes(message, codec_for=None):
    """One encoded frame as the contiguous bytes the socket would carry."""
    wire = _encode_frame(message, codec_for)
    if isinstance(wire, bytes):
        return wire
    return b"".join(bytes(part) for part in wire)


def _roundtrip(message, codec_for=None):
    """Encode then decode one frame; returns ``(message, wire_bytes)``."""
    wire = _wire_bytes(message, codec_for)
    (word,) = struct.unpack(">I", wire[:4])
    assert word & ((1 << 29) - 1) == len(wire) - 4
    return _decode_frame(word >> 29, wire[4:]), len(wire)


class TestCodecPrimitives:
    def test_raw_id_is_zero(self):
        # A raw frame's header word is its bare body length.
        assert codec.RAW == 0

    def test_zlib_always_available(self):
        assert "zlib" in codec.available_codecs()

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(MarshalError):
            codec.codec_id("snappy")

    def test_unknown_codec_id_rejected(self):
        with pytest.raises(MarshalError):
            codec.decode(7, b"data", 1024)

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

    def test_choose_codec_negotiation(self):
        # Below threshold: always raw, whatever both sides support.
        assert codec.choose_codec(10, ("zlib",), ("zlib",), 100) == codec.RAW
        # At/above threshold with a shared codec: compress.
        assert codec.choose_codec(100, ("zlib",), ("zlib",), 100) == codec.ZLIB
        # The peer advertises nothing (pre-codec build): fall back to raw.
        assert codec.choose_codec(100, ("zlib",), (), 100) == codec.RAW
        # The sender writes nothing: raw.
        assert codec.choose_codec(100, (), ("zlib",), 100) == codec.RAW


class TestFrameFormat:
    def test_sub_threshold_frame_is_raw_length_plus_envelope(self):
        """Small control messages ship uncompressed: a bare length word
        followed by the binary envelope, whatever was negotiated."""
        message = Message(kind=MessageKind.PING, src="a", dst="b")
        body = b"".join(wirecodec.encode_envelope(message))
        raw = struct.pack(">I", len(body)) + body
        compressing = lambda nbytes: codec.choose_codec(
            nbytes, ("zlib",), ("zlib",), codec.DEFAULT_COMPRESS_THRESHOLD)
        assert _wire_bytes(message, compressing) == raw
        assert _wire_bytes(message, None) == raw

    def test_a_frame_that_is_not_an_envelope_is_refused_undecoded(self):
        """After the handshake nothing but binary envelopes is decoded —
        a pickled body raises without ever reaching ``pickle.loads``."""
        import pickle

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
        raw_len = len(_wire_bytes(message, None))
        received, nbytes = _roundtrip(
            message, lambda n: codec.choose_codec(n, ("zlib",), ("zlib",), 1024)
        )
        assert received.payload == message.payload
        assert received.msg_id == message.msg_id
        assert nbytes < raw_len / 2  # wire carried the compressed body

    def test_incompressible_frame_falls_back_to_raw(self):
        import os
        message = Message(kind=MessageKind.INVOKE, src="a", dst="b",
                          payload=os.urandom(64 * 1024))
        received, _ = _roundtrip(message, lambda n: codec.ZLIB)
        assert received.payload == message.payload


class TestTcpNegotiation:
    @pytest.fixture
    def net(self):
        # uds=False: negotiation is a *wire* concern, and a same-host
        # Unix-socket channel deliberately skips compression (bandwidth
        # there is free); force TCP so these tests see the network path.
        net = TcpNetwork(compress_threshold=1024, uds=False)
        yield net
        net.shutdown()

    def test_same_host_channel_skips_compression(self, monkeypatch):
        """A provably same-machine (Unix-socket) channel never compresses,
        even for a peer that negotiated zlib — the codec saves network
        bandwidth the channel does not consume."""
        net = TcpNetwork(compress_threshold=1024)  # uds on by default
        try:
            big = b"state" * 100_000
            net.register("src", lambda m: "ok")
            net.register("modern", lambda m: len(m.payload))
            compressions = []
            real_encode = codec.encode
            monkeypatch.setattr(
                codec, "encode",
                lambda ident, blob: compressions.append(ident)
                or real_encode(ident, blob),
            )
            assert net.call("src", "modern", MessageKind.INVOKE, big) == len(big)
            assert compressions == []
        finally:
            net.shutdown()

    def test_registered_node_hello_advertises_local_codecs(self, net):
        net.register("src", lambda m: "ok")
        net.register("n1", lambda m: "ok")
        assert net.negotiated_codecs("src", "n1") is None  # not dialled yet
        net.call("src", "n1", MessageKind.PING)
        assert net.negotiated_codecs("src", "n1") == codec.available_codecs()

    def test_advertise_codecs_needs_a_registered_node(self, net):
        from repro.errors import NodeUnreachableError
        with pytest.raises(NodeUnreachableError):
            net.advertise_codecs("ghost", ())

    def test_mixed_codec_peer_falls_back_to_raw(self, net, monkeypatch):
        """A peer advertising no codecs gets raw frames — and the call
        still succeeds (negotiation degrades, never fails)."""
        big = b"state" * 100_000
        net.register("src", lambda m: "ok")
        net.register("legacy", lambda m: len(m.payload))
        net.advertise_codecs("legacy", ())  # a build with no codecs
        compressions = []
        real_encode = codec.encode
        monkeypatch.setattr(
            codec, "encode",
            lambda ident, blob: compressions.append(ident) or real_encode(ident, blob),
        )
        assert net.call("src", "legacy", MessageKind.INVOKE, big) == len(big)
        assert compressions == []  # nothing was ever compressed toward it

    def test_negotiated_peer_gets_compressed_frames(self, net, monkeypatch):
        big = b"state" * 100_000
        net.register("src", lambda m: "ok")
        net.register("modern", lambda m: len(m.payload))
        compressions = []
        real_encode = codec.encode
        monkeypatch.setattr(
            codec, "encode",
            lambda ident, blob: compressions.append(ident) or real_encode(ident, blob),
        )
        assert net.call("src", "modern", MessageKind.INVOKE, big) == len(big)
        assert codec.ZLIB in compressions

    def test_small_calls_never_compress(self, net, monkeypatch):
        net.register("src", lambda m: "ok")
        net.register("dst", lambda m: "pong")
        compressions = []
        real_encode = codec.encode
        monkeypatch.setattr(
            codec, "encode",
            lambda ident, blob: compressions.append(ident) or real_encode(ident, blob),
        )
        assert net.call("src", "dst", MessageKind.PING) == "pong"
        assert compressions == []

    def test_codecs_param_validates_names(self):
        with pytest.raises(MarshalError):
            TcpNetwork(codecs=("snappy",))

    def test_disabled_codecs_keep_everything_raw(self, monkeypatch):
        net = TcpNetwork(codecs=(), compress_threshold=16)
        try:
            net.register("src", lambda m: "ok")
            net.register("dst", lambda m: len(m.payload))
            compressions = []
            real_encode = codec.encode
            monkeypatch.setattr(
                codec, "encode",
                lambda ident, blob: compressions.append(ident)
                or real_encode(ident, blob),
            )
            assert net.call("src", "dst", MessageKind.INVOKE,
                            b"x" * 100_000) == 100_000
            assert compressions == []
        finally:
            net.shutdown()
