"""The send path of a move: the packed state is not copied on the way out.

On the in-process simulated network a payload crosses by reference, so
what the receiver stages is exactly what the sender put on the wire —
which makes "no copy" something a test can check with ``is``.
"""

import io
import pickle

import pytest

from repro.net.message import Message, MessageKind, payload_nbytes
from repro.net.wirecodec import MAX_TUPLE_ITEMS
from repro.rmi.marshal import KEEP_MIN_BYTES, _MagePickler
from repro.rmi.protocol import TransferChunk
from repro.runtime.mover import _chunk_payloads

KIB = 1024


class Payload:
    """A mobile servant with one large field."""

    def __init__(self, data):
        self.data = data
        self.tag = "payload"


def _streaming(make_cluster, **kwargs):
    return make_cluster(["alpha", "beta"], stream_threshold=4 * KIB,
                        **kwargs)


def _staged_chunks(monkeypatch, namespace):
    """Every ``TransferChunk.data`` the namespace's mover stages from now on."""
    staged = []
    receive_chunk = namespace.mover.receive_chunk
    monkeypatch.setattr(
        namespace.mover, "receive_chunk",
        lambda chunk: staged.append(chunk.data) or receive_chunk(chunk))
    return staged


def _segments(data):
    return data if type(data) is tuple else (data,)


class TestNoCopyOut:
    def test_a_large_bytes_is_packed_by_reference(self, pair):
        data = bytes(range(256)) * (KEEP_MIN_BYTES // 256)
        pieces = pair["alpha"].namespace.mover.pack_state(Payload(data))
        assert any(piece is data for piece in pieces)

    def test_a_streamed_chunk_is_a_view_of_the_servants_own_bytes(
            self, make_cluster, monkeypatch):
        cluster = _streaming(make_cluster, chunk_bytes=1024 * KIB)
        staged = _staged_chunks(monkeypatch, cluster["beta"].namespace)
        data = bytes(range(256)) * 1024
        cluster["alpha"].register("p", Payload(data))
        assert cluster["alpha"].namespace.move("p", "beta") == "beta"
        (chunk_data,) = staged
        views = [s for s in _segments(chunk_data) if len(s) == len(data)]
        assert len(views) == 1 and views[0].obj is data
        assert cluster["beta"].namespace.store.get("p").data == data

    def test_a_bytearray_changed_after_packing_lands_as_packed(
            self, make_cluster, monkeypatch):
        cluster = _streaming(make_cluster, chunk_bytes=64 * KIB)
        mover = cluster["alpha"].namespace.mover
        pack_state = mover.pack_state

        def pack_then_scribble(obj):
            pieces = pack_state(obj)
            obj.data[:] = b"z" * len(obj.data)  # the servant runs on
            return pieces

        monkeypatch.setattr(mover, "pack_state", pack_then_scribble)
        cluster["alpha"].register("p", Payload(bytearray(b"a" * 300 * KIB)))
        assert cluster["alpha"].namespace.move("p", "beta") == "beta"
        landed = cluster["beta"].namespace.store.get("p").data
        assert landed == bytearray(b"a" * 300 * KIB)

    @pytest.mark.parametrize("size", [10, 100 * KIB])
    def test_a_single_frame_blob_is_the_same_bytes_as_before(
            self, pair, monkeypatch, size):
        """Sub-threshold states ship whole, byte for byte as a pickler
        writing into a ``BytesIO`` produced them."""
        beta = pair["beta"].namespace
        blobs = []
        receive = beta.mover.receive
        monkeypatch.setattr(
            beta.mover, "receive",
            lambda transfer: blobs.append(transfer.state_blob)
            or receive(transfer))
        obj = Payload(bytes(range(256)) * (size // 256 + 1))
        pair["alpha"].register("p", obj)
        assert pair["alpha"].namespace.move("p", "beta") == "beta"
        (blob,) = blobs
        buffer = io.BytesIO()
        _MagePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(
            dict(obj.__dict__))
        assert type(blob) is bytes and blob == buffer.getvalue()


class TestChunkShape:
    @pytest.mark.parametrize("sizes, chunk_bytes", [
        ([10, 300, 7], 100),
        ([1000], 1000),
        ([1] * 600, 1000),          # would span 600 pieces: capped
        ([1] * 600, 7),
        ([5, 0, 5], 3),
    ])
    def test_chunks_cover_the_blob_within_the_tuple_bound(
            self, sizes, chunk_bytes):
        pieces = [bytes([i % 256]) * n for i, n in enumerate(sizes)]
        blob = b"".join(pieces)
        chunks = list(_chunk_payloads(pieces, chunk_bytes))
        assert len(chunks) == -(-len(blob) // chunk_bytes)
        assert b"".join(bytes(s) for c in chunks for s in _segments(c)) == blob
        for chunk in chunks:
            assert len(_segments(chunk)) <= MAX_TUPLE_ITEMS
            assert sum(len(s) for s in _segments(chunk)) <= chunk_bytes

    def test_a_chunk_inside_one_piece_is_a_single_view(self):
        piece = bytes(1000)
        chunks = list(_chunk_payloads([piece], 400))
        assert all(type(c) is memoryview and c.obj is piece for c in chunks)


class TestSimAccounting:
    def test_a_chunk_of_views_is_sized_by_its_bytes(self):
        blob = bytes(64 * KIB)
        view = memoryview(blob)
        chunk = TransferChunk(transfer_id="t", index=0,
                              data=(view[:100], view[100:]))
        message = Message(MessageKind.TRANSFER_CHUNK, "alpha", "beta",
                          payload=chunk)
        assert payload_nbytes(message) >= len(blob)
