"""A streamed move over TCP: its chunk window, its committing chunk, and a
chunk refused mid-stream.

The mover's one sender loop keeps at most ``DEFAULT_STREAM_WINDOW``
chunk exchanges in flight to a candidate, each ack sending the next.  A
single-target move's last chunk carries its commit and leaves only once
every earlier chunk is acked.  A failed exchange fails the move with the
receiver's own error, ABORTs the staging, and leaves the object where it
was.
"""

import threading
import time

import pytest

from repro.cluster import Cluster
from repro.errors import MigrationError
from repro.net.message import MessageKind
from repro.net.tcpnet import TcpNetwork
from repro.runtime.mover import DEFAULT_STREAM_WINDOW

KIB = 1024
CHUNK = 16 * KIB


class Bulk:
    def __init__(self, size):
        self.payload = b"w" * size


@pytest.fixture
def cluster():
    net = TcpNetwork()
    cluster = Cluster(["n0", "n1"], transport=net,
                      stream_threshold=4 * KIB, chunk_bytes=CHUNK)
    yield cluster
    cluster.shutdown()


def _wrap_receiver(cluster, node, before):
    """Run ``before(message)`` ahead of ``node``'s own dispatch."""
    handle = cluster[node].namespace.external.handle

    def dispatch(message):
        before(message)
        return handle(message)

    cluster.transport.register(node, dispatch)


def _wait_until(predicate, timeout_s=5.0):
    stop = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < stop:
        time.sleep(0.01)
    return predicate()


def test_a_twelve_chunk_move_keeps_at_most_the_window_in_flight(
        cluster, monkeypatch):
    lock = threading.Lock()
    in_flight, peak = [0], [0]
    call_async = cluster.transport.call_async

    def done(_future):
        with lock:
            in_flight[0] -= 1

    def counting(src, dst, kind, payload=None, deadline=None):
        future = call_async(src, dst, kind, payload, deadline)
        if kind is MessageKind.TRANSFER_CHUNK:
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            future.add_done_callback(done)
        return future

    monkeypatch.setattr(cluster.transport, "call_async", counting)
    # A slow receiver lets the window fill before any chunk is acked.
    _wrap_receiver(cluster, "n1", lambda message: time.sleep(0.02)
                   if message.kind is MessageKind.TRANSFER_CHUNK else None)
    cluster["n0"].register("b", Bulk(12 * CHUNK - CHUNK // 2))
    assert cluster["n0"].namespace.move("b", "n1") == "n1"
    assert cluster["n1"].namespace.store.get("b").payload[:1] == b"w"
    assert peak[0] == DEFAULT_STREAM_WINDOW


def test_the_committing_chunk_waits_for_every_earlier_ack(cluster):
    """Chunk 1 is slow on the receiver's pool.  Sent with the window, the
    committing chunk would run beside it and find the staging incomplete;
    held back, it leaves after chunk 1's ack and the move applies."""
    handle = cluster["n1"].namespace.external.handle
    events = []

    def slow_chunk_one(message):
        chunk = (message.payload
                 if message.kind is MessageKind.TRANSFER_CHUNK else None)
        if chunk is not None and chunk.commit is not None:
            events.append(f"commit with chunk {chunk.index}")
        if chunk is not None and chunk.index == 1:
            time.sleep(0.05)
            result = handle(message)
            events.append("chunk 1 acked")
            return result
        return handle(message)

    cluster.transport.register("n1", slow_chunk_one)
    cluster["n0"].register("b", Bulk(4 * CHUNK - CHUNK // 2))
    assert cluster["n0"].namespace.move("b", "n1") == "n1"
    assert cluster["n1"].namespace.store.get("b").payload[:1] == b"w"
    assert events == ["chunk 1 acked", "commit with chunk 3"]


def test_a_refused_chunk_fails_the_move_and_aborts_the_staging(cluster):
    seen = []

    def refuse_chunk_five(message):
        seen.append(message.kind)
        if (message.kind is MessageKind.TRANSFER_CHUNK
                and message.payload.commit is not None):
            seen.append(MessageKind.TRANSFER_COMMIT)  # it rides the chunk
        if (message.kind is MessageKind.TRANSFER_CHUNK
                and message.payload.index == 5):
            raise MigrationError("chunk 5 refused by the receiver")

    _wrap_receiver(cluster, "n1", refuse_chunk_five)
    cluster["n0"].register("b", Bulk(12 * CHUNK - CHUNK // 2))
    with pytest.raises(MigrationError, match="chunk 5 refused"):
        cluster["n0"].namespace.move("b", "n1")
    assert _wait_until(lambda: MessageKind.TRANSFER_ABORT in seen)
    assert MessageKind.TRANSFER_COMMIT not in seen
    mover = cluster["n1"].namespace.mover
    assert _wait_until(lambda: mover.staging_count() == 0)
    assert not cluster["n1"].namespace.store.contains("b")
    source = cluster["n0"].namespace
    assert source.store.contains("b")
    assert source.locks.snapshot("b")["departing"] is False
