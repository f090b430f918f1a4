"""Reactor edge cases: backpressure, hard close, shutdown.

The happy path of the event-loop data plane is exercised end-to-end by
every TcpNetwork test; these tests pin the corners that only show up
under adversity — a peer that stops reading (EAGAIN / partial writes), a
peer that dies mid-frame, and a reactor shutdown racing queued writes.  Each test drives a raw
:class:`~repro.net.reactor.Reactor` over a socketpair so the scenarios
are deterministic and need no TCP listener.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.reactor import (
    CODEC_SHIFT,
    DIRECT_RECV_MIN,
    HEADER,
    FrameError,
    Reactor,
)

#: Generous deadline for cross-thread assertions on a noisy box.
WAIT_S = 5.0


def frame(body: bytes, codec: int = 0) -> bytes:
    """Encode one wire frame the way the reactor's parser expects."""
    return HEADER.pack(len(body) | (codec << CODEC_SHIFT)) + body


def read_exactly(sock: socket.socket, nbytes: int) -> bytes:
    """Blocking read of ``nbytes`` from the raw test-side socket."""
    sock.settimeout(WAIT_S)
    buf = bytearray()
    while len(buf) < nbytes:
        chunk = sock.recv(nbytes - len(buf))
        if not chunk:
            raise AssertionError(
                f"peer closed after {len(buf)}/{nbytes} bytes"
            )
        buf += chunk
    return bytes(buf)


class FrameSink:
    """Collects delivered frames and the close reason, thread-safely."""

    def __init__(self) -> None:
        self.frames: list[tuple[int, bytes]] = []
        self.closed = threading.Event()
        self.closed_calls = 0
        self.close_reason: Exception | None = None
        self._lock = threading.Lock()

    def on_frame(self, ident: int, body: bytes, wire: int) -> None:
        with self._lock:
            self.frames.append((ident, body))

    def on_closed(self, reason: Exception | None) -> None:
        self.close_reason = reason
        self.closed_calls += 1
        self.closed.set()

    def snapshot(self) -> list[tuple[int, bytes]]:
        with self._lock:
            return list(self.frames)


@pytest.fixture
def reactor():
    created: list[Reactor] = []

    def factory(**kwargs) -> Reactor:
        kwargs.setdefault("max_frame", 1 << 22)
        r = Reactor(**kwargs)
        created.append(r)
        return r

    yield factory
    for r in created:
        r.close()


def test_backpressure_partial_writes_lose_nothing(reactor):
    """A peer that stops reading forces EAGAIN; every byte still lands.

    Small kernel buffers guarantee the direct-write fast path hits a
    partial ``send`` and the loop's flush path hits EAGAIN — the
    remainder must queue (visible via ``queued_bytes``) and drain in
    order once the peer reads again.
    """
    ours, theirs = socket.socketpair()
    ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    theirs.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sink = FrameSink()
    conn = reactor().add_connection(ours, sink.on_frame, sink.on_closed)
    payloads = [bytes([i % 256]) * 8192 for i in range(40)]
    wire = b"".join(frame(p) for p in payloads)
    for p in payloads:
        conn.send(frame(p))
    # The peer has read nothing, so the bulk of the traffic must be
    # parked in the write queue rather than dropped.
    assert conn.queued_bytes() > 0
    got = read_exactly(theirs, len(wire))
    assert got == wire
    deadline = time.monotonic() + WAIT_S
    while conn.queued_bytes() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert conn.queued_bytes() == 0
    theirs.close()


def test_peer_hard_close_mid_frame(reactor):
    """EOF inside a frame: on_closed fires once, no partial on_frame."""
    ours, theirs = socket.socketpair()
    sink = FrameSink()
    reactor().add_connection(ours, sink.on_frame, sink.on_closed)
    # A complete frame, then a header promising 100 bytes with only 10 sent.
    theirs.sendall(frame(b"whole") + HEADER.pack(100) + b"x" * 10)
    theirs.close()
    assert sink.closed.wait(WAIT_S)
    assert sink.close_reason is None  # orderly EOF, not an error
    assert sink.snapshot() == [(0, b"whole")]


def test_shutdown_drains_queued_writes_and_leaks_no_fds(reactor):
    """Closing the reactor drains queued replies and releases every FD."""
    before = len(os.listdir("/proc/self/fd"))
    r = Reactor(max_frame=1 << 22)
    ours, theirs = socket.socketpair()
    ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    theirs.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sink = FrameSink()
    conn = r.add_connection(ours, sink.on_frame, sink.on_closed)
    # Attachment is a loop task; wait for it, else close() wins the race
    # and tears the never-registered connection down queue-and-all.
    deadline = time.monotonic() + WAIT_S
    while not conn._registered and time.monotonic() < deadline:
        time.sleep(0.005)
    assert conn._registered
    payloads = [frame(bytes([i]) * 8192) for i in range(16)]
    for p in payloads:
        conn.send(p)  # small buffers, peer not reading: these stay queued
    assert conn.queued_bytes() > 0
    closer = threading.Thread(target=r.close, daemon=True)
    closer.start()
    # The graceful teardown must have pushed the queued frames out.
    wire = b"".join(payloads)
    assert read_exactly(theirs, len(wire)) == wire
    closer.join(WAIT_S)
    assert not closer.is_alive()
    assert sink.closed.wait(WAIT_S)
    with pytest.raises(ConnectionError):
        conn.send(frame(b"too late"))
    theirs.close()
    after = len(os.listdir("/proc/self/fd"))
    assert after <= before


def test_concurrent_senders_never_interleave_frames(reactor):
    """The loop's flush and a sender's direct write never share the socket.

    ``_handle_flush`` pops frames under the lock and writes them outside
    it; unless it holds the ``_writing`` right meanwhile, a concurrent
    ``send()`` finds the queue empty, writes directly, and lands inside
    the loop's partially written frame — the stream desynchronises.  A
    small send buffer makes every write partial and a reader that takes
    a little at a time keeps the loop flushing.  Each sender thread
    fills its frames with its own byte and keeps two in flight, sending
    the next when the reader has seen one (a streamed move's window), so
    the queue keeps running empty under the loop.  Every frame that
    arrives must be homogeneous and none may be lost.
    """
    senders, per_sender, body_len, window = 4, 1500, 16 * 1024, 2
    ours, theirs = socket.socketpair()
    ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    theirs.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sink = FrameSink()
    conn = reactor().add_connection(ours, sink.on_frame, sink.on_closed)
    credits = [threading.Semaphore(window) for _ in range(senders)]
    errors: list[BaseException] = []

    def sender(index: int) -> None:
        try:
            body = frame(bytes([index + 1]) * body_len)
            for _ in range(per_sender):
                assert credits[index].acquire(timeout=WAIT_S)
                conn.send(body)
        except BaseException as exc:  # surfaced below, not swallowed
            errors.append(exc)

    threads = [threading.Thread(target=sender, args=(i,), daemon=True)
               for i in range(senders)]
    received = [0] * senders
    theirs.settimeout(WAIT_S)
    buf = bytearray()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for _ in range(senders * per_sender):
            while len(buf) < HEADER.size + body_len:
                chunk = theirs.recv(2048)
                assert chunk, "connection dropped mid-stream"
                buf += chunk
            (word,) = HEADER.unpack_from(buf)
            assert word == body_len, f"desynchronised stream: header {word:#x}"
            body = bytes(buf[HEADER.size:HEADER.size + body_len])
            del buf[:HEADER.size + body_len]
            assert body == body[:1] * body_len, "frames interleaved"
            index = body[0] - 1
            received[index] += 1
            credits[index].release()
        for t in threads:
            t.join(WAIT_S)
    finally:
        sys.setswitchinterval(old_interval)
    assert not errors
    assert not any(t.is_alive() for t in threads)
    assert received == [per_sender] * senders
    assert not buf and not sink.closed.is_set()
    theirs.close()


# -- large frames are received in place ---------------------------------------

#: Body sizes around the direct-receive threshold, and well past one recv.
SIZES = (0, 1, DIRECT_RECV_MIN - 1, DIRECT_RECV_MIN, DIRECT_RECV_MIN + 1,
         256 * 1024, 1024 * 1024)
_RAMP = bytes(range(251))  # prime period: a shifted body never compares equal


def body_of(size: int, salt: int) -> bytes:
    ramp = _RAMP[salt:] + _RAMP[:salt]
    return (ramp * (size // len(ramp) + 1))[:size]


def deliver(stream: bytes, cuts: list[int], **reactor_kwargs) -> FrameSink:
    """Write ``stream`` in the pieces ``cuts`` delimit, then EOF; returns
    the sink once the reactor has reported the close (no sleeps: the EOF
    is the synchronisation)."""
    reactor_kwargs.setdefault("max_frame", 1 << 22)
    reactor = Reactor(**reactor_kwargs)
    ours, theirs = socket.socketpair()
    sink = FrameSink()
    try:
        reactor.add_connection(ours, sink.on_frame, sink.on_closed)
        theirs.settimeout(WAIT_S)
        edges = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
        for start, end in zip(edges, edges[1:]):
            try:
                theirs.sendall(stream[start:end])
            except OSError:
                break  # the reactor refused the stream and hung up
        theirs.close()
        assert sink.closed.wait(WAIT_S)
    finally:
        theirs.close()
        reactor.close()
    return sink


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.sampled_from(SIZES), min_size=1, max_size=4),
    codecs=st.lists(st.integers(0, 7), min_size=4, max_size=4),
    cuts=st.lists(st.integers(0, 1 << 23), max_size=6),
    near=st.lists(st.tuples(st.integers(0, 4), st.integers(-5, 9)), max_size=4),
)
def test_any_frame_sequence_survives_any_write_splitting(sizes, codecs,
                                                         cuts, near):
    """Frames of any size around the threshold, cut anywhere, arrive intact.

    ``near`` adds cuts a few bytes either side of a frame boundary — the
    splits that land inside a header, or leave a big body one byte short.
    """
    sent = [(codecs[i], body_of(size, i)) for i, size in enumerate(sizes)]
    stream = b"".join(frame(body, codec) for codec, body in sent)
    starts = [0]
    for _codec, body in sent:
        starts.append(starts[-1] + HEADER.size + len(body))
    cuts = cuts + [max(0, starts[min(i, len(sent))] + delta)
                   for i, delta in near]
    sink = deliver(stream, cuts)
    assert sink.close_reason is None
    assert sink.closed_calls == 1
    got = sink.snapshot()
    assert [(ident, len(body)) for ident, body in got] == \
        [(codec, len(body)) for codec, body in sent]
    assert [(ident, bytes(body)) for ident, body in got] == sent


def test_small_frame_glued_behind_a_big_one_is_delivered():
    big, small = body_of(1 << 20, 3), b"tail"
    sink = deliver(frame(big) + frame(small, 2), [])
    (ident0, body0), (ident1, body1) = sink.snapshot()
    # The big body cannot have been wholly buffered by one recv, so it
    # was received in place and handed over as its own buffer ...
    assert type(body0) is bytearray and ident0 == 0 and body0 == big
    # ... and what followed it went through the ordinary parser.
    assert type(body1) is bytes and (ident1, body1) == (2, small)


def test_eof_inside_a_directly_received_frame_delivers_nothing():
    stream = frame(b"whole") + HEADER.pack(1 << 20) + body_of(300 * 1024, 0)
    sink = deliver(stream, [])
    assert sink.snapshot() == [(0, b"whole")]
    assert sink.close_reason is None and sink.closed_calls == 1


def test_max_frame_is_enforced_before_the_buffer_exists():
    tracemalloc.start()
    try:
        sink = deliver(HEADER.pack(32 << 20) + b"x" * 4096, [],
                       max_frame=1 << 20)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(sink.close_reason, FrameError)
    assert sink.snapshot() == [] and sink.closed_calls == 1
    assert peak < (1 << 20), f"{peak} bytes allocated for a refused frame"


def test_per_connection_frame_bound_is_lifted_from_inside_on_frame():
    """``add_connection(max_frame=)`` + ``set_max_frame``: the HELLO gate."""
    reactor = Reactor(max_frame=1 << 22)
    ours, theirs = socket.socketpair()
    sink = FrameSink()
    conns = []

    def on_frame(ident: int, body: bytes, wire: int) -> None:
        sink.on_frame(ident, body, wire)
        conns[0].set_max_frame(1 << 22)  # the peer has introduced itself

    try:
        conns.append(reactor.add_connection(
            ours, on_frame, sink.on_closed, max_frame=1024))
        big = body_of(1 << 20, 1)
        theirs.sendall(frame(b"hello") + frame(big))
        theirs.close()
        assert sink.closed.wait(WAIT_S)
        assert sink.close_reason is None
        assert [bytes(b) for _i, b in sink.snapshot()] == [b"hello", big]
        # Without the introduction the same second frame is refused.
        ours2, theirs2 = socket.socketpair()
        strict = FrameSink()
        reactor.add_connection(ours2, strict.on_frame, strict.on_closed,
                               max_frame=1024)
        theirs2.sendall(HEADER.pack(1025))
        assert strict.closed.wait(WAIT_S)
        assert isinstance(strict.close_reason, FrameError)
        theirs2.close()
    finally:
        theirs.close()
        reactor.close()
