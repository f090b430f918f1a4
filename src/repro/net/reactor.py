"""Event-loop data plane: every socket owned by a selector thread.

The thread-per-connection transport of earlier PRs spent its throughput
budget on thread handoffs and per-frame syscalls: one reader thread per
client channel, one serve thread per inbound connection, one ``sendall``
per frame.  This module replaces all of that with one **reactor
loop**: a ``selectors`` event loop on its own thread that owns every
socket outright:

* **Reads** are non-blocking and batched: one ``recv`` drains whatever
  burst arrived, and a per-connection receive state machine slices it
  into length-prefixed frames.  Frames are handed to the owner through
  an ``on_frame(codec_id, body, wire_bytes)`` callback on the loop
  thread — the callback must never block (hand real work to a pool).
* **Large frames are received in place.**  When a header announces a
  body of at least :data:`DIRECT_RECV_MIN` bytes that is not yet
  buffered, the connection allocates one ``bytearray`` of exactly that
  length (after the ``max_frame`` check — nothing is allocated for a
  frame that will be refused), moves the already-buffered prefix into
  it, fills the rest with ``recv_into`` across readable events, and
  hands *that buffer* to ``on_frame``: the body is written once, by the
  kernel, and never copied again here.  Smaller frames — and a big one
  that happened to be wholly buffered already — arrive as ``bytes``
  sliced out of the receive buffer.  ``on_frame`` therefore takes
  either; whoever keeps a view of a delivered ``bytearray`` keeps the
  whole frame alive, and nobody may write to it.
* **Writes** never block and never wait.  :meth:`Connection.send` on an
  idle connection writes the frame right there, on the caller's thread
  (the direct-write fast path); otherwise it enqueues and wakes the
  loop, which at the end of its event round writes each dirty
  connection's whole queue with as few ``send`` calls as it takes —
  *end-of-round write coalescing*.  There is one flush policy and no
  flush timer: a queued frame waits at most one loop round, and frames
  batch exactly when the loop was busy (the moments batching pays).
* **Backpressure** is native: a partial ``send`` re-queues the remainder
  and arms ``EVENT_WRITE`` interest; nothing is lost and no thread is
  parked on a full socket buffer.
* **One timer.**  :meth:`Reactor.call_at` runs ``fn(*args)`` on the
  loop thread once a ``time.monotonic()`` instant has passed; ``select``
  sleeps no longer than until the earliest one.  The reactor does not
  know what its owner schedules (the TCP transport holds received
  frames on an emulated link with it).

Lock discipline: the loop thread is the only thread that touches a
socket.  Every queue mutation holds the owning lock, and every syscall
happens outside any lock (magelint MAGE001/MAGE007 are clean over this
module by construction).

The module knows framing (the 32-bit header word: top
:data:`CODEC_SHIFT` bits = codec id, low bits = body length) but not
message semantics or links — envelopes, HELLOs, dispatch, reply
matching and link emulation all live in :mod:`repro.net.tcpnet`.
"""

from __future__ import annotations

import heapq
import selectors
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

#: One 32-bit header word per frame: ``length | (codec_id << CODEC_SHIFT)``.
HEADER = struct.Struct(">I")
CODEC_SHIFT = 29
LENGTH_MASK = (1 << CODEC_SHIFT) - 1

#: Largest single ``recv``; big enough to drain a burst of small frames
#: in one syscall without starving the loop's other connections.
_RECV_CHUNK = 1 << 18

#: Bodies at least this long are received straight into a buffer of
#: their own (see "Large frames are received in place" above) and
#: :mod:`repro.net.wirecodec` decodes their bulk byte fields as views of
#: that buffer.  Below it a frame is cheaper to slice out of the shared
#: receive buffer than to give an allocation and a state switch.
DIRECT_RECV_MIN = 1 << 16

#: Most bytes merged into one ``send`` during a flush.
_SEND_CAP = 1 << 20

#: Most buffers handed to one ``sendmsg`` (kept safely under IOV_MAX,
#: which POSIX guarantees to be ≥ 16 and Linux sets to 1024).
_IOV_CAP = 128

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")

#: One encoded frame as accepted by :meth:`Connection.send`: a single
#: contiguous buffer, or an ordered buffer list (header + head bytes +
#: zero-copy blob segments) that goes out through one gather write.
FramePayload = "bytes | list[bytes | memoryview]"


def _send_gather(sock: socket.socket,
                 chunks: "list[bytes | memoryview]") -> int:
    """Write a buffer list with one syscall; returns bytes accepted.

    ``sendmsg`` is writev under the hood: the kernel copies straight out
    of each buffer, so large blob segments are never joined into an
    intermediate bytes object.  Platforms without it fall back to a join.
    """
    if len(chunks) == 1:
        return sock.send(chunks[0])
    if _HAS_SENDMSG:
        return sock.sendmsg(chunks)
    return sock.send(b"".join(chunks))


def _remainder(chunks: "list[bytes | memoryview]",
               sent: int) -> "list[bytes | memoryview]":
    """The tail of ``chunks`` after the kernel accepted ``sent`` bytes.

    The partially-written chunk is re-sliced as a memoryview — no copy,
    regardless of how large the interrupted blob segment was.
    """
    rest: "list[bytes | memoryview]" = []
    for chunk in chunks:
        n = len(chunk)
        if sent >= n:
            sent -= n
            continue
        if sent:
            rest.append(memoryview(chunk)[sent:])
            sent = 0
        else:
            rest.append(chunk)
    return rest

#: How long a graceful teardown keeps trying to drain queued writes.
_DRAIN_TIMEOUT_S = 1.0

#: A received frame body: ``bytes`` sliced from the receive buffer, or
#: the ``bytearray`` a large frame was received into.
FrameBody = bytes | bytearray

#: ``on_frame(codec_id, body, wire_bytes)`` — one parsed frame, on the
#: loop thread.  Raising tears the connection down with the exception as
#: the close reason.
FrameCallback = Callable[[int, FrameBody, int], None]
#: ``on_closed(reason)`` — exactly once, when the connection dies
#: (``None`` = orderly EOF or local close).  Runs on the closing thread.
ClosedCallback = Callable[[Exception | None], None]
#: ``on_accept(sock)`` — one accepted (already non-Nagle) socket.
AcceptCallback = Callable[[socket.socket], None]


class FrameError(Exception):
    """The byte stream violated framing (oversized or malformed frame)."""


def _bucket(n: int) -> int:
    """Power-of-two histogram bucket for a flush batch size."""
    b = 1
    while b < n:
        b <<= 1
    return b


@dataclass(frozen=True)
class DataPlaneStats:
    """Point-in-time snapshot of the reactor's data-plane counters.

    ``frames_per_flush`` is a histogram keyed by power-of-two bucket
    (how many frames each coalesced ``send`` carried — the direct
    measure of what adaptive coalescing saves).  Loop lag is how long
    one event-processing round kept the loop away from ``select`` —
    the reactor's answer to "is the loop the bottleneck".

    The ``auto_batch_*`` / ``inline_*`` fields describe the transport's
    call-path aggregation one layer up (calls coalesced per frame,
    dispatches run inline on the loop thread); the reactor itself never
    touches them — the TCP transport folds its own counters in before
    handing the snapshot out, so they default to zero here.
    """

    frames_sent: int
    flushes: int
    frames_per_flush: dict[int, int]
    mean_frames_per_flush: float
    loop_lag_ewma_ms: float
    loop_lag_max_ms: float
    max_queue_bytes: int
    queued_bytes: int
    connections: int
    auto_batches: int = 0
    auto_batched_msgs: int = 0
    auto_batch_per_frame: dict[int, int] = field(default_factory=dict)
    inline_dispatches: int = 0
    inline_overruns: int = 0
    inline_demotions: int = 0

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly form for bench artifacts."""
        return {
            "frames_sent": self.frames_sent,
            "flushes": self.flushes,
            "frames_per_flush": {
                str(k): v for k, v in sorted(self.frames_per_flush.items())
            },
            "mean_frames_per_flush": round(self.mean_frames_per_flush, 3),
            "loop_lag_ewma_ms": round(self.loop_lag_ewma_ms, 4),
            "loop_lag_max_ms": round(self.loop_lag_max_ms, 3),
            "max_queue_bytes": self.max_queue_bytes,
            "queued_bytes": self.queued_bytes,
            "connections": self.connections,
            "auto_batches": self.auto_batches,
            "auto_batched_msgs": self.auto_batched_msgs,
            "auto_batch_per_frame": {
                str(k): v for k, v in sorted(self.auto_batch_per_frame.items())
            },
            "inline_dispatches": self.inline_dispatches,
            "inline_overruns": self.inline_overruns,
            "inline_demotions": self.inline_demotions,
        }


class ReactorMetrics:
    """Thread-safe counters of one reactor."""

    _LAG_ALPHA = 0.1

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flushes = 0
        self._frames_sent = 0
        self._flush_hist: dict[int, int] = {}
        self._lag_ewma_s = 0.0
        self._lag_max_s = 0.0
        self._lag_samples = 0
        self._max_queue_bytes = 0

    def note_flush(self, frames: int) -> None:
        """One coalesced ``send`` carried ``frames`` queued frames."""
        if frames <= 0:
            return
        bucket = _bucket(frames)
        with self._lock:
            self._flushes += 1
            self._frames_sent += frames
            self._flush_hist[bucket] = self._flush_hist.get(bucket, 0) + 1

    def note_loop_lag(self, lag_s: float) -> None:
        """One event round kept the loop busy for ``lag_s`` seconds."""
        with self._lock:
            self._lag_samples += 1
            if lag_s > self._lag_max_s:
                self._lag_max_s = lag_s
            if self._lag_samples == 1:
                self._lag_ewma_s = lag_s
            else:
                alpha = self._LAG_ALPHA
                self._lag_ewma_s = (1 - alpha) * self._lag_ewma_s + alpha * lag_s

    def note_queue_depth(self, nbytes: int) -> None:
        """A connection's write queue reached ``nbytes`` queued bytes."""
        # Unlocked peek is benign (monotonic high-water mark); the locked
        # re-check keeps the update itself race-free.
        if nbytes <= self._max_queue_bytes:
            return
        with self._lock:
            if nbytes > self._max_queue_bytes:
                self._max_queue_bytes = nbytes

    def snapshot(self, queued_bytes: int, connections: int) -> DataPlaneStats:
        with self._lock:
            flushes = self._flushes
            frames = self._frames_sent
            hist = dict(self._flush_hist)
            lag_ewma = self._lag_ewma_s
            lag_max = self._lag_max_s
            max_queue = self._max_queue_bytes
        return DataPlaneStats(
            frames_sent=frames,
            flushes=flushes,
            frames_per_flush=hist,
            mean_frames_per_flush=(frames / flushes) if flushes else 0.0,
            loop_lag_ewma_ms=lag_ewma * 1000.0,
            loop_lag_max_ms=lag_max * 1000.0,
            max_queue_bytes=max_queue,
            queued_bytes=queued_bytes,
            connections=connections,
        )


class _DirectFrame:
    """A large frame being received in place (loop thread only)."""

    __slots__ = ("ident", "body", "view", "have")

    def __init__(self, ident: int, length: int, buffered: bytearray,
                 start: int) -> None:
        self.ident = ident
        self.body = bytearray(length)
        self.view = memoryview(self.body)
        self.have = len(buffered) - start
        # Through released views: ``buffered`` is resized right after.
        with memoryview(buffered) as whole, whole[start:] as prefix:
            self.view[:self.have] = prefix


class Connection:
    """One non-blocking socket owned by a reactor loop.

    Public surface (any thread): :meth:`send`, :meth:`close`,
    :meth:`queued_bytes`.  Everything ``_``-prefixed runs on the owning
    loop thread only.
    """

    def __init__(self, loop: "_Loop", sock: socket.socket,
                 on_frame: FrameCallback, on_closed: ClosedCallback, *,
                 max_frame: int,
                 metrics: ReactorMetrics) -> None:
        self._loop = loop
        self._sock = sock
        self._on_frame = on_frame
        self._on_closed = on_closed
        self._max_frame = max_frame
        self._metrics = metrics
        # Write side: guarded by ``self._lock``; socket syscalls always
        # happen outside it (the loop thread, or a sender holding the
        # direct-write right — see ``_writing``).
        self._lock = threading.Lock()
        self._out: deque[bytes | list[bytes | memoryview]] = deque()
        self._out_bytes = 0
        self._closed = False            # no further send() accepted
        self._writing = False           # a sender or the loop is mid-write
        self._registered = False
        # Read side: loop thread only.
        self._in = bytearray()
        self._direct: _DirectFrame | None = None  # large frame in progress
        self._dead = False              # torn down
        self._write_interest = False
        sock.setblocking(False)

    # -- public (thread-safe) -------------------------------------------------

    def send(self, payload: bytes | list[bytes | memoryview]) -> None:
        """Queue one encoded frame for transmission; never blocks.

        ``payload`` is one frame: a contiguous buffer, or an ordered
        buffer list that reaches the wire through a single gather write
        (``sendmsg``) without ever being joined.

        Raises :class:`ConnectionError` when the connection has been
        closed — the payload then provably never touched the wire (the
        frame either completed or the connection is dead; a partial
        direct write only happens on a connection that is torn down
        before the remainder could ever be dispatched).  Once this
        returns normally, the frame is owned by the reactor and will be
        written unless the connection dies first.

        Fast path: with an empty queue and no other sender mid-write,
        the frame goes out right here with one non-blocking ``send`` —
        no loop handoff, no wake syscall.  The loop takes over only for
        contention or backpressure.
        """
        if isinstance(payload, bytes):
            nbytes = len(payload)
        else:
            nbytes = 0
            for chunk in payload:
                nbytes += len(chunk)
        with self._lock:
            if self._closed:
                raise ConnectionError("connection is closed")
            direct = (self._registered and not self._writing
                      and not self._out)
            if direct:
                self._writing = True
            else:
                self._out.append(payload)
                self._out_bytes += nbytes
                depth = self._out_bytes
        if direct:
            self._direct_send(payload, nbytes)
            return
        self._metrics.note_queue_depth(depth)
        self._loop._mark_dirty(self)

    def _direct_send(self, payload: bytes | list[bytes | memoryview],
                     nbytes: int) -> None:
        # The caller holds the direct-write right (``_writing``); the
        # loop's flush path yields while it is set, so this is the only
        # thread touching the socket's send side.
        chunks: list[bytes | memoryview]
        chunks = [payload] if isinstance(payload, bytes) else payload
        try:
            sent = _send_gather(self._sock, chunks)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except (ConnectionError, OSError) as exc:
            with self._lock:
                self._writing = False
                self._closed = True
            self._loop._request_close(self, graceful=False)
            raise ConnectionError(f"send failed: {exc}") from exc
        if sent:
            self._metrics.note_flush(1)
        if sent < nbytes:
            rest = _remainder(chunks, sent)
            with self._lock:
                self._writing = False
                self._out.appendleft(rest)
                self._out_bytes += nbytes - sent
                depth = self._out_bytes
            self._metrics.note_queue_depth(depth)
            self._loop._mark_dirty(self)
            return
        with self._lock:
            self._writing = False
            queued = bool(self._out)
        if queued:
            # Frames piled up behind us while we held the socket; the
            # loop may already have consumed their wake and yielded to
            # us, so re-arm it.
            self._loop._mark_dirty(self)

    def close(self, graceful: bool = True) -> None:
        """Close the connection; idempotent, never blocks.

        ``graceful`` drains already-queued writes (bounded best-effort)
        before the socket closes, so a reply enqueued just before
        shutdown is not lost; ``graceful=False`` severs immediately.
        ``on_closed`` fires once the loop completes the teardown.
        """
        with self._lock:
            if self._closed:
                already = self._dead
            else:
                already = False
            self._closed = True
        if already:
            return
        self._loop._request_close(self, graceful)

    def queued_bytes(self) -> int:
        """Bytes currently waiting in the write queue (diagnostics)."""
        with self._lock:
            return self._out_bytes

    # -- read path (loop thread only) -----------------------------------------

    def set_max_frame(self, max_frame: int) -> None:
        """Change this connection's frame bound (loop thread only).

        For an owner that admits a peer in steps: start the connection
        under a small bound and raise it from inside ``on_frame`` once
        the peer has proved itself.  Applies to the next header parsed.
        """
        self._max_frame = max_frame

    def _handle_readable(self) -> None:
        while not self._dead:
            direct = self._direct
            try:
                if direct is not None:
                    want = len(direct.body) - direct.have
                    got = self._sock.recv_into(direct.view[direct.have:])
                else:
                    want = _RECV_CHUNK
                    chunk = self._sock.recv(_RECV_CHUNK)
                    got = len(chunk)
            except (BlockingIOError, InterruptedError):
                return
            except (ConnectionError, OSError) as exc:
                self._teardown(exc)
                return
            if not got:
                self._teardown(None)  # orderly EOF (mid-frame: nothing delivered)
                return
            if direct is not None:
                direct.have += got
                if got == want:
                    self._direct = None
                    direct.view.release()
                    self._deliver(direct.ident, direct.body,
                                  HEADER.size + len(direct.body))
            else:
                self._in += chunk
                self._parse_frames()
            if got < want:
                return  # socket drained for now

    def _parse_frames(self) -> None:
        buf = self._in
        header = HEADER.size
        offset = 0
        while not self._dead:
            if len(buf) - offset < header:
                break
            (word,) = HEADER.unpack_from(buf, offset)
            ident = word >> CODEC_SHIFT
            length = word & LENGTH_MASK
            if length > self._max_frame:
                if offset:
                    del buf[:offset]
                self._teardown(FrameError(
                    f"incoming frame too large: {length} bytes"
                ))
                return
            if len(buf) - offset < header + length:
                if length >= DIRECT_RECV_MIN:
                    # Everything buffered past the header belongs to this
                    # body: move it into the frame's own buffer and let
                    # _handle_readable receive the rest in place.
                    self._direct = _DirectFrame(ident, length, buf,
                                                offset + header)
                    offset = len(buf)
                break
            body = bytes(buf[offset + header:offset + header + length])
            offset += header + length
            self._deliver(ident, body, header + length)
        if offset:
            del buf[:offset]

    def _deliver(self, ident: int, body: FrameBody, wire: int) -> None:
        try:
            self._on_frame(ident, body, wire)
        except Exception as exc:
            self._teardown(exc)

    # -- write path (loop thread only) ----------------------------------------

    def _handle_flush(self) -> None:
        """Write queued bytes until drained or the socket pushes back."""
        while not self._dead:
            with self._lock:
                if self._writing:
                    # A direct writer owns the socket; it re-marks this
                    # connection dirty on exit if frames queued behind it.
                    return
                if not self._out:
                    break
                chunks: list[bytes | memoryview] = []
                frames = 0
                total = 0
                while (self._out and total < _SEND_CAP
                       and len(chunks) < _IOV_CAP):
                    item = self._out.popleft()
                    if isinstance(item, bytes):
                        chunks.append(item)
                        total += len(item)
                    else:
                        for chunk in item:
                            chunks.append(chunk)
                            total += len(chunk)
                    frames += 1
                self._out_bytes -= total
                # The queue may now be empty: hold the write right across
                # the syscall, or a sender would go direct and land inside
                # a frame this write leaves half-sent.
                self._writing = True
            try:
                sent = _send_gather(self._sock, chunks)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except (ConnectionError, OSError) as exc:
                with self._lock:
                    self._writing = False
                self._teardown(exc)
                return
            if sent:
                self._metrics.note_flush(frames)
            with self._lock:
                self._writing = False
                if sent < total:
                    # Backpressure: keep the remainder at the queue head
                    # and let EVENT_WRITE drive the rest out — retrying
                    # before the socket drains would just spin.
                    self._out.appendleft(_remainder(chunks, sent))
                    self._out_bytes += total - sent
            if sent < total:
                self._set_write_interest(True)
                return
        self._set_write_interest(False)

    def _set_write_interest(self, wanted: bool) -> None:
        if self._dead or not self._registered or wanted == self._write_interest:
            return
        events = selectors.EVENT_READ
        if wanted:
            events |= selectors.EVENT_WRITE
        try:
            self._loop._selector.modify(self._sock, events, self)
            self._write_interest = wanted
        except (KeyError, ValueError, OSError):
            pass

    # -- teardown (loop thread only) ------------------------------------------

    def _drain_blocking(self) -> None:
        """Best-effort bounded drain of queued writes (teardown path)."""
        with self._lock:
            if self._writing:
                return  # a direct writer owns the socket; don't interleave
            queued = list(self._out)
            self._out.clear()
            self._out_bytes = 0
        if not queued:
            return
        flat: list[bytes | memoryview] = []
        for item in queued:
            if isinstance(item, bytes):
                flat.append(item)
            else:
                flat.extend(item)
        try:
            self._sock.settimeout(_DRAIN_TIMEOUT_S)
            self._sock.sendall(b"".join(flat))
        except OSError:
            pass

    def _teardown(self, reason: Exception | None) -> None:
        if self._dead:
            return
        self._dead = True
        self._direct = None  # a half-received frame is never delivered
        with self._lock:
            self._closed = True
            self._out.clear()
            self._out_bytes = 0
        self._loop._forget(self)
        try:
            self._sock.close()
        except OSError:
            pass
        try:
            self._on_closed(reason)
        except Exception:
            pass  # a close callback must never kill the loop


class Listener:
    """A listening socket whose ``accept`` runs on the reactor loop."""

    def __init__(self, loop: "_Loop", sock: socket.socket,
                 on_accept: AcceptCallback) -> None:
        self._loop = loop
        self._sock = sock
        self._on_accept = on_accept
        self._dead = False
        sock.setblocking(False)

    def close(self) -> None:
        """Stop accepting and close the listening socket; idempotent.

        Waits briefly for the loop to release the port so a caller can
        rebind it; falls back to an inline close when the loop is gone.
        """
        if self._dead:
            return
        if not self._loop.alive:
            self._close_now()
            return
        done = threading.Event()

        def _task() -> None:
            self._loop._close_listener(self)
            done.set()

        self._loop._call_soon(_task)
        if threading.current_thread() is not self._loop.thread:
            done.wait(timeout=1.0)

    def _close_now(self) -> None:
        self._dead = True
        try:
            self._sock.close()
        except OSError:
            pass

    def _handle_readable(self) -> None:  # loop thread only
        while not self._dead:
            try:
                sock, _addr = self._sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._loop._close_listener(self)
                return
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # non-TCP sockets (tests use socketpairs)
            try:
                self._on_accept(sock)
            except Exception:
                try:
                    sock.close()
                except OSError:
                    pass


#: A pending :meth:`Reactor.call_at`: (when, seq, fn, args).  ``seq``
#: keeps timers due at one instant in the order they were set.
_Timer = tuple[float, int, Callable[..., object], tuple[object, ...]]


class _Loop:
    """The selector thread; owns every socket of its reactor."""

    def __init__(self, name: str, metrics: ReactorMetrics) -> None:
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._wake_pending = False
        self._tasks: deque[Callable[[], None]] = deque()
        self._dirty: set[Connection] = set()
        self._closing = False
        # Loop-thread-only state.
        self._timers: list[_Timer] = []
        self._timer_seq = 0
        # Shared rosters (guarded by self._lock; mutated on the loop).
        self._conns: set[Connection] = set()
        self._listeners: set[Listener] = set()
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)
        self.thread.start()

    @property
    def alive(self) -> bool:
        return self.thread.is_alive()

    # -- cross-thread entry points --------------------------------------------

    def _call_soon(self, fn: Callable[[], None]) -> None:
        with self._lock:
            self._tasks.append(fn)
            wake = not self._wake_pending
            if wake:
                self._wake_pending = True
        if wake:
            self._wake()

    def _mark_dirty(self, conn: Connection) -> None:
        with self._lock:
            self._dirty.add(conn)
            wake = not self._wake_pending
            if wake:
                self._wake_pending = True
        if wake:
            self._wake()

    def _request_close(self, conn: Connection, graceful: bool) -> None:
        if not self.alive:
            conn._teardown(None)  # loop gone: no concurrent owner remains
            return
        self._call_soon(lambda: self._finish_close(conn, graceful))

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass

    def close(self) -> None:
        with self._lock:
            if self._closing:
                wake = False
            else:
                self._closing = True
                wake = not self._wake_pending
                if wake:
                    self._wake_pending = True
        if wake:
            self._wake()
        if threading.current_thread() is not self.thread:
            self.thread.join(timeout=5.0)

    # -- loop internals (loop thread only) ------------------------------------

    def _attach(self, conn: Connection) -> None:
        if self._closing or conn._dead:
            conn._teardown(ConnectionError("reactor is closed")
                           if self._closing else None)
            return
        with self._lock:
            self._conns.add(conn)
        try:
            self._selector.register(conn._sock, selectors.EVENT_READ, conn)
            with conn._lock:
                conn._registered = True
        except (KeyError, ValueError, OSError) as exc:
            conn._teardown(ConnectionError(f"cannot register socket: {exc}"))

    def _attach_listener(self, listener: Listener) -> None:
        if self._closing or listener._dead:
            listener._close_now()
            return
        with self._lock:
            self._listeners.add(listener)
        try:
            self._selector.register(
                listener._sock, selectors.EVENT_READ, listener
            )
        except (KeyError, ValueError, OSError):
            self._close_listener(listener)

    def _forget(self, conn: Connection) -> None:
        with self._lock:
            self._conns.discard(conn)
            self._dirty.discard(conn)
        if conn._registered:
            with conn._lock:
                conn._registered = False
            try:
                self._selector.unregister(conn._sock)
            except (KeyError, ValueError, OSError):
                pass

    def _finish_close(self, conn: Connection, graceful: bool) -> None:
        if conn._dead:
            return
        if graceful:
            conn._drain_blocking()
        conn._teardown(None)

    def _close_listener(self, listener: Listener) -> None:
        if listener._dead:
            return
        listener._dead = True
        with self._lock:
            self._listeners.discard(listener)
        try:
            self._selector.unregister(listener._sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            listener._sock.close()
        except OSError:
            pass

    def _call_at(self, when: float, fn: Callable[..., object],
                 args: tuple[object, ...]) -> None:
        self._timer_seq += 1
        heapq.heappush(self._timers, (when, self._timer_seq, fn, args))

    def _drain_wake(self) -> None:
        while True:
            try:
                if not self._wake_r.recv(4096):
                    return
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return

    def _next_timeout(self) -> float | None:
        """Until the earliest :meth:`Reactor.call_at` falls due."""
        if not self._timers:
            return None
        return max(0.0, self._timers[0][0] - time.monotonic())

    def _run_timers(self, now: float) -> None:
        while self._timers and self._timers[0][0] <= now:
            _when, _seq, fn, args = heapq.heappop(self._timers)
            try:
                fn(*args)
            except Exception:
                pass  # a timer callback must never kill the loop

    def _run(self) -> None:
        while True:
            timeout = self._next_timeout()
            try:
                events = self._selector.select(timeout)
            except OSError:
                events = []
            started = time.monotonic()
            # Drain the wake pipe BEFORE resetting the pending flag: this
            # preserves the invariant "flag set => a byte is still in the
            # pipe", so a wake sent between the drain and the snapshot
            # either lands in this round's snapshot (same lock) or leaves
            # its byte for the next select.  Draining after the reset
            # could swallow a byte whose work missed the snapshot — a
            # lost wakeup that leaves frames queued forever.  Only drain
            # when the selector actually reported the pipe readable: a
            # round woken purely by socket traffic has no byte to read,
            # and the speculative recv is a wasted syscall on every such
            # round.  An undrained byte can only over-wake (the next
            # select returns immediately once), never under-wake.
            if any(key.data is None for key, _mask in events):
                self._drain_wake()
            with self._lock:
                self._wake_pending = False
                tasks = list(self._tasks)
                self._tasks.clear()
                dirty = list(self._dirty)
                self._dirty.clear()
                closing = self._closing
            for fn in tasks:
                fn()
            for key, mask in events:
                target = key.data
                if target is None:
                    continue  # the wake pipe
                if isinstance(target, Listener):
                    if not target._dead:
                        target._handle_readable()
                    continue
                if target._dead:
                    continue
                if mask & selectors.EVENT_WRITE:
                    target._handle_flush()
                if mask & selectors.EVENT_READ and not target._dead:
                    target._handle_readable()
            if self._timers:
                self._run_timers(time.monotonic())
            for conn in dirty:  # the flush round: whatever queued, goes
                conn._handle_flush()  # (a dead connection's is a no-op)
            if closing:
                self._finalize()
                return
            self._metrics.note_loop_lag(time.monotonic() - started)

    def _finalize(self) -> None:
        with self._lock:
            conns = list(self._conns)
            listeners = list(self._listeners)
        for listener in listeners:
            self._close_listener(listener)
        for conn in conns:
            if not conn._dead:
                conn._drain_blocking()
                conn._teardown(None)
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass

    def _queue_census(self) -> tuple[int, int]:
        """(queued write bytes, connection count) across this loop."""
        with self._lock:
            conns = list(self._conns)
        return sum(conn.queued_bytes() for conn in conns), len(conns)


class Reactor:
    """One selector loop (thread ``<name>-loop-0``) and its counters.

    ``max_frame`` bounds every incoming frame (a connection may start
    under a smaller bound of its own, see :meth:`add_connection`).
    There is nothing to tune: writes flush at the end of every loop
    round, as the module docstring describes.
    """

    def __init__(self, *, max_frame: int, name: str = "reactor") -> None:
        if max_frame <= 0:
            raise ValueError(f"max_frame must be positive: {max_frame}")
        self._max_frame = max_frame
        self._metrics = ReactorMetrics()
        self._loop = _Loop(f"{name}-loop-0", self._metrics)
        self._closed = False

    def add_connection(self, sock: socket.socket, on_frame: FrameCallback,
                       on_closed: ClosedCallback, *,
                       max_frame: int | None = None) -> Connection:
        """Adopt ``sock``; frames flow through the callbacks immediately.

        The returned connection accepts :meth:`Connection.send` at once
        (writes queue until the loop registers the socket, preserving
        order).  ``max_frame`` starts this connection under a bound of
        its own (an accepted socket whose peer has proved nothing yet);
        the owner lifts it with :meth:`Connection.set_max_frame`.
        """
        loop = self._loop
        conn = Connection(
            loop, sock, on_frame, on_closed,
            max_frame=self._max_frame if max_frame is None else max_frame,
            metrics=self._metrics,
        )
        loop._call_soon(lambda: loop._attach(conn))
        return conn

    def call_at(self, when: float, fn: Callable[..., object],
                *args: object) -> None:
        """Run ``fn(*args)`` on the loop thread once ``time.monotonic()``
        reaches ``when``; call it only from the loop thread.  Timers run
        in ``when`` order (ties in the order set), before the round's
        flush; one pending at close never runs, one that raises is dropped.
        """
        self._loop._call_at(when, fn, args)

    def add_listener(self, sock: socket.socket,
                     on_accept: AcceptCallback) -> Listener:
        """Adopt a bound+listening ``sock``; accepts run on the loop."""
        loop = self._loop
        listener = Listener(loop, sock, on_accept)
        loop._call_soon(lambda: loop._attach_listener(listener))
        return listener

    def metrics(self) -> DataPlaneStats:
        """Snapshot flush batching, loop lag, and queue depths."""
        queued, connections = self._loop._queue_census()
        return self._metrics.snapshot(
            queued_bytes=queued, connections=connections
        )

    def close(self) -> None:
        """Stop the loop, draining queued writes; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._loop.close()
