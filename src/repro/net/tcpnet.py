"""Real TCP transport, cross-host capable: one connection per peer pair.

The simulated network answers "does the model behave as the paper says";
this transport answers "does the stack actually run over sockets".  Each
registered node owns a listening socket on the configured ``bind``
interface (``127.0.0.1`` by default; ephemeral port unless pinned via
``ports``).  Nodes *registered on this transport* are served in process;
nodes hosted by **other processes/machines** are reached through the
transport's address book (:meth:`~repro.net.transport.Transport.connect`
records ``node_id -> Endpoint``), which the cluster layer's membership
service fills from a seed list and JOIN/ANNOUNCE propagation.

**The wire contract.**  A TCP (or same-host Unix-socket) connection has
exactly one life: dial → client HELLO → server HELLO → both sides check
that the peer's :class:`~repro.net.endpoint.Hello` carries this build's
:data:`~repro.net.endpoint.PROTOCOL_VERSION` **and** the identical
:data:`repro.net.wirecodec.WIRE_FORMAT` digest → a pipelined channel
carrying binary envelopes.  Anything else is a *refused dial*, decided
before any request frame is written, so at-most-once is untouched:

* HELLO timeout, hang-up, an oversized (> 64 KiB) or non-HELLO first
  frame → :class:`~repro.errors.NodeUnreachableError` ("handshake
  failed: …"); the request provably never left, exactly like a failed
  connect.
* version or digest mismatch → :class:`~repro.errors.
  ProtocolMismatchError`, naming both sides' version and format; never
  retried.  The server answers a mismatched HELLO with its own, so the
  dialler can report both sides, then closes.

The server holds accepted connections to the same rule: the first frame
must be a (bounded) HELLO, and every later frame must be a binary
envelope — a second HELLO, or any frame that does not open with
:data:`wirecodec.MAGIC`, closes the connection without being unpickled.
HELLO frames are wire-level only: a small pickled ``Hello``, decoded
only by the handshake code, never traced and never dispatched.  The
HELLO also carries each side's frame-codec advertisement (what the
*other* side may compress toward it) and the server's same-host
Unix-socket facet.

**The channel.**  One persistent connection per (src, dst) pair carries
many concurrent exchanges: submission enqueues the frame on the
reactor's per-connection write queue, and incoming reply frames are
demultiplexed to waiting callers by ``Message.reply_to_id``.  N threads
calling into one destination share one socket and one round-trip
pipeline.  There is one way in: every request — ``call``, ``call_async``,
``call_many``, a cast, a frame rescued from a dead channel — goes
through :meth:`TcpNetwork._submit`, which parks a
:class:`_PipelinedCallFuture` (the only kind of reply sink there is)
and writes the frame; the reactor resolves the future, so one caller
can scatter N requests (to one node or to N nodes) and overlap every
round trip without extra threads, and ``call`` is that future's
``result()``.
``CallFuture.cancel()`` and deadline expiry both *abandon* an in-flight
exchange the way a timed-out waiter does: the pending reply slot is
released, the late reply is dropped, and other waiters sharing the
connection are untouched.  A request's deadline also caps every reply
wait (io timeout or less) and is enforced server-side: a frame whose
deadline expired in the worker queue is dropped at dequeue.  Concurrent
calls to one peer coalesce into BATCH frames (see :class:`_AutoBatcher`)
— the same frame ``call_many`` builds, marked independent rather than
sequential (:class:`~repro.net.message.Batch`) and run by the same
executor; ``auto_batch=False`` turns the client-side coalescing off for
A/B measurement.

**Data plane.**  Every socket — client channels, server-accepted
connections, and listeners — is owned by a shared
:class:`~repro.net.reactor.Reactor`: one ``selectors`` event loop doing
non-blocking reads through per-connection receive state machines and
coalescing queued writes into large sends (see the reactor module
docstring).  Only the client's HELLO exchange uses the socket in
blocking mode, before the reactor adopts it.

Handler execution never blocks a reactor loop: frames are dispatched to
a bounded worker pool, and *bulk* kinds (streamed migration:
OBJECT_TRANSFER and the PREPARE/CHUNK/COMMIT/ABORT family) go to a
separate background pool so staging writes and marshalled-state applies
cannot queue behind — or starve — latency-sensitive calls.  When every
resident worker is busy a submission runs on a temporary overflow
thread, so a nested call made by a blocked handler (moves trigger
OBJECT_TRANSFER, finds walk forwarding chains) can always be dispatched
and the pool cannot deadlock on its own queue.  Handlers declared
:func:`~repro.net.message.inline_safe` run their allowlisted kinds on
the loop thread itself, under a per-call time budget.

TCP provides reliable, ordered delivery, so no loss model applies here —
loss/retry behaviour is exercised on the simulated network.  An
undeliverable *one-way* send is recorded in the trace as a drop, matching
the simulated network's accounting of cast losses (two-way failures raise
to the caller instead).  A handler that dies with a control-flow exception
(``KeyboardInterrupt``/``SystemExit``) answers its caller with an uncached
:class:`~repro.errors.TransportError` — the interrupt itself cannot cross
the wire, and a retransmission executes afresh.  At-most-once execution holds
across reconnects: a stale connection is retried only when the frame
provably never left this side; once a request is on the wire, a
connection failure surfaces as :class:`NodeUnreachableError` rather than
risking re-execution against a replaced node's fresh reply cache.  The
clock is real time by default.
"""

from __future__ import annotations

import dataclasses
import pickle
import socket
import struct
import threading
import time
from collections import deque

from repro.errors import (
    CallTimeoutError,
    ConfigurationError,
    MarshalError,
    NodeUnreachableError,
    ProtocolMismatchError,
    RemoteInvocationError,
    TransportError,
)
from repro.net import codec, wirecodec
from repro.net.endpoint import PROTOCOL_VERSION, Endpoint, Hello
from repro.net.message import (
    BULK_KINDS,
    INLINE_KINDS,
    ONEWAY_KINDS,
    Batch,
    Message,
    MessageKind,
    ReplyPayload,
    build_message,
)
from repro.net.reactor import (
    Connection,
    DataPlaneStats,
    FrameBody,
    Listener,
    Reactor,
    _bucket,
)
from repro.net.trace import MessageTrace
from repro.net.transport import (
    CallFuture,
    MessageHandler,
    ReplyCache,
    Transport,
)
from repro.util.clock import Clock, WallClock

_LENGTH_PREFIX = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024  # 64 MiB: a generous bound on one message

#: Bound on a HELLO frame's body.  The HELLO comes from a peer nothing
#: has verified yet, so it gets its own small bound instead of the
#: message bound, and both sides refuse a longer one at its header,
#: before reading or allocating anything for the body: the dialler in
#: :func:`_recv_hello`, the accepting side by starting each accepted
#: connection under this frame bound (lifted to :data:`_MAX_FRAME` once
#: the HELLO is admitted).
_HELLO_MAX_BYTES = 64 * 1024

# The frame header is one 32-bit word: the top 3 bits carry the codec id
# (see repro.net.codec), the low 29 bits the on-wire body length.  Raw
# frames use codec id 0.
_CODEC_SHIFT = 29
_LENGTH_MASK = (1 << _CODEC_SHIFT) - 1

#: ``Hello.settings`` key advertising a server's same-host Unix-domain
#: listener: ``(advertise_host, port, uds_name)``.
_UDS_SETTING = "uds"

#: Whether this platform offers Unix-domain stream sockets at all.  The
#: abstract namespace itself is probed per listener (bind may still fail
#: inside restricted sandboxes) — every failure degrades to TCP.
_UDS_SUPPORTED = hasattr(socket, "AF_UNIX")

#: Kinds the client-side auto-batcher never coalesces: bulk kinds carry
#: large zero-copy payloads and must keep their dedicated server pool;
#: one-way kinds have no reply to demultiplex; nested batches stay flat.
_UNBATCHABLE_KINDS = BULK_KINDS | ONEWAY_KINDS | {MessageKind.BATCH}

#: Caps on one coalesced BATCH frame: sub-calls, and estimated payload bytes.
_BATCH_MAX_MSGS = 32
_BATCH_MAX_BYTES = 64 * 1024

#: Time budget for one inline (loop-thread) dispatch; a BATCH of inline
#: kinds gets this much per sub-call.
_INLINE_BUDGET_S = 0.001

#: Consecutive over-budget inline dispatches before a server stops
#: dispatching inline for good (a misregistered slow handler must not
#: keep stalling the reactor loop).
_INLINE_DEMOTE_STRIKES = 8

#: How long a waiting caller gives the reply clock before forcing a
#: flush of the auto-batcher's queue (see ``_AutoBatcher.kick``).  Must
#: sit well above a *loaded* round trip (a deep pipeline's p99 is
#: several ms — a grace inside it would fire on every call and fragment
#: the very batches it guards), yet far below any reply-wait timeout a
#: caller could notice when the clock really is dead.
_BATCH_KICK_GRACE_S = 0.02


def _estimate_nbytes(message: Message) -> int:
    """Cheap payload-size guess for the batch byte watermark.

    Never serializes: the watermark only decides how many calls ride one
    BATCH envelope, so a flat estimate per payload shape is enough —
    blob-carrying invokes count their marshalled argument bytes, plain
    control payloads a fixed overhead.
    """
    payload = message.payload
    if payload is None:
        return 64
    t = payload.__class__
    if t is bytes or t is str:
        return 64 + len(payload)
    if t is int or t is float or t is bool:
        return 72
    blob = getattr(payload, "args_blob", None)
    if type(blob) is bytes:
        return 256 + len(blob)
    return 512


def _is_failed_pair(sub: object) -> bool:
    """Whether ``sub`` is a BATCH reply's ``(sub_id, failed payload)``."""
    return (isinstance(sub, tuple) and len(sub) == 2
            and isinstance(sub[1], ReplyPayload) and sub[1].is_error)


def _transmittable_error_payload(payload: ReplyPayload) -> ReplyPayload:
    """Guarantee an error reply survives the *unpickle* on the client side.

    Pickling an exception can succeed while unpickling fails — the default
    reduction replays ``self.args`` (the formatted message) into a
    constructor that may demand more arguments.  Such a frame would blow
    up in the client channel's reader loop and tear down the shared
    connection, failing every other in-flight waiter.  Our own error
    family defines ``__reduce__``; this guards *handler-raised* exception
    types we do not control by round-tripping once on the server and
    degrading to a :class:`~repro.errors.RemoteInvocationError` that
    carries the original type and message.
    """
    if not payload.is_error:
        # A BATCH reply nests (sub_id, payload) pairs, and any number of
        # the subs may have failed; each needs the same guard.
        value = payload.value
        if isinstance(value, tuple) and any(map(_is_failed_pair, value)):
            return ReplyPayload(value=tuple(
                (sub[0], _transmittable_error_payload(sub[1]))
                if _is_failed_pair(sub) else sub
                for sub in value
            ))
        return payload
    try:
        pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        return payload
    except Exception:
        error = payload.error
        return ReplyPayload(
            error=RemoteInvocationError(
                f"remote raised {type(error).__name__} which cannot cross "
                f"the wire: {error}",
                remote_traceback=payload.remote_traceback,
            )
        )


def _encode_frame(message: Message,
                  codec_for=None) -> "bytes | list[bytes | memoryview]":
    """One wire-ready frame: header word + binary envelope.

    The envelope comes from :func:`wirecodec.encode_envelope`.  Large
    blob fields come back as a buffer *list* (header + head + zero-copy
    segments) that the reactor writes with one gather syscall; small
    frames collapse to contiguous bytes.

    ``codec_for`` maps the serialized size to a codec id (``None`` keeps
    every frame raw).  A frame the codec fails to shrink is sent raw —
    the header is self-describing, so the receiver never needs to know
    what the sender attempted.
    """
    try:
        parts = wirecodec.encode_envelope(message)
    except Exception as exc:
        raise MarshalError(
            f"cannot encode {message.describe()}: {exc}") from exc
    nbytes = sum(len(part) for part in parts)
    if nbytes > _MAX_FRAME:
        raise MarshalError(f"message too large: {nbytes} bytes")
    ident = codec.RAW if codec_for is None else codec_for(nbytes)
    if ident != codec.RAW:
        body = codec.encode(ident, b"".join(parts))
        if len(body) < nbytes:  # compression beats zero-copy
            return _LENGTH_PREFIX.pack(
                len(body) | (ident << _CODEC_SHIFT)) + body
    head = _LENGTH_PREFIX.pack(nbytes)
    first = parts[0]
    if isinstance(first, bytes):
        if len(parts) == 1:
            return head + first
        return [head + first, *parts[1:]]
    return [head, *parts]


def _frame_nbytes(wire: "bytes | list[bytes | memoryview]") -> int:
    """On-wire size of one encoded frame (header included)."""
    if isinstance(wire, bytes):
        return len(wire)
    return sum(len(part) for part in wire)


def _decode_frame(ident: int, body: FrameBody) -> Message:
    """Decompress + decode one post-handshake frame body.

    The message's bulk byte fields may be views of ``body`` (see
    :mod:`repro.net.wirecodec`); nothing here copies it.

    Every frame after the HELLO exchange is a binary envelope, which
    opens with :data:`wirecodec.MAGIC`.  Anything else — a second HELLO,
    a pickled message — is a protocol violation: it raises without being
    unpickled, and the reactor closes the connection.
    """
    blob = codec.decode(ident, body, _MAX_FRAME)
    if not blob or blob[0] != wirecodec.MAGIC:
        raise MarshalError(
            "protocol violation: frame is not a binary envelope")
    return wirecodec.decode_envelope(blob)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _encode_hello(hello: Hello) -> bytes:
    """One HELLO frame (always raw: codecs are not yet negotiated)."""
    blob = pickle.dumps(hello, protocol=pickle.HIGHEST_PROTOCOL)
    return _LENGTH_PREFIX.pack(len(blob)) + blob


def _decode_hello(ident: int, body: FrameBody) -> Hello:
    """The first frame of a connection: a raw, bounded, pickled HELLO.

    The only place a frame body is unpickled; a body that is oversized,
    compressed, or opens like a binary envelope is refused first.
    """
    if len(body) > _HELLO_MAX_BYTES:
        raise MarshalError(f"HELLO frame too large: {len(body)} bytes")
    if ident != codec.RAW or not body or body[0] == wirecodec.MAGIC:
        raise MarshalError("expected a HELLO frame")
    try:
        hello = pickle.loads(body)
    except Exception as exc:
        raise MarshalError(f"undecodable HELLO frame: {exc}") from exc
    if not isinstance(hello, Hello):
        raise MarshalError(
            f"expected a HELLO frame, got {type(hello).__name__}")
    if not (isinstance(hello.node_id, str) and isinstance(hello.codecs, tuple)
            and isinstance(hello.settings, dict)):
        raise MarshalError("malformed HELLO frame")
    return hello


def _recv_hello(sock: socket.socket) -> Hello:
    """Read the server's HELLO on a blocking socket (client handshake).

    The length is checked against :data:`_HELLO_MAX_BYTES` before any of
    the body is read.
    """
    (word,) = _LENGTH_PREFIX.unpack(_recv_exact(sock, _LENGTH_PREFIX.size))
    length = word & _LENGTH_MASK
    if length > _HELLO_MAX_BYTES:
        raise MarshalError(f"HELLO frame too large: {length} bytes")
    return _decode_hello(word >> _CODEC_SHIFT, _recv_exact(sock, length))


def _same_dialect(peer: Hello) -> bool:
    """The one admission check: this build's version *and* wire format."""
    return (peer.version == PROTOCOL_VERSION
            and wirecodec.hello_accepts_binary(peer))


class _ChannelClosedError(ConnectionError):
    """The channel died before this frame was written (safe to retry)."""


#: Stripe count for a channel's pending-waiter table.  Eight uncontended
#: locks cover the realistic caller fan-in per destination; message-id
#: hashes spread uniformly (they embed a process-wide counter).
_WAITER_SHARDS = 8


class _WaiterShard:
    """One stripe of a channel's ``msg_id -> FIFO of parked futures`` table.

    A retransmission can put two frames of one id in flight; each
    incoming reply resolves the oldest waiter.  The ``closed`` flag
    lives *inside* the shard lock so :meth:`park` and channel teardown
    serialize: a sink either parks before the drain (and is failed by
    it) or observes the closed flag — it can never be parked and then
    silently forgotten.
    """

    __slots__ = ("_lock", "_waiters", "_closed")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._waiters: dict[str, deque[_PipelinedCallFuture]] = {}
        self._closed = False

    def park(self, msg_id: str, sink: _PipelinedCallFuture) -> bool:
        """Append ``sink``; False when the channel already closed."""
        with self._lock:
            if self._closed:
                return False
            self._waiters.setdefault(msg_id, deque()).append(sink)
        return True

    def pop(self, msg_id: str) -> _PipelinedCallFuture | None:
        """The oldest waiter parked under ``msg_id`` (None when absent)."""
        with self._lock:
            waiters = self._waiters.get(msg_id)
            if not waiters:
                return None
            sink = waiters.popleft()
            if not waiters:
                del self._waiters[msg_id]
        return sink

    def discard(self, msg_id: str, sink: _PipelinedCallFuture) -> None:
        with self._lock:
            waiters = self._waiters.get(msg_id)
            if waiters is None:
                return
            try:
                waiters.remove(sink)
            except ValueError:
                pass  # already resolved and popped
            if not waiters:
                del self._waiters[msg_id]

    def close_and_drain(self) -> list[_PipelinedCallFuture]:
        """Refuse future parks and return everything parked; idempotent
        (a second drain returns empty)."""
        with self._lock:
            self._closed = True
            drained = [w for waiters in self._waiters.values() for w in waiters]
            self._waiters.clear()
        return drained


class _Channel:
    """One persistent client connection to a destination node.

    Built only from a completed handshake: ``peer_hello`` is the
    server's HELLO, already checked for version and wire format.  The
    socket lives on the shared reactor: submission encodes the frame and
    enqueues it on the connection's write queue (no send lock, no
    blocking), and the reactor's frame callback demultiplexes reply
    frames to parked callers by ``reply_to_id``.  The waiter table is
    striped by message-id hash so concurrent callers do not serialize on
    one mutex.
    """

    def __init__(self, dst: str, sock: socket.socket, reactor: Reactor,
                 peer_hello: Hello, codec_for=None) -> None:
        self.dst = dst
        self.peer_hello = peer_hello
        #: The frame codecs the peer's HELLO says it decodes.
        self.negotiated_codecs = peer_hello.codecs
        self._codec_for = codec_for
        #: The transport attaches an :class:`_AutoBatcher` right after
        #: construction when auto-batching is enabled.
        self._batcher: "_AutoBatcher | None" = None
        #: coalesced batch msg_id -> its sub-call msg_ids, so a
        #: *whole-batch* error reply (the server could not run the frame
        #: at all) can fail every sub's future.  Entries are removed when
        #: the aggregated reply arrives.
        self._batch_lock = threading.Lock()
        self._batch_subs: dict[str, tuple[str, ...]] = {}
        self._shards = tuple(_WaiterShard() for _ in range(_WAITER_SHARDS))
        self._closed = False
        self._conn: Connection = reactor.add_connection(
            sock, self._on_frame, self._on_closed
        )

    def _shard(self, msg_id: str) -> _WaiterShard:
        return self._shards[hash(msg_id) % _WAITER_SHARDS]

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, message: Message, sink: _PipelinedCallFuture) -> None:
        """Park ``sink`` for the reply and enqueue the frame; never waits.

        ``sink`` is the call's future: ``sink.resolve(reply)`` runs on
        the reactor loop, ``sink.fail(error)`` on whichever thread closes
        the channel; neither blocks.

        Encoding happens *before* parking: a :class:`MarshalError` leaves
        the channel healthy with nothing parked, while a
        :class:`_ChannelClosedError` means the frame provably never
        reached the write queue (safe to retry on a fresh channel).
        """
        wire = _encode_frame(message, self._codec_for)
        shard = self._shard(message.msg_id)
        if not shard.park(message.msg_id, sink):
            raise _ChannelClosedError(f"channel to {self.dst!r} is closed")
        try:
            self._conn.send(wire)
        except ConnectionError as exc:
            shard.discard(message.msg_id, sink)
            self.close()
            raise _ChannelClosedError(
                f"send to {self.dst!r} failed: {exc}"
            ) from exc

    def submit_batch(
            self, items: list[tuple[Message, _PipelinedCallFuture]]) -> None:
        """Coalesce several submissions into one independent BATCH frame.

        Same contract as :meth:`submit`, for N frames at once: the batch
        envelope is encoded *before* any sink parks (a
        :class:`MarshalError` leaves the channel clean), each sink parks
        under its own sub message id, and a send failure discards them
        all and raises :class:`_ChannelClosedError` — the whole group
        provably never left, so the caller may re-route every item.
        """
        subs = tuple(message for message, _sink in items)
        batch = build_message(
            MessageKind.BATCH, subs[0].src, subs[0].dst,
            Batch(subs, sequential=False),
        )
        wire = _encode_frame(batch, self._codec_for)
        parked: list[tuple[Message, _PipelinedCallFuture]] = []
        for message, sink in items:
            if not self._shard(message.msg_id).park(message.msg_id, sink):
                for pm, psink in parked:
                    self._discard_waiter(pm.msg_id, psink)
                raise _ChannelClosedError(
                    f"channel to {self.dst!r} is closed"
                )
            parked.append((message, sink))
        with self._batch_lock:
            self._batch_subs[batch.msg_id] = tuple(s.msg_id for s in subs)
        try:
            self._conn.send(wire)
        except ConnectionError as exc:
            with self._batch_lock:
                self._batch_subs.pop(batch.msg_id, None)
            for message, sink in items:
                self._discard_waiter(message.msg_id, sink)
            self.close()
            raise _ChannelClosedError(
                f"send to {self.dst!r} failed: {exc}"
            ) from exc

    def _discard_waiter(self, msg_id: str,
                        waiter: _PipelinedCallFuture) -> None:
        self._shard(msg_id).discard(msg_id, waiter)

    def send_oneway(self, message: Message) -> None:
        wire = _encode_frame(message, self._codec_for)
        try:
            self._conn.send(wire)
        except ConnectionError as exc:
            self.close()
            raise _ChannelClosedError(
                f"send to {self.dst!r} failed: {exc}"
            ) from exc

    # -- reactor callbacks (loop thread; must not block) ----------------------

    def _on_frame(self, ident: int, body: FrameBody,
                  wire_bytes: int) -> None:
        # A decode failure (or a frame that is not a binary envelope)
        # propagates: the reactor tears the connection down with it, and
        # _on_closed fails every waiter.
        reply = _decode_frame(ident, body)
        sink = self._shard(reply.reply_to_id).pop(reply.reply_to_id)
        if sink is not None:
            sink.resolve(reply)  # a call's own reply, call_many's included
        elif reply.in_reply_to is MessageKind.BATCH:
            self._on_batch_reply(reply)  # a frame the batcher coalesced
        # Any other unmatched reply (its caller timed out and left) is
        # dropped.
        batcher = self._batcher
        if batcher is not None:
            # Tick the reply clock *after* resolving: callers wake first,
            # then the queue that accumulated behind this round trip
            # flushes as the next aggregate.
            batcher.note_reply()

    def _on_batch_reply(self, reply: Message) -> None:
        """Demultiplex a coalesced frame's reply to its parked sub-calls.

        Nothing is parked under the batch's own id (that is how
        :meth:`_on_frame` tells this reply from a ``call_many``'s).  The
        payload value is a tuple of ``(sub_msg_id, ReplyPayload)``
        pairs; each resolves its own future with a synthesized per-sub
        REPLY so callers observe exactly what N individual replies would
        have delivered.  A *whole-batch* error (the server could not run
        the frame at all) fails every recorded sub instead.
        """
        with self._batch_lock:
            sub_ids = self._batch_subs.pop(reply.reply_to_id, ())
        payload = reply.payload
        if isinstance(payload, ReplyPayload) and payload.is_error:
            for sub_id in sub_ids:
                sink = self._shard(sub_id).pop(sub_id)
                if sink is not None:
                    sink.resolve(self._sub_reply(reply, sub_id, payload))
            return
        pairs = payload.value if isinstance(payload, ReplyPayload) else ()
        for sub_id, sub_payload in pairs:
            sink = self._shard(sub_id).pop(sub_id)
            if sink is not None:
                sink.resolve(self._sub_reply(reply, sub_id, sub_payload))

    @staticmethod
    def _sub_reply(aggregate: Message, sub_id: str,
                   payload: ReplyPayload) -> Message:
        """Synthesize the REPLY a sub-call would have received alone.

        The derived id ``<sub>-r`` is what :meth:`Message.reply` would
        have produced for the sub request, and is distinct from the
        aggregate's own ``<batch>-r`` — reply ids stay unique per
        sub-call under aggregation.
        """
        message = Message.__new__(Message)
        message.__dict__.update(
            kind=MessageKind.REPLY,
            src=aggregate.src,
            dst=aggregate.dst,
            payload=payload,
            msg_id=f"{sub_id}-r",
            in_reply_to=None,
            reply_to_id=sub_id,
            deadline=None,
        )
        return message

    def _on_closed(self, reason: Exception | None) -> None:
        self._closed = True
        self._fail_waiters(reason)

    def close(self, reason: Exception | None = None,
              rescue: bool = True) -> None:
        """Sever the connection and fail every parked waiter; idempotent.

        Waiters are failed *synchronously* — the reactor's own teardown
        notification follows asynchronously but finds the shards already
        drained, so no waiter can be left parked behind a dead socket.

        ``rescue=False`` additionally *fails* the auto-batcher's queued
        frames instead of re-routing them: a peer being deliberately
        forgotten must not be redialed by its own teardown (the rescue
        path would resurrect a fresh channel to the node membership just
        declared dead).
        """
        self._closed = True
        self._fail_waiters(reason, rescue=rescue)
        self._conn.close(graceful=False)

    def _fail_waiters(self, reason: Exception | None,
                      rescue: bool = True) -> None:
        if reason is None:
            reason = ConnectionError(f"channel to {self.dst!r} closed")
        with self._batch_lock:
            self._batch_subs.clear()
        for shard in self._shards:
            for waiter in shard.close_and_drain():
                waiter.fail(reason)
        batcher = self._batcher
        if batcher is None:
            return
        if rescue:
            # Queued-but-unsent frames provably never left: re-route them
            # instead of failing them (the parked waiters above were all
            # on the wire; these were not).
            batcher.on_channel_closed()
        else:
            batcher.fail_queued(reason)


class _CallPathMetrics:
    """Counters for the auto-batching / inline-dispatch call path.

    One instance per transport, shared by every channel's batcher
    (client side) and every node server's inline fast path (server
    side); :meth:`merge_into` folds the counters into the reactor's
    :class:`~repro.net.reactor.DataPlaneStats` snapshot so
    ``data_plane_metrics()`` stays one call.
    """

    __slots__ = ("_lock", "auto_batches", "auto_batched_msgs",
                 "auto_batch_per_frame", "inline_dispatches",
                 "inline_overruns", "inline_demotions")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.auto_batches = 0
        self.auto_batched_msgs = 0
        self.auto_batch_per_frame: dict[int, int] = {}
        self.inline_dispatches = 0
        self.inline_overruns = 0
        self.inline_demotions = 0

    def record_batch(self, n: int) -> None:
        bucket = _bucket(n)
        with self._lock:
            self.auto_batches += 1
            self.auto_batched_msgs += n
            histogram = self.auto_batch_per_frame
            histogram[bucket] = histogram.get(bucket, 0) + 1

    def record_inline(self) -> None:
        with self._lock:
            self.inline_dispatches += 1

    def record_overrun(self, demoted: bool) -> None:
        with self._lock:
            self.inline_overruns += 1
            if demoted:
                self.inline_demotions += 1

    def merge_into(self, stats: DataPlaneStats) -> DataPlaneStats:
        with self._lock:
            return dataclasses.replace(
                stats,
                auto_batches=stats.auto_batches + self.auto_batches,
                auto_batched_msgs=(
                    stats.auto_batched_msgs + self.auto_batched_msgs),
                auto_batch_per_frame=dict(self.auto_batch_per_frame),
                inline_dispatches=(
                    stats.inline_dispatches + self.inline_dispatches),
                inline_overruns=stats.inline_overruns + self.inline_overruns,
                inline_demotions=(
                    stats.inline_demotions + self.inline_demotions),
            )


class _AutoBatcher:
    """Transparent invoke coalescing on one channel.

    The reactor coalesces queued *bytes* into one syscall; this layer
    coalesces queued *calls* into one frame, one server-side
    dispatch, and one aggregated reply — amortizing the per-message
    Python overhead that dominates once the wire itself is cheap.

    The discipline is reply-clocked, borrowed from Nagle's algorithm:
    a submission on an *idle* channel (nothing batcher-sent awaiting
    its reply) is sent immediately on the submitting thread — **a lone
    call is never delayed** (no timers, no waiting for company).  While
    a frame *is* in flight, new submissions merely enqueue; every
    arriving reply flushes whatever accumulated as one BATCH frame of
    independent subs (``Batch(subs, sequential=False)`` — the frame
    ``call_many`` builds, minus the ordering promise).  The flush clock
    is thus the round-trip itself: group size adapts to exactly how
    many callers submitted during one server turnaround, with zero
    added latency on an idle channel and no timer anywhere.  If the
    clock dies — the in-flight exchange is a long one: a queued lock
    request, a slow servant, a streamed megabyte — the first waiting
    future forces a flush after a short grace and *resets the clock*
    (:meth:`kick`), so the calls behind it go straight out again
    instead of each waiting out the grace.  A group is capped by
    :data:`_BATCH_MAX_MSGS` / :data:`_BATCH_MAX_BYTES` and always holds
    at least one call; a group of one is sent as a plain frame and
    never pays the aggregation envelope.

    Error discipline: nothing raises to the drainer, because the
    drainer is usually *not* the caller whose frame failed.  A dead
    channel strands frames that provably never left; they — and
    everything still queued — are re-routed through a fresh channel by
    the transport (asynchronously: a drain may run on the reactor loop
    thread, which must never dial).  An unmarshallable payload fails
    only its own sink: the aggregate encode falls back to per-item
    sends so one poisoned call cannot error its siblings.
    """

    __slots__ = ("_channel", "_transport", "_metrics", "_lock", "_queue",
                 "_active", "_inflight")

    def __init__(self, channel: _Channel, transport: "TcpNetwork",
                 metrics: _CallPathMetrics) -> None:
        self._channel = channel
        self._transport = transport
        self._metrics = metrics
        self._lock = threading.Lock()
        self._queue: deque[tuple[Message, _PipelinedCallFuture]] = deque()
        self._active = False
        #: Batcher-sent frames whose replies have not yet arrived — the
        #: Nagle-style gate: > 0 means the reply clock is running and
        #: submissions may coalesce behind it.
        self._inflight = 0

    def submit(self, message: Message, sink: _PipelinedCallFuture) -> None:
        with self._lock:
            self._queue.append((message, sink))
            if self._active:
                return  # the running drain sweeps this item up
            if self._inflight > 0:
                return  # reply-clocked: the next arriving reply flushes
            self._active = True
        self._drain()

    def note_reply(self) -> None:
        """A reply frame arrived (loop thread): tick the flush clock.

        Every incoming reply decrements the in-flight gate and flushes
        the accumulated queue.  Replies to frames the batcher never sent
        (``call_many`` exchanges, unbatchable kinds) may tick it early —
        harmless: an early flush only makes a smaller group.
        """
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1
            if self._active or not self._queue:
                return
            self._active = True
        self._drain()

    def kick(self) -> None:
        """Force a flush now (a waiting caller's stall safety valve).

        A kick that finds frames still queued *is* the verdict that the
        reply clock is dead, so it also zeroes the in-flight gate: the
        exchange holding it high may run for seconds, and every call
        made meanwhile would otherwise queue, wait out the grace and be
        kicked in turn.  The late reply's tick is a no-op through
        :meth:`note_reply`'s ``> 0`` guard (or an early tick, which only
        makes a smaller group).
        """
        with self._lock:
            if self._active or not self._queue:
                return
            self._inflight = 0
            self._active = True
        self._drain()

    def _drain(self) -> None:
        while True:
            with self._lock:
                if not self._queue:
                    # Emptiness check and leadership handoff under one
                    # lock hold: a submitter that appends right after
                    # this sees ``_active`` False and leads itself.
                    self._active = False
                    return
                group = [self._queue.popleft()]
                nbytes = _estimate_nbytes(group[0][0])
                while (self._queue and len(group) < _BATCH_MAX_MSGS
                       and nbytes < _BATCH_MAX_BYTES):
                    item = self._queue.popleft()
                    group.append(item)
                    nbytes += _estimate_nbytes(item[0])
            if not self._send_group(group):
                return  # channel died; leadership already released

    def _send_group(
            self, group: list[tuple[Message, _PipelinedCallFuture]]) -> bool:
        # The in-flight gate rises *before* the send: the reply can race
        # a post-send increment on the loop thread, and a tick lost that
        # way would leave the gate stuck high — every later call would
        # then stall into the kick grace.  Failure paths lower it again.
        if len(group) == 1:
            return self._submit_singly(group)  # a lone call: a plain frame
        self._note_sent()
        try:
            self._channel.submit_batch(group)
        except _ChannelClosedError:
            self._rescue(group)
            return False
        except Exception:
            # The aggregate failed to encode; isolate the poisoned
            # payload by sending each call on its own frame.
            self._note_unsent()
            return self._submit_singly(group)
        self._metrics.record_batch(len(group))
        return True

    def _submit_singly(
            self, group: list[tuple[Message, _PipelinedCallFuture]]) -> bool:
        for index, (message, sink) in enumerate(group):
            self._note_sent()
            try:
                self._channel.submit(message, sink)
            except _ChannelClosedError:
                self._note_unsent()
                self._rescue(group[index:])
                return False
            except Exception as exc:  # MarshalError while encoding
                self._note_unsent()
                sink._fail(exc)
        return True

    def _note_sent(self) -> None:
        with self._lock:
            self._inflight += 1

    def _note_unsent(self) -> None:
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1

    def _rescue(
            self, items: list[tuple[Message, _PipelinedCallFuture]]) -> None:
        """The channel died with ``items`` provably unsent.

        Hand them — and everything still queued behind them — back to
        the transport for asynchronous re-submission on a fresh channel
        (a drain may be running on the reactor loop thread, which must
        never dial a socket), and release the drain so this (dead)
        batcher goes quiet.
        """
        with self._lock:
            stranded = list(items)
            stranded.extend(self._queue)
            self._queue.clear()
            self._active = False
        self._transport._rescue_async(stranded)

    def on_channel_closed(self) -> None:
        """Channel teardown: re-route whatever never reached the wire."""
        with self._lock:
            if not self._queue:
                return
            stranded = list(self._queue)
            self._queue.clear()
        self._transport._rescue_async(stranded)

    def fail_queued(self, reason: Exception | None) -> None:
        """Deliberate teardown (peer forgotten): fail the queue, no rescue.

        The rescue path would dial the forgotten peer right back —
        resurrecting a channel membership just severed — so an eviction
        fails queued frames instead, and resets the reply clock so a
        later re-join starts the batcher from its idle state.
        """
        if reason is None:
            reason = ConnectionError(
                f"channel to {self._channel.dst!r} closed"
            )
        with self._lock:
            stranded = list(self._queue)
            self._queue.clear()
            self._active = False
            self._inflight = 0
        for _message, sink in stranded:
            # The teardown surface parked futures see: wrapped in
            # NodeUnreachableError by the future itself.
            sink.fail(reason)


class _PipelinedCallFuture(CallFuture):
    """A call future resolved by a channel's frame callback.

    It is the channel's parked sink, and the only kind there is: the
    reactor loop calls :meth:`resolve` with the matched reply frame,
    channel teardown calls :meth:`fail` (which wraps the reason in
    :class:`NodeUnreachableError`; a failure from *before* the frame
    left — a refused dial, an encode error — goes to ``_fail`` raw).  ``result()``/``exception()`` default their timeout to
    the transport's io timeout *measured from submission* — a sweep that
    gathers N futures sequentially pays at most one io-timeout window in
    total, not one per hung host, because every future's clock has been
    running since its frame was sent.  (An explicit ``timeout_s`` stays
    relative to the ``result()`` call.)  An expired wait *abandons* the
    exchange, exactly as ``cancel()`` does — the pending slot is
    released (a late reply is dropped on arrival) and the future fails
    permanently with :class:`~repro.errors.CallTimeoutError`.
    """

    def __init__(self, message: Message, timeout_s: float,
                 transport: TcpNetwork) -> None:
        super().__init__(message.describe)
        self._message = message
        self._timeout_s = timeout_s
        self._submitted = time.monotonic()
        self._channel: _Channel | None = None
        self._transport = transport

    # -- sink protocol (called by the channel) --------------------------------

    def resolve(self, reply: Message) -> None:
        # Submission-to-reply latency feeds the per-link EWMA that ranks
        # hedge candidates; recorded before completion so a collector
        # that reacts to this future sees fresh numbers.
        self._transport.note_link_latency(
            self._message.dst, time.monotonic() - self._submitted
        )
        self._complete_from_reply(reply)

    def fail(self, error: Exception) -> None:
        # The frame was already on the wire, so the handler may have
        # executed; surfacing unreachability (instead of retrying into a
        # replaced node's fresh reply cache) preserves at-most-once.
        wrapped = NodeUnreachableError(
            self._message.dst, f"connection lost awaiting reply: {error}"
        )
        wrapped.__cause__ = error
        self._fail(wrapped)

    # -- waiting --------------------------------------------------------------

    def _await(self, timeout_s: float | None) -> None:
        if timeout_s is None:
            # The default wait is the remainder of the submission-anchored
            # io window, capped by the call's end-to-end budget — a 200 ms
            # deadline never waits out a 30 s io timeout.
            timeout_s = self._wait_bound_s()
        channel = self._channel
        if (channel is not None and channel._batcher is not None
                and not self._event.is_set()):
            # Stall safety valve for the reply-clocked batcher: this
            # frame may still sit queued behind an in-flight exchange
            # whose reply never comes (a hung handler, an abandoned
            # sibling).  After a short grace, force the flush so a
            # queued frame can never outwait a dead clock.  Replies on
            # a healthy channel arrive well inside the grace, so the
            # kick is a no-op on the fast path.
            grace = (_BATCH_KICK_GRACE_S if timeout_s is None
                     else min(_BATCH_KICK_GRACE_S, timeout_s))
            if self._event.wait(grace):
                return
            channel._batcher.kick()
            if timeout_s is not None:
                timeout_s = max(0.0, timeout_s - grace)
        super()._await(timeout_s)

    def _on_wait_timeout(self, timeout_s: float | None) -> None:
        self._abandon()
        # First-wins: a reply racing this timeout may still resolve us.
        self._fail(CallTimeoutError(
            f"{self._message.describe()}: no reply within {timeout_s}s"
        ))

    def _abandon(self) -> None:
        """Release the pending reply slot (timeout and cancel share this):
        the late reply is dropped; other waiters are untouched."""
        channel = self._channel
        if channel is not None:
            channel._discard_waiter(self._message.msg_id, self)

    def _wait_bound_s(self) -> float | None:
        elapsed = time.monotonic() - self._submitted
        bound = max(0.0, self._timeout_s - elapsed)
        deadline = self._message.deadline
        if deadline is not None:
            bound = min(bound, deadline.remaining_s())
        return bound


class _WorkerPool:
    """Bounded pool of reusable dispatch workers, with overflow drainers.

    Up to ``max_workers`` resident threads execute submitted jobs; when
    every resident is busy, temporary *drainer* threads pick up the
    slack: a handler blocked on a nested call (a move's OBJECT_TRANSFER,
    a find's chain walk) may need this pool to dispatch the very request
    it is waiting on, so a strictly bounded queue could deadlock the
    whole transport.

    Wakeups follow a baton discipline built on one invariant: whenever
    the queue is non-empty, at least one *armed* agent — a notified idle
    worker, or a freshly spawned resident/drainer — is en route to a pop,
    and every pop re-arms a successor while jobs remain.  A burst of fast
    jobs therefore drains on a couple of context switches instead of one
    wakeup per job, while a burst of blocking handlers still fans out to
    one thread each (the old thread-per-overflow behaviour, reached
    incrementally).
    """

    def __init__(self, max_workers: int, name: str) -> None:
        if max_workers <= 0:
            raise ConfigurationError("worker pool needs at least one worker")
        self._max = max_workers
        self._name = name
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._jobs: deque = deque()
        self._idle = 0
        self._stirred = 0  # armed agents en route to their first pop
        self._resident = 0
        self._closed = False

    def submit(self, fn, *args) -> None:
        with self._lock:
            if self._closed:
                return
            self._jobs.append((fn, args))
            self._arm_locked()

    def _arm_locked(self) -> None:
        """Ensure one agent is on its way to pop; callers hold the lock."""
        if self._stirred > 0:
            return
        self._stirred = 1
        if self._idle > 0:
            self._wakeup.notify()
            return
        if self._resident < self._max:
            self._resident += 1
            target, name = self._worker_loop, f"{self._name}-worker-{self._resident}"
        else:
            target, name = self._overflow_drain, f"{self._name}-overflow"
        threading.Thread(target=target, name=name, daemon=True).start()

    @staticmethod
    def _run_job(fn, args) -> None:
        try:
            fn(*args)
        except Exception:
            pass  # dispatch failures are the connection's problem

    def _worker_loop(self) -> None:
        first = True
        while True:
            with self._lock:
                if first:
                    # Spawned armed (see _arm_locked): consume the arm.
                    first = False
                    if self._stirred:
                        self._stirred -= 1
                while not self._jobs and not self._closed:
                    self._idle += 1
                    self._wakeup.wait()
                    self._idle -= 1
                    # A wake consumes an arm; a spurious wake merely
                    # under-counts, which costs an extra wakeup later,
                    # never a stranded job.
                    if self._stirred:
                        self._stirred -= 1
                if self._closed:
                    self._resident -= 1
                    return
                fn, args = self._jobs.popleft()
                if self._jobs:
                    # Re-arm BEFORE running: if our job blocks, the
                    # successor keeps the queue draining.
                    self._arm_locked()
            self._run_job(fn, args)

    def _overflow_drain(self) -> None:
        """A temporary worker: drains jobs until the queue goes empty."""
        with self._lock:
            if self._stirred:
                self._stirred -= 1
            if self._closed or not self._jobs:
                return
            fn, args = self._jobs.popleft()
            if self._jobs:
                self._arm_locked()
        while True:
            self._run_job(fn, args)
            with self._lock:
                if self._closed or not self._jobs:
                    return
                fn, args = self._jobs.popleft()
                if self._jobs:
                    self._arm_locked()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._jobs.clear()
            self._wakeup.notify_all()


class _ServerConn:
    """Reactor-side state for one accepted server connection."""

    __slots__ = ("conn", "hello", "codec_for", "same_host")

    def __init__(self) -> None:
        self.conn: Connection | None = None
        #: The peer's accepted HELLO; ``None`` until the handshake
        #: completes — no frame is dispatched before that.
        self.hello: Hello | None = None
        #: Reply compression toward this peer, per its HELLO's codec
        #: advertisement (``None`` = every reply raw).
        self.codec_for = None
        #: The connection arrived over the Unix-domain listener, so the
        #: peer is provably on this machine: replies skip compression
        #: (it exists to save network bandwidth, which a same-host
        #: socket does not consume — the zlib pass is pure CPU cost).
        self.same_host = False


class _NodeServer:
    """Listener for one node: reactor-delivered frames feed the pools.

    The listening socket and every accepted connection live on the
    shared reactor; the frame callback (loop thread) does only cheap
    work — decode, trace, route — and hands handler execution to a
    worker pool.  Request kinds split across two pools: *bulk* kinds
    (streamed migration frames, whose handlers do staging writes and
    marshalled-state applies) run on a dedicated background pool so they
    can never queue behind — or starve — latency-sensitive calls.
    Replies are enqueued on the connection's coalescing write queue.

    A connection's first frame must be a wire-level :class:`Hello` of
    this build's protocol version and wire format; the server records
    the peer's codec advertisement for that connection's replies and
    answers with this node's own HELLO before any request is dispatched.
    Every other opening — and every later frame that is not a binary
    envelope — closes the connection (see the module docstring).
    """

    def __init__(self, node_id: str, handler: MessageHandler, trace: MessageTrace,
                 clock: Clock, pool: _WorkerPool, bulk_pool: _WorkerPool,
                 reactor: Reactor, call_metrics: _CallPathMetrics,
                 codec_chooser,
                 latency_s: float = 0.0,
                 bytes_per_s: float | None = None,
                 bind_host: str = "127.0.0.1",
                 port: int = 0,
                 uds: bool = False,
                 advertise_host: str = "127.0.0.1") -> None:
        self.node_id = node_id
        self.handler = handler
        self.reply_cache = ReplyCache(shards=8)
        #: The frame codecs this node's HELLO advertises (what peers may
        #: compress toward it); :meth:`TcpNetwork.advertise_codecs`
        #: overrides it for connections established afterwards.
        self.hello_codecs: tuple[str, ...] = codec.available_codecs()
        self._trace = trace
        self._clock = clock
        self._pool = pool
        self._bulk_pool = bulk_pool
        self._reactor = reactor
        self._latency_s = latency_s
        self._bytes_per_s = bytes_per_s
        self._codec_chooser = codec_chooser
        #: Inline dispatch runs INLINE_KINDS handlers straight on the
        #: reactor loop thread — only when the handler itself declared
        #: those kinds non-blocking (:func:`~repro.net.message.inline_safe`)
        #: and no emulated link latency is charged (the sleep would stall
        #: the loop for everyone).
        declared = frozenset(getattr(handler, "inline_kinds", ()))
        self._inline_kinds = (
            declared & INLINE_KINDS if latency_s == 0.0 else frozenset()
        )
        self._inline_strikes = 0     # loop thread only
        self._inline_demoted = False
        self._call_metrics = call_metrics
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((bind_host, port))
        except OSError as exc:
            self._sock.close()
            raise ConfigurationError(
                f"cannot bind node {node_id!r} to {bind_host}:{port}: {exc}"
            ) from exc
        self._sock.listen(64)
        self.port = self._sock.getsockname()[1]
        self._advertise_host = advertise_host
        self._closing = False
        self._conn_lock = threading.Lock()
        self._conns: set[_ServerConn] = set()
        self._listener: Listener = reactor.add_listener(
            self._sock, self._on_accept
        )
        #: Abstract Unix-domain companion listener (same-host tier 2).
        #: The name is advertised (without the leading NUL) through this
        #: server's HELLO and the membership roster; a bind failure —
        #: no AF_UNIX, no abstract namespace in this sandbox — leaves
        #: ``uds_name`` empty and the node TCP-only, never broken.
        self.uds_name = ""
        self._uds_listener: Listener | None = None
        if uds and _UDS_SUPPORTED:
            name = f"mage-{self.port}-{node_id}"
            usock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                usock.bind("\0" + name)
                usock.listen(64)
            except OSError:
                usock.close()
            else:
                self.uds_name = name
                self._uds_listener = reactor.add_listener(
                    usock, self._on_accept
                )

    def _on_accept(self, sock: socket.socket) -> None:
        state = _ServerConn()
        if _UDS_SUPPORTED and sock.family == socket.AF_UNIX:
            state.same_host = True
        conn = self._reactor.add_connection(
            sock,
            lambda ident, body, wire: self._on_frame(state, ident, body, wire),
            lambda reason: self._on_conn_closed(state),
            bytes_per_s=self._bytes_per_s,
            max_frame=_HELLO_MAX_BYTES,  # until _accept_hello admits the peer
        )
        state.conn = conn
        with self._conn_lock:
            closing = self._closing
            if not closing:
                self._conns.add(state)
        if closing:
            conn.close(graceful=False)

    def _on_frame(self, state: _ServerConn, ident: int, body: FrameBody,
                  wire_bytes: int) -> None:
        # Loop thread: decode, trace, route — never execute handlers.
        # A decode failure (or protocol violation) propagates and the
        # reactor closes the connection.
        # (Link *bandwidth* is already charged: the reactor defers frame
        # delivery by wire_bytes/rate, serializing per connection like a
        # physical link; dispatch *latency* stays on the workers —
        # propagation delay and transmission time are independent.)
        if state.hello is None:
            self._accept_hello(state, ident, body)
            return
        frame = _decode_frame(ident, body)
        # The reactor measured the frame; thread that through so the
        # trace never pays a second serialization to size the payload.
        self._trace.record(frame, self._clock.now_ms(), nbytes=wire_bytes)
        if self._inline_kinds and not self._inline_demoted \
                and self._inline_eligible(frame):
            self._dispatch_inline(state, frame)
            return
        pool = self._bulk_pool if frame.kind in BULK_KINDS else self._pool
        pool.submit(self._dispatch, state, frame)

    def _accept_hello(self, state: _ServerConn, ident: int,
                      body: FrameBody) -> None:
        """The connection's first frame: admit the peer or refuse it.

        Wire-level: never traced, never dispatched.  A frame that is not
        a well-formed HELLO raises (the reactor closes the connection).
        A HELLO of another version or wire format is answered with this
        node's own — so the dialler can report both sides — and the
        connection is then closed; ``state.hello`` stays unset, so
        nothing that arrives meanwhile can reach a handler.
        """
        hello = _decode_hello(ident, body)
        settings: dict = {wirecodec.WIRE_SETTING: wirecodec.WIRE_FORMAT}
        if self.uds_name:
            # Same-host facet: peers whose advertised host matches dial
            # the Unix socket instead of TCP.
            settings[_UDS_SETTING] = (
                self._advertise_host, self.port, self.uds_name
            )
        answer = _encode_hello(Hello(
            version=PROTOCOL_VERSION, node_id=self.node_id,
            codecs=self.hello_codecs, settings=settings,
        ))
        admitted = _same_dialect(hello)
        if admitted:
            state.hello = hello
            state.conn.set_max_frame(_MAX_FRAME)
            if not state.same_host:
                state.codec_for = self._codec_chooser(hello.codecs)
        try:
            state.conn.send(answer)
        except ConnectionError:
            pass  # racing teardown; the close callback cleans up
        if not admitted:
            state.conn.close()  # graceful: the answer drains first

    def _inline_eligible(self, frame: Message) -> bool:
        """Only declared-inline kinds — or a batch solely of them."""
        kinds = self._inline_kinds
        if frame.kind in kinds:
            return True
        if frame.kind is not MessageKind.BATCH:
            return False
        batch = frame.payload
        return isinstance(batch, Batch) and all(
            sub.kind in kinds for sub in batch.subs
        )

    def _dispatch_inline(self, state: _ServerConn, frame: Message) -> None:
        """Execute an allowlisted frame on the loop thread (no handoff).

        Guarded by a per-call time budget: a handler that keeps
        overrunning (``_INLINE_DEMOTE_STRIKES`` consecutive times)
        demotes this server's inline path permanently — the allowlist
        promised cheap and non-blocking (magelint MAGE009 checks the
        handlers statically), but a misbehaving deployment must degrade
        to the pool rather than starve every connection on the loop.
        """
        budget = _INLINE_BUDGET_S
        if frame.kind is MessageKind.BATCH:
            budget *= len(frame.payload.subs)
        start = time.monotonic()
        self._dispatch(state, frame, inline=True)
        elapsed = time.monotonic() - start
        self._call_metrics.record_inline()
        if elapsed <= budget:
            self._inline_strikes = 0
            return
        self._inline_strikes += 1
        demoted = self._inline_strikes >= _INLINE_DEMOTE_STRIKES
        if demoted:
            self._inline_demoted = True
        self._call_metrics.record_overrun(demoted)

    def _on_conn_closed(self, state: _ServerConn) -> None:
        with self._conn_lock:
            self._conns.discard(state)

    def _dispatch(self, state: _ServerConn, message: Message,
                  inline: bool = False) -> None:
        """Execute one frame and send its reply (a worker, or the loop).

        A pooled dispatch lets a batch of independent subs fan back out
        across the pool (:meth:`Transport.execute_batch`); ``inline`` —
        the loop thread — runs them in order where it stands.  The link
        delay is charged once per frame.
        """
        if self._latency_s > 0.0:
            # Emulated link delay (tc-netem style): charged on the worker,
            # after the reactor delivered the frame, so a slow link never
            # stalls later frames arriving on the same connection.
            time.sleep(self._latency_s)
        if message.kind is MessageKind.BATCH \
                and isinstance(message.payload, Batch):
            Transport.execute_batch(
                message, self._execute,
                lambda payload: self._send_reply(state, message, payload),
                None if inline else self._pool.submit,
            )
            return
        # (A BATCH frame whose payload is not a Batch falls through: the
        # shared path answers it with a whole-batch error.)
        payload = self._execute(message)
        if message.kind in ONEWAY_KINDS:
            return  # one-way traffic carries no reply frame
        self._send_reply(state, message, payload)

    def _execute(self, message: Message) -> ReplyPayload:
        """One request — a whole frame or a batch's sub — to its outcome."""
        try:
            return Transport.execute_handler(
                message, self.handler, self.reply_cache
            )
        except BaseException as exc:  # magelint: disable=MAGE003(deliberate: converts the abort into an uncached error reply on a worker thread; re-raising would only kill the worker without informing the caller)
            # Control-flow abort (KeyboardInterrupt/SystemExit): the
            # single-flight cache retained nothing, so a retransmission
            # executes afresh.  Answer with an *uncached* transport error
            # so the caller fails fast instead of waiting out its reply
            # timeout — a KeyboardInterrupt itself cannot cross the wire.
            return ReplyPayload(
                error=TransportError(
                    f"handler aborted by {type(exc).__name__}"
                )
            )

    def _send_reply(self, state: _ServerConn, message: Message,
                    payload: ReplyPayload) -> None:
        reply = message.reply(_transmittable_error_payload(payload))
        try:
            wire = _encode_frame(reply, state.codec_for)
        except MarshalError:
            self._trace.record(reply, self._clock.now_ms())
            raise
        self._trace.record(reply, self._clock.now_ms(),
                           nbytes=_frame_nbytes(wire))
        try:
            state.conn.send(wire)
        except ConnectionError:
            pass  # caller gave up; the reply cache covers their retry

    def drop_peer(self, peer: str) -> None:
        """Sever accepted connections whose HELLO identified ``peer``.

        Eviction-time hygiene: a forgotten peer's half-open inbound
        connections — and the codec negotiation state riding them — must
        not survive into its re-join, which starts from a fresh
        handshake.  Connections still mid-handshake cannot be attributed
        and are left alone (they carry no per-peer state to go stale).
        """
        with self._conn_lock:
            stale = [
                state for state in self._conns
                if state.hello is not None and state.hello.node_id == peer
            ]
            for state in stale:
                self._conns.discard(state)
        for state in stale:
            if state.conn is not None:
                state.conn.close(graceful=False)

    def close(self) -> None:
        """Stop listening and sever live connections, releasing the port.

        In-flight exchanges on severed connections surface to their
        callers as :class:`NodeUnreachableError` (their client channel
        sees the close and fails the parked waiters).
        """
        with self._conn_lock:
            self._closing = True
            conns = list(self._conns)
            self._conns.clear()
        self._listener.close()
        if self._uds_listener is not None:
            self._uds_listener.close()
        for state in conns:
            if state.conn is not None:
                state.conn.close(graceful=False)


class TcpNetwork(Transport):
    """Transport over real TCP sockets; see module docstring."""

    track_link_latency = True  # reply latencies feed hedge-candidate ranking

    def __init__(self, clock: Clock | None = None, trace: MessageTrace | None = None,
                 connect_timeout_s: float = 5.0, io_timeout_s: float = 30.0,
                 server_workers: int = 8,
                 latency_ms: float = 0.0,
                 codecs: tuple[str, ...] | None = None,
                 compress_threshold: int = codec.DEFAULT_COMPRESS_THRESHOLD,
                 bandwidth_mbps: float | None = None,
                 bind: str = "127.0.0.1",
                 advertise_host: str | None = None,
                 ports: dict[str, int] | None = None,
                 hello_timeout_s: float = 2.0,
                 auto_batch: bool = True,
                 uds: bool = True,
                 local_bypass: bool = True) -> None:
        """``latency_ms`` emulates a slower link (tc-netem style): every
        request is delayed that long at the destination before dispatch.
        Loopback's ~0.1 ms round trip hides latency effects entirely;
        setting a LAN/WAN-scale delay lets benches and tests measure what
        scatter-gather and pipelining buy on a real network.

        ``bandwidth_mbps`` emulates link throughput the same way: each
        received frame charges its *on-wire* bytes against the link
        rate, so bulk transfers pay a transmission time loopback would
        otherwise hide (and compressed frames pay only for their
        compressed bytes).

        ``codecs`` is the sender-side compression preference order
        (default: every codec this process supports, ``()`` disables
        compression entirely).  A frame is compressed only when it
        reaches ``compress_threshold`` serialized bytes *and* the
        destination's HELLO advertises a shared codec; everything else
        ships raw.

        Cross-host knobs: ``bind`` is the interface node listeners bind
        (``"0.0.0.0"`` accepts other machines); ``advertise_host`` is
        the address *peers* should dial for nodes served here — it
        defaults to ``bind``, falling back to ``127.0.0.1`` when bind
        is a wildcard, and must be set explicitly to this machine's
        reachable address in a real multi-host deployment.  ``ports``
        optionally pins ``node_id -> listen port`` (seeds want a fixed,
        firewall-friendly port; the default is an ephemeral one).
        ``hello_timeout_s`` bounds how long a new connection waits for
        the server's HELLO before the dial fails.

        ``auto_batch`` coalesces this transport's concurrent calls to
        one peer into single BATCH frames (adaptive — a lone call is
        never delayed).  It is a client-side switch: every server runs
        the BATCH frames it is sent.

        Same-host fast paths: ``uds`` makes every node listener
        additionally bind an abstract Unix-domain socket, advertised
        through HELLO settings and the membership roster; a peer whose
        own ``advertise_host`` matches dials the Unix socket instead of
        loopback TCP, degrading to TCP on any mismatch or dial failure
        (and entirely on platforms without ``AF_UNIX``).
        ``local_bypass`` lets RMI stubs on this transport short-circuit
        invokes to servants hosted *in this process* without touching
        the wire at all (see :class:`repro.rmi.bypass.LocalDispatch`).
        ``auto_batch``, ``uds`` and ``local_bypass`` default on and
        exist as off-switches for A/B measurement.
        """
        super().__init__(
            clock=clock if clock is not None else WallClock(),
            trace=trace,
        )
        if latency_ms < 0:
            raise ConfigurationError(f"latency cannot be negative: {latency_ms}")
        if bandwidth_mbps is not None and bandwidth_mbps <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive: {bandwidth_mbps}"
            )
        if compress_threshold < 0:
            raise ConfigurationError(
                f"compress threshold cannot be negative: {compress_threshold}"
            )
        if hello_timeout_s <= 0:
            raise ConfigurationError(
                f"hello timeout must be positive: {hello_timeout_s}"
            )
        self.latency_ms = latency_ms
        self.connect_timeout_s = connect_timeout_s
        self.io_timeout_s = io_timeout_s
        self.bind = bind
        self.advertise_host = advertise_host if advertise_host is not None else (
            "127.0.0.1" if bind in ("", "0.0.0.0", "::") else bind
        )
        self._ports = dict(ports) if ports else {}
        self.hello_timeout_s = hello_timeout_s
        self.auto_batch = auto_batch
        self.uds = uds and _UDS_SUPPORTED
        self.supports_local_bypass = bool(local_bypass)
        self._call_metrics = _CallPathMetrics()
        write_codecs = codec.available_codecs() if codecs is None else tuple(codecs)
        for name in write_codecs:
            codec.codec_id(name)  # validate eagerly, not on the hot path
        self.write_codecs = write_codecs
        self.compress_threshold = compress_threshold
        self._bytes_per_s = (
            bandwidth_mbps * 1e6 / 8.0 if bandwidth_mbps is not None else None
        )
        self._servers: dict[str, _NodeServer] = {}
        self._lock = threading.Lock()
        self._channels: dict[tuple[str, str], _Channel] = {}
        self._chan_lock = threading.Lock()
        self._pool = _WorkerPool(server_workers, "tcpnet")
        # Bulk-kind handlers (streamed migration) run off the request
        # path: staging writes and marshalled-state applies never queue
        # behind latency-sensitive calls, and vice versa.
        self._bulk_pool = _WorkerPool(max(2, server_workers // 2), "tcpnet-bulk")
        self._reactor = Reactor(max_frame=_MAX_FRAME, name="tcpnet")

    # -- codec negotiation ----------------------------------------------------

    def advertise_codecs(self, node_id: str, codecs: tuple[str, ...]) -> None:
        """Override which codecs the local node ``node_id`` accepts.

        A registered node's HELLO advertises every locally supported
        codec; this models a mixed-codec deployment (a peer built
        without lz4, or with none at all via ``()``) — senders then fall
        back to raw toward that node rather than failing.  The override
        rides the node's HELLOs, so it applies to connections
        established after the call, and lasts until the node is
        re-registered (replaced, not resumed).
        """
        for name in codecs:
            codec.codec_id(name)
        self._server(node_id).hello_codecs = tuple(codecs)

    def _codec_chooser(self, advertised: tuple[str, ...]):
        """``nbytes -> codec id`` toward a peer that decodes ``advertised``."""
        write_codecs, threshold = self.write_codecs, self.compress_threshold
        return lambda nbytes: codec.choose_codec(
            nbytes, write_codecs, advertised, threshold)

    def negotiated_codecs(self, src: str, dst: str) -> tuple[str, ...] | None:
        """What the live ``src -> dst`` channel's peer HELLO advertised.

        ``None`` when no live channel exists.  Diagnostic: lets tests
        and operators confirm what crossed the wire in the handshake.
        """
        with self._chan_lock:
            channel = self._channels.get((src, dst))
        if channel is None or channel.closed:
            return None
        return channel.negotiated_codecs

    # -- node management ----------------------------------------------------

    def register(self, node_id: str, handler: MessageHandler) -> None:
        # Build the replacement first and swap it in atomically: a call
        # racing the re-registration sees either the old or the new server,
        # never a missing node.
        server = _NodeServer(node_id, handler, self.trace, self.clock, self._pool,
                             self._bulk_pool, self._reactor,
                             self._call_metrics, self._codec_chooser,
                             latency_s=self.latency_ms / 1000.0,
                             bytes_per_s=self._bytes_per_s,
                             bind_host=self.bind,
                             port=self._ports.get(node_id, 0),
                             uds=self.uds,
                             advertise_host=self.advertise_host)
        with self._lock:
            old = self._servers.get(node_id)
            self._servers[node_id] = server
        if old is not None:
            # Replacing a live node: release its port and sever its
            # connections so in-flight calls fail fast instead of hanging.
            old.close()
            self._drop_channels(node_id)

    def unregister(self, node_id: str) -> None:
        with self._lock:
            server = self._servers.pop(node_id, None)
        if server is not None:
            server.close()
        # Prune everything remembered about the departed node — link
        # EWMA, address-book entry, live channels — so a long-lived
        # transport carries no state for dead peers.
        self.forget_peer(node_id)

    def nodes(self) -> list[str]:
        """Locally served nodes plus address-book peers (sorted)."""
        with self._lock:
            local = set(self._servers)
        return sorted(local | set(self.known_peers()))

    def max_reply_wait_s(self) -> float | None:
        return self.io_timeout_s

    def _server(self, node_id: str) -> _NodeServer:
        with self._lock:
            server = self._servers.get(node_id)
        if server is None:
            raise NodeUnreachableError(node_id, "not registered")
        return server

    def port_of(self, node_id: str) -> int:
        """The TCP port ``node_id`` listens on (for diagnostics)."""
        return self._server(node_id).port

    def endpoint_of(self, node_id: str) -> Endpoint | None:
        """Where ``node_id`` can be dialed: a local listener's advertised
        address (with its Unix-socket facet, when one is bound), else the
        address book, else ``None``."""
        with self._lock:
            server = self._servers.get(node_id)
        if server is not None:
            return Endpoint(self.advertise_host, server.port, server.uds_name)
        return super().endpoint_of(node_id)

    def forget_peer(self, node_id: str) -> None:
        # One atomic pop drops the peer's whole sharded record — address
        # book and link EWMA together.  Channels
        # are closed with ``rescue=False``: the auto-batcher's queued
        # frames fail instead of redialing the node just forgotten.
        super().forget_peer(node_id)
        self._drop_channels(node_id, rescue=False)
        # Server side of the same hygiene: sever accepted connections
        # the forgotten peer opened toward locally served nodes, so a
        # re-join starts from a fresh handshake (no stale codec
        # negotiation state).
        with self._lock:
            servers = list(self._servers.values())
        for server in servers:
            server.drop_peer(node_id)

    def _peer_endpoint_changed(self, node_id: str) -> None:
        # A peer re-joined from a new endpoint: the fresh address wins,
        # and channels built on the stale one are severed (their
        # in-flight exchanges fail over to reconnect-and-retry or
        # surface as unreachability, exactly like a re-registration).
        self._drop_channels(node_id)

    # -- client-side connections ---------------------------------------------

    def _dial_address(self, dst: str) -> Endpoint:
        """Resolve ``dst`` to a dialable endpoint.

        Locally served nodes are dialed over loopback-or-bind directly
        (keeping their Unix-socket facet — same process is trivially
        same host); anything else must be in the address book, whose
        facet is kept only when the peer's advertised host matches this
        transport's own — a Unix socket on another machine is not
        reachable, whatever the roster says.
        """
        with self._lock:
            server = self._servers.get(dst)
        if server is not None:
            host = "127.0.0.1" if self.bind in ("", "0.0.0.0", "::") else self.bind
            return Endpoint(host, server.port, server.uds_name)
        endpoint = super().endpoint_of(dst)
        if endpoint is None:
            raise NodeUnreachableError(
                dst, "not registered and no known endpoint"
            )
        if endpoint.uds and endpoint.host != self.advertise_host:
            return Endpoint(endpoint.host, endpoint.port)
        return endpoint

    def _connect(self, dst: str) -> socket.socket:
        endpoint = self._dial_address(dst)
        if endpoint.uds and self.uds:
            sock = self._dial_uds(endpoint.uds)
            if sock is not None:
                return sock
            # Any failure degrades to TCP: the peer may have restarted
            # without the facet, or the abstract namespace may be
            # partitioned from this process (container boundaries).
        try:
            sock = socket.create_connection(
                endpoint.address(), timeout=self.connect_timeout_s
            )
        except OSError as exc:
            raise NodeUnreachableError(dst, f"connect failed: {exc}") from exc
        # Frames are small; Nagle-batching them against delayed ACKs stalls
        # the pipelined mode badly, so send every frame immediately.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _dial_uds(self, name: str) -> socket.socket | None:
        """Dial the abstract Unix socket ``name``; ``None`` on failure.

        No TCP_NODELAY here — Unix sockets have no Nagle to disable —
        and no exception surface: the caller always has TCP to fall
        back on, so a same-host dial can only ever *add* a fast path.
        """
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.connect_timeout_s)
        try:
            sock.connect("\0" + name)
        except OSError:
            sock.close()
            return None
        return sock

    def _client_handshake(self, sock: socket.socket, src: str,
                          dst: str) -> Hello:
        """Open a new connection with HELLO; returns the server's.

        Sends this side's HELLO and waits up to ``hello_timeout_s`` for
        the server's.  No request frame has been written yet, so every
        failure is a refused dial: a timeout, a hang-up or a first frame
        that is not a bounded HELLO raises
        :class:`NodeUnreachableError`; a HELLO of another protocol
        version or wire format raises :class:`ProtocolMismatchError`.
        The caller closes the socket on either.
        """
        with self._lock:
            server = self._servers.get(src)
        hello = Hello(
            version=PROTOCOL_VERSION,
            node_id=src,
            codecs=(server.hello_codecs if server is not None
                    else codec.available_codecs()),
            settings={"max_frame": _MAX_FRAME,
                      wirecodec.WIRE_SETTING: wirecodec.WIRE_FORMAT},
        )
        try:
            sock.settimeout(self.hello_timeout_s)
            sock.sendall(_encode_hello(hello))
            peer = _recv_hello(sock)
        except (OSError, MarshalError) as exc:
            raise NodeUnreachableError(
                dst, f"handshake failed: {exc}") from exc
        if not _same_dialect(peer):
            raise ProtocolMismatchError(
                dst, PROTOCOL_VERSION, wirecodec.WIRE_FORMAT,
                peer.version, peer.settings.get(wirecodec.WIRE_SETTING),
            )
        return peer

    def _channel(self, src: str, dst: str) -> _Channel:
        key = (src, dst)
        with self._chan_lock:
            channel = self._channels.get(key)
            if channel is not None and not channel.closed:
                return channel
        sock = self._connect(dst)
        try:
            peer_hello = self._client_handshake(sock, src, dst)
            sock.settimeout(None)  # reply timeouts are waiter-side
            self._learn_peer_uds(dst, peer_hello)
            # Same-machine channel: compression saves bandwidth a Unix
            # socket does not consume, so every frame goes raw and the
            # compressor's CPU cost goes with it.
            same_host = _UDS_SUPPORTED and sock.family == socket.AF_UNIX
            channel = _Channel(
                dst, sock, self._reactor, peer_hello,
                codec_for=(None if same_host
                           else self._codec_chooser(peer_hello.codecs)),
            )  # from here the reactor owns the socket
        except BaseException:
            sock.close()
            raise
        if self.auto_batch:
            # Assigned post-construction, but only _submit — called
            # after this method returns — reads it.
            channel._batcher = _AutoBatcher(channel, self, self._call_metrics)
        with self._chan_lock:
            current = self._channels.get(key)
            if current is not None and not current.closed:
                channel.close()  # lost the race; reuse the winner
                return current
            self._channels[key] = channel
        return channel

    def _learn_peer_uds(self, dst: str, hello: Hello) -> None:
        """Adopt the Unix-socket facet a server's HELLO advertised.

        Recorded through :meth:`connect`'s facet merge, so the address
        book remembers it for later dials (the *current* connection
        stays on whatever socket it was opened on — the upgrade applies
        from the next dial).  Ignored unless the advertised ``(host,
        port)`` agrees with what this transport already dials for
        ``dst``: adopting a mismatched advertisement would re-route —
        and sever — healthy connections on hearsay.
        """
        if not self.uds:
            return
        spec = hello.settings.get(_UDS_SETTING)
        if (not isinstance(spec, tuple) or len(spec) != 3
                or not isinstance(spec[0], str)
                or not isinstance(spec[2], str) or not spec[2]):
            return
        host, port, uds_name = spec
        if host != self.advertise_host:
            return  # another machine's Unix socket: not reachable here
        known = super().endpoint_of(dst)
        if known is None or known.address() != (host, port):
            return
        try:
            self.connect(dst, Endpoint(host, int(port), uds_name))
        except (ConfigurationError, TypeError, ValueError):
            return  # malformed advertisement: stay on TCP

    def _drop_channels(self, dst: str, rescue: bool = True) -> None:
        with self._chan_lock:
            stale = [key for key in self._channels if key[1] == dst]
            channels = [self._channels.pop(key) for key in stale]
        for channel in channels:
            channel.close(rescue=rescue)

    def open_channels(self) -> int:
        """How many live client channels exist (for tests/diagnostics)."""
        with self._chan_lock:
            return sum(1 for c in self._channels.values() if not c.closed)

    def data_plane_metrics(self) -> DataPlaneStats:
        """Reactor counters: flush batching, loop lag, queue depths —
        plus the transport's own call-path aggregation counters
        (auto-batch size histogram, inline-dispatch/overrun/demotion).

        Consumed by :func:`repro.runtime.metrics.collect_data_plane` and
        the throughput bench report.
        """
        return self._call_metrics.merge_into(self._reactor.metrics())

    # -- delivery -------------------------------------------------------------

    def _record_drop(self, message: Message) -> None:
        """Trace an undeliverable *one-way* send, matching the simulated
        network's accounting (two-way failures raise instead; recording
        them here would skew cross-transport trace comparisons)."""
        if message.kind in ONEWAY_KINDS:
            self.trace.record(message, self.clock.now_ms(), dropped=True)

    def _submit(self, message: Message,
                future: _PipelinedCallFuture | None = None,
                coalesce: bool = True) -> None:
        """Put one frame on the wire: the only way anything is sent.

        Gets (or dials) the peer's channel, parks ``future`` and submits
        the frame — through the channel's auto-batcher when it has one,
        the kind is batchable and ``coalesce`` is on; a one-way message
        has no ``future`` and is simply written.  A
        channel may have died since its last use (the peer re-registered
        or unregistered): ``_ChannelClosedError`` means the frame
        provably never left this side, so redialling once and resending
        preserves at-most-once.  A refused dial, or a second dead
        channel, raises (:class:`NodeUnreachableError` /
        :class:`ProtocolMismatchError`) after tracing the drop of a
        one-way send; an unencodable payload raises
        :class:`MarshalError` with nothing parked.  Anything that goes
        wrong *after* the frame left reaches the future instead, through
        the channel.
        """
        for _ in range(2):
            try:
                channel = self._channel(message.src, message.dst)
            except TransportError:  # refused dial: unreachable or mismatched
                self._record_drop(message)
                raise
            try:
                if future is None:
                    channel.send_oneway(message)
                    return
                # Channel recorded *before* submission: the auto-batcher
                # may queue the frame and send it from another caller's
                # drain, and abandon/timeout paths need the channel
                # either way.
                future._channel = channel
                batcher = channel._batcher if coalesce else None
                if batcher is None or message.kind in _UNBATCHABLE_KINDS:
                    channel.submit(message, future)
                else:
                    batcher.submit(message, future)
                return
            except _ChannelClosedError:
                continue  # frame provably never left; reconnect and resend
        self._record_drop(message)
        raise NodeUnreachableError(message.dst, "connection lost before send")

    def _transmit_async(self, message: Message) -> CallFuture:
        """Native futures on the channel's waiter mechanism.

        The frame is written during submission; the returned future is
        resolved on the reactor loop when the matching reply frame
        arrives.  Issuing N futures before collecting any puts N round
        trips in flight on the shared connection.
        """
        future = _PipelinedCallFuture(message, self.io_timeout_s,
                                      transport=self)
        if message.deadline is not None and message.deadline.expired:
            # Budget already gone: never touch the wire.
            future._fail(CallTimeoutError(
                f"{message.describe()}: deadline expired"
            ))
            return future
        try:
            self._submit(message, future)
        except Exception as exc:  # refused dial, dead channel, MarshalError
            future._fail(exc)
        return future

    def _rescue_async(
            self, items: list[tuple[Message, _PipelinedCallFuture]]) -> None:
        """Re-route frames a dying batcher proved never left its channel.

        Each goes back through :meth:`_submit` uncoalesced (the original
        grouping opportunity is gone); a frame that cannot be placed
        fails its own future, never its group.  On the worker pool:
        rescue dials a fresh connection, which may block, and the thread
        asking may be the reactor loop (a reply-clocked flush).  After
        shutdown the pool drops the job silently; the affected callers
        then time out against a transport that is gone anyway.
        """
        def resubmit() -> None:
            for message, future in items:
                try:
                    self._submit(message, future, coalesce=False)
                except Exception as exc:
                    future._fail(exc)

        if items:
            self._pool.submit(resubmit)

    def _transmit_oneway(self, message: Message) -> None:
        self._submit(message)

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Close every listening socket, connection and worker (idempotent)."""
        with self._lock:
            servers = list(self._servers.values())
            self._servers.clear()
        with self._chan_lock:
            channels = list(self._channels.values())
            self._channels.clear()
        for channel in channels:
            channel.close()
        for server in servers:
            server.close()
        self._pool.close()
        self._bulk_pool.close()
        self._reactor.close()
