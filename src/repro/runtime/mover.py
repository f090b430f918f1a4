"""The migration engine: weak migration of objects between namespaces.

§3.5: "Since the standard Java virtual machine does not provide access to
execution state, MAGE uses weak migration" — heap state moves, stacks do
not.  CPython imposes the same constraint, so the engine ships
``(class descriptor, marshalled state)`` pairs, exactly the paper's model.

Move protocol (the wire half of the GREV protocol, Figure 7):

1. the initiator sends ``MOVE_REQUEST`` to the hosting node;
2. the host packs the object and ships it to the target (class body
   included only when the host believes the target lacks it — the §4.2
   class-cache optimization);
3. the target reconstructs, registers the arrival, and acknowledges;
4. the host evicts its copy, records a forwarding address, fails waiting
   lock requests over to the new location, and answers the initiator.

Transfer-then-evict ordering means a failed transfer leaves the object
safely at the source; the exclusive move lock prevents the transient
two-copies window from being observed.

Step 2 is one engine: a loop over candidate targets, each sent one of
two frame shapes.  Small objects ship as the paper's single
``OBJECT_TRANSFER`` frame — the exact message the figure benches trace.
State blobs at or above ``stream_threshold`` ship as a **staged
stream** instead, its control riding in its chunk frames:

``TRANSFER_CHUNK`` × N
    windowed, pipelined slices of the marshalled state.  Chunk 0 carries
    the stream's head (a :class:`~repro.rmi.protocol.TransferPrepare`):
    the receiver opens a staging slot (idempotent per ``transfer_id``)
    and nothing touches the hot store; its ack opens the window.  The
    state is packed as pieces — a ``bytes`` of at least 64 KiB in it is
    a piece of its own and is the servant's own object — and a chunk is
    a run of at most ``chunk_bytes`` of their concatenation: one
    ``memoryview`` of a piece, or a tuple of views when it spans pieces.
    Nothing on the send path copies the state.  Chunks accumulate in the
    staging slot in the form they arrived in — views of their received
    frames — and the commit unpickles from their segments in order
    without joining them.
the commit
    verifies completeness, unpacks, registers, and acks; only now does
    the object exist at the target, and only on this ack does the source
    evict.  Idempotent per ``transfer_id``.  A single-target move's last
    chunk carries it, sent once every earlier chunk is acked, so a
    one-chunk move is one exchange.
``TRANSFER_ABORT``
    discards the staging slot (explicit when a streamed candidate fails
    or loses, or implicitly when the staging GC reaps an orphan whose
    TTL lapsed).  Refused after a commit — the object materialized.

Because apply is deferred to the commit, a partially streamed transfer
can never materialize a half-built object, and the same property makes
**hedged writes** safe: :meth:`Mover.move_out` with ``alternates``
streams to every candidate at once without a commit, sends a standalone
``TRANSFER_COMMIT`` to the first to finish staging, and ABORTs the
others before anything applied.  The receiver applies an
``OBJECT_TRANSFER`` and a commit through one door.

An agent's hop is a move whose transfer carries the remaining itinerary
(``move_out(..., tour=rest)``); the receiver hands ``(name, tour)`` to
:attr:`Mover.tour_hook` (:mod:`repro.core.agents`) once the object is in
its store.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Iterator, Sequence

from repro.errors import (
    CallTimeoutError,
    ClassTransferError,
    LockError,
    MageError,
    MigrationError,
    NoSuchObjectError,
    ObjectPinnedError,
)
from repro.net.deadline import Deadline, effective_deadline
from repro.net.message import MessageKind
from repro.net.transport import Transport, race
from repro.net.wirecodec import MAX_TUPLE_ITEMS
from repro.rmi.classdesc import ClassDescriptor, describe_class
from repro.rmi.marshal import (
    Blob,
    Buffer,
    StubFactory,
    join_pieces,
    marshal_pieces,
    unmarshal,
)
from repro.rmi.protocol import (
    ClassRequest,
    ObjectTransfer,
    TransferAbort,
    TransferChunk,
    TransferCommit,
    TransferPrepare,
)
from repro.runtime.classcache import ClassCache
from repro.runtime.locks import LockManager
from repro.runtime.registry import MageRegistry
from repro.runtime.store import ObjectStore
from repro.util.ids import fresh_token

#: State blobs at or above this many bytes stream as staged chunks; below it the paper's single OBJECT_TRANSFER frame ships
#: (keeping every figure bench's traces byte-identical).
DEFAULT_STREAM_THRESHOLD = 256 * 1024

#: One TRANSFER_CHUNK's slice of the marshalled state.
DEFAULT_CHUNK_BYTES = 256 * 1024

#: How many chunk frames a streamed transfer keeps outstanding per candidate.
DEFAULT_STREAM_WINDOW = 8

#: How long an orphaned staging entry survives without its commit before
#: the staging GC reaps it (senders with a deadline shorten this to their
#: remaining budget plus slack).
DEFAULT_STAGING_TTL_MS = 30_000.0


def _chunk_payloads(pieces: Sequence[bytes],
                    chunk_bytes: int) -> Iterator["Buffer | tuple[Buffer, ...]"]:
    """The chunk data of a blob given as ``pieces``, without a copy.

    Each chunk is the next ``chunk_bytes`` (or the rest) of the pieces'
    concatenation: a ``memoryview`` slice of one piece, or a tuple of
    slices when it spans several, so the chunk count is that of the
    joined blob.  A chunk that would span more than
    :data:`MAX_TUPLE_ITEMS` pieces joins its tail into one ``bytes``: the
    wire's tuple form counts items in a byte.
    """
    segments: list[Buffer] = []
    room = chunk_bytes
    for piece in pieces:
        view = memoryview(piece)
        start = 0
        while start < len(view):
            end = min(len(view), start + room)
            segments.append(view[start:end])
            room -= end - start
            start = end
            if not room:
                yield _chunk_data(segments)
                segments = []
                room = chunk_bytes
    if segments:
        yield _chunk_data(segments)


def _chunk_data(segments: list[Buffer]) -> "Buffer | tuple[Buffer, ...]":
    if len(segments) == 1:
        return segments[0]
    if len(segments) > MAX_TUPLE_ITEMS:
        keep = MAX_TUPLE_ITEMS - 1
        segments[keep:] = [b"".join(segments[keep:])]
    return tuple(segments)


def _segments(data: Any) -> "tuple[Any, ...]":
    """A chunk's data as its segments in order (see :class:`TransferChunk`)."""
    return data if type(data) is tuple else (data,)


@dataclass
class _StagedTransfer:
    """One in-flight streamed transfer at the receiver, keyed off the hot
    store: chunks accumulate here and nothing is observable until the
    commit."""

    prepare: TransferPrepare
    expires_at: float                       # monotonic reap point
    chunks: "dict[int, Buffer | tuple[Buffer, ...]]" = field(
        default_factory=dict)
    received_bytes: int = 0

    def pieces(self) -> list[Buffer]:
        """Every staged segment, in chunk order: the blob's pieces."""
        return [segment for index in range(self.prepare.chunk_count)
                for segment in _segments(self.chunks[index])]


#: Dedup tombstones kept for applied and for aborted transfer ids (each).
_TOMBSTONE_CAP = 4096


class _Transfers:
    """The receiver's per-transfer state: the transfer protocol's state
    machine, under one lock.

    Every cross-check the protocol depends on — a stream's head against
    the abort tombstones, a commit against the staging slot, ABORT
    against an in-flight apply — happens under that lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._staging: dict[str, _StagedTransfer] = {}
        self._applying: dict[str, threading.Event] = {}
        self._seen: set[str] = set()
        self._seen_order: deque[str] = deque()
        self._aborted: set[str] = set()
        self._aborted_order: deque[str] = deque()

    def begin_apply(self, transfer_id: str) -> bool:
        """Reserve ``transfer_id`` for this thread's apply (single-flight);
        ``False`` when it already applied."""
        while True:
            with self._lock:
                if transfer_id in self._seen:
                    return False
                event = self._applying.get(transfer_id)
                if event is None:
                    self._applying[transfer_id] = threading.Event()
                    return True
            event.wait()
            # The holder finished: either it applied (seen → "ok") or it
            # failed and released the reservation (this thread then
            # claims the flight and executes afresh).

    def end_apply(self, transfer_id: str) -> None:
        with self._lock:
            event = self._applying.pop(transfer_id, None)
        if event is not None:
            event.set()

    def record_applied(self, transfer_id: str) -> None:
        with self._lock:
            self._seen.add(transfer_id)
            self._seen_order.append(transfer_id)
            while len(self._seen_order) > _TOMBSTONE_CAP:
                self._seen.discard(self._seen_order.popleft())

    def stage(self, prep: TransferPrepare, node_id: str) -> None:
        with self._lock:
            if prep.transfer_id in self._seen:
                return  # already committed; a late chunk 0 retransmission
            if prep.transfer_id in self._aborted:
                raise MigrationError(
                    f"transfer {prep.transfer_id!r} was aborted at "
                    f"{node_id!r}; its frames are dead"
                )
            if prep.transfer_id not in self._staging:
                self._staging[prep.transfer_id] = _StagedTransfer(
                    prepare=prep,
                    expires_at=time.monotonic() + prep.ttl_ms / 1000.0,
                )

    def add_chunk(self, chunk: TransferChunk, node_id: str) -> None:
        """Stage ``chunk.data`` as it arrived, within its head's bounds.

        The data is a buffer or a tuple of them; every segment must be
        bytes-like, and the byte count is over all of them.  A staged
        view pins the frame it arrived in, so a stream must not be able
        to stage more than it declared: an index outside the head's
        chunk count, or data past its byte total, is refused here rather
        than at the commit.
        """
        data = chunk.data
        nbytes = 0
        for segment in _segments(data):
            if not isinstance(segment, (bytes, bytearray, memoryview)):
                raise MigrationError(
                    f"transfer {chunk.transfer_id!r}: chunk {chunk.index} "
                    f"carries {type(segment).__name__}, not bytes"
                )
            nbytes += len(segment)
        with self._lock:
            if chunk.transfer_id in self._seen:
                return  # committed already; late retransmission
            entry = self._staging.get(chunk.transfer_id)
            if entry is None:
                raise MigrationError(
                    f"no staged transfer {chunk.transfer_id!r} at "
                    f"{node_id!r} (chunk 0 missing, aborted, or reaped)"
                )
            if chunk.index in entry.chunks:
                return  # retransmitted chunk
            prep = entry.prepare
            if not 0 <= chunk.index < prep.chunk_count:
                raise MigrationError(
                    f"transfer {chunk.transfer_id!r}: chunk index "
                    f"{chunk.index} outside its {prep.chunk_count} chunks"
                )
            if entry.received_bytes + nbytes > prep.total_bytes:
                raise MigrationError(
                    f"transfer {chunk.transfer_id!r}: chunk {chunk.index} "
                    f"({nbytes} bytes) overruns its {prep.total_bytes} "
                    f"bytes ({entry.received_bytes} staged)"
                )
            entry.chunks[chunk.index] = data
            entry.received_bytes += nbytes

    def claim_commit(self, commit: TransferCommit,
                     node_id: str) -> _StagedTransfer:
        """Verify completeness and take ownership of the staging entry."""
        with self._lock:
            entry = self._staging.get(commit.transfer_id)
            if entry is None:
                raise MigrationError(
                    f"cannot commit unknown transfer {commit.transfer_id!r} "
                    f"at {node_id!r} (never staged, aborted, or reaped)"
                )
            prep = entry.prepare
            if (len(entry.chunks) != prep.chunk_count
                    or entry.received_bytes != prep.total_bytes):
                raise MigrationError(
                    f"transfer {commit.transfer_id!r} incomplete: "
                    f"{len(entry.chunks)}/{prep.chunk_count} chunks, "
                    f"{entry.received_bytes}/{prep.total_bytes} bytes"
                )
            # Claimed: from here the caller owns the apply; drop the
            # staging entry so an abort retransmission cannot race it.
            del self._staging[commit.transfer_id]
        return entry

    def abort(self, ab: TransferAbort, node_id: str) -> None:
        while True:
            with self._lock:
                if ab.transfer_id in self._seen:
                    raise MigrationError(
                        f"transfer {ab.transfer_id!r} already committed at "
                        f"{node_id!r}; cannot abort a materialized object"
                    )
                event = self._applying.get(ab.transfer_id)
                if event is None:
                    self._staging.pop(ab.transfer_id, None)
                    if ab.transfer_id not in self._aborted:
                        self._aborted.add(ab.transfer_id)
                        self._aborted_order.append(ab.transfer_id)
                        while len(self._aborted_order) > _TOMBSTONE_CAP:
                            self._aborted.discard(
                                self._aborted_order.popleft()
                            )
                    return
            event.wait()
            # The apply finished: committed -> refuse above; failed (its
            # reservation was released, nothing materialized) -> abort.

    def reap(self, now: float) -> int:
        with self._lock:
            dead = [tid for tid, entry in self._staging.items()
                    if entry.expires_at <= now]
            for tid in dead:
                del self._staging[tid]
        return len(dead)

    def staging_count(self) -> int:
        with self._lock:
            return len(self._staging)


class Mover:
    """Sends and receives weakly-migrated objects for one namespace."""

    def __init__(
        self,
        node_id: str,
        store: ObjectStore,
        classcache: ClassCache,
        registry: MageRegistry,
        locks: LockManager,
        transport: Transport,
        stub_factory: StubFactory,
        stream_threshold: int = DEFAULT_STREAM_THRESHOLD,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        self.node_id = node_id
        self._store = store
        self._classcache = classcache
        self._registry = registry
        self._locks = locks
        self._transport = transport
        self._stub_factory = stub_factory
        #: ``(name, tour)`` of each touring arrival goes here (the agent
        #: manager posts its step): it runs inside the transfer handler,
        #: before the ack, so it must not run the agent's code itself.
        self.tour_hook: Callable[[str, tuple[str, ...]], None] | None = None
        #: Streaming knobs (see module docstring); ``stream_threshold`` of
        #: ``None``/huge effectively forces the monolithic fast path.
        self.stream_threshold = stream_threshold
        self.chunk_bytes = chunk_bytes
        self._known_at: dict[str, set[str]] = {}  # source_hash -> nodes holding it
        # Per-transfer receiver state: staging slots, apply reservations,
        # applied/aborted tombstones.
        self._transfers = _Transfers()
        self._lock = threading.Lock()
        self.moves_out = 0
        self.moves_in = 0
        self.staging_reaped = 0

    # -- packing --------------------------------------------------------------

    def descriptor_for(self, obj: Any) -> ClassDescriptor:
        """The shippable definition of ``obj``'s class.

        A clone (arrived over the wire earlier) already has its descriptor
        cached; a native class is registered on first departure.
        """
        cls = type(obj)
        source_hash = getattr(cls, "__mage_source_hash__", None)
        if source_hash is not None:
            return self._classcache.descriptor(cls.__name__)
        return self._classcache.register_native(cls)

    def pack_state(self, obj: Any) -> tuple[bytes, ...]:
        """Marshal the heap state of ``obj``: its ``__getstate__()``.

        That is the state pickle would save (CPython 3.11+ gives every
        object the method): ``None`` for an object with no instance
        attributes, ``(dict or None, slots)`` for one with ``__slots__``,
        otherwise its ``__dict__`` or its class's own state.

        Returns the blob as its pieces in order
        (:func:`~repro.rmi.marshal.marshal_pieces`): each ``bytes`` of at
        least 64 KiB in the state is a piece of its own and is the
        object's own ``bytes``, not a copy; a mutable ``bytearray`` is
        copied, so changing it afterwards does not change the blob.  A
        single frame joins the pieces; a stream sends views of them.
        """
        return marshal_pieces(obj.__getstate__())

    def unpack(self, cls: type, state_blob: Blob) -> Any:
        """Rebuild an instance from migrated state, by pickle's rules.

        ``state_blob`` is anything :func:`~repro.rmi.marshal.unmarshal`
        reads: the blob, a view of it, its pieces from :meth:`pack_state`,
        or the segments of its staged chunks in order.  A ``None`` state
        sets nothing; a class's own ``__setstate__`` takes any other; a
        ``(dict, slots)`` pair updates ``__dict__`` and sets each slot.
        """
        obj = cls.__new__(cls)
        state = unmarshal(state_blob, self._stub_factory)
        if state is None:
            return obj
        setstate = getattr(obj, "__setstate__", None)
        if callable(setstate):
            setstate(state)
            return obj
        slots = None
        if isinstance(state, tuple) and len(state) == 2:
            state, slots = state
        if state:
            obj.__dict__.update(state)
        for attr, value in (slots or {}).items():
            setattr(obj, attr, value)
        return obj

    # -- sending side ------------------------------------------------------------

    def move_out(self, name: str, target: str, lock_token: str = "",
                 deadline: Deadline | None = None,
                 alternates: Sequence[str] = (),
                 tour: tuple[str, ...] | None = None) -> str:
        """Ship the locally hosted object ``name`` to ``target``.

        Returns the node the object landed on.  A move to the current
        namespace is a no-op (the stay case).  When the object's lock
        queue is active, the caller must present the current move-lock
        token.  ``deadline`` bounds the transfer (and defaults to the
        dispatch deadline when this runs on behalf of a remote
        MOVE_REQUEST, so the initiator's budget covers the transfer leg
        too).

        Small state ships as the paper's single OBJECT_TRANSFER frame;
        blobs at or above ``stream_threshold`` stream as staged chunks
        whose first opens the slot and whose last commits; one loop
        sends either (:meth:`_send`).  ``alternates`` names additional
        candidate targets for a **hedged write**: the stream goes to
        every candidate speculatively, the first to finish staging gets
        a TRANSFER_COMMIT (and becomes the returned location), and the
        losers are ABORTed before anything applied.  Sub-threshold objects
        ignore alternates — hedging a single small frame buys nothing.

        ``tour`` makes the move an agent's hop (module docstring): the
        stops still to visit after ``target``, carried in the transfer.
        """
        if target == self.node_id:
            # The stay case — but only a node actually hosting the object
            # may claim it stayed.  Hedged and remote MOVE_REQUESTs probe
            # nodes on (possibly stale) hints; answering "already here"
            # without owning the object would fake a successful move and
            # poison the requester's forwarding table.
            if not self._store.contains(name):
                raise NoSuchObjectError(name, self.node_id)
            return self.node_id
        deadline = effective_deadline(deadline)
        record = self._store.record(name)
        if record.pinned:
            raise ObjectPinnedError(
                f"object {name!r} is pinned to {self.node_id!r}"
            )
        if self._locks.has_activity(name) and not self._locks.holds_move_lock(
            name, lock_token
        ):
            raise LockError(
                f"moving {name!r} requires its move lock (object is contended)"
            )
        desc = self.descriptor_for(record.obj)
        pieces = self.pack_state(record.obj)
        candidates = [target]
        if sum(map(len, pieces)) >= self.stream_threshold:
            candidates = [node for node in dict.fromkeys((target, *alternates))
                          if node != self.node_id]
        heads = {node: self._head(name, record.shared, desc, pieces, node,
                                  deadline, tour)
                 for node in candidates}
        self._locks.begin_departure(name)
        try:
            winner = self._send(name, heads, pieces, deadline)
        except BaseException:
            self._locks.abort_departure(name)
            raise
        # Transfer acknowledged: now (and only now) evict the local copy.
        self._finish_departure(name, winner, desc)
        return winner

    def _finish_departure(self, name: str, target: str,
                          desc: ClassDescriptor) -> None:
        """Evict + forward after the target acknowledged the apply."""
        self._store.remove(name)
        self._registry.record_departure(name, target)
        self._locks.mark_moved(name, target)
        self._note_known(target, desc.source_hash)
        with self._lock:
            self.moves_out += 1

    def _head(self, name: str, shared: bool, desc: ClassDescriptor,
              pieces: Sequence[bytes], target: str,
              deadline: Deadline | None, tour: tuple[str, ...] | None
              ) -> ObjectTransfer | TransferPrepare:
        """A candidate's transfer head: the whole object in one frame, or
        the head its stream's chunk 0 carries."""
        head = dict(
            name=name,
            class_name=desc.class_name,
            class_desc=desc if self._must_ship(target, desc) else None,
            class_hash=desc.source_hash,
            origin=self.node_id,
            transfer_id=fresh_token("xfer"),
            shared=shared,
            tour=tour,
        )
        nbytes = sum(map(len, pieces))
        if nbytes < self.stream_threshold:
            return ObjectTransfer(state_blob=join_pieces(pieces), **head)
        ttl_ms = DEFAULT_STAGING_TTL_MS
        if deadline is not None:
            # The sender aborts (or is dead) once its budget lapses; the
            # slack covers the abort's own transit before the GC takes over.
            ttl_ms = min(ttl_ms, deadline.remaining_ms() + 1_000.0)
        return TransferPrepare(
            total_bytes=nbytes,
            chunk_count=max(1, -(-nbytes // self.chunk_bytes)),
            ttl_ms=ttl_ms,
            **head,
        )

    def _send(self, name: str,
              heads: dict[str, ObjectTransfer | TransferPrepare],
              pieces: Sequence[bytes], deadline: Deadline | None) -> str:
        """Send each candidate its frames; returns the first fully acked.

        One :class:`~repro.net.transport.race` carries every exchange, so
        a slow candidate never holds back a fast one.  Chunk 0's ack opens
        a streamed candidate's window (a chunk sent earlier could run
        before its staging slot exists); each later ack slides it on by
        one.  A lone candidate's committing chunk waits until every
        earlier chunk is acked, lest it overtake one on the receiver's
        worker pool; a hedge's first fully acked candidate gets a blocking
        TRANSFER_COMMIT.  The first candidate whose final frame is acked
        ``"ok"`` wins; the rest are cancelled, and ABORTed if they stream.
        A lone candidate's failure raises as its exchange raised it; with
        several, :class:`~repro.errors.MigrationError` chains the first.
        """
        flights = race(deadline)
        unacked = dict.fromkeys(heads, 0)  # live candidates' frames in flight
        lone = len(heads) == 1
        chunks = {  # each streamed candidate's chunks not yet sent
            target: self._chunks(head, pieces, commit=lone)
            for target, head in heads.items()
            if isinstance(head, TransferPrepare)}
        held: dict[str, TransferChunk] = {}  # committing chunks kept back
        failure: BaseException | None = None

        def send(target: str, kind: MessageKind, payload: Any) -> None:
            flights.add((target, payload), self._transport.call_async(
                self.node_id, target, kind, payload, deadline=deadline))
            unacked[target] += 1

        def feed(target: str, window: int) -> None:
            for chunk in islice(chunks[target], window):
                if chunk.commit is None:
                    send(target, MessageKind.TRANSFER_CHUNK, chunk)
                else:
                    held[target] = chunk
            if target in held and not unacked[target]:
                send(target, MessageKind.TRANSFER_CHUNK, held.pop(target))

        def drop(target: str, reason: str) -> None:
            del unacked[target]
            for future, (key, _frame) in list(flights.pending.items()):
                if key == target:
                    future.cancel(f"move of {name!r}: {reason}")
            if target not in chunks:
                return  # nothing is staged for a single frame
            try:  # the outcome is advisory: nobody waits for it
                self._transport.call_async(
                    self.node_id, target, MessageKind.TRANSFER_ABORT,
                    TransferAbort(transfer_id=heads[target].transfer_id,
                                  reason=reason))
            except Exception:
                pass  # the staging GC reaps what the abort cannot reach

        def check(target: str, ack: Any) -> None:
            if ack != "ok":
                raise MigrationError(
                    f"target {target!r} rejected transfer of {name!r}: {ack!r}")

        try:
            for target, head in heads.items():
                if target in chunks:
                    feed(target, 1)
                else:
                    send(target, MessageKind.OBJECT_TRANSFER, head)
            for (target, frame), future in flights:
                if target not in unacked:
                    continue  # a dropped candidate's straggler
                try:
                    check(target, future.result(0))
                    unacked[target] -= 1
                    if target in chunks:
                        feed(target, 1 if frame.prepare is None
                             else DEFAULT_STREAM_WINDOW)
                        if unacked[target]:
                            continue
                        if not lone:
                            check(target, self._transport.call(
                                self.node_id, target,
                                MessageKind.TRANSFER_COMMIT,
                                TransferCommit(
                                    transfer_id=heads[target].transfer_id,
                                    name=name),
                                deadline=deadline))
                except Exception as exc:
                    failure = failure or exc
                    drop(target, "transfer failed")
                    continue
                del unacked[target]
                for loser in list(unacked):
                    drop(loser, f"lost to {target!r}")
                return target
            if unacked:  # the deadline lapsed with frames in flight
                failure = failure or CallTimeoutError(
                    f"move of {name!r}: deadline expired in flight")
        finally:
            for target in list(unacked):
                drop(target, "move abandoned")
        if lone:
            raise failure
        raise MigrationError(
            f"move of {name!r} to {list(heads)} failed") from failure

    def _chunks(self, head: TransferPrepare, pieces: Sequence[bytes],
                commit: bool) -> Iterator[TransferChunk]:
        """Lazy chunk frames over views of ``pieces``: chunk 0 carries the
        stream's ``head``, and with ``commit`` the last carries its commit."""
        last = head.chunk_count - 1
        for index, data in enumerate(_chunk_payloads(pieces, self.chunk_bytes)):
            yield TransferChunk(
                transfer_id=head.transfer_id, index=index, data=data,
                prepare=head if index == 0 else None,
                commit=(TransferCommit(transfer_id=head.transfer_id,
                                       name=head.name)
                        if commit and index == last else None))

    def _must_ship(self, target: str, desc: ClassDescriptor) -> bool:
        with self._lock:
            return target not in self._known_at.get(desc.source_hash, set())

    def _note_known(self, node: str, source_hash: str) -> None:
        with self._lock:
            self._known_at.setdefault(source_hash, set()).add(node)

    # -- receiving side --------------------------------------------------------------

    def receive(self, transfer: ObjectTransfer) -> str:
        """Handle an incoming single-frame OBJECT_TRANSFER; returns ``"ok"``.

        The frame opens and commits its transfer at once: it goes through
        the same door as a commit (:meth:`_apply`).
        """
        return self._apply(transfer.transfer_id,
                           lambda: (transfer, transfer.state_blob))

    def _apply(self, transfer_id: str, claim: Callable[
            [], tuple[ObjectTransfer | TransferPrepare, Blob]]) -> str:
        """Materialize an arrived object; the single door into the store.

        Idempotent per ``transfer_id`` so a retransmitted transfer (lost
        ack) cannot materialize two copies.  The id is **reserved on
        entry** (and the reservation released on failure): two concurrent
        retransmissions of one transfer converge on a single apply — the
        loser waits for the winner's outcome instead of racing it through
        the unpack/store window, which used to allow a double-apply.
        ``claim`` then yields the transfer's head (the frame that carried
        its class and name) and its state blob.

        A touring arrival goes to :attr:`tour_hook` once it is in the
        store; a namespace without one refuses the transfer before
        anything materializes, so the agent stays with its sender.  An
        arrival of an object still departing from here waits for that
        departure to end (:meth:`LockManager.wait_departed`).
        """
        if not self._transfers.begin_apply(transfer_id):
            return "ok"
        try:
            head, blob = claim()
            obj = self.unpack(self._class_for(head), blob)
            name, tour = head.name, head.tour
            if tour is not None and self.tour_hook is None:
                raise MageError(f"node {self.node_id!r} accepts no agents")
            if not self._locks.wait_departed(name, effective_deadline(None)):
                raise MigrationError(
                    f"{name!r} is still departing {self.node_id!r}"
                )
            self._store.add(name, obj, shared=head.shared)
            self._registry.record_arrival(name)
            self._locks.mark_arrived(name)
            self._transfers.record_applied(transfer_id)
            with self._lock:
                self.moves_in += 1
            if tour is not None:
                self.tour_hook(name, tour)
        finally:
            self._transfers.end_apply(transfer_id)
        return "ok"

    # -- receiving side: streamed transfers -------------------------------------

    def staging_count(self) -> int:
        """How many streamed transfers are currently staged (diagnostics)."""
        return self._transfers.staging_count()

    def reap_staging(self) -> int:
        """Drop staging entries whose TTL lapsed; returns how many died.

        The orphan GC: a sender that vanished mid-stream (or whose ABORT
        was lost) must not leak its staged bytes forever.  Runs
        opportunistically on every staging interaction and is callable
        directly (tests, periodic sweeps).
        """
        dead = self._transfers.reap(time.monotonic())
        if dead:
            with self._lock:
                self.staging_reaped += dead
        return dead

    def receive_chunk(self, chunk: TransferChunk) -> str:
        """Stage one streamed slice.  A carried head opens the slot first;
        a carried commit applies the transfer after, so the ack is the
        apply's outcome (a retransmission re-acks ``"ok"``)."""
        if chunk.prepare is not None:
            self.reap_staging()
            self._transfers.stage(chunk.prepare, self.node_id)
        self._transfers.add_chunk(chunk, self.node_id)
        if chunk.commit is not None:
            return self.commit(chunk.commit)
        return "ok"

    def commit(self, commit: TransferCommit) -> str:
        """Atomically apply a fully staged transfer.

        Verifies completeness against the head's chunk count and byte
        total, unpacks, and registers — the first moment the object is
        observable at this node.  Idempotent per ``transfer_id`` (a
        retransmitted commit re-acks); a commit of an incomplete or
        unknown staging raises, leaving the source's copy authoritative.
        """
        def claim() -> tuple[TransferPrepare, Blob]:
            entry = self._transfers.claim_commit(commit, self.node_id)
            return entry.prepare, entry.pieces()

        return self._apply(commit.transfer_id, claim)

    def abort(self, ab: TransferAbort) -> str:
        """Discard a staged transfer; refused once it committed.

        Leaves a tombstone: transfer ids are single-use, so any frame of
        this transfer still in flight (or queued behind a stall) is
        refused when it eventually dispatches — a chunk 0 executing
        *after* its ABORT must not resurrect an orphan staging entry.

        An abort racing an **in-flight commit** (the sender's commit call
        timed out mid-apply and its failure path sent the abort) waits
        for that apply's outcome instead of answering from the gap: the
        commit claims the staging entry before it unpacks, so a same-
        instant abort would otherwise see "no staging, not yet seen" and
        ack an abort of an object that is about to materialize — the
        exact two-copies split the refusal below exists to prevent.
        """
        self._transfers.abort(ab, self.node_id)
        return "ok"

    def _class_for(self, transfer) -> type:
        """Resolve the class for an arrival (ObjectTransfer or TransferPrepare)."""
        if transfer.class_desc is not None:
            return self._classcache.load(transfer.class_desc)
        if self._classcache.has_hash(transfer.class_hash):
            return self._classcache.clone_by_hash(transfer.class_hash)
        # Sender trusted a cache we no longer have: pull from the origin.
        desc = self._transport.call(
            self.node_id,
            transfer.origin,
            MessageKind.CLASS_REQUEST,
            ClassRequest(class_name=transfer.class_name),
        )
        if not isinstance(desc, ClassDescriptor):
            raise ClassTransferError(
                f"origin {transfer.origin!r} returned no descriptor "
                f"for {transfer.class_name!r}"
            )
        return self._classcache.load(desc)
