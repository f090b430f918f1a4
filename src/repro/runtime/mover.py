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

Step 2 has two wire shapes.  Small objects ship as the paper's single
``OBJECT_TRANSFER`` frame — the fast path, and the exact message the
figure benches trace.  State blobs at or above ``stream_threshold``
stream as a **two-phase pipeline** instead:

``TRANSFER_PREPARE``
    reserves a staging slot at the receiver (idempotent per
    ``transfer_id``); nothing touches the hot store.
``TRANSFER_CHUNK`` × N
    windowed, pipelined slices of the marshalled state
    (:meth:`Transport.stream`), each a zero-copy ``memoryview`` view of
    the blob on the send path.  Chunks accumulate in the staging slot
    in the form they arrived in — views of their received frames — and
    COMMIT unpickles from that sequence without joining it.
``TRANSFER_COMMIT``
    atomically verifies completeness, unpacks, registers, and acks; only
    now does the object exist at the target, and only on this ack does
    the source evict.  Idempotent per ``transfer_id``.
``TRANSFER_ABORT``
    discards the staging slot (explicit on stream failure, from a hedged
    write's loser, or implicitly when the staging GC reaps an orphan
    whose TTL lapsed).  Refused after a commit — the object materialized.

Because apply is deferred to COMMIT, a partially streamed transfer can
never materialize a half-built object, and the same property makes
**hedged writes** safe: :meth:`Mover.move_out` with ``alternates`` streams
PREPARE+CHUNKs speculatively to several candidate targets, COMMITs the
first to finish staging, and ABORTs the losers before anything applied.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.errors import (
    ClassTransferError,
    LockError,
    MigrationError,
    NoSuchObjectError,
    ObjectPinnedError,
)
from repro.net.deadline import Deadline, effective_deadline
from repro.net.message import MessageKind
from repro.net.transport import CallFuture, Transport
from repro.rmi.classdesc import ClassDescriptor, describe_class
from repro.rmi.marshal import Blob, StubFactory, marshal, unmarshal
from repro.rmi.protocol import (
    ClassPush,
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

#: State blobs at or above this many bytes stream as chunked two-phase
#: transfers; below it the paper's single OBJECT_TRANSFER frame ships
#: (keeping every figure bench's traces byte-identical).
DEFAULT_STREAM_THRESHOLD = 256 * 1024

#: One TRANSFER_CHUNK's slice of the marshalled state.
DEFAULT_CHUNK_BYTES = 256 * 1024

#: How many chunk frames a plain streamed transfer keeps outstanding.
DEFAULT_STREAM_WINDOW = 8

#: How long an orphaned staging entry survives without its COMMIT before
#: the staging GC reaps it (senders with a deadline shorten this to their
#: remaining budget plus slack).
DEFAULT_STAGING_TTL_MS = 30_000.0


def _zero_copy_slice(view: memoryview, start: int, end: int) -> Any:
    """A chunk payload over ``view[start:end]`` that never copies on send.

    A plain ``memoryview`` slice: :class:`TransferChunk.__reduce__` wraps
    it in a transient ``pickle.PickleBuffer`` at dump time, which protocol
    5 serializes in-band straight from the original blob — so chunking an
    8 MB state costs zero intermediate copies on the send path.
    """
    return view[start:end]


@dataclass
class _StagedTransfer:
    """One in-flight streamed transfer at the receiver, keyed off the hot
    store: chunks accumulate here and nothing is observable until COMMIT."""

    prepare: TransferPrepare
    expires_at: float                       # monotonic reap point
    chunks: "dict[int, bytes | memoryview]" = field(default_factory=dict)
    received_bytes: int = 0


#: Stripe count for per-transfer receiver state.  Concurrent streamed
#: transfers arrive on the transport's bulk worker pool; a mover-wide
#: lock would serialize their chunk accumulation against each other (and
#: against single-frame applies), so transfers stripe by id hash.
_TRANSFER_SHARDS = 8

#: Dedup tombstones kept per shard (applied and aborted ids each);
#: totals match the previous mover-wide 4096 cap.
_TOMBSTONE_CAP = 4096 // _TRANSFER_SHARDS


class _TransferShard:
    """One stripe of the mover's per-transfer state: own lock, own dicts.

    A transfer id lives wholly in one shard, so every cross-check the
    protocol depends on — PREPARE against the abort tombstones, COMMIT
    against the staging slot, ABORT against an in-flight apply — still
    happens under a single lock; just not the same lock as every *other*
    transfer's.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._staging: dict[str, _StagedTransfer] = {}
        self._applying: dict[str, threading.Event] = {}
        self._seen: set[str] = set()
        self._seen_order: deque[str] = deque()
        self._aborted: set[str] = set()
        self._aborted_order: deque[str] = deque()

    def begin_apply(self, transfer_id: str) -> None:
        """Reserve ``transfer_id`` for this thread's apply (single-flight)."""
        while True:
            with self._lock:
                if transfer_id in self._seen:
                    raise _AlreadyApplied()
                event = self._applying.get(transfer_id)
                if event is None:
                    self._applying[transfer_id] = threading.Event()
                    return
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
                return  # already committed; a late PREPARE retransmission
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
        """Stage ``chunk.data`` as it arrived, within the PREPARE's bounds.

        A staged view pins the frame it arrived in, so a stream must not
        be able to stage more than it declared: an index outside the
        PREPARE's chunk count, or data past its byte total, is refused
        here rather than at COMMIT.
        """
        data = chunk.data
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise MigrationError(
                f"transfer {chunk.transfer_id!r}: chunk {chunk.index} "
                f"carries {type(data).__name__}, not bytes"
            )
        with self._lock:
            if chunk.transfer_id in self._seen:
                return  # committed already; late retransmission
            entry = self._staging.get(chunk.transfer_id)
            if entry is None:
                raise MigrationError(
                    f"no staged transfer {chunk.transfer_id!r} at "
                    f"{node_id!r} (PREPARE missing, aborted, or reaped)"
                )
            if chunk.index in entry.chunks:
                return  # retransmitted chunk
            prep = entry.prepare
            if not 0 <= chunk.index < prep.chunk_count:
                raise MigrationError(
                    f"transfer {chunk.transfer_id!r}: chunk index "
                    f"{chunk.index} outside its {prep.chunk_count} chunks"
                )
            if entry.received_bytes + len(data) > prep.total_bytes:
                raise MigrationError(
                    f"transfer {chunk.transfer_id!r}: chunk {chunk.index} "
                    f"({len(data)} bytes) overruns its {prep.total_bytes} "
                    f"bytes ({entry.received_bytes} staged)"
                )
            entry.chunks[chunk.index] = data
            entry.received_bytes += len(data)

    def claim_commit(self, commit: TransferCommit,
                     node_id: str) -> _StagedTransfer:
        """Verify completeness and take ownership of the staging entry."""
        with self._lock:
            entry = self._staging.get(commit.transfer_id)
            if entry is None:
                raise MigrationError(
                    f"cannot commit unknown transfer {commit.transfer_id!r} "
                    f"at {node_id!r} (never prepared, aborted, or reaped)"
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
        always_ship_class: bool = False,
        probe_classes: bool = False,
        stream_threshold: int = DEFAULT_STREAM_THRESHOLD,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        stream_window: int = DEFAULT_STREAM_WINDOW,
        staging_ttl_ms: float = DEFAULT_STAGING_TTL_MS,
    ) -> None:
        self.node_id = node_id
        self._store = store
        self._classcache = classcache
        self._registry = registry
        self._locks = locks
        self._transport = transport
        self._stub_factory = stub_factory
        #: Ablation knob: ship the full class body on every move instead of
        #: trusting the receiver's cache.
        self.always_ship_class = always_ship_class
        #: Overlap a remote class-cache probe with state packing before a
        #: transfer to a target this mover has never shipped the class to.
        #: A hit (the target got the class from a third node) saves the
        #: class body on the wire; the probe's round trip hides behind the
        #: marshalling work.  Off by default: the probe adds a message, and
        #: the figure benches pin the paper's exact sequences.
        self.probe_classes = probe_classes
        #: Streaming knobs (see module docstring); ``stream_threshold`` of
        #: ``None``/huge effectively forces the monolithic fast path.
        self.stream_threshold = stream_threshold
        self.chunk_bytes = chunk_bytes
        self.stream_window = stream_window
        self.staging_ttl_ms = staging_ttl_ms
        self._known_at: dict[str, set[str]] = {}  # source_hash -> nodes holding it
        # Per-transfer receiver state (staging slots, apply reservations,
        # applied/aborted tombstones) stripes by transfer-id hash; see
        # :class:`_TransferShard` for why ids never cross stripes.
        self._shards = tuple(
            _TransferShard() for _ in range(_TRANSFER_SHARDS)
        )
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

    def pack_state(self, obj: Any) -> bytes:
        """Marshal the heap state of ``obj`` (honours ``__getstate__``)."""
        getstate = getattr(obj, "__getstate__", None)
        state = getstate() if callable(getstate) else dict(obj.__dict__)
        return marshal(state)

    def unpack(self, cls: type, state_blob: Blob) -> Any:
        """Rebuild an instance from migrated state (honours ``__setstate__``).

        ``state_blob`` is anything :func:`~repro.rmi.marshal.unmarshal`
        reads: the blob, a view of it, or its staged chunks in order.
        """
        obj = cls.__new__(cls)
        state = unmarshal(state_blob, self._stub_factory)
        setstate = getattr(obj, "__setstate__", None)
        if callable(setstate):
            setstate(state)
        else:
            obj.__dict__.update(state)
        return obj

    # -- sending side ------------------------------------------------------------

    def move_out(self, name: str, target: str, lock_token: str = "",
                 deadline: Deadline | None = None,
                 alternates: Sequence[str] = ()) -> str:
        """Ship the locally hosted object ``name`` to ``target``.

        Returns the node the object landed on.  A move to the current
        namespace is a no-op (the stay case).  When the object's lock
        queue is active, the caller must present the current move-lock
        token.  ``deadline`` bounds the transfer (and defaults to the
        dispatch deadline when this runs on behalf of a remote
        MOVE_REQUEST, so the initiator's budget covers the transfer leg
        too).

        Small state ships as the paper's single OBJECT_TRANSFER frame;
        blobs at or above ``stream_threshold`` stream as the two-phase
        PREPARE/CHUNK/COMMIT pipeline.  ``alternates`` names additional
        candidate targets for a **hedged write**: the stream goes to
        every candidate speculatively, the first to finish staging gets
        the COMMIT (and becomes the returned location), and the losers
        are ABORTed before anything applied.  Sub-threshold objects
        ignore alternates — hedging a single small frame buys nothing.
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
        probe = self.begin_class_probe(target, desc)
        state_blob = self.pack_state(record.obj)  # overlaps the probe's round trip
        ship_class = self.resolve_class_probe(probe, target, desc)
        if len(state_blob) >= self.stream_threshold:
            candidates = [target]
            for alt in alternates:
                if alt not in candidates and alt != self.node_id:
                    candidates.append(alt)
            return self._move_out_streamed(
                name, record.shared, desc, state_blob, ship_class,
                candidates, deadline,
            )
        transfer = ObjectTransfer(
            name=name,
            class_name=desc.class_name,
            state_blob=state_blob,
            class_desc=desc if ship_class else None,
            class_hash=desc.source_hash,
            origin=self.node_id,
            transfer_id=fresh_token("xfer"),
            shared=record.shared,
        )
        self._locks.begin_departure(name)
        try:
            ack = self._transport.call(
                self.node_id, target, MessageKind.OBJECT_TRANSFER, transfer,
                deadline=deadline,
            )
        except BaseException:
            self._locks.abort_departure(name)
            raise
        if ack != "ok":
            self._locks.abort_departure(name)
            raise MigrationError(
                f"target {target!r} rejected transfer of {name!r}: {ack!r}"
            )
        # Transfer acknowledged: now (and only now) evict the local copy.
        self._finish_departure(name, target, desc)
        return target

    def _finish_departure(self, name: str, target: str,
                          desc: ClassDescriptor) -> None:
        """Evict + forward after the target acknowledged the apply."""
        self._store.remove(name)
        self._registry.record_departure(name, target)
        self._locks.mark_moved(name, target)
        self._note_known(target, desc.source_hash)
        with self._lock:
            self.moves_out += 1

    # -- streamed sending ------------------------------------------------------

    def _prepare_for(self, name: str, shared: bool, desc: ClassDescriptor,
                     nbytes: int, chunk_count: int, ship_class: bool,
                     deadline: Deadline | None) -> TransferPrepare:
        ttl_ms = self.staging_ttl_ms
        if deadline is not None:
            # The sender aborts (or is dead) once its budget lapses; the
            # slack covers the abort's own transit before the GC takes over.
            ttl_ms = min(ttl_ms, deadline.remaining_ms() + 1_000.0)
        return TransferPrepare(
            name=name,
            class_name=desc.class_name,
            class_desc=desc if ship_class else None,
            class_hash=desc.source_hash,
            origin=self.node_id,
            transfer_id=fresh_token("xfer"),
            total_bytes=nbytes,
            chunk_count=chunk_count,
            shared=shared,
            ttl_ms=ttl_ms,
        )

    def _chunk_requests(
        self, transfer_id: str, view: memoryview
    ) -> Iterator[tuple[MessageKind, TransferChunk]]:
        """Lazy ``(kind, payload)`` chunk stream over a zero-copy view."""
        for index, start in enumerate(range(0, len(view), self.chunk_bytes)):
            end = min(start + self.chunk_bytes, len(view))
            yield (
                MessageKind.TRANSFER_CHUNK,
                TransferChunk(
                    transfer_id=transfer_id,
                    index=index,
                    data=_zero_copy_slice(view, start, end),
                ),
            )

    def _chunk_count(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.chunk_bytes))

    def _abort_remote(self, target: str, transfer_id: str, reason: str) -> None:
        """Best-effort TRANSFER_ABORT; never blocks on a sick target."""
        try:
            future = self._transport.call_async(
                self.node_id, target, MessageKind.TRANSFER_ABORT,
                TransferAbort(transfer_id=transfer_id, reason=reason),
            )
            future.add_done_callback(lambda _f: None)  # outcome is advisory
        except Exception:
            pass  # the staging GC reaps what the abort cannot reach

    def _move_out_streamed(self, name: str, shared: bool,
                           desc: ClassDescriptor, state_blob: bytes,
                           ship_class: bool, targets: Sequence[str],
                           deadline: Deadline | None) -> str:
        """Two-phase streamed transfer; hedged when several targets given."""
        if len(targets) > 1:
            return self._move_out_hedged(name, shared, desc, state_blob,
                                         targets, deadline)
        target = targets[0]
        chunk_count = self._chunk_count(len(state_blob))
        prep = self._prepare_for(name, shared, desc, len(state_blob),
                                 chunk_count, ship_class, deadline)
        self._locks.begin_departure(name)
        try:
            self._transport.call(
                self.node_id, target, MessageKind.TRANSFER_PREPARE, prep,
                deadline=deadline,
            )
            self._transport.stream(
                self.node_id, target,
                self._chunk_requests(prep.transfer_id, memoryview(state_blob)),
                window=self.stream_window, deadline=deadline,
            )
            ack = self._transport.call(
                self.node_id, target, MessageKind.TRANSFER_COMMIT,
                TransferCommit(transfer_id=prep.transfer_id, name=name),
                deadline=deadline,
            )
        except BaseException:
            # The object never applied (apply is COMMIT-gated), so it
            # stays here; tell the target to drop its staging entry.
            self._locks.abort_departure(name)
            self._abort_remote(target, prep.transfer_id, "stream failed")
            raise
        if ack != "ok":
            self._locks.abort_departure(name)
            self._abort_remote(target, prep.transfer_id, f"bad ack {ack!r}")
            raise MigrationError(
                f"target {target!r} rejected transfer of {name!r}: {ack!r}"
            )
        self._finish_departure(name, target, desc)
        return target

    def _move_out_hedged(self, name: str, shared: bool, desc: ClassDescriptor,
                         state_blob: bytes, targets: Sequence[str],
                         deadline: Deadline | None) -> str:
        """Speculative streams to every candidate; first staged wins.

        PREPARE and every CHUNK go to all candidates (distinct
        ``transfer_id`` each, chunks interleaved round-robin, all frames
        zero-copy views of one blob).  Candidates race to finish staging:
        the first whose every frame is acked gets the COMMIT and becomes
        the object's new host; the losers' outstanding exchanges are
        cancelled and their staging ABORTed.  Safe precisely because
        nothing applies before COMMIT — at most one candidate ever
        materializes the object.  Falls back through the completion order
        if the leader's COMMIT fails; raises
        :class:`~repro.errors.MigrationError` when every candidate fails
        or the deadline lapses first.
        """
        ranked = self._transport.rank_by_latency(list(targets))
        preps: dict[str, TransferPrepare] = {}
        chunk_count = self._chunk_count(len(state_blob))
        view = memoryview(state_blob)
        self._locks.begin_departure(name)
        futures: dict[str, list[CallFuture]] = {}
        try:
            for target in ranked:
                ship_class = self._must_ship(target, desc)
                preps[target] = self._prepare_for(
                    name, shared, desc, len(state_blob), chunk_count,
                    ship_class, deadline,
                )
            # Scatter every frame speculatively: PREPARE first, then the
            # chunk streams interleaved round-robin so no candidate waits
            # for another's bytes.  No windowing here — hedging trades the
            # window's backpressure for never letting a slow candidate
            # throttle the fast one, and the frames are zero-copy views so
            # sender memory stays flat.
            for target in ranked:
                futures[target] = [self._transport.call_async(
                    self.node_id, target, MessageKind.TRANSFER_PREPARE,
                    preps[target], deadline=deadline,
                )]
            for request_pair in zip(*(
                list(self._chunk_requests(preps[t].transfer_id, view))
                for t in ranked
            )):
                for target, (kind, payload) in zip(ranked, request_pair):
                    futures[target].append(self._transport.call_async(
                        self.node_id, target, kind, payload, deadline=deadline,
                    ))
            winner = self._commit_first_staged(
                name, ranked, preps, futures, deadline,
            )
        except BaseException:
            self._locks.abort_departure(name)
            for target, prep in preps.items():
                for future in futures.get(target, ()):
                    if not future.done():
                        future.cancel("hedged write abandoned")
                self._abort_remote(target, prep.transfer_id, "hedge aborted")
            raise
        self._finish_departure(name, winner, desc)
        return winner

    def _commit_first_staged(self, name: str, ranked: Sequence[str],
                             preps: dict[str, TransferPrepare],
                             futures: dict[str, list[CallFuture]],
                             deadline: Deadline | None) -> str:
        """Collect staging acks in completion order; COMMIT the first full
        set, ABORT everyone else.  Raises when nobody stages in budget."""
        completions: "queue.Queue[tuple[str, CallFuture]]" = queue.Queue()
        remaining = {t: set(fs) for t, fs in futures.items()}
        alive = set(ranked)
        for target, fs in futures.items():
            for future in fs:
                future.add_done_callback(
                    lambda f, t=target: completions.put((t, f)))
        failure: Exception | None = None
        while alive:
            wait_s = None
            if deadline is not None:
                wait_s = deadline.remaining_s()
                if wait_s <= 0:
                    break
            pending = [f for t in alive for f in remaining[t]]
            bounds = [f._wait_bound_s() for f in pending]
            if bounds and all(b is not None for b in bounds):
                cap = max(bounds) + 0.05
                wait_s = cap if wait_s is None else min(wait_s, cap)
            try:
                target, future = completions.get(timeout=wait_s)
            except queue.Empty:
                if deadline is not None and deadline.expired:
                    break
                for f in pending:  # out-waited their own transport bound
                    if not f.done():
                        f.cancel("hedged write: transport bound exhausted")
                continue
            if target not in alive:
                continue
            if future.exception(0) is not None:
                # One frame failed: this candidate's stream is dead.  Cut
                # its remaining exchanges loose and drop its partial
                # staging now rather than leaving it to the TTL reaper.
                failure = failure or future.exception(0)
                alive.discard(target)
                for straggler in remaining[target]:
                    straggler.cancel("hedged write: a sibling frame failed")
                self._abort_remote(target, preps[target].transfer_id,
                                   "stream failed")
                continue
            remaining[target].discard(future)
            if remaining[target]:
                continue
            # Fully staged: commit this candidate, abort the rest.
            try:
                ack = self._transport.call(
                    self.node_id, target, MessageKind.TRANSFER_COMMIT,
                    TransferCommit(transfer_id=preps[target].transfer_id,
                                   name=name),
                    deadline=deadline,
                )
            except Exception as exc:
                failure = failure or exc
                alive.discard(target)
                self._abort_remote(target, preps[target].transfer_id,
                                   "commit failed")
                continue
            if ack != "ok":
                failure = failure or MigrationError(
                    f"target {target!r} rejected commit of {name!r}: {ack!r}"
                )
                alive.discard(target)
                self._abort_remote(target, preps[target].transfer_id,
                                   f"bad ack {ack!r}")
                continue
            for loser in alive:
                if loser == target:
                    continue
                for future in remaining[loser]:
                    future.cancel(f"hedged write: {target!r} staged first")
                self._abort_remote(loser, preps[loser].transfer_id,
                                   f"lost the hedge to {target!r}")
            return target
        for target in alive:  # deadline lapsed with candidates mid-stream
            for future in remaining[target]:
                future.cancel("hedged write: deadline expired")
            self._abort_remote(target, preps[target].transfer_id,
                               "deadline expired")
        if failure is not None:
            raise MigrationError(
                f"hedged write of {name!r} to {list(ranked)} failed"
            ) from failure
        raise MigrationError(
            f"hedged write of {name!r}: deadline expired before any of "
            f"{list(ranked)} finished staging"
        )

    def _must_ship(self, target: str, desc: ClassDescriptor) -> bool:
        if self.always_ship_class:
            return True
        with self._lock:
            return target not in self._known_at.get(desc.source_hash, set())

    def _note_known(self, node: str, source_hash: str) -> None:
        with self._lock:
            self._known_at.setdefault(source_hash, set()).add(node)

    def begin_class_probe(self, target: str,
                          desc: ClassDescriptor) -> CallFuture | None:
        """Start the class-cache probe that overlaps with state packing.

        Returns ``None`` when no probe is worth sending (probing disabled,
        always-ship ablation, local move, or this mover already shipped
        the class there).  Otherwise the returned future's round trip runs
        while the caller marshals the object's state; hand it to
        :meth:`resolve_class_probe` for the ship/skip decision.
        """
        if not self.probe_classes or self.always_ship_class or target == self.node_id:
            return None
        with self._lock:
            if target in self._known_at.get(desc.source_hash, set()):
                return None
        return self._transport.call_async(
            self.node_id, target, MessageKind.CLASS_TRANSFER,
            ClassPush(class_name=desc.class_name, source_hash=desc.source_hash),
        )

    def resolve_class_probe(self, probe: CallFuture | None, target: str,
                            desc: ClassDescriptor) -> bool:
        """Whether the class body must ship, once packing has finished."""
        if probe is None:
            return self._must_ship(target, desc)
        try:
            have = bool(probe.result())
        except Exception:
            # An unreachable target fails the transfer itself in a moment;
            # fall back to local knowledge rather than failing early here.
            return self._must_ship(target, desc)
        if have:
            self._note_known(target, desc.source_hash)
        return not have

    # -- receiving side --------------------------------------------------------------

    def receive(self, transfer: ObjectTransfer) -> str:
        """Handle an incoming single-frame OBJECT_TRANSFER; returns ``"ok"``.

        Idempotent per ``transfer_id`` so a retransmitted transfer (lost
        ack) cannot materialize two copies.  The id is **reserved on
        entry** (and the reservation released on failure): two concurrent
        retransmissions of one transfer converge on a single apply — the
        loser waits for the winner's outcome instead of racing it through
        the unpack/store window, which used to allow a double-apply.
        """
        shard = self._xfer_shard(transfer.transfer_id)
        try:
            shard.begin_apply(transfer.transfer_id)
        except _AlreadyApplied:
            return "ok"
        try:
            cls = self._class_for(transfer)
            obj = self.unpack(cls, transfer.state_blob)
            self._apply(transfer.name, obj, transfer.shared,
                        transfer.transfer_id)
        finally:
            shard.end_apply(transfer.transfer_id)
        return "ok"

    def _xfer_shard(self, transfer_id: str) -> _TransferShard:
        return self._shards[hash(transfer_id) % _TRANSFER_SHARDS]

    def _apply(self, name: str, obj: Any, shared: bool, transfer_id: str) -> None:
        """Materialize an arrived object; the single door into the store."""
        self._store.add(name, obj, shared=shared)
        self._registry.record_arrival(name)
        self._locks.mark_arrived(name)
        self._xfer_shard(transfer_id).record_applied(transfer_id)
        with self._lock:
            self.moves_in += 1

    # -- receiving side: streamed transfers -------------------------------------

    def staging_count(self) -> int:
        """How many streamed transfers are currently staged (diagnostics)."""
        return sum(shard.staging_count() for shard in self._shards)

    def reap_staging(self) -> int:
        """Drop staging entries whose TTL lapsed; returns how many died.

        The orphan GC: a sender that vanished mid-stream (or whose ABORT
        was lost) must not leak its staged bytes forever.  Runs
        opportunistically on every staging interaction and is callable
        directly (tests, periodic sweeps).
        """
        now = time.monotonic()
        dead = sum(shard.reap(now) for shard in self._shards)
        if dead:
            with self._lock:
                self.staging_reaped += dead
        return dead

    def prepare(self, prep: TransferPrepare) -> str:
        """Reserve a staging slot (phase one); idempotent per transfer id."""
        self.reap_staging()
        self._xfer_shard(prep.transfer_id).stage(prep, self.node_id)
        return "ok"

    def receive_chunk(self, chunk: TransferChunk) -> str:
        """Accumulate one streamed slice in its staging slot."""
        self._xfer_shard(chunk.transfer_id).add_chunk(chunk, self.node_id)
        return "ok"

    def commit(self, commit: TransferCommit) -> str:
        """Atomically apply a fully staged transfer (phase two).

        Verifies completeness against the PREPARE's chunk count and byte
        total, unpacks, and registers — the first moment the object is
        observable at this node.  Idempotent per ``transfer_id`` (a
        retransmitted COMMIT re-acks); a commit of an incomplete or
        unknown staging raises, leaving the source's copy authoritative.
        """
        shard = self._xfer_shard(commit.transfer_id)
        try:
            shard.begin_apply(commit.transfer_id)
        except _AlreadyApplied:
            return "ok"
        try:
            entry = shard.claim_commit(commit, self.node_id)
            prep = entry.prepare
            cls = self._class_for(prep)
            obj = self.unpack(
                cls, [entry.chunks[i] for i in range(prep.chunk_count)]
            )
            self._apply(prep.name, obj, prep.shared, commit.transfer_id)
        finally:
            shard.end_apply(commit.transfer_id)
        return "ok"

    def abort(self, ab: TransferAbort) -> str:
        """Discard a staged transfer; refused once it committed.

        Leaves a tombstone: transfer ids are single-use, so any frame of
        this transfer still in flight (or queued behind a stall) is
        refused when it eventually dispatches — a PREPARE executing
        *after* its ABORT must not resurrect an orphan staging entry.

        An abort racing an **in-flight COMMIT** (the sender's commit call
        timed out mid-apply and its failure path sent the abort) waits
        for that apply's outcome instead of answering from the gap: the
        commit claims the staging entry before it unpacks, so a same-
        instant abort would otherwise see "no staging, not yet seen" and
        ack an abort of an object that is about to materialize — the
        exact two-copies split the refusal below exists to prevent.
        """
        self._xfer_shard(ab.transfer_id).abort(ab, self.node_id)
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


class _AlreadyApplied(Exception):
    """Internal: the transfer id already applied (dedup hit)."""
