"""Wire payload vocabulary.

Every :class:`~repro.net.message.Message` carries one of these dataclasses.
They are deliberately dumb records: all behaviour lives in the services that
exchange them.  Binary fields (``*_blob``) hold marshalled data produced by
:mod:`repro.rmi.marshal`, so arguments and object state cross namespaces
**by value** even on the in-process simulated network — the semantics a real
wire would impose.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# RMI substrate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvokeRequest:
    """Invoke ``method`` on the servant bound as ``name`` at the target node."""

    name: str
    method: str
    args_blob: bytes  # marshalled (args, kwargs); a view of the frame when large


@dataclass(frozen=True)
class LookupRequest:
    """``Naming.lookup``: resolve ``name`` in the target node's RMI registry."""

    name: str


@dataclass(frozen=True)
class BindRequest:
    """``Naming.bind``/``rebind``: publish a remote reference under ``name``."""

    name: str
    ref: "object"  # a repro.rmi.stub.RemoteRef (kept loose to avoid a cycle)
    replace: bool = False


@dataclass(frozen=True)
class UnbindRequest:
    """``Naming.unbind``: remove the binding for ``name``."""

    name: str


@dataclass(frozen=True)
class ListRequest:
    """``Naming.list_bindings``: enumerate bound names."""


# ---------------------------------------------------------------------------
# MAGE runtime
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FindRequest:
    """Forwarding-chain walk: where does ``name`` live now?

    ``hops`` carries the nodes visited so far — both a cycle guard and the
    list of registries whose forwarding addresses get collapsed onto the
    final location when the answer propagates back (paper §4.1).
    ``origin_hint`` names the component's origin server (§7: clients share
    "the name of the mobile object's origin server"), consulted when a
    registry has no forwarding information of its own.

    ``verify=False`` lets the *first* (local) registry answer straight from
    its forwarding table without walking the chain — the fast path behind
    the paper's observation that the RPC attribute is "a very thin wrapper
    of a standard RMI call".  A stale answer then surfaces as
    ``NoSuchObjectError`` at invocation time, after which callers re-find
    with ``verify=True``.  Chain hops always verify (a walk terminates only
    at the node actually hosting the component).
    """

    name: str
    hops: tuple[str, ...] = ()
    origin_hint: str = ""
    verify: bool = True


@dataclass(frozen=True)
class MoveRequest:
    """Ask the node currently hosting ``name`` to ship it to ``target``.

    ``lock_token`` proves the requester holds the object's move lock when
    locking is in force (empty string when the caller runs unlocked).

    ``alternates`` names additional acceptable targets for a **hedged
    write**: a host shipping a large (streamed) object may stream it
    speculatively to ``target`` and every alternate, commit whichever
    finishes staging first, and abort the rest — the reply then names the
    target that actually won.  Empty (the default) keeps the paper's
    single-target semantics exactly.
    """

    name: str
    target: str
    lock_token: str = ""
    alternates: tuple[str, ...] = ()


@dataclass(frozen=True)
class ObjectTransfer:
    """Host → target: a weakly-migrated object.

    Weak migration ships heap state only (paper §3.5): the class descriptor
    plus the marshalled ``__dict__``/``__getstate__`` of the instance.  The
    class descriptor may be omitted when the sender believes the receiver
    caches the class (``class_hash`` lets the receiver validate; a cache
    miss makes it pull the class from ``origin``).
    """

    name: str
    class_name: str
    state_blob: bytes            # a view of the frame it arrived in when large
    class_desc: "object | None"  # repro.rmi.classdesc.ClassDescriptor | None
    class_hash: str
    origin: str                  # node the object departed
    transfer_id: str             # dedup token: retries must not double-apply
    shared: bool = True          # public (lockable) vs private object


@dataclass(frozen=True)
class TransferPrepare:
    """Phase one of a streamed transfer: reserve a staging slot.

    Carries everything :class:`ObjectTransfer` carries *except* the state
    blob, which follows as :class:`TransferChunk` slices.  PREPARE is
    idempotent per ``transfer_id`` (a retransmission re-reserves the same
    slot) and reserves only *staging* space: nothing touches the object
    store, the registry, or the lock manager until TRANSFER_COMMIT, so a
    partially streamed transfer can never materialize an object.

    ``total_bytes``/``chunk_count`` let the receiver verify completeness
    at commit; ``ttl_ms`` bounds how long an orphaned staging entry (its
    sender died mid-stream) survives before the staging GC reaps it.
    """

    name: str
    class_name: str
    class_desc: "object | None"  # ClassDescriptor when the receiver lacks it
    class_hash: str
    origin: str
    transfer_id: str
    total_bytes: int
    chunk_count: int
    shared: bool = True
    ttl_ms: float = 30_000.0


@dataclass(frozen=True)
class TransferChunk:
    """One slice of a streamed transfer's marshalled state.

    ``data`` is a ``memoryview`` at both ends, and no end copies it.  The
    sender slices it out of its state blob and the wire codec gathers it
    into ``sendmsg`` from there; the receiver gets a read-only view of
    the frame it arrived in (plain ``bytes`` when the chunk is under
    :data:`repro.net.reactor.DIRECT_RECV_MIN`), which the mover stages
    as it is — so a staged chunk keeps its whole frame alive until
    COMMIT, ABORT or the staging reaper drops it.  On the in-process
    simulated network the payload crosses by reference and the receiver
    stages the sender's view.

    Pickling (see ``__reduce__``) wraps the view in a *transient*
    :class:`pickle.PickleBuffer`, which protocol 5 serializes in-band
    straight from the original bytes.  The PickleBuffer must not live on
    the dataclass itself: it holds a buffer export on the view, and a
    garbage-collected cycle containing an exported memoryview crashes
    CPython's ``tp_clear`` — creating it only for the duration of the
    dump keeps the resident payload export-free.
    """

    transfer_id: str
    index: int
    data: "object"  # bytes | memoryview (kept loose: the wire tags it)

    def __reduce__(self):
        data = self.data
        if isinstance(data, memoryview):
            data = pickle.PickleBuffer(data)
        return (TransferChunk, (self.transfer_id, self.index, data))


@dataclass(frozen=True)
class TransferCommit:
    """Phase two: atomically unpack, register, and ack a staged transfer.

    Idempotent per ``transfer_id``: a retransmitted COMMIT (lost ack)
    finds the id in the mover's seen-set and re-acks without re-applying.
    """

    transfer_id: str
    name: str


@dataclass(frozen=True)
class TransferAbort:
    """Discard a staged (or still-streaming) transfer.

    Sent explicitly by the source when its stream failed mid-flight, and
    by a hedged write to the losing target.  Harmless when the id is
    unknown (the staging GC may have reaped it first) — but **refused**
    when the id already committed: the object materialized, so the source
    must treat the transfer as delivered, not abandoned.
    """

    transfer_id: str
    reason: str = ""


@dataclass(frozen=True)
class ClassRequest:
    """Pull a class definition from a node (conditional fetch).

    When ``if_hash`` names the version the requester already caches, the
    reply is the small marker ``"unchanged"`` instead of the full source —
    the conditional-fetch pattern that makes warm COD binds cost one round
    trip (paper Table 3's amortized TCOD row).
    """

    class_name: str
    if_hash: str = ""


@dataclass(frozen=True)
class ClassPush:
    """Push a class definition to a node (REV direction).

    A *probe* (``desc is None``) asks "do you cache ``source_hash``?" and the
    reply is a boolean; a push with a body installs the descriptor.

    ``only_if_missing`` makes a body-carrying push *conditional*: the
    receiver installs the descriptor only when it does not already cache
    ``source_hash``.  Batched pushes ride this — a single BATCH frame
    carries the probe and the conditional body, collapsing the warm and
    cold paths into one round trip (at the cost of the body always
    crossing the wire).
    """

    class_name: str
    source_hash: str
    desc: "object | None" = None  # ClassDescriptor when carrying the body
    only_if_missing: bool = False


@dataclass(frozen=True)
class InstantiateRequest:
    """Create an object of an already-cached class and register it.

    The REV/COD *factory* semantics of §4.2: the class moved first (via
    ClassPush or ClassRequest), then the target instantiates.
    """

    class_name: str
    name: str
    args_blob: bytes
    shared: bool = True


@dataclass(frozen=True)
class LockRequestPayload:
    """Stay/move lock acquisition for a mobile object (paper §4.4).

    The request carries the mobility attribute's computation ``target``; the
    lock manager grants a *stay* lock if the object is already there and a
    *move* lock otherwise.

    ``wait_ms`` bounds the *server-side* queue wait.  A deadline-bounded
    chase fills it with the caller's remaining budget at each hop (and the
    dispatch deadline riding the message header caps it again at the lock
    manager), so a request that chases a moving object never waits longer
    in total than the caller allowed — hop count notwithstanding.
    """

    name: str
    target: str
    requester: str
    wait_ms: float | None = None


@dataclass(frozen=True)
class UnlockPayload:
    """Release a previously granted lock."""

    name: str
    token: str


@dataclass(frozen=True)
class LockConfirm:
    """Acknowledge receipt of a *provisional* (leased) lock grant.

    A grant replied within roughly one-way transit of its caller's
    deadline expiry can be dropped by the abandoned waiter, leaving the
    lock held forever.  Such at-risk grants are issued provisionally
    with a short unacknowledged-grant TTL; this message is the caller
    saying "I did receive it" before the lock manager's lease reaper
    auto-releases (see :class:`repro.runtime.locks.LockManager`).
    """

    name: str
    token: str


@dataclass(frozen=True)
class AgentHopPayload:
    """One-way mobile-agent hop: agent state + remaining itinerary.

    MA is "multi-hop and asynchronous" (§3.5): each hop is a cast, the
    receiver runs the agent's arrival hook, then forwards it to the next
    namespace on the itinerary.
    """

    name: str
    class_name: str
    state_blob: bytes
    class_desc: "object | None"
    class_hash: str
    origin: str                       # node the agent departed (class pulls)
    tour_id: str                      # dedup token for retransmitted hops
    itinerary: tuple[str, ...] = ()   # remaining namespaces to visit
    shared: bool = False              # agents default to private objects


@dataclass(frozen=True)
class AgentLaunch:
    """Ask the node hosting ``name`` to start an itinerary tour.

    Synchronous control message; the tour itself proceeds asynchronously
    via AGENT_HOP casts.
    """

    name: str
    itinerary: tuple[str, ...]
    lock_token: str = ""


@dataclass(frozen=True)
class LoadQuery:
    """Ask a node for its current load metric (migration policies use this)."""


@dataclass(frozen=True)
class JoinRequest:
    """Membership: a newcomer presents itself to a seed node.

    ``endpoint`` is the joiner's dialable ``(host, port)`` — extended
    to ``(host, port, uds)`` when the joiner also listens on a
    same-host Unix socket — or ``None`` when the transport needs no
    addressing (the in-process simulated network).  The seed records
    the newcomer in its address book, answers with its own roster
    (``{node_id: (host, port[, uds]) | None}``), and ANNOUNCEs the
    newcomer to the other members it knows.
    """

    node_id: str
    endpoint: tuple | None = None


@dataclass(frozen=True)
class AnnouncePayload:
    """Membership: one node's roster, pushed to peers on every join.

    Receivers merge: unknown members are added to the address book (a
    changed endpoint replaces the stale entry — the re-joining peer's
    fresh address wins), known ones are refreshed.  Merging is
    idempotent, and repeated delivery is harmless.  Endpoint conflicts
    resolve last-write-wins: rosters carry no per-node incarnation
    number yet, so a *stale* roster delivered after a fresher one can
    temporarily revert a re-joined peer's endpoint until the next
    announcement or contact (epoching them is a ROADMAP follow-up).
    """

    members: dict = field(default_factory=dict)  # node_id -> (host, port) | None


@dataclass(frozen=True)
class RegistrySnapshot:
    """Diagnostic dump of a node's registry (bindings + forwarding table)."""

    bindings: dict = field(default_factory=dict)
    forwarding: dict = field(default_factory=dict)
    class_names: tuple[str, ...] = ()
