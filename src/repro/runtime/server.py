"""``MageServer`` — the home interface (§4.1).

"The ``MageServerImpl`` class implements ``MageServer`` and communicates
with local mobility attributes … On the behalf of mobility attributes,
these classes query the registry, lock objects to their current namespace
and cooperate to move objects and classes."

Every operation a mobility attribute's ``bind`` needs is here:

=================  ==========================================================
``register``       publish a component in this namespace (it becomes the
                   component's origin server)
``find``           locate a component (local registry consultation +
                   forwarding-chain walk; Figure 7's messages 1–2)
``move``           weakly migrate a component (MOVE_REQUEST / OBJECT_TRANSFER;
                   Figure 7's messages 3–5)
``fetch_class``    pull a class definition here (the COD direction), with
                   conditional transfer against the local cache
``push_class``     push a class definition to a node (the REV direction),
                   probing the remote cache first
``instantiate``    create an object from a cached class at any node (the
                   REV/COD factory semantics of §4.2)
``lock/unlock``    stay/move locking at the object's current host, with
                   relocation chasing when the object moves mid-request
``stub``           a live proxy for invoking the component (Figure 7's 6–7)
=================  ==========================================================

Multi-node operations are *scatter-gather* over the transport's
future-returning call (``call_async``):
``push_class_many`` fans a class out to N targets, ``query_load_many`` and
``ping_many`` sweep N hosts — each priced at one round-trip latency (plus
straggler time) instead of N on the pipelined TCP transport, and executing
as the exact sequential message sequence on the deterministic simulated
network.  ``lock``, ``move`` and ``locate_any`` reach a moving object one
way, :func:`chase`: one host at a time it is the paper's sequential chase;
hedged (or over N ``candidates``) it asks them at once, takes the first
answer and **cancels** the losers, so one hung host costs a round trip,
not an io-timeout window.  Every multi-node operation takes one optional
:class:`~repro.net.deadline.Deadline` — a single end-to-end budget for
the whole fan-out or chase, carried hop to hop in the message headers.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import (
    CallCancelledError,
    CallTimeoutError,
    ClassTransferError,
    ComponentNotFoundError,
    LockError,
    LockMovedError,
    LockTimeoutError,
    MigrationError,
    NoSuchObjectError,
    TransportError,
)
from repro.net.deadline import Deadline, effective_deadline
from repro.net.message import MessageKind
from repro.net.transport import CallFuture, Transport, gather, race
from repro.rmi.classdesc import ClassDescriptor
from repro.rmi.client import RmiClient
from repro.rmi.marshal import marshal_call
from repro.rmi.protocol import (
    BindRequest,
    ClassPush,
    ClassRequest,
    FindRequest,
    InstantiateRequest,
    InvokeRequest,
    LoadQuery,
    LockRequestPayload,
    MoveRequest,
    UnlockPayload,
)
from repro.rmi.stub import RemoteRef, Stub
from repro.runtime.classcache import ClassCache
from repro.runtime.locks import LockGrant, LockManager
from repro.runtime.mover import Mover
from repro.runtime.registry import MageRegistry
from repro.runtime.store import ObjectStore

#: How many hosts one chase may ask before it gives up on an object that
#: keeps moving (it may always ask every one of its first hosts).
MAX_LOCK_CHASES = 8


def chase(name: str, ask: Callable[[str], CallFuture], first: Sequence[str],
          width: int, deadline: Deadline | None, *,
          walk: Callable[[], str] | None = None,
          timeout: Callable[[str], Exception] = MigrationError,
          on_moved: Callable[[str], None] | None = None,
          on_loser: Callable[[Any], None] | None = None) -> Any:
    """Ask hosts for ``name`` until one answers (DESIGN.md, "The chase").

    ``ask(node)`` sends FIND, LOCK_REQUEST or MOVE_REQUEST and returns its
    future; a host answers *done* (returned), *moved to X*
    (``LockMovedError``: X is asked next, ``on_moved(X)`` told) or *not
    here*.  The chase starts at ``first`` (or ``walk()``, a verified chain
    walk, if empty), walks once more on a cold trail, keeps ``width``
    requests in flight, and sends at most :data:`MAX_LOCK_CHASES`.  It
    raises ``timeout(detail)`` on an expired deadline or only hung hosts,
    ``LockError`` if the object kept moving, else the last *not here*;
    other errors are answers.  Losers are cancelled; ``on_loser`` gets the
    answer of each one that beat its cancellation.
    """
    def lost(future: CallFuture) -> None:
        if future.exception(0) is None:
            on_loser(future.result(0))

    def walked() -> str:
        try:
            return walk()
        except CallTimeoutError as exc:
            raise timeout(f"{name!r}: budget spent locating it ({exc})") from exc

    todo = list(dict.fromkeys(first))
    can_walk = walk is not None
    if not todo and can_walk:
        todo, can_walk = [walked()], False
    limit = max(MAX_LOCK_CHASES, len(todo))
    asks = 0
    moved = False
    miss: Exception | None = None
    hung: Exception | None = None
    answers = race(deadline)

    def launch() -> None:
        nonlocal asks
        while todo and len(answers.pending) < width and asks < limit \
                and not (deadline is not None and deadline.expired):
            asks += 1
            node = todo.pop(0)
            answers.add(node, ask(node))

    try:
        launch()
        for _, future in answers:
            try:
                return future.result(0)
            except LockMovedError as exc:
                moved = True
                if on_moved is not None:
                    on_moved(exc.new_location)
                if exc.new_location not in (*answers.pending.values(), *todo):
                    todo.append(exc.new_location)
            except (NoSuchObjectError, ComponentNotFoundError) as exc:
                miss = exc
            except (TransportError, LockTimeoutError) as exc:
                hung = exc  # a hung or dead host; a lock wait that ran out
            if not answers.pending and not todo and miss is not None \
                    and can_walk:
                todo, can_walk, miss = [walked()], False, None  # a cold trail
            launch()
    finally:
        for future in answers.pending:
            if on_loser is not None:
                future.add_done_callback(lost)
            future.cancel(f"the chase for {name!r} is over")
    if deadline is not None and deadline.expired:
        raise timeout(f"{name!r}: deadline expired mid-chase")
    if todo or (moved and miss is None):
        raise LockError(
            f"object {name!r} kept moving; gave up after {asks} requests")
    if miss is not None:
        raise miss
    raise timeout(f"{name!r}: every host asked hung or died ({hung})") from hung


class MageServer:
    """Home-interface operations issued from one namespace."""

    def __init__(
        self,
        node_id: str,
        store: ObjectStore,
        classcache: ClassCache,
        registry: MageRegistry,
        locks: LockManager,
        mover: Mover,
        transport: Transport,
        client: RmiClient,
    ) -> None:
        self.node_id = node_id
        self.store = store
        self.classcache = classcache
        self.registry = registry
        self.locks = locks
        self.mover = mover
        self.transport = transport
        self.client = client

    # -- component registration --------------------------------------------------

    def register(
        self, name: str, obj: Any, shared: bool = True, pinned: bool = False
    ) -> RemoteRef:
        """Host ``obj`` here under ``name``; this node becomes its origin.

        The name is bound in the node's RMI registry (static, origin-side)
        and tracked by the MAGE registry (dynamic, follows moves).
        """
        self.store.add(name, obj, shared=shared, pinned=pinned)
        self.registry.record_arrival(name)
        ref = RemoteRef(node_id=self.node_id, name=name)
        self.registry.rmi.rebind(name, ref)
        return ref

    def register_class(self, cls: type) -> ClassDescriptor:
        """Publish a class definition so this node can serve it."""
        return self.classcache.register_native(cls)

    def unregister(self, name: str) -> Any:
        """Remove a locally hosted component; returns the evicted object."""
        obj = self.store.remove(name)
        if self.registry.rmi.contains(name):
            self.registry.rmi.unbind(name)
        return obj

    # -- discovery ---------------------------------------------------------------

    def find(self, name: str, origin_hint: str | None = None,
             verify: bool = True,
             candidates: Sequence[str] | None = None,
             deadline: Deadline | None = None) -> str:
        """Locate a component: the node id currently hosting it.

        Modelled as a FIND message to this namespace's own registry so the
        consultation appears in traces exactly as Figure 7 draws its
        messages 1 and 2.  The message is local on every transport: the
        simulated network prices it at its local latency, and TCP hands
        it to this node's own worker pool without touching a socket.
        ``verify=False`` accepts the local forwarding
        table's (possibly stale) answer without walking the chain — the
        thin fast path the RPC attribute rides.

        ``candidates`` switches to :meth:`locate_any`: instead of walking
        one forwarding chain hop by hop, every candidate's chain is probed
        in parallel and the first resolved location wins — the fan-out
        form a cluster-wide locate wants when chains may be long or stale.

        ``deadline`` bounds the whole resolution, every chain hop
        included: the budget rides the FIND header, so a walk spends its
        caller's remainder — not a fresh io timeout — at each hop.
        """
        if candidates:
            return self.locate_any(name, candidates, origin_hint,
                                   verify=verify, deadline=deadline)
        return self.transport.call(
            self.node_id, self.node_id, MessageKind.FIND,
            FindRequest(name=name, origin_hint=origin_hint or "", verify=verify),
            deadline=deadline,
        )

    def locate_any(self, name: str, candidates: Sequence[str],
                   origin_hint: str | None = None, verify: bool = True,
                   deadline: Deadline | None = None) -> str:
        """Parallel forwarding-chain probes: ask every candidate at once.

        A :func:`chase` as wide as ``candidates`` that sends one FIND to
        each candidate registry (each walks its own forwarding chain to
        termination; ``verify=False`` lets candidates answer from their
        possibly-stale forwarding tables instead).  The first successful
        answer *to complete* wins, is recorded in the local forwarding
        table, and returns immediately; the losing probes are
        **cancelled** — a hung registry's probe stops costing anything the
        moment a winner verified, instead of dangling for a full io
        timeout.  One ``deadline`` bounds the whole fan-out.  On the
        eagerly completing simulated network completion order *is*
        candidate order and cancellation is a no-op, so the deterministic
        traces are unchanged.  Raises
        :class:`~repro.errors.ComponentNotFoundError` when no candidate
        could resolve the name (or none could before the deadline).
        """
        if not candidates:
            raise ComponentNotFoundError(name, "no candidate registries to probe")
        deadline = effective_deadline(deadline)
        answer = chase(
            name,
            lambda node: self.transport.call_async(
                self.node_id, node, MessageKind.FIND,
                FindRequest(name=name, origin_hint=origin_hint or "",
                            verify=verify),
                deadline=deadline,
            ),
            candidates, len(candidates), deadline,
            timeout=lambda detail: ComponentNotFoundError(
                name, f"none of {candidates} could resolve it: {detail}"),
        )
        self.registry.note_location(name, answer)
        return answer

    def is_shared(self, name: str) -> bool:
        """Whether ``name`` may be moved by other threads between uses.

        Only the local store knows an object's sharing mode; components
        hosted elsewhere are conservatively treated as shared.
        """
        record = self.store.lookup(name)
        return True if record is None else record.shared

    # -- movement -----------------------------------------------------------------

    def move(
        self,
        name: str,
        target: str,
        origin_hint: str | None = None,
        lock_token: str = "",
        location: str | None = None,
        deadline: Deadline | None = None,
        hedge: bool = False,
        alternates: Sequence[str] = (),
    ) -> str:
        """Move ``name`` to ``target`` wherever it currently lives.

        Local objects ship directly; remote ones via MOVE_REQUEST to their
        host (which performs the transfer and answers when done — Figure
        7's messages 3–5), reached by a :func:`chase` from the local
        registry's fast answer.  Returns the component's new location.

        ``location`` lets a caller that just found the component skip the
        redundant lookup; a stale value is healed by the chase's walk.
        Only a location the caller gave or a walk verified may end the
        move unasked; a fast hint naming ``target`` is walked first.

        ``deadline`` bounds the whole operation — find, chase, and the
        transfer the host performs on our behalf (the budget rides the
        MOVE_REQUEST header and the host's nested transfer inherits it).
        ``hedge=True`` speculates on both ends of the move.  On the *read*
        side, MOVE_REQUESTs go to the last-known host and the origin hint
        in parallel, the first node actually hosting the object performs
        the move, and the miss (a fast ``NoSuchObjectError``) is discarded
        — so a stale forwarding entry pointing at a slow host no longer
        serializes the chase.  On the *write* side, ``alternates`` names
        additional acceptable destinations: a large (streamed) object is
        then shipped speculatively to ``target`` and every alternate, the
        first to finish staging is committed, and the losers are aborted
        before anything applied — the returned location names the winner.
        The default keeps the paper's exact message sequence.
        """
        deadline = effective_deadline(deadline)
        alternates = tuple(alternates) if hedge else ()
        if self.store.contains(name):
            return self.mover.move_out(name, target, lock_token,
                                       deadline=deadline,
                                       alternates=alternates)
        # Only where the caller or a walk verified it may a move end unasked.
        vouched = set() if location in (None, self.node_id) else {location}
        first = list(vouched) or (self._hints(name, origin_hint) if hedge
                                  else [])
        if not first:
            fast = self.find(name, origin_hint, verify=False, deadline=deadline)
            first = [] if fast == target else [fast]

        def walk() -> str:
            node = self.find(name, origin_hint, verify=True, deadline=deadline)
            vouched.add(node)
            return node

        def ask(node: str) -> CallFuture:
            if node == target and node in vouched:
                return CallFuture.completed(None)  # already there
            return self.transport.call_async(
                self.node_id, node, MessageKind.MOVE_REQUEST,
                MoveRequest(name=name, target=target, lock_token=lock_token,
                            alternates=alternates),
                deadline=deadline,
            )

        new_location = chase(name, ask, first, MAX_LOCK_CHASES if hedge else 1,
                             deadline, walk=walk)
        if new_location is None:
            return target
        self.registry.note_location(name, new_location)
        return new_location

    def _hints(self, name: str, origin_hint: str | None) -> list[str]:
        """A hedged chase's first hosts: this one if it hosts ``name``, else
        the last-known host and the origin hint, asked at once."""
        if self.store.contains(name):
            return [self.node_id]
        hints = (self.registry.forwarding_hint(name), origin_hint)
        return list(dict.fromkeys(
            hint for hint in hints if hint and hint != self.node_id))

    # -- class mobility --------------------------------------------------------------

    def fetch_class(self, class_name: str, from_node: str) -> type:
        """Pull ``class_name`` here (COD direction); conditional when cached.

        When the local cache already holds a version, the request carries
        its hash and the server answers ``"unchanged"`` instead of
        re-shipping the body.
        """
        if from_node == self.node_id:
            return self.classcache.resolve(class_name)
        if_hash = ""
        if self.classcache.has_class(class_name):
            if_hash = self.classcache.descriptor(class_name).source_hash
        reply = self.transport.call(
            self.node_id, from_node, MessageKind.CLASS_REQUEST,
            ClassRequest(class_name=class_name, if_hash=if_hash),
        )
        if reply == "unchanged":
            return self.classcache.load(self.classcache.descriptor(class_name))
        return self.classcache.load(reply)

    def push_class(self, class_name: str, to_node: str) -> str:
        """Push ``class_name`` to ``to_node`` (REV direction); returns its hash.

        Probes the remote cache first; the body travels only on a miss —
        the paper's two-step REV sequence, which makes warm REV binds
        cost one round trip for the class step.
        """
        desc = self.classcache.descriptor(class_name)
        if to_node == self.node_id:
            return desc.source_hash
        have = self.transport.call(
            self.node_id, to_node, MessageKind.CLASS_TRANSFER,
            ClassPush(class_name=class_name, source_hash=desc.source_hash),
        )
        if not have:
            self.transport.call(
                self.node_id, to_node, MessageKind.CLASS_TRANSFER,
                ClassPush(class_name=class_name,
                          source_hash=desc.source_hash, desc=desc),
            )
        return desc.source_hash

    def push_class_async(self, class_name: str, to_node: str,
                         deadline: Deadline | None = None) -> CallFuture:
        """One conditional push as a future resolving to the source hash.

        A single round trip, cold or warm: the body always crosses the
        wire and the receiver installs it only on a miss
        (``only_if_missing``) — the shape :meth:`push_class_many`
        scatters across targets.
        """
        desc = self.classcache.descriptor(class_name)
        if to_node == self.node_id:
            return CallFuture.completed(desc.source_hash, f"push {class_name}")
        return self.transport.call_async(
            self.node_id, to_node, MessageKind.CLASS_TRANSFER,
            ClassPush(class_name=class_name, source_hash=desc.source_hash,
                      desc=desc, only_if_missing=True),
            deadline=deadline,
        ).map(lambda _installed: desc.source_hash)

    def push_class_many(self, class_name: str,
                        targets: Sequence[str],
                        deadline: Deadline | None = None) -> dict[str, str]:
        """Scatter ``class_name`` to every target in parallel.

        One conditional push future per target, all round trips overlapped;
        returns ``{target: source_hash}``.  Every future is collected
        before any failure surfaces (no stragglers left running); the
        first failure then raises as a
        :class:`~repro.errors.ClassTransferError` naming the lost targets.
        One ``deadline`` covers the whole fan-out; targets that miss it
        count as lost and their pushes are cancelled.
        """
        deadline = effective_deadline(deadline)
        futures = {
            target: self.push_class_async(class_name, target,
                                          deadline=deadline)
            for target in targets
        }
        outcomes = dict(zip(futures, gather(
            futures.values(), return_exceptions=True, deadline=deadline,
            cancel_stragglers=deadline is not None,
        )))
        failures = [(t, v) for t, v in outcomes.items()
                    if isinstance(v, Exception)]
        if failures:
            target, first = failures[0]
            lost = [t for t, _ in failures]
            raise ClassTransferError(
                f"pushing {class_name!r} failed at {lost} "
                f"(first: {target!r}: {first})"
            ) from first
        return outcomes

    def instantiate(
        self,
        class_name: str,
        name: str,
        target: str,
        args: tuple = (),
        kwargs: dict | None = None,
        shared: bool = True,
        deadline: Deadline | None = None,
    ) -> RemoteRef:
        """Create an object of a cached class at ``target`` and register it.

        The instantiate and publish steps are separate calls, reproducing
        the paper's REV message sequence (class push, instantiate,
        publish, invoke) exactly as the figure benches assert it.
        """
        kwargs = kwargs if kwargs is not None else {}
        if target == self.node_id:
            cls = self.classcache.resolve(class_name)
            obj = cls(*args, **kwargs)
            return self.register(name, obj, shared=shared)
        request = InstantiateRequest(
            class_name=class_name,
            name=name,
            args_blob=marshal_call(args, kwargs),
            shared=shared,
        )
        ref = self.transport.call(
            self.node_id, target, MessageKind.INSTANTIATE, request,
            deadline=deadline,
        )
        # Publish the new object in its host's RMI registry — a separate
        # Naming call, as in Java RMI (and as the paper's REV message count
        # attests: class push, instantiate, publish, invoke).
        self.transport.call(
            self.node_id, target, MessageKind.REGISTRY_BIND,
            BindRequest(name=name, ref=ref, replace=True),
            deadline=deadline,
        )
        self.registry.note_location(name, target)
        return ref

    # -- locking ------------------------------------------------------------------------

    def lock(
        self,
        name: str,
        target: str,
        origin_hint: str | None = None,
        timeout_ms: float | None = None,
        deadline: Deadline | None = None,
        hedge: bool = False,
    ) -> LockGrant:
        """Acquire the stay/move lock for ``name`` at its current host.

        §4.4's bracket: ``lock("geoData", cod.get_target())`` before the
        bind, ``unlock`` after the invocation.  If the object moves while
        the request waits, the :func:`chase` follows it to the new host
        (bounded by ``MAX_LOCK_CHASES`` *and* by wall clock).

        ``timeout_ms``/``deadline`` are one **cumulative** budget for the
        whole chase — find, every LOCK_REQUEST hop, and the server-side
        queue wait at each hop (each hop is asked to wait at most the
        *remaining* budget, and the deadline riding the message header
        caps it again at the lock manager).  A chase whose hops have
        eaten the budget stops with :class:`~repro.errors.LockTimeoutError`
        instead of granting a lock nobody is waiting for.

        ``hedge=True`` speculates on stale location knowledge: the
        LOCK_REQUEST goes to the last-known host *and* the origin hint in
        parallel, the first grant wins, and losing probes are cancelled —
        so a forwarding entry pointing at a hung host costs one round
        trip, not one io timeout, per chase round.  The default keeps the
        paper's sequential find + chase message sequence exactly.
        """
        deadline = Deadline.tighter(
            effective_deadline(deadline),
            Deadline.after_ms(timeout_ms) if timeout_ms is not None else None,
        )
        first = self._hints(name, origin_hint) if hedge else []
        grant = chase(
            name,
            lambda node: self.transport.call_async(
                self.node_id, node, MessageKind.LOCK_REQUEST,
                LockRequestPayload(name=name, target=target,
                                   requester=self.node_id,
                                   wait_ms=self._lock_wait_ms(deadline)),
                deadline=deadline,
            ),
            first, MAX_LOCK_CHASES if hedge else 1, deadline,
            walk=lambda: self.find(name, origin_hint, deadline=deadline),
            timeout=LockTimeoutError,
            # The sequential chase feeds each redirect to the location
            # listeners (tier-3 cache) without writing the hint table.
            on_moved=None if hedge else (
                lambda node: self.registry.observe_location(name, node)),
            on_loser=self.release_stray_grant,
        )
        if hedge:
            self.registry.note_location(name, grant.location)
        return grant

    def _lock_wait_ms(self, deadline: Deadline | None) -> float | None:
        """The server-side queue wait a LOCK_REQUEST may ask for.

        The caller's remaining budget when one exists; otherwise the
        transport's own reply-wait bound — a server must never be asked to
        keep a request queued past the point its caller's transport has
        abandoned the exchange: the eventual grant would answer nobody and
        hold the lock until the late reply reached this node.
        """
        if deadline is not None:
            return deadline.remaining_ms()
        bound_s = self.transport.max_reply_wait_s()
        return bound_s * 1000.0 if bound_s is not None else None

    def release_stray_grant(self, value: Any) -> None:
        """Give back a lock grant nobody holds (DESIGN.md, "The chase").

        One routine, two triggers: a chase loser that resolved before it
        was cancelled, and a reply the transport found no waiter for
        (:class:`~repro.runtime.external.MageExternalServer` hands it
        here).  Any other value is ignored.  The UNLOCK goes out from a
        posted job — the first trigger may fire on a transport reader
        thread, which must never issue calls.  If the host vanished, its
        lock state went with it and the posted job's error is dropped."""
        if isinstance(value, LockGrant):
            self.transport.post(lambda: self.unlock(value))

    def unlock(self, grant: LockGrant) -> None:
        """Release a grant at the host that issued it."""
        self.transport.call(
            self.node_id, grant.location, MessageKind.UNLOCK,
            UnlockPayload(name=grant.name, token=grant.token),
        )

    # -- invocation ----------------------------------------------------------------------

    def stub(self, name: str, location: str | None = None,
             methods: tuple[str, ...] = ()) -> Stub:
        """A live proxy for ``name`` at ``location`` (or wherever it is found)."""
        where = location if location is not None else self.find(name)
        return self.client.stub_for(RemoteRef(node_id=where, name=name, methods=methods))

    def send_oneway(self, ref: RemoteRef, method: str, args: tuple = (),
                    kwargs: dict | None = None) -> None:
        """Fire-and-forget invocation: the result stays at the remote host.

        This is the MA measurement mode of Table 3 ("the result stays at
        the remote host").
        """
        self.transport.cast(
            self.node_id, ref.node_id, MessageKind.INVOKE,
            InvokeRequest(
                name=ref.name, method=method,
                args_blob=marshal_call(args, kwargs if kwargs is not None else {}),
            ),
        )

    # -- miscellany ------------------------------------------------------------------------

    def scatter(self, targets: Sequence[str], kind: MessageKind,
                payload: Any = None,
                deadline: Deadline | None = None) -> dict[str, CallFuture]:
        """One ``call_async`` per target, all in flight at once.

        The raw fan-out primitive the sweeps below (and
        ``Cluster.broadcast``) are built on; the caller gathers.  One
        ``deadline`` stamps every probe, so the whole fan-out shares a
        single budget rather than paying one io timeout per hung target.
        """
        return {
            target: self.transport.call_async(self.node_id, target, kind,
                                              payload, deadline=deadline)
            for target in targets
        }

    def query_load(self, node_id: str) -> float:
        """A node's load metric, for migration policies like §3.1's example."""
        return self.transport.call(
            self.node_id, node_id, MessageKind.LOAD_QUERY, LoadQuery()
        )

    def query_load_many(self, node_ids: Sequence[str],
                        skip_unreachable: bool = False,
                        deadline: Deadline | None = None,
                        timeout_load: float | None = None) -> dict[str, float]:
        """Load sweep: every node's metric gathered from parallel queries.

        ``skip_unreachable=True`` drops hosts that fail to answer — dead
        node or broken load provider alike, the behaviour balancing
        policies want (a host that cannot price itself is not a
        candidate); otherwise the first failure re-raises after every
        future has been collected.  ``deadline`` bounds the whole sweep
        and cancels whatever is still pending when it expires.

        ``timeout_load`` turns a missed deadline into a *load signal*: a
        host whose probe expired (or was cancelled as a straggler) is
        priced at this value instead of being dropped or raising —
        ``float("inf")`` is the balancer's "overloaded by silence".
        Outright-unreachable hosts still follow ``skip_unreachable``.
        """
        deadline = effective_deadline(deadline)
        futures = self.scatter(node_ids, MessageKind.LOAD_QUERY, LoadQuery(),
                               deadline=deadline)
        outcomes = dict(zip(futures, gather(
            futures.values(), return_exceptions=True, deadline=deadline,
            cancel_stragglers=deadline is not None,
        )))
        loads: dict[str, float] = {}
        for node, value in outcomes.items():
            if timeout_load is not None and isinstance(
                    value, (CallTimeoutError, CallCancelledError)):
                loads[node] = timeout_load
            elif isinstance(value, Exception):
                if not skip_unreachable:
                    raise value
            else:
                loads[node] = value
        return loads

    def ping(self, node_id: str, deadline: Deadline | None = None) -> bool:
        """Liveness probe (bounded by ``deadline`` when one is given)."""
        return self.transport.call(self.node_id, node_id, MessageKind.PING,
                                   deadline=deadline) == "pong"

    def ping_many(self, node_ids: Sequence[str],
                  deadline: Deadline | None = None) -> dict[str, bool]:
        """Liveness sweep: all probes in flight at once, no fail-fast.

        A dead host answers ``False`` instead of raising, so one crash
        costs a single timeout, not an aborted sweep.  With a ``deadline``
        the whole sweep shares one budget: a host that cannot answer in
        time counts as dead and its probe is cancelled.
        """
        deadline = effective_deadline(deadline)
        futures = self.scatter(node_ids, MessageKind.PING, deadline=deadline)
        outcomes = gather(futures.values(), return_exceptions=True,
                          deadline=deadline,
                          cancel_stragglers=deadline is not None)
        return {node: answer == "pong"
                for node, answer in zip(futures, outcomes)}
