"""``MageExternalServer`` — the remote interface (§4.1).

"The ``MageExternalServerImpl`` class implements ``MageExternalServer``.
This class defines the methods used to send and receive objects and
classes, as well as forward registry requests."

This is each node's single inbound dispatcher: the transport delivers every
request here, and the handler routes it to the registry, invoker, mover,
class cache, or lock manager.  A reply that found no caller waiting for it
comes here too, and a lock grant in it is released.  An agent arrives as
an ordinary object transfer (the mover hands it to the agent manager);
only AGENT_LAUNCH, the request to start a tour where the agent lives,
goes to a handler the agent manager installs.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import (
    LockMovedError,
    LockTimeoutError,
    MageError,
    NoSuchObjectError,
)
from repro.net.deadline import current_deadline
from repro.net.message import Message, MessageKind, ReplyPayload, inline_safe
from repro.rmi.invoker import Invoker
from repro.rmi.marshal import StubFactory, unmarshal_call
from repro.rmi.protocol import (
    AnnouncePayload,
    BindRequest,
    ClassPush,
    ClassRequest,
    FindRequest,
    InstantiateRequest,
    InvokeRequest,
    JoinRequest,
    ListRequest,
    LockRequestPayload,
    LookupRequest,
    MoveRequest,
    ObjectTransfer,
    TransferAbort,
    TransferChunk,
    TransferCommit,
    UnbindRequest,
    UnlockPayload,
)
from repro.rmi.registry import RmiRegistry
from repro.rmi.stub import RemoteRef
from repro.runtime.classcache import ClassCache
from repro.runtime.locks import LockManager
from repro.runtime.mover import Mover
from repro.runtime.registry import MageRegistry
from repro.runtime.store import ObjectStore

#: Signature of the AGENT_LAUNCH handler the agent manager installs.
AgentHandler = Callable[[Any], Any]


class MageExternalServer:
    """Routes every inbound message for one node."""

    def __init__(
        self,
        node_id: str,
        store: ObjectStore,
        classcache: ClassCache,
        registry: MageRegistry,
        rmi_registry: RmiRegistry,
        locks: LockManager,
        mover: Mover,
        stub_factory: StubFactory,
        load_provider: Callable[[], float],
        release_grant: Callable[[Any], None],
    ) -> None:
        self.node_id = node_id
        self._store = store
        self._classcache = classcache
        self._registry = registry
        self._rmi_registry = rmi_registry
        self._locks = locks
        self._mover = mover
        self._stub_factory = stub_factory
        self._load_provider = load_provider
        self._release_grant = release_grant
        self._invoker = Invoker(node_id, self._lookup_servant, stub_factory)
        self._agent_launcher: AgentHandler | None = None
        self._join_handler: Callable[[JoinRequest], Any] | None = None
        self._announce_handler: Callable[[AnnouncePayload], Any] | None = None
        self._handlers = {
            MessageKind.INVOKE: self._on_invoke,
            MessageKind.REGISTRY_LOOKUP: self._on_lookup,
            MessageKind.REGISTRY_BIND: self._on_bind,
            MessageKind.REGISTRY_UNBIND: self._on_unbind,
            MessageKind.REGISTRY_LIST: self._on_list,
            MessageKind.FIND: self._on_find,
            MessageKind.MOVE_REQUEST: self._on_move_request,
            MessageKind.OBJECT_TRANSFER: self._on_object_transfer,
            MessageKind.TRANSFER_CHUNK: self._on_transfer_chunk,
            MessageKind.TRANSFER_COMMIT: self._on_transfer_commit,
            MessageKind.TRANSFER_ABORT: self._on_transfer_abort,
            MessageKind.CLASS_REQUEST: self._on_class_request,
            MessageKind.CLASS_TRANSFER: self._on_class_push,
            MessageKind.INSTANTIATE: self._on_instantiate,
            MessageKind.LOCK_REQUEST: self._on_lock,
            MessageKind.UNLOCK: self._on_unlock,
            MessageKind.AGENT_LAUNCH: self._on_agent_launch,
            MessageKind.LOAD_QUERY: self._on_load_query,
            MessageKind.PING: self._on_ping,
            MessageKind.JOIN: self._on_join,
            MessageKind.ANNOUNCE: self._on_announce,
            MessageKind.REPLY: self._on_stray_reply,
        }

    @property
    def invoker(self) -> Invoker:
        """This node's dispatch invoker (shared with the local bypass)."""
        return self._invoker

    def install_agent_handlers(self, launch: AgentHandler) -> None:
        """Called by the agent manager when it attaches to this node."""
        self._agent_launcher = launch

    def install_membership_handlers(self, join, announce) -> None:
        """Called by the cluster layer's Membership service on attach."""
        self._join_handler = join
        self._announce_handler = announce

    # -- dispatch ----------------------------------------------------------------

    @inline_safe
    def handle(self, message: Message) -> Any:
        """Transport entry point for every inbound request.

        Declared :func:`~repro.net.message.inline_safe`: the INLINE_KINDS
        handlers below (``_on_ping``, ``_on_load_query``) do no waiting,
        no I/O and no nested calls, so the TCP server may run them on its
        reactor loop thread (magelint MAGE009 checks them).
        """
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise MageError(
                f"node {self.node_id!r} cannot handle {message.kind.value} messages"
            )
        return handler(message.payload)

    def _lookup_servant(self, name: str) -> Any:
        if not self._store.contains(name):
            raise NoSuchObjectError(name, self.node_id)
        return self._store.get(name)

    # -- RMI substrate --------------------------------------------------------------

    def _on_invoke(self, request: InvokeRequest) -> bytes:
        return self._invoker.handle(request)

    def _on_lookup(self, request: LookupRequest) -> RemoteRef:
        return self._rmi_registry.lookup(request.name)

    def _on_bind(self, request: BindRequest) -> None:
        if request.replace:
            self._rmi_registry.rebind(request.name, request.ref)
        else:
            self._rmi_registry.bind(request.name, request.ref)

    def _on_unbind(self, request: UnbindRequest) -> None:
        self._rmi_registry.unbind(request.name)

    def _on_list(self, request: ListRequest) -> list[str]:
        return self._rmi_registry.list_bindings()

    # -- MAGE runtime ------------------------------------------------------------------

    def _on_find(self, request: FindRequest) -> str:
        return self._registry.handle_find(request)

    def _on_move_request(self, request: MoveRequest) -> str:
        return self._mover.move_out(
            request.name, request.target, lock_token=request.lock_token,
            alternates=request.alternates,
        )

    def _on_object_transfer(self, transfer: ObjectTransfer) -> str:
        return self._mover.receive(transfer)

    def _on_transfer_chunk(self, chunk: TransferChunk) -> str:
        return self._mover.receive_chunk(chunk)

    def _on_transfer_commit(self, commit: TransferCommit) -> str:
        return self._mover.commit(commit)

    def _on_transfer_abort(self, abort: TransferAbort) -> str:
        return self._mover.abort(abort)

    def _on_class_request(self, request: ClassRequest) -> Any:
        desc = self._classcache.descriptor(request.class_name)
        if request.if_hash and request.if_hash == desc.source_hash:
            return "unchanged"
        return desc

    def _on_class_push(self, push: ClassPush) -> bool:
        if push.desc is None:
            # Probe: "do you cache this exact class?"
            return self._classcache.has_hash(push.source_hash)
        if push.only_if_missing and self._classcache.has_hash(push.source_hash):
            return True  # conditional push against a warm cache: keep ours
        self._classcache.load(push.desc)
        return True

    def _on_instantiate(self, request: InstantiateRequest) -> RemoteRef:
        cls = self._classcache.resolve(request.class_name)
        args, kwargs = unmarshal_call(
            request.args_blob, self._stub_factory,
            context=(f"INSTANTIATE {request.class_name} as "
                     f"{request.name!r} on {self.node_id}"),
        )
        obj = cls(*args, **kwargs)
        self._store.add(request.name, obj, shared=request.shared)
        self._registry.record_arrival(request.name)
        # Publication in the RMI registry is the *initiator's* separate
        # Naming step (as in Java RMI), not a side effect of instantiation —
        # this is one of the "four Java RMI calls" the paper's REV performs.
        return RemoteRef(node_id=self.node_id, name=request.name)

    def _on_lock(self, request: LockRequestPayload) -> Any:
        if not self._store.contains(request.name):
            hint = self._registry.forwarding_hint(request.name)
            if hint is not None and hint != self.node_id:
                raise LockMovedError(request.name, hint)
            raise NoSuchObjectError(request.name, self.node_id)
        # The dispatch deadline (the caller's propagated budget) caps the
        # queue wait on top of the request's own wait_ms: a lock request
        # must not be granted to a caller that already stopped waiting.
        deadline = current_deadline()
        grant = self._locks.acquire(
            request.name,
            target=request.target,
            requester=request.requester,
            timeout_ms=request.wait_ms,
            deadline=deadline,
        )
        if deadline is not None and deadline.expired:
            # Granted at the buzzer: the caller's wait is deadline-capped
            # too, so it has abandoned the exchange and this grant would
            # answer nobody.  Give it back here rather than leave it to
            # the requester's stray-reply release, and answer with the
            # timeout the caller is already raising.
            self._locks.release(request.name, grant.token)
            raise LockTimeoutError(
                f"lock on {request.name!r} granted after its caller's "
                "deadline expired; released"
            )
        return grant

    def _on_unlock(self, request: UnlockPayload) -> None:
        self._locks.release(request.name, request.token)

    def _on_stray_reply(self, reply: ReplyPayload) -> None:
        # A reply to this node that found no caller waiting for it (the
        # call timed out or a chase cancelled it), posted by the
        # transport: a lock grant in it is held by nobody.
        self._release_grant(reply.value)

    def _on_agent_launch(self, payload: Any) -> Any:
        if self._agent_launcher is None:
            raise MageError(f"node {self.node_id!r} launches no agents")
        return self._agent_launcher(payload)

    def _on_load_query(self, request: Any) -> float:
        return float(self._load_provider())

    def _on_ping(self, request: Any) -> str:
        return "pong"

    # -- membership (handlers installed by the cluster layer) ------------------

    def _on_join(self, request: JoinRequest) -> Any:
        if self._join_handler is None:
            raise MageError(f"node {self.node_id!r} accepts no JOINs "
                            "(no membership service attached)")
        return self._join_handler(request)

    def _on_announce(self, payload: AnnouncePayload) -> Any:
        if self._announce_handler is None:
            raise MageError(f"node {self.node_id!r} accepts no ANNOUNCEs "
                            "(no membership service attached)")
        return self._announce_handler(payload)
