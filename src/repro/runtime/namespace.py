"""A namespace: one execution environment (§2, §4.1).

The paper's Figure 6 shows each JVM overlaid with a MAGE registry, a
``MageServer`` (home interface) and a ``MageExternalServer`` (remote
interface).  :class:`Namespace` is that overlay for one node: it assembles
the object store, class cache, MAGE registry, lock manager, mover, both
servers, and the RMI client/naming, then registers its dispatcher with the
transport.

A ``Namespace`` is also the *runtime* handle that mobility attributes are
constructed against — either passed explicitly (``REV(..., runtime=ns)``)
or ambiently via :func:`repro.core.context.use_runtime`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net.transport import Transport
from repro.rmi.bypass import LocalDispatch
from repro.rmi.client import RmiClient
from repro.rmi.naming import Naming
from repro.rmi.registry import RmiRegistry
from repro.runtime.classcache import ClassCache
from repro.runtime.external import MageExternalServer
from repro.runtime.locks import LockManager
from repro.runtime.mover import Mover
from repro.runtime.registry import MageRegistry
from repro.runtime.server import MageServer
from repro.runtime.store import ObjectStore
from repro.util.ids import validate_node_id


class Namespace:
    """The MAGE runtime for one node.

    Construction wires every runtime service together and registers the
    inbound dispatcher with the transport; :meth:`shutdown` detaches it.

    Configuration knobs double as the ablation switches the benches study:

    * ``class_cache`` — retain class clones between migrations (§4.2);
    * ``path_collapsing`` — rewrite forwarding addresses on find (§4.1);
    * ``stream_threshold`` / ``chunk_bytes`` — state blobs at or above
      the threshold migrate as a staged stream of TRANSFER_CHUNK
      frames instead of one monolithic
      OBJECT_TRANSFER frame (``None`` keeps the mover defaults; a huge
      threshold forces the paper's single-frame path for every object).
    """

    def __init__(
        self,
        node_id: str,
        transport: Transport,
        class_cache: bool = True,
        path_collapsing: bool = True,
        stream_threshold: int | None = None,
        chunk_bytes: int | None = None,
        load_provider: Callable[[], float] | None = None,
    ) -> None:
        self.node_id = validate_node_id(node_id)
        self.transport = transport
        self.store = ObjectStore(node_id)
        self.classcache = ClassCache(node_id, enabled=class_cache)
        self.rmi_registry = RmiRegistry(node_id)
        self.client = RmiClient(node_id, transport)
        self.naming = Naming(node_id, transport, self.client)
        self.registry = MageRegistry(
            node_id, self.rmi_registry, self.store, transport,
            path_collapsing=path_collapsing,
        )
        self.locks = LockManager(node_id)
        mover_kwargs = {}
        if stream_threshold is not None:
            mover_kwargs["stream_threshold"] = stream_threshold
        if chunk_bytes is not None:
            mover_kwargs["chunk_bytes"] = chunk_bytes
        self.mover = Mover(
            node_id,
            self.store,
            self.classcache,
            self.registry,
            self.locks,
            transport,
            stub_factory=self.client.stub_for,
            **mover_kwargs,
        )
        self.server = MageServer(
            node_id,
            self.store,
            self.classcache,
            self.registry,
            self.locks,
            self.mover,
            transport,
            self.client,
        )
        self._load_provider = load_provider if load_provider is not None else lambda: 0.0
        self.external = MageExternalServer(
            node_id,
            self.store,
            self.classcache,
            self.registry,
            self.rmi_registry,
            self.locks,
            self.mover,
            stub_factory=self.client.stub_for,
            load_provider=self._get_load,
            release_grant=self.server.release_stray_grant,
        )
        if getattr(transport, "supports_local_bypass", False):
            # Same-host fast paths: attach the tier-1 in-process dispatcher
            # and feed the client's tier-3 location cache from the
            # registry's location funnel.  Gated on the transport so the
            # simulated network keeps its exact pre-bypass call path (and
            # byte-identical figure traces).
            self.client.attach_local(LocalDispatch(
                node_id, transport, self.store, self.external.invoker,
                self.client.stub_for,
            ))
            self.registry.add_location_listener(self.client.note_location)
            self.registry.add_eviction_listener(self.client.evict_locations)
        #: Filled in lazily by :func:`repro.core.agents.agent_manager_for`.
        self.agents = None
        self._running = False
        transport.register(node_id, self.external.handle)
        self._running = True

    def _get_load(self) -> float:
        return float(self._load_provider())

    def set_load_provider(self, provider: Callable[[], float]) -> None:
        """Swap the host-load source answering LOAD_QUERY messages."""
        self._load_provider = provider

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def shutdown(self) -> None:
        """Detach from the transport (idempotent).  Hosted objects remain
        in the store but become unreachable, like a crashed JVM."""
        if self._running:
            self.transport.unregister(self.node_id)
            self._running = False

    # -- programmer-facing facade (delegates to MageServer) -------------------

    def register(self, name: str, obj: Any, shared: bool = True,
                 pinned: bool = False):
        """Host ``obj`` here under ``name`` (this node becomes its origin)."""
        return self.server.register(name, obj, shared=shared, pinned=pinned)

    def register_class(self, cls: type):
        """Publish a class definition for REV/COD-style factories."""
        return self.server.register_class(cls)

    def unregister(self, name: str) -> Any:
        """Evict a locally hosted component; returns the object."""
        return self.server.unregister(name)

    def find(self, name: str, origin_hint: str | None = None,
             verify: bool = True, candidates=None, deadline=None) -> str:
        """Node id currently hosting ``name``.

        ``candidates`` probes several registries' forwarding chains in
        parallel instead of walking one (see ``MageServer.locate_any``);
        ``deadline`` bounds the whole resolution end to end.
        """
        return self.server.find(name, origin_hint, verify=verify,
                                candidates=candidates, deadline=deadline)

    def push_class(self, class_name: str, to_node: str) -> str:
        """Push a class definition to ``to_node`` (REV direction)."""
        return self.server.push_class(class_name, to_node)

    def push_class_many(self, class_name: str, targets,
                        deadline=None) -> dict[str, str]:
        """Scatter a class to many targets in parallel (one frame each)."""
        return self.server.push_class_many(class_name, targets,
                                           deadline=deadline)

    def query_load_many(self, node_ids, skip_unreachable: bool = False,
                        deadline=None) -> dict[str, float]:
        """Parallel load sweep over ``node_ids`` (one shared deadline)."""
        return self.server.query_load_many(node_ids,
                                           skip_unreachable=skip_unreachable,
                                           deadline=deadline)

    def is_shared(self, name: str) -> bool:
        """Whether ``name`` may be moved by other threads between uses."""
        return self.server.is_shared(name)

    def move(self, name: str, target: str, origin_hint: str | None = None,
             lock_token: str = "", location: str | None = None,
             deadline=None, hedge: bool = False, alternates=()) -> str:
        """Weakly migrate ``name`` to ``target``; returns the new location.

        A remote object is reached through the server's one chase (a fast
        hint, then one verified walk if that host no longer has it).
        ``deadline`` bounds the find + chase + transfer end to end;
        ``hedge=True`` sends speculative MOVE_REQUESTs to the last-known
        host and the origin hint in parallel (first host wins) and, with
        ``alternates``, additionally hedges the *write*: a streamed
        transfer goes to ``target`` and every alternate speculatively,
        the first to finish staging is committed, the losers aborted —
        the returned location names the winner.
        """
        return self.server.move(name, target, origin_hint, lock_token,
                                location, deadline=deadline, hedge=hedge,
                                alternates=alternates)

    def instantiate(self, class_name: str, name: str, target: str,
                    args: tuple = (), kwargs: dict | None = None,
                    shared: bool = True):
        """Create an object of a cached class at ``target`` and register it."""
        return self.server.instantiate(
            class_name, name, target, args=args, kwargs=kwargs, shared=shared,
        )

    def lock(self, name: str, target: str, origin_hint: str | None = None,
             timeout_ms: float | None = None, deadline=None,
             hedge: bool = False):
        """§4.4 bracket: acquire the stay/move lock before binding.

        The request follows the object through the server's one chase
        (a verified find, then each *moved to X* answer).
        ``timeout_ms``/``deadline`` are one cumulative budget for the whole
        chase (not per hop); ``hedge=True`` races speculative LOCK_REQUESTs
        to the last-known host and the origin hint, first grant wins.
        """
        return self.server.lock(name, target, origin_hint, timeout_ms,
                                deadline=deadline, hedge=hedge)

    def unlock(self, grant) -> None:
        """Release a §4.4 lock grant at the host that issued it."""
        self.server.unlock(grant)

    def stub(self, name: str, location: str | None = None,
             methods: tuple[str, ...] = ()):
        """A live proxy for ``name`` (found via the registry if needed)."""
        return self.server.stub(name, location, methods)

    def query_load(self, node_id: str | None = None) -> float:
        """Host load of ``node_id`` (or this node), for migration policies."""
        return self.server.query_load(node_id if node_id is not None else self.node_id)

    def __repr__(self) -> str:
        return f"Namespace({self.node_id!r}, objects={len(self.store)})"
