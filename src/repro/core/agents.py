"""Mobile agents: multi-hop, asynchronous weak migration (§3.5).

"There are two forms of migration in the MA paradigm — weak and strong.
Strong migration moves a thread's stack along with heap state, while weak
migration just moves heap state.  Since the standard Java virtual machine
does not provide access to execution state, MAGE uses weak migration.
Thus, REV and MA differ under MAGE in that REV is single hop and
synchronous, while MA is multi-hop and asynchronous."

CPython likewise withholds execution state, so agents here are weak: an
agent is any component whose class defines (optionally) the hooks

* ``on_arrival(ctx)`` — runs in the receiving namespace at every hop; may
  steer the tour via ``ctx.go(node)`` / ``ctx.stay()``;
* ``on_complete(ctx)`` — runs when the itinerary is exhausted.

Each hop is a one-way AGENT_HOP cast carrying the agent's state (and class,
when the receiver lacks it); the receiving manager reconstructs the agent,
runs its hook on the cast thread, and forwards it — the paper's
asynchronous, multi-hop contrast to REV.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ClassTransferError, LockError, MageError, NoSuchObjectError
from repro.net.message import MessageKind
from repro.rmi.classdesc import ClassDescriptor
from repro.rmi.marshal import join_pieces
from repro.rmi.protocol import AgentHopPayload, AgentLaunch, ClassRequest
from repro.runtime.namespace import Namespace
from repro.util.ids import fresh_token


class Agent:
    """Optional convenience base class for agents.

    Any class with the hook methods works (duck typing); inheriting just
    supplies no-op defaults and records the visit trail, which tests and
    the examples read back.
    """

    def __init__(self) -> None:
        self.visited: list[str] = []

    def on_arrival(self, ctx: "AgentContext") -> None:
        """Called in each namespace the agent lands in."""
        self.visited.append(ctx.node_id)

    def on_complete(self, ctx: "AgentContext") -> None:
        """Called once the itinerary is exhausted."""


@dataclass
class AgentContext:
    """What an agent sees of the namespace it just landed in."""

    node_id: str
    runtime: Namespace
    remaining: tuple[str, ...]
    _next_override: str | None = field(default=None, repr=False)
    _stopped: bool = field(default=False, repr=False)

    def go(self, node_id: str) -> None:
        """Steer the tour: hop to ``node_id`` next (prepended to the rest)."""
        self._next_override = node_id
        self._stopped = False

    def stay(self) -> None:
        """Stop the tour here, abandoning the remaining itinerary."""
        self._stopped = True

    def query_load(self, node_id: str | None = None) -> float:
        """Host load — lets agents implement network-aware routing."""
        return self.runtime.query_load(node_id)


class AgentManager:
    """Per-namespace service running the AGENT_HOP / AGENT_LAUNCH protocol."""

    def __init__(self, namespace: Namespace) -> None:
        self.ns = namespace
        self._seen_tours: set[str] = set()
        self._lock = threading.Lock()
        self.hops_in = 0
        self.hops_out = 0
        namespace.external.install_agent_handlers(self._on_hop, self._on_launch)

    # -- initiating tours -------------------------------------------------------

    def launch(self, agent: Any, name: str, itinerary: tuple[str, ...],
               shared: bool = False) -> None:
        """Register ``agent`` here and send it around ``itinerary``."""
        self.ns.register(name, agent, shared=shared)
        self.start_tour(name, tuple(itinerary))

    def send_through(self, name: str, itinerary: tuple[str, ...],
                     origin_hint: str | None = None, lock_token: str = "") -> None:
        """Start a tour for ``name`` wherever it currently lives."""
        if self.ns.store.contains(name):
            self.start_tour(name, tuple(itinerary), lock_token)
            return
        location = self.ns.find(name, origin_hint)
        self.ns.transport.call(
            self.ns.node_id, location, MessageKind.AGENT_LAUNCH,
            AgentLaunch(name=name, itinerary=tuple(itinerary), lock_token=lock_token),
        )

    def start_tour(self, name: str, itinerary: tuple[str, ...],
                   lock_token: str = "") -> None:
        """Pack the locally hosted agent and hop it to ``itinerary[0]``."""
        if not itinerary:
            return
        if self.ns.locks.has_activity(name) and not self.ns.locks.holds_move_lock(
            name, lock_token
        ):
            raise LockError(
                f"starting a tour for {name!r} requires its move lock "
                "(object is contended)"
            )
        record = self.ns.store.record(name)
        self._hop_out(record.obj, name, tuple(itinerary), shared=record.shared)

    # -- the hop protocol ----------------------------------------------------------

    def _hop_out(self, agent: Any, name: str, itinerary: tuple[str, ...],
                 shared: bool) -> None:
        next_node, rest = itinerary[0], itinerary[1:]
        if next_node == self.ns.node_id:
            # Degenerate hop to self: just continue the tour locally.
            self._arrive_locally(agent, name, rest, shared)
            return
        mover = self.ns.mover
        desc = mover.descriptor_for(agent)
        probe = mover.begin_class_probe(next_node, desc)
        pieces = mover.pack_state(agent)  # overlaps the probe's round trip
        payload = AgentHopPayload(
            name=name,
            class_name=desc.class_name,
            state_blob=join_pieces(pieces),
            class_desc=desc if mover.resolve_class_probe(
                probe, next_node, desc
            ) else None,
            class_hash=desc.source_hash,
            origin=self.ns.node_id,
            tour_id=fresh_token("tour"),
            itinerary=rest,
            shared=shared,
        )
        if self.ns.store.contains(name):
            self.ns.store.remove(name)
        self.ns.registry.record_departure(name, next_node)
        self.ns.locks.mark_moved(name, next_node)
        self.hops_out += 1
        self.ns.transport.cast(
            self.ns.node_id, next_node, MessageKind.AGENT_HOP, payload
        )

    def _on_launch(self, payload: AgentLaunch) -> str:
        if not self.ns.store.contains(payload.name):
            raise NoSuchObjectError(payload.name, self.ns.node_id)
        self.start_tour(payload.name, payload.itinerary, payload.lock_token)
        return "touring"

    def _on_hop(self, payload: AgentHopPayload) -> None:
        with self._lock:
            if payload.tour_id in self._seen_tours:
                return
            self._seen_tours.add(payload.tour_id)
        agent = self._reconstruct(payload)
        self.hops_in += 1
        self._arrive_locally(
            agent, payload.name, payload.itinerary, payload.shared
        )

    def _arrive_locally(self, agent: Any, name: str,
                        remaining: tuple[str, ...], shared: bool) -> None:
        self.ns.store.add(name, agent, shared=shared)
        self.ns.registry.record_arrival(name)
        self.ns.locks.mark_arrived(name)
        ctx = AgentContext(
            node_id=self.ns.node_id, runtime=self.ns, remaining=remaining
        )
        on_arrival = getattr(agent, "on_arrival", None)
        if callable(on_arrival):
            try:
                on_arrival(ctx)
            except Exception as exc:
                raise MageError(
                    f"agent {name!r} arrival hook failed at "
                    f"{self.ns.node_id!r}: {exc}"
                ) from exc
        if ctx._stopped:
            remaining = ()
        elif ctx._next_override is not None:
            remaining = (ctx._next_override,) + remaining
        if remaining:
            self._hop_out(agent, name, remaining, shared)
            return
        on_complete = getattr(agent, "on_complete", None)
        if callable(on_complete):
            on_complete(ctx)

    def _reconstruct(self, payload: AgentHopPayload) -> Any:
        cache = self.ns.classcache
        if payload.class_desc is not None:
            cls = cache.load(payload.class_desc)
        elif cache.has_hash(payload.class_hash):
            cls = cache.clone_by_hash(payload.class_hash)
        else:
            desc = self.ns.transport.call(
                self.ns.node_id, payload.origin, MessageKind.CLASS_REQUEST,
                ClassRequest(class_name=payload.class_name),
            )
            if not isinstance(desc, ClassDescriptor):
                raise ClassTransferError(
                    f"origin {payload.origin!r} served no descriptor for "
                    f"{payload.class_name!r}"
                )
            cls = cache.load(desc)
        return self.ns.mover.unpack(cls, payload.state_blob)


def agent_manager_for(namespace: Namespace) -> AgentManager:
    """The namespace's agent manager, created and attached on first use."""
    manager = getattr(namespace, "agents", None)
    if manager is None:
        manager = AgentManager(namespace)
        namespace.agents = manager
    return manager
