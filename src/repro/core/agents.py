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

A tour is a sequence of moves (DESIGN.md, "Agents").  Each hop is
:meth:`Mover.move_out` with the remaining stops riding in the transfer,
so it is acked, deduplicated, retried and streamed like any move, and a
hop that fails leaves the agent where it is.  The receiving mover hands
``(name, tour)`` to that node's :class:`AgentManager`, which posts the
agent's step — its arrival hook, then its next hop or its completion
hook — to the transport (:meth:`Transport.post`).  That post is MA's
asynchrony: a hop returns once the agent has landed, not once the tour
is over.  The simulated network runs posted steps, in order, when
``quiesce`` is called; TCP runs them on its worker pool.  A receiver
posts its step before it acks and the sender's step ends only after
the ack, so ``quiesce`` cannot see a tour idle between two stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import LockError, MageError
from repro.net.message import MessageKind
from repro.rmi.protocol import AgentLaunch
from repro.runtime.namespace import Namespace


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
    """Per-namespace tour steps: the first hop of each tour started here,
    and the step of each agent that arrives here (module docstring)."""

    def __init__(self, namespace: Namespace) -> None:
        self.ns = namespace
        #: Tours that ended early here: a hop or an arrival hook failed.
        self.tours_failed = 0
        namespace.external.install_agent_handlers(self._on_launch)
        namespace.mover.tour_hook = self._post

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
        """Hop the locally hosted ``name`` to ``itinerary[0]``; the rest of
        the tour goes on from there without the caller.  A first stop
        here runs its step on the caller's thread.

        Raises what the first hop (or that step) raises, and the agent
        then stays here.
        """
        if not itinerary:
            return
        if self.ns.locks.has_activity(name) and not self.ns.locks.holds_move_lock(
            name, lock_token
        ):
            raise LockError(
                f"starting a tour for {name!r} requires its move lock "
                "(object is contended)"
            )
        first, rest = itinerary[0], tuple(itinerary[1:])
        if first != self.ns.node_id:
            self.ns.mover.move_out(name, first, lock_token, tour=rest)
        else:
            self._step(name, rest, lock_token)

    def _on_launch(self, payload: AgentLaunch) -> str:
        self.start_tour(payload.name, payload.itinerary, payload.lock_token)
        return "touring"

    # -- steps ----------------------------------------------------------------------

    def _post(self, name: str, tour: tuple[str, ...],
              lock_token: str = "") -> None:
        """Post ``name``'s step to the transport.  The mover calls this
        inside the transfer handler, after the agent landed, so it never
        raises."""
        self.ns.transport.post(lambda: self._run(name, tour, lock_token))

    def _run(self, name: str, tour: tuple[str, ...], lock_token: str) -> None:
        """A posted step.  On a node that has shut down it is dropped and
        the agent stays hosted here."""
        if not self.ns.running:
            return
        try:
            self._step(name, tour, lock_token)
        except Exception:
            self.tours_failed += 1

    def _step(self, name: str, tour: tuple[str, ...], lock_token: str) -> None:
        """One stop of a tour: the arrival hook, then the next hop (or the
        completion hook at the last stop)."""
        agent = self.ns.store.get(name)
        ctx = AgentContext(node_id=self.ns.node_id, runtime=self.ns,
                           remaining=tour)
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
            tour = ()
        elif ctx._next_override is not None:
            tour = (ctx._next_override,) + tour
        if not tour:
            on_complete = getattr(agent, "on_complete", None)
            if callable(on_complete):
                on_complete(ctx)
        elif tour[0] == self.ns.node_id:
            self._post(name, tour[1:], lock_token)
        else:
            self.ns.mover.move_out(name, tour[0], lock_token, tour=tour[1:])


def agent_manager_for(namespace: Namespace) -> AgentManager:
    """The namespace's agent manager, created and attached on first use."""
    manager = getattr(namespace, "agents", None)
    if manager is None:
        manager = AgentManager(namespace)
        namespace.agents = manager
    return manager
