"""Membership: host discovery, address-book propagation, and liveness.

The introduction requires distributed systems to "support host and
resource discovery, incorporate new hardware and robustly cope with
changing network conditions".  For a single process that reduced to
asking the transport which nodes are registered; spanning real machines
needs three more things, which this service provides:

* **Seed-list join** — a newcomer dials one known member
  (:meth:`Membership.join`), presents its own endpoint, and receives the
  seed's roster (``node_id -> endpoint``) in return; both sides merge
  into their transports' address books.
* **JOIN/ANNOUNCE propagation** — the seed pushes the updated roster to
  the other members it knows, so one join teaches the whole cluster the
  newcomer's address.  Merging is idempotent and last-write-wins per
  node: a peer re-joining from a *new* endpoint replaces its stale entry
  everywhere (and stale connections are severed by the transport).
* **Heartbeat failure detection** — a periodic PING sweep
  (:meth:`Membership.heartbeat_once`, optionally on a background thread
  via :meth:`Membership.start_heartbeat`); ``suspect_after`` consecutive
  misses declare a host **dead**.  The verdict feeds everything that
  routes work: dead hosts drop out of :meth:`hosts`/:meth:`peers` (so a
  :class:`~repro.cluster.load.LoadBalancer` given this membership never
  picks one as a migration target), their forwarding hints are evicted
  from the local registry, and the transport prunes their per-peer state
  (latency EWMAs, address-book entry, channels).

Nothing here runs unless asked: with no joins and no heartbeat the
service answers exactly like the PR-4 ``DiscoveryService`` it grew from
— ``hosts()`` is the transport's node list — which keeps every
simulated-network trace byte-identical.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.cluster.load import least_loaded
from repro.errors import MageError, TransportError
from repro.net.deadline import Deadline
from repro.net.endpoint import Endpoint
from repro.net.message import MessageKind
from repro.net.transport import gather
from repro.rmi.protocol import AnnouncePayload, JoinRequest
from repro.runtime.namespace import Namespace


class Membership:
    """Cluster membership as seen from (and served by) one namespace.

    Every query sweep takes one optional
    :class:`~repro.net.deadline.Deadline` for the *whole* fan-out:
    membership answers are only useful fresh, so a sweep should spend
    one bounded window total — not one io timeout per unresponsive host
    — and probes still pending at expiry are cancelled.
    """

    def __init__(self, namespace: Namespace,
                 heartbeat_interval_s: float = 1.0,
                 heartbeat_timeout_ms: float = 750.0,
                 suspect_after: int = 3,
                 announce_timeout_ms: float = 2000.0) -> None:
        if suspect_after < 1:
            raise MageError(f"suspect_after must be >= 1, got {suspect_after}")
        self.ns = namespace
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_ms = heartbeat_timeout_ms
        self.suspect_after = suspect_after
        self.announce_timeout_ms = announce_timeout_ms
        self._lock = threading.Lock()
        #: Members learned via JOIN/ANNOUNCE (beyond the transport's own
        #: node list): ``node_id -> (host, port[, uds]) | None``.  The
        #: roster spelling stays a plain tuple so builds predating the
        #: Unix-socket facet read it unchanged.
        self._members: dict[str, tuple | None] = {}
        self._dead: set[str] = set()
        self._misses: dict[str, int] = {}
        self._death_callbacks: list[Callable[[str], None]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        external = getattr(namespace, "external", None)
        if external is not None and hasattr(external,
                                            "install_membership_handlers"):
            external.install_membership_handlers(self.handle_join,
                                                 self.handle_announce)

    # -- membership queries ---------------------------------------------------

    def hosts(self) -> list[str]:
        """Every member this namespace currently believes alive (sorted).

        The transport's node list (local nodes plus address-book peers)
        merged with members learned via JOIN/ANNOUNCE, minus hosts the
        heartbeat declared dead.
        """
        with self._lock:
            learned = set(self._members)
            dead = set(self._dead)
        return sorted((set(self.ns.transport.nodes()) | learned) - dead)

    def peers(self) -> list[str]:
        """Every live member except this one."""
        return [n for n in self.hosts() if n != self.ns.node_id]

    def is_alive(self, node_id: str,
                 deadline: Deadline | None = None) -> bool:
        """Liveness probe: a PING answered within the retry budget
        (and within ``deadline``, when one is given)."""
        try:
            return self.ns.server.ping(node_id, deadline=deadline)
        except (TransportError, MageError):
            return False

    def alive_peers(self, deadline: Deadline | None = None) -> list[str]:
        """Peers that answer a PING right now (one parallel sweep,
        one shared deadline)."""
        answers = self.ns.server.ping_many(self.peers(), deadline=deadline)
        return [n for n in self.peers() if answers.get(n)]

    def loads(self, candidates: list[str] | None = None,
              deadline: Deadline | None = None) -> dict[str, float]:
        """Current load of each candidate (default: all alive peers).

        A scatter-gather LOAD_QUERY sweep: a host that vanished mid-query
        simply drops out, and on the pipelined TCP transport N candidates
        cost one round-trip latency, not N.  With a ``deadline`` the ping
        and load sweeps share it (one budget for the whole decision).
        """
        nodes = candidates if candidates is not None else self.alive_peers(deadline)
        return self.ns.server.query_load_many(nodes, skip_unreachable=True,
                                              deadline=deadline)

    def least_loaded(self, candidates: list[str] | None = None,
                     deadline: Deadline | None = None) -> str:
        """The least-loaded candidate (ties broken by name).

        Raises :class:`MageError` when no candidate answered.
        """
        return least_loaded(self.loads(candidates, deadline=deadline))

    # -- join / announce ------------------------------------------------------

    def _my_endpoint(self) -> tuple | None:
        endpoint_of = getattr(self.ns.transport, "endpoint_of", None)
        if endpoint_of is None:
            return None
        endpoint = endpoint_of(self.ns.node_id)
        return endpoint.as_tuple() if endpoint is not None else None

    def roster(self) -> dict[str, tuple | None]:
        """This namespace's membership view: ``node_id -> endpoint``.

        What a JOIN reply and an ANNOUNCE carry.  Entries are plain
        tuples — ``(host, port)``, or ``(host, port, uds)`` when the
        node also listens on a same-host Unix socket — so the roster
        stays readable by builds that predate the facet.  Dead members
        are excluded — propagating a corpse's address would resurrect
        it in every address book the announcement reaches.
        """
        transport = self.ns.transport
        entries: dict[str, tuple | None] = {}
        for node in transport.nodes():
            endpoint = transport.endpoint_of(node)
            entries[node] = endpoint.as_tuple() if endpoint is not None else None
        with self._lock:
            for node, address in self._members.items():
                entries.setdefault(node, address)
            for node in self._dead:
                entries.pop(node, None)
        return entries

    def join(self, seed: str,
             seed_endpoint: Endpoint | tuple[str, int] | None = None,
             deadline: Deadline | None = None) -> list[str]:
        """Join the cluster through ``seed``; returns the learned hosts.

        ``seed_endpoint`` bootstraps the address book when the seed is in
        another process (the usual cross-host case: all a newcomer knows
        is one ``host:port`` from its seed list); omit it when the seed
        is already reachable.  The JOIN carries this node's own endpoint;
        the seed records it, answers with its roster, and announces the
        newcomer to the other members.
        """
        if seed_endpoint is not None:
            self.ns.transport.connect(seed, seed_endpoint)
        roster = self.ns.transport.call(
            self.ns.node_id, seed, MessageKind.JOIN,
            JoinRequest(node_id=self.ns.node_id, endpoint=self._my_endpoint()),
            deadline=deadline,
        )
        self._merge(roster)
        return self.hosts()

    def handle_join(self, request: JoinRequest) -> dict:
        """Seed side of JOIN: record the newcomer, announce, answer.

        The announce fan-out runs *before* the reply deliberately: when
        ``join`` returns, every reachable member already knows the
        newcomer — the deterministic guarantee the tests and operators
        lean on.  The price is that a hung (not yet declared dead)
        member can delay a join by up to ``announce_timeout_ms``; tune
        that knob down where join latency matters more than the
        synchronous-propagation guarantee.
        """
        others = [n for n in self.peers() if n != request.node_id]
        self._merge({request.node_id: request.endpoint})
        roster = self.roster()
        if others:
            # Teach the rest of the cluster the newcomer's address.  One
            # bounded fan-out, failures tolerated: a member that misses
            # the announcement still learns the address on first contact
            # or at the next join's roster push.
            deadline = Deadline.after_ms(self.announce_timeout_ms)
            futures = self.ns.server.scatter(
                others, MessageKind.ANNOUNCE, AnnouncePayload(members=roster),
                deadline=deadline,
            )
            gather(futures.values(), return_exceptions=True,
                   deadline=deadline, cancel_stragglers=True)
        return roster

    def handle_announce(self, payload: AnnouncePayload) -> bool:
        """Peer side of ANNOUNCE: merge the pushed roster."""
        self._merge(payload.members)
        return True

    def _merge(self, members: dict) -> None:
        """Fold a received roster into the local view (idempotent).

        New members join the address book; a *changed* endpoint replaces
        the stale entry (``Transport.connect`` severs connections built
        on the old address); a member previously declared dead is
        revived — a re-join is positive evidence of life.
        """
        for node, address in members.items():
            if node == self.ns.node_id:
                continue
            if address is not None:
                self.ns.transport.connect(node, Endpoint(*address))
            with self._lock:
                self._members[node] = address
                self._dead.discard(node)
                self._misses.pop(node, None)

    def leave(self, node_id: str) -> None:
        """Forget ``node_id`` entirely (clean departure, not death)."""
        with self._lock:
            self._members.pop(node_id, None)
            self._dead.discard(node_id)
            self._misses.pop(node_id, None)
        self.ns.transport.forget_peer(node_id)

    # -- heartbeat failure detection ------------------------------------------

    def heartbeat_once(self) -> dict[str, bool]:
        """One PING sweep over the live peers; returns ``{peer: answered}``.

        ``suspect_after`` consecutive misses declare a peer dead (see
        :meth:`declare_dead`).  Deterministic building block: tests and
        controllers can drive the detector without the background
        thread's timing.
        """
        peers = self.peers()
        if not peers:
            return {}
        answers = self.ns.server.ping_many(
            peers, deadline=Deadline.after_ms(self.heartbeat_timeout_ms)
        )
        for node, answered in answers.items():
            if answered:
                with self._lock:
                    self._misses.pop(node, None)
                continue
            with self._lock:
                misses = self._misses.get(node, 0) + 1
                self._misses[node] = misses
            if misses >= self.suspect_after:
                self.declare_dead(node)
        return answers

    def start_heartbeat(self, interval_s: float | None = None) -> None:
        """Run :meth:`heartbeat_once` periodically on a daemon thread."""
        if interval_s is not None:
            self.heartbeat_interval_s = interval_s
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"mage-heartbeat-{self.ns.node_id}", daemon=True,
            )
            self._thread.start()

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval_s):
            try:
                self.heartbeat_once()
            except Exception:
                # A sweep that dies (transport torn down mid-shutdown)
                # must not kill the detector; the next tick retries.
                pass

    def stop(self) -> None:
        """Stop the heartbeat thread (idempotent; safe if never started)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._thread = None

    def declare_dead(self, node_id: str) -> None:
        """Record a failure verdict for ``node_id`` and act on it.

        The host leaves :meth:`hosts`/:meth:`peers` (so balancing never
        targets it), its forwarding hints are evicted from this
        namespace's registry, the transport prunes its per-peer state,
        and every :meth:`on_death` callback fires.  Idempotent; a later
        JOIN/ANNOUNCE naming the host revives it.
        """
        with self._lock:
            if node_id in self._dead:
                return
            self._dead.add(node_id)
            self._misses.pop(node_id, None)
            callbacks = list(self._death_callbacks)
        self.ns.transport.forget_peer(node_id)
        self.ns.registry.evict_hints(node_id)
        for callback in callbacks:
            try:
                callback(node_id)
            except Exception:
                pass  # one observer's bug must not mask the verdict

    def dead(self) -> set[str]:
        """Hosts the failure detector has declared dead."""
        with self._lock:
            return set(self._dead)

    def is_dead(self, node_id: str) -> bool:
        with self._lock:
            return node_id in self._dead

    def on_death(self, callback: Callable[[str], None]) -> None:
        """Register ``callback(node_id)`` to run on each death verdict."""
        with self._lock:
            self._death_callbacks.append(callback)


class DiscoveryService(Membership):
    """Backward-compatible name for :class:`Membership`.

    Earlier PRs exposed discovery-only queries under this name; the
    membership refactor grew it join/announce/heartbeat machinery
    without changing any existing method's behaviour.
    """
