"""Cluster bring-up: N cooperating namespaces over one transport.

The paper's Figure 6 system — "Cooperating Java virtual machines comprise
MAGE; these JVMs layer a homogeneous and consistent programming
environment over the underlying heterogeneous network hardware" — reduced
to one call::

    with Cluster(["lab", "sensor1", "sensor2"]) as cluster:
        lab = cluster["lab"]
        ...

The default substrate is the deterministic simulated network; pass
``transport="tcp"`` to run the same topology over real loopback sockets.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.cluster.node import Node
from repro.net.conditions import LatencyModel, LossModel
from repro.net.deadline import Deadline
from repro.net.message import MessageKind
from repro.net.simnet import SimNetwork
from repro.net.tcpnet import TcpNetwork
from repro.net.trace import MessageTrace
from repro.net.transport import Transport, gather
from repro.util.clock import Clock


class Cluster:
    """A set of nodes sharing one transport, brought up and torn down together."""

    def __init__(
        self,
        node_ids: list[str] | tuple[str, ...],
        transport: str | Transport = "sim",
        latency: LatencyModel | None = None,
        loss: LossModel | None = None,
        clock: Clock | None = None,
        class_cache: bool = True,
        path_collapsing: bool = True,
        stream_threshold: int | None = None,
        chunk_bytes: int | None = None,
    ) -> None:
        if not node_ids:
            raise ConfigurationError("a cluster needs at least one node")
        if len(set(node_ids)) != len(node_ids):
            raise ConfigurationError(f"duplicate node ids: {sorted(node_ids)}")
        self.transport = self._build_transport(transport, latency, loss, clock)
        self._nodes: dict[str, Node] = {}
        for node_id in node_ids:
            self._nodes[node_id] = Node(
                node_id,
                self.transport,
                class_cache=class_cache,
                path_collapsing=path_collapsing,
                stream_threshold=stream_threshold,
                chunk_bytes=chunk_bytes,
            )

    @staticmethod
    def _build_transport(
        transport: str | Transport,
        latency: LatencyModel | None,
        loss: LossModel | None,
        clock: Clock | None,
    ) -> Transport:
        if isinstance(transport, Transport):
            if latency is not None or loss is not None or clock is not None:
                raise ConfigurationError(
                    "pass latency/loss/clock to the transport you construct, "
                    "not to Cluster"
                )
            return transport
        if transport == "sim":
            return SimNetwork(clock=clock, latency=latency, loss=loss)
        if transport == "tcp":
            if latency is not None or loss is not None:
                raise ConfigurationError(
                    "latency/loss models apply to the simulated network only"
                )
            return TcpNetwork(clock=clock)
        raise ConfigurationError(
            f"unknown transport {transport!r} (expected 'sim', 'tcp', or an instance)"
        )

    # -- access -------------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        """The named node; raises for unknown ids."""
        node = self._nodes.get(node_id)
        if node is None:
            raise ConfigurationError(
                f"no node {node_id!r} in cluster {sorted(self._nodes)}"
            )
        return node

    def __getitem__(self, node_id: str) -> Node:
        return self.node(node_id)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def node_ids(self) -> list[str]:
        """Node ids in creation order."""
        return list(self._nodes)

    @property
    def clock(self) -> Clock:
        return self.transport.clock

    @property
    def trace(self) -> MessageTrace:
        return self.transport.trace

    # -- orchestration ----------------------------------------------------------------

    def add_node(self, node_id: str, **node_kwargs) -> Node:
        """Grow the cluster ("systems joining", §1)."""
        if node_id in self._nodes:
            raise ConfigurationError(f"node {node_id!r} already exists")
        node = Node(node_id, self.transport, **node_kwargs)
        self._nodes[node_id] = node
        return node

    def quiesce(self, timeout_s: float = 30.0) -> None:
        """Let every posted job finish — the agent steps that carry a tour
        on after its first hop returned (§3.5's asynchrony) — see
        :meth:`Transport.quiesce`.  On the simulated network they run here,
        on this thread.  Raises :class:`~repro.errors.MageError` after
        ``timeout_s``."""
        self.transport.quiesce(timeout_s)

    # -- scatter-gather fan-out ----------------------------------------------------

    def issuer(self, src: str | None = None) -> Node:
        """The node a cluster-wide operation is issued from.

        ``None`` picks the first node (creation order); shared by every
        fan-out helper and by :class:`~repro.cluster.load.LoadBalancer`,
        so the default-issuer rule lives in exactly one place.
        """
        if src is not None:
            return self.node(src)
        return next(iter(self._nodes.values()))

    def broadcast(
        self,
        kind: MessageKind,
        payload: Any = None,
        src: str | None = None,
        targets: Sequence[str] | None = None,
        return_exceptions: bool = False,
        deadline: Deadline | None = None,
    ) -> dict[str, Any]:
        """One request to every node, all round trips in flight at once.

        Scatters ``kind``/``payload`` from ``src`` (default: the first
        node) to ``targets`` (default: every node, the issuer included)
        and gathers ``{node: reply}``.  With ``return_exceptions=True`` a
        failed target maps to its exception instead of aborting the
        sweep; otherwise every future is still collected before the first
        failure re-raises, so no round trip is left dangling.

        One ``deadline`` bounds the *whole* fan-out (not one per node): a
        node that cannot answer in time contributes/raises
        :class:`~repro.errors.CallTimeoutError` and its probe is
        cancelled rather than left consuming io-timeout.
        """
        issuer = self.issuer(src)
        ids = list(targets) if targets is not None else self.node_ids()
        futures = issuer.namespace.server.scatter(ids, kind, payload,
                                                  deadline=deadline)
        outcomes = dict(zip(futures, gather(
            futures.values(), return_exceptions=True, deadline=deadline,
            cancel_stragglers=deadline is not None,
        )))
        if not return_exceptions:
            for value in outcomes.values():
                if isinstance(value, Exception):
                    raise value
        return outcomes

    def push_class_everywhere(self, class_name: str,
                              from_node: str | None = None,
                              deadline: Deadline | None = None) -> dict[str, str]:
        """Distribute a class to every node in parallel; ``{node: hash}``.

        ``from_node`` names the serving node (default: the first node
        whose cache holds the class).  The pushes are one conditional push
        per target, all overlapped — at 8 nodes this is the scatter-gather
        fan-out the async benchmark measures against the sequential loop.
        ``deadline`` bounds the whole fan-out with one shared budget.
        """
        if from_node is None:
            for node in self._nodes.values():
                if node.namespace.classcache.has_class(class_name):
                    from_node = node.node_id
                    break
            if from_node is None:
                raise ConfigurationError(
                    f"no node in the cluster caches class {class_name!r}"
                )
        source = self.node(from_node)
        targets = [n for n in self.node_ids() if n != from_node]
        hashes = source.namespace.server.push_class_many(class_name, targets,
                                                         deadline=deadline)
        hashes[from_node] = source.namespace.classcache.descriptor(
            class_name
        ).source_hash
        return hashes

    def query_all_loads(self, src: str | None = None,
                        deadline: Deadline | None = None,
                        timeout_load: float | None = None,
                        targets: Sequence[str] | None = None) -> dict[str, float]:
        """Every live node's load from one parallel sweep.

        Hosts that fail to answer drop out (a vanished host is not a
        balancing candidate) — the cluster-size-independent primitive
        :class:`~repro.cluster.load.LoadBalancer` decisions are built on.
        One ``deadline`` bounds the whole sweep; ``timeout_load`` prices
        deadline-expired probes at that value instead of dropping them
        (the balancer's overloaded-by-silence signal).

        ``targets`` overrides the swept hosts (default: this cluster's
        own nodes) — a membership-fed balancer passes its live-host view,
        which may include peers hosted by *other processes* reachable
        through the transport's address book.
        """
        issuer = self.issuer(src)
        swept = list(targets) if targets is not None else self.node_ids()
        return issuer.namespace.server.query_load_many(
            swept, skip_unreachable=True, deadline=deadline,
            timeout_load=timeout_load,
        )

    def locate(self, name: str, src: str | None = None,
               deadline: Deadline | None = None) -> str:
        """Find a component by probing every node's registry in parallel.

        The first probe to resolve wins and the stragglers are cancelled,
        so one hung registry cannot stall a locate that already succeeded;
        ``deadline`` bounds the whole fan-out.
        """
        issuer = self.issuer(src)
        return issuer.namespace.server.locate_any(name, self.node_ids(),
                                                  deadline=deadline)

    # -- fault injection (simulated network only) ----------------------------------------

    def _simnet(self) -> SimNetwork:
        if not isinstance(self.transport, SimNetwork):
            raise ConfigurationError(
                "fault injection requires the simulated network"
            )
        return self.transport

    def crash(self, node_id: str) -> None:
        """Make a node unreachable (simulated network only)."""
        self._simnet().crash(node_id)

    def recover(self, node_id: str) -> None:
        """Undo :meth:`crash`."""
        self._simnet().recover(node_id)

    def partition(self, a: str, b: str) -> None:
        """Sever the link between two nodes (bidirectional)."""
        self._simnet().partition(a, b)

    def heal(self, a: str, b: str) -> None:
        """Undo :meth:`partition`."""
        self._simnet().heal(a, b)

    # -- lifecycle ----------------------------------------------------------------------

    def shutdown(self) -> None:
        """Tear everything down (idempotent)."""
        for node in self._nodes.values():
            node.shutdown()
        shutdown = getattr(self.transport, "shutdown", None)
        if callable(shutdown):
            shutdown()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        kind = type(self.transport).__name__
        return f"Cluster({self.node_ids()}, transport={kind})"
