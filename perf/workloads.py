"""The seven workloads: topology, one operation, and the checks on it.

A workload builds its own topology from defaults only (``TcpNetwork()``;
``uds=False`` once, where the TCP tier is the subject), hands the harness
one closure per caller, and verifies the system's state afterwards.  One
``TcpNetwork`` per node stands in for one OS process: that is the
cross-host shape, run in a single process as the existing benches do.

Inputs come from ``random.Random(seed)``; byte payloads are ``randbytes``
so compression is never what is measured.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Callable

from repro.core.models import CLE, COD, GREV
from repro.net.simnet import SimNetwork
from repro.net.tcpnet import TcpNetwork
from repro.rmi.marshal import marshal, marshal_call
from repro.runtime.namespace import Namespace

from perf.servants import Adder, Blob, Counter

HOSTS = ("h0", "h1", "h2")
DRIVERS = ("c0", "c1")
CLUSTER5 = HOSTS + DRIVERS

#: §4.4 bracket budget: generous, so a timeout is a defect, not load.
LOCK_TIMEOUT_MS = 2000.0


class WrongResult(Exception):
    """An operation returned something other than what its input implies."""


class Topology:
    """Transports and namespaces of one run, closed together."""

    def __init__(self, nets: list, namespaces: dict[str, Namespace]) -> None:
        self.nets = nets
        self.ns = namespaces

    def close(self) -> None:
        for namespace in self.ns.values():
            namespace.shutdown()
        for net in self.nets:
            net.shutdown()


def _connected(node_ids: tuple[str, ...], ns_kwargs: dict | None = None,
               **net_kwargs: Any) -> Topology:
    """One ``TcpNetwork`` per node id, every pair joined with ``connect``."""
    nets = {node: TcpNetwork(**net_kwargs) for node in node_ids}
    namespaces = {node: Namespace(node, nets[node], **(ns_kwargs or {}))
                  for node in node_ids}
    for node, net in nets.items():
        for peer, peer_net in nets.items():
            if peer != node:
                net.connect(peer, peer_net.endpoint_of(peer))
    return Topology(list(nets.values()), namespaces)


def pair(**net_kwargs: Any) -> Topology:
    return _connected(("caller", "server"), **net_kwargs)


def solo() -> Topology:
    return _connected(("solo",))


def cluster5(**ns_kwargs: Any) -> Topology:
    return _connected(CLUSTER5, ns_kwargs)


def sim5() -> Topology:
    net = SimNetwork()
    return Topology([net], {node: Namespace(node, net) for node in CLUSTER5})


class Workload:
    """Base: what the harness and the layer probes need from a workload."""

    name = ""
    topology = ""
    #: Closed loop: this many caller threads, each waiting for its reply.
    callers = 2
    #: Open loop when set: requests per second from one generator thread.
    rate: float | None = None
    #: Caller 0 empties the message traces every this many ops (chosen to
    #: pin at most ~8 MB).  The default ``MessageTrace`` retains every
    #: payload, so a time-bounded run would otherwise measure a growing
    #: heap instead of the system.
    clear_every = 4096

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.topo: Topology | None = None
        self.wrong = 0

    # -- lifecycle -----------------------------------------------------------

    def build(self) -> None:
        """Transports, namespaces, registration and a first successful op."""
        raise NotImplementedError

    def close(self) -> None:
        if self.topo is not None:
            self.topo.close()
            self.topo = None

    def make_op(self, caller: int) -> Callable[[int], Any]:
        """The closure caller thread ``caller`` runs; ``i`` counts its ops."""
        raise NotImplementedError

    def check(self, succeeded: int) -> list[str]:
        """Postconditions on the system's state; returns what is wrong."""
        return []

    # -- what the layer probes replay ------------------------------------------

    def sample_call(self) -> tuple[str, str, str, tuple, Any]:
        """``(hosting node, name, method, args, result)`` of a
        representative invocation: the inputs the stage replay pushes
        through each layer."""
        raise NotImplementedError

    def clear_traces(self) -> None:
        for net in self.topo.nets:
            net.trace.clear()

    def kinds_in_trace(self) -> set[str]:
        """Message kinds recorded since the traces were last emptied."""
        kinds: set[str] = set()
        for net in self.topo.nets:
            kinds.update(net.trace.summary())
        return kinds

    def hosted_on(self, name: str) -> list[str]:
        return [node for node, ns in self.topo.ns.items()
                if ns.store.contains(name)]

    def staging_leak(self) -> int:
        return sum(ns.mover.staging_count() for ns in self.topo.ns.values())


class _PairInvoke(Workload):
    """A stub on ``caller`` invoking an ``Adder`` hosted on ``server``."""

    topology = "pair"
    net_kwargs: dict[str, Any] = {}

    def build(self) -> None:
        self.topo = pair(**self.net_kwargs)
        self.topo.ns["server"].register("adder", Adder())
        self.stub = self.topo.ns["caller"].stub("adder", location="server")
        self.base = 1000 + self.rng.randrange(20000)
        if self.stub.add(self.base) != self.base:
            raise WrongResult("first add")

    def check(self, succeeded: int) -> list[str]:
        hits = self.topo.ns["caller"].client.local_hits
        return [f"{hits} calls took the in-process bypass"] if hits else []


def _add_op(workload: Any, caller: int) -> Callable[[int], Any]:
    """``stub.add(x)`` must return ``x``; ``x`` differs per caller and op."""
    add, base = workload.stub.add, workload.base + caller

    def op(i: int) -> None:
        if add(base + i) != base + i:
            workload.wrong += 1
    return op


class InvokeSmall(_PairInvoke):
    name = "invoke_small"

    def make_op(self, caller: int) -> Callable[[int], Any]:
        return _add_op(self, caller)

    def sample_call(self):
        return "server", "adder", "add", (self.base,), self.base


class InvokeTree15k(_PairInvoke):
    name = "invoke_tree15k"
    clear_every = 256

    def build(self) -> None:
        super().build()
        # 5000 two-byte ints: 14.8 KB marshalled each way, whatever the seed.
        self.tree = list(range(self.base, self.base + 5000))
        self.bytes_per_op = (len(marshal_call((self.tree,), {}))
                             + len(marshal(self.tree)))

    def make_op(self, caller: int) -> Callable[[int], Any]:
        echo, tree = self.stub.echo, self.tree

        def op(i: int) -> None:
            if echo(tree) != tree:
                self.wrong += 1
        return op

    def sample_call(self):
        return "server", "adder", "echo", (self.tree,), self.tree


class InvokeAsyncOpen(_PairInvoke):
    name = "invoke_async_open"
    net_kwargs = {"uds": False}
    callers = 1
    rate = 1000.0
    clear_every = 256

    def build(self) -> None:
        super().build()
        # Path taken: calls outstanding together must ride AUTO_BATCH
        # frames.  At 1000/s few do (see net.tcpnet.batched_share), so the
        # check is made here on a burst, where it cannot depend on timing.
        burst = [self.stub.futures.add(self.base + k) for k in range(64)]
        if [future.result() for future in burst] != \
                [self.base + k for k in range(64)]:
            raise WrongResult("first burst")

    def make_op(self, caller: int) -> Callable[[int], Any]:
        """Returns the future; the harness stamps completion in a done
        callback and :meth:`verify_result` checks the value afterwards."""
        add, base = self.stub.futures.add, self.base
        return lambda i: add(base + i)

    def verify_result(self, i: int, value: Any) -> None:
        if value != self.base + i:
            self.wrong += 1

    def check(self, succeeded: int) -> list[str]:
        problems = super().check(succeeded)
        stats = self.topo.ns["caller"].transport.data_plane_metrics()
        if stats.auto_batches == 0:
            problems.append("no AUTO_BATCH frame formed")
        return problems

    def sample_call(self):
        return "server", "adder", "add", (self.base,), self.base


class InvokeLocal(Workload):
    name = "invoke_local"
    topology = "solo"

    def build(self) -> None:
        self.topo = solo()
        ns = self.topo.ns["solo"]
        ns.register("adder", Adder())
        self.stub = ns.stub("adder")
        self.base = 1000 + self.rng.randrange(20000)
        if self.stub.add(self.base) != self.base:
            raise WrongResult("first add")
        self.hits0 = ns.client.local_hits

    def make_op(self, caller: int) -> Callable[[int], Any]:
        return _add_op(self, caller)

    def check(self, succeeded: int) -> list[str]:
        hits = self.topo.ns["solo"].client.local_hits - self.hits0
        if hits < succeeded:
            return [f"only {hits} of {succeeded} calls took the bypass"]
        return []

    def sample_call(self):
        return "solo", "adder", "add", (self.base,), self.base


class MoveStream1m(Workload):
    name = "move_stream_1m"
    topology = "cluster5"
    callers = 1
    clear_every = 8
    state_bytes = 1 << 20

    def build(self) -> None:
        self.topo = cluster5(chunk_bytes=2 * self.state_bytes)
        data = self.rng.randbytes(self.state_bytes)
        self.crc = zlib.crc32(data)
        self.topo.ns["h0"].register("blob", Blob(data))
        self.driver = self.topo.ns["c0"]
        self.bytes_per_op = self.state_bytes
        if self.driver.move("blob", "h1", origin_hint="h0") != "h1":
            raise WrongResult("first move")

    def make_op(self, caller: int) -> Callable[[int], Any]:
        move = self.driver.move

        def op(i: int) -> None:
            # The first move (in build) went to h1, so op 0 goes to h2.
            target = HOSTS[(i + 2) % 3]
            if move("blob", target, origin_hint="h0") != target:
                self.wrong += 1
        return op

    def check(self, succeeded: int) -> list[str]:
        problems = []
        hosts = self.hosted_on("blob")
        if len(hosts) != 1:
            return [f"blob hosted on {hosts}, expected exactly one node"]
        # Path taken: one more move, alone in the traces, must be streamed.
        self.clear_traces()
        target = HOSTS[(HOSTS.index(hosts[0]) + 1) % 3]
        self.driver.move("blob", target, origin_hint="h0")
        if "TRANSFER_CHUNK" not in self.kinds_in_trace():
            problems.append("no TRANSFER_CHUNK seen: the move was not streamed")
        stub = self.driver.stub("blob", location=target)
        if stub.crc() != self.crc or stub.size() != self.state_bytes:
            problems.append("blob CRC32 changed in transit")
        return problems

    def sample_call(self):
        return self.hosted_on("blob")[0], "blob", "crc", (), self.crc


class MobileMix(Workload):
    """The paper's own workload: invocations while the objects move.

    Every op runs inside the §4.4 bracket.  Unlocked binds race by design
    (an object can leave between ``find`` and the invoke), so under the
    bracket any failure is a defect rather than an expected miss.

    Each driver works its own half of the counters.  The hosts' registries,
    lock managers and pools are shared, but no object is found by one
    driver while the other moves it: that race fails about once in 5 000
    ops even inside the bracket (``lock`` finds before it locks, and a
    find that crosses a committing move reports a forwarding cycle), and
    a workload on which ops fail cannot gate anything.
    """

    name = "mobile_mix"
    topology = "cluster5"
    callers = 2
    counters = 8
    clear_every = 512
    #: Cumulative shares: 60 % CLE, 20 % COD, 10 % GREV, 10 % bare move.
    CUTS = (0.60, 0.80, 0.90)

    def _topology(self) -> Topology:
        return cluster5()

    def build(self) -> None:
        self.topo = self._topology()
        self.names = [f"counter{k}" for k in range(self.counters)]
        self.origin = {name: HOSTS[k % 3] for k, name in enumerate(self.names)}
        for name, host in self.origin.items():
            self.topo.ns[host].register(name, Counter())
        self.bumps = [0] * self.callers
        self.attrs = []
        for caller in range(self.callers):
            ns = self.topo.ns[DRIVERS[caller]]
            self.attrs.append({
                name: (CLE(name, runtime=ns, origin=origin),
                       COD(name, runtime=ns, origin=origin),
                       GREV(name, origin, runtime=ns, origin=origin))
                for name, origin in self.origin.items()
            })
        with self.attrs[0][self.names[0]][0].locked(LOCK_TIMEOUT_MS) as stub:
            stub.bump()
        self.bumps[0] += 1

    def make_op(self, caller: int) -> Callable[[int], Any]:
        rng = random.Random(self.seed * 7919 + caller)
        ns = self.topo.ns[DRIVERS[caller]]
        attrs, origin = self.attrs[caller], self.origin
        names = self.names[caller::self.callers]
        cle_cut, cod_cut, grev_cut = self.CUTS
        bumps = self.bumps

        def op(i: int) -> None:
            name = names[rng.randrange(len(names))]
            kind = rng.random()
            target = HOSTS[rng.randrange(3)]
            cle, cod, grev = attrs[name]
            if kind < cle_cut:
                attr = cle
            elif kind < cod_cut:
                attr = cod
            elif kind < grev_cut:
                attr = grev
                attr.target = target
            else:
                grant = ns.lock(name, target, origin_hint=origin[name],
                                timeout_ms=LOCK_TIMEOUT_MS)
                try:
                    ns.move(name, target, origin_hint=origin[name],
                            lock_token=grant.token)
                finally:
                    ns.unlock(grant)
                return
            with attr.locked(LOCK_TIMEOUT_MS) as stub:
                stub.bump()
            bumps[caller] += 1
        return op

    def check(self, succeeded: int) -> list[str]:
        problems = []
        if "TRANSFER_CHUNK" in self.kinds_in_trace():
            problems.append("TRANSFER_CHUNK seen: a small move was streamed")
        total = 0
        for name in self.names:
            hosts = self.hosted_on(name)
            if len(hosts) != 1:
                problems.append(f"{name} hosted on {hosts}, expected one node")
                continue
            total += self.topo.ns[hosts[0]].store.get(name).n
        if total != sum(self.bumps):
            problems.append(f"counters sum to {total}, "
                            f"{sum(self.bumps)} bumps succeeded")
        return problems

    def sample_call(self):
        name = self.names[0]
        return self.hosted_on(name)[0], name, "value", (), None


class MobileMixSim(MobileMix):
    name = "mobile_mix_sim"
    topology = "sim5"
    callers = 1

    def _topology(self) -> Topology:
        return sim5()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (
        InvokeSmall, InvokeTree15k, InvokeLocal, InvokeAsyncOpen,
        MoveStream1m, MobileMix, MobileMixSim,
    )
}
