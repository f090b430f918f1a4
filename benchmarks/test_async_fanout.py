"""Scatter-gather fan-out: sequential loops vs futures at 8 nodes.

Not a paper figure — the engineering bench for this repo's async
invocation core.  The home interface's multi-node operations (class
distribution, load sweeps) used to issue one blocking round trip per
target; built on ``Transport.call_async`` they put every round trip in
flight at once, so an 8-node fan-out costs ~1 round-trip latency (plus
straggler time) instead of ~8.

Loopback's ~0.1 ms round trip hides latency effects entirely (a ping
sweep gains nothing from parallelism when the wire is free), so the
bench runs over ``TcpNetwork(latency_ms=2.0)`` — the transport's
tc-netem-style emulated LAN link — which is the regime the paper's
10 Mb/s testbed and any cross-host deployment actually live in.

Two workloads, both at 8 nodes over real TCP sockets (pipelined mode):

* ``push_class`` fan-out — distribute a class definition to 7 targets:
  the sequential probe+body loop vs ``push_class_many`` (one batched
  frame per target, all round trips overlapped).
* ``query_all_loads`` — sweep every node's load metric: the sequential
  ``query_load`` loop vs the parallel sweep.

The simulated network runs the same code deterministically (futures
complete eagerly), so the bench also asserts the async sweep produces
*identical results and message counts* to the sequential loop there.

The measured shape (the acceptance bar): parallel ≥ 2x sequential for
both workloads; results recorded in ``results/async_fanout.txt``.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import Cluster
from repro.net.tcpnet import TcpNetwork

NODES = 8
#: Emulated one-hop link delay (per request, at the destination).
LINK_LATENCY_MS = 2.0
#: Best-of-N sampling to damp scheduler jitter on shared CI hardware.
SAMPLES = 3
#: Load sweeps per timing sample.
SWEEPS = 3

NODE_IDS = [f"n{i}" for i in range(NODES)]


class SeqPayload:
    """Fan-out cargo for the sequential arm (kept cold per sample)."""

    def __init__(self) -> None:
        self.items: list[int] = []

    def push(self, value: int) -> int:
        self.items.append(value)
        return len(self.items)

    def total(self) -> int:
        return sum(self.items)


class ParPayload:
    """Fan-out cargo for the parallel arm (same shape as SeqPayload)."""

    def __init__(self) -> None:
        self.items: list[int] = []

    def push(self, value: int) -> int:
        self.items.append(value)
        return len(self.items)

    def total(self) -> int:
        return sum(self.items)


def _lan_cluster() -> Cluster:
    return Cluster(
        NODE_IDS,
        transport=TcpNetwork(latency_ms=LINK_LATENCY_MS, server_workers=NODES * 2),
    )


def measure_push_fanout() -> tuple[float, float]:
    """(sequential_s, parallel_s) for distributing a class to 7 targets."""
    with _lan_cluster() as cluster:
        source = cluster[NODE_IDS[0]]
        source.register_class(SeqPayload)
        source.register_class(ParPayload)
        server = source.namespace.server
        targets = NODE_IDS[1:]
        # Warm the pooled connections so both arms measure round trips,
        # not connect handshakes.
        server.ping_many(targets)

        start = time.perf_counter()
        for target in targets:
            server.push_class("SeqPayload", target)
        sequential = time.perf_counter() - start

        start = time.perf_counter()
        server.push_class_many("ParPayload", targets)
        parallel = time.perf_counter() - start

        for target in targets:  # both arms actually delivered the class
            assert cluster[target].namespace.classcache.has_class("SeqPayload")
            assert cluster[target].namespace.classcache.has_class("ParPayload")
    return sequential, parallel


def measure_load_sweep() -> tuple[float, float]:
    """(sequential_s, parallel_s) for sweeping 8 nodes' load metrics."""
    with _lan_cluster() as cluster:
        for i, node_id in enumerate(NODE_IDS):
            cluster[node_id].set_load(10.0 * i)
        issuer = cluster[NODE_IDS[0]]
        server = issuer.namespace.server
        server.ping_many(NODE_IDS)  # warm the pooled connections

        start = time.perf_counter()
        for _ in range(SWEEPS):
            loads = {n: server.query_load(n) for n in NODE_IDS}
        sequential = (time.perf_counter() - start) / SWEEPS

        start = time.perf_counter()
        for _ in range(SWEEPS):
            parallel_loads = cluster.query_all_loads()
        parallel = (time.perf_counter() - start) / SWEEPS

        assert parallel_loads == loads  # same sweep, same answers
    return sequential, parallel


@pytest.fixture(scope="module")
def fanout_times() -> tuple[float, float, float, float]:
    """Best-of-N (push seq, push par, sweep seq, sweep par) seconds,
    shared by the artifact test (tier-1) and the threshold test
    (``-m perf``)."""
    push_pairs = [measure_push_fanout() for _ in range(SAMPLES)]
    sweep_pairs = [measure_load_sweep() for _ in range(SAMPLES)]
    return (min(seq for seq, _ in push_pairs),
            min(par for _, par in push_pairs),
            min(seq for seq, _ in sweep_pairs),
            min(par for _, par in sweep_pairs))


def test_async_fanout(report, fanout_times):
    push_seq, push_par, sweep_seq, sweep_par = fanout_times
    push_speedup = push_seq / push_par
    sweep_speedup = sweep_seq / sweep_par

    lines = [
        f"Async fan-out -- {NODES} nodes, TCP sockets with "
        f"{LINK_LATENCY_MS:.0f} ms emulated link delay, best of {SAMPLES}",
        "(sequential blocking loop vs scatter-gather over CallFutures)",
        "",
        f"  push_class to {NODES - 1} targets:",
        f"    sequential loop      {push_seq * 1000:>8.2f} ms",
        f"    push_class_many      {push_par * 1000:>8.2f} ms   "
        f"{push_speedup:>5.2f}x",
        "",
        f"  load sweep over {NODES} hosts:",
        f"    sequential loop      {sweep_seq * 1000:>8.2f} ms",
        f"    query_all_loads      {sweep_par * 1000:>8.2f} ms   "
        f"{sweep_speedup:>5.2f}x",
    ]
    report("async_fanout", "\n".join(lines))


@pytest.mark.perf
def test_async_fanout_bars(fanout_times):
    """The acceptance shape: parallel fan-out >= 2x the sequential loop."""
    push_seq, push_par, sweep_seq, sweep_par = fanout_times
    assert push_seq / push_par >= 2.0, fanout_times
    assert sweep_seq / sweep_par >= 2.0, fanout_times


def test_async_sweep_is_deterministic_on_sim(make_cluster):
    """Same code over the simulated network: identical results and
    message counts to the sequential loop (futures complete eagerly)."""
    sequential = make_cluster(NODE_IDS)
    parallel = make_cluster(NODE_IDS)
    for i, node_id in enumerate(NODE_IDS):
        sequential[node_id].set_load(5.0 * i)
        parallel[node_id].set_load(5.0 * i)

    issuer = sequential[NODE_IDS[0]].namespace.server
    loads_seq = {n: issuer.query_load(n) for n in NODE_IDS}
    loads_par = parallel.query_all_loads()
    assert loads_par == loads_seq
    assert (
        sequential.trace.remote_message_count()
        == parallel.trace.remote_message_count()
    )
    assert sequential.trace.kinds(remote_only=True) == parallel.trace.kinds(
        remote_only=True
    )
