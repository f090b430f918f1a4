"""Hedged lock/locate chases vs sequential chases under one stalled node.

Not a paper figure — the engineering bench for the deadline/cancellation
core.  The GREV move protocol and §4.4 locking make multi-hop chases the
common case; before deadlines and hedging, a chase whose forwarding
knowledge pointed at a hung host serialized behind that host for a full
io-timeout (or, here, the host's stall).  The hedged forms race
speculative requests to the last-known host *and* the origin hint, let
the first useful answer win, and cancel the straggler — so one stalled
node costs one round trip, not its whole stall.

Topology: 8 nodes over real TCP sockets with a 2 ms emulated link delay
(the regime of the paper's 10 Mb/s testbed); one node's dispatcher is
wrapped with an injected 500 ms stall.  The object under test lives on a
healthy node, but every chase starts from *stale* knowledge naming the
stalled node (re-staled between iterations), with the origin as the
hedge.  Two workloads:

* ``lock`` — the §4.4 stay/move chase: sequential find-then-request vs
  ``lock(hedge=True)``;
* ``locate`` — the forwarding-chain walk: sequential ``find`` through
  the stalled chain vs ``locate_any`` over all nodes (losers cancelled).

The measured shape (the acceptance bar): hedged p99 ≥ 2x better than the
sequential chase p99 for both workloads — in practice the gap is the
~500 ms stall vs a few round trips.  The hedged path must also complete
within ~one io-timeout window (io_timeout_s below is 5 s; the stall
guarantees the sequential arm spends its 500 ms, the hedged arm must
come in far under one window).  Results in ``results/deadline_hedge.txt``.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.cluster import Cluster
from repro.net.deadline import Deadline
from repro.net.tcpnet import TcpNetwork

NODES = 8
LINK_LATENCY_MS = 2.0
STALL_MS = 500.0
SAMPLES = 10
IO_TIMEOUT_S = 5.0

NODE_IDS = [f"n{i}" for i in range(NODES)]
ORIGIN = "n1"      # registers the object; the healthy hedge target
STALLED = "n2"     # every chase's stale last-known location
HOME = "n7"        # where the object actually lives
ISSUER = "n0"


class Resource:
    """The contended mobile object."""

    def __init__(self) -> None:
        self.hits = 0

    def touch(self) -> int:
        self.hits += 1
        return self.hits


def p99(samples_s: list[float]) -> float:
    ordered = sorted(samples_s)
    index = min(len(ordered) - 1, round(0.99 * (len(ordered) + 1)) - 1)
    return ordered[max(index, 0)]


def _build() -> tuple[Cluster, TcpNetwork, threading.Event]:
    net = TcpNetwork(latency_ms=LINK_LATENCY_MS, io_timeout_s=IO_TIMEOUT_S,
                     server_workers=NODES * 2)
    cluster = Cluster(NODE_IDS, transport=net)
    # History: the object originated at ORIGIN, passed through STALLED,
    # and settled at HOME.  A verified find from ORIGIN collapses its
    # forwarding entry straight to HOME, making it the useful hedge.
    cluster[ORIGIN].register("res", Resource(), shared=True)
    cluster[ORIGIN].namespace.move("res", STALLED)
    cluster[STALLED].namespace.move("res", HOME)
    assert cluster[ORIGIN].namespace.find("res") == HOME

    # Inject the stall *after* setup: every request dispatched by the
    # stalled node now sleeps 500 ms first (tc-netem-style brownout).
    release = threading.Event()
    inner = cluster[STALLED].namespace.external.handle

    def stalled_dispatch(message):
        release.wait(STALL_MS / 1000.0)
        return inner(message)

    net.register(STALLED, stalled_dispatch)
    return cluster, net, release


def _restale(cluster: Cluster) -> None:
    """Re-point the issuer's forwarding knowledge at the stalled node."""
    cluster[ISSUER].namespace.registry.note_location("res", STALLED)


def measure_lock() -> tuple[list[float], list[float]]:
    """(sequential_s, hedged_s) samples for the §4.4 lock chase."""
    sequential: list[float] = []
    hedged: list[float] = []
    cluster, net, release = _build()
    try:
        ns = cluster[ISSUER].namespace
        for _ in range(SAMPLES):
            _restale(cluster)
            start = time.perf_counter()
            grant = ns.lock("res", HOME, origin_hint=ORIGIN)
            sequential.append(time.perf_counter() - start)
            ns.unlock(grant)
        for _ in range(SAMPLES):
            _restale(cluster)
            start = time.perf_counter()
            grant = ns.lock("res", HOME, origin_hint=ORIGIN, hedge=True,
                            deadline=Deadline.after_s(IO_TIMEOUT_S))
            hedged.append(time.perf_counter() - start)
            ns.unlock(grant)
    finally:
        release.set()
        cluster.shutdown()
    return sequential, hedged


def measure_locate() -> tuple[list[float], list[float]]:
    """(sequential_s, hedged_s) samples for the forwarding-chain locate."""
    sequential: list[float] = []
    hedged: list[float] = []
    cluster, net, release = _build()
    try:
        server = cluster[ISSUER].namespace.server
        for _ in range(SAMPLES):
            _restale(cluster)
            start = time.perf_counter()
            assert server.find("res", origin_hint=ORIGIN) == HOME
            sequential.append(time.perf_counter() - start)
        for _ in range(SAMPLES):
            _restale(cluster)
            start = time.perf_counter()
            where = server.locate_any(
                "res", NODE_IDS, origin_hint=ORIGIN,
                deadline=Deadline.after_s(IO_TIMEOUT_S),
            )
            hedged.append(time.perf_counter() - start)
            assert where == HOME
    finally:
        release.set()
        cluster.shutdown()
    return sequential, hedged


@pytest.fixture(scope="module")
def chase_samples() -> tuple[list[float], list[float], list[float], list[float]]:
    """(lock seq, lock hedged, locate seq, locate hedged) samples, shared
    by the artifact test (tier-1) and the threshold test (``-m perf``)."""
    return (*measure_lock(), *measure_locate())


def test_deadline_hedge(report, chase_samples):
    lock_seq, lock_hedge, loc_seq, loc_hedge = chase_samples

    rows = []
    speedups = {}
    for label, seq, hedge in (("lock chase", lock_seq, lock_hedge),
                              ("locate", loc_seq, loc_hedge)):
        seq_p99, hedge_p99 = p99(seq), p99(hedge)
        speedups[label] = seq_p99 / hedge_p99
        rows += [
            f"  {label}:",
            f"    sequential   median {statistics.median(seq) * 1000:>8.2f} ms"
            f"   p99 {seq_p99 * 1000:>8.2f} ms",
            f"    hedged       median {statistics.median(hedge) * 1000:>8.2f} ms"
            f"   p99 {hedge_p99 * 1000:>8.2f} ms   "
            f"{speedups[label]:>6.1f}x",
            "",
        ]

    lines = [
        f"Deadline-bounded hedged chases -- {NODES} nodes, TCP sockets, "
        f"{LINK_LATENCY_MS:.0f} ms emulated link, {STALL_MS:.0f} ms stall "
        f"injected at {STALLED!r}, {SAMPLES} samples per arm",
        "(chase starts from stale knowledge naming the stalled node;",
        " hedged = speculative parallel requests to last-known + origin,",
        " first useful answer wins, straggler cancelled)",
        "",
        *rows,
    ]
    report("deadline_hedge", "\n".join(lines).rstrip())

    # The hedged path completes within ~one io-timeout window (it must
    # never wait out the stall, let alone stack windows per hop).
    assert p99(lock_hedge) < IO_TIMEOUT_S, lines
    assert p99(loc_hedge) < IO_TIMEOUT_S, lines
    # The sequential arms really did pay the stall (the bench is honest).
    assert p99(lock_seq) >= STALL_MS / 1000.0
    assert p99(loc_seq) >= STALL_MS / 1000.0


@pytest.mark.perf
def test_deadline_hedge_bars(chase_samples):
    """Acceptance: hedged p99 beats the sequential chase p99 by >= 2x."""
    lock_seq, lock_hedge, loc_seq, loc_hedge = chase_samples
    assert p99(lock_seq) / p99(lock_hedge) >= 2.0
    assert p99(loc_seq) / p99(loc_hedge) >= 2.0
