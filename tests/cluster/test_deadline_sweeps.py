"""Cluster-layer deadlines: one budget per fan-out, silence as a signal.

* ``Cluster.broadcast`` / ``query_all_loads`` / ``locate`` and the
  ``Membership`` sweeps take one shared deadline for the whole
  fan-out (instead of per-node timeouts);
* ``LoadBalancer(probe_timeout_ms=...)`` prices a host that misses the
  probe window at ``inf`` — overloaded-by-silence, so it counts against
  the threshold and is never picked as a migration target — while an
  outright-dead host still drops out of the snapshot.
"""

import threading
import time

import pytest

from repro.cluster import Cluster
from repro.cluster.load import LoadBalancer
from repro.errors import CallCancelledError, CallTimeoutError
from repro.net.deadline import Deadline
from repro.net.message import MessageKind
from repro.net.tcpnet import TcpNetwork


class Widget:
    def __init__(self):
        self.value = 0


@pytest.fixture
def stalled_cluster():
    """Three TCP nodes; 'slow' answers everything after a 600 ms stall."""
    net = TcpNetwork(io_timeout_s=5.0)
    release = threading.Event()
    cluster = Cluster(["ctrl", "slow", "fast"], transport=net)
    inner = cluster["slow"].namespace.external.handle

    def stalled(message):
        release.wait(0.6)
        return inner(message)

    net.register("slow", stalled)
    yield cluster
    release.set()
    cluster.shutdown()


class TestBroadcastDeadline:
    def test_one_window_for_the_whole_fanout(self, stalled_cluster):
        cluster = stalled_cluster
        start = time.perf_counter()
        outcomes = cluster.broadcast(
            MessageKind.PING, return_exceptions=True,
            deadline=Deadline.after_ms(250),
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 0.55, f"sweep outlived its budget: {elapsed:.2f}s"
        assert outcomes["ctrl"] == "pong"
        assert outcomes["fast"] == "pong"
        assert isinstance(outcomes["slow"],
                          (CallTimeoutError, CallCancelledError))

    def test_unbounded_broadcast_unchanged(self, make_cluster):
        cluster = make_cluster(["a", "b"])
        outcomes = cluster.broadcast(MessageKind.PING)
        assert outcomes == {"a": "pong", "b": "pong"}


class TestDiscoveryDeadline:
    def test_alive_peers_counts_the_silent_host_dead(self, stalled_cluster):
        discovery = stalled_cluster["ctrl"].membership
        assert discovery.alive_peers(
            deadline=Deadline.after_ms(250)) == ["fast"]

    def test_unbounded_sweep_waits_the_stall_out(self, stalled_cluster):
        discovery = stalled_cluster["ctrl"].membership
        assert discovery.alive_peers() == ["fast", "slow"]


class TestLoadBalancerSilenceSignal:
    def test_expired_probe_prices_the_host_overloaded(self, stalled_cluster):
        cluster = stalled_cluster
        for node_id, load in (("ctrl", 20.0), ("slow", 5.0), ("fast", 50.0)):
            cluster[node_id].set_load(load)
        balancer = LoadBalancer(cluster, threshold=100.0,
                                probe_timeout_ms=250.0)
        loads = balancer.snapshot()
        # The stalled host advertises the *lowest* load, but silence wins:
        # it is priced inf, flagged overloaded, and never chosen.
        assert loads["slow"] == float("inf")
        assert loads["ctrl"] == 20.0 and loads["fast"] == 50.0
        assert balancer.overloaded(loads) == ["slow"]
        assert balancer.least_loaded(loads) == "ctrl"

    def test_dead_host_still_drops_out(self, stalled_cluster):
        cluster = stalled_cluster
        cluster["fast"].shutdown()
        balancer = LoadBalancer(cluster, threshold=100.0,
                                probe_timeout_ms=250.0)
        loads = balancer.snapshot()
        assert "fast" not in loads          # unreachable: not a candidate
        assert loads["slow"] == float("inf")  # silent: overloaded

    def test_rebalance_never_targets_the_silent_host(self, stalled_cluster):
        cluster = stalled_cluster
        cluster["ctrl"].register("w", Widget(), shared=True)
        cluster["ctrl"].set_load(500.0)   # overloaded
        cluster["slow"].set_load(0.0)     # tempting but silent
        cluster["fast"].set_load(10.0)
        balancer = LoadBalancer(cluster, threshold=100.0,
                                probe_timeout_ms=250.0)
        assert balancer.rebalance("w") == "fast"

    def test_without_probe_timeout_behaviour_is_unchanged(self, make_cluster):
        cluster = make_cluster(["a", "b"])
        cluster["a"].set_load(120.0)
        cluster["b"].set_load(10.0)
        balancer = LoadBalancer(cluster, threshold=100.0)
        assert balancer.overloaded() == ["a"]
        assert balancer.least_loaded() == "b"


class TestClusterLocateDeadline:
    def test_locate_with_deadline_skips_the_stall(self, stalled_cluster):
        cluster = stalled_cluster
        cluster["fast"].register("w", Widget(), shared=True)
        start = time.perf_counter()
        assert cluster.locate("w", deadline=Deadline.after_s(5)) == "fast"
        assert time.perf_counter() - start < 0.5
