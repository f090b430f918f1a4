"""LoadBalancer hedged writes + streamed migration over real sockets."""

import threading
import time

import pytest

from repro.cluster import Cluster
from repro.cluster.load import LoadBalancer
from repro.errors import MageError
from repro.net.deadline import Deadline
from repro.net.message import MessageKind
from repro.net.tcpnet import TcpNetwork


class Bulk:
    """State big enough to stream under a tiny threshold."""

    def __init__(self, size=64 * 1024):
        self.payload = b"b" * size


class TestHedgeCandidates:
    def test_least_loaded_first(self, trio):
        balancer = LoadBalancer(trio)
        loads = {"alpha": 150.0, "beta": 20.0, "gamma": 5.0}
        assert balancer.hedge_candidates(loads, exclude=("alpha",)) == [
            "gamma", "beta"
        ]

    def test_silent_hosts_are_never_candidates(self, trio):
        balancer = LoadBalancer(trio)
        loads = {"beta": float("inf"), "gamma": 30.0}
        assert balancer.hedge_candidates(loads) == ["gamma"]

    def test_no_candidates_raises(self, trio):
        balancer = LoadBalancer(trio)
        with pytest.raises(MageError):
            balancer.hedge_candidates({"beta": float("inf")})


class TestHedgedRebalance:
    def test_hedged_rebalance_offloads_large_object(self, make_cluster):
        cluster = make_cluster(["alpha", "beta", "gamma"],
                               stream_threshold=4 * 1024,
                               chunk_bytes=16 * 1024)
        cluster["alpha"].register("bulk", Bulk())
        cluster["alpha"].set_load(150.0)
        cluster["beta"].set_load(10.0)
        cluster["gamma"].set_load(20.0)
        balancer = LoadBalancer(cluster, threshold=100.0)
        landed = balancer.rebalance("bulk", hedge=True)
        assert landed in ("beta", "gamma")
        assert cluster[landed].namespace.store.contains("bulk")
        assert not cluster["alpha"].namespace.store.contains("bulk")
        # The hedge streamed, committed its winner with a standalone
        # TRANSFER_COMMIT, and no staging leaked anywhere.
        kinds = [e.kind for e in cluster.trace.events() if not e.local]
        assert "TRANSFER_CHUNK" in kinds
        assert kinds.count("TRANSFER_COMMIT") == 1
        for node in cluster:
            assert node.namespace.mover.staging_count() == 0

    def test_all_peers_silent_stays_put(self, make_cluster):
        """Every peer priced inf (overloaded-by-silence) degrades to
        stay-put — never raises, never targets a silent host."""
        cluster = make_cluster(["alpha", "beta", "gamma"])
        from repro.bench.workloads import Counter
        cluster["alpha"].register("c", Counter())
        balancer = LoadBalancer(cluster, threshold=100.0)
        balancer.snapshot = lambda: {"alpha": 150.0,
                                     "beta": float("inf"),
                                     "gamma": float("inf")}
        assert balancer.rebalance("c", hedge=True) == "alpha"
        assert balancer.rebalance("c") == "alpha"
        assert cluster["alpha"].namespace.store.contains("c")

    def test_no_peers_at_all_raises(self, make_cluster):
        cluster = make_cluster(["alpha"])
        from repro.bench.workloads import Counter
        cluster["alpha"].register("c", Counter())
        balancer = LoadBalancer(cluster, threshold=100.0)
        balancer.snapshot = lambda: {"alpha": 150.0}
        with pytest.raises(MageError):
            balancer.rebalance("c")

    def test_unhedged_rebalance_unchanged(self, make_cluster):
        cluster = make_cluster(["alpha", "beta"])
        from repro.bench.workloads import Counter
        cluster["alpha"].register("c", Counter())
        cluster["alpha"].set_load(150.0)
        cluster["beta"].set_load(10.0)
        balancer = LoadBalancer(cluster, threshold=100.0)
        assert balancer.rebalance("c") == "beta"


class TestStreamedMoveOverTcp:
    def test_streamed_hedged_move_on_real_sockets(self):
        """The whole pipeline — windowed chunks, staging, hedged
        commit — over the pipelined TCP transport."""
        net = TcpNetwork()
        cluster = Cluster(["n0", "n1", "n2"], transport=net,
                          stream_threshold=4 * 1024, chunk_bytes=16 * 1024)
        try:
            cluster["n0"].register("bulk", Bulk(size=256 * 1024))
            assert cluster["n0"].namespace.move("bulk", "n1") == "n1"
            assert cluster["n1"].namespace.store.get("bulk").payload[:1] == b"b"
            landed = cluster["n1"].namespace.move(
                "bulk", "n2", hedge=True, alternates=("n0",))
            assert landed in ("n0", "n2")
            assert cluster[landed].namespace.store.contains("bulk")
            # The loser's TRANSFER_ABORT is fire-and-forget: give it a
            # moment to land before asserting the staging drained.
            import time
            deadline = time.monotonic() + 5.0
            while (any(n.namespace.mover.staging_count() for n in cluster)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            for node in cluster:
                assert node.namespace.mover.staging_count() == 0
        finally:
            cluster.shutdown()

    def test_hedged_chunks_wait_for_their_prepare(self):
        """A server runs frames concurrently, so a candidate's chunks must
        not be sent before its chunk 0, which carries the stream's head,
        is acked: a chunk dispatched ahead of its staging slot is refused
        and sinks that candidate.  Here the healthy candidate is slow only
        to open its slot, and must still win against a wedged one."""
        net = TcpNetwork()
        cluster = Cluster(["n0", "n1", "n2"], transport=net,
                          stream_threshold=4 * 1024, chunk_bytes=16 * 1024)
        release = threading.Event()
        wedged = cluster["n1"].namespace.external.handle
        healthy = cluster["n2"].namespace.external.handle

        def wedged_dispatch(message):
            release.wait(5.0)
            return wedged(message)

        def slow_prepare(message):
            if (message.kind is MessageKind.TRANSFER_CHUNK
                    and message.payload.prepare is not None):
                time.sleep(0.2)
            return healthy(message)

        net.register("n1", wedged_dispatch)
        net.register("n2", slow_prepare)
        try:
            cluster["n0"].register("bulk", Bulk(size=256 * 1024))
            landed = cluster["n0"].namespace.move(
                "bulk", "n1", hedge=True, alternates=("n2",),
                deadline=Deadline.after_s(20))
            assert landed == "n2"
            assert cluster["n2"].namespace.store.contains("bulk")
            assert not cluster["n1"].namespace.store.contains("bulk")
        finally:
            release.set()
            cluster.shutdown()
