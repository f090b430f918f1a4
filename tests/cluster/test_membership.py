"""Membership: seed-list join, ANNOUNCE propagation, heartbeat liveness.

Cross-"host" cases run two or three ``TcpNetwork`` instances in one test
process — separate registries, real sockets — so joins and announcements
provably travel the wire.  Determinism-sensitive cases drive the failure
detector by calling ``heartbeat_once`` directly instead of racing the
background thread.
"""

import pytest

from repro.cluster import Cluster, LoadBalancer, Membership, Node
from repro.errors import MageError
from repro.net import TcpNetwork


@pytest.fixture
def harness():
    """Factory for Nodes on isolated TCP transports, torn down together."""
    nets, nodes = [], []

    def factory(node_id, **node_kwargs):
        net = TcpNetwork()
        node = Node(node_id, net, **node_kwargs)
        nets.append(net)
        nodes.append(node)
        return node, net

    yield factory
    for node in nodes:
        node.shutdown()
    for net in nets:
        net.shutdown()


def kill_heartbeats(membership, peer):
    """Drive the detector to a death verdict for ``peer`` (no threads)."""
    membership.heartbeat_timeout_ms = 300
    for _ in range(membership.suspect_after):
        membership.heartbeat_once()


class TestJoin:
    def test_seed_join_merges_both_rosters(self, harness):
        hub, hub_net = harness("hub")
        worker, worker_net = harness("worker")
        learned = worker.join("hub", hub_net.endpoint_of("hub"))
        assert learned == ["hub", "worker"]
        assert hub.membership.hosts() == ["hub", "worker"]
        # Both transports can now dial each other.
        assert hub.namespace.server.ping("worker")
        assert worker.namespace.server.ping("hub")

    def test_join_announces_newcomer_to_existing_members(self, harness):
        hub, hub_net = harness("hub")
        w1, w1_net = harness("w1")
        w2, w2_net = harness("w2")
        w1.join("hub", hub_net.endpoint_of("hub"))
        w2.join("hub", hub_net.endpoint_of("hub"))
        # w1 never met w2, yet the hub's ANNOUNCE taught it the address.
        assert "w2" in w1.membership.hosts()
        assert w1.namespace.server.ping("w2")

    def test_rejoin_with_new_endpoint_revives_and_rewires(self, harness):
        hub, hub_net = harness("hub")
        worker, worker_net = harness("worker")
        worker.join("hub", hub_net.endpoint_of("hub"))
        worker_net.shutdown()
        kill_heartbeats(hub.membership, "worker")
        assert hub.membership.is_dead("worker")

        reborn, reborn_net = harness("worker")  # same identity, fresh port
        reborn.join("hub", hub_net.endpoint_of("hub"))
        assert not hub.membership.is_dead("worker")
        assert hub.membership.hosts() == ["hub", "worker"]
        assert hub_net.endpoint_of("worker") == reborn_net.endpoint_of("worker")
        assert hub.namespace.server.ping("worker")

    def test_join_against_membershipless_namespace_raises(self, harness):
        hub, hub_net = harness("hub")
        # A bare namespace (no Node => no Membership) refuses JOINs.
        from repro.runtime.namespace import Namespace
        bare_net = TcpNetwork()
        try:
            Namespace("bare", bare_net)
            worker, worker_net = harness("worker")
            worker.namespace.transport.connect(
                "bare", bare_net.endpoint_of("bare"))
            with pytest.raises(MageError):
                worker.membership.join("bare")
        finally:
            bare_net.shutdown()

    def test_leave_forgets_cleanly_without_death_verdict(self, harness):
        hub, hub_net = harness("hub")
        worker, worker_net = harness("worker")
        worker.join("hub", hub_net.endpoint_of("hub"))
        hub.membership.leave("worker")
        assert "worker" not in hub.membership.hosts()
        assert not hub.membership.is_dead("worker")
        assert hub_net.endpoint_of("worker") is None


class TestHeartbeat:
    def test_single_miss_is_not_death(self, harness):
        hub, hub_net = harness("hub")
        worker, worker_net = harness("worker")
        worker.join("hub", hub_net.endpoint_of("hub"))
        worker_net.shutdown()
        hub.membership.heartbeat_timeout_ms = 300
        hub.membership.heartbeat_once()
        assert not hub.membership.is_dead("worker")
        assert "worker" in hub.membership.hosts()

    def test_consecutive_misses_declare_dead_and_prune(self, harness):
        hub, hub_net = harness("hub")
        worker, worker_net = harness("worker")
        worker.join("hub", hub_net.endpoint_of("hub"))
        assert hub.namespace.server.ping("worker")
        # A forwarding hint pointing at the departed host...
        hub.namespace.registry.note_location("ghost-object", "worker")
        worker_net.shutdown()
        kill_heartbeats(hub.membership, "worker")
        assert hub.membership.dead() == {"worker"}
        assert hub.membership.hosts() == ["hub"]
        # ...is evicted, and the transport carries no per-peer state.
        assert hub.namespace.registry.forwarding_hint("ghost-object") is None
        assert hub_net.endpoint_of("worker") is None

    def test_recovering_peer_resets_miss_count(self, harness):
        hub, hub_net = harness("hub")
        worker, worker_net = harness("worker")
        worker.join("hub", hub_net.endpoint_of("hub"))
        m = hub.membership
        m.heartbeat_timeout_ms = 300
        m._misses["worker"] = m.suspect_after - 1  # one miss from death
        answers = m.heartbeat_once()  # worker answers: counter resets
        assert answers["worker"]
        assert m._misses.get("worker") is None

    def test_on_death_callback_fires_once(self, harness):
        hub, hub_net = harness("hub")
        worker, worker_net = harness("worker")
        worker.join("hub", hub_net.endpoint_of("hub"))
        verdicts = []
        hub.membership.on_death(verdicts.append)
        worker_net.shutdown()
        kill_heartbeats(hub.membership, "worker")
        hub.membership.declare_dead("worker")  # idempotent
        assert verdicts == ["worker"]

    def test_background_thread_starts_and_stops(self, harness):
        hub, hub_net = harness("hub")
        hub.membership.start_heartbeat(interval_s=0.05)
        hub.membership.start_heartbeat()  # idempotent
        hub.membership.stop()
        assert hub.membership._thread is None


class TestBalancerIntegration:
    def test_dead_host_is_never_a_migration_target(self, harness):
        hub, hub_net = harness("hub")
        worker, worker_net = harness("worker")
        worker.join("hub", hub_net.endpoint_of("hub"))
        hub.set_load(10)
        worker.set_load(5)
        # The balancer only needs an issuer and a sweep; membership
        # supplies the live-host view covering the cross-transport peer.
        hub_cluster = _ClusterView(hub)
        balancer = LoadBalancer(hub_cluster, membership=hub.membership,
                                threshold=50)
        assert balancer.snapshot() == {"hub": 10.0, "worker": 5.0}
        worker_net.shutdown()
        kill_heartbeats(hub.membership, "worker")
        snapshot = balancer.snapshot()
        assert "worker" not in snapshot
        assert balancer.hedge_candidates(snapshot) == ["hub"]

    def test_membershipless_balancer_sweeps_cluster_nodes(self):
        with Cluster(["a", "b"]) as cluster:
            cluster["a"].set_load(1)
            cluster["b"].set_load(2)
            balancer = LoadBalancer(cluster)
            assert balancer.snapshot() == {"a": 1.0, "b": 2.0}


class _ClusterView:
    """The minimal cluster surface LoadBalancer needs, over one Node."""

    def __init__(self, node):
        self._node = node

    def issuer(self, src=None):
        return self._node

    def node_ids(self):
        return [self._node.node_id]

    def query_all_loads(self, src=None, deadline=None, timeout_load=None,
                        targets=None):
        swept = targets if targets is not None else self.node_ids()
        return self._node.namespace.server.query_load_many(
            swept, skip_unreachable=True, deadline=deadline,
            timeout_load=timeout_load,
        )


class TestConstruction:
    def test_a_second_membership_sees_the_same_cluster(self):
        with Cluster(["a", "b"]) as cluster:
            service = Membership(cluster["a"].namespace)
            assert service.hosts() == ["a", "b"]
            assert service.peers() == ["b"]
            assert service.alive_peers() == ["b"]


class TestCompatibility:
    def test_membership_on_simulated_network(self):
        """Joins work in process too: endpoints are None, the roster
        still merges, and crashed nodes are detected by heartbeat."""
        with Cluster(["a", "b", "c"]) as cluster:
            m = cluster["a"].membership
            assert m.hosts() == ["a", "b", "c"]
            assert m.roster() == {"a": None, "b": None, "c": None}
            cluster.crash("c")
            kill_heartbeats(m, "c")
            assert m.dead() == {"c"}
            assert m.hosts() == ["a", "b"]
            cluster.recover("c")
            m._merge({"c": None})  # an announce naming it revives it
            assert m.hosts() == ["a", "b", "c"]
