"""Agent failure modes: a hop is a move, so it is lost to nothing a move
is not lost to.

Each hop of a tour is ``Mover.move_out`` with the remaining itinerary in
the transfer: acked before the sender evicts, retried on the simulated
network, deduplicated per transfer id, streamed when large.  These tests
pin the consequences — a lost datagram delays a tour but never deletes the
agent, a hop that cannot land leaves the agent where it was, and after
every tour the agent is hosted on exactly one node.
"""

import time

import pytest

from repro.bench.workloads import Counter
from repro.cluster import Cluster
from repro.core.agents import Agent
from repro.errors import MageError, NodeUnreachableError
from repro.net.conditions import DeterministicLoss, LossModel
from repro.net.message import MessageKind
from repro.rmi.protocol import ObjectTransfer


class DropFirstNaming(LossModel):
    """Drops the first attempt of every remote request whose payload names
    ``name`` (transfers, finds, launches; never a reply)."""

    def __init__(self, name):
        self.name = name
        self.dropped = []

    def should_drop(self, message, attempt):
        if (attempt == 0 and not message.is_local
                and message.kind is not MessageKind.REPLY
                and getattr(message.payload, "name", None) == self.name):
            self.dropped.append(message.kind.value)
            return True
        return False


class Tally(Agent):
    """Counts its arrival hooks."""

    def __init__(self):
        super().__init__()
        self.arrivals = 0

    def on_arrival(self, ctx):
        super().on_arrival(ctx)
        self.arrivals += 1


class Cargo(Agent):
    """An agent with a megabyte-scale state."""

    def __init__(self, size):
        super().__init__()
        self.data = bytes(size)


def hosts(cluster, name):
    return [node.node_id for node in cluster
            if node.namespace.store.contains(name)]


class TestLostHops:
    def test_a_lost_hop_is_retried_and_the_tour_completes(self, make_cluster):
        loss = DropFirstNaming("survivor")
        cluster = make_cluster(["alpha", "beta", "gamma"], loss=loss)
        cluster["alpha"].agents.launch(Tally(), "survivor", ("beta", "gamma"))
        cluster.quiesce()
        assert loss.dropped == ["OBJECT_TRANSFER", "OBJECT_TRANSFER"]
        assert hosts(cluster, "survivor") == ["gamma"]
        agent = cluster["gamma"].namespace.store.get("survivor")
        assert agent.visited == ["beta", "gamma"]
        assert cluster["alpha"].find("survivor", verify=True) == "gamma"

    def test_synchronous_moves_are_not_best_effort(self, make_cluster):
        """The same rule for a plain move: a lost transfer is retried."""
        cluster = make_cluster(
            ["alpha", "beta"],
            loss=DeterministicLoss({"OBJECT_TRANSFER": 2, "REPLY": 2}),
        )
        cluster["alpha"].register("solid", Counter(5))
        assert cluster["alpha"].namespace.move("solid", "beta") == "beta"
        assert cluster["beta"].stub("solid", location="beta").get() == 5


class TestCrashedStops:
    def test_a_crashed_first_stop_fails_the_launch(self, make_cluster):
        cluster = make_cluster(["alpha", "beta", "gamma"])
        cluster.crash("beta")
        with pytest.raises(NodeUnreachableError):
            cluster["alpha"].agents.launch(Agent(), "traveler",
                                           ("beta", "gamma"))
        cluster.quiesce()
        assert hosts(cluster, "traveler") == ["alpha"]
        assert cluster["alpha"].find("traveler", verify=True) == "alpha"

    def test_a_crashed_later_stop_strands_the_agent_where_it_is(
            self, make_cluster):
        cluster = make_cluster(["alpha", "beta", "gamma"])
        cluster.crash("gamma")
        cluster["alpha"].agents.launch(Tally(), "traveler", ("beta", "gamma"))
        cluster.quiesce()
        assert hosts(cluster, "traveler") == ["beta"]
        assert cluster["beta"].agents.tours_failed == 1
        assert cluster["beta"].namespace.store.get("traveler").arrivals == 1

    def test_agent_hook_failure_does_not_poison_the_node(self, make_cluster):
        class Faulty(Agent):
            def on_arrival(self, ctx):
                raise RuntimeError("bug in agent code")

        cluster = make_cluster(["alpha", "beta"])
        cluster["alpha"].agents.launch(Faulty(), "faulty", ("beta",))
        cluster.quiesce()
        # The failed arrival ends the tour where it is; beta keeps serving.
        assert hosts(cluster, "faulty") == ["beta"]
        assert cluster["beta"].agents.tours_failed == 1
        cluster["alpha"].register("c", Counter())
        assert cluster["alpha"].namespace.move("c", "beta") == "beta"
        assert cluster["beta"].stub("c", location="beta").increment() == 1

    def test_a_failing_first_stop_here_raises_to_the_caller(self, pair):
        class Faulty(Agent):
            def on_arrival(self, ctx):
                raise RuntimeError("bug in agent code")

        with pytest.raises(MageError, match="bug in agent code"):
            pair["alpha"].agents.launch(Faulty(), "faulty", ("alpha", "beta"))
        assert hosts(pair, "faulty") == ["alpha"]


class TestDedup:
    def test_a_retransmitted_transfer_applies_once(self, pair):
        """The same touring transfer delivered twice (a retransmission on a
        fresh connection) materializes one agent and runs one hook."""
        alpha = pair["alpha"].namespace
        alpha.register("dup", Tally(), shared=False)
        record = alpha.store.record("dup")
        desc = alpha.mover.descriptor_for(record.obj)
        transfer = ObjectTransfer(
            name="dup", class_name=desc.class_name,
            state_blob=b"".join(alpha.mover.pack_state(record.obj)),
            class_desc=desc, class_hash=desc.source_hash, origin="alpha",
            transfer_id="fixed-transfer", shared=False, tour=(),
        )
        beta = pair["beta"].namespace
        assert beta.mover.receive(transfer) == "ok"
        pair.quiesce()
        first = beta.store.get("dup")
        assert beta.mover.receive(transfer) == "ok"  # the duplicate
        pair.quiesce()
        assert beta.store.get("dup") is first
        assert first.arrivals == 1

    def test_a_lost_ack_is_answered_from_the_reply_cache(self, make_cluster):
        cluster = make_cluster(["alpha", "beta"],
                               loss=DeterministicLoss({"REPLY": 1}))
        cluster["alpha"].agents.launch(Tally(), "dup", ("beta",))
        cluster.quiesce()
        assert hosts(cluster, "dup") == ["beta"]
        assert cluster["beta"].namespace.store.get("dup").arrivals == 1


class TestLargeAgents:
    def test_a_large_agent_hops_as_a_stream(self, make_cluster):
        cluster = make_cluster(["alpha", "beta"])
        skip = len(cluster.trace)
        cluster["alpha"].agents.launch(Cargo(1_000_000), "bulky", ("beta",))
        cluster.quiesce()
        kinds = [e.kind for e in cluster.trace.events()[skip:]
                 if not e.local and not e.kind.startswith("REPLY")]
        assert kinds == ["TRANSFER_CHUNK"] * 4
        assert hosts(cluster, "bulky") == ["beta"]


class TestTcpTours:
    def test_a_tour_over_tcp_ends_at_its_last_stop(self):
        with Cluster(["alpha", "beta", "gamma"], transport="tcp") as cluster:
            cluster["alpha"].agents.launch(Tally(), "walker",
                                           ("beta", "gamma"))
            cluster.quiesce(timeout_s=10.0)
            assert hosts(cluster, "walker") == ["gamma"]
            agent = cluster["gamma"].namespace.store.get("walker")
            assert agent.visited == ["beta", "gamma"]


class TestComingStraightBack:
    """The receiver posts the next step before it acks, so on TCP an agent
    can be sent home before home has evicted its own copy.  The arrival
    must wait for that eviction, not be removed by it.  The simulated
    network runs a step only in ``quiesce``, after its sender's eviction,
    so it cannot interleave the two: the race this guards is TCP's, and
    the sim case pins that the same tours end on one host there too."""

    @pytest.mark.parametrize("transport", ["sim", "tcp"])
    def test_a_home_and_back_tour_ends_on_one_host(self, transport,
                                                   monkeypatch):
        with Cluster(["alpha", "beta"], transport=transport) as cluster:
            mover = cluster["alpha"].namespace.mover
            finish = mover._finish_departure

            def slow_finish(*args):
                # Widen the window between alpha's ack and its eviction.
                time.sleep(0.01)
                finish(*args)

            monkeypatch.setattr(mover, "_finish_departure", slow_finish)
            names = [f"boomerang{i}" for i in range(20)]
            for name in names:
                cluster["alpha"].agents.launch(Tally(), name,
                                               ("beta", "alpha"))
            cluster.quiesce(timeout_s=10.0)
            for name in names:
                assert hosts(cluster, name) == ["alpha"]
                agent = cluster["alpha"].namespace.store.get(name)
                assert agent.visited == ["beta", "alpha"]
            assert cluster["beta"].find(names[0], verify=True) == "alpha"
            assert cluster["alpha"].agents.tours_failed == 0
