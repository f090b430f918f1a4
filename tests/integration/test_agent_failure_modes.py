"""Agent failure modes: lost hops, crashed stops, dedup of retransmits.

AGENT_HOP is the system's one fire-and-forget message (§3.5's asynchrony),
so its failure semantics differ from everything else: a lost hop loses the
agent.  These tests pin down exactly that contract — and the behaviours
that must still hold around it.
"""

import pytest

from repro.core.agents import Agent
from repro.errors import ComponentNotFoundError, MageError
from repro.net.conditions import DeterministicLoss
from repro.bench.workloads import Counter
from repro.rmi.marshal import join_pieces


class TestLostHops:
    def test_lost_hop_loses_the_agent_loudly_on_find(self, make_cluster):
        """Best-effort casts: the agent is gone, and finds say so rather
        than pretending."""
        cluster = make_cluster(
            ["alpha", "beta"], loss=DeterministicLoss({"AGENT_HOP": 99}),
        )
        cluster["alpha"].agents.launch(Agent(), "doomed", ("beta",))
        cluster.quiesce()
        assert not cluster["beta"].namespace.store.contains("doomed")
        assert not cluster["alpha"].namespace.store.contains("doomed")
        # alpha's registry optimistically forwarded to beta; the verified
        # walk discovers the truth: nobody has it.
        with pytest.raises(ComponentNotFoundError):
            cluster["alpha"].find("doomed", verify=True)

    def test_synchronous_moves_are_not_best_effort(self, make_cluster):
        """Contrast: the same loss rate cannot lose a MOVE (retried)."""
        cluster = make_cluster(
            ["alpha", "beta"],
            loss=DeterministicLoss({"OBJECT_TRANSFER": 2, "REPLY": 2}),
        )
        cluster["alpha"].register("solid", Counter(5))
        assert cluster["alpha"].namespace.move("solid", "beta") == "beta"
        assert cluster["beta"].stub("solid", location="beta").get() == 5


class TestCrashedStops:
    def test_hop_into_a_crashed_node_strands_the_agent(self, make_cluster):
        cluster = make_cluster(["alpha", "beta", "gamma"])
        cluster.crash("beta")
        cluster["alpha"].agents.launch(Agent(), "traveler",
                                       ("beta", "gamma"))
        cluster.quiesce()
        # The cast could not be delivered; the agent never reached gamma.
        assert not cluster["gamma"].namespace.store.contains("traveler")

    def test_agent_hook_failure_does_not_poison_the_node(self, make_cluster):
        class Faulty(Agent):
            def on_arrival(self, ctx):
                raise RuntimeError("bug in agent code")

        cluster = make_cluster(["alpha", "beta"])
        cluster["alpha"].agents.launch(Faulty(), "faulty", ("beta",))
        cluster.quiesce()
        # The failed arrival is contained; beta keeps serving.
        cluster["alpha"].register("c", Counter())
        assert cluster["alpha"].namespace.move("c", "beta") == "beta"
        assert cluster["beta"].stub("c", location="beta").increment() == 1


class TestDedup:
    def test_duplicate_hop_payload_is_ignored(self, pair):
        """A retransmitted (duplicated) hop must not clone the agent."""
        from repro.rmi.protocol import AgentHopPayload

        alpha = pair["alpha"].namespace
        agent = Counter(3)
        alpha.register("dup", agent, shared=False)
        manager = pair["alpha"].agents
        record = alpha.store.record("dup")
        desc = alpha.mover.descriptor_for(record.obj)
        payload = AgentHopPayload(
            name="dup",
            class_name=desc.class_name,
            state_blob=join_pieces(alpha.mover.pack_state(record.obj)),
            class_desc=desc,
            class_hash=desc.source_hash,
            origin="alpha",
            tour_id="fixed-tour",
            itinerary=(),
            shared=False,
        )
        beta_manager = pair["beta"].agents
        beta_manager._on_hop(payload)
        pair["beta"].stub("dup", location="beta").increment()
        beta_manager._on_hop(payload)  # the duplicate
        # State not clobbered back to 3: the duplicate was dropped.
        assert pair["beta"].stub("dup", location="beta").get() == 4
