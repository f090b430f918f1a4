"""Property-based tests: agent tours over arbitrary itineraries."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core.agents import Agent

NODES = ["n0", "n1", "n2", "n3"]


class TrailAgent(Agent):
    """Records its visit trail (inherited) and counts hops."""

    def __init__(self):
        super().__init__()
        self.hops = 0

    def on_arrival(self, ctx):
        super().on_arrival(ctx)
        self.hops += 1


itineraries = st.lists(st.sampled_from(NODES), min_size=1, max_size=6)


@given(itinerary=itineraries)
@settings(max_examples=30, deadline=None)
def test_agent_visits_exactly_the_itinerary(itinerary):
    with Cluster(NODES) as cluster:
        cluster["n0"].agents.launch(TrailAgent(), "agent", tuple(itinerary))
        cluster.quiesce()
        final = itinerary[-1]
        assert cluster[final].namespace.store.contains("agent")
        agent = cluster[final].namespace.store.get("agent")
        assert agent.visited == list(itinerary)
        assert agent.hops == len(itinerary)
        # Exactly one copy anywhere.
        hosts = [n.node_id for n in cluster
                 if n.namespace.store.contains("agent")]
        assert hosts == [final]


@given(itinerary=itineraries)
@settings(max_examples=20, deadline=None)
def test_tour_leaves_a_resolvable_trail(itinerary):
    """After any tour, every node can find the agent via origin + chains."""
    with Cluster(NODES) as cluster:
        cluster["n0"].agents.launch(TrailAgent(), "agent", tuple(itinerary))
        cluster.quiesce()
        final = itinerary[-1]
        for observer in NODES:
            found = cluster[observer].find(
                "agent", origin_hint="n0", verify=True
            )
            assert found == final


@given(itinerary=itineraries, data=st.data())
@settings(max_examples=20, deadline=None)
def test_agent_state_monotonically_accumulates(itinerary, data):
    """Weak migration must never lose or duplicate hook side effects."""
    with Cluster(NODES) as cluster:
        extra = data.draw(st.lists(st.sampled_from(NODES), max_size=3))
        cluster["n0"].agents.launch(TrailAgent(), "agent", tuple(itinerary))
        cluster.quiesce()
        location = itinerary[-1]
        for target in extra:
            cluster[location].agents.start_tour("agent", (target,))
            cluster.quiesce()
            location = target
        agent = cluster[location].namespace.store.get("agent")
        assert agent.visited == list(itinerary) + list(extra)
