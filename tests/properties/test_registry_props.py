"""Property-based tests: forwarding chains always converge (§4.1).

For any sequence of moves of one object around a cluster, a verified find
from any node must return the true location, and (with collapsing) leave
that node's forwarding table pointing straight at it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.bench.workloads import Counter

NODES = ["n0", "n1", "n2", "n3", "n4"]

moves = st.lists(st.sampled_from(NODES), min_size=0, max_size=8)


@given(tour=moves, observer=st.sampled_from(NODES))
@settings(max_examples=40, deadline=None)
def test_verified_find_always_converges(tour, observer):
    with Cluster(NODES) as cluster:
        cluster["n0"].register("obj", Counter())
        location = "n0"
        for target in tour:
            initiator = cluster[location].namespace
            location = initiator.move("obj", target)
        found = cluster[observer].find("obj", origin_hint="n0", verify=True)
        assert found == location
        # Path collapsing: the observer now points straight at the object.
        if observer != location:
            hint = cluster[observer].namespace.registry.forwarding_hint("obj")
            assert hint == location


@given(tour=moves)
@settings(max_examples=40, deadline=None)
def test_exactly_one_copy_exists_after_any_tour(tour):
    with Cluster(NODES) as cluster:
        cluster["n0"].register("obj", Counter(7))
        location = "n0"
        for target in tour:
            location = cluster[location].namespace.move("obj", target)
        hosts = [
            node.node_id for node in cluster
            if node.namespace.store.contains("obj")
        ]
        assert hosts == [location]
        # And the state rode along unharmed.
        assert cluster[location].stub("obj", location=location).get() == 7


@given(tour=moves, data=st.data())
@settings(max_examples=30, deadline=None)
def test_interleaved_finds_never_break_chains(tour, data):
    """Collapsing mid-tour must never corrupt later resolution."""
    with Cluster(NODES) as cluster:
        cluster["n0"].register("obj", Counter())
        location = "n0"
        for target in tour:
            observer = data.draw(st.sampled_from(NODES))
            assert cluster[observer].find(
                "obj", origin_hint="n0", verify=True
            ) == location
            location = cluster[location].namespace.move("obj", target)
        assert cluster["n4"].find("obj", origin_hint="n0", verify=True) == location
