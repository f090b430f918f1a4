"""Multi-hop asynchronous agents (§3.5)."""

import pytest

from repro.core.agents import Agent, agent_manager_for
from repro.errors import LockError
from repro.bench.workloads import Counter, ProbeAgent


class Collector(Agent):
    """Agent that gathers per-node load readings along its tour."""

    def __init__(self):
        super().__init__()
        self.loads: dict[str, float] = {}
        self.done = False

    def on_arrival(self, ctx):
        super().on_arrival(ctx)
        self.loads[ctx.node_id] = ctx.query_load()

    def on_complete(self, ctx):
        self.done = True


class Homing(Agent):
    """Agent that steers itself: always returns to base after one stop."""

    def __init__(self, base):
        super().__init__()
        self.base = base
        self.steered = False

    def on_arrival(self, ctx):
        super().on_arrival(ctx)
        if ctx.node_id != self.base and not self.steered:
            self.steered = True
            ctx.go(self.base)


class Quitter(Agent):
    """Agent that abandons its itinerary at the second stop."""

    def on_arrival(self, ctx):
        super().on_arrival(ctx)
        if len(self.visited) == 2:
            ctx.stay()


class TestTours:
    def test_full_itinerary(self, quad):
        agent = Collector()
        quad["beta"].set_load(42.0)
        quad["alpha"].agents.launch(agent, "collector",
                                    ("beta", "gamma", "delta"))
        quad.quiesce()
        final = quad["delta"].namespace.store.get("collector")
        assert final.visited == ["beta", "gamma", "delta"]
        assert final.loads["beta"] == 42.0
        assert final.done is True

    def test_agent_state_travels(self, trio):
        agent = ProbeAgent()
        trio["alpha"].agents.launch(agent, "probe", ("beta", "gamma"))
        trio.quiesce()
        report = trio["gamma"].stub("probe", location="gamma").report()
        assert report["visited"] == ["beta", "gamma"]
        assert report["completed"] is True

    def test_registries_track_the_tour(self, trio):
        trio["alpha"].agents.launch(Collector(), "tracked", ("beta", "gamma"))
        trio.quiesce()
        assert trio["alpha"].namespace.registry.forwarding_hint("tracked") == "beta"
        assert trio["beta"].namespace.registry.forwarding_hint("tracked") == "gamma"
        assert trio["gamma"].namespace.store.contains("tracked")

    def test_empty_itinerary_is_noop(self, pair):
        pair["alpha"].agents.launch(Collector(), "idle", ())
        pair.quiesce()
        assert pair["alpha"].namespace.store.contains("idle")

    def test_hop_to_self_continues_locally(self, pair):
        agent = Collector()
        pair["alpha"].agents.launch(agent, "selfhop", ("alpha", "beta"))
        pair.quiesce()
        final = pair["beta"].namespace.store.get("selfhop")
        assert final.visited == ["alpha", "beta"]


class TestSteering:
    def test_go_overrides_itinerary(self, trio):
        agent = Homing("alpha")
        trio["alpha"].agents.launch(agent, "homing", ("beta",))
        trio.quiesce()
        final = trio["alpha"].namespace.store.get("homing")
        assert final.visited == ["beta", "alpha"]

    def test_stay_abandons_remaining_stops(self, quad):
        agent = Quitter()
        quad["alpha"].agents.launch(agent, "quitter",
                                    ("beta", "gamma", "delta"))
        quad.quiesce()
        assert quad["gamma"].namespace.store.contains("quitter")
        assert not quad["delta"].namespace.store.contains("quitter")


class TestRemoteLaunch:
    def test_send_through_remote_object(self, trio):
        """A tour can be started for an object hosted elsewhere."""
        trio["beta"].register("worker", Counter(), shared=False)
        manager = agent_manager_for(trio["alpha"].namespace)
        manager.send_through("worker", ("gamma",), origin_hint="beta")
        trio.quiesce()
        assert trio["gamma"].namespace.store.contains("worker")

    def test_contended_object_needs_move_lock(self, pair):
        pair["alpha"].register("busy", Counter())
        grant = pair["alpha"].namespace.lock("busy", "alpha")  # stay holder
        with pytest.raises(LockError):
            pair["alpha"].agents.start_tour("busy", ("beta",))
        pair["alpha"].namespace.unlock(grant)

    def test_async_tours_complete(self, make_cluster):
        """The real asynchronous path (each step a posted job)."""
        cluster = make_cluster(["alpha", "beta", "gamma"])
        cluster["alpha"].agents.launch(Collector(), "async-agent",
                                       ("beta", "gamma"))
        cluster.quiesce(timeout_s=10.0)
        final = cluster["gamma"].namespace.store.get("async-agent")
        assert final.visited == ["beta", "gamma"]


class TestDuckTyping:
    def test_hookless_objects_can_tour(self, pair):
        """Any component can ride the agent protocol; hooks are optional."""
        pair["alpha"].register("plain", Counter(9), shared=False)
        pair["alpha"].agents.start_tour("plain", ("beta",))
        pair.quiesce()
        assert pair["beta"].stub("plain", location="beta").get() == 9
