"""Load-driven migration with synthetic load dynamics and discovery."""

import pytest

from repro.cluster.load import OscillatingProfile, RampProfile
from repro.core.policy import LoadBalancing
from repro.bench.workloads import Counter


class TestWithProfiles:
    def test_service_flees_a_ramping_host(self, trio):
        """§1: 'a host whose CPU was pegged may become idle' — and the
        converse: the service leaves a host whose load keeps climbing."""
        trio["alpha"].register("svc", Counter())
        ramp = RampProfile(start=0.0, step=60.0)
        trio["alpha"].load_monitor.use_profile(ramp)
        trio["beta"].set_load(10.0)
        trio["gamma"].set_load(20.0)
        policy = LoadBalancing("svc", candidates=["beta", "gamma"],
                               threshold=100.0,
                               runtime=trio["alpha"].namespace)
        locations = []
        for _ in range(4):
            policy.bind()
            locations.append(policy.cloc)
        # The ramp crosses the threshold and the service settles on beta.
        assert locations[0] == "alpha"       # still calm
        assert locations[-1] == "beta"       # fled to the least loaded
        assert policy.migrations == 1        # and then stayed put

    def test_oscillating_load_causes_bounded_migration(self, trio):
        trio["alpha"].register("svc", Counter())
        trio["alpha"].load_monitor.use_profile(
            OscillatingProfile(lo=0.0, hi=300.0, period_queries=4)
        )
        trio["beta"].set_load(50.0)
        trio["gamma"].set_load(50.0)
        policy = LoadBalancing("svc", candidates=["beta", "gamma"],
                               threshold=150.0,
                               runtime=trio["alpha"].namespace)
        for _ in range(6):
            policy.bind()
        # It left alpha at most once (beta/gamma stay calm afterwards).
        assert policy.migrations <= 1
        assert policy.cloc in ("alpha", "beta", "gamma")


class TestWithDiscovery:
    def test_discovery_driven_candidates(self, quad):
        """Pick candidates dynamically from live cluster membership."""
        quad["alpha"].register("svc", Counter())
        quad["alpha"].set_load(500.0)
        quad["beta"].set_load(90.0)
        quad["gamma"].set_load(10.0)
        quad["delta"].set_load(30.0)
        candidates = quad["alpha"].membership.alive_peers()
        policy = LoadBalancing("svc", candidates=candidates, threshold=100.0,
                               runtime=quad["alpha"].namespace)
        policy.bind()
        assert policy.cloc == "gamma"

    def test_crashed_candidate_is_survivable(self, trio):
        """A dead candidate must fail the bind loudly, not hang."""
        from repro.errors import NodeUnreachableError

        trio["alpha"].register("svc", Counter())
        trio["alpha"].set_load(500.0)
        trio["beta"].set_load(1.0)
        trio.crash("beta")
        policy = LoadBalancing("svc", candidates=["beta"], threshold=100.0,
                               runtime=trio["alpha"].namespace)
        with pytest.raises(NodeUnreachableError):
            policy.bind()
        # The component is still safely at home.
        assert trio["alpha"].namespace.store.contains("svc")

    def test_state_survives_the_whole_day(self, trio):
        """However much the policy shuffles the service, no request lost."""
        trio["alpha"].register("svc", Counter())
        policy = LoadBalancing("svc", candidates=["beta", "gamma"],
                               threshold=100.0,
                               runtime=trio["alpha"].namespace)
        schedule = [
            {"alpha": 200, "beta": 10, "gamma": 50},
            {"alpha": 10, "beta": 300, "gamma": 20},
            {"alpha": 10, "beta": 10, "gamma": 400},
            {"alpha": 500, "beta": 400, "gamma": 5},
        ]
        handled = 0
        for loads in schedule:
            for node, value in loads.items():
                trio[node].set_load(value)
            stub = policy.bind()
            handled = stub.increment()
        assert handled == len(schedule)
