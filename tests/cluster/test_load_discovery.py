"""Load monitoring, synthetic profiles, and host discovery."""

import pytest

from repro.cluster.load import LoadMonitor, OscillatingProfile, RampProfile


class TestLoadMonitor:
    def test_set_and_get(self):
        monitor = LoadMonitor()
        monitor.set_load(75.0)
        assert monitor.get_load() == 75.0

    def test_initial_value(self):
        assert LoadMonitor(10.0).get_load() == 10.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LoadMonitor().set_load(-1.0)

    def test_profile_overrides_value(self):
        monitor = LoadMonitor(5.0)
        monitor.use_profile(lambda: 99.0)
        assert monitor.get_load() == 99.0

    def test_set_load_removes_profile(self):
        monitor = LoadMonitor()
        monitor.use_profile(lambda: 99.0)
        monitor.set_load(1.0)
        assert monitor.get_load() == 1.0


class TestProfiles:
    def test_ramp_climbs_per_query(self):
        ramp = RampProfile(start=10.0, step=5.0)
        assert [ramp() for _ in range(3)] == [10.0, 15.0, 20.0]

    def test_oscillation_stays_in_bounds(self):
        wave = OscillatingProfile(lo=0.0, hi=200.0, period_queries=8)
        values = [wave() for _ in range(32)]
        assert all(0.0 <= v <= 200.0 for v in values)
        assert max(values) > 150.0  # actually swings
        assert min(values) < 50.0

    def test_oscillation_validates_args(self):
        with pytest.raises(ValueError):
            OscillatingProfile(period_queries=0)
        with pytest.raises(ValueError):
            OscillatingProfile(lo=10.0, hi=5.0)


class TestDiscovery:
    def test_hosts_and_peers(self, trio):
        discovery = trio["alpha"].membership
        assert discovery.hosts() == ["alpha", "beta", "gamma"]
        assert discovery.peers() == ["beta", "gamma"]

    def test_liveness(self, trio):
        discovery = trio["alpha"].membership
        assert discovery.is_alive("beta")
        trio.crash("beta")
        assert not discovery.is_alive("beta")
        assert discovery.alive_peers() == ["gamma"]

    def test_loads(self, trio):
        trio["beta"].set_load(30.0)
        trio["gamma"].set_load(70.0)
        loads = trio["alpha"].membership.loads()
        assert loads == {"beta": 30.0, "gamma": 70.0}

    def test_least_loaded(self, trio):
        trio["beta"].set_load(30.0)
        trio["gamma"].set_load(70.0)
        assert trio["alpha"].membership.least_loaded() == "beta"

    def test_least_loaded_skips_dead_hosts(self, trio):
        trio["beta"].set_load(1.0)
        trio["gamma"].set_load(50.0)
        trio.crash("beta")
        assert trio["alpha"].membership.least_loaded() == "gamma"

    def test_least_loaded_with_no_candidates(self, pair):
        from repro.errors import MageError

        pair.crash("beta")
        with pytest.raises(MageError):
            pair["alpha"].membership.least_loaded()

    def test_node_load_plumbs_to_queries(self, pair):
        """Node.set_load → LOAD_QUERY → discovery, end to end."""
        pair["beta"].load_monitor.use_profile(RampProfile(100.0, 0.0))
        assert pair["alpha"].namespace.query_load("beta") == 100.0
