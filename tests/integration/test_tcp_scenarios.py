"""The paper's scenarios over the real TCP transport.

Everything the simulated-network tests prove, re-run over loopback
sockets: marshalling, class shipping, weak migration, attributes, and
agents all cross genuine connections here.
"""

import pytest

from repro.cluster import Cluster
from repro.core.factory import FactoryMode
from repro.core.models import CLE, COD, MAgent, REV
from repro.bench.workloads import Counter, GeoDataFilterImpl, ProbeAgent


@pytest.fixture
def tcp_cluster():
    cluster = Cluster(["lab", "sensor1", "sensor2"], transport="tcp")
    yield cluster
    cluster.shutdown()


class TestOilTourOverTcp:
    def test_rev_ma_cod_sequence(self, tcp_cluster):
        lab = tcp_cluster["lab"].namespace
        tcp_cluster["lab"].register_class(GeoDataFilterImpl)

        rev = REV("GeoDataFilterImpl", "geoData", "sensor1",
                  mode=FactoryMode.SINGLE_USE, ctor_args=(0.5,), runtime=lab)
        geo = rev.bind()
        geo.ingest([0.2, 0.8, 0.9])
        assert geo.filter_data() == 2

        ma = MAgent("geoData", "sensor2", runtime=lab, origin="sensor1")
        geo = ma.bind()
        geo.ingest([0.7])
        assert geo.filter_data() == 1

        cod = COD("geoData", runtime=lab, origin="sensor1")
        geo = cod.bind()
        assert geo.process_data()["samples"] == 3
        assert tcp_cluster["lab"].namespace.store.contains("geoData")


class TestPrimitivesOverTcp:
    def test_cle_follows_moves(self, tcp_cluster):
        tcp_cluster["lab"].register("c", Counter(), shared=True)
        cle = CLE("c", runtime=tcp_cluster["sensor2"].namespace, origin="lab")
        assert cle.bind().increment() == 1
        tcp_cluster["lab"].namespace.move("c", "sensor1")
        assert cle.bind().increment() == 2
        assert cle.cloc == "sensor1"

    def test_forwarding_chain_over_sockets(self, tcp_cluster):
        tcp_cluster["lab"].register("w", Counter())
        tcp_cluster["lab"].namespace.move("w", "sensor1")
        tcp_cluster["sensor1"].namespace.move("w", "sensor2")
        assert tcp_cluster["lab"].find("w", verify=True) == "sensor2"

    def test_locking_over_sockets(self, tcp_cluster):
        tcp_cluster["lab"].register("c", Counter())
        grant = tcp_cluster["sensor1"].namespace.lock(
            "c", "sensor1", origin_hint="lab", timeout_ms=5000
        )
        assert grant.kind == "move"
        moved = tcp_cluster["sensor1"].namespace.move(
            "c", "sensor1", origin_hint="lab", lock_token=grant.token
        )
        assert moved == "sensor1"
        tcp_cluster["sensor1"].namespace.unlock(grant)

    def test_agent_tour_over_sockets(self, tcp_cluster):
        tcp_cluster["lab"].agents.launch(
            ProbeAgent(), "probe", ("sensor1", "sensor2")
        )
        # TCP casts are genuinely asynchronous; poll for arrival.
        import time

        deadline = time.monotonic() + 10.0
        sensor2 = tcp_cluster["sensor2"].namespace
        while time.monotonic() < deadline:
            if sensor2.store.contains("probe"):
                break
            time.sleep(0.05)
        # The agent is registered before its arrival and completion hooks
        # run, so the store can show it a moment before the tour is done.
        stub = tcp_cluster["lab"].stub("probe", location="sensor2")
        report = stub.report()
        while not report["completed"] and time.monotonic() < deadline:
            time.sleep(0.01)
            report = stub.report()
        assert report["visited"] == ["sensor1", "sensor2"]
        assert report["completed"] is True

    def test_remote_error_carries_traceback_over_sockets(self, tcp_cluster):
        from repro.errors import RemoteInvocationError

        tcp_cluster["sensor1"].register("c", Counter())
        stub = tcp_cluster["lab"].stub("c", location="sensor1")
        with pytest.raises(RemoteInvocationError) as excinfo:
            stub.add("wrong")
        assert "Traceback" in excinfo.value.remote_traceback
