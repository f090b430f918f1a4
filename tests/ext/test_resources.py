"""Resource allocation (§7 future work): budgets and admission control."""

import threading

import pytest

from repro.errors import ResourceExhaustedError
from repro.ext.resources import OBJECT_SLOTS, ResourceBudget, meter
from repro.bench.workloads import Counter
from repro.core.agents import Agent

KIB = 1024
CHUNK = 16 * KIB


class Bulk:
    """A servant whose marshalled state spans ``chunks`` stream chunks."""

    def __init__(self, chunks):
        self.payload = b"r" * (chunks * CHUNK - CHUNK // 2)


def _streaming(make_cluster):
    return make_cluster(["alpha", "beta"], stream_threshold=4 * KIB,
                        chunk_bytes=CHUNK)


class TestBudget:
    def test_admit_and_release(self):
        budget = ResourceBudget("alpha", {"slots": 2})
        budget.admit("slots")
        budget.admit("slots")
        assert budget.available("slots") == 0
        budget.release("slots")
        assert budget.available("slots") == 1

    def test_over_admission_raises(self):
        budget = ResourceBudget("alpha", {"slots": 1})
        budget.admit("slots")
        with pytest.raises(ResourceExhaustedError) as excinfo:
            budget.admit("slots")
        assert excinfo.value.node_id == "alpha"
        assert excinfo.value.available == 0

    def test_unknown_resource_is_unbounded(self):
        budget = ResourceBudget("alpha")
        for _ in range(100):
            budget.admit("anything")

    def test_release_floors_at_zero(self):
        budget = ResourceBudget("alpha", {"slots": 5})
        budget.release("slots", 10)
        assert budget.used("slots") == 0.0

    def test_set_capacity(self):
        budget = ResourceBudget("alpha")
        budget.set_capacity("mem", 100.0)
        assert budget.capacity("mem") == 100.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResourceBudget("alpha").set_capacity("mem", -1.0)

    def test_fractional_amounts(self):
        budget = ResourceBudget("alpha", {"mem": 1.0})
        budget.admit("mem", 0.6)
        with pytest.raises(ResourceExhaustedError):
            budget.admit("mem", 0.6)


class TestMeteredNamespace:
    def test_admits_until_full(self, trio):
        metered = meter(trio["gamma"].namespace, {OBJECT_SLOTS: 2})
        trio["alpha"].register("a", Counter())
        trio["alpha"].register("b", Counter())
        trio["alpha"].register("c", Counter())
        trio["alpha"].namespace.move("a", "gamma")
        trio["alpha"].namespace.move("b", "gamma")
        with pytest.raises(ResourceExhaustedError):
            trio["alpha"].namespace.move("c", "gamma")
        assert metered.rejections == 1
        # The rejected object stayed home, consistent state everywhere.
        assert trio["alpha"].namespace.store.contains("c")
        assert len(trio["gamma"].namespace.store) == 2

    def test_departures_free_slots(self, trio):
        meter(trio["gamma"].namespace, {OBJECT_SLOTS: 1})
        trio["alpha"].register("a", Counter())
        trio["alpha"].register("b", Counter())
        trio["alpha"].namespace.move("a", "gamma")
        with pytest.raises(ResourceExhaustedError):
            trio["alpha"].namespace.move("b", "gamma")
        # Move the tenant out; the slot opens up.
        trio["alpha"].namespace.move("a", "beta")
        trio["alpha"].namespace.move("b", "gamma")
        assert trio["gamma"].namespace.store.contains("b")

    def test_a_touring_agent_gives_its_slot_back(self, trio):
        """An agent passing through leaves from a posted step, which the
        meter never sees; its slot still comes back."""
        metered = meter(trio["beta"].namespace, {OBJECT_SLOTS: 1})
        trio["alpha"].agents.launch(Agent(), "tourist", ("beta", "gamma"))
        trio.quiesce()
        assert trio["gamma"].namespace.store.contains("tourist")
        trio["alpha"].register("c", Counter())
        assert trio["alpha"].namespace.move("c", "beta") == "beta"
        assert metered.rejections == 0

    def test_concurrent_arrivals_share_one_slot(self, trio):
        """An admission still in its handler keeps its slot: a second
        arrival meanwhile is refused."""
        metered = meter(trio["gamma"].namespace, {OBJECT_SLOTS: 1})
        entered, proceed = threading.Event(), threading.Event()
        handle = metered._inner_handle

        def held_open(message):
            if not entered.is_set():
                entered.set()
                proceed.wait(5.0)
            return handle(message)

        metered._inner_handle = held_open
        trio["alpha"].register("a", Counter())
        trio["beta"].register("b", Counter())
        first = threading.Thread(
            target=trio["alpha"].namespace.move, args=("a", "gamma"))
        first.start()
        try:
            assert entered.wait(5.0)
            with pytest.raises(ResourceExhaustedError):
                trio["beta"].namespace.move("b", "gamma")
        finally:
            proceed.set()
            first.join()
        assert metered.rejections == 1
        assert [name for name in ("a", "b")
                if trio["gamma"].namespace.store.contains(name)] == ["a"]

    def test_a_departing_resident_frees_no_slot(self, pair):
        """Only admitted objects hold slots: a local resident moving away
        gives none back."""
        meter(pair["beta"].namespace, {OBJECT_SLOTS: 1})
        pair["beta"].register("resident", Counter())
        pair["alpha"].register("a", Counter())
        pair["alpha"].register("b", Counter())
        pair["alpha"].namespace.move("a", "beta")
        pair["alpha"].namespace.move("resident", "alpha", origin_hint="beta")
        with pytest.raises(ResourceExhaustedError):
            pair["alpha"].namespace.move("b", "beta")
        assert pair["alpha"].namespace.store.contains("b")

    def test_instantiate_is_metered(self, pair):
        meter(pair["beta"].namespace, {OBJECT_SLOTS: 1})
        pair["alpha"].register_class(Counter)
        server = pair["alpha"].namespace.server
        server.push_class("Counter", "beta")
        server.instantiate("Counter", "one", "beta")
        with pytest.raises(ResourceExhaustedError):
            server.instantiate("Counter", "two", "beta")

    def test_local_registration_not_metered(self, pair):
        """Admission control gates *migration*, not local residents."""
        meter(pair["beta"].namespace, {OBJECT_SLOTS: 0})
        pair["beta"].register("local-obj", Counter())
        assert pair["beta"].namespace.store.contains("local-obj")

    def test_failed_transfer_releases_slot(self, pair):
        metered = meter(pair["beta"].namespace, {OBJECT_SLOTS: 5})
        pair["alpha"].register("fixed", Counter(), pinned=True)
        from repro.errors import ObjectPinnedError

        with pytest.raises(ObjectPinnedError):
            pair["alpha"].namespace.move("fixed", "beta")
        assert metered.budget.used(OBJECT_SLOTS) == 0.0

    @pytest.mark.parametrize("chunks", [1, 4])
    def test_a_streamed_arrival_takes_one_slot(self, make_cluster, chunks):
        """Only the chunk that carries the commit admits: a stream of any
        length holds one slot, as a single frame does."""
        cluster = _streaming(make_cluster)
        metered = meter(cluster["beta"].namespace, {OBJECT_SLOTS: 5})
        cluster["alpha"].register("b", Bulk(chunks))
        assert cluster["alpha"].namespace.move("b", "beta") == "beta"
        assert metered.budget.used(OBJECT_SLOTS) == 1.0
        assert metered.rejections == 0

    @pytest.mark.parametrize("chunks", [1, 4])
    def test_a_full_meter_refuses_the_committing_chunk(self, make_cluster,
                                                       chunks):
        cluster = _streaming(make_cluster)
        metered = meter(cluster["beta"].namespace, {OBJECT_SLOTS: 0})
        cluster["alpha"].register("b", Bulk(chunks))
        with pytest.raises(ResourceExhaustedError):
            cluster["alpha"].namespace.move("b", "beta")
        assert metered.rejections == 1
        assert cluster["alpha"].namespace.store.contains("b")
        beta = cluster["beta"].namespace
        assert not beta.store.contains("b")
        assert beta.mover.staging_count() == 0
