"""Weak migration: state preservation, class shipping, locks, idempotency."""

import pytest

from repro.errors import LockError, ObjectPinnedError
from repro.bench.workloads import Counter, GeoDataFilterImpl
from repro.rmi.marshal import join_pieces


class StatefulServant:
    """Servant with custom (get/set)state to prove the hooks are honoured."""

    def __init__(self, value=0):
        self.value = value
        self.restored = False

    def __getstate__(self):
        return {"value": self.value}

    def __setstate__(self, state):
        self.value = state["value"]
        self.restored = True

    def get(self):
        return self.value

    def was_restored(self):
        return self.restored


class TestWeakMigration:
    def test_state_survives_the_move(self, pair):
        pair["alpha"].register("c", Counter(41))
        pair["alpha"].stub("c").increment()
        pair["alpha"].namespace.move("c", "beta")
        assert pair["beta"].stub("c", location="beta").get() == 42

    def test_object_leaves_the_source(self, pair):
        pair["alpha"].register("c", Counter())
        pair["alpha"].namespace.move("c", "beta")
        assert not pair["alpha"].namespace.store.contains("c")
        assert pair["beta"].namespace.store.contains("c")

    def test_move_to_self_is_noop(self, pair):
        pair["alpha"].register("c", Counter(5))
        assert pair["alpha"].namespace.move("c", "alpha") == "alpha"
        assert pair["alpha"].namespace.store.contains("c")

    def test_moved_instance_is_a_clone_instance(self, pair):
        pair["alpha"].register("c", Counter())
        pair["alpha"].namespace.move("c", "beta")
        moved = pair["beta"].namespace.store.get("c")
        assert type(moved).__module__.startswith("repro._mobile.beta.")

    def test_getstate_setstate_honoured(self, pair):
        pair["alpha"].register("s", StatefulServant(7))
        pair["alpha"].namespace.move("s", "beta")
        stub = pair["beta"].stub("s", location="beta")
        assert stub.get() == 7
        assert stub.was_restored() is True

    def test_rich_state_preserved(self, pair):
        geo = GeoDataFilterImpl(threshold=0.4)
        geo.ingest([0.1, 0.5, 0.9])
        geo.filter_data()
        pair["alpha"].register("geo", geo)
        pair["alpha"].namespace.move("geo", "beta")
        summary = pair["beta"].stub("geo", location="beta").process_data()
        assert summary["samples"] == 2

    def test_shared_flag_travels(self, pair):
        pair["alpha"].register("private", Counter(), shared=False)
        pair["alpha"].namespace.move("private", "beta")
        assert pair["beta"].namespace.store.is_shared("private") is False

    def test_pinned_object_refuses_to_move(self, pair):
        pair["alpha"].register("fixed", Counter(), pinned=True)
        with pytest.raises(ObjectPinnedError):
            pair["alpha"].namespace.move("fixed", "beta")

    def test_round_trip_home(self, pair):
        pair["alpha"].register("c", Counter(1))
        pair["alpha"].namespace.move("c", "beta")
        pair["beta"].namespace.move("c", "alpha")
        assert pair["alpha"].stub("c", location="alpha").get() == 1


class TestClassShipping:
    def test_first_move_ships_class_later_moves_do_not(self, trio):
        """§4.2's cache optimization, observed on the wire."""
        trio["alpha"].register("c1", Counter())
        trio["alpha"].register("c2", Counter())
        trio["alpha"].namespace.move("c1", "beta")
        first_transfer = [
            e for e in trio.trace.events() if e.kind == "OBJECT_TRANSFER"
        ]
        trio["alpha"].namespace.move("c2", "beta")
        second_transfer = [
            e for e in trio.trace.events() if e.kind == "OBJECT_TRANSFER"
        ][len(first_transfer):]
        assert first_transfer and second_transfer
        # Wire sizes tell the story: the second transfer omits the class.
        mover = trio["alpha"].namespace.mover
        assert mover.moves_out == 2

    def test_receiver_without_cache_pulls_class(self, make_cluster):
        cluster = make_cluster(["alpha", "beta"], class_cache=False)
        cluster["alpha"].register("c1", Counter())
        cluster["alpha"].register("c2", Counter(5))
        cluster["alpha"].namespace.move("c1", "beta")
        # The sender now assumes beta caches Counter — but beta's cache is
        # disabled, so the second move forces a CLASS_REQUEST back-pull.
        cluster["alpha"].namespace.move("c2", "beta")
        pulls = [e for e in cluster.trace.events() if e.kind == "CLASS_REQUEST"]
        assert any(not e.local for e in pulls)
        assert cluster["beta"].stub("c2", location="beta").get() == 5


class TestLockEnforcement:
    def test_uncontended_move_needs_no_token(self, pair):
        pair["alpha"].register("c", Counter())
        assert pair["alpha"].namespace.move("c", "beta") == "beta"

    def test_contended_move_requires_token(self, pair):
        pair["alpha"].register("c", Counter())
        grant = pair["alpha"].namespace.lock("c", "alpha")  # a stay holder
        with pytest.raises(LockError):
            pair["beta"].namespace.move("c", "beta", origin_hint="alpha")
        pair["alpha"].namespace.unlock(grant)

    def test_move_with_proper_token(self, pair):
        pair["alpha"].register("c", Counter())
        grant = pair["beta"].namespace.lock("c", "beta", origin_hint="alpha")
        assert grant.kind == "move"
        moved_to = pair["beta"].namespace.move(
            "c", "beta", origin_hint="alpha", lock_token=grant.token
        )
        assert moved_to == "beta"
        pair["beta"].namespace.unlock(grant)


class TestIdempotency:
    def test_duplicate_transfer_is_ignored(self, pair):
        from repro.rmi.protocol import ObjectTransfer

        alpha_ns = pair["alpha"].namespace
        beta_ns = pair["beta"].namespace
        alpha_ns.register("c", Counter(3))
        record = alpha_ns.store.record("c")
        desc = alpha_ns.mover.descriptor_for(record.obj)
        transfer = ObjectTransfer(
            name="c",
            class_name=desc.class_name,
            state_blob=join_pieces(alpha_ns.mover.pack_state(record.obj)),
            class_desc=desc,
            class_hash=desc.source_hash,
            origin="alpha",
            transfer_id="fixed-id",
        )
        assert beta_ns.mover.receive(transfer) == "ok"
        pair["beta"].stub("c", location="beta").increment()
        # The duplicate must not clobber the incremented state.
        assert beta_ns.mover.receive(transfer) == "ok"
        assert pair["beta"].stub("c", location="beta").get() == 4
