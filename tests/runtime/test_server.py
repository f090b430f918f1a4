"""MageServer operations: registration, class mobility, instantiate, locks."""

import pytest

from repro.errors import (
    ClassTransferError,
    ComponentNotFoundError,
    ImmobileObjectError,
    NoSuchObjectError,
)
from repro.bench.workloads import Counter, PrintServer


class TestRegistration:
    def test_register_binds_rmi_name(self, pair):
        ref = pair["alpha"].register("c", Counter())
        assert ref.node_id == "alpha"
        assert pair["alpha"].namespace.rmi_registry.lookup("c") == ref

    def test_unregister_clears_both(self, pair):
        pair["alpha"].register("c", Counter())
        pair["alpha"].namespace.unregister("c")
        assert not pair["alpha"].namespace.store.contains("c")
        assert not pair["alpha"].namespace.rmi_registry.contains("c")

    def test_unregister_missing(self, pair):
        with pytest.raises(NoSuchObjectError):
            pair["alpha"].namespace.unregister("ghost")

    def test_is_shared_local_knowledge(self, pair):
        pair["alpha"].register("priv", Counter(), shared=False)
        assert pair["alpha"].namespace.is_shared("priv") is False

    def test_is_shared_remote_is_conservative(self, pair):
        pair["beta"].register("c", Counter(), shared=False)
        assert pair["alpha"].namespace.is_shared("c") is True


class TestClassMobility:
    def test_fetch_class_cold_and_warm(self, pair):
        pair["beta"].register_class(Counter)
        alpha_server = pair["alpha"].namespace.server
        cls = alpha_server.fetch_class("Counter", "beta")
        assert cls.__name__ == "Counter"
        before = pair.trace.remote_message_count()
        alpha_server.fetch_class("Counter", "beta")
        warm_cost = pair.trace.remote_message_count() - before
        assert warm_cost == 2  # one conditional round trip, no body

    def test_fetch_unknown_class(self, pair):
        with pytest.raises(ClassTransferError):
            pair["alpha"].namespace.server.fetch_class("Ghost", "beta")

    def test_push_class_probe_then_body(self, pair):
        pair["alpha"].register_class(Counter)
        server = pair["alpha"].namespace.server
        server.push_class("Counter", "beta")
        assert pair["beta"].namespace.classcache.has_class("Counter")
        before = pair.trace.remote_message_count()
        server.push_class("Counter", "beta")
        warm_cost = pair.trace.remote_message_count() - before
        assert warm_cost == 2  # probe answers "have it", no body push

    def test_fetch_local_class_costs_nothing(self, pair):
        pair["alpha"].register_class(Counter)
        before = pair.trace.remote_message_count()
        cls = pair["alpha"].namespace.server.fetch_class("Counter", "alpha")
        assert cls is Counter
        assert pair.trace.remote_message_count() == before


class TestInstantiate:
    def test_remote_instantiate_and_publish(self, pair):
        pair["alpha"].register_class(PrintServer)
        server = pair["alpha"].namespace.server
        server.push_class("PrintServer", "beta")
        ref = server.instantiate(
            "PrintServer", "ps1", "beta", args=("laserjet",)
        )
        assert ref.node_id == "beta"
        # Published in beta's RMI registry by the initiator's Naming step.
        stub = pair["alpha"].namespace.naming.lookup("mage://beta/ps1")
        assert stub.print_job("doc") == "laserjet:1:doc"

    def test_remote_instantiate_sends_instantiate_then_bind(self, pair):
        """Two separate round trips, as in the paper's REV sequence."""
        pair["alpha"].register_class(Counter)
        server = pair["alpha"].namespace.server
        server.push_class("Counter", "beta")
        before = len(pair.trace.kinds(remote_only=True))
        server.instantiate("Counter", "c-seq", "beta")
        assert pair.trace.kinds(remote_only=True)[before:] == [
            "INSTANTIATE", "REPLY(INSTANTIATE)",
            "REGISTRY_BIND", "REPLY(REGISTRY_BIND)",
        ]

    def test_published_ref_is_the_one_instantiate_returned(self, pair):
        pair["alpha"].register_class(Counter)
        server = pair["alpha"].namespace.server
        server.push_class("Counter", "beta")
        ref = server.instantiate("Counter", "c-bound", "beta")
        bound = pair["beta"].namespace.rmi_registry.lookup("c-bound")
        assert bound.node_id == ref.node_id == "beta"
        assert bound.methods == ref.methods

    def test_remote_instantiate_over_tcp(self, make_cluster):
        """Real sockets carry the same two round trips, and the new
        object answers through the name it was published under."""
        tcp = make_cluster(["alpha", "beta"], transport="tcp")
        tcp["alpha"].register_class(Counter)
        server = tcp["alpha"].namespace.server
        server.push_class("Counter", "beta")
        before = len(tcp.trace.kinds(remote_only=True))
        ref = server.instantiate("Counter", "c-tcp", "beta", args=(5,))
        assert tcp.trace.kinds(remote_only=True)[before:] == [
            "INSTANTIATE", "REPLY(INSTANTIATE)",
            "REGISTRY_BIND", "REPLY(REGISTRY_BIND)",
        ]
        assert ref.node_id == "beta"
        assert tcp["alpha"].stub("c-tcp").get() == 5

    def test_local_instantiate(self, pair):
        pair["alpha"].register_class(Counter)
        ref = pair["alpha"].namespace.server.instantiate(
            "Counter", "c-local", "alpha", args=(9,)
        )
        assert ref.node_id == "alpha"
        assert pair["alpha"].stub("c-local").get() == 9

    def test_instantiate_kwargs(self, pair):
        pair["alpha"].register_class(Counter)
        pair["alpha"].namespace.server.instantiate(
            "Counter", "c-kw", "alpha", kwargs={"start": 3}
        )
        assert pair["alpha"].stub("c-kw").get() == 3

    def test_instantiate_unknown_class_remote(self, pair):
        with pytest.raises(ClassTransferError):
            pair["alpha"].namespace.server.instantiate("Ghost", "g", "beta")

    def test_initiator_learns_location(self, pair):
        pair["alpha"].register_class(Counter)
        server = pair["alpha"].namespace.server
        server.push_class("Counter", "beta")
        server.instantiate("Counter", "c-remote", "beta")
        assert pair["alpha"].namespace.registry.forwarding_hint("c-remote") == "beta"

    def test_failed_instantiate_does_not_publish(self, pair):
        """A failed INSTANTIATE raises before the REGISTRY_BIND step is
        sent, so no dangling binding appears."""
        with pytest.raises(ClassTransferError):
            pair["alpha"].namespace.server.instantiate(
                "Ghost", "ghost", "beta"
            )
        assert not pair["beta"].namespace.rmi_registry.contains("ghost")

    def test_instantiate_via_namespace_facade(self, pair):
        pair["alpha"].register_class(Counter)
        pair["alpha"].namespace.server.push_class("Counter", "beta")
        ref = pair["alpha"].namespace.instantiate(
            "Counter", "c-facade", "beta", args=(4,)
        )
        assert ref.node_id == "beta"
        assert pair["alpha"].stub("c-facade").get() == 4


class TestLockBracket:
    def test_lock_unlock_round_trip(self, pair):
        pair["alpha"].register("c", Counter())
        grant = pair["beta"].namespace.lock("c", "beta", origin_hint="alpha")
        assert grant.kind == "move"
        pair["beta"].namespace.unlock(grant)

    def test_lock_chases_moved_object(self, trio):
        trio["alpha"].register("c", Counter())
        trio["alpha"].namespace.move("c", "beta")
        trio["beta"].namespace.move("c", "gamma")
        # alpha's table is stale (says beta); the lock request must chase.
        grant = trio["alpha"].namespace.lock("c", "gamma")
        assert grant.location == "gamma"
        assert grant.kind == "stay"
        trio["alpha"].namespace.unlock(grant)

    def test_lock_on_missing_object(self, pair):
        # The find preceding the lock request is what fails.
        with pytest.raises(ComponentNotFoundError):
            pair["alpha"].namespace.lock("ghost", "alpha")


class TestMisc:
    def test_ping(self, pair):
        assert pair["alpha"].namespace.server.ping("beta") is True

    def test_query_load(self, pair):
        pair["beta"].set_load(150.0)
        assert pair["alpha"].namespace.query_load("beta") == 150.0

    def test_query_own_load_default(self, pair):
        assert pair["alpha"].namespace.query_load() == 0.0

    def test_stale_location_move_retries(self, trio):
        """A stale fast-find must not break a remote-initiated move."""
        trio["alpha"].register("c", Counter())
        trio["alpha"].namespace.move("c", "beta")
        # gamma learns (stale) location from origin, then beta moves it on.
        trio["gamma"].find("c", origin_hint="alpha")
        trio["beta"].namespace.move("c", "alpha")
        # gamma's table now stale (beta); the move must chase to alpha.
        final = trio["gamma"].namespace.move("c", "gamma", origin_hint="alpha")
        assert final == "gamma"
        assert trio["gamma"].stub("c", location="gamma").get() == 0


class TestRpcException:
    def test_immobile_object_error_fields(self, pair):
        error = ImmobileObjectError("c", "beta", "alpha")
        assert error.name == "c"
        assert error.expected == "beta"
        assert error.actual == "alpha"
