"""Namespace lifecycle and the external dispatcher's edge cases."""

import pytest

from repro.errors import (
    LockMovedError,
    MageError,
    NodeUnreachableError,
)
from repro.net.message import Message, MessageKind
from repro.net.simnet import SimNetwork
from repro.rmi.protocol import LockRequestPayload
from repro.runtime.namespace import Namespace
from repro.bench.workloads import Counter


class TestNamespaceLifecycle:
    def test_running_after_construction(self):
        net = SimNetwork()
        ns = Namespace("solo", net)
        assert ns.running
        assert net.nodes() == ["solo"]

    def test_shutdown_detaches(self):
        net = SimNetwork()
        ns = Namespace("solo", net)
        other = Namespace("other", net)
        ns.shutdown()
        assert not ns.running
        with pytest.raises(NodeUnreachableError):
            other.server.ping("solo")

    def test_shutdown_idempotent(self):
        net = SimNetwork()
        ns = Namespace("solo", net)
        ns.shutdown()
        ns.shutdown()

    def test_objects_survive_shutdown_locally(self):
        """Like a crashed JVM: state exists but is unreachable."""
        net = SimNetwork()
        ns = Namespace("solo", net)
        ns.register("c", Counter(9))
        ns.shutdown()
        assert ns.store.get("c").get() == 9

    def test_validates_node_id(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Namespace("bad id", SimNetwork())

    def test_repr(self):
        ns = Namespace("solo", SimNetwork())
        ns.register("c", Counter())
        assert "solo" in repr(ns)
        assert "objects=1" in repr(ns)

    def test_load_provider_swap(self, pair):
        pair["alpha"].namespace.set_load_provider(lambda: 42.0)
        assert pair["beta"].namespace.query_load("alpha") == 42.0


class TestDispatcherEdges:
    def test_unknown_message_kind_is_refused(self, pair):
        message = Message(kind=MessageKind.BATCH, src="beta", dst="alpha")
        with pytest.raises(MageError, match="cannot handle"):
            pair["alpha"].namespace.external.handle(message)

    def test_lock_request_for_departed_object_redirects(self, pair):
        """LOCK_REQUEST at the old host answers with the new location."""
        pair["alpha"].register("c", Counter())
        pair["alpha"].namespace.move("c", "beta")
        request = LockRequestPayload(name="c", target="alpha",
                                     requester="gamma")
        message = Message(
            kind=MessageKind.LOCK_REQUEST, src="gamma", dst="alpha",
            payload=request,
        )
        with pytest.raises(LockMovedError) as excinfo:
            pair["alpha"].namespace.external.handle(message)
        assert excinfo.value.new_location == "beta"

    def test_ping_and_load(self, pair):
        assert pair["alpha"].namespace.server.ping("beta")
        pair["beta"].set_load(7.0)
        assert pair["alpha"].namespace.query_load("beta") == 7.0

    def test_agent_hop_without_manager_is_refused(self):
        """A touring transfer into a namespace with no agent manager is
        refused before it applies: the agent stays with its sender."""
        from repro.core.agents import agent_manager_for

        net = SimNetwork()
        home = Namespace("home", net)
        bare = Namespace("bare", net)  # no agent manager attached
        manager = agent_manager_for(home)
        home.register("c", Counter(), shared=False)
        with pytest.raises(MageError, match="accepts no agents"):
            manager.start_tour("c", ("bare",))
        assert home.store.contains("c") and not bare.store.contains("c")
