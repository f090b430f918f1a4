"""GREV (§3.3) and the mobile-agent attribute (§3.5)."""

import time

import pytest

from repro.core.coercion import Action
from repro.core.models import GREV, MAgent
from repro.errors import ComponentNotFoundError
from repro.bench.workloads import Counter


class TestGREV:
    def test_moves_from_anywhere_to_anywhere(self, quad):
        """Figure 2: P (alpha) asks C to move from D (gamma) to B (beta)."""
        quad["gamma"].register("C", Counter())
        grev = GREV("C", "beta", runtime=quad["alpha"].namespace,
                    origin="gamma")
        stub = grev.bind()
        assert stub.ref.node_id == "beta"
        assert stub.increment() == 1
        assert quad["beta"].namespace.store.contains("C")

    def test_local_component_to_remote_target(self, pair):
        """GREV subsumes REV."""
        pair["alpha"].register("C", Counter())
        grev = GREV("C", "beta", runtime=pair["alpha"].namespace)
        assert grev.bind().ref.node_id == "beta"

    def test_remote_component_to_local_target(self, pair):
        """GREV subsumes COD."""
        pair["beta"].register("C", Counter())
        grev = GREV("C", "alpha", runtime=pair["alpha"].namespace,
                    origin="beta")
        assert grev.bind().ref.node_id == "alpha"
        assert pair["alpha"].namespace.store.contains("C")

    def test_at_target_coerces_to_rpc(self, pair):
        pair["beta"].register("C", Counter())
        grev = GREV("C", "beta", runtime=pair["alpha"].namespace,
                    origin="beta")
        grev.bind()
        assert grev.last_outcome.action is Action.COERCE_RPC

    def test_well_suited_to_constantly_moving_components(self, trio):
        """Each bind re-verifies the location, so GREV keeps working as
        the component wanders."""
        trio["alpha"].register("C", Counter())
        grev = GREV("C", "gamma", runtime=trio["beta"].namespace,
                    origin="alpha")
        grev.bind()
        trio["gamma"].namespace.move("C", "alpha")  # someone moves it away
        stub = grev.bind()  # GREV drags it back to gamma
        assert stub.ref.node_id == "gamma"
        assert trio["gamma"].namespace.store.contains("C")

    def test_missing_component(self, pair):
        grev = GREV("ghost", "beta", runtime=pair["alpha"].namespace,
                    origin="beta")
        with pytest.raises(ComponentNotFoundError):
            grev.bind()


class TestMAgentObjectMode:
    def test_moves_object_to_target(self, pair):
        pair["alpha"].register("agent", Counter(1))
        ma = MAgent("agent", "beta", runtime=pair["alpha"].namespace)
        stub = ma.bind()
        assert stub.increment() == 2
        assert pair["beta"].namespace.store.contains("agent")

    def test_at_target_coerces_to_rpc(self, pair):
        pair["beta"].register("agent", Counter())
        ma = MAgent("agent", "beta", runtime=pair["alpha"].namespace,
                    origin="beta")
        ma.bind()
        assert ma.last_outcome.action is Action.COERCE_RPC

    def test_multi_hop_itinerary(self, quad):
        """MA is multi-hop: the object visits every itinerary stop."""
        quad["alpha"].register("agent", Counter(), shared=False)
        ma = MAgent("agent", "delta", itinerary=("beta", "gamma"),
                    runtime=quad["alpha"].namespace)
        ma.bind()
        quad.quiesce()
        assert quad["delta"].namespace.store.contains("agent")
        # The registries along the way watched it pass through.
        assert quad["beta"].namespace.registry.forwarding_hint("agent") == "gamma"
        assert quad["gamma"].namespace.registry.forwarding_hint("agent") == "delta"

    def test_missing_object(self, pair):
        ma = MAgent("ghost", "beta", runtime=pair["alpha"].namespace)
        with pytest.raises(ComponentNotFoundError):
            ma.bind()


class TestMAgentDeployMode:
    def test_deploys_class_to_target(self, pair):
        pair["alpha"].register_class(Counter)
        ma = MAgent("worker", "beta", class_name="Counter",
                    ctor_args=(5,), runtime=pair["alpha"].namespace)
        stub = ma.bind()
        assert stub.ref.node_id == "beta"
        assert stub.increment() == 6

    def test_send_is_fire_and_forget(self, pair):
        """Table 3's MA semantics: the result stays at the remote host."""
        pair["alpha"].register_class(Counter)
        ma = MAgent("worker", "beta", class_name="Counter",
                    runtime=pair["alpha"].namespace)
        ma.bind()
        assert ma.send("increment") is None
        pair.quiesce()
        # The effect happened remotely even though nothing came back.
        assert pair["beta"].stub("worker", location="beta").get() == 1

    @pytest.mark.parametrize("transport", ["sim", "tcp"])
    def test_rev_vs_ma_message_asymmetry(self, make_cluster, transport):
        """§3.5: 'REV is single hop and synchronous, while MA is multi-hop
        and asynchronous' — visible as the one-way INVOKE on the wire, on
        either transport: one-way is a property of the send."""
        pair = make_cluster(["alpha", "beta"], transport=transport)
        pair["alpha"].register_class(Counter)
        ma = MAgent("worker2", "beta", class_name="Counter",
                    runtime=pair["alpha"].namespace)
        ma.bind()
        before = len(pair.trace)
        ma.send("increment")
        pair.quiesce()
        # Over TCP the INVOKE runs on beta's worker pool: wait for its
        # effect, then make one round trip on the same connection, which
        # a reply to the INVOKE, were one sent, would precede.
        servant = pair["beta"].namespace.store.get("worker2")
        deadline = time.monotonic() + 5.0
        while servant.value != 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert servant.value == 1
        assert pair["alpha"].namespace.server.ping("beta")
        new_events = pair.trace.events()[before:]
        kinds = [e.kind for e in new_events if not e.local]
        # No REPLY(INVOKE): the result stayed.
        assert kinds == ["INVOKE", "PING", "REPLY(PING)"]
