"""Access control (§7 future work): domains, verbs, guarded namespaces."""

import pytest

from repro.errors import AccessDeniedError
from repro.ext.access import ANY, AccessPolicy, guard
from repro.bench.workloads import Counter
from repro.core.agents import Agent

#: One object that ships as a single OBJECT_TRANSFER frame, and one that
#: streams as PREPARE/CHUNK/COMMIT (the stream threshold is 256 KiB).
SIZES = pytest.mark.parametrize("size", [1000, 1 << 20], ids=["1KB", "1MiB"])


class Cargo(Agent):
    """A mobile servant (and agent) carrying ``size`` bytes."""

    def __init__(self, size):
        super().__init__()
        self.data = bytes(size)


class TestPolicy:
    def test_trusting_by_default(self):
        """The paper's current MAGE 'trusts its constituent servers'."""
        policy = AccessPolicy()
        assert policy.permits("anyone", "invoke")
        assert policy.permits("anyone", "move_in")

    def test_restrict_flips_default(self):
        policy = AccessPolicy().restrict()
        policy.trust_domain = False
        assert not policy.permits("anyone", "invoke")

    def test_explicit_allow(self):
        policy = AccessPolicy().restrict()
        policy.trust_domain = False
        policy.allow("friend", "invoke")
        assert policy.permits("friend", "invoke")
        assert not policy.permits("friend", "move_in")
        assert not policy.permits("stranger", "invoke")

    def test_allow_all_verbs(self):
        policy = AccessPolicy().restrict()
        policy.trust_domain = False
        policy.allow("friend")
        assert policy.permits("friend", "move_out")

    def test_wildcard_principal(self):
        policy = AccessPolicy().restrict()
        policy.trust_domain = False
        policy.allow(ANY, "invoke")
        assert policy.permits("anyone", "invoke")

    def test_same_domain_trust(self):
        policy = AccessPolicy(domain="labnet").restrict()
        policy.join_domain("peer", "labnet")
        policy.join_domain("outsider", "wildnet")
        assert policy.permits("peer", "move_in")
        assert not policy.permits("outsider", "move_in")

    def test_domain_name_rules(self):
        policy = AccessPolicy(domain="labnet").restrict()
        policy.trust_domain = False
        policy.join_domain("visitor", "partnernet")
        policy.allow("partnernet", "invoke")
        assert policy.permits("visitor", "invoke")
        assert not policy.permits("visitor", "move_in")

    def test_unknown_verb_rejected(self):
        with pytest.raises(ValueError):
            AccessPolicy().permits("x", "teleport")

    def test_rule_validates_verbs(self):
        with pytest.raises(ValueError):
            AccessPolicy().allow("x", "teleport")


class TestGuardedNamespace:
    def test_denied_invoke(self, pair):
        pair["beta"].register("c", Counter())
        policy = AccessPolicy().restrict()
        policy.trust_domain = False
        guarded = guard(pair["beta"].namespace, policy)
        with pytest.raises(AccessDeniedError):
            pair["alpha"].stub("c", location="beta").get()
        assert guarded.denials == 1

    def test_allowed_invoke(self, pair):
        pair["beta"].register("c", Counter())
        policy = AccessPolicy().restrict()
        policy.trust_domain = False
        policy.allow("alpha", "invoke")
        guard(pair["beta"].namespace, policy)
        assert pair["alpha"].stub("c", location="beta").get() == 0

    @SIZES
    def test_denied_move_in(self, pair, size):
        pair["alpha"].register("c", Cargo(size))
        policy = AccessPolicy().restrict()
        policy.trust_domain = False
        policy.allow("alpha", "invoke")  # but not move_in
        guarded = guard(pair["beta"].namespace, policy)
        from repro.errors import MageError

        with pytest.raises((AccessDeniedError, MageError)):
            pair["alpha"].namespace.move("c", "beta")
        # The object must still be safely at home, refused at the door.
        assert pair["alpha"].namespace.store.contains("c")
        assert not pair["beta"].namespace.store.contains("c")
        assert guarded.denials == 1
        assert pair["beta"].namespace.mover.staging_count() == 0

    @SIZES
    def test_denied_move_in_stops_a_tour(self, pair, size):
        """An agent's hop is a move: the same gate refuses it, and the
        agent stays where it was launched."""
        policy = AccessPolicy().restrict()
        policy.trust_domain = False
        guarded = guard(pair["beta"].namespace, policy)
        with pytest.raises(AccessDeniedError):
            pair["alpha"].agents.launch(Cargo(size), "tourist", ("beta",))
        pair.quiesce()
        assert pair["alpha"].namespace.store.contains("tourist")
        assert not pair["beta"].namespace.store.contains("tourist")
        assert guarded.denials == 1

    def test_denied_move_out(self, pair):
        pair["beta"].register("c", Counter())
        policy = AccessPolicy().restrict()
        policy.trust_domain = False
        policy.allow("alpha", "invoke")
        guard(pair["beta"].namespace, policy)
        with pytest.raises(AccessDeniedError):
            pair["alpha"].namespace.move("c", "alpha", origin_hint="beta")

    def test_local_traffic_never_gated(self, pair):
        pair["alpha"].register("c", Counter())
        policy = AccessPolicy().restrict()
        policy.trust_domain = False
        guard(pair["alpha"].namespace, policy)
        # alpha's own finds/invokes keep working.
        assert pair["alpha"].find("c") == "alpha"
        assert pair["alpha"].stub("c", location="alpha").get() == 0

    def test_registry_lookups_not_gated(self, pair):
        """Naming stays open — only mobility verbs are access-controlled."""
        pair["beta"].register("c", Counter())
        policy = AccessPolicy().restrict()
        policy.trust_domain = False
        guard(pair["beta"].namespace, policy)
        ref = pair["alpha"].namespace.naming.lookup_ref("mage://beta/c")
        assert ref.node_id == "beta"
