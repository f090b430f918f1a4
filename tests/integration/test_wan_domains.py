"""§7's WAN vision, end to end: administrative domains with access control
and resource budgets.

"We are exploring a version of MAGE that runs on and scales to WANs
consisting of large, heterogeneous networks, fragmented into competing and
disjoint administrative domains, each with different services, resources
and security needs."
"""

import pytest

from repro.core.models import CLE, REV
from repro.errors import AccessDeniedError, MageError, ResourceExhaustedError
from repro.ext.access import AccessPolicy, guard
from repro.ext.resources import OBJECT_SLOTS, meter
from repro.bench.workloads import Counter


class Cargo:
    """A mobile servant carrying ``size`` bytes."""

    def __init__(self, size):
        self.data = bytes(size)


@pytest.fixture
def wan(make_cluster):
    """Two domains: labnet {lab1, lab2} and partnernet {partner}."""
    cluster = make_cluster(["lab1", "lab2", "partner"])
    for node, domain in (("lab1", "labnet"), ("lab2", "labnet"),
                         ("partner", "partnernet")):
        policy = AccessPolicy(domain=domain).restrict()
        for peer, peer_domain in (("lab1", "labnet"), ("lab2", "labnet"),
                                  ("partner", "partnernet")):
            policy.join_domain(peer, peer_domain)
        guard(cluster[node].namespace, policy)
        cluster[node].namespace._policy = policy  # test handle
    return cluster


class TestDomainIsolation:
    def test_intra_domain_mobility_is_free(self, wan):
        wan["lab1"].register("data", Counter())
        assert wan["lab1"].namespace.move("data", "lab2") == "lab2"
        assert wan["lab2"].stub("data", location="lab2").increment() == 1

    def test_cross_domain_everything_denied_by_default(self, wan):
        wan["lab1"].register("data", Counter())
        with pytest.raises((AccessDeniedError, MageError)):
            wan["partner"].stub("data", location="lab1").get()
        with pytest.raises((AccessDeniedError, MageError)):
            wan["partner"].namespace.move("data", "partner",
                                          origin_hint="lab1")
        assert wan["lab1"].namespace.store.contains("data")

    def test_selective_cross_domain_grant(self, wan):
        """labnet opens invocation (only) to partnernet."""
        wan["lab1"].namespace._policy.allow("partnernet", "invoke")
        wan["lab1"].register("svc", Counter())
        # Partner may now call ...
        assert wan["partner"].stub("svc", location="lab1").increment() == 1
        # ... but still cannot pull the component out of the domain.
        with pytest.raises((AccessDeniedError, MageError)):
            wan["partner"].namespace.move("svc", "partner",
                                          origin_hint="lab1")

    def test_rev_deployment_needs_move_in_grant(self, wan):
        wan["lab1"].register_class(Counter)
        rev = REV("Counter", "deployed", "partner",
                  runtime=wan["lab1"].namespace)
        with pytest.raises((AccessDeniedError, MageError)):
            rev.bind()
        # Partner opens its door to labnet code:
        wan["partner"].namespace._policy.allow("labnet", "move_in",
                                               "load_class", "invoke")
        stub = rev.bind()
        assert stub.increment() == 1


class TestDomainResources:
    # One size ships as a single OBJECT_TRANSFER, the other streams as
    # PREPARE/CHUNK/COMMIT: both must meet the same budget.
    @pytest.mark.parametrize("size", [1000, 1 << 20], ids=["1KB", "1MiB"])
    def test_budgeted_domain_gateway(self, wan, size):
        """partnernet accepts labnet components, but only two at a time."""
        wan["partner"].namespace._policy.allow(
            "labnet", "move_in", "load_class", "invoke", "move_out"
        )
        # labnet accepts its own components back from partnernet.
        wan["lab1"].namespace._policy.allow("partnernet", "move_in")
        metered = meter(wan["partner"].namespace, {OBJECT_SLOTS: 2})
        for i in range(2):
            wan["lab1"].register(f"job{i}", Cargo(size))
            wan["lab1"].namespace.move(f"job{i}", "partner")
        wan["lab1"].register("job2", Cargo(size))
        with pytest.raises(ResourceExhaustedError):
            wan["lab1"].namespace.move("job2", "partner")
        assert metered.rejections == 1
        assert len(wan["partner"].namespace.store) == 2
        assert wan["lab1"].namespace.store.contains("job2")
        # Work finishes and leaves; capacity frees up.
        wan["lab1"].namespace.move("job0", "lab1", origin_hint="lab1")
        assert wan["lab1"].namespace.move("job2", "partner") == "partner"

    def test_cle_across_granted_domains(self, wan):
        wan["lab1"].namespace._policy.allow("partnernet", "invoke")
        wan["lab2"].namespace._policy.allow("partnernet", "invoke")
        wan["lab1"].register("svc", Counter(), shared=True)
        client = CLE("svc", runtime=wan["partner"].namespace, origin="lab1")
        assert client.bind().increment() == 1
        wan["lab1"].namespace.move("svc", "lab2")
        assert client.bind().increment() == 2
        assert client.cloc == "lab2"
