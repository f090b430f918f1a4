"""Same-host fast paths: the in-process bypass and the location cache.

The heart of this file is the parametrized semantic-equivalence suite:
every test in :class:`TestInvokeSemantics` runs the same invoke matrix
down three legs and asserts *identical observable outcomes* — by-value
argument/result isolation, failure envelopes, deadline admission and
propagation, cancellation:

* ``wire`` — the stub lives on a second node ``n0`` of the same
  transport and calls ``n1`` over loopback (the only way a call reaches
  a socket: a node's message to itself never does);
* ``self`` — ``n1``'s own stub with ``supports_local_bypass`` cleared:
  an INVOKE the node sends itself, delivered by value through its own
  worker pool;
* ``bypass`` — ``n1``'s own stub through the tier-1 in-process bypass.

A fixture postcondition then proves each leg actually took the path it
claims to cover.
"""

import time
from types import SimpleNamespace

import pytest

from repro.errors import (
    CallTimeoutError,
    NoSuchObjectError,
    RemoteInvocationError,
)
from repro.net.deadline import Deadline, current_deadline
from repro.net.message import MessageKind, build_message
from repro.net.tcpnet import TcpNetwork
from repro.rmi.bypass import _LocalInvoke
from repro.rmi.stub import RemoteRef
from repro.runtime.namespace import Namespace


class MatrixServant:
    """One servant exercising every cell of the invoke matrix."""

    def __init__(self):
        self.calls = 0
        self.retained = None

    def ping(self):
        self.calls += 1
        return "pong"

    def add(self, a, b=0):
        return a + b

    def mutate(self, items):
        # A servant-side argument mutation must never leak back to the
        # caller's object — arguments cross the boundary by value.
        items.append("servant-side")
        return len(items)

    def retain(self, items):
        self.retained = items
        return True

    def get_retained(self):
        return self.retained

    def boom(self):
        raise ValueError("kaboom")

    def deadline_remaining(self):
        deadline = current_deadline()
        return None if deadline is None else deadline.remaining_s()

    def slow(self, seconds):
        time.sleep(seconds)
        return "done"


@pytest.fixture(params=["wire", "self", "bypass"])
def path(request):
    """A servant on ``n1`` of real TCP, called down one leg (module
    docstring): ``ns`` is the calling namespace."""
    net = TcpNetwork()
    net.supports_local_bypass = request.param == "bypass"
    home = Namespace("n1", net)
    servant = MatrixServant()
    home.register("subject", servant)
    ns = Namespace("n0", net) if request.param == "wire" else home
    leg = SimpleNamespace(
        kind=request.param, net=net, ns=ns, servant=servant,
        stub=ns.stub("subject", location="n1"),
        ref=RemoteRef(node_id="n1", name="subject"),
    )
    yield leg
    # Postcondition: each leg provably takes the path it claims to test.
    before = ns.client.local_hits
    invokes = len(net.trace.filtered(kinds=["INVOKE"]))
    assert leg.stub.add(20, b=2) == 22
    after = ns.client.local_hits
    if request.param == "bypass":
        assert after == before + 1, "bypass leg skipped the in-process path"
    else:
        assert after == before == 0, \
            f"{request.param} leg leaked onto the bypass"
    if request.param == "wire":
        assert ("n0", "n1") in net._channels, "wire leg never dialled n1"
        carried = net.trace.filtered(kinds=["INVOKE"])[invokes:]
        assert [(e.src, e.dst) for e in carried] == [("n0", "n1")]
    else:
        assert ("n1", "n1") not in net._channels, "self call took a socket"
    net.shutdown()


class TestInvokeSemantics:
    """The invoke matrix, identical through wire and bypass."""

    def test_plain_result(self, path):
        assert path.stub.add(2, b=3) == 5
        assert path.stub.ping() == "pong"

    def test_argument_mutation_never_leaks_back(self, path):
        items = ["caller-side"]
        assert path.stub.mutate(items) == 2
        assert items == ["caller-side"]

    def test_caller_mutation_never_reaches_a_retaining_servant(self, path):
        items = [1, 2]
        assert path.stub.retain(items) is True
        items.append(3)
        # Direct in-process read: the servant's copy is isolated.
        assert path.servant.retained == [1, 2]

    def test_result_mutation_never_reaches_the_servant(self, path):
        path.stub.retain([1, 2])
        result = path.stub.get_retained()
        assert result == [1, 2]
        result.append(99)
        assert path.servant.retained == [1, 2]

    def test_servant_exception_envelope(self, path):
        with pytest.raises(RemoteInvocationError) as exc_info:
            path.stub.boom()
        error = exc_info.value
        assert "ValueError: kaboom" in str(error)
        assert "kaboom" in error.remote_traceback
        # The delivered error is reconstructed by value: no live cause
        # chain smuggles servant frames across the boundary.
        assert error.__cause__ is None

    def test_missing_object(self, path):
        ghost = path.ns.stub("ghost", location="n1")
        with pytest.raises(NoSuchObjectError):
            ghost.ping()

    def test_private_method_refused(self, path):
        with pytest.raises(NoSuchObjectError, match="private methods"):
            path.ns.client.invoke(path.ref, "_secret", (), {})

    def test_unknown_method(self, path):
        with pytest.raises(NoSuchObjectError):
            path.ns.client.invoke(path.ref, "no_such_method", (), {})

    def test_deadline_propagates_to_servant(self, path):
        remaining = path.ns.client.invoke(
            path.ref, "deadline_remaining", (), {}, Deadline.after_s(30.0)
        )
        assert remaining is not None
        assert 0.0 < remaining <= 30.0

    def test_no_deadline_means_none_ambient(self, path):
        assert path.stub.deadline_remaining() is None

    def test_expired_deadline_dropped_at_admission(self, path):
        deadline = Deadline.after_ms(1.0)
        time.sleep(0.01)
        with pytest.raises(CallTimeoutError):
            path.ns.client.invoke(path.ref, "ping", (), {}, deadline)
        # Admission control, not a server-side timeout: the servant ran 0 times.
        assert path.servant.calls == 0

    def test_cancel_after_completion_is_a_noop(self, path):
        future = path.stub.futures.ping()
        assert future.result(timeout_s=5.0) == "pong"
        assert future.cancel() is False
        assert future.result(timeout_s=5.0) == "pong"

    def test_async_view_matches_blocking(self, path):
        futures = [path.stub.futures.add(i, b=10) for i in range(8)]
        assert [f.result(timeout_s=5.0) for f in futures] == [
            i + 10 for i in range(8)
        ]


class TestBypassReplay:
    """At-most-once across replayed message ids (wire parity is covered
    by the reply-cache suites in tests/net/test_transport.py)."""

    @pytest.fixture
    def ns(self):
        net = TcpNetwork()
        namespace = Namespace("n1", net)
        yield namespace
        net.shutdown()

    def _message(self, call):
        return build_message(MessageKind.INVOKE, "n1", "n1", call)

    def test_replay_served_from_cache_without_reexecution(self, ns):
        servant = MatrixServant()
        ns.register("subject", servant)
        dispatch = ns.client._local
        message = self._message(_LocalInvoke("subject", "ping", (), {}))
        first = dispatch.invoke_message(message)
        again = dispatch.invoke_message(message)
        assert first.result() == "pong"
        assert again.result() == "pong"
        assert servant.calls == 1

    def test_replayed_mutable_result_is_a_fresh_copy(self, ns):
        servant = MatrixServant()
        servant.retained = [1, 2]
        ns.register("subject", servant)
        dispatch = ns.client._local
        message = self._message(
            _LocalInvoke("subject", "get_retained", (), {})
        )
        first = dispatch.invoke_message(message).result()
        again = dispatch.invoke_message(message).result()
        assert first == again == [1, 2]
        # Each delivery unmarshals its own copy, exactly as each wire
        # retransmission decodes the cached reply blob anew.
        assert first is not again
        first.append(99)
        assert again == [1, 2]

    def test_bypass_records_local_trace_events(self, ns):
        ns.register("subject", MatrixServant())
        ns.stub("subject").ping()
        local = [e for e in ns.transport.trace.events()
                 if e.src == "n1" and e.dst == "n1"]
        kinds = [e.kind for e in local]
        assert "INVOKE" in kinds
        assert any(k.startswith("REPLY") for k in kinds)


class TestLocalityLadder:
    """Tier selection and the tier-3 location cache."""

    @pytest.fixture
    def cluster(self):
        net = TcpNetwork()
        a = Namespace("n1", net)
        b = Namespace("n2", net)
        yield SimpleNamespace(net=net, a=a, b=b)
        net.shutdown()

    def test_bypass_falls_back_to_wire_after_migration(self, cluster):
        cluster.a.register("mover", MatrixServant())
        stub = cluster.a.stub("mover")
        assert stub.ping() == "pong"
        before = cluster.a.client.local_hits
        assert before > 0
        cluster.a.move("mover", "n2")
        # The object left: the probe misses, the wire path takes over,
        # and the cache (fed by the departure hint) routes to n2.
        assert stub.ping() == "pong"
        assert cluster.a.client.local_hits == before
        assert cluster.a.client.cached_location("mover") == "n2"

    def test_migrate_in_upgrades_to_bypass(self, cluster):
        cluster.b.register("incoming", MatrixServant())
        stub = cluster.a.stub("incoming", location="n2")
        assert stub.ping() == "pong"
        assert cluster.a.client.local_hits == 0
        cluster.a.move("incoming", "n1", location="n2")
        assert stub.ping() == "pong"
        assert cluster.a.client.local_hits == 1

    def test_stale_self_pointing_cache_heals(self, cluster):
        cluster.b.register("elsewhere", MatrixServant())
        stub = cluster.a.stub("elsewhere", location="n2")
        cluster.a.client.note_location("elsewhere", "n1")  # a lie
        assert stub.ping() == "pong"
        assert cluster.a.client.cached_location("elsewhere") != "n1"
        assert cluster.a.client.local_hits == 0

    def test_stale_remote_redirect_retries_the_ref(self, cluster):
        cluster.a.register("home", MatrixServant())
        stub = cluster.a.client.stub_for(
            RemoteRef(node_id="n1", name="home")
        )
        cluster.a.client.note_location("home", "n2")  # stale redirect
        assert stub.ping() == "pong"
        assert cluster.a.client.cached_location("home") is None

    def test_eviction_drops_cache_entries(self, cluster):
        client = cluster.a.client
        client.note_location("x", "n2")
        client.note_location("y", "n2")
        client.note_location("z", "n3")
        assert cluster.a.registry.evict_hints("n2") >= 0
        assert client.cached_location("x") is None
        assert client.cached_location("y") is None
        assert client.cached_location("z") == "n3"

    def test_lock_moved_redirect_feeds_cache_not_hints(self, cluster):
        registry = cluster.a.registry
        registry.observe_location("obj", "n2")
        assert cluster.a.client.cached_location("obj") == "n2"
        assert registry.forwarding_hint("obj") is None


class TestBypassDisabled:
    def test_simulated_network_never_attaches_the_ladder(self):
        from repro.net.simnet import SimNetwork

        net = SimNetwork()
        ns = Namespace("n1", net)
        ns.register("subject", MatrixServant())
        assert ns.stub("subject").ping() == "pong"
        assert ns.client._local is None
        assert ns.client.local_hits == 0

    def test_local_bypass_knob_off(self):
        net = TcpNetwork()
        net.supports_local_bypass = False
        try:
            ns = Namespace("n1", net)
            ns.register("subject", MatrixServant())
            assert ns.stub("subject").ping() == "pong"
            assert ns.client.local_hits == 0
        finally:
            net.shutdown()
