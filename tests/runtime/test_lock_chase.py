"""Lock/move chases: LockMovedError under concurrent migration, deadline
bounds, and the hedged (speculative-parallel) variants.

The §4.4 chase path: a LOCK_REQUEST that arrives after its object moved
gets a ``LockMovedError`` carrying the new location and re-requests there.
``lock``, ``move`` and ``locate_any`` all run through the one
``runtime.server.chase`` — one host at a time by default, hedged with
``hedge=True`` or ``candidates`` — so each case below holds for every
width it names.  This file covers:

* the chase under *concurrent* migration — the object moves between the
  requester's ``find`` and its LOCK_REQUEST, repeatedly;
* the wall-clock bound (satellite): a chase is limited by the caller's
  cumulative ``timeout_ms``/deadline, not only by ``MAX_LOCK_CHASES``;
* hedged ``lock``/``move``: speculative requests to the last-known host
  and the origin hint in parallel, first grant/host wins, losers
  cancelled — deterministic on the simulated network, genuinely
  concurrent (and straggler-cancelling) on pipelined TCP;
* a stale hint that names the move target, sequential and hedged;
* ``locate_any`` straggler cancellation on both transports.
"""

import threading
import time

import pytest

from repro.cluster import Cluster
from repro.errors import (
    LockError,
    LockMovedError,
    LockTimeoutError,
    NoSuchObjectError,
)
from repro.net.deadline import Deadline, deadline_scope
from repro.net.tcpnet import TcpNetwork
from repro.rmi.protocol import LockRequestPayload
from repro.runtime.locks import MOVE, STAY


class Payload:
    def __init__(self, value: int = 0):
        self.value = value

    def bump(self) -> int:
        self.value += 1
        return self.value


class TestChaseUnderConcurrentMigration:
    def test_single_hop_chase_follows_the_move(self, trio):
        """Object moves between find and LOCK_REQUEST: the stale host
        answers LockMovedError and the chase lands at the new host."""
        alpha, beta = trio["alpha"], trio["beta"]
        alpha.register("obj", Payload(), shared=True)
        location = beta.namespace.server.find("obj", origin_hint="alpha")
        assert location == "alpha"
        # Concurrent migration: the object leaves before beta's request.
        alpha.namespace.move("obj", "gamma")
        grant = beta.namespace.lock("obj", "gamma", origin_hint="alpha")
        assert grant.location == "gamma"
        assert grant.kind == STAY  # target == hosting namespace
        beta.namespace.unlock(grant)

    def test_chase_across_several_hops(self, make_cluster):
        """A handler-driven relay: every LOCK_REQUEST to a stale host
        hands back the next hop; the chase follows to termination."""
        cluster = make_cluster(["n0", "n1", "n2", "n3"])
        cluster["n0"].register("obj", Payload(), shared=True)
        requester = cluster["n3"].namespace
        # Prime the requester's view, then migrate down the chain.
        assert requester.find("obj", origin_hint="n0") == "n0"
        cluster["n0"].namespace.move("obj", "n1")
        cluster["n1"].namespace.move("obj", "n2")
        grant = requester.lock("obj", "n2", origin_hint="n0")
        assert grant.location == "n2"
        requester.unlock(grant)

    def test_mid_wait_departure_fails_over(self, pair):
        """A queued waiter is failed over (LockMovedError) when the move
        holder ships the object away mid-wait."""
        alpha, beta = pair["alpha"], pair["beta"]
        alpha.register("obj", Payload(), shared=True)
        move_grant = alpha.namespace.lock("obj", "beta")
        assert move_grant.kind == MOVE
        outcome = {}

        def contender():
            try:
                outcome["grant"] = beta.namespace.lock(
                    "obj", "beta", origin_hint="alpha", timeout_ms=5000
                )
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=contender)
        thread.start()
        time.sleep(0.1)  # let the contender queue at alpha
        alpha.namespace.move("obj", "beta", lock_token=move_grant.token)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        # The contender either chased to beta and got its (stay) grant, or
        # the race let it in at alpha pre-departure; never an error.
        assert "error" not in outcome, outcome.get("error")
        grant = outcome["grant"]
        assert grant.location == "beta"
        beta.namespace.unlock(grant)


class TestDeadlineBoundedChase:
    def test_cumulative_timeout_beats_max_chases(self, trio):
        """A ping-ponging object must exhaust the caller's wall-clock
        budget, not MAX_LOCK_CHASES x io-timeout."""
        alpha, beta, gamma = trio["alpha"], trio["beta"], trio["gamma"]
        alpha.register("obj", Payload(), shared=True)

        # Every LOCK_REQUEST at the current host is answered only after
        # the object has already left: endless LockMovedError hops.
        from repro.net.message import MessageKind

        hosts = {"alpha": alpha, "beta": beta, "gamma": gamma}
        next_hop = {"alpha": "beta", "beta": "gamma", "gamma": "alpha"}

        def chasing_handler(node_id, orig):
            def always_moved(request):
                ns = hosts[node_id].namespace
                if ns.store.contains(request.name):
                    nxt = next_hop[node_id]
                    ns.move(request.name, nxt)
                    raise LockMovedError(request.name, nxt)
                return orig(request)

            return always_moved

        for node_id, node in hosts.items():
            handlers = node.namespace.external._handlers
            handlers[MessageKind.LOCK_REQUEST] = chasing_handler(
                node_id, handlers[MessageKind.LOCK_REQUEST]
            )

        start = time.perf_counter()
        with pytest.raises((LockTimeoutError, LockError)):
            beta.namespace.lock("obj", "beta", origin_hint="alpha",
                                timeout_ms=300)
        elapsed = time.perf_counter() - start
        # The old behaviour allowed up to MAX_LOCK_CHASES server-side
        # waits of timeout_ms each; the cumulative bound stops within
        # roughly one budget.
        assert elapsed < 2.0, f"chase outlived its budget: {elapsed:.2f}s"

    def test_deadline_object_bounds_the_chase(self, pair):
        alpha, beta = pair["alpha"], pair["beta"]
        alpha.register("obj", Payload(), shared=True)
        blocker = alpha.namespace.lock("obj", "beta")  # exclusive move lock
        start = time.perf_counter()
        with pytest.raises(LockTimeoutError):
            beta.namespace.lock("obj", "beta", origin_hint="alpha",
                                deadline=Deadline.after_ms(200))
        assert time.perf_counter() - start < 2.0
        alpha.namespace.unlock(blocker)

    def test_grant_at_the_buzzer_is_released_not_leaked(self, pair):
        """A lock granted after the caller's propagated deadline lapsed
        would answer an abandoned waiter (the reply is dropped) — the
        dispatcher must give the grant back instead of leaking it."""
        alpha = pair["alpha"].namespace
        alpha.register("obj", Payload(), shared=True)
        request = LockRequestPayload(name="obj", target="alpha",
                                     requester="beta", wait_ms=None)
        expired = Deadline.after_ms(0)
        time.sleep(0.002)
        # Drive the dispatcher directly under an expired dispatch deadline,
        # simulating the race where the grant lands just past expiry
        # (normal admission would have dropped a request this late).
        with deadline_scope(expired):
            with pytest.raises(LockTimeoutError):
                alpha.external._on_lock(request)
        # The uncollectable grant was released: no holders remain and a
        # fresh request is granted immediately.
        assert alpha.locks.snapshot("obj") == {
            "stays": 0, "move": False, "queued": 0, "moved_to": None,
            "departing": False,
        }
        grant = alpha.lock("obj", "beta", timeout_ms=500)
        alpha.unlock(grant)

    def test_zero_budget_lock_fails_fast(self, pair):
        alpha, beta = pair["alpha"], pair["beta"]
        alpha.register("obj", Payload(), shared=True)
        expired = Deadline.after_ms(0)
        time.sleep(0.002)
        with pytest.raises((LockTimeoutError, Exception)):
            beta.namespace.lock("obj", "beta", origin_hint="alpha",
                                deadline=expired)


class TestHedgedLock:
    def test_hedged_lock_wins_via_origin_hint(self, make_cluster):
        """Last-known host is stale; the origin's forwarding answer leads
        the second round straight to the real host."""
        cluster = make_cluster(["origin", "stale", "home", "issuer"])
        cluster["origin"].register("obj", Payload(), shared=True)
        cluster["origin"].namespace.move("obj", "stale")
        cluster["stale"].namespace.move("obj", "home")
        # origin's table collapsed to "home" by a verified find.
        assert cluster["origin"].namespace.find("obj") == "home"
        issuer = cluster["issuer"].namespace
        issuer.registry.note_location("obj", "stale")  # stale knowledge
        grant = issuer.lock("obj", "home", origin_hint="origin", hedge=True)
        assert grant.location == "home"
        assert grant.kind == STAY
        # The winner was recorded for the next operation.
        assert issuer.registry.forwarding_hint("obj") == "home"
        issuer.unlock(grant)

    def test_hedge_asks_the_last_known_host_then_the_origin(
            self, make_cluster):
        cluster = make_cluster(["origin", "stale", "issuer"])
        cluster["origin"].register("obj", Payload(), shared=True)
        issuer = cluster["issuer"].namespace
        issuer.registry.note_location("obj", "stale")
        assert issuer.server._hints("obj", "origin") == ["stale", "origin"]
        # One host named twice, or the asking host itself, is asked once
        # or not at all.
        assert issuer.server._hints("obj", "stale") == ["stale"]
        assert issuer.server._hints("obj", "issuer") == ["stale"]

    def test_hedge_on_the_hosting_node_asks_only_itself(self, make_cluster):
        cluster = make_cluster(["origin", "home"])
        cluster["home"].register("obj", Payload(), shared=True)
        home = cluster["home"].namespace
        home.registry.note_location("obj", "origin")
        assert home.server._hints("obj", "origin") == ["home"]

    def test_hedged_lock_local_object(self, pair):
        alpha = pair["alpha"]
        alpha.register("obj", Payload(), shared=True)
        grant = alpha.namespace.lock("obj", "alpha", hedge=True)
        assert grant.location == "alpha"
        assert grant.kind == STAY
        alpha.namespace.unlock(grant)

    def test_hedged_lock_no_knowledge_falls_back_to_find(self, pair):
        alpha, beta = pair["alpha"], pair["beta"]
        alpha.register("obj", Payload(), shared=True)
        # beta has no forwarding entry and no origin hint: find() resolves
        # via... nothing. Expect the find's ComponentNotFoundError family.
        with pytest.raises(Exception):
            beta.namespace.lock("obj", "beta", hedge=True)
        # With the origin hint it succeeds.
        grant = beta.namespace.lock("obj", "beta", origin_hint="alpha",
                                    hedge=True)
        assert grant.location == "alpha"
        assert grant.kind == MOVE
        beta.namespace.unlock(grant)

    def test_hedged_lock_deadline_expires(self, pair):
        alpha, beta = pair["alpha"], pair["beta"]
        alpha.register("obj", Payload(), shared=True)
        blocker = alpha.namespace.lock("obj", "beta")
        with pytest.raises(LockTimeoutError):
            beta.namespace.lock("obj", "beta", origin_hint="alpha",
                                hedge=True, deadline=Deadline.after_ms(150))
        alpha.namespace.unlock(blocker)

    def test_abandoned_unbounded_probe_cannot_leak_a_grant(self):
        """Regression: with no deadline at all, a hedged probe must not ask
        the server to queue past the client's io window — a grant issued
        after the client abandoned the exchange would leak forever."""
        net = TcpNetwork(io_timeout_s=0.3)
        with Cluster(["alpha", "beta"], transport=net) as cluster:
            alpha = cluster["alpha"].namespace
            beta = cluster["beta"].namespace
            alpha.register("obj", Payload(), shared=True)
            blocker = alpha.lock("obj", "beta")  # exclusive move lock
            # The object never moved, so the hung chase reads as a lock
            # timeout (same taxonomy as the sequential path), not "kept
            # moving".
            with pytest.raises(LockTimeoutError):
                beta.lock("obj", "beta", origin_hint="alpha", hedge=True)
            # The client has given up; now the holder releases.  The
            # queued probe must have timed out server-side (not be granted
            # into the void).
            alpha.unlock(blocker)
            time.sleep(0.5)  # any leaked grant would have landed by now
            snap = alpha.locks.snapshot("obj")
            assert snap["move"] is False and snap["stays"] == 0, snap
            # The object is lockable again, immediately.
            grant = beta.lock("obj", "beta", origin_hint="alpha",
                              timeout_ms=2000)
            beta.unlock(grant)

    def test_hedged_lock_on_tcp_cancels_the_stalled_loser(self):
        """Pipelined TCP: the stale host stalls; the origin's fast answer
        wins and the straggler probe is cancelled, so the hedged lock
        completes in far less than the stall."""
        net = TcpNetwork(io_timeout_s=5.0)
        stall = threading.Event()
        with Cluster(["origin", "stale", "home", "issuer"],
                     transport=net) as cluster:
            cluster["origin"].register("obj", Payload(), shared=True)
            cluster["origin"].namespace.move("obj", "stale")
            cluster["stale"].namespace.move("obj", "home")
            assert cluster["origin"].namespace.find("obj") == "home"

            # Wrap the stale node's dispatcher with a hard stall.
            inner = cluster["stale"].namespace.external.handle

            def stalled(message):
                stall.wait(2.0)
                return inner(message)

            net.register("stale", stalled)

            issuer = cluster["issuer"].namespace
            issuer.registry.note_location("obj", "stale")
            start = time.perf_counter()
            grant = issuer.lock("obj", "home", origin_hint="origin",
                                hedge=True, deadline=Deadline.after_s(10))
            elapsed = time.perf_counter() - start
            assert grant.location == "home"
            assert elapsed < 1.0, (
                f"hedged lock waited out the stall: {elapsed:.2f}s"
            )
            issuer.unlock(grant)
            stall.set()


class TestHedgedMove:
    def test_hedged_move_from_stale_knowledge(self, make_cluster):
        cluster = make_cluster(["origin", "home", "issuer", "dest"])
        cluster["origin"].register("obj", Payload(), shared=True)
        cluster["origin"].namespace.move("obj", "home")
        issuer = cluster["issuer"].namespace
        issuer.registry.note_location("obj", "origin")  # stale
        new_location = issuer.move("obj", "dest", origin_hint="home",
                                   hedge=True)
        assert new_location == "dest"
        assert cluster["dest"].namespace.store.contains("obj")
        assert not cluster["home"].namespace.store.contains("obj")

    def test_hedged_move_single_candidate_takes_plain_path(self, pair):
        alpha, beta = pair["alpha"], pair["beta"]
        alpha.register("obj", Payload(), shared=True)
        assert beta.namespace.move("obj", "beta", origin_hint="alpha",
                                   hedge=True) == "beta"
        assert beta.namespace.store.contains("obj")

    @pytest.mark.parametrize("hedge", [False, True])
    def test_stale_hint_equal_to_target_cannot_fake_the_move(self, make_cluster,
                                                             hedge):
        """A stale hint that happens to *be* the move target must not end
        the move unasked: a non-host probed on it answers
        NoSuchObjectError, and a plain move verifies it with a walk — the
        real host performs the move either way."""
        cluster = make_cluster(["a", "b", "c"])
        cluster["c"].register("obj", Payload(), shared=True)
        issuer = cluster["a"].namespace
        issuer.registry.note_location("obj", "b")  # stale, and == target
        assert issuer.move("obj", "b", origin_hint="c", hedge=hedge) == "b"
        assert cluster["b"].namespace.store.contains("obj")
        assert not cluster["c"].namespace.store.contains("obj")

    def test_hedged_move_all_misses_falls_back_to_find(self, make_cluster):
        cluster = make_cluster(["a", "b", "c", "issuer"])
        cluster["a"].register("obj", Payload(), shared=True)
        cluster["a"].namespace.move("obj", "b")
        issuer = cluster["issuer"].namespace
        # Both hints are wrong; neither "c" nor stale "a" hosts it.  "a"
        # holds a forwarding address though, so the fallback find walks
        # a -> b and the move lands.
        issuer.registry.note_location("obj", "c")
        assert issuer.move("obj", "issuer", origin_hint="a",
                           hedge=True) == "issuer"
        assert issuer.store.contains("obj")


class TestLocateStragglerCancellation:
    def test_sim_locate_any_matches_sequential_winner(self, make_cluster):
        cluster = make_cluster(["n0", "n1", "n2"])
        cluster["n1"].register("obj", Payload(), shared=True)
        issuer = cluster["n0"].namespace.server
        where = issuer.locate_any("obj", ["n0", "n1", "n2"],
                                  origin_hint="n1")
        assert where == "n1"

    def test_tcp_locate_any_cancels_stalled_probe(self):
        net = TcpNetwork(io_timeout_s=5.0)
        stall = threading.Event()
        with Cluster(["hung", "holder", "issuer"], transport=net) as cluster:
            cluster["holder"].register("obj", Payload(), shared=True)
            inner = cluster["hung"].namespace.external.handle

            def stalled(message):
                stall.wait(2.0)
                return inner(message)

            net.register("hung", stalled)
            issuer = cluster["issuer"].namespace.server
            start = time.perf_counter()
            where = issuer.locate_any(
                "obj", ["hung", "holder"], origin_hint="holder",
                deadline=Deadline.after_s(10),
            )
            elapsed = time.perf_counter() - start
            assert where == "holder"
            assert elapsed < 1.0, (
                f"locate waited for the hung probe: {elapsed:.2f}s"
            )
            stall.set()

    def test_no_deadline_collection_is_bounded_by_io_timeout(self):
        """Regression: without a deadline, a completion-order collect over
        a never-replying host must fall back to the transport's own io
        timeout (as blocking result() always did), not hang forever."""
        net = TcpNetwork(io_timeout_s=0.4)
        hang = threading.Event()
        with Cluster(["hung", "holder", "issuer"], transport=net) as cluster:
            cluster["holder"].register("obj", Payload(), shared=True)

            def black_hole(message):
                hang.wait(30.0)  # far past the io timeout; never replies

            net.register("hung", black_hole)
            issuer = cluster["issuer"].namespace
            server = issuer.server
            # locate_any with NO deadline: the hung probe times itself out.
            start = time.perf_counter()
            assert server.locate_any("obj", ["hung", "holder"]) == "holder"
            assert time.perf_counter() - start < 5.0
            # Hedged lock with NO deadline/timeout: stale hint names the
            # black hole; the origin-hint probe wins, the hung probe is
            # cancelled, and nothing waits past the io window.
            issuer.registry.note_location("obj", "hung")
            start = time.perf_counter()
            grant = issuer.lock("obj", "holder", origin_hint="holder",
                                hedge=True)
            assert time.perf_counter() - start < 5.0
            assert grant.location == "holder"
            issuer.unlock(grant)
            # All-candidates-hung: the chase terminates with an error
            # instead of hanging (each probe pays at most one io window).
            issuer.registry.note_location("obj", "hung")
            start = time.perf_counter()
            with pytest.raises(Exception):
                issuer.lock("obj", "holder", origin_hint="hung", hedge=True)
            assert time.perf_counter() - start < 5.0
            hang.set()

    def test_locate_any_deadline_expiry_cancels_everything(self):
        net = TcpNetwork(io_timeout_s=5.0)
        stall = threading.Event()
        with Cluster(["hung", "issuer"], transport=net) as cluster:
            inner = cluster["hung"].namespace.external.handle

            def stalled(message):
                stall.wait(2.0)
                return inner(message)

            net.register("hung", stalled)
            issuer = cluster["issuer"].namespace.server
            start = time.perf_counter()
            with pytest.raises(Exception, match="deadline|resolve"):
                issuer.locate_any("missing", ["hung"],
                                  deadline=Deadline.after_ms(300))
            assert time.perf_counter() - start < 1.5
            stall.set()
