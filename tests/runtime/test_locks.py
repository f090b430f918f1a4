"""Stay/move locking (§4.4): kinds, exclusivity, unfairness, movement."""

import threading
import time

import pytest

from repro.errors import LockError, LockMovedError, LockTimeoutError
from repro.net.deadline import Deadline
from repro.runtime.locks import LockManager, MOVE, STAY


@pytest.fixture
def locks():
    return LockManager("alpha")


class TestKindSelection:
    def test_target_here_is_stay(self, locks):
        grant = locks.acquire("obj", target="alpha", requester="client")
        assert grant.kind == STAY

    def test_target_elsewhere_is_move(self, locks):
        grant = locks.acquire("obj", target="beta", requester="client")
        assert grant.kind == MOVE

    def test_grant_records_location(self, locks):
        grant = locks.acquire("obj", target="alpha", requester="client")
        assert grant.location == "alpha"


class TestCompatibility:
    def test_many_stays_coexist(self, locks):
        grants = [
            locks.acquire("obj", "alpha", f"client{i}") for i in range(5)
        ]
        assert all(g.kind == STAY for g in grants)

    def test_move_is_exclusive_against_stays(self, locks):
        stay = locks.acquire("obj", "alpha", "reader")
        with pytest.raises(LockTimeoutError):
            locks.acquire("obj", "beta", "mover", timeout_ms=50)
        locks.release("obj", stay.token)
        move = locks.acquire("obj", "beta", "mover", timeout_ms=500)
        assert move.kind == MOVE

    def test_move_blocks_move(self, locks):
        locks.acquire("obj", "beta", "mover1")
        with pytest.raises(LockTimeoutError):
            locks.acquire("obj", "gamma", "mover2", timeout_ms=50)

    def test_move_blocks_stay(self, locks):
        locks.acquire("obj", "beta", "mover")
        with pytest.raises(LockTimeoutError):
            locks.acquire("obj", "alpha", "reader", timeout_ms=50)

    def test_release_wakes_waiter(self, locks):
        move = locks.acquire("obj", "beta", "mover")
        acquired = threading.Event()

        def waiter():
            locks.acquire("obj", "alpha", "reader")
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()
        locks.release("obj", move.token)
        assert acquired.wait(timeout=2.0)
        thread.join()


class TestUnfairness:
    def test_stays_jump_queued_moves(self, locks):
        """The paper: locking 'unfairly favors invocations that stay'."""
        first_stay = locks.acquire("obj", "alpha", "reader0")
        move_waiting = threading.Event()
        move_granted = threading.Event()

        def mover():
            move_waiting.set()
            locks.acquire("obj", "beta", "mover")
            move_granted.set()

        thread = threading.Thread(target=mover)
        thread.start()
        move_waiting.wait()
        time.sleep(0.05)  # ensure the move is queued
        # A new stay must be granted immediately despite the queued move.
        late_stay = locks.acquire("obj", "alpha", "reader1", timeout_ms=200)
        assert late_stay.kind == STAY
        assert not move_granted.is_set()
        locks.release("obj", first_stay.token)
        locks.release("obj", late_stay.token)
        assert move_granted.wait(timeout=2.0)
        thread.join()

    def test_fair_mode_queues_stays_behind_moves(self):
        locks = LockManager("alpha", fair=True)
        first_stay = locks.acquire("obj", "alpha", "reader0")
        move_started = threading.Event()
        results = []

        def mover():
            move_started.set()
            grant = locks.acquire("obj", "beta", "mover")
            results.append(("move", grant.kind))
            locks.release("obj", grant.token)

        thread = threading.Thread(target=mover)
        thread.start()
        move_started.wait()
        time.sleep(0.05)
        # In FIFO mode the late stay must wait behind the queued move.
        with pytest.raises(LockTimeoutError):
            locks.acquire("obj", "alpha", "reader1", timeout_ms=100)
        locks.release("obj", first_stay.token)
        thread.join()
        assert results == [("move", MOVE)]

    def test_moves_fifo_among_themselves(self, locks):
        order = []
        first = locks.acquire("obj", "beta", "m1")
        started = [threading.Event(), threading.Event()]

        def mover(idx, target):
            started[idx].set()
            grant = locks.acquire("obj", target, f"m{idx + 2}")
            order.append(idx)
            locks.release("obj", grant.token)

        t0 = threading.Thread(target=mover, args=(0, "gamma"))
        t0.start()
        started[0].wait()
        time.sleep(0.05)
        t1 = threading.Thread(target=mover, args=(1, "delta"))
        t1.start()
        started[1].wait()
        time.sleep(0.05)
        locks.release("obj", first.token)
        t0.join()
        t1.join()
        assert order == [0, 1]


class TestMovement:
    def test_mark_moved_fails_waiters_over(self, locks):
        holder = locks.acquire("obj", "beta", "mover")
        failures = []

        def waiter():
            try:
                locks.acquire("obj", "alpha", "reader")
            except LockMovedError as exc:
                failures.append(exc.new_location)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        locks.mark_moved("obj", "gamma")
        thread.join(timeout=2.0)
        assert failures == ["gamma"]
        # The holder can still release cleanly after the move.
        locks.release("obj", holder.token)

    def test_new_requests_redirected_after_move(self, locks):
        locks.mark_moved("obj", "gamma")
        with pytest.raises(LockMovedError) as excinfo:
            locks.acquire("obj", "alpha", "reader")
        assert excinfo.value.new_location == "gamma"

    def test_arrival_reopens_locking(self, locks):
        locks.mark_moved("obj", "gamma")
        locks.mark_arrived("obj")
        grant = locks.acquire("obj", "alpha", "reader")
        assert grant.kind == STAY


class TestRelease:
    def test_release_unknown_token(self, locks):
        grant = locks.acquire("obj", "alpha", "reader")
        with pytest.raises(LockError):
            locks.release("obj", "bogus-token")
        locks.release("obj", grant.token)

    def test_release_unknown_name(self, locks):
        with pytest.raises(LockError):
            locks.release("ghost", "token")

    def test_double_release(self, locks):
        grant = locks.acquire("obj", "alpha", "reader")
        locks.release("obj", grant.token)
        with pytest.raises(LockError):
            locks.release("obj", grant.token)

    def test_a_grant_made_with_little_budget_left_is_held_until_released(
            self, locks):
        """No lease: a grant whose deadline was about to run out is not
        taken back by the manager; only its release frees the object."""
        grant = locks.acquire("obj", "beta", "caller",
                              deadline=Deadline.after_ms(10))
        time.sleep(0.2)  # well past the request's deadline
        assert locks.holds_move_lock("obj", grant.token)
        with pytest.raises(LockTimeoutError):
            locks.acquire("obj", "alpha", "reader", timeout_ms=50)
        locks.release("obj", grant.token)
        stay = locks.acquire("obj", "alpha", "reader", timeout_ms=50)
        locks.release("obj", stay.token)

    def test_state_is_garbage_collected(self, locks):
        grant = locks.acquire("obj", "alpha", "reader")
        locks.release("obj", grant.token)
        assert locks.snapshot("obj") == {
            "stays": 0, "move": False, "queued": 0, "moved_to": None,
            "departing": False,
        }


class TestQueries:
    def test_holds_move_lock(self, locks):
        grant = locks.acquire("obj", "beta", "mover")
        assert locks.holds_move_lock("obj", grant.token)
        assert not locks.holds_move_lock("obj", "other")

    def test_has_activity(self, locks):
        assert not locks.has_activity("obj")
        grant = locks.acquire("obj", "alpha", "reader")
        assert locks.has_activity("obj")
        locks.release("obj", grant.token)
        assert not locks.has_activity("obj")

    def test_stats_count_grants(self, locks):
        locks.acquire("obj", "alpha", "r1")
        locks.acquire("obj2", "beta", "m1")
        assert locks.stats.stays_granted == 1
        assert locks.stats.moves_granted == 1

    def test_negative_timeout_rejected(self, locks):
        with pytest.raises(LockError):
            locks.acquire("obj", "alpha", "r", timeout_ms=-5)
