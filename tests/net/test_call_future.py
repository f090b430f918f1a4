"""The asynchronous invocation core: CallFuture, gather, race, and both
transports.

Covers the contract the runtime's scatter-gather operations build on:

* ``call_async(...).result()`` is exactly ``call(...)`` on both transports;
* ``race`` yields in completion order, stops at its deadline, never
  out-waits a future's own bound, and waits on a lone future directly;
* the simulated network completes futures eagerly and deterministically
  (same messages, same traces as the blocking loop);
* the pipelined TCP transport genuinely overlaps outstanding round trips;
* failure isolation — one in-flight call timing out or erroring must not
  corrupt or delay other waiters sharing the pooled connection.
"""

import threading
import time

import pytest

from repro.errors import (
    CallCancelledError,
    CallTimeoutError,
    MessageLostError,
    NodeUnreachableError,
)
from repro.net.conditions import DeterministicLoss
from repro.net.deadline import Deadline
from repro.net.message import MessageKind
from repro.net.simnet import SimNetwork
from repro.net.tcpnet import TcpNetwork
from repro.net.transport import CallFuture, gather, race


@pytest.fixture
def net():
    network = TcpNetwork()
    yield network
    network.shutdown()


class TestCallFuture:
    def test_resolve_and_result(self):
        future = CallFuture("test")
        assert not future.done()
        future._resolve(7)
        assert future.done()
        assert future.result() == 7
        assert future.exception() is None

    def test_fail_raises_from_result(self):
        future = CallFuture("test")
        future._fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            future.result()
        assert isinstance(future.exception(), ValueError)

    def test_first_completion_wins(self):
        future = CallFuture("test")
        future._resolve("first")
        future._fail(ValueError("late failure"))
        future._resolve("late value")
        assert future.result() == "first"

    def test_a_completion_that_loses_the_race_reports_it(self):
        """The transport hands a reply that lost to a timeout or cancel
        to its node rather than dropping it, so a completion says
        whether it won."""
        future = CallFuture("test")
        assert future._resolve("first") is True
        assert future._fail(ValueError("late failure")) is False
        assert future._resolve("late value") is False
        cancelled = CallFuture("test")
        assert cancelled.cancel("gone")
        assert cancelled._resolve("late value") is False

    def test_result_wait_timeout(self):
        future = CallFuture("test")
        with pytest.raises(CallTimeoutError):
            future.result(timeout_s=0.01)
        # Waiting merely gave up; the future can still complete.
        future._resolve(1)
        assert future.result() == 1

    def test_completed_constructor(self):
        assert CallFuture.completed([1, 2]).result() == [1, 2]

    def test_add_done_callback_after_completion(self):
        future = CallFuture.completed("x")
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == ["x"]

    def test_add_done_callback_before_completion(self):
        future = CallFuture("test")
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == []
        future._resolve("y")
        assert seen == ["y"]

    def test_map_transforms_value(self):
        future = CallFuture.completed(21)
        assert future.map(lambda v: v * 2).result() == 42

    def test_map_propagates_source_failure(self):
        future = CallFuture("test")
        future._fail(ValueError("boom"))
        mapped = future.map(lambda v: v * 2)
        with pytest.raises(ValueError, match="boom"):
            mapped.result()
        assert isinstance(mapped.exception(), ValueError)

    def test_map_failure_stays_in_mapped_future(self):
        future = CallFuture.completed(1)

        def bad_mapper(value):
            raise RuntimeError("mapper died")

        mapped = future.map(bad_mapper)
        with pytest.raises(RuntimeError, match="mapper died"):
            mapped.result()
        assert isinstance(mapped.exception(), RuntimeError)
        assert future.exception() is None  # the source is untouched

    def test_map_runs_once(self):
        future = CallFuture.completed(3)
        calls = []

        def mapper(value):
            calls.append(value)
            return value + 1

        mapped = future.map(mapper)
        assert mapped.result() == 4
        assert mapped.result() == 4
        assert calls == [3]

    def test_gather_collects_in_order(self):
        futures = [CallFuture.completed(i) for i in range(3)]
        assert gather(futures) == [0, 1, 2]

    def test_gather_raises_first_failure(self):
        ok = CallFuture.completed(1)
        bad = CallFuture("test")
        bad._fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            gather([ok, bad])

    def test_gather_return_exceptions(self):
        ok = CallFuture.completed(1)
        bad = CallFuture("test")
        bad._fail(ValueError("boom"))
        results = gather([ok, bad], return_exceptions=True)
        assert results[0] == 1
        assert isinstance(results[1], ValueError)


def resolve_later(future, value, delay_s, seen=None):
    """Resolve ``future`` from another thread after ``delay_s``; when
    ``seen`` is a list, first record the future's done-callbacks in it."""
    def run():
        time.sleep(delay_s)
        if seen is not None:
            seen.append(list(future._callbacks))
        future._resolve(value)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


class TestRace:
    def test_completion_order_picks_up_futures_added_mid_race(self):
        slow, fast, late = (CallFuture(label) for label in ("slow", "fast",
                                                            "late"))
        answers = race()
        answers.add("slow", slow)
        answers.add("fast", fast)
        threads = [resolve_later(slow, 1, 0.2), resolve_later(fast, 2, 0.02)]
        order = []
        for key, future in answers:
            order.append((key, future.result(0)))
            if key == "fast":
                answers.add("late", late)  # a fresh probe, mid-race
                threads.append(resolve_later(late, 3, 0.05))
        assert order == [("fast", 2), ("late", 3), ("slow", 1)]
        for thread in threads:
            thread.join()

    def test_deadline_stops_the_race_and_leaves_the_rest_pending(self):
        done, hung = CallFuture("done"), CallFuture("hung")
        done._resolve("ok")
        answers = race(Deadline.after_ms(100))
        answers.add("done", done)
        answers.add("hung", hung)
        start = time.perf_counter()
        assert [key for key, _ in answers] == ["done"]
        assert time.perf_counter() - start < 1.0
        assert list(answers.pending.values()) == ["hung"]
        assert not hung.done()  # the caller's to cancel
        hung.cancel("test over")

    def test_a_future_past_its_own_bound_is_forced_to_complete(self):
        class Bounded(CallFuture):
            def _wait_bound_s(self):
                return 0.0  # its transport window is already spent

        stalled = Bounded("stalled")
        answers = race()
        answers.add("stalled", stalled)
        start = time.perf_counter()
        [(key, future)] = list(answers)
        assert key == "stalled" and future is stalled
        assert stalled.done()
        assert isinstance(stalled.exception(0), CallCancelledError)
        assert time.perf_counter() - start < 1.0

    def test_a_lone_future_is_waited_on_without_a_done_callback(self):
        lone = CallFuture("lone")
        seen = []
        thread = resolve_later(lone, "answer", 0.05, seen)
        answers = race(Deadline.after_s(5))
        answers.add("lone", lone)
        assert [(key, future.result(0)) for key, future in answers] == \
            [("lone", "answer")]
        thread.join()
        assert seen == [[]]  # no queue, no callback: what ``call`` costs


class TestSimAsync:
    def test_call_async_is_eager_and_matches_call(self):
        sim = SimNetwork()
        sim.register("a", lambda m: None)
        sim.register("b", lambda m: m.payload * 2)
        future = sim.call_async("a", "b", MessageKind.PING, 21)
        assert future.done()  # completed on the calling thread
        assert future.result() == 42

    def test_async_sweep_produces_the_sequential_trace(self):
        """Determinism: scatter-gather over sim == the blocking loop."""

        def run(use_async: bool) -> list[str]:
            sim = SimNetwork()
            sim.register("a", lambda m: None)
            for peer in ("b", "c", "d"):
                sim.register(peer, lambda m: m.payload)
            if use_async:
                futures = [
                    sim.call_async("a", peer, MessageKind.PING, i)
                    for i, peer in enumerate(("b", "c", "d"))
                ]
                assert gather(futures) == [0, 1, 2]
            else:
                for i, peer in enumerate(("b", "c", "d")):
                    assert sim.call("a", peer, MessageKind.PING, i) == i
            return sim.trace.arrows(remote_only=True)

        assert run(use_async=True) == run(use_async=False)

    def test_handler_error_fails_the_future(self):
        sim = SimNetwork()
        sim.register("a", lambda m: None)

        def boom(message):
            raise ValueError("remote failure")

        sim.register("b", boom)
        future = sim.call_async("a", "b", MessageKind.PING)
        assert isinstance(future.exception(), ValueError)

    def test_loss_retries_happen_before_the_future_returns(self):
        sim = SimNetwork(loss=DeterministicLoss({"PING": 2}))
        sim.register("a", lambda m: None)
        sim.register("b", lambda m: "pong")
        future = sim.call_async("a", "b", MessageKind.PING)
        assert future.result() == "pong"

    def test_exhausted_retry_budget_fails_the_future(self):
        sim = SimNetwork(loss=DeterministicLoss({"PING": 99}))
        sim.register("a", lambda m: None)
        sim.register("b", lambda m: "pong")
        future = sim.call_async("a", "b", MessageKind.PING)
        assert isinstance(future.exception(), MessageLostError)

    def test_gathered_calls_resolve_to_a_result_list(self):
        """Several requests to one peer: one ``call_async`` each, then
        ``gather`` — on the sim, one round trip per call, in order."""
        sim = SimNetwork()
        sim.register("a", lambda m: None)
        sim.register("b", lambda m: m.payload + 1)
        futures = [sim.call_async("a", "b", MessageKind.PING, i)
                   for i in range(4)]
        assert gather(futures) == [1, 2, 3, 4]
        assert sim.trace.kinds() == ["PING", "REPLY(PING)"] * 4

    def test_gather_of_no_futures_is_an_empty_list(self):
        sim = SimNetwork()
        assert gather([]) == []
        assert len(sim.trace) == 0


class TestTcpAsync:
    def test_result_matches_call(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: ("echo", m.payload))
        future = net.call_async("a", "b", MessageKind.PING, 42)
        assert future.result() == ("echo", 42)

    def test_round_trips_overlap(self, net):
        """Four 150 ms handlers, overlapped vs a measured sequential
        baseline (no absolute wall-clock bound — CI runners stall)."""
        net.register("a", lambda m: None)

        def slow_echo(message):
            time.sleep(0.15)
            return message.payload

        net.register("b", slow_echo)
        net.call("a", "b", MessageKind.PING, -1)  # warm the channel
        start = time.perf_counter()
        for i in range(4):
            assert net.call("a", "b", MessageKind.PING, i) == i
        sequential = time.perf_counter() - start
        start = time.perf_counter()
        futures = [net.call_async("a", "b", MessageKind.PING, i) for i in range(4)]
        assert gather(futures) == [0, 1, 2, 3]
        overlapped = time.perf_counter() - start
        assert overlapped < 0.6 * sequential, (sequential, overlapped)

    def test_handler_error_fails_only_its_future(self, net):
        net.register("a", lambda m: None)

        def picky(message):
            if message.payload == "bad":
                raise ValueError("rejected")
            return message.payload

        net.register("b", picky)
        good1 = net.call_async("a", "b", MessageKind.PING, "ok-1")
        bad = net.call_async("a", "b", MessageKind.PING, "bad")
        good2 = net.call_async("a", "b", MessageKind.PING, "ok-2")
        assert good1.result() == "ok-1"
        assert isinstance(bad.exception(), ValueError)
        assert good2.result() == "ok-2"

    def test_unknown_destination_fails_the_future(self, net):
        net.register("a", lambda m: None)
        future = net.call_async("a", "ghost", MessageKind.PING)
        assert isinstance(future.exception(), NodeUnreachableError)

    def test_gathered_calls_resolve_to_a_result_list(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: m.payload * 10)
        net.call("a", "b", MessageKind.PING, 0)  # warm the channel
        futures = [net.call_async("a", "b", MessageKind.PING, i)
                   for i in range(8)]
        assert gather(futures) == [i * 10 for i in range(8)]


class TestFailureIsolation:
    """One bad in-flight call must not corrupt the shared pooled connection."""

    def test_timeout_does_not_disturb_other_waiters(self):
        net = TcpNetwork(io_timeout_s=0.3)
        try:
            net.register("a", lambda m: None)
            release = threading.Event()

            def handler(message):
                if message.payload == "hang":
                    release.wait(5.0)  # well past the io timeout
                    return "late"
                return message.payload

            net.register("b", handler)
            net.call("a", "b", MessageKind.PING, "warm")
            hung = net.call_async("a", "b", MessageKind.PING, "hang")
            fast = net.call_async("a", "b", MessageKind.PING, "quick")
            # The fast call completes promptly despite the hung exchange
            # ahead of it on the same socket.
            assert fast.result(timeout_s=2.0) == "quick"
            with pytest.raises(CallTimeoutError):
                hung.result()
            # The channel survives: the late reply is dropped by the
            # reader (its waiter was discarded), and new exchanges work.
            release.set()
            assert net.call("a", "b", MessageKind.PING, "after") == "after"
            assert net.open_channels() == 1  # still the one pooled connection
        finally:
            net.shutdown()

    def test_blocking_timeout_then_fast_traffic(self):
        """The blocking form of the same isolation property."""
        net = TcpNetwork(io_timeout_s=0.2)
        try:
            net.register("a", lambda m: None)

            def handler(message):
                if message.payload == "hang":
                    time.sleep(0.8)
                return message.payload

            net.register("b", handler)
            net.call("a", "b", MessageKind.PING, "warm")
            errors = []

            def hang_call():
                try:
                    net.call("a", "b", MessageKind.PING, "hang")
                except Exception as exc:
                    errors.append(exc)

            thread = threading.Thread(target=hang_call)
            thread.start()
            time.sleep(0.05)  # let the hung frame hit the wire first
            for i in range(5):
                assert net.call("a", "b", MessageKind.PING, i) == i
            thread.join()
            assert len(errors) == 1
            assert isinstance(errors[0], CallTimeoutError)
        finally:
            net.shutdown()

    def test_hung_hosts_share_one_timeout_window(self):
        """Timeout clocks start at submission: gathering N hung futures
        costs ~one io-timeout window in total, not N stacked windows."""
        net = TcpNetwork(io_timeout_s=0.5)
        try:
            net.register("a", lambda m: None)
            release = threading.Event()

            def handler(message):
                if message.payload == "hang":
                    release.wait(10.0)
                return message.payload

            net.register("b", handler)
            net.call("a", "b", MessageKind.PING, "warm")
            futures = [net.call_async("a", "b", MessageKind.PING, "hang")
                       for _ in range(3)]
            start = time.perf_counter()
            for future in futures:
                with pytest.raises(CallTimeoutError):
                    future.result()
            elapsed = time.perf_counter() - start
            # Serial windows would cost >= 1.5s; shared ones ~0.5s.
            assert elapsed < 1.0, f"timeouts stacked serially: {elapsed:.2f}s"
            release.set()
        finally:
            net.shutdown()

    def test_erroring_calls_interleaved_with_successes(self):
        net = TcpNetwork()
        try:
            net.register("a", lambda m: None)

            def handler(message):
                if message.payload % 3 == 0:
                    raise RuntimeError(f"reject {message.payload}")
                return message.payload

            net.register("b", handler)
            futures = [net.call_async("a", "b", MessageKind.PING, i)
                       for i in range(12)]
            for i, future in enumerate(futures):
                if i % 3 == 0:
                    assert isinstance(future.exception(), RuntimeError)
                else:
                    assert future.result() == i
            assert net.open_channels() == 1
        finally:
            net.shutdown()
