"""Transport-shared plumbing: the at-most-once reply cache."""

import threading
import time

from repro.net.message import Batch, Message, MessageKind, ReplyPayload
from repro.net.transport import ReplyCache, Transport

import pytest


class TestReplyCache:
    def test_miss_then_hit(self):
        cache = ReplyCache()
        assert cache.get("m1") is None
        cache.put("m1", ReplyPayload(value=1))
        assert cache.get("m1").value == 1

    def test_lru_eviction(self):
        cache = ReplyCache(capacity=2)
        cache.put("a", ReplyPayload(value=1))
        cache.put("b", ReplyPayload(value=2))
        cache.put("c", ReplyPayload(value=3))
        assert cache.get("a") is None  # oldest evicted
        assert cache.get("c").value == 3

    def test_get_refreshes_recency(self):
        cache = ReplyCache(capacity=2)
        cache.put("a", ReplyPayload(value=1))
        cache.put("b", ReplyPayload(value=2))
        cache.get("a")  # refresh: "b" is now oldest
        cache.put("c", ReplyPayload(value=3))
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ReplyCache(capacity=0)


class TestExecuteHandler:
    def _message(self) -> Message:
        return Message(kind=MessageKind.PING, src="a", dst="b")

    def test_executes_once_per_msg_id(self):
        cache = ReplyCache()
        message = self._message()
        calls = []

        def handler(msg):
            calls.append(msg.msg_id)
            return "result"

        first = Transport.execute_handler(message, handler, cache)
        second = Transport.execute_handler(message, handler, cache)
        assert first.value == "result"
        assert second.value == "result"
        assert len(calls) == 1  # the retry replayed the cached reply

    def test_caches_errors_too(self):
        cache = ReplyCache()
        message = self._message()
        calls = []

        def handler(msg):
            calls.append(1)
            raise RuntimeError("failed")

        first = Transport.execute_handler(message, handler, cache)
        second = Transport.execute_handler(message, handler, cache)
        assert first.is_error and second.is_error
        assert len(calls) == 1


class TestSingleFlight:
    """Regression: a retransmission racing a still-running handler must not
    execute the handler a second time (the documented at-most-once
    guarantee for non-idempotent moves)."""

    def _message(self) -> Message:
        return Message(kind=MessageKind.PING, src="a", dst="b")

    def test_concurrent_retransmission_executes_once(self):
        cache = ReplyCache()
        message = self._message()
        started = threading.Event()
        release = threading.Event()
        calls = []

        def handler(msg):
            calls.append(msg.msg_id)
            started.set()
            release.wait(5)
            return "slow result"

        results = []

        def run():
            results.append(Transport.execute_handler(message, handler, cache))

        original = threading.Thread(target=run)
        original.start()
        assert started.wait(5)
        retry = threading.Thread(target=run)  # delayed retransmission
        retry.start()
        time.sleep(0.05)  # let the retry reach the in-flight wait
        release.set()
        original.join(5)
        retry.join(5)
        assert len(calls) == 1
        assert [r.value for r in results] == ["slow result", "slow result"]

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
    def test_control_flow_exceptions_propagate_uncached(self, exc_type):
        cache = ReplyCache()
        message = self._message()

        def interrupted(msg):
            raise exc_type()

        with pytest.raises(exc_type):
            Transport.execute_handler(message, interrupted, cache)
        # Nothing was cached: a later retransmission executes afresh
        # instead of replaying a pickled KeyboardInterrupt forever.
        assert cache.get(message.msg_id) is None
        payload = Transport.execute_handler(message, lambda m: "recovered", cache)
        assert payload.value == "recovered"

    def test_waiter_survives_control_flow_abort(self):
        """A retry parked on a flight that dies with a control-flow
        exception wakes up and executes the handler itself."""
        cache = ReplyCache()
        message = self._message()
        started = threading.Event()
        release = threading.Event()

        def interrupted(msg):
            started.set()
            release.wait(5)
            raise KeyboardInterrupt()

        def original():
            with pytest.raises(KeyboardInterrupt):
                Transport.execute_handler(message, interrupted, cache)

        first = threading.Thread(target=original)
        first.start()
        assert started.wait(5)
        results = []
        second = threading.Thread(
            target=lambda: results.append(
                Transport.execute_handler(message, lambda m: "rerun", cache)
            )
        )
        second.start()
        time.sleep(0.05)
        release.set()
        first.join(5)
        second.join(5)
        assert results and results[0].value == "rerun"


class TestReplyCacheUnderPressure:
    """Concurrency: eviction under capacity pressure while retries race."""

    def test_capacity_bound_holds_under_concurrent_retries(self):
        cache = ReplyCache(capacity=8)
        errors = []

        def churn(tid):
            try:
                for i in range(200):
                    message = Message(
                        kind=MessageKind.PING, src=f"n{tid}", dst="b", payload=i
                    )
                    first = Transport.execute_handler(
                        message, lambda m: m.payload, cache
                    )
                    assert first.value == i
                    # Immediate retry: replays the cached reply, or — if
                    # capacity pressure already evicted it — re-executes.
                    # Either way the value matches and the bound holds.
                    again = Transport.execute_handler(
                        message, lambda m: m.payload, cache
                    )
                    assert again.value == i
                    assert len(cache) <= 8
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert len(cache) <= 8

    def test_inflight_retry_wins_despite_eviction_churn(self):
        """A retry that arrives mid-flight gets the flight's reply even
        when the LRU churned through many evictions meanwhile: in-flight
        slots are not evictable."""
        cache = ReplyCache(capacity=2)
        message = Message(kind=MessageKind.PING, src="a", dst="b")
        started = threading.Event()
        release = threading.Event()
        calls = []

        def slow(msg):
            calls.append(1)
            started.set()
            release.wait(5)
            return "flight"

        original = threading.Thread(
            target=Transport.execute_handler, args=(message, slow, cache)
        )
        original.start()
        assert started.wait(5)
        for i in range(10):  # churn the tiny LRU during the flight
            cache.put(f"other-{i}", ReplyPayload(value=i))
        results = []
        retry = threading.Thread(
            target=lambda: results.append(
                Transport.execute_handler(message, slow, cache)
            )
        )
        retry.start()
        time.sleep(0.05)
        release.set()
        original.join(5)
        retry.join(5)
        assert len(calls) == 1
        assert results and results[0].value == "flight"


class TestBatchRetransmission:
    """Regression (at-most-once per sub-id): a retransmitted BATCH whose
    sub-requests already executed must not re-execute them — neither when
    the whole batch reply was lost, nor when only the batch-level cache
    entry survived eviction, nor when the batch failed part-way."""

    def _batch(self, payloads) -> Message:
        subs = tuple(
            Message(kind=MessageKind.PING, src="a", dst="b", payload=p)
            for p in payloads
        )
        return Message(kind=MessageKind.BATCH, src="a", dst="b",
                       payload=Batch(subs, sequential=True))

    def test_retransmitted_batch_replays_cached_subreplies(self):
        cache = ReplyCache()
        executed = []

        def handler(msg):
            executed.append(msg.payload)
            return msg.payload * 10

        batch = self._batch([1, 2, 3])
        first = Transport.execute_handler(batch, handler, cache)
        second = Transport.execute_handler(batch, handler, cache)
        subs = batch.payload.subs
        for reply in (first, second):  # (sub id, payload) pairs, in order
            assert [sub_id for sub_id, _ in reply.value] == [
                sub.msg_id for sub in subs]
            assert [p.value for _, p in reply.value] == [10, 20, 30]
        assert executed == [1, 2, 3]  # each sub-request ran exactly once

    def test_subrequests_survive_batch_entry_eviction(self):
        """Even with the batch-level reply gone, the per-sub-id slots
        protect the sub-requests from re-execution."""
        cache = ReplyCache()
        executed = []

        def handler(msg):
            executed.append(msg.payload)
            return msg.payload

        batch = self._batch(["x", "y"])
        Transport.execute_handler(batch, handler, cache)
        # Simulate the batch-level entry falling to LRU capacity pressure
        # while the (more recent) sub-entries survive.
        shard = cache._shard(batch.msg_id)
        with shard._lock:
            del shard._entries[batch.msg_id]
        replay = Transport.execute_handler(batch, handler, cache)
        assert [p.value for _, p in replay.value] == ["x", "y"]
        assert executed == ["x", "y"]

    def test_partially_failed_batch_does_not_reexecute_on_retry(self):
        cache = ReplyCache()
        executed = []

        def handler(msg):
            executed.append(msg.payload)
            if msg.payload == "bad":
                raise RuntimeError("sub-request failed")
            return msg.payload

        batch = self._batch(["ok", "bad", "never"])
        first = Transport.execute_handler(batch, handler, cache)
        second = Transport.execute_handler(batch, handler, cache)
        for payload in (first, second):
            assert [p.is_error for _, p in payload.value] == [False, True]
        # The failing sub stopped the batch; the retry replayed the cached
        # partial outcome without running anything again.
        assert executed == ["ok", "bad"]

    def test_lost_batch_reply_end_to_end(self):
        """Over the simulated network: the BATCH executes, its reply is
        lost, the transport retransmits — sub-requests still run once."""
        from repro.net.conditions import DeterministicLoss
        from repro.net.simnet import SimNetwork

        net = SimNetwork(loss=DeterministicLoss({"REPLY": 1}))
        net.register("a", lambda m: None)
        executed = []

        def handler(msg):
            executed.append(msg.payload)
            return msg.payload + 100

        net.register("b", handler)
        results = net.call_many(
            "a", "b", [(MessageKind.PING, i) for i in range(3)]
        )
        assert results == [100, 101, 102]
        assert executed == [0, 1, 2]
        # The drop really happened (one REPLY(BATCH) attempt was eaten).
        dropped = [e for e in net.trace.events() if e.dropped]
        assert len(dropped) == 1
