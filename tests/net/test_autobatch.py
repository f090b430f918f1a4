"""Transparent auto-batching on the pipelined TCP call path.

Covers the coalescing client (reply-clocked flush, the kick safety
valve), the aggregating server (parallel sub dispatch, one reply frame),
reply-id uniqueness under aggregation, failure isolation between
coalesced sub-calls, at-most-once across retransmission, aggregation
between two transports, and the declared-inline dispatch fast path.
"""

import threading
import time

import pytest

from repro.errors import CallTimeoutError
from repro.net.deadline import Deadline
from repro.net.message import (
    Batch,
    Message,
    MessageKind,
    ReplyPayload,
    inline_safe,
)
from repro.net import tcpnet
from repro.net.tcpnet import _INLINE_DEMOTE_STRIKES, _Channel, TcpNetwork
from repro.net.transport import ReplyCache, Transport, gather


@pytest.fixture
def net():
    network = TcpNetwork()
    yield network
    network.shutdown()


class _Gate:
    """Server handler whose ``hang`` payload parks until released.

    Holding one call in flight keeps the client's reply clock busy, so
    every call issued meanwhile queues in the auto-batcher — the
    deterministic way to force a coalesced frame in tests.
    """

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, message):
        if message.payload == "hang":
            self.started.set()
            self.release.wait(5.0)
            return "hung"
        if message.payload == "boom":
            raise ValueError("sub failed")
        if isinstance(message.payload, (int, float)):
            return message.payload + 10
        return message.payload

    def open(self, net, src="a", dst="b"):
        """Register, warm the channel, and park one call in flight."""
        net.register(src, lambda m: None)
        net.register(dst, self)
        net.call(src, dst, MessageKind.PING, 0)
        hung = net.call_async(src, dst, MessageKind.PING, "hang")
        assert self.started.wait(5.0)
        return hung

    def drain(self, hung):
        self.release.set()
        assert hung.result(timeout_s=5.0) == "hung"


def _run_batch(batch, handler, cache):
    """Run a BATCH frame as a TCP server without a pool does: each sub
    through the at-most-once path, in order; the one reply."""
    outcome = []
    Transport.execute_batch(
        batch, lambda sub: Transport.execute_handler(sub, handler, cache),
        outcome.append)
    return outcome[0]


class TestAutoBatchFormation:
    def test_backlog_coalesces_into_one_frame(self, net):
        gate = _Gate()
        hung = gate.open(net)
        futures = [
            net.call_async("a", "b", MessageKind.PING, i) for i in range(4)
        ]
        assert gather(futures) == [10, 11, 12, 13]
        gate.drain(hung)
        stats = net.data_plane_metrics()
        assert stats.auto_batches == 1
        assert stats.auto_batched_msgs == 4
        assert stats.auto_batch_per_frame == {4: 1}

    def test_lone_calls_are_never_delayed_or_batched(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: m.payload)
        for i in range(10):
            assert net.call("a", "b", MessageKind.PING, i) == i
        stats = net.data_plane_metrics()
        assert stats.auto_batches == 0
        assert stats.auto_batched_msgs == 0

    def test_kick_flushes_queue_without_reply_clock(self, net):
        """A queued call behind a stuck round trip must not wait for the
        stuck reply: its waiter kicks the batcher after a short grace."""
        gate = _Gate()
        hung = gate.open(net)
        start = time.perf_counter()
        assert net.call("a", "b", MessageKind.PING, 5) == 15
        elapsed = time.perf_counter() - start
        assert not gate.release.is_set()  # the clock really was stuck
        assert elapsed < 2.0
        gate.drain(hung)

    def test_a_kick_resets_the_reply_clock(
            self, net, monkeypatch):
        """Behind one long-running exchange only the first lone call may
        wait out the kick grace: that kick is the verdict that the reply
        clock is dead, so it resets the gate and the calls after it go
        straight out.  Counted, not timed: how many calls a kick had to
        flush."""
        flushed_by_kick = []
        kick = tcpnet._AutoBatcher.kick

        def counting_kick(batcher):
            flushed_by_kick.append(len(batcher._queue))
            kick(batcher)

        monkeypatch.setattr(tcpnet._AutoBatcher, "kick", counting_kick)
        gate = _Gate()
        hung = gate.open(net)
        for i in range(8):
            assert net.call("a", "b", MessageKind.PING, i) == i + 10
        assert not gate.release.is_set()  # the long exchange is still out
        assert sum(1 for queued in flushed_by_kick if queued) <= 1
        gate.drain(hung)


class TestReplyIdUniqueness:
    def test_sub_reply_ids_are_derived_and_distinct(self):
        request = Message(
            kind=MessageKind.BATCH, src="a", dst="b",
            payload=Batch(()),
        )
        aggregate = request.reply(ReplyPayload(value=()))
        sub_ids = ("msg-1", "msg-2")
        replies = [
            _Channel._sub_reply(aggregate, sub_id, ReplyPayload(value=sub_id))
            for sub_id in sub_ids
        ]
        # The aggregate's own reply id and each synthesized sub reply id
        # never collide — exactly what N unbatched replies would carry.
        assert len({aggregate.msg_id, *(r.msg_id for r in replies)}) == 3
        for sub_id, reply in zip(sub_ids, replies):
            assert reply.msg_id == f"{sub_id}-r"
            assert reply.reply_to_id == sub_id
            assert reply.kind is MessageKind.REPLY

    def test_colliding_sub_ids_execute_at_most_once(self):
        """Regression: two subs sharing a message id inside one aggregate
        must not double-execute — the second replays the first's reply."""
        cache = ReplyCache()
        executed = []

        def handler(message):
            executed.append(message.payload)
            return message.payload

        subs = tuple(
            Message(kind=MessageKind.PING, src="a", dst="b",
                    payload=payload, msg_id="dup-id")
            for payload in ("x", "y")
        )
        batch = Message(
            kind=MessageKind.BATCH, src="a", dst="b",
            payload=Batch(subs),
        )
        reply = _run_batch(batch, handler, cache)
        assert [sub_id for sub_id, _ in reply.value] == ["dup-id", "dup-id"]
        assert [p.value for _, p in reply.value] == ["x", "x"]
        assert executed == ["x"]


class TestFailureIsolation:
    def test_raising_sub_leaves_siblings_intact(self, net):
        gate = _Gate()
        hung = gate.open(net)
        bad = net.call_async("a", "b", MessageKind.PING, "boom")
        good = [net.call_async("a", "b", MessageKind.PING, i) for i in (1, 2)]
        assert [f.result(timeout_s=5.0) for f in good] == [11, 12]
        with pytest.raises(ValueError, match="sub failed"):
            bad.result(timeout_s=5.0)
        gate.drain(hung)
        assert net.data_plane_metrics().auto_batches >= 1

    def test_expired_deadline_sub_does_not_poison_siblings(self, net):
        gate = _Gate()
        hung = gate.open(net)
        doomed = net.call_async("a", "b", MessageKind.PING, 1,
                                deadline=Deadline.after_ms(5))
        good = net.call_async("a", "b", MessageKind.PING, 2)
        assert good.result(timeout_s=5.0) == 12
        with pytest.raises(CallTimeoutError):
            doomed.result(timeout_s=5.0)
        gate.drain(hung)

    def test_batched_slow_subs_overlap_server_side(self, net):
        """The server fans an aggregate back out across its pool: a slow
        sub must not serialize its coalesced siblings."""
        release = threading.Event()
        started = threading.Event()

        def handler(message):
            if message.payload == "hang":
                started.set()
                release.wait(5.0)
                return "hung"
            time.sleep(0.15)
            return message.payload

        net.register("a", lambda m: None)
        net.register("b", handler)
        net.call("a", "b", MessageKind.PING, "warm")
        hung = net.call_async("a", "b", MessageKind.PING, "hang")
        assert started.wait(5.0)
        start = time.perf_counter()
        futures = [
            net.call_async("a", "b", MessageKind.PING, i) for i in range(3)
        ]
        assert gather(futures) == [0, 1, 2]
        elapsed = time.perf_counter() - start
        release.set()
        assert hung.result(timeout_s=5.0) == "hung"
        # Three 150 ms subs in one aggregate: parallel ~0.15 s, serial 0.45 s.
        assert elapsed < 0.4, elapsed

    def test_retransmitted_aggregate_replays_cached_replies(self):
        """At-most-once per sub-id survives a whole-aggregate replay."""
        cache = ReplyCache()
        executed = []

        def handler(message):
            executed.append(message.payload)
            return message.payload * 10

        subs = tuple(
            Message(kind=MessageKind.PING, src="a", dst="b", payload=p)
            for p in (1, 2, 3)
        )
        batch = Message(
            kind=MessageKind.BATCH, src="a", dst="b",
            payload=Batch(subs),
        )
        first = _run_batch(batch, handler, cache)
        second = _run_batch(batch, handler, cache)
        expected = [(sub.msg_id, sub.payload * 10) for sub in subs]
        for reply in (first, second):
            assert [(sid, p.value) for sid, p in reply.value] == expected
        assert executed == [1, 2, 3]  # each sub ran exactly once

    def test_failing_sub_does_not_stop_the_rest(self):
        """Coalesced calls are independent: every sub runs, errors stay
        with their own sub."""
        cache = ReplyCache()
        executed = []

        def handler(message):
            executed.append(message.payload)
            if message.payload == "bad":
                raise RuntimeError("sub failed")
            return message.payload

        subs = tuple(
            Message(kind=MessageKind.PING, src="a", dst="b", payload=p)
            for p in ("ok", "bad", "after")
        )
        batch = Message(
            kind=MessageKind.BATCH, src="a", dst="b",
            payload=Batch(subs),
        )
        reply = _run_batch(batch, handler, cache)
        assert [p.is_error for _, p in reply.value] == [False, True, False]
        assert executed == ["ok", "bad", "after"]


def _link(a, a_node, b, b_node):
    a.connect(b_node, b.endpoint_of(b_node))
    b.connect(a_node, a.endpoint_of(a_node))


class TestAcrossTransports:
    def _pressure(self, client, src, dst, gate):
        """Run the coalescing-pressure pattern against a remote server."""
        client.call(src, dst, MessageKind.PING, 0)
        hung = client.call_async(src, dst, MessageKind.PING, "hang")
        assert gate.started.wait(5.0)
        futures = [
            client.call_async(src, dst, MessageKind.PING, i) for i in range(4)
        ]
        assert gather(futures) == [10, 11, 12, 13]
        gate.release.set()
        assert hung.result(timeout_s=5.0) == "hung"

    def test_backlog_crosses_as_one_aggregated_frame(self):
        client = TcpNetwork()
        server = TcpNetwork()
        try:
            gate = _Gate()
            client.register("hub", lambda m: None)
            server.register("srv", gate)
            _link(client, "hub", server, "srv")
            self._pressure(client, "hub", "srv", gate)
            assert client.data_plane_metrics().auto_batches >= 1
            kinds = {e.kind for e in server.trace.events()}
            assert "BATCH" in kinds
        finally:
            client.shutdown()
            server.shutdown()


class TestInlineDispatch:
    def test_undeclared_handler_never_runs_inline(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: m.payload)  # no inline_safe declaration
        for i in range(5):
            assert net.call("a", "b", MessageKind.PING, i) == i
        assert net.data_plane_metrics().inline_dispatches == 0

    def test_declared_handler_dispatches_inline(self, net):
        net.register("a", lambda m: None)
        net.register("b", inline_safe(lambda m: m.payload))
        for i in range(5):
            assert net.call("a", "b", MessageKind.PING, i) == i
        stats = net.data_plane_metrics()
        assert stats.inline_dispatches == 5
        assert stats.inline_demotions == 0

    def test_non_allowlisted_kind_takes_the_pool(self, net):
        net.register("a", lambda m: None)
        net.register("b", inline_safe(lambda m: m.payload))
        for i in range(3):
            assert net.call("a", "b", MessageKind.FIND, i) == i
        assert net.data_plane_metrics().inline_dispatches == 0

    def test_emulated_latency_keeps_inline_and_is_still_paid(self):
        """The link delay is a loop timer, not a sleeping thread, so a
        declared-inline handler still runs on the loop — after the
        frame has spent the link latency in flight."""
        net = TcpNetwork(latency_ms=20.0)
        try:
            net.register("a", lambda m: None)
            net.register("b", inline_safe(lambda m: m.payload))
            start = time.monotonic()
            assert net.call("a", "b", MessageKind.PING, 7) == 7
            assert time.monotonic() - start >= 0.020
            assert net.data_plane_metrics().inline_dispatches == 1
        finally:
            net.shutdown()

    def test_persistent_overruns_demote_the_fast_path(self, monkeypatch):
        """A declared handler that keeps blowing its time budget demotes
        this server's inline path permanently — degrade to the pool
        rather than starve the reactor loop."""
        monkeypatch.setattr(tcpnet, "_INLINE_BUDGET_S", 1e-7)
        net = TcpNetwork()
        try:
            net.register("a", lambda m: None)
            net.register("b", inline_safe(lambda m: sum(range(5000))))
            for _ in range(_INLINE_DEMOTE_STRIKES + 4):
                net.call("a", "b", MessageKind.PING)
            stats = net.data_plane_metrics()
            assert stats.inline_dispatches == _INLINE_DEMOTE_STRIKES
            assert stats.inline_overruns >= _INLINE_DEMOTE_STRIKES
            assert stats.inline_demotions == 1
        finally:
            net.shutdown()
