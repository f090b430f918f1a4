"""What a BATCH frame means, on every transport.

One frame kind carries several requests and is answered by one reply:
``call_many`` builds it ``sequential`` (in order, stop at the first
error), the TCP auto-batcher builds it independent (every sub runs).
Both are run by :meth:`Transport.execute_batch`, so the semantics are
asserted once, here, against ``SimNetwork`` and against a pair of
``TcpNetwork``s joined by real sockets.  Hand-built frames go through
``_transmit_async`` — the seam both transports implement — so an
independent group can be shown to ``SimNetwork`` too, which has no
auto-batcher of its own.  (The batcher's own behaviour — when a group
forms, the kick, fan-out timing — stays in ``test_autobatch.py``.)
"""

import threading

import pytest

from repro.errors import CallCancelledError, CallTimeoutError, TransportError
from repro.net.deadline import Deadline
from repro.net.message import Batch, MessageKind, ReplyPayload, build_message
from repro.net.simnet import SimNetwork
from repro.net.tcpnet import TcpNetwork
from repro.net.transport import CallFuture, Transport

PING = MessageKind.PING


class _Link:
    """Node ``a`` on ``client`` calling node ``b`` on ``server``."""

    def __init__(self, kind, client, server):
        self.kind = kind
        self.client = client
        self.server = server
        #: Every reply envelope a future of this test unwrapped.
        self.replies = []

    def serve(self, handler):
        self.client.register("a", lambda m: None)
        self.server.register("b", handler)
        if self.client is not self.server:
            self.client.connect("b", self.server.endpoint_of("b"))
            self.server.connect("a", self.client.endpoint_of("a"))

    def batch(self, payloads, sequential, deadlines=None):
        deadlines = deadlines or {}
        subs = tuple(
            build_message(PING, "a", "b", payload, deadlines.get(payload))
            for payload in payloads
        )
        return build_message(MessageKind.BATCH, "a", "b",
                             Batch(subs, sequential=sequential))

    def send(self, message):
        return self.client._transmit_async(message)

    def pairs(self, message):
        """Send a batch; the ``(sub id, payload)`` pairs of its reply."""
        self.send(message).exception(timeout_s=5.0)
        reply = self.replies[-1]
        assert reply.reply_to_id == message.msg_id
        assert reply.in_reply_to is MessageKind.BATCH
        assert isinstance(reply.payload, ReplyPayload)
        return reply.payload.value


@pytest.fixture(params=["sim", "tcp"])
def link(request, monkeypatch):
    if request.param == "sim":
        client = server = SimNetwork()
    else:
        client, server = TcpNetwork(), TcpNetwork()
    made = _Link(request.param, client, server)
    unwrap = CallFuture._complete_from_reply

    def recording_unwrap(future, reply):
        made.replies.append(reply)
        unwrap(future, reply)

    monkeypatch.setattr(CallFuture, "_complete_from_reply", recording_unwrap)
    yield made
    client.shutdown()
    if server is not client:
        server.shutdown()


class _Recorder:
    """Handler that logs what it ran and fails on ``"bad"``."""

    def __init__(self):
        self.ran = []

    def __call__(self, message):
        self.ran.append(message.payload)
        if message.payload == "bad":
            raise KeyError("nope")
        return ("echo", message.payload)


class TestSequential:
    def test_results_come_back_in_request_order(self, link):
        link.serve(_Recorder())
        values = link.client.call_many(
            "a", "b", [(PING, i) for i in range(5)])
        assert values == [("echo", i) for i in range(5)]

    def test_stops_at_the_first_error_and_later_subs_never_ran(self, link):
        handler = _Recorder()
        link.serve(handler)
        with pytest.raises(KeyError):
            link.client.call_many(
                "a", "b", [(PING, "ok"), (PING, "bad"), (PING, "after")])
        assert handler.ran == ["ok", "bad"]

    def test_reply_holds_a_pair_per_sub_that_ran(self, link):
        link.serve(_Recorder())
        message = link.batch(["ok", "bad", "after"], sequential=True)
        pairs = link.pairs(message)
        ids = [sub.msg_id for sub in message.payload.subs]
        assert [sub_id for sub_id, _ in pairs] == ids[:2]
        assert [p.is_error for _, p in pairs] == [False, True]


class TestIndependent:
    def test_every_sub_is_answered_and_a_failure_stays_its_own(self, link):
        handler = _Recorder()
        link.serve(handler)
        message = link.batch(["ok", "bad", "after"], sequential=False)
        pairs = link.pairs(message)
        assert [sub_id for sub_id, _ in pairs] == [
            sub.msg_id for sub in message.payload.subs]
        assert [p.is_error for _, p in pairs] == [False, True, False]
        assert pairs[2][1].value == ("echo", "after")
        assert sorted(handler.ran) == ["after", "bad", "ok"]

    def test_expired_sub_is_refused_without_touching_its_siblings(self, link):
        handler = _Recorder()
        link.serve(handler)
        message = link.batch(
            ["first", "doomed", "last"], sequential=False,
            deadlines={"doomed": Deadline.after_s(0.0)})
        pairs = link.pairs(message)
        assert isinstance(pairs[1][1].error, CallTimeoutError)
        assert [p.value for _, p in (pairs[0], pairs[2])] == [
            ("echo", "first"), ("echo", "last")]
        assert "doomed" not in handler.ran  # refused at admission


@pytest.mark.parametrize("sequential", [True, False])
class TestBothModes:
    def test_same_frame_twice_runs_each_sub_once(self, link, sequential):
        handler = _Recorder()
        link.serve(handler)
        message = link.batch([1, 2, 3], sequential=sequential)
        first = link.pairs(message)
        second = link.pairs(message)  # same batch id, same sub ids
        assert [(i, p.value) for i, p in first] == [
            (i, p.value) for i, p in second]
        assert sorted(handler.ran) == [1, 2, 3]

    def test_whole_batch_error_fails_the_call(self, link, sequential,
                                              monkeypatch):
        """A server that cannot run the frame answers with one error for
        the whole batch; the caller gets it rather than a hang."""
        def refuse(message, run_sub, done, spawn=None):
            done(ReplyPayload(error=RuntimeError("frame refused")))

        monkeypatch.setattr(Transport, "execute_batch", staticmethod(refuse))
        link.serve(_Recorder())
        future = link.send(link.batch([1, 2], sequential=sequential))
        error = future.exception(timeout_s=5.0)
        assert isinstance(error, RuntimeError) and "refused" in str(error)


class TestCancel:
    def test_cancelled_call_many_releases_its_slot(self, link):
        started, release = threading.Event(), threading.Event()

        def handler(message):
            if message.payload == "hold":
                started.set()
                release.wait(5.0)
            return message.payload

        link.serve(handler)
        if link.kind == "sim":
            # Eager futures are complete on arrival: cancel is a no-op.
            release.set()
            future = link.client.call_many_async(
                "a", "b", [(PING, "hold"), (PING, 2)])
            assert future.done() and not future.cancel()
            assert future.result() == ["hold", 2]
            return
        link.client.call("a", "b", PING, "warm")
        future = link.client.call_many_async(
            "a", "b", [(PING, "hold"), (PING, 2)])
        assert started.wait(5.0)
        batch_id = future._message.msg_id
        assert future.cancel()
        with pytest.raises(CallCancelledError):
            future.result()
        channel = future._channel
        assert channel._shard(batch_id).pop(batch_id) is None  # slot released
        release.set()
        # The late REPLY(BATCH) finds nobody and is dropped; the channel
        # carries the next call as if nothing happened.
        assert link.client.call("a", "b", PING, "after") == "after"
        assert link.client.open_channels() == 1
        assert future.cancelled()


class TestControlFlowAbort:
    def test_interrupted_sub(self, link):
        """On TCP the abort becomes an uncached TransportError for that
        sub alone; on the simulated network it propagates (the node is
        this process, and must be able to stop)."""
        ran = []

        def handler(message):
            ran.append(message.payload)
            if message.payload == "stop" and ran.count("stop") == 1:
                raise KeyboardInterrupt()
            return message.payload

        link.serve(handler)
        message = link.batch(["one", "stop", "two"], sequential=False)
        if link.kind == "sim":
            with pytest.raises(KeyboardInterrupt):
                link.send(message)
            return
        pairs = link.pairs(message)
        assert [p.value for _, p in (pairs[0], pairs[2])] == ["one", "two"]
        error = pairs[1][1].error
        assert isinstance(error, TransportError)
        assert "aborted by KeyboardInterrupt" in str(error)
        # Not cached: the same frame again runs that sub afresh — and
        # only that sub.
        assert [p.value for _, p in link.pairs(message)] == [
            "one", "stop", "two"]
        assert sorted(ran) == ["one", "stop", "stop", "two"]


class TestTcpOnly:
    def test_coalesced_calls_all_fail_on_a_whole_batch_error(
            self, monkeypatch):
        """The auto-batcher's subs have no future parked under the batch
        id; the channel remembers which subs rode the frame so a
        whole-batch error reaches each of them."""
        started, release = threading.Event(), threading.Event()

        def handler(message):
            if message.payload == "hang":
                started.set()
                release.wait(5.0)
            return message.payload

        def refuse(message, run_sub, done, spawn=None):
            done(ReplyPayload(error=RuntimeError("frame refused")))

        net = TcpNetwork()
        try:
            net.register("a", lambda m: None)
            net.register("b", handler)
            net.call("a", "b", PING, "warm")
            hung = net.call_async("a", "b", PING, "hang")
            assert started.wait(5.0)
            monkeypatch.setattr(
                Transport, "execute_batch", staticmethod(refuse))
            # Queued behind the in-flight call, these ride one frame.
            futures = [net.call_async("a", "b", PING, i) for i in range(3)]
            errors = [f.exception(timeout_s=5.0) for f in futures]
            assert all(isinstance(e, RuntimeError) for e in errors), errors
            assert net.data_plane_metrics().auto_batches == 1
            release.set()
            assert hung.result(timeout_s=5.0) == "hang"
        finally:
            net.shutdown()

    def test_batch_frame_without_a_batch_payload_is_answered_with_an_error(
            self):
        net = TcpNetwork()
        try:
            net.register("a", lambda m: None)
            net.register("b", lambda m: m.payload)
            bogus = build_message(MessageKind.BATCH, "a", "b", ("no", "batch"))
            error = net._transmit_async(bogus).exception(timeout_s=5.0)
            assert isinstance(error, AttributeError)
            assert net.call("a", "b", PING, "still-up") == "still-up"
        finally:
            net.shutdown()
