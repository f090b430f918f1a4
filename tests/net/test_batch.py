"""What a BATCH frame means.

One frame kind carries several requests and is answered by one reply.
The TCP transport's auto-batcher is the only thing that builds one: it
coalesces calls that know nothing of each other, so every sub runs and
a failure stays with its own sub.  :meth:`Transport.execute_batch` runs
the frame at the destination.  The semantics are asserted once, here,
against a pair of ``TcpNetwork``s joined by real sockets, once for each
way the server runs a frame: ``pooled`` (the subs fan out across the
worker pool) and ``inline`` (a handler declared :func:`inline_safe` runs
them in order on the reactor loop thread).  Hand-built frames go
through ``_transmit_async`` so each case can name its subs exactly.
The executor itself is pinned in :class:`TestExecutor`.  (The batcher's
own behaviour — when a group forms, the kick, fan-out timing — stays in
``test_autobatch.py``.)
"""

import threading

import pytest

from repro.errors import (
    CallCancelledError,
    CallTimeoutError,
    MarshalError,
    TransportError,
)
from repro.net.deadline import Deadline
from repro.net.message import (
    Batch,
    Message,
    MessageKind,
    ReplyPayload,
    build_message,
    inline_safe,
)
from repro.net.tcpnet import TcpNetwork
from repro.net.transport import CallFuture, Transport

PING = MessageKind.PING


class _Link:
    """Node ``a`` on ``client`` calling node ``b`` on ``server``."""

    def __init__(self, client, server, mode="pooled"):
        self.client = client
        self.server = server
        #: ``"pooled"`` or ``"inline"``: how the server runs a frame.
        self.mode = mode
        #: Every reply envelope a future of this test unwrapped.
        self.replies = []
        #: The name of the thread each handler run took, in run order.
        self.threads = []

    def serve(self, handler):
        def recorded(message):
            self.threads.append(threading.current_thread().name)
            return handler(message)

        if self.mode == "inline":
            recorded = inline_safe(recorded)
        self.client.register("a", lambda m: None)
        self.server.register("b", recorded)
        self.client.connect("b", self.server.endpoint_of("b"))
        self.server.connect("a", self.client.endpoint_of("a"))

    def assert_mode_held(self):
        """Every sub ran where the mode says: on the reactor loop thread
        (inline) or on a pool worker (pooled)."""
        assert self.threads
        on_loop = {"-loop-" in name for name in self.threads}
        assert on_loop == {self.mode == "inline"}, self.threads

    def batch(self, payloads, deadlines=None):
        deadlines = deadlines or {}
        subs = tuple(
            build_message(PING, "a", "b", payload, deadlines.get(payload))
            for payload in payloads
        )
        return build_message(MessageKind.BATCH, "a", "b", Batch(subs))

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


def _recording_link(monkeypatch, mode):
    made = _Link(TcpNetwork(), TcpNetwork(), mode)
    unwrap = CallFuture._complete_from_reply

    def recording_unwrap(future, reply):
        made.replies.append(reply)
        return unwrap(future, reply)

    monkeypatch.setattr(CallFuture, "_complete_from_reply", recording_unwrap)
    yield made
    made.client.shutdown()
    made.server.shutdown()


@pytest.fixture(params=["pooled", "inline"])
def link(request, monkeypatch):
    """A link whose server runs frames the way the parameter names."""
    yield from _recording_link(monkeypatch, request.param)


@pytest.fixture
def pooled_link(monkeypatch):
    """A link whose server runs frames on its pool."""
    yield from _recording_link(monkeypatch, "pooled")


class _Recorder:
    """Handler that logs what it ran and fails on ``"bad"``."""

    def __init__(self):
        self.ran = []

    def __call__(self, message):
        self.ran.append(message.payload)
        if message.payload == "bad":
            raise KeyError("nope")
        return ("echo", message.payload)


class TestIndependent:
    def test_every_sub_is_answered_and_a_failure_stays_its_own(self, link):
        handler = _Recorder()
        link.serve(handler)
        message = link.batch(["ok", "bad", "after"])
        pairs = link.pairs(message)
        assert [sub_id for sub_id, _ in pairs] == [
            sub.msg_id for sub in message.payload.subs]
        assert [p.is_error for _, p in pairs] == [False, True, False]
        assert pairs[2][1].value == ("echo", "after")
        assert sorted(handler.ran) == ["after", "bad", "ok"]
        link.assert_mode_held()

    def test_expired_sub_is_refused_without_touching_its_siblings(self, link):
        handler = _Recorder()
        link.serve(handler)
        message = link.batch(
            ["first", "doomed", "last"],
            deadlines={"doomed": Deadline.after_s(0.0)})
        pairs = link.pairs(message)
        assert isinstance(pairs[1][1].error, CallTimeoutError)
        assert [p.value for _, p in (pairs[0], pairs[2])] == [
            ("echo", "first"), ("echo", "last")]
        assert "doomed" not in handler.ran  # refused at admission
        link.assert_mode_held()

    def test_same_frame_twice_runs_each_sub_once(self, link):
        handler = _Recorder()
        link.serve(handler)
        message = link.batch([1, 2, 3])
        first = link.pairs(message)
        second = link.pairs(message)  # same batch id, same sub ids
        assert [(i, p.value) for i, p in first] == [
            (i, p.value) for i, p in second]
        assert sorted(handler.ran) == [1, 2, 3]
        link.assert_mode_held()

    def test_a_slow_sub_does_not_hold_up_its_siblings(self, pooled_link):
        """Pooled, the subs fan out: the first waits for the last, which
        could never run if they went one after another."""
        last_ran = threading.Event()

        def handler(message):
            if message.payload == "first":
                return last_ran.wait(5.0)
            if message.payload == "last":
                last_ran.set()
            return message.payload

        pooled_link.serve(handler)
        pairs = pooled_link.pairs(pooled_link.batch(["first", 2, "last"]))
        assert [p.value for _, p in pairs] == [True, 2, "last"]
        pooled_link.assert_mode_held()

    @pytest.mark.parametrize("link", ["inline"], indirect=True)
    def test_inline_subs_run_in_order_on_the_loop_thread(self, link):
        """Inline, the reactor loop thread runs every sub where it stands,
        one after another, in request order."""
        handler = _Recorder()
        link.serve(handler)
        pairs = link.pairs(link.batch([3, 1, 2]))
        assert [p.value for _, p in pairs] == [
            ("echo", 3), ("echo", 1), ("echo", 2)]
        assert handler.ran == [3, 1, 2]
        assert len(set(link.threads)) == 1
        link.assert_mode_held()

    def test_whole_batch_error_fails_the_call(
            self, pooled_link, monkeypatch):
        """A server that cannot run the frame answers with one error for
        the whole batch; the caller gets it rather than a hang."""
        def refuse(message, run_sub, done, spawn=None):
            done(ReplyPayload(error=RuntimeError("frame refused")))

        monkeypatch.setattr(Transport, "execute_batch", staticmethod(refuse))
        pooled_link.serve(_Recorder())
        future = pooled_link.send(pooled_link.batch([1, 2]))
        error = future.exception(timeout_s=5.0)
        assert isinstance(error, RuntimeError) and "refused" in str(error)


class TestCancel:
    def test_cancelled_batch_releases_its_slot(self, pooled_link):
        started, release = threading.Event(), threading.Event()

        def handler(message):
            if message.payload == "hold":
                started.set()
                release.wait(5.0)
            return message.payload

        pooled_link.serve(handler)
        pooled_link.client.call("a", "b", PING, "warm")
        message = pooled_link.batch(["hold", 2])
        future = pooled_link.send(message)
        assert started.wait(5.0)
        assert future.cancel()
        with pytest.raises(CallCancelledError):
            future.result()
        channel = future._channel
        assert message.msg_id not in channel._waiters  # slot released
        release.set()
        # The late REPLY(BATCH) finds nobody and is dropped; the channel
        # carries the next call as if nothing happened.
        assert pooled_link.client.call("a", "b", PING, "after") == "after"
        assert pooled_link.client.open_channels() == 1
        assert future.cancelled()


class TestControlFlowAbort:
    def test_interrupted_sub(self, link):
        """The abort becomes an uncached TransportError for that sub
        alone."""
        ran = []

        def handler(message):
            ran.append(message.payload)
            if message.payload == "stop" and ran.count("stop") == 1:
                raise KeyboardInterrupt()
            return message.payload

        link.serve(handler)
        message = link.batch(["one", "stop", "two"])
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
        link.assert_mode_held()


def _frame(*payloads):
    subs = tuple(Message(kind=PING, src="a", dst="b", payload=p)
                 for p in payloads)
    return Message(kind=MessageKind.BATCH, src="a", dst="b",
                   payload=Batch(subs))


class _Subs:
    """``run_sub`` for :meth:`Transport.execute_batch`: logs each sub it
    ran, and on which thread."""

    def __init__(self):
        self.ran = []

    def __call__(self, sub):
        self.ran.append((sub.payload, threading.current_thread()))
        return ReplyPayload(value=sub.payload * 10)


class TestExecutor:
    """:meth:`Transport.execute_batch` on its own: with no pool the subs
    run in order where it stands; with one, each sub but the first is
    handed to the pool, and whichever sub finishes last answers."""

    def test_without_a_pool_subs_run_in_order_before_it_returns(self):
        run_sub, done = _Subs(), []
        message = _frame(1, 2, 3)
        Transport.execute_batch(message, run_sub, done.append)
        assert [payload for payload, _ in run_sub.ran] == [1, 2, 3]
        assert {thread for _, thread in run_sub.ran} == {
            threading.current_thread()}
        (reply,) = done
        assert [sub_id for sub_id, _ in reply.value] == [
            sub.msg_id for sub in message.payload.subs]
        assert [p.value for _, p in reply.value] == [10, 20, 30]

    def test_a_pool_is_handed_every_sub_but_the_first(self):
        run_sub, done, spawned = _Subs(), [], []
        Transport.execute_batch(
            _frame(1, 2, 3), run_sub, done.append,
            lambda fn, *args: spawned.append((fn, args)))
        assert [payload for payload, _ in run_sub.ran] == [1]
        assert [args for _, args in spawned] == [(1,), (2,)]
        assert done == []  # two subs have not run yet

    def test_the_last_sub_to_finish_answers_in_request_order(self):
        run_sub, done, spawned = _Subs(), [], []
        message = _frame(1, 2, 3)
        Transport.execute_batch(
            message, run_sub, done.append,
            lambda fn, *args: spawned.append((fn, args)))
        for fn, args in reversed(spawned):
            assert done == []
            fn(*args)
        assert [payload for payload, _ in run_sub.ran] == [1, 3, 2]
        (reply,) = done
        assert [sub_id for sub_id, _ in reply.value] == [
            sub.msg_id for sub in message.payload.subs]
        assert [p.value for _, p in reply.value] == [10, 20, 30]

    def test_subs_on_pool_threads_answer_once(self):
        run_sub, done = _Subs(), []
        threads = []

        def spawn(fn, *args):
            thread = threading.Thread(target=fn, args=args)
            threads.append(thread)
            thread.start()

        Transport.execute_batch(_frame(*range(1, 7)), run_sub, done.append,
                                spawn)
        for thread in threads:
            thread.join(5.0)
        assert len(threads) == 5
        (reply,) = done
        assert [p.value for _, p in reply.value] == [10, 20, 30, 40, 50, 60]

    def test_a_lone_sub_runs_where_it_stands(self):
        def spawn(fn, *args):
            raise AssertionError("a lone sub needs no pool")

        run_sub, done = _Subs(), []
        Transport.execute_batch(_frame(7), run_sub, done.append, spawn)
        assert run_sub.ran == [(7, threading.current_thread())]
        assert [p.value for _, p in done[0].value] == [70]

    def test_an_empty_batch_is_answered_with_no_pairs(self):
        run_sub, done = _Subs(), []
        Transport.execute_batch(_frame(), run_sub, done.append,
                                lambda fn, *args: fn(*args))
        assert run_sub.ran == []
        assert [reply.value for reply in done] == [()]


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

    def test_a_hand_built_batch_is_never_nested_in_an_auto_batch(
            self, monkeypatch):
        """A BATCH frame handed to ``_transmit_async`` while the reply
        clock runs skips the batcher's queue: it goes out and runs as
        its own frame, never as a sub of a coalesced one."""
        started, release = threading.Event(), threading.Event()

        def handler(message):
            if message.payload == "hang":
                started.set()
                release.wait(5.0)
            return message.payload

        ran = []
        execute = Transport.execute_batch

        def recording(message, run_sub, done, spawn=None):
            ran.append(message.msg_id)
            execute(message, run_sub, done, spawn)

        monkeypatch.setattr(Transport, "execute_batch",
                            staticmethod(recording))
        net = TcpNetwork()
        try:
            net.register("a", lambda m: None)
            net.register("b", handler)
            net.call("a", "b", PING, "warm")
            hung = net.call_async("a", "b", PING, "hang")
            assert started.wait(5.0)
            # Queued behind the in-flight call, as a batch would be.
            queued = net.call_async("a", "b", PING, "queued")
            own = build_message(MessageKind.BATCH, "a", "b", Batch(tuple(
                build_message(PING, "a", "b", payload)
                for payload in ("x", "y"))))
            assert net._transmit_async(own).exception(timeout_s=5.0) is None
            assert ran == [own.msg_id]
            assert not queued.done()
            release.set()
            assert hung.result(timeout_s=5.0) == "hang"
            assert queued.result(timeout_s=5.0) == "queued"
            assert ran == [own.msg_id]
            assert net.data_plane_metrics().auto_batches == 0
        finally:
            release.set()
            net.shutdown()

    def test_batch_frame_without_a_batch_payload_is_answered_with_an_error(
            self):
        """Such a frame comes from outside the program: it is refused by
        name and never reaches the node's handler."""
        ran = []

        def handler(message):
            ran.append(message.payload)
            return message.payload

        net = TcpNetwork()
        try:
            net.register("a", lambda m: None)
            net.register("b", handler)
            bogus = build_message(MessageKind.BATCH, "a", "b", ("no", "batch"))
            error = net._transmit_async(bogus).exception(timeout_s=5.0)
            assert isinstance(error, MarshalError)
            assert "without a Batch payload" in str(error)
            assert ran == []
            assert net.call("a", "b", PING, "still-up") == "still-up"
            assert net.open_channels() == 1
            assert ran == ["still-up"]
        finally:
            net.shutdown()
