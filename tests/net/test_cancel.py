"""CallFuture cancellation and the shared-deadline gather.

Covers:

* ``cancel()`` semantics on the base future (first-wins, idempotent,
  callbacks fire, mapped views);
* native cancellation on the pipelined TCP transport: an in-flight
  exchange is abandoned like a timed-out waiter — the late reply is
  dropped, the shared connection and its other waiters are untouched;
* the no-op shape on the simulated network (futures complete eagerly,
  so straggler-cancelling code is deterministic there);
* the ``gather`` regression from the per-wait timeout era: N slow
  futures must cost one shared timeout window, not N stacked windows;
* ``gather(cancel_stragglers=True)`` leaving no exchange dangling.
"""

import threading
import time

import pytest

from repro.errors import CallCancelledError, CallTimeoutError
from repro.net.deadline import Deadline
from repro.net.message import MessageKind
from repro.net.simnet import SimNetwork
from repro.net.tcpnet import TcpNetwork
from repro.net.transport import CallFuture, gather


@pytest.fixture
def net():
    network = TcpNetwork(io_timeout_s=5.0)
    yield network
    network.shutdown()


class TestCancelSemantics:
    def test_cancel_pending_future(self):
        future = CallFuture("test")
        assert future.cancel("no longer needed")
        assert future.done()
        assert future.cancelled()
        with pytest.raises(CallCancelledError, match="no longer needed"):
            future.result()
        assert isinstance(future.exception(), CallCancelledError)

    def test_cancel_after_completion_is_a_noop(self):
        future = CallFuture.completed("value")
        assert not future.cancel()
        assert not future.cancelled()
        assert future.result() == "value"

    def test_cancel_is_idempotent(self):
        future = CallFuture("test")
        assert future.cancel()
        assert future.cancel()  # already cancelled still reports True
        assert future.cancelled()

    def test_resolve_after_cancel_loses(self):
        future = CallFuture("test")
        future.cancel()
        future._resolve("late")
        assert future.cancelled()
        with pytest.raises(CallCancelledError):
            future.result()

    def test_cancel_fires_done_callbacks(self):
        future = CallFuture("test")
        seen = []
        future.add_done_callback(lambda f: seen.append(f.cancelled()))
        future.cancel()
        assert seen == [True]

    def test_cancelling_a_mapped_view_cancels_the_source(self):
        source = CallFuture("test")
        mapped = source.map(lambda v: v * 2)
        assert mapped.cancel()
        assert source.cancelled()
        assert mapped.cancelled()
        with pytest.raises(CallCancelledError):
            mapped.result()


class TestSimCancellation:
    def test_completed_sweep_cancels_are_noops(self):
        """Straggler-cancelling fan-out code runs unchanged (and is
        deterministic) on the eagerly completing simulated network."""
        sim = SimNetwork()
        sim.register("a", lambda m: None)
        for peer in ("b", "c", "d"):
            sim.register(peer, lambda m: m.payload)
        futures = [sim.call_async("a", p, MessageKind.PING, i)
                   for i, p in enumerate(("b", "c", "d"))]
        winner = futures[0].result()
        for straggler in futures[1:]:
            assert not straggler.cancel("winner found")
        assert winner == 0
        assert [f.result() for f in futures] == [0, 1, 2]

    def test_gather_cancel_stragglers_is_trace_identical(self):
        def run(cancel_stragglers):
            sim = SimNetwork()
            sim.register("a", lambda m: None)
            for peer in ("b", "c"):
                sim.register(peer, lambda m: m.payload)
            futures = [sim.call_async("a", p, MessageKind.PING, i)
                       for i, p in enumerate(("b", "c"))]
            assert gather(futures,
                          cancel_stragglers=cancel_stragglers) == [0, 1]
            return sim.trace.arrows(remote_only=True)

        assert run(True) == run(False)


class TestTcpCancellation:
    def test_cancel_abandons_in_flight_exchange(self, net):
        """Cancelling a hung exchange frees the caller immediately and
        leaves the shared pooled connection healthy."""
        net.register("a", lambda m: None)
        release = threading.Event()

        def handler(message):
            if message.payload == "hang":
                release.wait(5.0)
                return "late"
            return message.payload

        net.register("b", handler)
        net.call("a", "b", MessageKind.PING, "warm")
        hung = net.call_async("a", "b", MessageKind.PING, "hang")
        fast = net.call_async("a", "b", MessageKind.PING, "quick")
        assert hung.cancel("straggler")
        with pytest.raises(CallCancelledError):
            hung.result()
        # Other waiters and later traffic are unaffected; the late reply
        # is dropped by the reader when it finally arrives.
        assert fast.result(timeout_s=2.0) == "quick"
        release.set()
        assert net.call("a", "b", MessageKind.PING, "after") == "after"
        assert net.open_channels() == 1

    def test_cancel_races_reply_first_wins(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: m.payload)
        future = net.call_async("a", "b", MessageKind.PING, "v")
        future.result()  # the reply won
        assert not future.cancel()
        assert future.result() == "v"

    def test_rmi_invocation_future_cancels(self, net):
        """Cancel through the mapped RMI future (stub-level stragglers)."""
        from repro.rmi.client import RmiClient
        from repro.rmi.invoker import Invoker
        from repro.rmi.marshal import unmarshal_call
        from repro.rmi.stub import RemoteRef

        release = threading.Event()

        class Servant:
            def work(self):
                release.wait(5.0)
                return "late"

        servant = Servant()
        invoker = Invoker("b", lambda name: servant, lambda ref: None)
        net.register("a", lambda m: None)
        net.register("b", lambda m: invoker.handle(m.payload))
        client = RmiClient("a", net)
        stub = client.stub_for(RemoteRef(node_id="b", name="svc"))
        future = stub.futures.work()
        assert future.cancel("lost the race")
        with pytest.raises(CallCancelledError):
            future.result()
        release.set()


class BadNews(Exception):
    """The LockMovedError shape: multi-arg __init__, message-only args."""

    def __init__(self, code: int, detail: str):
        super().__init__(f"bad news {code}: {detail}")
        self.code = code
        self.detail = detail


class TestUnpicklableRemoteErrors:
    def test_unpicklable_handler_error_degrades_not_kills_channel(self, net):
        """A handler-raised exception whose default reduction cannot be
        unpickled must surface as RemoteInvocationError on that one call —
        not blow up the reader and fail every waiter on the connection."""
        from repro.errors import RemoteInvocationError

        def handler(message):
            if message.payload == "boom":
                raise BadNews(42, "cannot reconstruct me")
            return message.payload

        net.register("a", lambda m: None)
        net.register("b", handler)
        net.call("a", "b", MessageKind.PING, "warm")
        good = net.call_async("a", "b", MessageKind.PING, "ok")
        bad = net.call_async("a", "b", MessageKind.PING, "boom")
        error = bad.exception()
        assert isinstance(error, RemoteInvocationError)
        assert "BadNews" in str(error) and "bad news 42" in str(error)
        assert good.result(timeout_s=2.0) == "ok"
        # The shared channel survived the poisonous reply.
        assert net.call("a", "b", MessageKind.PING, "after") == "after"
        assert net.open_channels() == 1

    def test_unpicklable_error_inside_a_batch(self, net):
        """The same guard holds for a sub of a coalesced frame: the
        auto-batcher packs two calls queued behind a held one."""
        started, release = threading.Event(), threading.Event()

        def handler(message):
            if message.payload == "hold":
                started.set()
                release.wait(5.0)
            if message.payload == "boom":
                raise BadNews(7, "inside a batch")
            return message.payload

        net.register("a", lambda m: None)
        net.register("b", handler)
        from repro.errors import RemoteInvocationError
        net.call("a", "b", MessageKind.PING, "warm")
        held = net.call_async("a", "b", MessageKind.PING, "hold")
        assert started.wait(5.0)
        good = net.call_async("a", "b", MessageKind.PING, "fine")
        bad = net.call_async("a", "b", MessageKind.PING, "boom")
        release.set()
        assert isinstance(bad.exception(), RemoteInvocationError)
        assert good.result(timeout_s=2.0) == "fine"
        assert held.result(timeout_s=2.0) == "hold"
        assert net.data_plane_metrics().auto_batches == 1
        assert net.call("a", "b", MessageKind.PING, "still-up") == "still-up"

    def test_mage_errors_cross_the_wire_intact(self, net):
        """Our own multi-arg errors define __reduce__ and arrive as
        themselves, attributes included."""
        from repro.errors import LockMovedError

        def handler(message):
            raise LockMovedError("obj", "elsewhere")

        net.register("a", lambda m: None)
        net.register("b", handler)
        error = net.call_async("a", "b", MessageKind.PING).exception()
        assert isinstance(error, LockMovedError)
        assert error.new_location == "elsewhere"


class TestSharedDeadlineGather:
    def test_two_slow_futures_cost_one_window(self, net):
        """The satellite regression: ``gather(timeout_s=...)`` used to
        bound each wait, so two slow futures cost two windows."""
        net.register("a", lambda m: None)
        release = threading.Event()

        def slow(message):
            release.wait(10.0)
            return message.payload

        net.register("b", slow)
        net.call_async("a", "b", MessageKind.PING, "warm").cancel()
        futures = [net.call_async("a", "b", MessageKind.PING, i)
                   for i in range(2)]
        start = time.perf_counter()
        results = gather(futures, timeout_s=0.5, return_exceptions=True)
        elapsed = time.perf_counter() - start
        release.set()
        assert all(isinstance(r, CallTimeoutError) for r in results)
        # One shared window (~0.5 s), not two stacked ones (>= 1.0 s).
        assert elapsed < 0.9, f"waits stacked serially: {elapsed:.2f}s"

    def test_gather_deadline_object_bounds_the_sweep(self, net):
        net.register("a", lambda m: None)
        release = threading.Event()

        def handler(message):
            if message.payload == "hang":
                release.wait(10.0)
            return message.payload

        net.register("b", handler)
        net.call("a", "b", MessageKind.PING, "warm")
        futures = [net.call_async("a", "b", MessageKind.PING, p)
                   for p in ("fast", "hang", "hang")]
        deadline = Deadline.after_ms(400)
        start = time.perf_counter()
        results = gather(futures, deadline=deadline, return_exceptions=True,
                         cancel_stragglers=True)
        elapsed = time.perf_counter() - start
        release.set()
        assert results[0] == "fast"
        assert isinstance(results[1], (CallTimeoutError, CallCancelledError))
        assert isinstance(results[2], (CallTimeoutError, CallCancelledError))
        assert elapsed < 0.9
        # Nothing left pending: every future reached a terminal state.
        assert all(f.done() for f in futures)

    def test_cancel_stragglers_on_abort(self, net):
        """A fail-fast gather cancels what it never collected."""
        net.register("a", lambda m: None)
        release = threading.Event()

        def handler(message):
            if message.payload == "bad":
                raise ValueError("rejected")
            if message.payload == "hang":
                release.wait(10.0)
            return message.payload

        net.register("b", handler)
        net.call("a", "b", MessageKind.PING, "warm")
        bad = net.call_async("a", "b", MessageKind.PING, "bad")
        hung = net.call_async("a", "b", MessageKind.PING, "hang")
        with pytest.raises(ValueError, match="rejected"):
            gather([bad, hung], cancel_stragglers=True)
        assert hung.cancelled()
        release.set()

    def test_unbounded_gather_unchanged(self):
        sim = SimNetwork()
        sim.register("a", lambda m: None)
        sim.register("b", lambda m: m.payload)
        futures = [sim.call_async("a", "b", MessageKind.PING, i)
                   for i in range(3)]
        assert gather(futures) == [0, 1, 2]
