"""A node's message to itself skips the socket.

On ``TcpNetwork`` a message whose ``dst`` is its ``src``, and whose node
this transport serves, is copied by value through the wire codec and run
on the node's own worker pool: no channel is dialled, no emulated link
delays it, and it keeps everything a socket delivery gives — the trace
events, the reply cache, deadline admission, a future that is genuinely
in flight, and by-value isolation both ways.

On a build that sends self messages over the node's own listener, (a)
and the first cases of (e) and (g) find an ``(n, n)`` channel, (f) waits
out the emulated link's 50 ms, and the first case of (h) waits out the
io timeout because the node server's pool drops the frame silently.
(b), (c), (d), the by-value case of (e) and the shutdown case of (h)
hold there too.
"""

import threading
import time

import pytest

from repro.errors import CallTimeoutError, NodeUnreachableError
from repro.net.deadline import Deadline
from repro.net.message import MessageKind, build_message
from repro.net.simnet import SimNetwork
from repro.net.tcpnet import TcpNetwork, _PipelinedCallFuture
from repro.rmi.protocol import LockRequestPayload
from repro.runtime.namespace import Namespace


class Counter:
    def __init__(self):
        self.n = 0

    def bump(self):
        self.n += 1
        return self.n


@pytest.fixture
def net():
    transport = TcpNetwork()
    yield transport
    transport.shutdown()


def _self_channels(net):
    return [key for key in net._channels if key[0] == key[1]]


def _submit(net, message):
    """Send ``message`` as is, past the caller-side checks of
    ``call_async`` (a retransmission, or a deadline expiring in flight)."""
    future = _PipelinedCallFuture(message, net.io_timeout_s)
    net._submit(message, future)
    return future


def test_self_find_lock_unlock_open_no_channel(net):
    """(a)"""
    ns = Namespace("n1", net)
    ns.register("obj", Counter())
    assert ns.find("obj") == "n1"
    grant = ns.lock("obj", "n1")
    ns.unlock(grant)
    assert _self_channels(net) == []
    assert net.open_channels() == 0


def test_self_find_traces_like_the_sim(net):
    """(b)"""
    shapes = []
    for transport in (SimNetwork(), net):
        ns = Namespace("n1", transport)
        ns.register("obj", Counter())
        transport.trace.clear()
        assert ns.find("obj") == "n1"
        shapes.append([(e.kind, e.src, e.dst, e.local)
                       for e in transport.trace.events()])
    sim, tcp = shapes
    assert tcp == sim
    assert tcp == [("FIND", "n1", "n1", True),
                   ("REPLY(FIND)", "n1", "n1", True)]
    assert all(e.nbytes > 0 for e in net.trace.events())


def test_duplicated_message_id_runs_the_handler_once(net):
    """(c)"""
    runs = []
    net.register("n1", lambda m: runs.append(m.payload) or len(runs))
    message = build_message(MessageKind.PING, "n1", "n1", "hello")
    first = _submit(net, message)
    again = _submit(net, message)
    assert first.result(timeout_s=5.0) == again.result(timeout_s=5.0) == 1
    assert runs == ["hello"]


def test_expired_deadline_is_refused_before_the_handler(net):
    """(d)"""
    runs = []
    net.register("n1", lambda m: runs.append(m))
    deadline = Deadline.after_ms(1.0)
    time.sleep(0.01)
    message = build_message(MessageKind.PING, "n1", "n1", None, deadline)
    with pytest.raises(CallTimeoutError):
        _submit(net, message).result(timeout_s=5.0)
    with pytest.raises(CallTimeoutError):
        net.call("n1", "n1", MessageKind.PING, deadline=deadline)
    assert runs == []


def test_queued_self_lock_request_is_in_flight(net):
    """(e) A self LOCK_REQUEST queued behind a held stay lock does not
    hold back a remote call issued after it."""
    home = Namespace("n1", net)
    Namespace("n2", net)
    home.register("obj", Counter())
    stay = home.lock("obj", "n1")
    queued = net.call_async(
        "n1", "n1", MessageKind.LOCK_REQUEST,
        LockRequestPayload(name="obj", target="n2", requester="n1",
                           wait_ms=10_000.0),
    )
    assert not queued.done()
    remote = net.call_async("n1", "n2", MessageKind.PING)
    remote.result(timeout_s=5.0)
    assert not queued.done()
    home.unlock(stay)
    grant = queued.result(timeout_s=5.0)
    assert grant.name == "obj"
    home.unlock(grant)
    assert _self_channels(net) == []


def test_self_call_passes_by_value(net):
    """(e) Neither side's mutation reaches the other."""
    kept = {}

    def handler(message):
        message.payload.append("servant-side")
        kept["reply"] = ["reply"]
        return kept["reply"]

    net.register("n1", handler)
    items = ["caller-side"]
    reply = net.call("n1", "n1", MessageKind.PING, items)
    assert items == ["caller-side"]
    assert reply == ["reply"] and reply is not kept["reply"]
    kept["reply"].append("after")
    assert reply == ["reply"]


def test_self_find_skips_the_emulated_link():
    """(f)"""
    net = TcpNetwork(latency_ms=50)
    try:
        ns = Namespace("n1", net)
        ns.register("obj", Counter())
        ns.find("obj")  # warm-up
        took = []
        for _ in range(3):
            start = time.monotonic()
            assert ns.find("obj") == "n1"
            took.append(time.monotonic() - start)
        assert sorted(took)[1] < 0.025, took
    finally:
        net.shutdown()


def test_self_cast_runs_its_handler_once(net):
    """(g)"""
    runs = []
    ran = threading.Event()

    def handler(message):
        runs.append(message.payload)
        ran.set()

    net.register("n1", handler)
    net.cast("n1", "n1", MessageKind.PING, "once")
    assert ran.wait(5.0)
    time.sleep(0.05)
    assert runs == ["once"]
    assert _self_channels(net) == []


def test_self_call_after_the_pool_closed_fails_at_once():
    """(h)"""
    net = TcpNetwork(io_timeout_s=3.0)
    try:
        net.register("n1", lambda m: "pong")
        assert net.call("n1", "n1", MessageKind.PING) == "pong"
        net._pool.close()
        start = time.monotonic()
        with pytest.raises(NodeUnreachableError):
            net.call("n1", "n1", MessageKind.PING)
        assert time.monotonic() - start < 1.0
    finally:
        net.shutdown()


def test_self_call_queued_at_shutdown_fails_at_once():
    """(h) A self call still queued when the transport shuts down."""
    net = TcpNetwork(io_timeout_s=3.0)
    try:
        net.register("n1", lambda m: "pong")
        # Pretend a worker is already on its way: the job stays queued.
        net._pool._stirred = 1
        future = net.call_async("n1", "n1", MessageKind.PING)
        assert not future.done()
    finally:
        net.shutdown()
    start = time.monotonic()
    with pytest.raises(NodeUnreachableError):
        future.result()
    assert time.monotonic() - start < 1.0
