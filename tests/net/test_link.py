"""The emulated link of ``TcpNetwork(latency_ms=, bandwidth_mbps=)``.

One model, at the receiving node server: a frame is decoded, then held
on a reactor timer for its transmission time (serialized per
connection) plus the latency, then routed.  No thread waits out the
delay, the request's deadline runs through it, and a frame whose
connection dies meanwhile is never dispatched.
"""

import os
import threading
import time

import pytest

from repro.errors import CallTimeoutError, NodeUnreachableError
from repro.net.deadline import Deadline
from repro.net.message import MessageKind
from repro.net.tcpnet import _SERVER_WORKERS, TcpNetwork
from repro.net.transport import gather


def _dispatch_threads(besides):
    """Transport threads started since ``besides``, reactor loops aside."""
    return [t.name for t in threading.enumerate()
            if t.name.startswith("tcpnet-")
            and not t.name.startswith("tcpnet-loop")
            and t not in besides]


def _poll(condition, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


def test_no_thread_waits_out_the_latency():
    """32 uncoalesced calls on a 100 ms link hold no worker while they
    are on it: every sample finds the pool within its resident size."""
    before = set(threading.enumerate())
    net = TcpNetwork(latency_ms=100.0)
    net.auto_batch = False
    try:
        net.register("a", lambda m: None)
        net.register("b", lambda m: m.payload)
        assert net.call("a", "b", MessageKind.PING, -1) == -1  # dial
        on_link_until = time.monotonic() + 0.08  # no frame is due before
        futures = [net.call_async("a", "b", MessageKind.PING, i)
                   for i in range(32)]
        peak = []
        while time.monotonic() < on_link_until:
            peak = max(peak, _dispatch_threads(before), key=len)
            time.sleep(0.005)
        assert gather(futures) == list(range(32))
        assert len(peak) <= _SERVER_WORKERS, peak
    finally:
        net.shutdown()


def test_frames_share_one_wire_in_send_order():
    """N frames of B bytes to one node take at least N·B/rate, and run
    in the order they were sent."""
    count, size, mbps = 8, 50_000, 40.0
    seen = []
    net = TcpNetwork(bandwidth_mbps=mbps)
    net.auto_batch = False
    try:
        net.register("a", lambda m: None)
        net.register("b", lambda m: seen.append(m.payload[0]))
        net.call("a", "b", MessageKind.PING, b"\xff")  # dial
        seen.clear()
        # Random bytes: a compressed frame would pay only for its
        # compressed size.
        payloads = [bytes([i]) + os.urandom(size - 1) for i in range(count)]
        start = time.monotonic()
        gather([net.call_async("a", "b", MessageKind.PING, payload)
                for payload in payloads])
        elapsed = time.monotonic() - start
        assert elapsed >= count * size / (mbps * 1e6 / 8.0), elapsed
        assert seen == list(range(count))
    finally:
        net.shutdown()


def test_a_deadline_shorter_than_the_transmission_drops_the_request():
    """Bandwidth twin of ``test_deadline.py``'s latency case: 200 kB at
    8 Mb/s is 0.2 s on the wire, so a 50 ms deadline expires on the link
    and the handler never runs."""
    executed = []

    def handler(message):
        executed.append(len(message.payload))
        return "ok"

    net = TcpNetwork(bandwidth_mbps=8.0, io_timeout_s=5.0)
    try:
        net.register("a", lambda m: None)
        net.register("b", handler)
        assert net.call("a", "b", MessageKind.PING, b"warm") == "ok"
        doomed = net.call_async("a", "b", MessageKind.PING,
                                os.urandom(200_000),
                                deadline=Deadline.after_ms(50))
        with pytest.raises(CallTimeoutError):
            doomed.result()
        time.sleep(0.4)  # let the frame clear the emulated link
        assert executed == [4]
    finally:
        net.shutdown()


def test_a_frame_on_the_link_dies_with_its_connection():
    """A frame still on the emulated link when its connection is severed
    is never dispatched."""
    executed = []

    def handler(message):
        executed.append(message.payload)
        return "ok"

    net = TcpNetwork(latency_ms=200.0, io_timeout_s=5.0)
    try:
        net.register("a", lambda m: None)
        net.register("b", handler)
        assert net.call("a", "b", MessageKind.PING, "warm") == "ok"
        orphan = net.call_async("a", "b", MessageKind.PING, "orphan")
        # b's server traces a frame when it receives it, before the link.
        assert _poll(lambda: net.trace.kinds().count("PING") == 2)
        net.forget_peer("a")  # severs b's accepted connection from a
        with pytest.raises(NodeUnreachableError):
            orphan.result()
        time.sleep(0.3)  # past the frame's delivery time
        assert executed == ["warm"]
    finally:
        net.shutdown()
