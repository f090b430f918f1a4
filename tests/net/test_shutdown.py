"""``TcpNetwork.shutdown()`` leaves nothing behind: no thread, no socket.

A pair of nodes, each on its own transport, does the two kinds of work
that start threads and open connections — an invoke, and a streamed
move — and is shut down.  Afterwards no ``tcpnet``
thread may survive and the process holds no more file descriptors than
before the pair was built.  An agent tour runs its steps on that pool:
no agent runner thread exists during the tour or after it.
"""

import os
import sys
import threading
import time

import pytest

from repro.cluster import Cluster
from repro.core.agents import Agent
from repro.net.tcpnet import TcpNetwork
from repro.runtime.namespace import Namespace

#: How long teardown may take to be observed (threads exit, fds close).
SETTLE_S = 1.0


class Box:
    """Mobile servant: a large payload and one method."""

    def __init__(self, data):
        self.data = data

    def size(self):
        return len(self.data)


def _tcpnet_threads(besides=()):
    return [t.name for t in threading.enumerate()
            if (t.name == "tcpnet" or t.name.startswith("tcpnet-"))
            and t not in besides]


def _agent_runners(besides=()):
    return [t.name for t in threading.enumerate()
            if t.name.startswith("agent-runner") and t not in besides]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _poll(condition):
    deadline = time.monotonic() + SETTLE_S
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def _run_pair():
    nets = {node: TcpNetwork() for node in ("a", "b")}
    spaces = {node: Namespace(node, net) for node, net in nets.items()}
    try:
        for node, net in nets.items():
            for peer, peer_net in nets.items():
                if peer != node:
                    net.connect(peer, peer_net.endpoint_of(peer))
        data = os.urandom(1 << 20)
        spaces["a"].register("box", Box(data))
        assert spaces["b"].stub("box", location="a").size() == len(data)
        assert spaces["a"].move("box", "b") == "b"
        assert spaces["b"].store.get("box").data == data
    finally:
        for space in spaces.values():
            space.shutdown()
        for net in nets.values():
            net.shutdown()


def test_no_tcpnet_thread_survives_shutdown():
    before = set(threading.enumerate())  # other tests' stragglers
    _run_pair()
    assert _poll(lambda: not _tcpnet_threads(before)), _tcpnet_threads(before)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts /proc/self/fd")
def test_every_socket_is_closed_by_shutdown():
    before = _open_fds()
    _run_pair()
    assert _poll(lambda: _open_fds() <= before), (_open_fds(), before)


#: What :class:`Census` saw at each stop: (node, agent runner threads).
SEEN_AT_STOPS = []


class Census(Agent):
    """Records, at each stop, the agent runner threads alive then."""

    def on_arrival(self, ctx):
        super().on_arrival(ctx)
        SEEN_AT_STOPS.append((ctx.node_id, _agent_runners()))


def test_no_agent_runner_during_or_after_a_tour():
    before = set(threading.enumerate())
    SEEN_AT_STOPS.clear()
    with Cluster(["a", "b", "c"], transport="tcp") as cluster:
        cluster["a"].agents.launch(Census(), "walker", ("b", "c"))
        cluster.quiesce(timeout_s=10.0)
        assert cluster["c"].namespace.store.contains("walker")
        assert SEEN_AT_STOPS == [("b", []), ("c", [])]
    assert not _agent_runners(before)
    assert _poll(lambda: not _tcpnet_threads(before)), _tcpnet_threads(before)
