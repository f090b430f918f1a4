"""``Transport.post``: the one way the runtime defers work.

On the simulated network a posted job runs only inside ``quiesce``, on
the calling thread and in posting order, so a run with agent tours is a
function of its inputs.  On TCP a posted job runs on the worker pool,
and ``quiesce`` waits until no posted job is queued or running.
"""

import threading
import time

import pytest

from repro.bench.workloads import Counter
from repro.cluster import Cluster
from repro.core.agents import Agent
from repro.errors import MageError
from repro.net.simnet import SimNetwork
from repro.net.tcpnet import TcpNetwork


def _two_tours():
    """The remote messages of two tours launched together."""
    with Cluster(["alpha", "beta", "gamma", "delta"]) as cluster:
        cluster["alpha"].agents.launch(Agent(), "one",
                                       ("beta", "gamma", "delta"))
        cluster["delta"].agents.launch(Agent(), "two",
                                       ("gamma", "beta", "alpha"))
        cluster.quiesce()
        assert cluster["delta"].namespace.store.contains("one")
        assert cluster["alpha"].namespace.store.contains("two")
        return tuple(cluster.trace.arrows(remote_only=True))


class TestSim:
    def test_two_concurrent_tours_give_one_message_order(self):
        assert len({_two_tours() for _ in range(30)}) == 1

    def test_jobs_run_in_posting_order_and_only_in_quiesce(self):
        net = SimNetwork()
        ran = []

        def second():
            ran.append((2, threading.current_thread()))
            net.post(lambda: ran.append((4, threading.current_thread())))

        net.post(lambda: ran.append((1, threading.current_thread())))
        net.post(second)
        net.post(lambda: ran.append((3, threading.current_thread())))
        assert ran == []
        net.quiesce()
        here = threading.current_thread()
        assert ran == [(1, here), (2, here), (3, here), (4, here)]

    def test_a_failing_job_does_not_stop_the_rest(self):
        net = SimNetwork()
        ran = []
        net.post(lambda: 1 / 0)
        net.post(lambda: ran.append("after"))
        net.quiesce()
        assert ran == ["after"]

    def test_a_runaway_chain_times_out(self):
        net = SimNetwork()

        def again():
            net.post(again)

        net.post(again)
        with pytest.raises(MageError, match="still running"):
            net.quiesce(timeout_s=0.05)


class TestTcp:
    def test_quiesce_waits_for_a_job_that_posts_another(self):
        net = TcpNetwork()
        ran = []

        def first():
            time.sleep(0.05)
            ran.append("first")
            net.post(lambda: ran.append("second"))

        try:
            net.post(first)
            net.quiesce(timeout_s=5.0)
            assert ran == ["first", "second"]
        finally:
            net.shutdown()

    def test_quiesce_times_out_on_a_job_still_running(self):
        net = TcpNetwork()
        release = threading.Event()
        try:
            net.post(lambda: release.wait(5.0))
            with pytest.raises(MageError, match="still running"):
                net.quiesce(timeout_s=0.05)
            release.set()
            net.quiesce(timeout_s=5.0)
        finally:
            release.set()
            net.shutdown()

    def test_a_job_posted_after_shutdown_is_dropped(self):
        net = TcpNetwork()
        net.shutdown()
        ran = []
        net.post(lambda: ran.append("late"))
        net.quiesce(timeout_s=1.0)
        assert ran == []


def test_a_step_for_a_shut_down_node_is_dropped(make_cluster):
    cluster = make_cluster(["alpha", "beta", "gamma"])
    cluster["alpha"].agents.launch(Agent(), "walker", ("beta", "gamma"))
    cluster["beta"].shutdown()
    cluster.quiesce()
    assert cluster["beta"].namespace.store.contains("walker")
    assert not cluster["gamma"].namespace.store.contains("walker")
    assert cluster["beta"].agents.tours_failed == 0


@pytest.mark.parametrize("transport", ["sim", "tcp"])
def test_a_stray_grant_is_released_by_a_posted_job(transport):
    """A lock chase's losing grant goes back to its host once posted
    work is done; until then the object is held."""
    with Cluster(["alpha", "beta"], transport=transport) as cluster:
        cluster["alpha"].register("c", Counter())
        grant = cluster["beta"].namespace.lock("c", "beta", "alpha")
        host = cluster["alpha"].namespace
        assert host.locks.has_activity("c")
        cluster["beta"].namespace.server.release_stray_grant(grant)
        if transport == "sim":
            assert host.locks.has_activity("c")  # runs in quiesce only
        cluster.quiesce(timeout_s=5.0)
        assert not host.locks.has_activity("c")
        assert host.move("c", "beta") == "beta"
