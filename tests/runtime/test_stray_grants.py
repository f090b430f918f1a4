"""A lock grant nobody holds is released by its requester.

A reply that reaches the TCP transport with no caller waiting for it —
the call timed out, a chase cancelled it, a coalesced BATCH sub went
unmatched, or a node's reply to itself lost to a timeout — is not
dropped: the transport posts it to the handler of the node it is
addressed to, and that node's runtime gives back a lock grant in it with
the routine a chase's losing grant uses (``MageServer.release_stray_grant``).
Any other late reply is ignored.  The lock manager keeps no lease and
runs no timer.
"""

import threading
import time

import pytest

from repro.bench.workloads import Counter
from repro.cluster import Cluster
from repro.errors import CallTimeoutError, LockError, LockTimeoutError
from repro.net.deadline import Deadline
from repro.net.message import MessageKind
from repro.rmi.protocol import FindRequest, LockRequestPayload


def wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def hold(namespace, kind, name, answer=None):
    """``namespace`` runs its first ``kind`` request for ``name`` (through
    ``answer`` instead of its own handler, if given), then holds the
    reply until the returned ``release`` is set; ``entered`` is set once
    the request ran (for LOCK_REQUEST: once the grant was made)."""
    handlers = namespace.external._handlers
    original = handlers[kind]
    run = original if answer is None else answer
    entered, release = threading.Event(), threading.Event()

    def held(request):
        if request.name != name or entered.is_set():
            return original(request)
        try:
            return run(request)
        finally:
            entered.set()
            release.wait(10.0)

    handlers[kind] = held
    return entered, release


def spy_strays(namespace):
    """Record every stray reply that reaches ``namespace``'s handler."""
    handlers = namespace.external._handlers
    original = handlers[MessageKind.REPLY]
    strays = []

    def spy(payload):
        strays.append(payload)
        original(payload)

    handlers[MessageKind.REPLY] = spy
    return strays


def late_grant(cluster, where, target):
    """Lock ``c`` from alpha at its host (beta, or alpha itself) for
    ``target`` while the host holds the grant's reply past the caller's
    deadline; returns the host's namespace and the hold's ``release``."""
    caller = cluster["alpha"].namespace
    host = cluster["beta" if where == "remote" else "alpha"].namespace
    host.register("c", Counter())
    granted, release = hold(host, MessageKind.LOCK_REQUEST, "c")
    with pytest.raises(LockTimeoutError):
        caller.lock("c", target(host.node_id), host.node_id, timeout_ms=250)
    assert granted.is_set()
    return host, release


@pytest.fixture
def tcp_pair():
    with Cluster(["alpha", "beta"], transport="tcp") as cluster:
        yield cluster


@pytest.mark.parametrize("where", ["remote", "self"])
def test_a_grant_that_reaches_its_caller_late_is_released(tcp_pair, where):
    """The caller's deadline runs out while the host holds the grant's
    reply; the stay grant then reaches the caller's node with nobody
    waiting and goes back, so a move lock, which excludes every stay,
    is granted next."""
    caller = tcp_pair["alpha"].namespace
    host = tcp_pair["beta" if where == "remote" else "alpha"].namespace
    elsewhere = "alpha" if where == "remote" else "beta"
    host.register("c", Counter())
    granted, release = hold(host, MessageKind.LOCK_REQUEST, "c")
    with pytest.raises(LockTimeoutError):
        caller.lock("c", host.node_id, host.node_id, timeout_ms=250)
    assert granted.is_set()
    assert host.locks.snapshot("c")["stays"] == 1  # held for nobody
    release.set()
    grant = caller.lock("c", elsewhere, host.node_id, timeout_ms=2000)
    assert grant.kind == "move"
    caller.unlock(grant)
    tcp_pair.quiesce(timeout_s=5.0)
    assert not host.locks.has_activity("c")


@pytest.mark.parametrize("where", ["remote", "self"])
def test_a_move_grant_that_reaches_its_caller_late_is_released(tcp_pair,
                                                               where):
    """The exclusive kind: a move grant held for nobody blocks every
    stay until it goes back."""
    other = {"alpha": "beta", "beta": "alpha"}
    host, release = late_grant(tcp_pair, where, lambda node: other[node])
    assert host.locks.snapshot("c")["move"]  # held for nobody
    release.set()
    caller = tcp_pair["alpha"].namespace
    grant = caller.lock("c", host.node_id, host.node_id, timeout_ms=2000)
    assert grant.kind == "stay"
    caller.unlock(grant)
    tcp_pair.quiesce(timeout_s=5.0)
    assert not host.locks.has_activity("c")


@pytest.mark.parametrize("where", ["remote", "self"])
def test_a_cancelled_lock_request_is_released(tcp_pair, where):
    """A chase cancels a loser rather than timing it out: its grant,
    answered after the cancel, goes back the same way."""
    caller = tcp_pair["alpha"].namespace
    host = tcp_pair["beta" if where == "remote" else "alpha"].namespace
    host.register("c", Counter())
    granted, release = hold(host, MessageKind.LOCK_REQUEST, "c")
    future = tcp_pair.transport.call_async(
        "alpha", host.node_id, MessageKind.LOCK_REQUEST,
        LockRequestPayload(name="c", target=host.node_id,
                           requester="alpha"))
    assert granted.wait(5.0)
    assert future.cancel("the chase is over")
    assert host.locks.snapshot("c")["stays"] == 1
    release.set()
    assert wait_for(lambda: host.locks.snapshot("c")["stays"] == 0)
    tcp_pair.quiesce(timeout_s=5.0)
    assert not host.locks.has_activity("c")


def test_an_unmatched_lock_request_of_a_coalesced_batch_is_released(
        tcp_pair):
    """Two LOCK_REQUESTs queued behind a round trip leave as one BATCH;
    the one whose caller cancelled meanwhile is released, the other is
    delivered."""
    net = tcp_pair.transport
    host = tcp_pair["beta"].namespace
    for name in ("gate", "c", "d"):
        host.register(name, Counter())
    gate_granted, gate_release = hold(host, MessageKind.LOCK_REQUEST, "gate")
    c_granted, c_release = hold(host, MessageKind.LOCK_REQUEST, "c")

    def ask(name):
        return net.call_async(
            "alpha", "beta", MessageKind.LOCK_REQUEST,
            LockRequestPayload(name=name, target="beta", requester="alpha"))

    gate = ask("gate")
    assert gate_granted.wait(5.0)
    c, d = ask("c"), ask("d")  # queued behind the gate's round trip
    gate_release.set()
    assert c_granted.wait(5.0)  # c and d left together
    assert "BATCH" in tcp_pair.trace.kinds()
    c.cancel("the caller left")
    c_release.set()
    d_grant = d.result(5.0)
    assert wait_for(lambda: host.locks.snapshot("c")["stays"] == 0)
    tcp_pair.quiesce(timeout_s=5.0)
    assert host.locks.snapshot("d")["stays"] == 1  # delivered: untouched
    alpha = tcp_pair["alpha"].namespace
    alpha.unlock(d_grant)
    alpha.unlock(gate.result(5.0))
    alpha.unlock(alpha.lock("c", "alpha", "beta", timeout_ms=2000))
    assert not host.locks.has_activity("c")


def test_an_unmatched_find_of_a_coalesced_batch_is_ignored(tcp_pair):
    """A FIND answer that loses its caller inside a BATCH reaches the
    caller's node as a stray and issues no call."""
    net = tcp_pair.transport
    caller = tcp_pair["alpha"].namespace
    host = tcp_pair["beta"].namespace
    for name in ("gate", "c", "d"):
        host.register(name, Counter())
    strays = spy_strays(caller)
    unlocked = []
    caller.server.unlock = unlocked.append
    gate_found, gate_release = hold(host, MessageKind.FIND, "gate")
    c_found, c_release = hold(host, MessageKind.FIND, "c")

    def find(name):
        return net.call_async(
            "alpha", "beta", MessageKind.FIND,
            FindRequest(name=name, origin_hint="", verify=False))

    gate = find("gate")
    assert gate_found.wait(5.0)
    c, d = find("c"), find("d")  # queued behind the gate's round trip
    gate_release.set()
    assert c_found.wait(5.0)  # c and d left together
    assert "BATCH" in tcp_pair.trace.kinds()
    c.cancel("the caller left")
    c_release.set()
    assert d.result(5.0) == "beta"
    assert gate.result(5.0) == "beta"
    assert wait_for(lambda: strays)
    tcp_pair.quiesce(timeout_s=5.0)
    assert len(strays) == 1 and strays[0].error is None
    assert unlocked == []


@pytest.mark.parametrize("late", ["find", "error"])
def test_a_late_reply_without_a_grant_is_ignored(tcp_pair, late):
    """A stray FIND answer or error reply reaches the caller's node and
    issues no call."""
    net = tcp_pair.transport
    caller = tcp_pair["alpha"].namespace
    host = tcp_pair["beta"].namespace
    host.register("c", Counter())
    strays = spy_strays(caller)
    unlocked = []
    caller.server.unlock = unlocked.append
    if late == "find":
        entered, release = hold(host, MessageKind.FIND, "c")
        kind = MessageKind.FIND
        payload = FindRequest(name="c", origin_hint="", verify=False)
    else:
        def refuse(request):
            raise LockError("no lock for you")

        entered, release = hold(host, MessageKind.LOCK_REQUEST, "c",
                                answer=refuse)
        kind = MessageKind.LOCK_REQUEST
        payload = LockRequestPayload(name="c", target="beta",
                                     requester="alpha")
    with pytest.raises(CallTimeoutError):
        net.call("alpha", "beta", kind, payload,
                 deadline=Deadline.after_ms(250))
    assert entered.is_set()
    sent = len(tcp_pair.trace.kinds())
    release.set()
    assert wait_for(lambda: strays)
    tcp_pair.quiesce(timeout_s=5.0)
    assert len(strays) == 1
    assert (strays[0].error is not None) == (late == "error")
    assert unlocked == []
    assert len(tcp_pair.trace.kinds()) == sent + 1  # the late reply only
    assert not host.locks.has_activity("c")


def test_a_grant_received_in_time_is_untouched(tcp_pair):
    caller = tcp_pair["alpha"].namespace
    host = tcp_pair["beta"].namespace
    host.register("c", Counter())
    strays = spy_strays(caller)
    grant = caller.lock("c", "beta", "beta", timeout_ms=2000)
    tcp_pair.quiesce(timeout_s=5.0)
    assert strays == []
    assert host.locks.snapshot("c")["stays"] == 1
    assert "UNLOCK" not in tcp_pair.trace.kinds()
    caller.unlock(grant)
    assert not host.locks.has_activity("c")


@pytest.mark.parametrize("transport", ["sim", "tcp"])
def test_a_lock_in_time_costs_one_round_trip(transport):
    """No confirm follows a grant: past the chase's verified find, a
    lock is one LOCK_REQUEST and its reply, even with a deadline."""
    with Cluster(["alpha", "beta"], transport=transport) as cluster:
        cluster["beta"].register("c", Counter())
        cluster.quiesce(timeout_s=5.0)
        cluster.trace.clear()
        caller = cluster["alpha"].namespace
        grant = caller.lock("c", "alpha", "beta",
                            deadline=Deadline.after_ms(5_000))
        assert grant.kind == "move"
        kinds = cluster.trace.kinds()
        assert [kind for kind in kinds if "FIND" not in kind] == [
            "LOCK_REQUEST", "REPLY(LOCK_REQUEST)"], kinds
        caller.unlock(grant)


@pytest.mark.parametrize("transport", ["sim", "tcp"])
def test_a_stray_grant_whose_host_left_is_dropped(transport):
    """The host's lock state went with it: the release's failed UNLOCK
    is dropped and posted work still drains."""
    with Cluster(["alpha", "beta"], transport=transport) as cluster:
        cluster["beta"].register("c", Counter())
        caller = cluster["alpha"].namespace
        grant = caller.lock("c", "beta", "beta", timeout_ms=2000)
        cluster["beta"].shutdown()
        caller.server.release_stray_grant(grant)
        cluster.quiesce(timeout_s=5.0)
        caller.register("d", Counter())  # the requester carries on
        caller.unlock(caller.lock("d", "alpha", "alpha", timeout_ms=2000))
        assert not caller.locks.has_activity("d")
