"""The real TCP loopback transport."""

import socket
import sys
import threading
import time

import pytest

from repro.errors import (
    CallTimeoutError,
    ConfigurationError,
    MarshalError,
    NodeUnreachableError,
)
from repro.net.deadline import Deadline
from repro.net.message import Message, MessageKind
from repro.net.tcpnet import TcpNetwork


class _Tally:
    """A mobile servant for the census's TCP cluster."""

    def __init__(self):
        self.n = 0

    def bump(self):
        self.n += 1
        return self.n


@pytest.fixture
def net():
    network = TcpNetwork()
    yield network
    network.shutdown()


class TestTcpDelivery:
    def test_round_trip(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: ("echo", m.payload))
        assert net.call("a", "b", MessageKind.PING, 42) == ("echo", 42)

    def test_payloads_cross_real_sockets(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: sum(m.payload))
        assert net.call("a", "b", MessageKind.PING, list(range(100))) == 4950

    def test_handler_exception_propagates(self, net):
        net.register("a", lambda m: None)

        def boom(message):
            raise ValueError("remote failure")

        net.register("b", boom)
        with pytest.raises(ValueError, match="remote failure"):
            net.call("a", "b", MessageKind.PING)

    def test_unknown_destination(self, net):
        net.register("a", lambda m: None)
        with pytest.raises(NodeUnreachableError):
            net.call("a", "ghost", MessageKind.PING)

    def test_unregistered_node_connection_refused(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: "ok")
        net.unregister("b")
        with pytest.raises(NodeUnreachableError):
            net.call("a", "b", MessageKind.PING)

    def test_each_node_gets_a_port(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        assert net.port_of("a") != net.port_of("b")

    def test_oneway_cast(self, net):
        done = threading.Event()
        net.register("a", lambda m: None)
        net.register("b", lambda m: done.set())
        net.cast("a", "b", MessageKind.INVOKE, "state")
        assert done.wait(timeout=5.0)

    @pytest.mark.parametrize("caller", ["a", "b"])
    def test_an_unencodable_reply_fails_the_caller_at_once(self, caller):
        """A reply the codec cannot encode reaches a remote caller as the
        error the self path raises, not as an io timeout."""
        net = TcpNetwork(io_timeout_s=5)
        try:
            net.register("a", lambda m: None)
            net.register("b", lambda m: threading.Lock())
            started = time.monotonic()
            with pytest.raises(MarshalError):
                net.call(caller, "b", MessageKind.PING)
            assert time.monotonic() - started < 1.0
        finally:
            net.shutdown()

    def test_concurrent_calls(self, net):
        net.register("client", lambda m: None)
        net.register("server", lambda m: m.payload * 2)
        results = {}

        def worker(i):
            results[i] = net.call("client", "server", MessageKind.PING, i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {i: i * 2 for i in range(8)}

    def test_concurrent_calls_share_one_connection(self, net):
        net.register("client", lambda m: None)
        net.register("server", lambda m: m.payload)
        threads = [
            threading.Thread(
                target=net.call,
                args=("client", "server", MessageKind.PING, i),
            )
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert net.open_channels() == 1

    def test_trace_records_tcp_messages(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: "ok")
        net.call("a", "b", MessageKind.PING)
        kinds = net.trace.kinds()
        assert "PING" in kinds
        assert "REPLY(PING)" in kinds


class TestStrayReplies:
    """A reply that finds no caller waiting is handed, as posted work, to
    the handler of the node it is addressed to."""

    @staticmethod
    def serve(net, node, answer):
        """Register ``node``: REPLY messages are recorded, anything else
        is answered by ``answer(message)``; returns the record."""
        strays = []

        def handler(message):
            if message.kind is MessageKind.REPLY:
                strays.append(message)
                return None
            return answer(message)

        net.register(node, handler)
        return strays

    @staticmethod
    def wait_for(predicate, timeout_s=5.0):
        deadline = time.monotonic() + timeout_s
        while not predicate() and time.monotonic() < deadline:
            time.sleep(0.01)
        return predicate()

    @staticmethod
    def slow(release):
        def answer(message):
            release.wait(10.0)
            return ("late", message.payload)
        return answer

    @pytest.mark.parametrize("server", ["b", "a"])
    def test_a_late_reply_reaches_its_node_handler(self, net, server):
        release = threading.Event()
        strays = self.serve(net, "a", self.slow(release))
        if server == "b":
            self.serve(net, "b", self.slow(release))
        with pytest.raises(CallTimeoutError):
            net.call("a", server, MessageKind.PING, 7,
                     deadline=Deadline.after_ms(100))
        release.set()
        assert self.wait_for(lambda: strays)
        net.quiesce(timeout_s=5.0)
        [stray] = strays
        assert stray.dst == "a" and stray.src == server
        assert stray.in_reply_to is MessageKind.PING
        assert stray.payload.value == ("late", 7)

    def test_a_reply_in_time_is_not_handed_over(self, net):
        strays = self.serve(net, "a", lambda m: None)
        self.serve(net, "b", lambda m: m.payload)
        assert net.call("a", "b", MessageKind.PING, 7) == 7
        net.quiesce(timeout_s=5.0)
        assert strays == []

    def test_a_late_reply_to_a_node_that_left_is_dropped(self, net):
        release = threading.Event()
        strays = self.serve(net, "a", lambda m: None)
        self.serve(net, "b", self.slow(release))
        with pytest.raises(CallTimeoutError):
            net.call("a", "b", MessageKind.PING, 7,
                     deadline=Deadline.after_ms(100))
        net.unregister("a")
        release.set()
        # The reply is traced as it is sent, before it reaches "a".
        assert self.wait_for(lambda: "REPLY(PING)" in net.trace.kinds())
        time.sleep(0.2)
        net.quiesce(timeout_s=5.0)
        assert strays == []


class TestConfig:
    @pytest.mark.parametrize("option", [
        "mode", "handshake", "protocol_version", "wire_formats",
        "coalesce_max_bytes", "coalesce_max_delay_ms", "batch_max_msgs",
        "batch_max_bytes", "inline_dispatch", "inline_budget_ms",
        "retry_budget", "reactor_threads",
        "codecs", "compress_threshold", "auto_batch", "local_bypass",
        "server_workers", "connect_timeout_s", "bytes_per_s",
        "hello_timeout_s",
    ])
    def test_there_is_one_wire_dialect_and_no_option_to_pick_another(
            self, option):
        with pytest.raises(TypeError):
            TcpNetwork(**{option: None})

    def test_the_reactor_knows_framing_not_links(self):
        from repro.net.reactor import Reactor

        reactor = Reactor(max_frame=1024)
        a, b = socket.socketpair()
        try:
            with pytest.raises(TypeError):
                reactor.add_connection(a, lambda *frame: None,
                                       lambda reason: None, bytes_per_s=1.0)
        finally:
            reactor.close()
            a.close()
            b.close()

    def test_there_is_one_of_each(self):
        """The census of things that used to exist more than once: one
        batch frame kind, no blocking send path beside the future one, no
        knob that nothing sets, one compression codec and no codec list in
        the HELLO, and no hash-striped table under ``src/repro`` — no
        shard class, no stripe-count constant, one lock per channel, a
        reply cache whose only knob is its capacity, and one link model
        served by one worker pool with no thread asleep on the link."""
        import ast
        import dataclasses
        import inspect
        from pathlib import Path

        import repro
        from repro.net import codec, tcpnet
        from repro.net.endpoint import Hello
        from repro.net.reactor import Reactor
        from repro.net.tcpnet import _Channel
        from repro.net.transport import ReplyCache

        assert [k.name for k in MessageKind if "BATCH" in k.name] == ["BATCH"]
        assert "_transmit" not in vars(TcpNetwork)
        tcp_args = list(inspect.signature(TcpNetwork.__init__).parameters)[1:]
        assert len(tcp_args) <= 10, tcp_args
        tcp_source = inspect.getsource(tcpnet)
        assert "time.sleep" not in tcp_source
        assert tcp_source.count("_WorkerPool(") == 1
        assert [f.name for f in dataclasses.fields(Hello)] == \
            ["version", "node_id", "settings"]
        assert not [name for name in vars(codec) if "lz4" in name.lower()]
        reactor_args = list(inspect.signature(Reactor.__init__).parameters)[1:]
        assert reactor_args == ["max_frame", "name"]
        for path in Path(repro.__file__).parent.rglob("*.py"):
            tree = ast.parse(path.read_text())
            classes = [node.name for node in ast.walk(tree)
                       if isinstance(node, ast.ClassDef)]
            assert not [c for c in classes if c.endswith("Shard")], path
            constants = [target.id for node in tree.body
                         if isinstance(node, (ast.Assign, ast.AnnAssign))
                         for target in (node.targets if isinstance(
                             node, ast.Assign) else [node.target])
                         if isinstance(target, ast.Name)]
            assert not [c for c in constants if c.endswith("_SHARDS")], path
        assert inspect.getsource(_Channel.__init__).count("Lock()") == 1
        cache_args = list(inspect.signature(ReplyCache.__init__).parameters)
        assert cache_args[1:] == ["capacity"]
        with pytest.raises(TypeError):
            ReplyCache(shards=8)

    def test_runtime_constructor_census(self):
        """The census of the runtime's construction surface: no knob is
        threaded through ``Namespace``, ``Node`` and ``Cluster`` that one
        mechanism can do without — an agent's hop is a move, so there is
        no second migration protocol, no one-way kind, no sim-only cast
        pool, and no class fetch of the agents' own.  A move is one
        sender loop: a stream's head and its commit ride its chunks, so
        there is no PREPARE kind and the only standalone COMMIT (a
        hedge's) is sent from one place, as is OBJECT_TRANSFER; the
        receiver applies through one door.
        Deferred work is a ``Transport.post`` job: no agent runner, no
        step count of its own, no thread started for a stray grant.  A
        grant nobody holds is released by its requester, so locks keep
        no lease: no confirm round trip, no lease timer, no knobs.  Hedges
        ask every candidate at once, so nothing ranks them: no per-link
        latency estimate, and the peer book holds endpoints only.  The
        auto-batcher is the one thing that builds a BATCH frame: no
        ``call_many``, no sequential batch, no ``batched=`` knob.  The
        Unix-socket send buffer is a module constant of ``tcpnet``: no
        transport argument, and the reactor sizes no socket."""
        import ast
        import dataclasses
        import inspect
        import re
        from collections import Counter
        from pathlib import Path

        import repro
        from repro.cluster import Cluster
        from repro.cluster.node import Node
        from repro.net.message import Batch
        from repro.runtime.locks import LockManager
        from repro.runtime.mover import Mover
        from repro.runtime.namespace import Namespace

        def arity(cls):
            return len(inspect.signature(cls.__init__).parameters) - 1

        def kinds_in(node):
            """``MessageKind.X`` in ``node``, not inside a nested call."""
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "MessageKind"):
                yield node.attr
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, ast.Call):
                    yield from kinds_in(child)

        def send_sites(path):
            """``MessageKind.X`` passed to a call, by kind."""
            return Counter(
                kind for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                for arg in [*node.args, *(kw.value for kw in node.keywords)]
                if not isinstance(arg, ast.Call)
                for kind in kinds_in(arg))

        assert arity(Namespace) <= 7, inspect.signature(Namespace.__init__)
        assert arity(Node) <= 6, inspect.signature(Node.__init__)
        assert arity(Cluster) <= 9, inspect.signature(Cluster.__init__)
        assert arity(Mover) <= 9, inspect.signature(Mover.__init__)
        assert arity(LockManager) <= 2, inspect.signature(LockManager.__init__)
        # Pinned, not bounded: the Unix-socket send buffer is one module
        # constant, never a constructor argument.
        assert arity(TcpNetwork) == 9, inspect.signature(TcpNetwork.__init__)
        for method, most in ((Namespace.instantiate, 6),
                             (Namespace.push_class, 2)):
            params = inspect.signature(method).parameters
            assert len(params) - 1 <= most, (method, params)
        assert [f.name for f in dataclasses.fields(Batch)] == ["subs"]
        assert len(MessageKind) == 23, list(MessageKind)
        gone = re.compile(r"\b(AGENT_HOP|AgentHopPayload|ONEWAY_KINDS"
                          r"|drain_casts|synchronous_casts|_Steps"
                          r"|_STEPS(_LOCK)?|_steps_on|wait_for_tours"
                          r"|agent-runner|mage-stray-unlock|SimpleQueue"
                          r"|LOCK_CONFIRM|LockConfirm|provisional|_reap_unacked"
                          r"|leases_reaped|at_risk_window_ms"
                          r"|unacked_grant_ttl_ms|fair_locks|initial_load"
                          r"|DiscoveryService|note_link_latency|link_latency_s"
                          r"|rank_by_latency|track_link_latency|LINK_EWMA_ALPHA"
                          r"|_PeerRecord|_peer_locked|hello_timeout_s"
                          r"|call_many|call_many_async|TRANSFER_PREPARE)\b")
        root = Path(repro.__file__).parent
        for path in root.rglob("*.py"):
            source = path.read_text()
            assert not gone.findall(source), path
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.arguments):
                    names = [a.arg for a in (*node.posonlyargs, *node.args,
                                             *node.kwonlyargs)]
                    assert "batched" not in names, path
                elif isinstance(node, ast.keyword):
                    assert node.arg != "batched", path
        # The send buffer is sized where the Unix sockets are made, never
        # in the reactor, whose sockets tests shrink to force backpressure.
        sized = {path.relative_to(root).as_posix()
                 for path in root.rglob("*.py")
                 if "SO_SNDBUF" in path.read_text()}
        assert sized == {"net/tcpnet.py"}, sized
        for path in (root / "core" / "agents.py", root / "runtime" / "server.py"):
            assert "threading.Thread(" not in path.read_text(), path
        assert "threading.Timer(" not in (root / "runtime" / "locks.py").read_text()
        for path in (root / "core").rglob("*.py"):
            assert "CLASS_REQUEST" not in path.read_text(), path
        mover_sites = send_sites(root / "runtime" / "mover.py")
        for kind in ("OBJECT_TRANSFER", "TRANSFER_COMMIT"):
            assert mover_sites[kind] == 1, (kind, mover_sites)
        class_requests = {path.relative_to(root).as_posix(): count
                          for path in root.rglob("*.py")
                          if (count := send_sites(path)["CLASS_REQUEST"])}
        assert class_requests == {"runtime/mover.py": 1,
                                  "runtime/server.py": 1}, class_requests
        mover_source = inspect.getsource(Mover)
        for step in ("begin_apply(", "self.unpack(", "self._store.add("):
            assert mover_source.count(step) == 1, step
        # A node's message to itself never dials its own listener: the
        # paper's operations over TCP open no ``(n, n)`` channel.
        dialled = []
        cluster = Cluster(["lab", "field"], transport="tcp")
        channel = cluster.transport._channel
        cluster.transport._channel = lambda src, dst: (
            dialled.append((src, dst)) or channel(src, dst))
        try:
            lab = cluster["lab"].namespace
            lab.register("c", _Tally())
            assert lab.find("c") == "lab"
            lab.unlock(lab.lock("c", "lab"))
            assert lab.stub("c").bump() == 1
            lab.move("c", "field")
            assert lab.find("c") == "field"
            lab.unlock(lab.lock("c", "field"))
        finally:
            cluster.shutdown()
        assert ("lab", "field") in dialled
        assert not [key for key in dialled if key[0] == key[1]], dialled

    def test_there_is_one_chase_and_one_race(self):
        """The census of the ways to reach a moving object: ``lock``,
        ``move`` and ``locate_any`` each call ``chase``, no other runtime
        function loops over FIND, LOCK_REQUEST or MOVE_REQUEST futures,
        and every first-wins collection goes through ``race`` — the only
        place a completion queue is built."""
        import ast
        import inspect
        from pathlib import Path

        import repro.runtime
        from repro.net import transport
        from repro.runtime.server import MageServer

        for gone in ("_lock_hedged", "_move_hedged", "_completion_order"):
            assert not hasattr(MageServer, gone), gone
        chased = ("FIND", "LOCK_REQUEST", "MOVE_REQUEST")
        loops = (ast.For, ast.While, ast.comprehension)
        runtime = Path(repro.runtime.__file__).parent
        for path in runtime.glob("*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(node, ast.FunctionDef):
                    continue
                inner = list(ast.walk(node))
                kinds = {n.attr for n in inner if isinstance(n, ast.Attribute)
                         and isinstance(n.value, ast.Name)
                         and n.value.id == "MessageKind"} & set(chased)
                calls_chase = any(isinstance(n, ast.Call)
                                  and isinstance(n.func, ast.Name)
                                  and n.func.id == "chase" for n in inner)
                if path.name == "server.py" and node.name in (
                        "lock", "move", "locate_any"):
                    assert calls_chase, node.name
                if kinds:
                    assert not [n for n in inner if isinstance(n, loops)], \
                        (path.name, node.name, kinds)
            imported = {alias.name for n in ast.walk(tree)
                        if isinstance(n, ast.Import) for alias in n.names}
            if path.name in ("server.py", "mover.py"):
                assert "queue" not in imported, path.name
        source = inspect.getsource(transport)
        assert source.count("queue.Queue(") == 1
        assert "queue.Queue(" in inspect.getsource(transport.race)


class TestDropTracing:
    def test_cast_to_unknown_destination_traces_a_drop(self, net):
        net.register("a", lambda m: None)
        net.cast("a", "ghost", MessageKind.INVOKE, "state")  # must not raise
        dropped = [e for e in net.trace.events() if e.dropped]
        assert len(dropped) == 1
        assert dropped[0].kind == "INVOKE"
        assert dropped[0].dst == "ghost"


class TestAtMostOnce:
    def test_duplicate_retransmission_executes_handler_once(self, net):
        """Two concurrent transmissions of one message id (a retry racing
        the delayed original) must run the handler exactly once."""
        started = threading.Event()
        release = threading.Event()
        calls = []

        def slow_handler(message):
            calls.append(message.msg_id)
            started.set()
            release.wait(5)
            return "slow"

        net.register("a", lambda m: None)
        net.register("b", slow_handler)
        message = Message(kind=MessageKind.PING, src="a", dst="b")
        replies = []

        def transmit():
            replies.append(net._transmit_async(message).result())

        original = threading.Thread(target=transmit)
        original.start()
        assert started.wait(5)
        retransmission = threading.Thread(target=transmit)
        retransmission.start()
        time.sleep(0.1)  # the duplicate reaches the server mid-flight
        release.set()
        original.join(5)
        retransmission.join(5)
        assert len(calls) == 1
        assert replies == ["slow", "slow"]

    def test_a_node_replays_any_of_its_last_4096_replies(self, net):
        """The documented window is exact: past 4096 replies, a
        retransmission of any of the most recent 4096 replays its reply
        without re-executing, and only older ones have been forgotten."""
        from repro.net.transport import Transport

        net.register("b", lambda m: m.payload)
        cache = net._server("b").reply_cache
        calls = []

        def handler(message):
            calls.append(message.msg_id)
            return message.payload

        messages = [Message(kind=MessageKind.PING, src="a", dst="b", payload=i)
                    for i in range(4096 + 256)]
        for message in messages:
            Transport.execute_handler(message, handler, cache)
        calls.clear()
        for message in messages[-4096:]:
            reply = Transport.execute_handler(message, handler, cache)
            assert reply.value == message.payload
        assert calls == []
        assert len(cache) == 4096
        Transport.execute_handler(messages[-4097], handler, cache)
        assert calls == [messages[-4097].msg_id]


class TestSharedTablesUnderLoad:
    def test_many_callers_get_their_own_replies_and_every_table_drains(self):
        """64 callers pipelining on one auto-batched channel, with a short
        switch interval so threads preempt each other inside the tables:
        every future resolves to its own value, and afterwards no sink is
        parked, no batch record is left, and the reply cache is within its
        bound."""
        client, server = TcpNetwork(), TcpNetwork()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            client.register("a", lambda m: None)
            server.register("b", lambda m: m.payload)
            client.connect("b", server.endpoint_of("b"))
            server.connect("a", client.endpoint_of("a"))
            results = {}

            def caller(tid):
                futures = [client.call_async("a", "b", MessageKind.PING, (tid, i))
                           for i in range(50)]
                results[tid] = [f.result(timeout_s=30.0) for f in futures]

            threads = [threading.Thread(target=caller, args=(tid,))
                       for tid in range(64)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert results == {tid: [(tid, i) for i in range(50)]
                               for tid in range(64)}
            assert client.data_plane_metrics().auto_batches > 0
            (channel,) = client._channels.values()
            assert channel._waiters == {}
            assert channel._batch_subs == {}
            assert len(server._server("b").reply_cache) <= 4096
        finally:
            sys.setswitchinterval(interval)
            client.shutdown()
            server.shutdown()

    def test_a_sink_racing_teardown_is_failed_or_refused_never_forgotten(
            self, net):
        """``closed`` is checked under the lock ``park`` takes: a sink
        submitted while the channel is torn down either parked first (and
        the drain failed it) or was refused — none is left parked."""
        from repro.net.message import build_message
        from repro.net.tcpnet import _ChannelClosedError, _PipelinedCallFuture

        net.register("a", lambda m: None)
        net.register("b", lambda m: m.payload)
        net.call("a", "b", MessageKind.PING, "warm")
        (channel,) = net._channels.values()
        underway = threading.Event()
        outcomes = []

        def submitter():
            for i in range(200):
                message = build_message(MessageKind.PING, "a", "b", i)
                sink = _PipelinedCallFuture(message, 5.0)
                try:
                    channel.submit(message, sink)
                except _ChannelClosedError:
                    outcomes.append("refused")
                else:
                    outcomes.append(sink)
                if i == 20:
                    underway.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter) for _ in range(8)]
            for thread in threads:
                thread.start()
            assert underway.wait(5.0)
            channel.close()
            for thread in threads:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(outcomes) == 8 * 200
        assert all(o == "refused" or o.done() for o in outcomes)
        assert channel._waiters == {}
        late = build_message(MessageKind.PING, "a", "b", "late")
        with pytest.raises(_ChannelClosedError):
            channel.submit(late, _PipelinedCallFuture(late, 5.0))
        assert channel._waiters == {}


class TestControlFlowAbort:
    def test_aborted_handler_fails_fast_and_is_not_cached(self, net):
        """A handler dying with KeyboardInterrupt answers the caller with
        an uncached TransportError immediately (no reply-timeout hang);
        a retransmission of the same message id executes afresh."""
        from repro.errors import TransportError

        calls = []

        def interrupted_once(message):
            calls.append(1)
            if len(calls) == 1:
                raise KeyboardInterrupt()
            return "recovered"

        net.register("a", lambda m: None)
        net.register("b", interrupted_once)
        message = Message(kind=MessageKind.PING, src="a", dst="b")
        start = time.time()
        error = net._transmit_async(message).exception()
        assert isinstance(error, TransportError)
        assert "aborted by KeyboardInterrupt" in str(error)
        assert time.time() - start < 5  # failed fast, no timeout wait
        assert net._transmit_async(message).result() == "recovered"
        assert len(calls) == 2


class TestRegisterReplacement:
    def test_replacing_a_live_node_changes_port_and_serves_new_handler(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: "old")
        assert net.call("a", "b", MessageKind.PING) == "old"
        old_port = net.port_of("b")
        net.register("b", lambda m: "new")
        assert net.port_of("b") != old_port
        assert net.call("a", "b", MessageKind.PING) == "new"

    def test_in_flight_call_surfaces_unreachable_on_replacement(self, net):
        entered = threading.Event()
        hold = threading.Event()

        def stuck_handler(message):
            entered.set()
            hold.wait(10)
            return "too late"

        net.register("a", lambda m: None)
        net.register("b", stuck_handler)
        outcome = {}

        def caller():
            try:
                outcome["value"] = net.call("a", "b", MessageKind.PING)
            except NodeUnreachableError:
                outcome["unreachable"] = True

        thread = threading.Thread(target=caller)
        thread.start()
        assert entered.wait(5)
        net.register("b", lambda m: "replacement")  # severs the old server
        thread.join(5)
        hold.set()
        assert outcome == {"unreachable": True}
        # The transport recovers: new calls reach the replacement handler.
        assert net.call("a", "b", MessageKind.PING) == "replacement"


class TestAutoBatchTrace:
    def test_coalesced_calls_are_traced_as_one_batch_frame(self, net):
        """Calls queued behind a round trip still in flight leave in one
        BATCH frame, answered by one reply."""
        started, release = threading.Event(), threading.Event()

        def handler(message):
            if message.payload == "hang":
                started.set()
                release.wait(5.0)
            return message.payload

        net.register("a", lambda m: None)
        net.register("b", handler)
        net.call("a", "b", MessageKind.PING, "warm")
        hung = net.call_async("a", "b", MessageKind.PING, "hang")
        assert started.wait(5.0)
        before = len(net.trace)
        futures = [net.call_async("a", "b", MessageKind.PING, i)
                   for i in range(4)]
        assert [f.result(timeout_s=5.0) for f in futures] == [0, 1, 2, 3]
        assert net.trace.kinds()[before:] == ["BATCH", "REPLY(BATCH)"]
        release.set()
        assert hung.result(timeout_s=5.0) == "hang"


class TestEmulatedLinkLatency:
    """The tc-netem-style ``latency_ms`` knob."""

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            TcpNetwork(latency_ms=-1.0)

    def test_delay_is_charged_per_request(self):
        net = TcpNetwork(latency_ms=50.0)
        try:
            net.register("a", lambda m: None)
            net.register("b", lambda m: m.payload)
            start = time.perf_counter()
            assert net.call("a", "b", MessageKind.PING, 1) == 1
            assert time.perf_counter() - start >= 0.05
        finally:
            net.shutdown()

    def test_delayed_requests_still_pipeline(self):
        """Concurrent futures share the link delay instead of queueing.

        Compared against a measured sequential baseline (not an absolute
        wall-clock bound) so a loaded CI runner cannot flake this."""
        net = TcpNetwork(latency_ms=100.0)
        try:
            net.register("a", lambda m: None)
            net.register("b", lambda m: m.payload)
            net.call("a", "b", MessageKind.PING, -1)  # warm the channel
            start = time.perf_counter()
            for i in range(4):
                assert net.call("a", "b", MessageKind.PING, i) == i
            sequential = time.perf_counter() - start
            start = time.perf_counter()
            futures = [net.call_async("a", "b", MessageKind.PING, i)
                       for i in range(4)]
            assert [f.result() for f in futures] == [0, 1, 2, 3]
            overlapped = time.perf_counter() - start
            assert overlapped < 0.6 * sequential, (sequential, overlapped)
        finally:
            net.shutdown()
