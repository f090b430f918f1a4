"""Scatter-gather runtime operations: class fan-out, sweeps, parallel find.

These run over the simulated network, where futures complete eagerly —
the tests pin the *semantics* (results, message counts, failure handling);
the TCP overlap itself is exercised in tests/net/test_call_future.py and
measured in benchmarks/test_async_fanout.py.
"""

from collections import Counter as Tally

import pytest

from repro.bench.workloads import Counter, PrintServer
from repro.errors import ClassTransferError, ComponentNotFoundError
from repro.net.message import MessageKind
from repro.rmi.protocol import ClassPush


class TestConditionalPush:
    def test_scattered_push_is_one_round_trip_cold(self, pair):
        pair["alpha"].register_class(Counter)
        server = pair["alpha"].namespace.server
        before = pair.trace.remote_message_count()
        server.push_class_many("Counter", ["beta"])
        assert pair.trace.remote_message_count() - before == 2
        assert pair.trace.kinds(remote_only=True)[-2:] == [
            "CLASS_TRANSFER", "REPLY(CLASS_TRANSFER)"]
        assert pair["beta"].namespace.classcache.has_class("Counter")

    def test_scattered_push_is_one_round_trip_warm(self, pair):
        pair["alpha"].register_class(Counter)
        server = pair["alpha"].namespace.server
        server.push_class_many("Counter", ["beta"])
        clone = pair["beta"].namespace.classcache.resolve("Counter")
        before = pair.trace.remote_message_count()
        server.push_class_many("Counter", ["beta"])
        assert pair.trace.remote_message_count() - before == 2
        # The conditional push against a warm cache kept the existing clone.
        assert pair["beta"].namespace.classcache.resolve("Counter") is clone

    def test_default_push_keeps_the_paper_sequence(self, pair):
        """Probe + body on a cold cache (Figure 1c's REV shape)."""
        pair["alpha"].register_class(Counter)
        before = pair.trace.remote_message_count()
        pair["alpha"].namespace.server.push_class("Counter", "beta")
        assert pair.trace.remote_message_count() - before == 4

    def test_one_conditional_push_carries_the_body(self, pair, monkeypatch):
        """No probe goes first: the one request holds the class body and
        asks the target to install it only on a miss."""
        pair["alpha"].register_class(Counter)
        sent = []
        call_async = pair.transport.call_async

        def spy(src, dst, kind, payload=None, **kwargs):
            sent.append((kind, payload))
            return call_async(src, dst, kind, payload, **kwargs)

        monkeypatch.setattr(pair.transport, "call_async", spy)
        pair["alpha"].namespace.server.push_class_many("Counter", ["beta"])
        ((kind, push),) = sent
        assert kind is MessageKind.CLASS_TRANSFER
        assert isinstance(push, ClassPush)
        assert push.only_if_missing
        assert push.desc == pair["alpha"].namespace.classcache.descriptor(
            "Counter")

    def test_a_push_to_itself_sends_nothing(self, pair):
        pair["alpha"].register_class(Counter)
        server = pair["alpha"].namespace.server
        before = pair.trace.remote_message_count()
        hashes = server.push_class_many("Counter", ["alpha"])
        assert hashes == {"alpha": pair["alpha"].namespace.classcache
                          .descriptor("Counter").source_hash}
        assert pair.trace.remote_message_count() == before

    def test_scattered_class_is_instantiable_at_target(self, pair):
        pair["alpha"].register_class(Counter)
        pair["alpha"].namespace.server.push_class_many("Counter", ["beta"])
        ref = pair["alpha"].namespace.instantiate("Counter", "c1", "beta")
        stub = pair["alpha"].stub("c1")
        assert ref.node_id == "beta"
        assert stub.increment() == 1


class TestPushClassMany:
    def test_fans_out_to_every_target(self, quad):
        quad["alpha"].register_class(PrintServer)
        server = quad["alpha"].namespace.server
        hashes = server.push_class_many("PrintServer", ["beta", "gamma", "delta"])
        expected = quad["alpha"].namespace.classcache.descriptor(
            "PrintServer"
        ).source_hash
        assert hashes == {"beta": expected, "gamma": expected, "delta": expected}
        for target in ("beta", "gamma", "delta"):
            assert quad[target].namespace.classcache.has_class("PrintServer")

    def test_costs_one_round_trip_per_target(self, quad):
        quad["alpha"].register_class(Counter)
        before = quad.trace.remote_message_count()
        quad["alpha"].namespace.server.push_class_many(
            "Counter", ["beta", "gamma", "delta"]
        )
        assert quad.trace.remote_message_count() - before == 6
        assert quad.trace.kinds(remote_only=True)[-6:] == [
            "CLASS_TRANSFER", "REPLY(CLASS_TRANSFER)"] * 3

    def test_no_targets_sends_nothing(self, quad):
        quad["alpha"].register_class(Counter)
        before = len(quad.trace.events())
        assert quad["alpha"].namespace.server.push_class_many(
            "Counter", []) == {}
        assert len(quad.trace.events()) == before

    def test_fans_out_over_tcp_one_round_trip_per_target(self, make_cluster):
        """Real sockets: the pushes overlap, so their frames may
        interleave, but each target still costs one request and one
        reply, and a second scatter keeps every target's class."""
        tcp = make_cluster(["alpha", "beta", "gamma", "delta"],
                           transport="tcp")
        tcp["alpha"].register_class(Counter)
        server = tcp["alpha"].namespace.server
        targets = ["beta", "gamma", "delta"]
        before = len(tcp.trace.kinds(remote_only=True))
        server.push_class_many("Counter", targets)
        assert Tally(tcp.trace.kinds(remote_only=True)[before:]) == Tally(
            {"CLASS_TRANSFER": 3, "REPLY(CLASS_TRANSFER)": 3})
        clones = {t: tcp[t].namespace.classcache.resolve("Counter")
                  for t in targets}
        server.push_class_many("Counter", targets)
        for target in targets:
            assert tcp[target].namespace.classcache.resolve(
                "Counter") is clones[target]

    def test_dead_target_raises_after_gathering_all(self, quad):
        quad["alpha"].register_class(Counter)
        quad.crash("gamma")
        with pytest.raises(ClassTransferError, match="gamma"):
            quad["alpha"].namespace.server.push_class_many(
                "Counter", ["beta", "gamma", "delta"]
            )
        # The healthy targets still received the class.
        assert quad["beta"].namespace.classcache.has_class("Counter")
        assert quad["delta"].namespace.classcache.has_class("Counter")


class TestSweeps:
    def test_query_load_many_matches_individual_queries(self, trio):
        trio["alpha"].set_load(10.0)
        trio["beta"].set_load(50.0)
        trio["gamma"].set_load(90.0)
        server = trio["alpha"].namespace.server
        loads = server.query_load_many(["alpha", "beta", "gamma"])
        assert loads == {"alpha": 10.0, "beta": 50.0, "gamma": 90.0}

    def test_query_load_many_skip_unreachable(self, trio):
        trio["beta"].set_load(50.0)
        trio["gamma"].set_load(90.0)
        trio.crash("beta")
        server = trio["alpha"].namespace.server
        loads = server.query_load_many(
            ["alpha", "beta", "gamma"], skip_unreachable=True
        )
        assert set(loads) == {"alpha", "gamma"}

    def test_query_load_many_strict_raises(self, trio):
        trio.crash("beta")
        server = trio["alpha"].namespace.server
        with pytest.raises(Exception):
            server.query_load_many(["alpha", "beta", "gamma"])

    def test_ping_many_marks_dead_hosts(self, trio):
        trio.crash("gamma")
        server = trio["alpha"].namespace.server
        assert server.ping_many(["alpha", "beta", "gamma"]) == {
            "alpha": True, "beta": True, "gamma": False,
        }

    def test_scatter_returns_one_future_per_target(self, trio):
        futures = trio["alpha"].namespace.server.scatter(
            ["beta", "gamma"], MessageKind.PING
        )
        assert set(futures) == {"beta", "gamma"}
        assert all(f.result() == "pong" for f in futures.values())


class TestLocateAny:
    def test_probes_resolve_a_moved_component(self, quad):
        quad["alpha"].register("doc", Counter())
        quad["alpha"].move("doc", "gamma")
        # delta never heard of the component; parallel probes still find it.
        server = quad["delta"].namespace.server
        assert server.locate_any("doc", ["alpha", "beta", "gamma"]) == "gamma"
        # The winning answer was recorded for the next local find.
        assert quad["delta"].namespace.registry.forwarding_hint("doc") == "gamma"

    def test_candidates_parameter_on_find(self, quad):
        quad["beta"].register("svc", PrintServer())
        location = quad["delta"].find("svc", candidates=quad.node_ids())
        assert location == "beta"

    def test_all_cold_chains_raise(self, trio):
        server = trio["alpha"].namespace.server
        with pytest.raises(ComponentNotFoundError):
            server.locate_any("ghost", ["beta", "gamma"])

    def test_no_candidates_raises(self, trio):
        with pytest.raises(ComponentNotFoundError):
            trio["alpha"].namespace.server.locate_any("ghost", [])

    def test_dead_candidate_does_not_abort_the_probe(self, trio):
        trio["gamma"].register("obj", Counter())
        trio.crash("beta")
        server = trio["alpha"].namespace.server
        assert server.locate_any("obj", ["beta", "gamma"]) == "gamma"

    def test_probes_go_out_in_candidate_order(self, quad):
        quad["beta"].register("doc", Counter())
        quad.trace.clear()
        server = quad["delta"].namespace.server
        assert server.locate_any("doc", ["gamma", "alpha", "beta"]) == "beta"
        probes = [event.arrow() for event in
                  quad.trace.filtered(kinds=["FIND"], remote_only=True)]
        assert probes == ["delta -> gamma: FIND", "delta -> alpha: FIND",
                          "delta -> beta: FIND"]


class TestClassProbeOverlap:
    def test_default_moves_send_no_probe(self, pair):
        pair["alpha"].register("c", Counter())
        pair["alpha"].move("c", "beta")
        probes = pair.trace.filtered(kinds=["CLASS_TRANSFER"], remote_only=True)
        assert probes == []
