"""Per-rule fixtures: one minimal offender that must flag, one near-miss
that must stay clean.

These tests are the liveness proof the acceptance criteria demand:
deleting (or unregistering) any rule's implementation fails its offender
test here, so a rule cannot silently rot out of the registry.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from magelint.engine import lint_paths
from magelint.rules import ALL_RULES, RULES_BY_ID
from magelint.rules.mage001_lock_blocking import BLOCKING_METHODS
from magelint.rules.mage004_deadline_drop import FANOUT_METHODS

#: Default fixture location: inside the path scope every rule covers.
DEFAULT_REL = "src/repro/runtime/fixture_mod.py"


def lint_snippet(tmp_path: Path, code: str, rel_path: str = DEFAULT_REL,
                 rule: str | None = None):
    """Lint one snippet written at ``rel_path`` under a fake repo root."""
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    run = lint_paths([tmp_path / "src"], root=tmp_path)
    assert not run.parse_errors, run.parse_errors
    if rule is None:
        return run.findings
    return [f for f in run.findings if f.rule == rule]


def test_every_rule_is_registered():
    ids = sorted(rule.id for rule in ALL_RULES)
    assert ids == [f"MAGE{i:03d}" for i in range(1, 12)]
    for rule in ALL_RULES:
        assert rule.title and rule.rationale, f"{rule.id} lacks docs"
        assert rule.explain().startswith(rule.id)


# ---------------------------------------------------------------------------
# MAGE001 — blocking call under a held lock
# ---------------------------------------------------------------------------


def test_mage001_flags_rpc_under_lock(tmp_path):
    findings = lint_snippet(tmp_path, """
        class Mover:
            def ship(self, name, target, payload):
                with self._lock:
                    ack = self._transport.call(self.node_id, target, payload)
                return ack
    """, rule="MAGE001")
    assert len(findings) == 1
    assert "blocks while `self._lock` is held" in findings[0].message


@pytest.mark.parametrize("method", sorted(BLOCKING_METHODS))
def test_mage001_flags_every_listed_blocking_method(tmp_path, method):
    findings = lint_snippet(tmp_path, f"""
        class Holder:
            def step(self, peer):
                with self._lock:
                    value = peer.{method}()
                return value
    """, rule="MAGE001")
    assert len(findings) == 1
    assert "blocks while `self._lock` is held" in findings[0].message


def test_mage001_clean_when_call_moves_outside(tmp_path):
    findings = lint_snippet(tmp_path, """
        import threading

        class Mover:
            def __init__(self):
                self._lock = threading.Lock()
                self._idle = threading.Condition(self._lock)

            def ship(self, name, target, payload):
                with self._lock:
                    self._departing.add(name)      # state flip only
                    self._idle.wait()              # Condition over this lock
                ack = self._transport.call(self.node_id, target, payload)
                with self._cond:
                    self._cond.wait(timeout=1.0)   # held condition: releases
                return ack
    """, rule="MAGE001")
    assert findings == []


def test_mage001_flags_foreign_wait_under_lock(tmp_path):
    findings = lint_snippet(tmp_path, """
        class Pool:
            def drain(self):
                with self._lock:
                    self._done_event.wait()
    """, rule="MAGE001")
    assert len(findings) == 1


# ---------------------------------------------------------------------------
# MAGE002 — error classes must survive the wire
# ---------------------------------------------------------------------------


def test_mage002_flags_multiarg_error_without_reduce(tmp_path):
    findings = lint_snippet(tmp_path, """
        class LockBouncedError(Exception):
            def __init__(self, name, new_location):
                super().__init__(f"{name!r} bounced to {new_location!r}")
                self.name = name
                self.new_location = new_location
    """, rule="MAGE002")
    assert len(findings) == 1
    assert findings[0].symbol == "LockBouncedError"
    assert "__reduce__" in findings[0].message


def test_mage002_clean_with_reduce_or_plain_message(tmp_path):
    findings = lint_snippet(tmp_path, """
        class GoodError(Exception):
            def __init__(self, name, where):
                super().__init__(f"{name!r} at {where!r}")
                self.name, self.where = name, where

            def __reduce__(self):
                return (type(self), (self.name, self.where))

        class PlainError(Exception):
            def __init__(self, message):
                super().__init__(message)

        class PlainRecord:  # not an exception: multi-arg init is fine
            def __init__(self, a, b):
                self.a, self.b = a, b
    """, rule="MAGE002")
    assert findings == []


def test_mage002_flags_formatted_single_arg(tmp_path):
    # One parameter, but formatted before reaching Exception.__init__:
    # the default reduction replays the *formatted* string into __init__,
    # double-wrapping on every hop.
    findings = lint_snippet(tmp_path, """
        class NotBoundishError(Exception):
            def __init__(self, name):
                super().__init__(f"name {name!r} is not bound")
                self.name = name
    """, rule="MAGE002")
    assert len(findings) == 1


# ---------------------------------------------------------------------------
# MAGE003 — BaseException swallowing
# ---------------------------------------------------------------------------


def test_mage003_flags_swallowed_baseexception_and_bare_except(tmp_path):
    findings = lint_snippet(tmp_path, """
        def run_job(fn):
            try:
                fn()
            except BaseException:
                pass

        def run_other(fn):
            try:
                fn()
            except:
                return None
    """, rule="MAGE003")
    assert len(findings) == 2
    assert any("bare" in f.message for f in findings)


def test_mage003_clean_on_cleanup_then_reraise(tmp_path):
    findings = lint_snippet(tmp_path, """
        def guarded(fn, locks, name):
            try:
                fn()
            except BaseException:
                locks.abort_departure(name)
                raise
            try:
                fn()
            except Exception:
                pass  # narrow catch: interrupts pass through
    """, rule="MAGE003")
    assert findings == []


def test_mage003_nested_def_raise_does_not_count(tmp_path):
    findings = lint_snippet(tmp_path, """
        def sneaky(fn):
            try:
                fn()
            except BaseException:
                def helper():
                    raise
                return helper
    """, rule="MAGE003")
    assert len(findings) == 1


def test_mage003_offers_fix_suggestion(tmp_path):
    findings = lint_snippet(tmp_path, """
        def run_job(fn):
            try:
                fn()
            except BaseException:
                pass
    """, rule="MAGE003")
    assert len(findings) == 1
    assert "-    except BaseException:" in findings[0].suggestion
    assert "+    except Exception:" in findings[0].suggestion


# ---------------------------------------------------------------------------
# MAGE004 — fan-outs must thread deadline=
# ---------------------------------------------------------------------------


def test_mage004_flags_deadlineless_fanout_in_cluster(tmp_path):
    findings = lint_snippet(tmp_path, """
        def sweep(self, node_ids, kind, payload):
            futures = self.scatter(node_ids, kind, payload)
            return futures
    """, rel_path="src/repro/cluster/fixture_sweep.py", rule="MAGE004")
    assert len(findings) == 1
    assert "deadline=" in findings[0].message


@pytest.mark.parametrize("method", sorted(FANOUT_METHODS))
def test_mage004_flags_every_listed_fanout_method(tmp_path, method):
    findings = lint_snippet(tmp_path, f"""
        def sweep(self, node_ids, kind, payload, deadline=None):
            flagged = self.{method}(node_ids, kind, payload)
            threaded = self.{method}(node_ids, kind, payload, deadline=deadline)
            return flagged, threaded
    """, rel_path="src/repro/cluster/fixture_sweep.py", rule="MAGE004")
    assert len(findings) == 1
    assert findings[0].line == 3
    assert "deadline=" in findings[0].message


def test_mage004_clean_with_deadline_or_outside_scope(tmp_path):
    clean_in_scope = lint_snippet(tmp_path, """
        def sweep(self, node_ids, kind, payload, deadline=None):
            explicit = self.scatter(node_ids, kind, payload, deadline=deadline)
            deliberate = self.gather(explicit.values(), deadline=None)
            return deliberate
    """, rel_path="src/repro/cluster/fixture_ok.py", rule="MAGE004")
    assert clean_in_scope == []
    out_of_scope = lint_snippet(tmp_path, """
        def sweep(self, node_ids, kind, payload):
            return self.scatter(node_ids, kind, payload)
    """, rel_path="src/repro/bench/fixture_bench.py", rule="MAGE004")
    assert out_of_scope == []


# ---------------------------------------------------------------------------
# MAGE005 — wall clock in timing code
# ---------------------------------------------------------------------------


def test_mage005_flags_wall_clock_in_net(tmp_path):
    findings = lint_snippet(tmp_path, """
        import time

        def lease_expired(granted_at, ttl_s):
            return time.time() - granted_at > ttl_s
    """, rel_path="src/repro/net/fixture_lease.py", rule="MAGE005")
    assert len(findings) == 1
    assert "time.monotonic()" in findings[0].suggestion


def test_mage005_clean_on_monotonic_and_outside_scope(tmp_path):
    in_scope = lint_snippet(tmp_path, """
        import time

        def lease_expired(granted_at, ttl_s):
            return time.monotonic() - granted_at > ttl_s
    """, rel_path="src/repro/net/fixture_mono.py", rule="MAGE005")
    assert in_scope == []
    bench_code = lint_snippet(tmp_path, """
        import time

        def stamp_results():
            return time.time()  # display timestamp: fine outside the scope
    """, rel_path="src/repro/bench/fixture_stamp.py", rule="MAGE005")
    assert bench_code == []


# ---------------------------------------------------------------------------
# MAGE006 — MessageKind exhaustiveness (whole-program)
# ---------------------------------------------------------------------------

_ENUM = """
    import enum

    class MessageKind(enum.Enum):
        INVOKE = "INVOKE"
        GOSSIP = "GOSSIP"
        REPLY = "REPLY"
        BATCH = "BATCH"
"""


def test_mage006_flags_unhandled_kind(tmp_path):
    (tmp_path / "src/repro/net").mkdir(parents=True)
    (tmp_path / "src/repro/net/message.py").write_text(textwrap.dedent(_ENUM))
    (tmp_path / "src/repro/runtime").mkdir(parents=True)
    (tmp_path / "src/repro/runtime/external.py").write_text(textwrap.dedent("""
        from repro.net.message import MessageKind

        class Dispatcher:
            def __init__(self):
                self._handlers = {
                    MessageKind.INVOKE: self._on_invoke,
                }
    """))
    run = lint_paths([tmp_path / "src"], root=tmp_path)
    findings = [f for f in run.findings if f.rule == "MAGE006"]
    assert [f.symbol for f in findings] == ["GOSSIP"]  # REPLY/BATCH exempt


def test_mage006_clean_when_every_kind_handled(tmp_path):
    (tmp_path / "src/repro/net").mkdir(parents=True)
    (tmp_path / "src/repro/net/message.py").write_text(textwrap.dedent(_ENUM))
    (tmp_path / "src/repro/runtime").mkdir(parents=True)
    (tmp_path / "src/repro/runtime/external.py").write_text(textwrap.dedent("""
        from repro.net.message import MessageKind

        class Dispatcher:
            def __init__(self):
                self._handlers = {
                    MessageKind.INVOKE: self._on_invoke,
                    MessageKind.GOSSIP: self._on_gossip,
                }
    """))
    run = lint_paths([tmp_path / "src"], root=tmp_path)
    assert [f for f in run.findings if f.rule == "MAGE006"] == []


def test_mage006_flags_ad_hoc_payload_class(tmp_path):
    (tmp_path / "src/repro/net").mkdir(parents=True)
    (tmp_path / "src/repro/net/message.py").write_text(textwrap.dedent(_ENUM))
    (tmp_path / "src/repro/rmi").mkdir(parents=True)
    (tmp_path / "src/repro/rmi/protocol.py").write_text(textwrap.dedent("""
        class InvokeRequest:
            pass
    """))
    (tmp_path / "src/repro/runtime").mkdir(parents=True)
    (tmp_path / "src/repro/runtime/caller.py").write_text(textwrap.dedent("""
        from repro.net.message import MessageKind

        class GossipDigest:   # defined here, NOT in rmi/protocol.py
            pass

        class Sender:
            def __init__(self):
                self._handlers = {
                    MessageKind.INVOKE: self._on_invoke,
                    MessageKind.GOSSIP: self._on_gossip,
                }

            def poke(self, transport, peer):
                transport.call("me", peer, MessageKind.GOSSIP, GossipDigest())
                transport.call("me", peer, MessageKind.INVOKE, InvokeRequest())
    """))
    run = lint_paths([tmp_path / "src"], root=tmp_path)
    symbols = {f.symbol for f in run.findings if f.rule == "MAGE006"}
    assert symbols == {"GOSSIP:GossipDigest"}


# ---------------------------------------------------------------------------
# MAGE007 — shared containers stay under their owning lock
# ---------------------------------------------------------------------------


def test_mage007_flags_unguarded_mutation(tmp_path):
    findings = lint_snippet(tmp_path, """
        import threading

        class AddressBook:
            def __init__(self):
                self._lock = threading.Lock()
                self._endpoints = {}

            def connect(self, node_id, endpoint):
                with self._lock:
                    self._endpoints[node_id] = endpoint

            def forget(self, node_id):
                self._endpoints.pop(node_id, None)
    """, rule="MAGE007")
    assert len(findings) == 1
    assert findings[0].symbol == "AddressBook.forget:_endpoints"


def test_mage007_clean_under_lock_and_locked_convention(tmp_path):
    findings = lint_snippet(tmp_path, """
        import threading

        class AddressBook:
            def __init__(self):
                self._lock = threading.Lock()
                self._endpoints = {}
                self._endpoints["seed"] = None   # constructor fill: unshared

            def connect(self, node_id, endpoint):
                with self._lock:
                    self._endpoints[node_id] = endpoint

            def forget(self, node_id):
                with self._lock:
                    self._forget_locked(node_id)

            def _forget_locked(self, node_id):
                self._endpoints.pop(node_id, None)

            def local_scratch(self):
                scratch = {}
                scratch["x"] = 1   # not a shared attribute
                return scratch
    """, rule="MAGE007")
    assert findings == []


def test_mage007_never_guarded_attr_is_not_flagged(tmp_path):
    # A container the class never locks has no inferred owner: locking
    # discipline is learned from the class's own code, not imposed.
    findings = lint_snippet(tmp_path, """
        class Unshared:
            def __init__(self):
                self._stuff = {}

            def put(self, k, v):
                self._stuff[k] = v
    """, rule="MAGE007")
    assert findings == []


# ---------------------------------------------------------------------------
# MAGE008 — wire-codec payload coverage (whole-program)
# ---------------------------------------------------------------------------

_PROTOCOL = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class InvokeRequest:
        name: str

    @dataclass(frozen=True)
    class GossipDigest:
        entries: "tuple[str, ...]"

    class NotAPayload:   # plain class: outside the dataclass vocabulary
        pass
"""


def _write_wire_fixture(tmp_path, codec_source: str | None) -> set[str]:
    (tmp_path / "src/repro/rmi").mkdir(parents=True)
    (tmp_path / "src/repro/rmi/protocol.py").write_text(
        textwrap.dedent(_PROTOCOL))
    (tmp_path / "src/repro/net").mkdir(parents=True)
    (tmp_path / "src/repro/net/message.py").write_text(textwrap.dedent("""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class ReplyPayload:
            value: object = None
    """))
    if codec_source is not None:
        (tmp_path / "src/repro/net/wirecodec.py").write_text(
            textwrap.dedent(codec_source))
    run = lint_paths([tmp_path / "src"], root=tmp_path)
    return {f.symbol for f in run.findings if f.rule == "MAGE008"}


def test_mage008_flags_unregistered_payload(tmp_path):
    symbols = _write_wire_fixture(tmp_path, """
        from repro.rmi import protocol
        from repro.net.message import ReplyPayload

        REGISTERED_PAYLOADS = (
            protocol.InvokeRequest,
            ReplyPayload,
        )
    """)
    assert symbols == {"GossipDigest"}


def test_mage008_clean_when_registered(tmp_path):
    symbols = _write_wire_fixture(tmp_path, """
        from repro.rmi import protocol
        from repro.net.message import ReplyPayload

        REGISTERED_PAYLOADS: "tuple[type, ...]" = (
            protocol.InvokeRequest,
            protocol.GossipDigest,
            ReplyPayload,
        )
    """)
    assert symbols == set()


def test_mage008_accepts_no_other_registry(tmp_path):
    symbols = _write_wire_fixture(tmp_path, """
        from repro.rmi import protocol
        from repro.net.message import ReplyPayload

        REGISTERED_PAYLOADS = (protocol.InvokeRequest, ReplyPayload)
        PICKLE_FALLBACK = (protocol.GossipDigest,)
    """)
    assert symbols == {"GossipDigest"}


def test_mage008_silent_without_codec_module(tmp_path):
    # Linting a subtree that has no wirecodec.py (e.g. the magelint
    # self-check) must not demand coverage from thin air.
    assert _write_wire_fixture(tmp_path, None) == set()


def test_mage008_real_registry_covers_real_protocol():
    from repro.net import wirecodec
    from repro.rmi import protocol as real_protocol

    names = {cls.__name__ for cls in wirecodec.REGISTERED_PAYLOADS}
    import dataclasses
    declared = {
        name for name, obj in vars(real_protocol).items()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == real_protocol.__name__
    }
    assert declared <= names
    assert "ReplyPayload" in names


# ---------------------------------------------------------------------------
# MAGE009 — blocking call in an inline-declared handler
# ---------------------------------------------------------------------------


def test_mage009_flags_blocking_declared_handler(tmp_path):
    findings = lint_snippet(tmp_path, """
        class Server:
            @inline_safe
            def handle(self, message):
                self._ready.wait(5.0)
                return self._handlers[message.kind](message.payload)
    """, rel_path="src/repro/net/fixture_inline.py", rule="MAGE009")
    assert len(findings) == 1
    assert "reactor loop thread" in findings[0].message
    assert findings[0].symbol.endswith("wait")


def test_mage009_follows_inline_dispatch_targets(tmp_path):
    """The declaration covers the methods the dispatch table puts on
    the loop, not just the decorated entry point itself."""
    findings = lint_snippet(tmp_path, """
        import time

        class Server:
            def __init__(self):
                self._handlers = {
                    MessageKind.PING: self._on_ping,
                    MessageKind.INVOKE: self._on_invoke,
                }

            @inline_safe
            def handle(self, message):
                return self._handlers[message.kind](message.payload)

            def _on_ping(self, payload):
                time.sleep(0.1)
                return "pong"

            def _on_invoke(self, payload):
                return self._transport.call("a", "b", payload)
    """, rel_path="src/repro/net/fixture_inline.py", rule="MAGE009")
    # _on_ping flags (PING is inline-dispatched); _on_invoke does not
    # (INVOKE never runs on the loop thread).
    assert len(findings) == 1
    assert "_on_ping" in findings[0].symbol
    assert "time.sleep" in findings[0].symbol


def test_mage009_ignores_undeclared_handlers(tmp_path):
    findings = lint_snippet(tmp_path, """
        import time

        class Server:
            def __init__(self):
                self._handlers = {MessageKind.PING: self._on_ping}

            def handle(self, message):   # never declared inline_safe
                return self._handlers[message.kind](message.payload)

            def _on_ping(self, payload):
                time.sleep(0.1)
                return "pong"
    """, rel_path="src/repro/net/fixture_inline.py", rule="MAGE009")
    assert findings == []


def test_mage009_clean_nonblocking_handler(tmp_path):
    findings = lint_snippet(tmp_path, """
        class Server:
            def __init__(self):
                self._handlers = {MessageKind.PING: self._on_ping}

            @inline_safe
            def handle(self, message):
                return self._handlers[message.kind](message.payload)

            def _on_ping(self, payload):
                return "pong"
    """, rel_path="src/repro/net/fixture_inline.py", rule="MAGE009")
    assert findings == []


def test_mage009_members_mirror_runtime_inline_kinds():
    """The rule's hardcoded member set must track INLINE_KINDS: growing
    the allowlist without growing the lint check would leave new kinds'
    handlers unchecked."""
    from repro.net.message import INLINE_KINDS

    from magelint.rules.mage009_inline_blocking import INLINE_MEMBERS

    assert INLINE_MEMBERS == {kind.name for kind in INLINE_KINDS}


# ---------------------------------------------------------------------------
# MAGE010 — direct servant-method calls outside the sanctioned bypass
# ---------------------------------------------------------------------------


def test_mage010_flags_direct_servant_call(tmp_path):
    findings = lint_snippet(tmp_path, """
        class Sneaky:
            def poke(self, name):
                servant = self._store.get(name)
                return servant.update(self._pending)
    """, rule="MAGE010")
    assert len(findings) == 1
    assert findings[0].symbol == "servant.update"
    assert "copy semantics" in findings[0].message


def test_mage010_flags_record_obj_chain(tmp_path):
    findings = lint_snippet(tmp_path, """
        class Sneakier:
            def poke(self, name):
                record = self._store.lookup(name)
                return record.obj.refresh()
    """, rule="MAGE010")
    assert len(findings) == 1


def test_mage010_clean_near_misses(tmp_path):
    findings = lint_snippet(tmp_path, """
        class Honest:
            def lookup_only(self, name):
                # Pulling the servant out without calling it: migration
                # and pickling paths do this legitimately.
                return self._store.get(name)

            def via_invoker(self, name, args, kwargs):
                # The sanctioned dispatch: isolation happens inside.
                return self._invoker.dispatch(name, "update", args, kwargs)

            def unrelated_get(self, name):
                # A .get() on something that is not an object store.
                entry = self._cache.get(name)
                return entry.refresh()
    """, rule="MAGE010")
    assert findings == []


def test_mage010_sanctioned_modules_stay_clean(tmp_path):
    findings = lint_snippet(tmp_path, """
        class LocalDispatch:
            def _handle(self, name, method, args, kwargs):
                servant = self._store.get(name)
                return servant.update(args)
    """, rel_path="src/repro/rmi/bypass.py", rule="MAGE010")
    assert findings == []


# ---------------------------------------------------------------------------
# MAGE011 — per-object Python hook on a pickler
# ---------------------------------------------------------------------------


def test_mage011_flags_persistent_id_on_pickler_subclass(tmp_path):
    findings = lint_snippet(tmp_path, """
        import pickle

        class WirePickler(pickle.Pickler):
            def persistent_id(self, obj):
                return None

        class TracingPickler(WirePickler):
            def persistent_id(self, obj):
                return super().persistent_id(obj)
    """, rel_path="src/repro/rmi/fixture_pickler.py", rule="MAGE011")
    assert [f.symbol for f in findings] == [
        "WirePickler.persistent_id", "TracingPickler.persistent_id"]
    assert "reducer_override" in findings[0].message


def test_mage011_clean_near_misses(tmp_path):
    findings = lint_snippet(tmp_path, """
        import pickle

        class WirePickler(pickle.Pickler):
            # The sanctioned hook: only non-builtin objects reach it.
            def reducer_override(self, obj):
                return NotImplemented

        class WireUnpickler(pickle.Unpickler):
            # Called once per PERSID opcode, not per object.
            def persistent_load(self, pid):
                raise pickle.UnpicklingError(pid)

        class Catalogue:
            # Same name, not a pickler.
            def persistent_id(self, obj):
                return id(obj)
    """, rel_path="src/repro/rmi/fixture_pickler.py", rule="MAGE011")
    assert findings == []
    # Outside src/ (a test building an old-dialect blob) is out of scope.
    helper = tmp_path / "tools" / "old_dialect.py"
    helper.parent.mkdir()
    helper.write_text(textwrap.dedent("""
        import pickle

        class OldDialectPickler(pickle.Pickler):
            def persistent_id(self, obj):
                return None
    """))
    run = lint_paths([helper.parent], root=tmp_path)
    assert [f for f in run.findings if f.rule == "MAGE011"] == []


# ---------------------------------------------------------------------------
# Inline suppression
# ---------------------------------------------------------------------------


def test_inline_disable_suppresses_only_named_rule(tmp_path):
    findings = lint_snippet(tmp_path, """
        def run_job(fn):
            try:
                fn()
            except BaseException:  # magelint: disable=MAGE003(worker thread; failure owned by peer)
                pass
    """)
    assert [f for f in findings if f.rule == "MAGE003"] == []


def test_inline_disable_for_other_rule_does_not_mask(tmp_path):
    findings = lint_snippet(tmp_path, """
        def run_job(fn):
            try:
                fn()
            except BaseException:  # magelint: disable=MAGE001(wrong rule named)
                pass
    """, rule="MAGE003")
    assert len(findings) == 1
