"""Marshalling: by-value data, by-reference stubs, mobile-instance refusal."""

import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.rmi.classdesc import describe_class, load_class
from repro.rmi.marshal import (
    _MagePickler,
    _scratch,
    marshal,
    marshal_call,
    marshalled_size,
    unmarshal,
    unmarshal_call,
)
from repro.rmi.stub import RemoteRef, Stub, detached_stub
from repro.bench.workloads import Counter


class TestRoundTrip:
    @pytest.mark.parametrize("value", [
        None,
        42,
        3.14,
        "text",
        b"bytes",
        [1, 2, 3],
        {"k": (1, 2)},
        {1, 2, 3},
        (None, True, False),
    ])
    def test_plain_values(self, value):
        assert unmarshal(marshal(value)) == value

    def test_by_value_semantics(self):
        original = {"list": [1, 2]}
        copy = unmarshal(marshal(original))
        copy["list"].append(3)
        assert original["list"] == [1, 2]

    def test_nested_structures(self):
        value = {"a": [{"b": (1, [2, {"c": 3}])}]}
        assert unmarshal(marshal(value)) == value

    def test_unpicklable_raises_marshal_error(self):
        with pytest.raises(MarshalError):
            marshal(lambda: None)

    def test_size_accounting(self):
        assert marshalled_size(b"x" * 1000) > 1000


class TestBlobForms:
    """``unmarshal`` reads a blob where it lies: bytes, a view, or pieces."""

    VALUE = {"big": bytes(range(256)) * 1200, "ba": bytearray(b"q" * 70_000),
             "tree": [list(range(300)), "s" * 70_000], "n": None}

    @pytest.mark.parametrize("wrap", [
        bytes, bytearray, memoryview,
        lambda blob: memoryview(bytearray(blob)).toreadonly(),
    ], ids=["bytes", "bytearray", "memoryview", "readonly-view"])
    def test_any_buffer(self, wrap):
        assert unmarshal(wrap(marshal(self.VALUE))) == self.VALUE

    @given(piece=st.integers(1, 400_000))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_pieces_of_any_size(self, piece):
        blob = marshal(self.VALUE)
        view = memoryview(blob)
        pieces = [view[i:i + piece] for i in range(0, len(blob), piece)]
        assert unmarshal(pieces) == self.VALUE
        assert unmarshal(tuple(bytes(p) for p in pieces)) == self.VALUE

    def test_result_never_aliases_the_blob(self):
        frame = bytearray(marshal(self.VALUE))
        value = unmarshal(memoryview(frame))
        frame[:] = bytes(len(frame))  # the frame is reused or dropped
        assert value == self.VALUE

    def test_truncated_pieces_raise_with_the_total_size(self):
        blob = marshal(self.VALUE)
        with pytest.raises(MarshalError, match=f"{len(blob) - 3}-byte blob"):
            unmarshal([blob[:1000], memoryview(blob)[1000:-3]])

    def test_stubs_reattach_from_a_view(self):
        stub = detached_stub(RemoteRef("beta", "counter"))
        attached = []
        out = unmarshal(memoryview(marshal([stub])),
                        lambda ref: attached.append(ref) or "live")
        assert out == ["live"] and attached == [stub.ref]

    def test_text_protocol_pickles_read_through_readline(self):
        # Not what marshal writes, but the reader is a complete file.
        blob = pickle.dumps({"k": [1, 2.5, "s"]}, protocol=0)
        assert unmarshal([blob[:7], blob[7:]]) == {"k": [1, 2.5, "s"]}


class TestStubTransport:
    def test_stub_travels_as_ref(self):
        ref = RemoteRef(node_id="beta", name="counter")
        stub = detached_stub(ref)
        blob = marshal({"the_stub": stub})

        seen_refs = []

        def factory(incoming_ref):
            seen_refs.append(incoming_ref)
            return detached_stub(incoming_ref)

        result = unmarshal(blob, factory)
        assert seen_refs == [ref]
        assert result["the_stub"].ref == ref

    def test_default_factory_gives_detached_stub(self):
        from repro.rmi.stub import DetachedStubError

        ref = RemoteRef(node_id="beta", name="counter")
        stub = unmarshal(marshal(detached_stub(ref)))
        assert isinstance(stub, Stub)
        with pytest.raises(DetachedStubError):
            stub.increment()

    def test_raw_pickle_of_stub_is_refused(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            pickle.dumps(detached_stub(RemoteRef("a", "x")))


class TestMobileInstanceRefusal:
    def test_mobile_instance_cannot_marshal(self):
        desc = describe_class(Counter)
        clone = load_class(desc, "testns")
        instance = clone(5)
        with pytest.raises(MarshalError, match="mobile"):
            marshal(instance)

    def test_native_instance_marshals_fine(self):
        # The original (non-clone) class is an ordinary picklable object.
        restored = unmarshal(marshal(Counter(5)))
        assert restored.get() == 5


class TestCallBlobs:
    def test_args_kwargs_round_trip(self):
        blob = marshal_call((1, "two"), {"three": 3})
        args, kwargs = unmarshal_call(blob)
        assert args == (1, "two")
        assert kwargs == {"three": 3}

    def test_empty_call(self):
        args, kwargs = unmarshal_call(marshal_call((), {}))
        assert args == ()
        assert kwargs == {}

    def test_rejects_non_call_blob(self):
        with pytest.raises(MarshalError):
            unmarshal_call(marshal("not a call"))


def _mobile_instance():
    return load_class(describe_class(Counter), "testns")(5)


def _nest(value, depth):
    for _ in range(depth):
        value = [value]
    return value


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20)
)
_HASHABLE = st.integers() | st.text(max_size=8) | st.binary(max_size=8)


def primitive_trees():
    """Exact-builtin trees: every container kind, unbounded width/depth."""
    return st.recursive(
        _SCALARS,
        lambda children: st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(_HASHABLE, children)
        | st.sets(_HASHABLE)
        | st.frozensets(_HASHABLE),
        max_leaves=200,
    )


class _CountingPickler(_MagePickler):
    """Counts the Python-level hook calls one dump costs."""

    def __init__(self):
        self.buffer = io.BytesIO()
        super().__init__(self.buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.hook_calls = 0

    def reducer_override(self, obj):
        self.hook_calls += 1
        return super().reducer_override(obj)

    @classmethod
    def count(cls, value) -> int:
        pickler = cls()
        pickler.dump(value)
        return pickler.hook_calls


class TestHookFreeBoundary:
    """The marshal boundary consults Python only for non-builtin objects."""

    @given(primitive_trees())
    @settings(max_examples=200)
    def test_primitive_trees_are_plain_pickle(self, value):
        blob = marshal(value)
        assert blob == pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        assert unmarshal(blob) == value
        assert _CountingPickler.count(value) == 0

    def test_no_hook_call_for_the_5000_int_list(self):
        assert _CountingPickler.count(list(range(5000))) == 0

    def test_hook_calls_depend_on_non_builtins_only(self):
        stub = detached_stub(RemoteRef("beta", "counter"))
        alone = _CountingPickler.count(stub)
        assert alone > 0
        assert _CountingPickler.count(list(range(5000)) + [stub]) == alone
        # A second reference is a memo hit, not a second visit.
        assert _CountingPickler.count([stub, list(range(5000)), stub]) == alone

    def test_deep_stub_in_wide_list_reattaches_once(self):
        ref = RemoteRef("beta", "counter")
        stub = detached_stub(ref)
        value = list(range(5000))
        value[2500] = _nest(stub, 6)
        value[4000] = stub
        seen = []

        def factory(incoming):
            seen.append(incoming)
            return detached_stub(incoming)

        result = unmarshal(marshal(value), factory)
        assert seen == [ref]
        deep = result[2500]
        for _ in range(6):
            (deep,) = deep
        assert deep.ref == ref
        assert result[4000] is deep
        assert result[:2500] == list(range(2500))

    def test_mobile_instance_refused_at_any_depth(self):
        instance = _mobile_instance()

        class Bag(list):
            pass

        class Label(str):
            pass

        label = Label("tag")
        label.owner = instance
        wide = {f"k{i}": i for i in range(200)}
        wide["k137"] = [(instance,)]
        for hiding_place in (wide, Bag([1, instance]), label,
                             _nest(instance, 6)):
            with pytest.raises(MarshalError, match="mobile"):
                marshal(hiding_place)

    def test_builtin_subclasses_still_reach_the_hook(self):
        import collections

        value = collections.OrderedDict(a=1, b=[2, 3])
        assert _CountingPickler.count(value) > 0
        assert unmarshal(marshal(value)) == value

    def test_failed_marshal_leaves_the_thread_pickler_clean(self):
        big = b"x" * (1 << 17)  # large enough to be flushed mid-dump
        with pytest.raises(MarshalError):
            marshal([big, list(range(100)), _mobile_instance()])
        value = {"after": [1, 2, 3]}
        assert marshal(value) == pickle.dumps(value, pickle.HIGHEST_PROTOCOL)

    def test_old_persid_blob_fails_loudly(self):
        ref = RemoteRef("beta", "counter")
        # What the persistent-id dialect emitted: ("stub", ref) BINPERSID.
        blob = pickle.dumps(("stub", ref), 2)[:-1] + b"Q."
        with pytest.raises(MarshalError, match="persistent"):
            unmarshal(blob)

    def test_stub_sentinel_outside_unmarshal_fails_loudly(self):
        blob = marshal(detached_stub(RemoteRef("beta", "counter")))
        with pytest.raises(MarshalError, match="unmarshal"):
            pickle.loads(blob)

    def test_reentrant_marshal_uses_a_fresh_pickler(self):
        busy_inside = []
        assert unmarshal(marshal(["before", _Nested({"k": [1, 2]}, busy_inside),
                                  "after"])) == [
            "before", {"k": [1, 2]}, "after"]
        assert busy_inside == [True]
        assert not _scratch.busy


class _Nested:
    """Marshals its own state from inside ``__reduce__`` (reentrancy)."""

    def __init__(self, state, busy_inside):
        self.state = state
        self.busy_inside = busy_inside

    def __reduce__(self):
        self.busy_inside.append(_scratch.busy)
        return unmarshal, (marshal(self.state),)
