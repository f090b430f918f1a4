"""The schema-compiled binary wire codec and its format digest.

Two layers of coverage:

* **Codec properties** — every registered payload dataclass round-trips
  through its generated encoder/decoder (including edge values: long
  strings, out-of-band blobs, i64 overflow, subclasses), and the tagged
  value encoding round-trips arbitrary primitive trees (hypothesis).
* **Over real sockets** — two transports that share nothing but a
  connection exchange every registered payload, in both directions, as
  binary envelopes.  (What happens when the digests differ is
  ``tests/net/test_handshake.py``'s subject.)
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import wirecodec
from repro.net.deadline import Deadline
from repro.net.endpoint import PROTOCOL_VERSION, Hello
from repro.net.message import Batch, Message, MessageKind, ReplyPayload
from repro.net.tcpnet import TcpNetwork
from repro.rmi import protocol
from repro.rmi.stub import RemoteRef

BIG_BLOB = b"\xab" * (wirecodec.OOB_THRESHOLD * 3)  # flushes out-of-band

#: At least one representative instance per registered payload class,
#: exercising defaults, non-defaults, and None-able fields.
SAMPLES = {
    protocol.InvokeRequest: [
        protocol.InvokeRequest(name="acct", method="debit",
                               args_blob=b"\x80\x05args"),
        protocol.InvokeRequest(name="s" * 300, method="m", args_blob=b""),
    ],
    protocol.LookupRequest: [protocol.LookupRequest(name="printer")],
    protocol.BindRequest: [
        protocol.BindRequest(name="printer",
                             ref=RemoteRef(node_id="n1", name="printer")),
        protocol.BindRequest(name="printer",
                             ref=RemoteRef(node_id="n2", name="printer",
                                           methods=("print_it", "status")),
                             replace=True),
    ],
    protocol.UnbindRequest: [protocol.UnbindRequest(name="printer")],
    protocol.ListRequest: [protocol.ListRequest()],
    protocol.FindRequest: [
        protocol.FindRequest(name="agent"),
        protocol.FindRequest(name="agent", hops=("n1", "n2"),
                             origin_hint="n3", verify=False),
    ],
    protocol.MoveRequest: [
        protocol.MoveRequest(name="acct", target="n2", lock_token="tok",
                             alternates=("n3", "n4")),
    ],
    protocol.ObjectTransfer: [
        protocol.ObjectTransfer(name="acct", class_name="Account",
                                state_blob=b"state", class_desc=None,
                                class_hash="h1", origin="n1",
                                transfer_id="t-1", shared=False),
        protocol.ObjectTransfer(name="acct", class_name="Account",
                                state_blob=BIG_BLOB, class_desc=None,
                                class_hash="h1", origin="n1",
                                transfer_id="t-2"),
        protocol.ObjectTransfer(name="agent", class_name="Crawler",
                                state_blob=b"state", class_desc=None,
                                class_hash="h2", origin="n1",
                                transfer_id="t-3", shared=False,
                                tour=("n2", "n3")),
    ],
    protocol.TransferPrepare: [
        protocol.TransferPrepare(name="acct", class_name="Account",
                                 class_desc=None, class_hash="h1",
                                 origin="n1", transfer_id="t-1",
                                 total_bytes=1024, chunk_count=4,
                                 shared=False, ttl_ms=5_000.0),
        protocol.TransferPrepare(name="agent", class_name="Crawler",
                                 class_desc=None, class_hash="h2",
                                 origin="n1", transfer_id="t-4",
                                 total_bytes=1 << 20, chunk_count=4,
                                 tour=()),
    ],
    protocol.TransferChunk: [
        protocol.TransferChunk(transfer_id="t-1", index=0, data=b"chunk"),
        protocol.TransferChunk(transfer_id="t-1", index=3, data=BIG_BLOB),
        protocol.TransferChunk(
            transfer_id="t-4", index=0, data=BIG_BLOB,
            prepare=protocol.TransferPrepare(
                name="agent", class_name="Crawler", class_desc=None,
                class_hash="h2", origin="n1", transfer_id="t-4",
                total_bytes=len(BIG_BLOB), chunk_count=1, tour=()),
            commit=protocol.TransferCommit(transfer_id="t-4", name="agent")),
    ],
    protocol.TransferCommit: [
        protocol.TransferCommit(transfer_id="t-1", name="acct"),
    ],
    protocol.TransferAbort: [
        protocol.TransferAbort(transfer_id="t-1", reason="receiver died"),
    ],
    protocol.ClassRequest: [
        protocol.ClassRequest(class_name="Account", if_hash="h1"),
    ],
    protocol.ClassPush: [
        protocol.ClassPush(class_name="Account", source_hash="h1"),
        protocol.ClassPush(class_name="Account", source_hash="h1",
                           desc=None, only_if_missing=True),
    ],
    protocol.InstantiateRequest: [
        protocol.InstantiateRequest(class_name="Account", name="acct",
                                    args_blob=b"\x80\x05args", shared=False),
    ],
    protocol.LockRequestPayload: [
        protocol.LockRequestPayload(name="acct", target="n2",
                                    requester="n1"),
        protocol.LockRequestPayload(name="acct", target="n2",
                                    requester="n1", wait_ms=250.0),
    ],
    protocol.UnlockPayload: [protocol.UnlockPayload(name="acct", token="t")],
    protocol.AgentLaunch: [
        protocol.AgentLaunch(name="agent", itinerary=("n1", "n2"),
                             lock_token="tok"),
    ],
    protocol.LoadQuery: [protocol.LoadQuery()],
    protocol.JoinRequest: [
        protocol.JoinRequest(node_id="n9"),
        protocol.JoinRequest(node_id="n9", endpoint=("10.0.0.9", 9000)),
    ],
    protocol.AnnouncePayload: [
        protocol.AnnouncePayload(members={"n1": ("10.0.0.1", 9000),
                                          "n2": None}),
    ],
    protocol.RegistrySnapshot: [
        protocol.RegistrySnapshot(
            bindings={"printer": RemoteRef(node_id="n1", name="printer")},
            forwarding={"acct": "n2"},
            class_names=("Account", "Crawler"),
        ),
    ],
    ReplyPayload: [
        ReplyPayload(value="pong"),
        ReplyPayload(value=None),
        ReplyPayload(error=ValueError("boom"), remote_traceback="tb lines"),
    ],
    RemoteRef: [
        RemoteRef(node_id="n1", name="printer"),
        RemoteRef(node_id="n2", name="acct", methods=("debit", "credit")),
    ],
    Batch: [
        Batch(subs=(
            Message(kind=MessageKind.PING, src="n1", dst="n2", payload=1),
            Message(kind=MessageKind.FIND, src="n1", dst="n2",
                    payload=protocol.FindRequest(name="acct")),
        )),
        Batch(subs=()),
    ],
}


def assert_equivalent(a, b):
    """Deep equality that treats exceptions by (type, args) and accepts
    bytes-like equivalence (the wire returns ``bytes`` for any buffer)."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        assert type(a) is type(b) and a.args == b.args
        return
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_equivalent(getattr(a, f.name), getattr(b, f.name))
        return
    if isinstance(a, (bytes, bytearray, memoryview)):
        assert bytes(a) == bytes(b)
        return
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_equivalent(x, y)
        return
    assert a == b and type(a) is type(b)


def all_samples():
    for cls, instances in SAMPLES.items():
        for i, instance in enumerate(instances):
            yield pytest.param(instance, id=f"{cls.__name__}-{i}")


class TestGeneratedCodecs:
    def test_every_registered_payload_has_a_sample(self):
        """Coverage guard: adding a payload class without extending this
        suite fails here, not silently."""
        assert set(SAMPLES) == set(wirecodec.REGISTERED_PAYLOADS)

    @pytest.mark.parametrize("payload", list(all_samples()))
    def test_value_roundtrip(self, payload):
        blob = wirecodec.encode_value(payload)
        assert_equivalent(wirecodec.decode_value(blob), payload)

    @pytest.mark.parametrize("payload", list(all_samples()))
    def test_envelope_roundtrip(self, payload):
        message = Message(kind=MessageKind.INVOKE, src="n1", dst="n2",
                          payload=payload)
        parts = wirecodec.encode_envelope(message)
        body = b"".join(bytes(p) for p in parts)
        assert body[0] == wirecodec.MAGIC
        decoded = wirecodec.decode_envelope(body)
        assert (decoded.kind, decoded.src, decoded.dst, decoded.msg_id) == \
            (message.kind, message.src, message.dst, message.msg_id)
        assert_equivalent(decoded.payload, payload)

    def test_binary_beats_pickle_on_size_for_control_payloads(self):
        """The compact layout is not just faster — for the small
        control-plane records it is also smaller than their pickle."""
        for cls, instances in SAMPLES.items():
            payload = instances[0]
            binary = len(wirecodec.encode_value(payload))
            pickled = len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
            assert binary <= pickled, cls.__name__

    def test_codes_are_stable_and_dense(self):
        for code, cls in enumerate(wirecodec.REGISTERED_PAYLOADS):
            assert wirecodec.payload_code(cls) == code
        assert wirecodec.payload_code(Hello) is None


# Arbitrary primitive trees for the tagged value encoding.  ``max_size``
# for tuples stays under the 255-element inline cap; bigger tuples take
# the pickle fallback, covered separately below.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.floats(allow_nan=False),
    st.text(max_size=300),
    st.binary(max_size=300),
)
_values = st.recursive(
    _scalars, lambda inner: st.tuples(inner, inner, inner), max_leaves=12
)


class _Flag(int):
    """Module-level int subclass (picklable) for the exact-type check."""


class TestTaggedValues:
    @given(value=_values)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_preserves_value_and_type(self, value):
        decoded = wirecodec.decode_value(wirecodec.encode_value(value))
        assert_equivalent(decoded, value)

    def test_i64_overflow_falls_back_to_pickle(self):
        for n in (1 << 80, -(1 << 80)):
            assert wirecodec.decode_value(wirecodec.encode_value(n)) == n

    def test_subclasses_keep_their_identity(self):
        """Exact-type dispatch: an int/str subclass must not be flattened
        to its base on the wire."""
        decoded = wirecodec.decode_value(wirecodec.encode_value(_Flag(3)))
        assert type(decoded) is _Flag and decoded == 3

    def test_wide_tuple_roundtrips_via_pickle_fallback(self):
        wide = tuple(range(1000))  # beyond the 255-item inline cap
        assert wirecodec.decode_value(wirecodec.encode_value(wide)) == wide

    def test_nan_roundtrips(self):
        decoded = wirecodec.decode_value(wirecodec.encode_value(float("nan")))
        assert decoded != decoded  # NaN semantics preserved

    def test_remote_refs_use_the_compiled_codec(self):
        ref = RemoteRef(node_id="n1", name="printer")
        first = wirecodec.encode_value(ref)
        assert first == wirecodec.encode_value(ref)  # deterministic
        assert first[0] == 8  # registered-class tag, not pickle
        assert wirecodec.decode_value(first) == ref

    def test_trailing_garbage_rejected(self):
        blob = wirecodec.encode_value("x") + b"\x00"
        with pytest.raises(ValueError):
            wirecodec.decode_value(blob)


class TestEnvelope:
    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_every_kind_has_a_wire_code(self, kind):
        message = Message(kind=kind, src="a", dst="b", payload=None)
        body = b"".join(
            bytes(p) for p in wirecodec.encode_envelope(message))
        assert wirecodec.decode_envelope(body).kind is kind

    def test_reply_header_fields_ride_the_flags(self):
        request = Message(kind=MessageKind.INVOKE, src="a", dst="b",
                          payload=None)
        reply = request.reply(ReplyPayload(value=1))
        body = b"".join(
            bytes(p) for p in wirecodec.encode_envelope(reply))
        decoded = wirecodec.decode_envelope(body)
        assert decoded.in_reply_to is MessageKind.INVOKE
        assert decoded.reply_to_id == request.msg_id
        assert decoded.msg_id == reply.msg_id
        assert decoded.deadline is None
        assert not decoded.oneway

    def test_a_cast_rides_the_oneway_flag(self):
        message = Message(kind=MessageKind.INVOKE, src="a", dst="b")
        message.__dict__["oneway"] = True
        body = b"".join(
            bytes(p) for p in wirecodec.encode_envelope(message))
        assert wirecodec.decode_envelope(body).oneway
        plain = Message(kind=MessageKind.INVOKE, src="a", dst="b")
        body = b"".join(bytes(p) for p in wirecodec.encode_envelope(plain))
        decoded = wirecodec.decode_envelope(body)
        assert not decoded.oneway and "oneway" not in vars(decoded)

    def test_deadline_ships_remaining_budget(self):
        message = Message(kind=MessageKind.PING, src="a", dst="b",
                          deadline=Deadline.after_ms(5_000))
        body = b"".join(
            bytes(p) for p in wirecodec.encode_envelope(message))
        decoded = wirecodec.decode_envelope(body)
        # Re-anchored on the receiving clock: the remaining budget is
        # (approximately) preserved, exactly like Deadline.__reduce__.
        assert 4_000 < decoded.deadline.remaining_ms() <= 5_000

    def test_large_blob_fields_ship_zero_copy(self):
        view = memoryview(BIG_BLOB)
        chunk = protocol.TransferChunk(transfer_id="t", index=0, data=view)
        message = Message(kind=MessageKind.TRANSFER_CHUNK, src="a", dst="b",
                          payload=chunk)
        parts = wirecodec.encode_envelope(message)
        assert len(parts) >= 2  # head + out-of-band blob
        assert any(p is view for p in parts)  # the original buffer, uncopied
        decoded = wirecodec.decode_envelope(
            b"".join(bytes(p) for p in parts))
        assert bytes(decoded.payload.data) == BIG_BLOB

    @staticmethod
    def _body(message, as_type):
        return as_type(b"".join(
            bytes(p) for p in wirecodec.encode_envelope(message)))

    @pytest.mark.parametrize("as_type", [bytes, bytearray])
    def test_bulk_fields_decode_as_readonly_views_of_the_body(self, as_type):
        big = bytes(range(256)) * 300  # > DIRECT_RECV_MIN
        cases = [
            (Message(kind=MessageKind.TRANSFER_CHUNK, src="a", dst="b",
                     payload=protocol.TransferChunk("t", 0, memoryview(big))),
             lambda m: m.payload.data),
            (Message(kind=MessageKind.INVOKE, src="a", dst="b",
                     payload=protocol.InvokeRequest("n", "m", big)),
             lambda m: m.payload.args_blob),
            (Message(kind=MessageKind.OBJECT_TRANSFER, src="a", dst="b",
                     payload=protocol.ObjectTransfer(
                         "n", "C", big, None, "h", "a", "t")),
             lambda m: m.payload.state_blob),
            (Message(kind=MessageKind.INVOKE, src="a", dst="b",
                     payload=None).reply(ReplyPayload(value=big)),
             lambda m: m.payload.value),
        ]
        for message, field in cases:
            body = self._body(message, as_type)
            got = field(wirecodec.decode_envelope(body))
            assert type(got) is memoryview and got.readonly, message.kind
            assert got.obj is body and got == big

    @pytest.mark.parametrize("as_type", [bytes, bytearray])
    def test_every_other_byte_field_decodes_as_bytes(self, as_type):
        big = bytes(range(256)) * 300
        small = b"s" * 100
        cases = [
            # raw payload for an arbitrary handler, and its reply
            (Message(kind=MessageKind.PING, src="a", dst="b", payload=big),
             lambda m: m.payload),
            (Message(kind=MessageKind.PING, src="a", dst="b",
                     payload=None).reply(ReplyPayload(value=big)),
             lambda m: m.payload.value),
            # a byte field nobody listed as bulk
            (Message(kind=MessageKind.INSTANTIATE, src="a", dst="b",
                     payload=protocol.InstantiateRequest("C", "n", big)),
             lambda m: m.payload.args_blob),
            # bulk fields under the threshold
            (Message(kind=MessageKind.INVOKE, src="a", dst="b",
                     payload=protocol.InvokeRequest("n", "m", small)),
             lambda m: m.payload.args_blob),
            (Message(kind=MessageKind.TRANSFER_CHUNK, src="a", dst="b",
                     payload=protocol.TransferChunk("t", 0, small)),
             lambda m: m.payload.data),
            # bytes nested in a pickled value
            (Message(kind=MessageKind.PING, src="a", dst="b",
                     payload={"k": [big]}),
             lambda m: m.payload["k"][0]),
        ]
        for message, field in cases:
            got = field(wirecodec.decode_envelope(
                self._body(message, as_type)))
            assert type(got) is bytes, (message.kind, type(got))

    @pytest.mark.parametrize("as_type", [bytes, bytearray])
    def test_byte_field_longer_than_the_body_is_refused(self, as_type):
        for payload in (protocol.InvokeRequest("n", "m", b"x" * 70_000),
                        b"y" * 5000):
            body = self._body(Message(kind=MessageKind.INVOKE, src="a",
                                      dst="b", payload=payload), as_type)
            with pytest.raises(ValueError, match="overruns the frame"):
                wirecodec.decode_envelope(body[:-1])

    def test_bulk_fields_keep_their_wire_layout(self):
        """Only the decoder differs: a bulk field is written exactly as a
        ``bytes`` / tagged field was, so envelope sizes do not move.  A
        chunk's absent head and commit follow its data as two ``None``
        tags."""
        chunk = protocol.TransferChunk("t", 0, b"abc")
        assert wirecodec.encode_value(chunk)[-10:] == \
            b"\x06" + (3).to_bytes(4, "big") + b"abc" + b"\x00\x00"
        invoke = protocol.InvokeRequest("n", "m", b"abc")
        assert wirecodec.encode_value(invoke)[-7:] == \
            (3).to_bytes(4, "big") + b"abc"

    def test_small_messages_are_one_buffer(self):
        message = Message(kind=MessageKind.PING, src="a", dst="b")
        parts = wirecodec.encode_envelope(message)
        assert len(parts) == 1

    def test_binary_envelope_never_collides_with_pickle(self):
        assert wirecodec.MAGIC == 0xB1
        blob = pickle.dumps(("anything",), pickle.HIGHEST_PROTOCOL)
        assert blob[0] != wirecodec.MAGIC


class TestNegotiation:
    def hello(self, **overrides):
        values = dict(
            version=PROTOCOL_VERSION, node_id="peer",
            settings={wirecodec.WIRE_SETTING: wirecodec.WIRE_FORMAT},
        )
        values.update(overrides)
        return Hello(**values)

    def test_matching_build_accepts_binary(self):
        assert wirecodec.hello_accepts_binary(self.hello())

    def test_absent_or_foreign_format_refuses(self):
        assert not wirecodec.hello_accepts_binary(self.hello(settings={}))
        assert not wirecodec.hello_accepts_binary(
            self.hello(settings={wirecodec.WIRE_SETTING: "bin1:deadbeef"}))

    def test_format_digest_tracks_the_schema(self):
        assert wirecodec.WIRE_FORMAT.startswith("bin1:")
        assert len(wirecodec.WIRE_FORMAT) == len("bin1:") + 12


@pytest.fixture
def nets():
    created = []

    def factory(**kwargs):
        net = TcpNetwork(**kwargs)
        created.append(net)
        return net

    yield factory
    for net in created:
        net.shutdown()


def link(a, a_node, b, b_node):
    a.connect(b_node, b.endpoint_of(b_node))
    b.connect(a_node, a.endpoint_of(a_node))


def count_binary_encodes(monkeypatch):
    encoded = []
    real = wirecodec.encode_envelope
    monkeypatch.setattr(
        wirecodec, "encode_envelope",
        lambda message: encoded.append(message.kind) or real(message),
    )
    return encoded


class TestOverRealSockets:
    """Two transports, no shared state, real sockets between them."""

    def test_envelopes_are_binary_both_ways(self, nets, monkeypatch):
        a, b = nets(), nets()
        a.register("hub", lambda m: m.payload)
        b.register("worker", lambda m: m.payload)
        link(a, "hub", b, "worker")
        encoded = count_binary_encodes(monkeypatch)
        assert a.call("hub", "worker", MessageKind.PING, 42) == 42
        assert b.call("worker", "hub", MessageKind.PING, 43) == 43
        # Request and reply, in each direction.
        assert encoded.count(MessageKind.PING) == 2
        assert encoded.count(MessageKind.REPLY) == 2

    @pytest.mark.parametrize("payload", list(all_samples()))
    def test_every_payload_crosses_real_sockets_both_ways(self, nets, payload):
        a, b = nets(), nets()
        a.register("hub", lambda m: m.payload)
        b.register("worker", lambda m: m.payload)
        link(a, "hub", b, "worker")
        echoed = a.call("hub", "worker", MessageKind.INVOKE, payload)
        assert_equivalent(echoed, payload)
        echoed = b.call("worker", "hub", MessageKind.INVOKE, payload)
        assert_equivalent(echoed, payload)
