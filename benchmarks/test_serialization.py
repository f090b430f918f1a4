"""Wire-codec serialization bench: compiled binary envelope vs pickle.

Not a paper figure — the engineering bench behind the wire-codec fast
path.  For every registered control-plane payload class it times the
full envelope cycle both ways:

* binary — ``wirecodec.encode_envelope`` / ``wirecodec.decode_envelope``
  (schema-compiled per-class codecs: what the wire carries), and
* pickle — a flattened pickled-tuple envelope, the obvious alternative,
  kept in this file as the baseline (:func:`to_pickle` /
  :func:`from_pickle`).

The shape that must hold: the binary codec wins **encode and decode for
every payload class** — a single regressed class is a compile-time
schema problem (a field fell off its specialized layout), not noise.
Timings are interleaved best-of-N so box jitter hits both codecs alike;
a class that still loses gets one deeper re-measure before the bench
fails.  Results land in ``results/serialization.txt`` and a
machine-readable ``results/BENCH_serialization.json``.
"""

from __future__ import annotations

import pickle
import timeit

import pytest

from repro.net import wirecodec
from repro.net.message import Batch, Message, MessageKind, ReplyPayload
from repro.rmi import protocol
from repro.rmi.stub import RemoteRef

#: Per-iteration loop count and interleaved rounds (best-of).
ITERATIONS = 2_000
ROUNDS = 5
#: Deeper re-measure for a class that lost a direction on the first pass.
RETRY_ITERATIONS = 4_000
RETRY_ROUNDS = 9

#: One representative instance per registered payload class — realistic
#: field shapes (node ids, tokens, small blobs, address books), not
#: empty defaults.  The coverage assert below forces an entry for every
#: class added to the registry.
SAMPLES: dict[type, object] = {
    protocol.InvokeRequest: protocol.InvokeRequest(
        name="acct", method="debit", args_blob=b"\x80\x05args"),
    protocol.LookupRequest: protocol.LookupRequest(name="printer"),
    protocol.BindRequest: protocol.BindRequest(
        name="printer",
        ref=RemoteRef(node_id="n1", name="printer",
                      methods=("print_it", "status"))),
    protocol.UnbindRequest: protocol.UnbindRequest(name="printer"),
    protocol.ListRequest: protocol.ListRequest(),
    protocol.FindRequest: protocol.FindRequest(
        name="agent", hops=("n1", "n2"), origin_hint="n3"),
    protocol.MoveRequest: protocol.MoveRequest(
        name="acct", target="n2", lock_token="tok",
        alternates=("n3", "n4")),
    protocol.ObjectTransfer: protocol.ObjectTransfer(
        name="acct", class_name="Account", state_blob=b"state" * 8,
        class_desc=None, class_hash="h1", origin="n1", transfer_id="t-1"),
    protocol.TransferPrepare: protocol.TransferPrepare(
        name="acct", class_name="Account", class_desc=None,
        class_hash="h1", origin="n1", transfer_id="t-1",
        total_bytes=1024, chunk_count=4, shared=False, ttl_ms=5_000.0),
    protocol.TransferChunk: protocol.TransferChunk(
        transfer_id="t-1", index=3, data=b"chunk-bytes"),
    protocol.TransferCommit: protocol.TransferCommit(
        transfer_id="t-1", name="acct"),
    protocol.TransferAbort: protocol.TransferAbort(
        transfer_id="t-1", reason="receiver died"),
    protocol.ClassRequest: protocol.ClassRequest(
        class_name="Account", if_hash="h1"),
    protocol.ClassPush: protocol.ClassPush(
        class_name="Account", source_hash="h1"),
    protocol.InstantiateRequest: protocol.InstantiateRequest(
        class_name="Account", name="acct", args_blob=b"\x80\x05args",
        shared=False),
    protocol.LockRequestPayload: protocol.LockRequestPayload(
        name="acct", target="n2", requester="n1", wait_ms=250.0),
    protocol.UnlockPayload: protocol.UnlockPayload(name="acct", token="t"),
    protocol.LockConfirm: protocol.LockConfirm(name="acct", token="t"),
    protocol.AgentHopPayload: protocol.AgentHopPayload(
        name="agent", class_name="Crawler", state_blob=b"state" * 4,
        class_desc=None, class_hash="h2", origin="n1", tour_id="tour-1",
        itinerary=("n2", "n3"), shared=True),
    protocol.AgentLaunch: protocol.AgentLaunch(
        name="agent", itinerary=("n1", "n2"), lock_token="tok"),
    protocol.LoadQuery: protocol.LoadQuery(),
    protocol.JoinRequest: protocol.JoinRequest(
        node_id="n9", endpoint=("10.0.0.9", 9000)),
    protocol.AnnouncePayload: protocol.AnnouncePayload(
        members={"n1": ("10.0.0.1", 9000), "n2": ("10.0.0.2", 9001),
                 "n3": None}),
    protocol.RegistrySnapshot: protocol.RegistrySnapshot(
        bindings={"printer": RemoteRef(node_id="n1", name="printer")},
        forwarding={"acct": "n2"},
        class_names=("Account", "Crawler")),
    ReplyPayload: ReplyPayload(value="pong"),
    RemoteRef: RemoteRef(node_id="n1", name="printer",
                         methods=("print_it",)),
    Batch: Batch(subs=tuple(
        Message(kind=MessageKind.PING, src="n1", dst="n2", payload=i)
        for i in range(2)), sequential=False),
}


def to_pickle(message: Message) -> bytes:
    """The baseline envelope: header fields + payload as one pickled tuple."""
    in_reply_to = message.in_reply_to
    return pickle.dumps(
        (message.kind.value, message.src, message.dst, message.payload,
         message.msg_id, None if in_reply_to is None else in_reply_to.value,
         message.reply_to_id, message.deadline),
        pickle.HIGHEST_PROTOCOL)


def from_pickle(blob: bytes) -> Message:
    """Inverse of :func:`to_pickle`, built the way the binary decoder
    builds its result (``__new__`` + one dict update) so the comparison
    is codec against codec, not against the dataclass ``__init__``."""
    (kind, src, dst, payload, msg_id, in_reply_to, reply_to_id,
     deadline) = pickle.loads(blob)
    message = Message.__new__(Message)
    message.__dict__.update(
        kind=MessageKind(kind), src=src, dst=dst, payload=payload,
        msg_id=msg_id,
        in_reply_to=None if in_reply_to is None else MessageKind(in_reply_to),
        reply_to_id=reply_to_id, deadline=deadline)
    return message


def _best_of(fns: dict[str, object], iterations: int,
             rounds: int) -> dict[str, float]:
    """Interleaved best-of timing (ns/op): each round times every fn
    once, so a noisy slice of wall-clock penalizes all codecs equally
    instead of whichever one it happened to land on."""
    best = {name: float("inf") for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            t = timeit.timeit(fn, number=iterations) / iterations * 1e9
            if t < best[name]:
                best[name] = t
    return best


def _bench_class(cls: type, iterations: int = ITERATIONS,
                 rounds: int = ROUNDS) -> dict:
    payload = SAMPLES[cls]
    message = Message(kind=MessageKind.INVOKE, src="n1", dst="n2",
                      payload=payload)
    body = b"".join(bytes(p) for p in wirecodec.encode_envelope(message))
    blob = to_pickle(message)
    best = _best_of(
        {
            "encode_ns": lambda: wirecodec.encode_envelope(message),
            "decode_ns": lambda: wirecodec.decode_envelope(body),
            "pickle_encode_ns": lambda: to_pickle(message),
            "pickle_decode_ns": lambda: from_pickle(blob),
        },
        iterations, rounds,
    )
    return {
        **{name: round(value, 1) for name, value in best.items()},
        "wire_bytes": len(body),
        "pickle_bytes": len(blob),
        "encode_speedup": round(best["pickle_encode_ns"] / best["encode_ns"], 2),
        "decode_speedup": round(best["pickle_decode_ns"] / best["decode_ns"], 2),
    }


@pytest.fixture(scope="module")
def rows() -> dict[str, dict]:
    """The per-class timing matrix, shared by the artifact test (tier-1)
    and the threshold test (``-m perf``)."""
    assert set(SAMPLES) == set(wirecodec.REGISTERED_PAYLOADS), (
        "every registered payload class needs a bench sample")
    rows: dict[str, dict] = {}
    for cls in wirecodec.REGISTERED_PAYLOADS:
        row = _bench_class(cls)
        if row["encode_speedup"] <= 1.0 or row["decode_speedup"] <= 1.0:
            # One deeper re-measure before declaring a regression: the
            # expected margins are 1.2x+, so a first-pass loss is far
            # more likely scheduler noise than a real slowdown.
            row = _bench_class(cls, RETRY_ITERATIONS, RETRY_ROUNDS)
        rows[cls.__name__] = row
    return rows


def test_serialization(report, rows):
    lines = [
        "Serialization -- compiled binary envelope vs pickled-tuple envelope",
        "(per payload class; ns per envelope encode/decode, best-of-"
        f"{ROUNDS} interleaved)",
        "",
        f"  {'payload':<22s} {'enc ns':>8s} {'dec ns':>8s}"
        f" {'enc x':>6s} {'dec x':>6s} {'bytes':>6s} {'pickle':>7s}",
    ]
    for name, row in rows.items():
        lines.append(
            f"  {name:<22s} {row['encode_ns']:>8.0f} {row['decode_ns']:>8.0f}"
            f" {row['encode_speedup']:>5.2f}x {row['decode_speedup']:>5.2f}x"
            f" {row['wire_bytes']:>6d} {row['pickle_bytes']:>7d}"
        )
    worst_enc = min(rows.values(), key=lambda r: r["encode_speedup"])
    worst_dec = min(rows.values(), key=lambda r: r["decode_speedup"])
    lines += [
        "",
        f"worst encode speedup {worst_enc['encode_speedup']:.2f}x, "
        f"worst decode speedup {worst_dec['decode_speedup']:.2f}x",
    ]
    report("serialization", "\n".join(lines), data={
        "wire_format": wirecodec.WIRE_FORMAT,
        "iterations": ITERATIONS,
        "rounds": ROUNDS,
        "payloads": rows,
    })

    # The compact layout must never be *larger* than the pickle.
    oversized = {
        name: row for name, row in rows.items()
        if row["wire_bytes"] > row["pickle_bytes"]
    }
    assert not oversized, oversized


@pytest.mark.perf
def test_serialization_beats_pickle(rows):
    """The acceptance shape: every payload class wins both directions."""
    losers = {
        name: row for name, row in rows.items()
        if row["encode_speedup"] <= 1.0 or row["decode_speedup"] <= 1.0
    }
    assert not losers, losers


@pytest.mark.perf
def test_serialization_smoke():
    """Cheap CI guard: the hot-path envelopes must keep beating pickle.

    Two classes bracket the codec: InvokeRequest (the request fast
    path) and ReplyPayload (every response).  Round-trip comparison
    with a noise allowance — the full per-class matrix (with artifacts)
    already runs under tier-1.
    """
    for cls in (protocol.InvokeRequest, ReplyPayload):
        row = _bench_class(cls, iterations=1_000, rounds=3)
        binary = row["encode_ns"] + row["decode_ns"]
        pickled = row["pickle_encode_ns"] + row["pickle_decode_ns"]
        assert binary < 0.9 * pickled, (cls.__name__, row)


def test_oob_blobs_dodge_the_copy():
    """A payload blob >= OOB_THRESHOLD rides out as its own buffer.

    Covered functionally in tests/net/test_wirecodec.py; asserted here
    too so the bench file documents the zero-copy contract next to the
    numbers it produces.
    """
    blob = b"\xcd" * (wirecodec.OOB_THRESHOLD * 2)
    payload = protocol.TransferChunk(transfer_id="t-1", index=0, data=blob)
    message = Message(kind=MessageKind.TRANSFER_CHUNK, src="n1", dst="n2",
                      payload=payload)
    parts = wirecodec.encode_envelope(message)
    assert any(
        isinstance(part, memoryview) and part.nbytes == len(blob)
        for part in parts
    )
    body = b"".join(bytes(p) for p in parts)
    decoded = wirecodec.decode_envelope(body)
    assert bytes(decoded.payload.data) == blob
