"""Schema-compiled binary wire codec: the envelope every TCP frame carries.

Serialization is the per-call cost that remains once the data plane is
off threads, so the control-plane hot path does not pickle: codecs are
**compiled at import time from the payload dataclasses themselves**.
For each class in :mod:`repro.rmi.protocol` (plus
:class:`~repro.net.message.ReplyPayload` and
:class:`~repro.net.message.Batch`) the field list is read once
via :func:`dataclasses.fields` and an encoder/decoder pair is generated
(``exec``-compiled, no per-field dispatch loop at runtime) writing a
tagged, length-prefixed binary layout.  A whole
:class:`~repro.net.message.Message` travels as a *binary envelope*: one
magic byte, a kind code, flag-gated header fields, and the payload in
the tagged value encoding.

**How negotiation works.**  There is one dialect and no fallback.  Each
side's handshake frame (:class:`repro.net.endpoint.Hello`) carries
``settings["wire"] = WIRE_FORMAT``, where :data:`WIRE_FORMAT` is
``"bin1:<digest>"`` and the digest hashes the *entire compiled schema*
(kind table order plus every class's field layout).  A connection is
established only when both HELLOs carry the **same protocol version and
the same format string** (:func:`hello_accepts_binary`); any other peer
is refused during the handshake with
:class:`~repro.errors.ProtocolMismatchError`, before a request frame is
written.  Two peers that do talk therefore share kind codes, class
codes and field layouts by construction.  After the handshake every
frame body opens with :data:`MAGIC` (0xB1), which can never open a
pickle stream (protocol ≥2 pickles start with 0x80); the transport
closes a connection that sends anything else.  SimNetwork never touches
this module — figure traces stay byte-identical.

**Zero-copy discipline.**  Encoders append small fields into one
``bytearray`` and *flush* large ``bytes``/``memoryview`` fields (state
blobs, chunk slices — anything ≥ :data:`OOB_THRESHOLD`) as separate
out-of-band buffers, so a streamed TRANSFER_CHUNK's data never lands in
an intermediate buffer: the frame reaches the reactor as a buffer list
and goes out through one ``socket.sendmsg`` (writev).  Values with no
registered codec are pickled *inside* the envelope (tag 7) with
protocol 5 and a ``buffer_callback`` for the same reason — a
``PickleBuffer`` exported by a payload's ``__reduce__`` ships as an
out-of-band buffer straight from the original bytes.
:class:`~repro.rmi.stub.RemoteRef` rides as a registered class of its
own, so stubs nested in payload fields (invoke targets, registry
bindings) never touch the pickle machinery.

**Byte fields on the receive side.**  A frame body reaches the decoder
as ``bytes`` or, for a large frame, as the ``bytearray`` the reactor
received it into (:data:`repro.net.reactor.DIRECT_RECV_MIN`).  A byte
field decodes to ``bytes`` — never to a slice of that ``bytearray`` —
with one exception: the *bulk fields* listed in :data:`_BULK_FIELDS`,
plus the result blob of an INVOKE reply, decode to a read-only
``memoryview`` of the frame body once they are at least
``DIRECT_RECV_MIN`` long, so a megabyte of marshalled state is not
copied between the socket and the unpickler.  A bulk field holding a
tuple of byte strings (a streamed chunk that spans pieces of its blob)
decodes each item that way.  Those are exactly the
fields whose consumers (:func:`repro.rmi.marshal.unmarshal`, the
mover's staging) read any bytes-like object; a raw ``bytes`` payload
for an arbitrary handler still arrives as ``bytes``, and so do the
results inside a BATCH reply, whose decoder cannot tell which request
each answers.  A view pins the whole frame body for
as long as it is referenced.  Every length is checked against the end
of the body before it is sliced.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from dataclasses import fields as dataclass_fields
from typing import Any, Callable

from repro.net.deadline import Deadline
from repro.net.endpoint import Hello
from repro.net.message import Batch, Message, MessageKind, ReplyPayload
from repro.net.reactor import DIRECT_RECV_MIN, FrameBody
from repro.rmi import protocol
from repro.rmi.stub import RemoteRef

#: First byte of every binary envelope.  Pickle streams of protocol ≥ 2
#: open with 0x80 (the PROTO opcode) and wire-level HELLOs are pickles,
#: so one byte tells an envelope from a HELLO without decoding either.
MAGIC = 0xB1

#: ``Hello.settings`` key under which each side states its wire format.
WIRE_SETTING = "wire"

#: ``bytes`` fields at least this long ship as separate out-of-band
#: buffers (one iovec each) instead of being copied into the frame's
#: head buffer; below it the extra iovec costs more than the copy.
OOB_THRESHOLD = 4096

#: Items a tuple carries in its tagged form (tag 9): one count byte.  A
#: longer tuple is pickled, and a ``memoryview`` item cannot be.
MAX_TUPLE_ITEMS = 255

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: Out-of-band buffer list an encoder may flush into (``None`` = inline
#: everything into the head buffer, producing one contiguous blob).
Parts = "list[bytes | memoryview] | None"

_Encoder = Callable[[Any, bytearray, Any], None]
_Decoder = Callable[[FrameBody, int], "tuple[Any, int]"]


# ---------------------------------------------------------------------------
# Primitive field writers/readers (shared by generated codecs + envelope)
# ---------------------------------------------------------------------------


def _w_str(value: str, buf: bytearray) -> None:
    b = value.encode("utf-8")
    n = len(b)
    if n < 255:
        buf.append(n)
    else:
        buf.append(255)
        buf += _U32.pack(n)
    buf += b


def _r_str(b: FrameBody, o: int) -> tuple[str, int]:
    n = b[o]
    o += 1
    if n == 255:
        (n,) = _U32.unpack_from(b, o)
        o += 4
    end = o + n
    return b[o:end].decode("utf-8"), end


def _w_bytes(value: Any, buf: bytearray,
             parts: list[bytes | memoryview] | None) -> None:
    if type(value) is memoryview:
        if value.itemsize != 1 or not value.contiguous:
            value = bytes(value)
            n = len(value)
        else:
            n = value.nbytes
    else:
        n = len(value)
    buf += _U32.pack(n)
    if parts is not None and n >= OOB_THRESHOLD:
        # Flush: head-so-far, then the blob itself as its own buffer —
        # the blob's bytes are never copied on the send path.
        if buf:
            parts.append(bytes(buf))
            del buf[:]
        parts.append(value if type(value) is memoryview else memoryview(value))
    else:
        buf += value


def _r_bytes(b: FrameBody, o: int,
             bulk: bool = False) -> "tuple[bytes | memoryview, int]":
    """One byte field: ``bytes``, or a read-only view of ``b`` when the
    field is ``bulk`` (see the module docstring) and large."""
    (n,) = _U32.unpack_from(b, o)
    o += 4
    end = o + n
    if end > len(b):
        raise ValueError(f"byte field of {n} bytes overruns the frame")
    if bulk and n >= DIRECT_RECV_MIN:
        return memoryview(b)[o:end].toreadonly(), end
    if type(b) is bytes:
        return b[o:end], end
    with memoryview(b) as whole:
        return bytes(whole[o:end]), end


def _r_anybulk(b: FrameBody, o: int) -> tuple[Any, int]:
    """A tagged value whose ``bytes`` form (tag 6) is a bulk byte field,
    and so is each ``bytes`` item of its tuple form (tag 9)."""
    tag = b[o]
    if tag == 6:
        return _r_bytes(b, o + 1, True)
    if tag == 9:
        count = b[o + 1]
        o += 2
        items = []
        for _ in range(count):
            item, o = _r_anybulk(b, o)
            items.append(item)
        return tuple(items), o
    return _r_any(b, o)


def _w_strtuple(value: "tuple[str, ...]", buf: bytearray) -> None:
    n = len(value)
    if n < 255:
        buf.append(n)
    else:
        buf.append(255)
        buf += _U32.pack(n)
    for item in value:
        _w_str(item, buf)


def _r_strtuple(b: FrameBody, o: int) -> "tuple[tuple[str, ...], int]":
    count = b[o]
    o += 1
    if count == 255:
        (count,) = _U32.unpack_from(b, o)
        o += 4
    if not count:
        return (), o
    items = []
    for _ in range(count):
        n = b[o]
        o += 1
        if n == 255:
            (n,) = _U32.unpack_from(b, o)
            o += 4
        end = o + n
        items.append(b[o:end].decode("utf-8"))
        o = end
    return tuple(items), o


# Tagged value encoding ("any"): the payload position of the envelope and
# every field without a specialized layout.  Tags:
#   0 None | 1 True | 2 False | 3 i64 | 4 f64 | 5 str | 6 bytes
#   7 pickle (+ out-of-band buffer list) | 8 registered payload class
#   9 tuple (≤255 items, elements recursively tagged)
#   10 dict (format byte + lean-pickle or per-entry body — see _w_dict)
#   11 (str, i64) pair — the (host, port) endpoint shape that fills
#      membership payloads, written without per-element tags
#   12 embedded Message — a full envelope body (no MAGIC byte) nested as
#      a value; a BATCH frame's payload carries a tuple of these
# Type checks are exact (``type(v) is``): subclasses keep their identity
# by falling through to the pickle tag.


def _w_any(value: Any, buf: bytearray,
           parts: list[bytes | memoryview] | None) -> None:
    if value is None:
        buf.append(0)
        return
    t = value.__class__
    if t is bool:
        buf.append(1 if value else 2)
    elif t is int:
        if _I64_MIN <= value <= _I64_MAX:
            buf.append(3)
            buf += _I64.pack(value)
        else:
            _w_pickle(value, buf, parts)
    elif t is str:
        buf.append(5)
        _w_str(value, buf)
    elif t is float:
        buf.append(4)
        buf += _F64.pack(value)
    elif t is bytes or t is memoryview:
        buf.append(6)
        _w_bytes(value, buf, parts)
    elif t is tuple:
        n = len(value)
        if n == 2:
            first, second = value
            if (type(first) is str and type(second) is int
                    and _I64_MIN <= second <= _I64_MAX):
                buf.append(11)
                _w_str(first, buf)
                buf += _I64.pack(second)
                return
        if n <= MAX_TUPLE_ITEMS:
            buf.append(9)
            buf.append(n)
            for item in value:
                _w_any(item, buf, parts)
        else:
            _w_pickle(value, buf, parts)
    elif t is dict:
        # Control-plane dicts (address books, registry snapshots) are
        # small maps of primitives/refs: per-entry tagging beats paying
        # the pickle machinery's fixed cost for the whole mapping.
        buf.append(10)
        _w_dict(value, buf, parts)
    elif t is Message:
        buf.append(12)
        _w_envelope(value, buf, parts)
    else:
        entry = _ENC_BY_CLASS.get(t)
        if entry is not None:
            buf.append(8)
            buf.append(entry[0])
            entry[1](value, buf, parts)
        else:
            _w_pickle(value, buf, parts)


def _w_pickle(value: Any, buf: bytearray,
              parts: list[bytes | memoryview] | None) -> None:
    out_of_band: list[pickle.PickleBuffer] = []
    blob = pickle.dumps(value, pickle.HIGHEST_PROTOCOL,
                        buffer_callback=out_of_band.append)
    if len(out_of_band) > 255:
        # One count byte caps the buffer table; beyond it (never seen in
        # practice) re-dump with every buffer in-band.
        out_of_band.clear()
        blob = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    buf.append(7)
    _w_bytes(blob, buf, parts)
    buf.append(len(out_of_band))
    for pb in out_of_band:
        _w_bytes(pb.raw(), buf, parts)


def _r_pickle(b: FrameBody, o: int) -> tuple[Any, int]:
    blob, o = _r_bytes(b, o)
    count = b[o]
    o += 1
    value: Any
    if count:
        buffers: list[bytes | memoryview] = []
        for _ in range(count):
            raw, o = _r_bytes(b, o)
            buffers.append(raw)
        value = pickle.loads(blob, buffers=buffers)
    else:
        value = pickle.loads(blob)
    return value, o


def _r_any(b: FrameBody, o: int) -> tuple[Any, int]:
    tag = b[o]
    o += 1
    if tag == 0:
        return None, o
    if tag == 3:
        return _I64.unpack_from(b, o)[0], o + 8
    if tag == 5:
        return _r_str(b, o)
    if tag == 8:
        return _DEC_BY_CODE[b[o]](b, o + 1)
    if tag == 6:
        return _r_bytes(b, o)
    if tag == 9:
        count = b[o]
        o += 1
        items = []
        for _ in range(count):
            item, o = _r_any(b, o)
            items.append(item)
        return tuple(items), o
    if tag == 1:
        return True, o
    if tag == 2:
        return False, o
    if tag == 4:
        return _F64.unpack_from(b, o)[0], o + 8
    if tag == 7:
        return _r_pickle(b, o)
    if tag == 10:
        return _r_dict(b, o)
    if tag == 11:
        s, o = _r_str(b, o)
        return (s, _I64.unpack_from(b, o)[0]), o + 8
    if tag == 12:
        return _r_envelope(b, o)
    raise ValueError(f"unknown wire value tag {tag}")


def _w_dict(value: "dict[Any, Any]", buf: bytearray,
            parts: list[bytes | memoryview] | None) -> None:
    """A control-plane mapping: one format byte, then one of two bodies.

    Format 0 — *lean pickle*: a u32-length plain ``pickle.dumps`` blob.
    Pickle's C loop beats any per-entry Python encoding from the very
    first entry for maps of primitives (measured: a one-entry endpoint
    map pickles in ~0.4 us against ~1 us tagged-per-entry), and skipping
    the tag-7 fallback's out-of-band buffer table matters because that
    bookkeeping costs more than the dump itself for small values.
    Control-plane maps never carry bulk blobs, so in-band loses nothing.

    Format 1 — *per-entry tagged*: u32 count, then key/value pairs,
    chosen when the map's values are registered payload classes
    (registry bindings full of :class:`RemoteRef`) — their compiled
    codecs beat re-pickling the class by reference each time.  The
    first value decides for the whole map; a mixed map stays correct
    either way because both bodies are self-contained.
    """
    if value:
        probe = next(iter(value.values()))
        if probe.__class__ in _ENC_BY_CLASS:
            buf.append(1)
            buf += _U32.pack(len(value))
            for key, item in value.items():
                if type(key) is str:
                    kb = key.encode("utf-8")
                    n = len(kb)
                    if n < 255:
                        buf.append(5)
                        buf.append(n)
                    else:
                        buf.append(5)
                        buf.append(255)
                        buf += _U32.pack(n)
                    buf += kb
                else:
                    _w_any(key, buf, parts)
                entry = _ENC_BY_CLASS.get(item.__class__)
                if entry is not None:
                    buf.append(8)
                    buf.append(entry[0])
                    entry[1](item, buf, parts)
                else:
                    _w_any(item, buf, parts)
            return
    blob = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    buf.append(0)
    buf += _U32.pack(len(blob))
    buf += blob


def _r_dict(b: FrameBody, o: int) -> "tuple[dict[Any, Any], int]":
    """Inverse of :func:`_w_dict` (both formats)."""
    fmt = b[o]
    o += 1
    if fmt == 0:
        (n,) = _U32.unpack_from(b, o)
        o += 4
        end = o + n
        mapping: dict[Any, Any] = pickle.loads(b[o:end])
        return mapping, end
    (count,) = _U32.unpack_from(b, o)
    o += 4
    mapping = {}
    for _ in range(count):
        if b[o] == 5:
            n = b[o + 1]
            o += 2
            if n == 255:
                (n,) = _U32.unpack_from(b, o)
                o += 4
            end = o + n
            key: Any = b[o:end].decode("utf-8")
            o = end
        else:
            key, o = _r_any(b, o)
        if b[o] == 8:
            item, o = _DEC_BY_CODE[b[o + 1]](b, o + 2)
        else:
            item, o = _r_any(b, o)
        mapping[key] = item
    return mapping, o


# ---------------------------------------------------------------------------
# Schema compilation
# ---------------------------------------------------------------------------


def _field_kind(annotation: object) -> str:
    """Map a dataclass field annotation to its wire encoding.

    Annotations arrive as strings (``from __future__ import annotations``
    in the protocol module).  Exact ``str``/``bytes``/``int``/``float``/
    ``bool``/``tuple[str, ...]`` annotations get specialized compact
    layouts — the compiled code trusts the annotation, which the mypy
    strict ring enforces on every construction site; every other
    annotation — optionals, dicts, ``object`` — uses the tagged value
    encoding, which handles primitives natively and falls back to pickle
    for the rest.  The kind name is part of the schema digest, so
    changing a mapping here changes :data:`WIRE_FORMAT` and a build
    without the change is refused instead of mis-decoded.
    """
    text = annotation if isinstance(annotation, str) else str(
        getattr(annotation, "__name__", ""))
    text = text.strip().strip("\"'")
    if text in ("str", "bytes", "bool", "float", "dict"):
        return text
    if text == "int":
        return "i64"
    if text.replace(" ", "") == "tuple[str,...]":
        return "strtuple"
    return "any"


#: The bulk byte fields: decoded as read-only views of the frame body
#: once large (module docstring, "Byte fields on the receive side").
#: Everything that reads them accepts any bytes-like object.  On the
#: wire they are laid out exactly like ``bytes`` / ``any`` fields.
_BULK_FIELDS: dict[type[Any], tuple[str, ...]] = {
    protocol.InvokeRequest: ("args_blob",),
    protocol.ObjectTransfer: ("state_blob",),
    protocol.TransferChunk: ("data",),
}
_BULK_KIND = {"bytes": "bulk", "any": "anybulk"}


def _compile_codec(
    cls: type[Any], bulk: tuple[str, ...] = (),
) -> tuple[_Encoder, _Decoder, tuple[tuple[str, str], ...]]:
    """Generate the encoder/decoder pair for one payload dataclass.

    The generated decoder builds instances via ``__new__`` + a single
    ``__dict__.update`` — the frozen-dataclass ``__init__`` pays one
    ``object.__setattr__`` per field, which is most of pickle's decode
    cost for these records and pure overhead for wire-validated input.
    ``bulk`` names the fields to decode as bulk byte fields.
    """
    kinds = {f.name: _field_kind(f.type) for f in dataclass_fields(cls)}
    for name in bulk:
        kinds[name] = _BULK_KIND[kinds[name]]
    spec = tuple(kinds.items())
    enc_src = ["def _enc(p, buf, parts):"]
    dec_src = ["def _dec(b, o):"]
    for i, (name, kind) in enumerate(spec):
        if kind == "str":
            # Inlined rather than a _w_str/_r_str call: protocol records
            # are mostly short strings, and at ~100 ns per CPython call
            # the helper dispatch is most of a small field's cost.
            enc_src.append(f"    s{i} = p.{name}.encode('utf-8')")
            enc_src.append(f"    n{i} = len(s{i})")
            enc_src.append(f"    if n{i} < 255:")
            enc_src.append(f"        buf.append(n{i})")
            enc_src.append("    else:")
            enc_src.append(f"        buf.append(255); buf += _U32.pack(n{i})")
            enc_src.append(f"    buf += s{i}")
            dec_src.append(f"    n{i} = b[o]; o += 1")
            dec_src.append(f"    if n{i} == 255:")
            dec_src.append(f"        (n{i},) = _U32.unpack_from(b, o); o += 4")
            dec_src.append(f"    e{i} = o + n{i}")
            dec_src.append(f"    v{i} = b[o:e{i}].decode('utf-8'); o = e{i}")
        elif kind == "bytes":
            enc_src.append(f"    _w_bytes(p.{name}, buf, parts)")
            dec_src.append(f"    v{i}, o = _r_bytes(b, o)")
        elif kind == "bulk":
            enc_src.append(f"    _w_bytes(p.{name}, buf, parts)")
            dec_src.append(f"    v{i}, o = _r_bytes(b, o, True)")
        elif kind == "anybulk":
            enc_src.append(f"    _w_any(p.{name}, buf, parts)")
            dec_src.append(f"    v{i}, o = _r_anybulk(b, o)")
        elif kind == "i64":
            # Tagged fixed-width fast path: an out-of-range int (never
            # seen for counts/sizes/indices) degrades to the pickle tag,
            # which the tagged reader on the other side handles.
            enc_src.append(f"    v{i} = p.{name}")
            enc_src.append(
                f"    if {_I64_MIN} <= v{i} <= {_I64_MAX}:")
            enc_src.append(f"        buf.append(3); buf += _I64.pack(v{i})")
            enc_src.append("    else:")
            enc_src.append(f"        _w_pickle(v{i}, buf, parts)")
            dec_src.append("    if b[o] == 3:")
            dec_src.append(
                f"        v{i} = _I64.unpack_from(b, o + 1)[0]; o += 9")
            dec_src.append("    else:")
            dec_src.append(f"        v{i}, o = _r_any(b, o)")
        elif kind == "float":
            enc_src.append(f"    buf += _F64.pack(p.{name})")
            dec_src.append(
                f"    v{i} = _F64.unpack_from(b, o)[0]; o += 8")
        elif kind == "bool":
            enc_src.append(f"    buf.append(1 if p.{name} else 2)")
            dec_src.append(f"    v{i} = b[o] == 1; o += 1")
        elif kind == "strtuple":
            enc_src.append(f"    _w_strtuple(p.{name}, buf)")
            dec_src.append(f"    v{i}, o = _r_strtuple(b, o)")
        elif kind == "dict":
            enc_src.append(f"    _w_dict(p.{name}, buf, parts)")
            dec_src.append(f"    v{i}, o = _r_dict(b, o)")
        else:
            enc_src.append(f"    _w_any(p.{name}, buf, parts)")
            dec_src.append(f"    v{i}, o = _r_any(b, o)")
    if not spec:
        enc_src.append("    pass")
        dec_src.append("    return _new(_cls), o")
    else:
        dec_src.append("    obj = _new(_cls)")
        dec_src.append("    d = obj.__dict__")
        for i, (name, _k) in enumerate(spec):
            dec_src.append(f"    d['{name}'] = v{i}")
        dec_src.append("    return obj, o")
    source = "\n".join(enc_src) + "\n\n" + "\n".join(dec_src) + "\n"
    namespace: dict[str, Any] = {
        "_w_bytes": _w_bytes, "_w_any": _w_any,
        "_w_strtuple": _w_strtuple, "_w_dict": _w_dict,
        "_w_pickle": _w_pickle,
        "_r_bytes": _r_bytes, "_r_any": _r_any, "_r_anybulk": _r_anybulk,
        "_r_strtuple": _r_strtuple, "_r_dict": _r_dict,
        "_I64": _I64, "_F64": _F64, "_U32": _U32,
        "_cls": cls, "_new": object.__new__,
    }
    exec(compile(source, f"<wirecodec:{cls.__name__}>", "exec"), namespace)
    return namespace["_enc"], namespace["_dec"], spec


#: Every payload dataclass with a compiled wire codec, in code order.
#: The position is the on-wire class code.  Codes need not stay stable
#: across builds: the schema digest (hence :data:`WIRE_FORMAT`) changes
#: whenever this tuple, a field list, or the MessageKind table changes,
#: and peers whose digests differ never exchange an envelope.
REGISTERED_PAYLOADS: tuple[type[Any], ...] = (
    protocol.InvokeRequest,
    protocol.LookupRequest,
    protocol.BindRequest,
    protocol.UnbindRequest,
    protocol.ListRequest,
    protocol.FindRequest,
    protocol.MoveRequest,
    protocol.ObjectTransfer,
    protocol.TransferPrepare,
    protocol.TransferChunk,
    protocol.TransferCommit,
    protocol.TransferAbort,
    protocol.ClassRequest,
    protocol.ClassPush,
    protocol.InstantiateRequest,
    protocol.LockRequestPayload,
    protocol.UnlockPayload,
    protocol.AgentLaunch,
    protocol.LoadQuery,
    protocol.JoinRequest,
    protocol.AnnouncePayload,
    protocol.RegistrySnapshot,
    ReplyPayload,
    # Not a payload in its own right, but rides inside many of them
    # (invoke targets, registry bindings, reply values): a compiled
    # codec beats re-pickling the stub on every hop.
    RemoteRef,
    Batch,
)

_ENC_BY_CLASS: dict[type[Any], tuple[int, _Encoder]] = {}
_DEC_BY_CODE: list[_Decoder] = []
_SCHEMAS: list[tuple[str, tuple[tuple[str, str], ...]]] = []

for _code, _cls in enumerate(REGISTERED_PAYLOADS):
    _enc, _dec, _spec = _compile_codec(_cls, _BULK_FIELDS.get(_cls, ()))
    _ENC_BY_CLASS[_cls] = (_code, _enc)
    _DEC_BY_CODE.append(_dec)
    _SCHEMAS.append((_cls.__name__, _spec))

#: The decoder table for the payload of a reply to INVOKE: its value is
#: the marshalled result, which :func:`repro.rmi.marshal.unmarshal`
#: reads, so it is a bulk byte field there — and only there, a reply to
#: any other kind hands its value to whoever made the call.
_DEC_FOR_INVOKE_REPLY: list[_Decoder] = list(_DEC_BY_CODE)
_DEC_FOR_INVOKE_REPLY[_ENC_BY_CLASS[ReplyPayload][0]] = _compile_codec(
    ReplyPayload, ("value",))[1]


# ---------------------------------------------------------------------------
# The envelope
# ---------------------------------------------------------------------------

#: Kind code table: position in enum definition order (covered by the
#: digest, like the payload registry).
_KINDS: tuple[MessageKind, ...] = tuple(MessageKind)
_KIND_CODE: dict[MessageKind, int] = {k: i for i, k in enumerate(_KINDS)}

_FLAG_IN_REPLY_TO = 1
_FLAG_REPLY_TO_ID = 2
_FLAG_DEADLINE = 4
_FLAG_ONEWAY = 8  # a cast: the receiving server sends no reply
_INVOKE = MessageKind.INVOKE


def _w_envelope(message: Message, buf: bytearray,
                parts: list[bytes | memoryview] | None) -> None:
    """One message's envelope body (everything after the MAGIC byte).

    Shared by :func:`encode_envelope` (top level, MAGIC-prefixed) and the
    tag-12 value encoding (a BATCH sub-message nested as a payload
    value); both thread the same head buffer and out-of-band part list
    through, so blob flushing works at any nesting depth.
    """
    in_reply_to = message.in_reply_to
    reply_to_id = message.reply_to_id
    deadline = message.deadline
    flags = 0
    if in_reply_to is not None:
        flags |= _FLAG_IN_REPLY_TO
    if reply_to_id:
        flags |= _FLAG_REPLY_TO_ID
    if deadline is not None:
        flags |= _FLAG_DEADLINE
    if message.oneway:
        flags |= _FLAG_ONEWAY
    buf.append(_KIND_CODE[message.kind])
    buf.append(flags)
    # Header strings (node ids, message tokens) are short; their writes
    # are inlined and unrolled because three helper calls per message
    # are measurable at pipelined call rates.
    sb = message.src.encode("utf-8")
    n = len(sb)
    if n < 255:
        buf.append(n)
    else:
        buf.append(255)
        buf += _U32.pack(n)
    buf += sb
    sb = message.dst.encode("utf-8")
    n = len(sb)
    if n < 255:
        buf.append(n)
    else:
        buf.append(255)
        buf += _U32.pack(n)
    buf += sb
    sb = message.msg_id.encode("utf-8")
    n = len(sb)
    if n < 255:
        buf.append(n)
    else:
        buf.append(255)
        buf += _U32.pack(n)
    buf += sb
    if in_reply_to is not None:
        buf.append(_KIND_CODE[in_reply_to])
    if reply_to_id:
        _w_str(reply_to_id, buf)
    if deadline is not None:
        # Ship the *remaining* budget and re-anchor on the receiving
        # clock — the exact semantics of Deadline.__reduce__.
        buf += _F64.pack(deadline.remaining_s())
    payload = message.payload
    entry = None if payload is None else _ENC_BY_CLASS.get(payload.__class__)
    if entry is not None:
        # Nearly every real message carries a registered payload:
        # dispatch straight to its compiled encoder instead of walking
        # the _w_any type chain (which tries it last).
        buf.append(8)
        buf.append(entry[0])
        entry[1](payload, buf, parts)
    else:
        _w_any(payload, buf, parts)


def encode_envelope(message: Message) -> list[bytes | memoryview]:
    """One message as an ordered buffer list (no frame header).

    Small messages come back as a single ``bytes``-equivalent chunk;
    large blob fields are flushed as their own zero-copy buffers.  The
    caller prefixes the frame header and hands the list to the reactor,
    which writes it with one ``sendmsg``.
    """
    buf = bytearray()
    parts: list[bytes | memoryview] = []
    buf.append(MAGIC)
    _w_envelope(message, buf, parts)
    if buf or not parts:
        parts.append(bytes(buf))
    return parts


def _r_envelope(b: FrameBody, o: int) -> tuple[Message, int]:
    """Inverse of :func:`_w_envelope`: one envelope body at offset ``o``."""
    kind = _KINDS[b[o]]
    flags = b[o + 1]
    # src, dst, msg_id — inlined and unrolled like the encoder.
    n = b[o + 2]
    o += 3
    if n == 255:
        (n,) = _U32.unpack_from(b, o)
        o += 4
    end = o + n
    src = b[o:end].decode("utf-8")
    n = b[end]
    o = end + 1
    if n == 255:
        (n,) = _U32.unpack_from(b, o)
        o += 4
    end = o + n
    dst = b[o:end].decode("utf-8")
    n = b[end]
    o = end + 1
    if n == 255:
        (n,) = _U32.unpack_from(b, o)
        o += 4
    end = o + n
    msg_id = b[o:end].decode("utf-8")
    o = end
    in_reply_to = None
    decoders = _DEC_BY_CODE
    if flags & _FLAG_IN_REPLY_TO:
        in_reply_to = _KINDS[b[o]]
        o += 1
        if in_reply_to is _INVOKE:
            decoders = _DEC_FOR_INVOKE_REPLY
    reply_to_id = ""
    if flags & _FLAG_REPLY_TO_ID:
        reply_to_id, o = _r_str(b, o)
    deadline = None
    if flags & _FLAG_DEADLINE:
        (remaining_s,) = _F64.unpack_from(b, o)
        o += 8
        deadline = Deadline.after_s(remaining_s)
    if b[o] == 8:
        payload, o = decoders[b[o + 1]](b, o + 2)
    else:
        payload, o = _r_any(b, o)
    message = Message.__new__(Message)
    d = message.__dict__
    d["kind"] = kind
    d["src"] = src
    d["dst"] = dst
    d["payload"] = payload
    d["msg_id"] = msg_id
    d["in_reply_to"] = in_reply_to
    d["reply_to_id"] = reply_to_id
    d["deadline"] = deadline
    if flags & _FLAG_ONEWAY:
        d["oneway"] = True
    return message, o


def decode_envelope(b: FrameBody) -> Message:
    """Inverse of :func:`encode_envelope` (input: one contiguous body).

    Bulk byte fields of the message may be views of ``b`` (module
    docstring): the caller gives ``b`` up to the message.
    """
    return _r_envelope(b, 1)[0]


# ---------------------------------------------------------------------------
# Negotiation
# ---------------------------------------------------------------------------


def _schema_digest() -> str:
    h = hashlib.sha256(b"mage-wire-bin1")
    for kind in _KINDS:
        h.update(kind.value.encode("ascii") + b"\x00")
    for name, spec in _SCHEMAS:
        h.update(name.encode("ascii") + b"\x00")
        for field_name, field_kind in spec:
            h.update(f"{field_name}:{field_kind};".encode("ascii"))
    return h.hexdigest()[:12]


#: The format string each side states in ``Hello.settings["wire"]``.  The
#: digest covers the kind table and every compiled schema, so two builds
#: exchange envelopes only when their layouts are *provably* identical;
#: any drift refuses the connection instead of mis-decoding.
WIRE_FORMAT = "bin1:" + _schema_digest()


def hello_accepts_binary(hello: Hello) -> bool:
    """True when ``hello`` states this build's exact wire format."""
    return bool(hello.settings.get(WIRE_SETTING) == WIRE_FORMAT)


# ---------------------------------------------------------------------------
# Standalone payload codec surface (tests, benches, magelint fixtures)
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> bytes:
    """One payload value as a single contiguous buffer."""
    buf = bytearray()
    _w_any(value, buf, None)
    return bytes(buf)


def decode_value(blob: FrameBody) -> Any:
    """Inverse of :func:`encode_value`; rejects trailing garbage."""
    value, end = _r_any(blob, 0)
    if end != len(blob):
        raise ValueError(f"trailing bytes after value: {len(blob) - end}")
    return value


def payload_code(cls: type[Any]) -> int | None:
    """The wire class code for ``cls`` (``None`` when unregistered)."""
    entry = _ENC_BY_CLASS.get(cls)
    return entry[0] if entry is not None else None
