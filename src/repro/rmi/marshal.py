"""Marshalling: by-value data, by-reference stubs.

Arguments, results, and migrated object state cross namespaces as bytes, so
even on the in-process simulated network a remote call cannot mutate the
caller's objects — the semantics a real network imposes.

Two special cases ride on pickle's ``reducer_override`` hook:

* **Stubs** marshal as their :class:`~repro.rmi.stub.RemoteRef` only and are
  re-attached to the receiving namespace's transport on unmarshal, exactly
  like Java RMI stubs.
* **Mobile instances** (objects of exec-loaded, cache-cloned classes) refuse
  to marshal implicitly: moving an object is a runtime operation with
  registry and locking consequences, so it must go through the mover, never
  hide inside an argument list.  (Java RMI's analogue: a non-Serializable,
  non-exported object.)

Hot-path discipline: the C pickler must not call into Python for objects
that cannot be one of those two cases.  ``reducer_override`` is consulted
only *after* the pickler's exact-type fast paths (``None``, ``bool``,
``int``, ``float``, ``str``, ``bytes``, ``bytearray``, ``tuple``,
``list``, ``dict``, ``set``, ``frozenset``) have declined, so a tree of
primitives of any width and depth is encoded without a single Python call
and byte-for-byte as ``pickle.dumps`` would.  The skip is exact, not a
heuristic: a stub or a mobile instance never has one of those exact
types, and a *subclass* of a builtin (which could smuggle either in its
state) still reaches the hook.  That is why there is no pre-check walk
and no size threshold — a ``persistent_id`` hook, by contrast, runs for
*every* object visited (5 000 Python calls for a 5 000-int list), and a
Python walk that proves a tree hook-free costs more than the pickling.
A stub is emitted as a reduce to one sentinel global, which the
unpickler's ``find_class`` binds to the per-call stub factory.  The
pickler and its buffer are reused per thread (memo cleared, buffer
rewound): building both afresh costs more than encoding a small argument
list.  Out-of-band buffer handling for ``*_blob``-bearing payloads lives
one layer down in :mod:`repro.net.wirecodec`.

The inverse direction copies as little: :func:`unmarshal` reads a blob
in whatever form it arrived — ``bytes``, a view of a received frame, or
the chunks of a streamed transfer in order — through a file object that
hands the unpickler slices of it, so the only copy of a large ``bytes``
value is the unpickler's own ``readinto`` of the object it builds.
"""

from __future__ import annotations

import io
import pickle
import threading
from typing import Any, Callable, NoReturn, Sequence

from repro.errors import MarshalError
from repro.rmi.stub import RemoteRef, Stub, detached_stub

#: Factory used to re-attach stubs on unmarshal: ``ref -> live Stub``.
StubFactory = Callable[[RemoteRef], Stub]

#: Attribute stamped onto exec-loaded mobile classes by the class cache, so
#: the marshaller can recognize their instances.
MOBILE_CLASS_MARKER = "__mage_mobile_class__"


def _attach_stub(ref: RemoteRef) -> NoReturn:
    """The sentinel global a marshalled stub reduces to.

    :class:`_MageUnpickler` never calls it (``find_class`` substitutes the
    per-call stub factory); it only runs when a marshalled blob is fed to
    a plain ``pickle.loads``, which has no namespace to attach to.
    """
    raise MarshalError(
        f"stub for {ref} can only be unmarshalled by repro.rmi.marshal.unmarshal"
    )


class _MagePickler(pickle.Pickler):
    def reducer_override(self, obj: Any) -> Any:  # noqa: D102 (pickle hook)
        if isinstance(obj, Stub):
            return _attach_stub, (obj.ref,)
        if getattr(type(obj), MOBILE_CLASS_MARKER, False):
            raise MarshalError(
                f"mobile object of class {type(obj).__name__!r} cannot be "
                "marshalled by value; move it with the MAGE runtime instead"
            )
        return NotImplemented


#: One contiguous piece of a marshalled blob.
Buffer = bytes | bytearray | memoryview

#: What :func:`unmarshal` reads: a whole blob, or its pieces in order (a
#: ``list``/``tuple`` of buffers — the staged chunks of a streamed move).
Blob = Buffer | Sequence[Buffer]


class _BlobReader:
    """The file a :class:`pickle.Unpickler` reads a blob's pieces from.

    Nothing is joined or copied up front.  ``read`` returns a slice of
    the current piece (the unpickler takes any buffer) and only a read
    that straddles two pieces builds a ``bytes``; ``readinto`` — how
    protocol 5 fills a large ``bytes``/``bytearray`` it is building —
    copies straight from the pieces into the unpickler's object.
    """

    __slots__ = ("_pieces", "_index", "_offset")

    def __init__(self, pieces: Sequence[Buffer]) -> None:
        self._pieces = [memoryview(piece) for piece in pieces]
        self._index = 0     # piece being read
        self._offset = 0    # bytes of it already consumed

    def nbytes(self) -> int:
        return sum(piece.nbytes for piece in self._pieces)

    def readinto(self, target: Any) -> int:
        out = memoryview(target)
        filled = 0
        while filled < len(out) and self._index < len(self._pieces):
            piece = self._pieces[self._index]
            take = min(len(out) - filled, len(piece) - self._offset)
            out[filled:filled + take] = piece[self._offset:self._offset + take]
            filled += take
            self._offset += take
            if self._offset == len(piece):
                self._index += 1
                self._offset = 0
        return filled

    def read(self, n: int) -> Buffer:
        if self._index < len(self._pieces):
            piece = self._pieces[self._index]
            end = self._offset + n
            if end <= len(piece):
                data = piece[self._offset:end]
                if end == len(piece):
                    self._index += 1
                    self._offset = 0
                else:
                    self._offset = end
                return data
        gathered = bytearray(n)
        del gathered[self.readinto(gathered):]
        return gathered

    def readline(self) -> bytes:
        # Only text-mode opcodes (protocols 0-1) read lines outside a
        # frame; marshal writes protocol 5.  Correct, not fast.
        line = bytearray()
        while not line.endswith(b"\n"):
            byte = self.read(1)
            if not byte:
                break
            line += byte
        return bytes(line)


class _MageUnpickler(pickle.Unpickler):
    def __init__(self, file: "io.BytesIO | _BlobReader",
                 stub_factory: StubFactory) -> None:
        super().__init__(file)
        self._stub_factory = stub_factory

    def find_class(self, module: str, name: str) -> Any:  # noqa: D102 (pickle hook)
        if name == _attach_stub.__name__ and module == __name__:
            return self._stub_factory
        return super().find_class(module, name)


# Values that can never be (or contain) a Stub or a mobile instance and
# that neither side can mutate: the bypass hands them over without a copy.
_PLAIN_SCALARS = frozenset({str, int, float, bool, bytes, type(None)})
_PLAIN_MAX_ITEMS = 64
_PLAIN_MAX_DEPTH = 4


def _plain_immutable(value: Any, depth: int = 0) -> bool:
    """True when ``value`` is a small *immutable* primitive tree.

    Exact-type checks on purpose: a *subclass* of ``str`` or ``tuple``
    could smuggle arbitrary state.  A value passing here can be handed
    across the in-process bypass boundary without any copy — neither
    side can mutate what the other sees.  The caps bound the cost of
    this Python walk; a bigger tree just pays the pickle round trip.
    """
    t = type(value)
    if t in _PLAIN_SCALARS:
        return True
    if t is not tuple or depth >= _PLAIN_MAX_DEPTH:
        return False
    if len(value) > _PLAIN_MAX_ITEMS:
        return False
    return all(_plain_immutable(item, depth + 1) for item in value)


def isolate(value: Any, stub_factory: StubFactory | None = None) -> Any:
    """A by-value isolated view of ``value`` (the bypass copy boundary).

    Immutable primitive trees are returned as-is — sharing them is
    indistinguishable from copying.  Everything else pays the same
    pickle round trip its bytes would on the wire, re-attaching stubs
    via ``stub_factory`` exactly like :func:`unmarshal` (and raising
    :class:`MarshalError` for mobile instances, exactly like
    :func:`marshal`).
    """
    if _plain_immutable(value):
        return value
    return unmarshal(marshal(value), stub_factory)


class _MarshalScratch(threading.local):
    """Per-thread reused pickler + growable buffer."""

    def __init__(self) -> None:
        self.buffer = io.BytesIO()
        self.pickler = _MagePickler(self.buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.busy = False


_scratch = _MarshalScratch()


def _dump(pickler: _MagePickler, buffer: io.BytesIO, value: Any) -> bytes:
    try:
        pickler.dump(value)
    except MarshalError:
        raise
    except Exception as exc:
        raise MarshalError(f"cannot marshal {type(value).__name__}: {exc}") from exc
    return buffer.getvalue()


def marshal(value: Any) -> bytes:
    """Serialize ``value`` for the wire.

    Raises :class:`MarshalError` for unpicklable values and for mobile
    instances (which must travel via the mover).
    """
    scratch = _scratch
    if scratch.busy:
        # Reentrant marshal (a payload's __reduce__ marshalling nested
        # state): fresh objects rather than corrupting the in-flight
        # stream.
        buffer = io.BytesIO()
        return _dump(_MagePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL),
                     buffer, value)
    scratch.busy = True
    buffer = scratch.buffer
    pickler = scratch.pickler
    try:
        return _dump(pickler, buffer, value)
    finally:
        # Rewind for the next call, failed or not (a failed dump may have
        # flushed a partial frame), and drop the memo's references to
        # what was just marshalled.
        buffer.seek(0)
        buffer.truncate()
        pickler.clear_memo()
        scratch.busy = False


def unmarshal(blob: Blob, stub_factory: StubFactory | None = None) -> Any:
    """Deserialize wire bytes, re-attaching stubs via ``stub_factory``.

    ``blob`` is read where it lies: exact ``bytes`` through a
    ``BytesIO`` (which shares their buffer), any other buffer — or a
    ``list``/``tuple`` of buffers holding the blob's pieces in order —
    through :class:`_BlobReader`.  The result never aliases ``blob``.

    Without a factory, embedded stubs come back *detached* (usable as refs,
    raising if invoked).
    """
    factory = stub_factory if stub_factory is not None else detached_stub
    file: io.BytesIO | _BlobReader
    if type(blob) is bytes:
        file = io.BytesIO(blob)
    else:
        file = _BlobReader(blob if isinstance(blob, (list, tuple)) else (blob,))
    try:
        return _MageUnpickler(file, factory).load()
    except MarshalError:
        raise
    except Exception as exc:
        nbytes = len(blob) if type(blob) is bytes else file.nbytes()
        raise MarshalError(f"cannot unmarshal {nbytes}-byte blob: {exc}") from exc


def marshalled_size(value: Any) -> int:
    """Size in bytes of ``value`` on the wire (for bandwidth accounting)."""
    return len(marshal(value))


def marshal_call(args: "tuple[Any, ...]", kwargs: "dict[str, Any]") -> bytes:
    """Marshal an argument list for an INVOKE request."""
    return marshal((tuple(args), dict(kwargs)))


def unmarshal_call(
    blob: Blob,
    stub_factory: StubFactory | None = None,
    *,
    context: str = "",
) -> "tuple[tuple[Any, ...], dict[str, Any]]":
    """Inverse of :func:`marshal_call`.

    ``context`` (e.g. ``"INVOKE counter.incr on node-b from node-a"``)
    is folded into the :class:`MarshalError` so a malformed call blob
    names the message kind and nodes involved, not just its shape.
    """
    try:
        value = unmarshal(blob, stub_factory)
    except MarshalError as exc:
        if context:
            raise MarshalError(f"{exc} [{context}]") from exc
        raise
    if (
        not isinstance(value, tuple)
        or len(value) != 2
        or not isinstance(value[0], tuple)
        or not isinstance(value[1], dict)
    ):
        detail = f" [{context}]" if context else ""
        raise MarshalError(
            "call blob did not contain an (args, kwargs) pair: got "
            f"{type(value).__name__}{detail}"
        )
    return value
