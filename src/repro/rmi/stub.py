"""Remote references and stubs.

A :class:`RemoteRef` names a servant: which node exports it and under what
name.  A :class:`Stub` is the client-side proxy around a ref — the paper's
"handles, or Java interfaces, that point to stubs" (§4.2).  Calling a method
on a stub marshals the arguments, sends an INVOKE message, and unmarshals
the result.

Stubs travel **by reference**: the marshalling layer pickles only the ref
and the receiving namespace re-attaches a live stub bound to its own
transport (see :mod:`repro.rmi.marshal`).  This mirrors Java RMI, where a
stub crossing the wire arrives connected to the receiver's runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NoReturn

from repro.errors import CallTimeoutError, ConfigurationError
from repro.net.deadline import Deadline
from repro.net.transport import CallFuture
from repro.util.ids import validate_component_name, validate_node_id

#: Client-side invocation function a stub delegates to:
#: ``(ref, method, args, kwargs) -> result``.
InvokeFn = Callable[["RemoteRef", str, "tuple[Any, ...]", "dict[str, Any]"], Any]

#: Future-returning variant: ``(ref, method, args, kwargs) -> CallFuture``.
#: May additionally accept a fifth ``deadline`` argument; the stub passes
#: it positionally only when one is bound, so four-argument invokers
#: (hand-rolled test doubles, detached stubs) keep working.
AsyncInvokeFn = Callable[
    ["RemoteRef", str, "tuple[Any, ...]", "dict[str, Any]"], CallFuture
]


@dataclass(frozen=True)
class RemoteRef:
    """A location-addressed name for a servant.

    ``methods`` optionally restricts the stub to an interface's method set
    (empty tuple = open proxy, any method name forwards).
    """

    node_id: str
    name: str
    methods: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        validate_node_id(self.node_id)
        validate_component_name(self.name)

    def moved_to(self, node_id: str) -> "RemoteRef":
        """The same servant, now hosted by ``node_id``."""
        return RemoteRef(node_id=node_id, name=self.name, methods=self.methods)

    def __str__(self) -> str:
        return f"mage://{self.node_id}/{self.name}"


def interface_methods(iface: type) -> tuple[str, ...]:
    """Public method names of ``iface``, for restricting a stub to an interface."""
    names: list[str] = []
    for attr in dir(iface):
        if attr.startswith("_"):
            continue
        if callable(getattr(iface, attr, None)):
            names.append(attr)
    return tuple(sorted(names))


def _bound_remote_method(ref: RemoteRef, method: str,
                         call_fn: Callable[..., Any],
                         deadline: Deadline | None = None) -> Callable[..., Any]:
    """One rule for turning attribute access into a bound remote method.

    Shared by the stub's blocking view and its ``futures`` view, so the
    dunder guard (keeps pickle/copy protocols sane) and the interface
    restriction cannot drift between them.  A bound ``deadline`` is passed
    through to the invoker as a fifth argument; without one the invoker is
    called with the classic four, so simple test-double invokers need not
    grow a parameter.
    """
    if method.startswith("__") and method.endswith("__"):
        raise AttributeError(method)
    if ref.methods and method not in ref.methods:
        raise AttributeError(f"{ref} exposes {ref.methods}, not {method!r}")

    def remote_method(*args: Any, **kwargs: Any) -> Any:
        if deadline is not None:
            return call_fn(ref, method, args, kwargs, deadline)
        return call_fn(ref, method, args, kwargs)

    remote_method.__name__ = method
    return remote_method


class _FutureCaller:
    """The ``stub.futures`` view: methods return :class:`CallFuture`\\ s.

    ``stub.futures.work(x)`` issues the invocation and returns immediately;
    collecting ``.result()`` later lets a caller overlap several remote
    invocations (scatter-gather at the proxy level).  Honours the same
    interface restriction as the stub itself.

    The view is also *callable*: ``stub.futures(deadline=d).work(x)``
    binds an end-to-end :class:`~repro.net.deadline.Deadline` to every
    invocation it issues — the budget rides the INVOKE message, bounds the
    reply wait, and propagates to calls the servant makes in turn.
    """

    __slots__ = ("_ref", "_invoke_async_fn", "_deadline")

    def __init__(self, ref: RemoteRef, invoke_async_fn: AsyncInvokeFn,
                 deadline: Deadline | None = None) -> None:
        self._ref = ref
        self._invoke_async_fn = invoke_async_fn
        self._deadline = deadline

    def __call__(self, deadline: Deadline | None = None) -> "_FutureCaller":
        return _FutureCaller(self._ref, self._invoke_async_fn, deadline)

    def __getattr__(self, method: str) -> Callable[..., CallFuture]:
        return _bound_remote_method(self._ref, method, self._invoke_async_fn,
                                    self._deadline)

    def __repr__(self) -> str:
        return f"Stub({self._ref}).futures"


class Stub:
    """Dynamic proxy: attribute access yields bound remote methods.

    Uses ``__getattr__`` rather than generated classes so any interface works
    without code generation; Python needs no casts (the paper's Java
    implementation "must always cast bind invocations").

    The :attr:`futures` view exposes the same methods returning
    :class:`CallFuture`\\ s, so independent invocations can overlap.
    """

    # Everything the proxy itself owns must be listed here, so __setattr__
    # can distinguish internals from (disallowed) remote field writes.
    _INTERNALS = frozenset({"_ref", "_invoke_fn", "_invoke_async_fn"})

    # Declared so the internals keep their real types even though the
    # fallback __getattr__ types every unknown attribute as a remote
    # method; assignment happens via object.__setattr__ in __init__.
    _ref: RemoteRef
    _invoke_fn: InvokeFn
    _invoke_async_fn: AsyncInvokeFn | None

    def __init__(self, ref: RemoteRef, invoke_fn: InvokeFn,
                 invoke_async_fn: AsyncInvokeFn | None = None) -> None:
        object.__setattr__(self, "_ref", ref)
        object.__setattr__(self, "_invoke_fn", invoke_fn)
        object.__setattr__(self, "_invoke_async_fn", invoke_async_fn)

    @property
    def ref(self) -> RemoteRef:
        return self._ref

    @property
    def futures(self) -> _FutureCaller:
        """Async view of the proxy: ``stub.futures.method(...)`` -> future.

        When the stub was built without an asynchronous invoker (detached
        stubs, hand-rolled test doubles), each "future" runs the blocking
        invocation eagerly and arrives already completed — same results,
        no overlap.
        """
        invoke_async_fn = object.__getattribute__(self, "_invoke_async_fn")
        if invoke_async_fn is None:
            invoke_fn = object.__getattribute__(self, "_invoke_fn")

            def eager(ref: RemoteRef, method: str, args: "tuple[Any, ...]",
                      kwargs: "dict[str, Any]",
                      deadline: Deadline | None = None) -> CallFuture:
                future = CallFuture(f"{ref}.{method}")
                if deadline is not None and deadline.expired:
                    future._fail(CallTimeoutError(
                        f"{ref}.{method}: deadline expired"
                    ))
                    return future
                try:
                    future._resolve(invoke_fn(ref, method, args, kwargs))
                except Exception as exc:
                    future._fail(exc)
                return future

            invoke_async_fn = eager
        return _FutureCaller(self._ref, invoke_async_fn)

    def __getattr__(self, method: str) -> Callable[..., Any]:
        return _bound_remote_method(
            object.__getattribute__(self, "_ref"),
            method,
            object.__getattribute__(self, "_invoke_fn"),
        )

    def __setattr__(self, name: str, value: Any) -> None:
        if name in self._INTERNALS:
            object.__setattr__(self, name, value)
            return
        raise ConfigurationError(
            "remote field writes are not part of the RMI model; "
            f"call a method instead of assigning {name!r}"
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Stub) and other._ref == self._ref

    def __hash__(self) -> int:
        return hash(self._ref)

    def __repr__(self) -> str:
        return f"Stub({self._ref})"

    def __reduce__(self) -> NoReturn:
        # Stubs never pickle directly: the marshalling layer intercepts them
        # via its reducer_override hook and ships only the ref.  Reaching this
        # line means someone bypassed repro.rmi.marshal.
        raise ConfigurationError(
            "stubs must be marshalled with repro.rmi.marshal, not pickled raw"
        )


class DetachedStubError(ConfigurationError):
    """A stub was unmarshalled without a namespace to re-attach it to."""


def detached_stub(ref: RemoteRef) -> Stub:
    """A stub that remembers its ref but raises if invoked.

    Used when unmarshalling outside any namespace (e.g. inspecting a blob in
    a test); real namespaces pass a live ``invoke_fn`` instead.
    """

    def refuse(_ref: RemoteRef, method: str, args: "tuple[Any, ...]",
               kwargs: "dict[str, Any]") -> Any:
        raise DetachedStubError(
            f"stub for {_ref} is detached; it can only be invoked after "
            "being received by a namespace"
        )

    return Stub(ref, refuse)
