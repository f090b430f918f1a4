"""Exception hierarchy for the MAGE reproduction.

Every error raised by this library derives from :class:`MageError`, so a
caller can catch the whole family with one ``except`` clause.  The hierarchy
mirrors the system's layering: transport errors at the bottom, RMI errors
above them, then runtime (migration / locking / registry) errors, and
finally errors specific to mobility attributes — most importantly
:class:`ImmobileObjectError`, the exception Table 2 of the paper specifies
for the RPC mobility attribute when its component is not at the expected
location.

Errors here cross the wire: a handler's exception is marshalled into the
reply and re-raised at the caller.  Classes whose ``__init__`` takes more
than a message string therefore override ``__reduce__`` to replay their
constructor arguments — the default ``Exception`` reduction replays
``self.args`` (the formatted message), which would fail to rebuild them
and, on the TCP transport, kill the shared connection the reply arrived
on.  :class:`LockMovedError` is the load-bearing case: the §4.4 chase
protocol *is* this exception crossing node boundaries.
"""

from __future__ import annotations

from typing import Any


class MageError(Exception):
    """Base class for all errors raised by the MAGE reproduction."""


class ConfigurationError(MageError):
    """The runtime or cluster was configured inconsistently."""


# ---------------------------------------------------------------------------
# Transport layer
# ---------------------------------------------------------------------------


class TransportError(MageError):
    """A message could not be delivered."""


class NodeUnreachableError(TransportError):
    """The destination node does not exist, has crashed, or is partitioned."""

    def __init__(self, node_id: str, reason: str = "unreachable") -> None:
        super().__init__(f"node {node_id!r} is {reason}")
        self.node_id = node_id
        self.reason = reason

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.node_id, self.reason))


class ProtocolMismatchError(TransportError):
    """A peer's HELLO named another protocol version or wire format.

    The connection is refused during the handshake, before any request
    frame is written, and the dial is never retried: the two builds
    cannot decode each other's frames, so retrying cannot help.
    """

    def __init__(self, node_id: str, local_version: int, local_format: str,
                 peer_version: object, peer_format: object) -> None:
        super().__init__(
            f"node {node_id!r} speaks protocol version {peer_version!r}, "
            f"wire format {peer_format!r}; this build speaks version "
            f"{local_version!r}, wire format {local_format!r}"
        )
        self.node_id = node_id
        self.local_version = local_version
        self.local_format = local_format
        self.peer_version = peer_version
        self.peer_format = peer_format

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.node_id, self.local_version,
                             self.local_format, self.peer_version,
                             self.peer_format))


class MessageLostError(TransportError):
    """A single message transmission was lost.

    The transport retries lost messages; this surfaces only when the retry
    budget is exhausted.
    """


class CallTimeoutError(TransportError):
    """A request/response exchange did not complete within its deadline."""


class CallCancelledError(TransportError):
    """The caller abandoned the exchange via ``CallFuture.cancel()``.

    Raised by ``result()`` on a cancelled future.  Cancellation is a
    *client-side* act: the request may still execute at the destination
    (its reply is dropped), exactly like a timed-out exchange.
    """


# ---------------------------------------------------------------------------
# RMI substrate
# ---------------------------------------------------------------------------


class RmiError(MageError):
    """Base class for RMI-level failures."""


class MarshalError(RmiError):
    """A value could not be marshalled or unmarshalled."""


class NamingError(RmiError):
    """Base class for registry naming failures."""


class NotBoundError(NamingError):
    """Lookup of a name that has no binding in the registry."""

    def __init__(self, name: str) -> None:
        super().__init__(f"name {name!r} is not bound")
        self.name = name

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.name,))


class AlreadyBoundError(NamingError):
    """``bind`` of a name that already has a binding (use ``rebind``)."""

    def __init__(self, name: str) -> None:
        super().__init__(f"name {name!r} is already bound")
        self.name = name

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.name,))


class RemoteInvocationError(RmiError):
    """A servant raised while executing a remote invocation.

    The remote traceback text is preserved so callers can diagnose the
    failure without access to the remote namespace.
    """

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.args[0], self.remote_traceback))


class NoSuchObjectError(RmiError):
    """An invocation arrived for a servant the target namespace lacks."""

    def __init__(self, name: str, node_id: str = "") -> None:
        where = f" on node {node_id!r}" if node_id else ""
        super().__init__(f"no servant {name!r}{where}")
        self.name = name
        self.node_id = node_id

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.name, self.node_id))


# ---------------------------------------------------------------------------
# MAGE runtime
# ---------------------------------------------------------------------------


class RuntimeMageError(MageError):
    """Base class for MAGE runtime-system failures."""


class ComponentNotFoundError(RuntimeMageError):
    """The registry's forwarding chain did not lead to the component."""

    def __init__(self, name: str, detail: str = "") -> None:
        suffix = f": {detail}" if detail else ""
        super().__init__(f"component {name!r} could not be found{suffix}")
        self.name = name
        self.detail = detail

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.name, self.detail))


class ClassTransferError(RuntimeMageError):
    """A class definition could not be shipped or loaded."""


class MigrationError(RuntimeMageError):
    """An object move failed part-way."""


class ObjectPinnedError(MigrationError):
    """The object is pinned to its namespace and refuses to move."""


class LockError(RuntimeMageError):
    """Base class for stay/move locking failures."""


class LockMovedError(LockError):
    """The object moved while this request waited; re-request at the new host.

    Carries the new location so the requester can retry without another
    registry walk.
    """

    def __init__(self, name: str, new_location: str) -> None:
        super().__init__(f"object {name!r} moved to {new_location!r} while lock waited")
        self.name = name
        self.new_location = new_location

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.name, self.new_location))


class LockTimeoutError(LockError):
    """A lock request waited longer than its deadline."""


# ---------------------------------------------------------------------------
# Mobility attributes (the paper's core contribution)
# ---------------------------------------------------------------------------


class AttributeError_(MageError):
    """Base class for mobility-attribute failures.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class ImmobileObjectError(AttributeError_):
    """RPC's Table 2 exception: the component is not where RPC requires it.

    The paper provides the RPC attribute "so that a programmer could use it
    to denote an immobile object.  MAGE RPC throws an exception if it does
    not find its object on its target."
    """

    def __init__(self, name: str, expected: str, actual: str) -> None:
        super().__init__(
            f"RPC-bound object {name!r} expected on {expected!r} "
            f"but found on {actual!r}"
        )
        self.name = name
        self.expected = expected
        self.actual = actual

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.name, self.expected, self.actual))


class CoercionError(AttributeError_):
    """No coercion applies for a model/location scenario (e.g. COD n/a cell)."""


class TargetRestrictedError(AttributeError_):
    """A restricted attribute refused a target outside its allowed set."""


# ---------------------------------------------------------------------------
# Extensions (§7 future work: access control, resource allocation)
# ---------------------------------------------------------------------------


class ExtensionError(MageError):
    """Base class for the §7 extension models."""


class AccessDeniedError(ExtensionError):
    """The access-control model denied a move or invocation."""

    def __init__(self, principal: str, action: str, resource: str) -> None:
        super().__init__(f"principal {principal!r} may not {action} {resource!r}")
        self.principal = principal
        self.action = action
        self.resource = resource

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.principal, self.action, self.resource))


class ResourceExhaustedError(ExtensionError):
    """The resource-allocation model rejected an admission request."""

    def __init__(self, node_id: str, resource: str,
                 requested: float, available: float) -> None:
        super().__init__(
            f"node {node_id!r} cannot admit {requested} {resource} "
            f"(available: {available})"
        )
        self.node_id = node_id
        self.resource = resource
        self.requested = requested
        self.available = available

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.node_id, self.resource, self.requested,
                             self.available))
