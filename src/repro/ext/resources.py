"""Resource allocation (§7 future work).

The second model the conclusion promises: namespaces advertise capacity,
migrations request admission, and over-budget moves are refused — the
mechanism a WAN-scale MAGE needs so "resources appear and disappear"
without hosts being overrun.

A :class:`ResourceBudget` tracks named capacities (slots, memory units,
whatever the deployment measures).  A :class:`MeteredNamespace` wraps a
namespace's dispatcher: inbound object transfers (an agent's hop is
one) and instantiations must fit the budget or fail with
:class:`~repro.errors.ResourceExhaustedError`; departures and
unregistrations release their share.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import ResourceExhaustedError
from repro.net.message import Message, MessageKind
from repro.runtime.namespace import Namespace

#: Default resource dimension: how many mobile objects a node will host.
OBJECT_SLOTS = "object_slots"


class ResourceBudget:
    """Named capacities with admission control."""

    def __init__(self, node_id: str, capacities: dict[str, float] | None = None) -> None:
        self.node_id = node_id
        self._capacity: dict[str, float] = dict(capacities or {})
        self._used: dict[str, float] = {name: 0.0 for name in self._capacity}
        self._lock = threading.Lock()

    def set_capacity(self, resource: str, capacity: float) -> None:
        """Declare (or change) the capacity of ``resource``."""
        if capacity < 0:
            raise ValueError(f"capacity cannot be negative: {capacity}")
        with self._lock:
            self._capacity[resource] = float(capacity)
            self._used.setdefault(resource, 0.0)

    def capacity(self, resource: str) -> float:
        """Declared capacity (unbounded when never declared)."""
        with self._lock:
            return self._capacity.get(resource, float("inf"))

    def used(self, resource: str) -> float:
        """Currently admitted amount."""
        with self._lock:
            return self._used.get(resource, 0.0)

    def available(self, resource: str) -> float:
        """Remaining headroom."""
        with self._lock:
            cap = self._capacity.get(resource, float("inf"))
            return cap - self._used.get(resource, 0.0)

    def admit(self, resource: str, amount: float = 1.0) -> None:
        """Take ``amount`` of ``resource`` or raise (atomic)."""
        with self._lock:
            cap = self._capacity.get(resource, float("inf"))
            used = self._used.get(resource, 0.0)
            if used + amount > cap:
                raise ResourceExhaustedError(
                    node_id=self.node_id, resource=resource,
                    requested=amount, available=cap - used,
                )
            self._used[resource] = used + amount

    def release(self, resource: str, amount: float = 1.0) -> None:
        """Give back ``amount`` (floored at zero; releases never fail)."""
        with self._lock:
            used = self._used.get(resource, 0.0)
            self._used[resource] = max(0.0, used - amount)


#: Inbound kinds that may materialize an object: a single-frame
#: transfer, a streamed one's commit (a hedge's TRANSFER_COMMIT, or the
#: last chunk of a single-target stream), an instantiation.  Each
#: arrival takes a slot.
_ADMITTING_KINDS = frozenset({
    MessageKind.OBJECT_TRANSFER,
    MessageKind.TRANSFER_CHUNK,
    MessageKind.TRANSFER_COMMIT,
    MessageKind.INSTANTIATE,
})


class MeteredNamespace:
    """Wraps a namespace's inbound dispatcher with admission control.

    Occupancy accounting: an arrival (a transfer or its commit, an
    instantiation) takes one ``object_slots`` unit before the inner
    handler runs, gives it back if the handler fails, and otherwise
    makes its object a *tenant* holding that slot.  Objects leave by
    many paths — a MOVE_REQUEST, an agent's next hop from a posted
    step, an unregistration — so before each admission the tenants no
    longer in the store give their slots back.  Only tenants do: a local
    resident never held a slot, and an admission still in its handler
    keeps its own.
    """

    def __init__(self, namespace: Namespace, budget: ResourceBudget) -> None:
        self.ns = namespace
        self.budget = budget
        self.rejections = 0
        self._lock = threading.Lock()
        #: Names of the admitted objects; each holds one slot.
        self._tenants: set[str] = set()
        self._inner_handle = namespace.external.handle
        namespace.transport.register(namespace.node_id, self.handle)

    def handle(self, message: Message) -> Any:
        """Meter one inbound message, then delegate to the real dispatcher."""
        payload = message.payload
        if message.kind is MessageKind.TRANSFER_CHUNK:
            payload = payload.commit  # only a committing chunk admits
        if (message.kind not in _ADMITTING_KINDS or payload is None
                or message.is_local):
            return self._inner_handle(message)
        with self._lock:
            self._release_departed()
            try:
                self.budget.admit(OBJECT_SLOTS, 1.0)
            except ResourceExhaustedError:
                self.rejections += 1
                raise
        try:
            result = self._inner_handle(message)
        except BaseException:
            self.budget.release(OBJECT_SLOTS, 1.0)
            raise
        name = payload.name
        with self._lock:
            if name in self._tenants:
                # A retransmission, or a tenant back before its departure
                # was counted: the name holds one slot, not two.
                self.budget.release(OBJECT_SLOTS, 1.0)
            self._tenants.add(name)
        return result

    def _release_departed(self) -> None:
        """Give back the slots of tenants that left the store."""
        gone = {name for name in self._tenants
                if not self.ns.store.contains(name)}
        self._tenants -= gone
        self.budget.release(OBJECT_SLOTS, float(len(gone)))


def meter(namespace: Namespace, capacities: dict[str, float]) -> MeteredNamespace:
    """Install admission control on ``namespace`` with ``capacities``."""
    budget = ResourceBudget(namespace.node_id, capacities)
    return MeteredNamespace(namespace, budget)
