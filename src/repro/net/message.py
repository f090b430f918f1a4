"""Wire messages.

Every interaction in the system — RMI invocations, registry lookups, object
and class transfers, lock traffic, agent hops — travels as a
:class:`Message` envelope through a transport.  This uniformity is what lets
the figure-reproduction benches read protocols straight off the message
trace: the GREV protocol of the paper's Figure 7, for instance, appears as
its literal message sequence.

Local interactions (a mobility attribute consulting the registry in its own
namespace) also travel as messages with ``src == dst``; the latency model
charges them (near-)zero time.  The paper draws these local consultations as
messages 1 and 2 of Figure 7, so modelling them uniformly keeps our traces
comparable with the paper's figures.
"""

from __future__ import annotations

import enum
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from repro.net.deadline import Deadline
from repro.util.ids import fresh_token


class MessageKind(enum.Enum):
    """Every message type in the MAGE protocol family."""

    # --- RMI substrate -----------------------------------------------------
    INVOKE = "INVOKE"                    # method invocation on a servant
    REGISTRY_LOOKUP = "REGISTRY_LOOKUP"  # Naming.lookup against a node registry
    REGISTRY_BIND = "REGISTRY_BIND"      # Naming.bind / rebind
    REGISTRY_UNBIND = "REGISTRY_UNBIND"  # Naming.unbind
    REGISTRY_LIST = "REGISTRY_LIST"      # Naming.list_bindings

    # --- MAGE runtime ------------------------------------------------------
    FIND = "FIND"                        # forwarding-chain component lookup
    MOVE_REQUEST = "MOVE_REQUEST"        # ask the hosting node to ship an object
    OBJECT_TRANSFER = "OBJECT_TRANSFER"  # host -> target: serialized object (+class)
    TRANSFER_PREPARE = "TRANSFER_PREPARE"  # reserve a staging slot for a streamed transfer
    TRANSFER_CHUNK = "TRANSFER_CHUNK"      # one slice of a streamed transfer's state
    TRANSFER_COMMIT = "TRANSFER_COMMIT"    # atomically apply a fully staged transfer
    TRANSFER_ABORT = "TRANSFER_ABORT"      # discard a staged (or staging) transfer
    CLASS_REQUEST = "CLASS_REQUEST"      # pull a class definition (conditional)
    CLASS_TRANSFER = "CLASS_TRANSFER"    # push a class definition (probe or body)
    INSTANTIATE = "INSTANTIATE"          # create an object from a cached class
    LOCK_REQUEST = "LOCK_REQUEST"        # stay/move lock acquisition
    LOCK_CONFIRM = "LOCK_CONFIRM"        # acknowledge a provisional (leased) grant
    UNLOCK = "UNLOCK"                    # lock release
    AGENT_HOP = "AGENT_HOP"              # one-way mobile-agent hop
    AGENT_LAUNCH = "AGENT_LAUNCH"        # start an itinerary at the agent's host
    LOAD_QUERY = "LOAD_QUERY"            # host load for migration policies
    PING = "PING"                        # liveness probe
    JOIN = "JOIN"                        # membership: newcomer presents itself to a seed
    ANNOUNCE = "ANNOUNCE"                # membership: address-book propagation
    BATCH = "BATCH"                      # several requests riding one frame (see Batch)

    # --- Replies -----------------------------------------------------------
    # (Definition order is the binary wire codec's kind-code table; it is
    # part of the wire-format digest, so any edit here changes the format.)
    REPLY = "REPLY"                      # response envelope for any request


#: Kinds sent with ``Transport.cast`` — fire-and-forget, never answered.
#: Mobile-agent hops are the paper's one asynchronous interaction (§3.5).
ONEWAY_KINDS = frozenset({MessageKind.AGENT_HOP})

#: Kinds whose handlers move object state (marshalled payloads, staging
#: writes, migration commits) rather than running quick control logic.
#: The server dispatches these to a dedicated background pool so a bulk
#: transfer can never queue behind — or starve — latency-sensitive
#: request handling on the hot path.
BULK_KINDS = frozenset({
    MessageKind.OBJECT_TRANSFER,
    MessageKind.TRANSFER_PREPARE,
    MessageKind.TRANSFER_CHUNK,
    MessageKind.TRANSFER_COMMIT,
    MessageKind.TRANSFER_ABORT,
})

#: Kinds whose handlers *may* be cheap and non-blocking: the TCP server
#: dispatches these inline on the reactor loop thread (under a time-budget
#: guard), skipping the worker-pool handoff entirely — but only when the
#: registered handler itself opted in via :func:`inline_safe`.  Growing this
#: set is a contract: an opted-in handler must not perform blocking calls —
#: magelint rule MAGE009 checks the handlers these kinds dispatch to against
#: the blocking-call inference.
INLINE_KINDS = frozenset({
    MessageKind.PING,
    MessageKind.LOAD_QUERY,
})


_HandlerT = TypeVar("_HandlerT", bound=Callable[..., Any])


def inline_safe(handler: _HandlerT) -> _HandlerT:
    """Declare that ``handler`` is non-blocking for :data:`INLINE_KINDS`.

    Inline dispatch is double-gated: the *kind* must be in the allowlist
    **and** the registered handler must carry this declaration — an
    arbitrary handler (a test double that sleeps, a third-party callable)
    never runs on the reactor loop just because it serves PING.  The
    declaration is a registration contract, checked statically by
    magelint MAGE009 and dynamically by the server's per-call time
    budget (persistent overruns demote the fast path).
    """
    handler.inline_kinds = INLINE_KINDS  # type: ignore[attr-defined]
    return handler


@dataclass(frozen=True)
class Message:
    """A single message on the wire.

    ``payload`` holds a protocol dataclass from :mod:`repro.rmi.protocol`
    (or a plain value for simple kinds).  ``in_reply_to`` carries the kind of
    the request a REPLY answers so traces read like the paper's figures,
    e.g. ``REPLY(INVOKE)``.  ``reply_to_id`` carries the *message id* of the
    request a REPLY answers: transports that pipeline several concurrent
    requests over one connection (the TCP transport) match replies to
    waiting callers by this id.

    ``deadline`` is the request's remaining end-to-end time budget (or
    ``None``, the unbounded default).  It rides the header so every hop of
    a multi-hop chain (forwarding walks, lock chases) sees the *shrinking*
    budget: the transport's dispatch drops requests whose deadline expired
    in flight or in queue, and makes the deadline ambient while the
    handler runs so nested calls inherit it.  Replies carry no deadline —
    the waiting caller enforces its own budget.
    """

    kind: MessageKind
    src: str
    dst: str
    payload: Any = None
    msg_id: str = field(default_factory=lambda: fresh_token("msg"))
    in_reply_to: MessageKind | None = None
    reply_to_id: str = ""
    deadline: Deadline | None = None

    def reply(self, payload: Any) -> "Message":
        """Build the response envelope for this request.

        The reply's own id is derived from the request's rather than drawn
        from the global token counter: replies are matched by
        ``reply_to_id`` and never deduplicated by id, so a derived id is
        just as unique — and skips a process-wide lock on the hot path.

        Built via ``__new__`` + one ``__dict__.update``: the frozen
        dataclass ``__init__`` pays ``object.__setattr__`` per field
        (~2 µs per reply), measurable at pipelined call rates.
        """
        message = Message.__new__(Message)
        message.__dict__.update(
            kind=MessageKind.REPLY,
            src=self.dst,
            dst=self.src,
            payload=payload,
            msg_id=f"{self.msg_id}-r",
            in_reply_to=self.kind,
            reply_to_id=self.msg_id,
            deadline=None,
        )
        return message

    @property
    def is_local(self) -> bool:
        """True when the message never leaves its namespace."""
        return self.src == self.dst

    def describe(self) -> str:
        """Human-readable one-liner used by traces and debug output."""
        kind = self.kind.value
        if self.kind is MessageKind.REPLY and self.in_reply_to is not None:
            kind = f"REPLY({self.in_reply_to.value})"
        return f"{self.src} -> {self.dst}: {kind}"


def build_message(
    kind: MessageKind,
    src: str,
    dst: str,
    payload: Any = None,
    deadline: Deadline | None = None,
) -> Message:
    """Construct a request :class:`Message` on the hot path.

    Semantically identical to ``Message(kind=..., src=..., ...)`` with a
    fresh ``msg_id``, but built via ``__new__`` + one ``__dict__.update``
    like :meth:`Message.reply`: the frozen dataclass ``__init__`` pays
    ``object.__setattr__`` per field (~2 µs per message), which the
    caller-side transmit path pays on every pipelined call.
    """
    message = Message.__new__(Message)
    message.__dict__.update(
        kind=kind,
        src=src,
        dst=dst,
        payload=payload,
        msg_id=fresh_token("msg"),
        in_reply_to=None,
        reply_to_id="",
        deadline=deadline,
    )
    return message


def payload_nbytes(message: "Message") -> int:
    """Approximate wire size of a message's payload.

    Blob-carrying payloads are measured by pickling (their bytes dominate);
    unpicklable payloads — which only arise for in-process-only values —
    fall back to a flat estimate.  Used by bandwidth-aware latency models
    and by the trace's bytes-on-the-wire accounting.

    The result is memoized on the (immutable) message, so the latency
    model and the trace share one measurement instead of pickling the
    payload once each.
    """
    d = message.__dict__
    cached = d.get("_nbytes_cache")
    if type(cached) is int:
        return cached
    payload = message.payload
    if payload is None:
        n = 64
    else:
        try:
            n = 64 + len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            n = 256
    d["_nbytes_cache"] = n
    return n


@dataclass(frozen=True)
class ReplyPayload:
    """Reply body: either a value or a marshalled exception.

    Exactly one of ``value``/``error`` is meaningful; ``error`` wins when
    set.  ``remote_traceback`` preserves the servant-side stack for
    :class:`repro.errors.RemoteInvocationError`.
    """

    value: Any = None
    error: BaseException | None = None
    remote_traceback: str = ""

    @property
    def is_error(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class Batch:
    """The payload of a BATCH frame: several requests, one reply.

    ``subs`` are complete request messages — each keeps its own message
    id, hence its own at-most-once slot and deadline admission at the
    destination.  ``sequential`` is the one difference between the two
    things that build a batch: ``call_many`` promises the behaviour of
    the sequence of calls it replaces (run in order, stop after the
    first error), while the TCP transport's auto-batcher coalesces calls
    that know nothing of each other (every sub runs; the server may run
    them side by side).  Either way the reply's value is one
    ``(sub message id, ReplyPayload)`` pair per sub that ran, in request
    order.
    """

    subs: tuple[Message, ...]
    sequential: bool
