"""Transport abstraction.

A transport delivers :class:`~repro.net.message.Message` envelopes between
named nodes.  Two interaction styles exist, matching the paper's
protocols:

* ``call`` — synchronous request/response, the shape of an RMI call.  All
  of RPC/REV/COD/GREV/CLE traffic is built from calls.
* ``cast`` — one-way, best-effort, never answered.  MA's ``send`` uses
  it: "the result stays at the remote host" (Table 3).

``call`` also exists as a *future-returning* form, ``call_async`` —
the primitive every multi-node runtime operation (class fan-out, load
sweeps, parallel find probes) scatters over.  ``call`` is literally
``call_async(...).result()``, so the two forms can never drift apart
semantically.  The base implementation completes the future *eagerly
on the calling thread* — zero extra threads, fully deterministic,
which is exactly what the simulated network needs for reproducible
traces.  Transports whose wire protocol already decouples send from
receive (the pipelined TCP transport) override
:meth:`Transport._transmit_async` to return a genuinely in-flight
future, so N futures to N nodes overlap their round trips.

A BATCH frame (payload :class:`~repro.net.message.Batch`) is built by
one thing only, the TCP transport's auto-batcher, which coalesces calls
queued behind a round trip; :meth:`Transport.execute_batch` runs it at
the destination.  Its subs are independent calls that happened to
share a frame: each keeps its own message id, at-most-once slot and
deadline admission, and every one runs.

Deferred work has one door, :meth:`Transport.post`, and
:meth:`Transport.quiesce` waits it out: the simulated network queues
posted jobs and runs them, in posting order, on the thread that calls
``quiesce``; the TCP transport runs them on its worker pool.

Reliability: §4.3 requires protocols to "recover from message loss", so
``call`` retries lost transmissions up to a budget.  Because a reply can be
lost *after* the handler ran, every node's dispatch path is wrapped in a
:class:`ReplyCache` keyed by message id, giving at-most-once execution —
retries of an executed request replay the cached reply instead of
re-executing a (possibly non-idempotent) move.

The at-most-once path is *single-flight*: while a request is executing,
a concurrently arriving retransmission of the same message id blocks on
the in-flight execution and then replays its reply, rather than missing
the cache and running the handler a second time.  Control-flow exceptions
(``KeyboardInterrupt``, ``SystemExit``) are never cached as replies; they
propagate out of the dispatch path so a node can actually shut down.

Deadlines: every request/response form accepts a
:class:`~repro.net.deadline.Deadline` — one end-to-end budget that rides
the message header, bounds the send/retry/wait path on the caller's side,
is enforced at the destination's dispatch (expired requests are dropped at
dequeue), and becomes ambient while the handler runs so nested calls
inherit the shrinking remainder.  ``CallFuture.cancel()`` is the
companion: a fan-out that already has its answer cuts its stragglers off
instead of waiting out the io timeout (see :func:`gather`'s
``cancel_stragglers``).  With no deadline set, every path is byte- and
trace-identical to the pre-deadline behaviour.
"""

from __future__ import annotations

import queue
import threading
import time
from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import (
    CallCancelledError,
    CallTimeoutError,
    MessageLostError,
    NodeUnreachableError,
)
from repro.net.deadline import (
    Deadline,
    current_deadline,
    deadline_scope,
    effective_deadline,
)
from repro.net.endpoint import Endpoint
from repro.net.message import (
    Batch,
    Message,
    MessageKind,
    ReplyPayload,
    build_message,
)
from repro.net.trace import MessageTrace
from repro.util.clock import Clock

#: A node's message dispatcher: receives a request, returns the reply payload
#: value (or raises; the transport marshals the exception back to the caller).
MessageHandler = Callable[[Message], Any]

#: How many times ``call`` retransmits after a loss before giving up.
DEFAULT_RETRY_BUDGET = 8

#: Assumed floor on one transmission attempt's cost when scaling the
#: retry loop to a request's remaining deadline budget: a call with less
#: than this much budget left is not worth another attempt.
MIN_ATTEMPT_COST_S = 0.001


class CallFuture:
    """The pending result of an asynchronous request/response exchange.

    Completion is first-wins and happens exactly once: the transport either
    resolves the future with the unwrapped reply value or fails it with the
    exception the equivalent blocking ``call`` would have raised (marshalled
    handler errors, :class:`~repro.errors.NodeUnreachableError`,
    :class:`~repro.errors.MessageLostError`, ...).

    * :meth:`result` blocks until completion, then returns the value or
      re-raises the exception — so ``call_async(...).result()`` is exactly
      ``call(...)``.
    * :meth:`exception` blocks the same way but *returns* the exception
      (``None`` on success) instead of raising it, which is what fan-out
      sweeps that tolerate partial failure want.
    * :meth:`done` never blocks.
    * :meth:`cancel` abandons the exchange: the future completes with
      :class:`~repro.errors.CallCancelledError` (first-wins — a reply that
      already resolved it makes ``cancel`` a no-op returning ``False``),
      and natively asynchronous transports release the in-flight exchange
      exactly like a timed-out waiter.  A cancelled straggler stops
      costing its caller anything; whether the request still executes at
      the destination is the destination's business.
    * :meth:`map` derives a future whose value is ``fn(value)``; the mapper
      runs lazily on the collecting thread (RMI uses this to unmarshal off
      the transport's reader thread).
    * :meth:`add_done_callback` runs ``fn(future)`` on completion (on the
      completing thread; immediately when already done).

    Futures produced by the base transport are already completed when they
    are returned (the exchange ran eagerly on the calling thread); only
    transports with a natively asynchronous wire path hand out futures that
    are still in flight.
    """

    def __init__(self, describe: str | Callable[[], str] = "call") -> None:
        # A callable defers the label's formatting to the (rare) error
        # paths — the hot path never pays for a string nobody reads.
        self._describe = describe
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._value: Any = None
        self._error: BaseException | None = None
        self._cancelled = False
        self._callbacks: list[Callable[["CallFuture"], None]] = []

    # -- completion (transport-internal; the first completion wins) ----------

    def _resolve(self, value: Any) -> bool:
        return self._complete(value, None)

    def _fail(self, error: BaseException) -> bool:
        return self._complete(None, error)

    def _complete(self, value: Any, error: BaseException | None,
                  cancelled: bool = False) -> bool:
        """Complete once; ``False`` when a racing completion already won."""
        with self._lock:
            if self._event.is_set():
                return False
            self._value = value
            self._error = error
            self._cancelled = cancelled
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return True

    def _complete_from_reply(self, reply: Message) -> bool:
        """Unwrap a reply envelope into this future's outcome.

        Mirrors what ``call`` raises/returns: a marshalled handler
        exception fails the future, anything else resolves it.  Returns
        whether the reply completed the future (``False``: a timeout or
        cancel won).
        """
        payload = reply.payload
        if isinstance(payload, ReplyPayload):
            error = payload.error
            if error is not None:
                return self._fail(error)
            return self._resolve(payload.value)
        return self._resolve(payload)

    # -- waiting --------------------------------------------------------------

    def done(self) -> bool:
        """Whether the exchange completed (value or exception); never blocks."""
        return self._event.is_set()

    # -- cancellation ---------------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> bool:
        """Abandon the exchange; never blocks.

        Completes the future with :class:`~repro.errors.CallCancelledError`
        (first-wins: a racing reply that already completed it wins and
        ``cancel`` returns ``False``) and releases any transport resources
        the exchange holds — on the pipelined TCP transport the pending
        reply slot, exactly as a timed-out waiter, so a late reply goes
        to its node's handler and other waiters on the shared connection
        are untouched.  On the simulated network futures complete eagerly,
        so a straggler can only be "cancelled" before it is issued — the
        call is then a harmless no-op, which is what keeps deterministic
        fan-out code transport-portable.

        Returns ``True`` when the future is (now or already) cancelled.
        """
        self._abandon()
        self._complete(
            None, CallCancelledError(f"{self._label()}: {reason}"),
            cancelled=True,
        )
        return self._cancelled

    def cancelled(self) -> bool:
        """Whether :meth:`cancel` completed this future; never blocks."""
        return self._cancelled

    def _label(self) -> str:
        """The human-readable call label for error messages."""
        describe = self._describe
        return describe() if callable(describe) else describe

    def _abandon(self) -> None:
        """Release transport resources on cancel (native transports override)."""

    def _wait_bound_s(self) -> float | None:
        """Upper bound on how long this future may stay pending, or ``None``.

        Futures from the base (eager) transports are complete on arrival,
        so no bound applies; a natively asynchronous transport reports the
        remainder of its io-timeout window, which lets completion-order
        collectors (hedged chases, ``locate_any``) avoid waiting forever
        on an exchange the transport itself would have timed out.
        """
        return None

    def result(self, timeout_s: float | None = None) -> Any:
        """The reply value; blocks until completion, re-raises failures."""
        self._await(timeout_s)
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout_s: float | None = None) -> BaseException | None:
        """The failure (or ``None``); blocks until completion like ``result``."""
        self._await(timeout_s)
        return self._error

    def _await(self, timeout_s: float | None) -> None:
        if not self._event.wait(timeout_s):
            self._on_wait_timeout(timeout_s)

    def _on_wait_timeout(self, timeout_s: float | None) -> None:
        # The future may still complete later; waiting merely gave up.
        # (Natively asynchronous transports override this to abandon the
        # exchange, which is what a timed-out ``call`` must do.)
        raise CallTimeoutError(
            f"{self._label()}: not completed within {timeout_s}s"
        )

    # -- composition -----------------------------------------------------------

    def add_done_callback(self, fn: Callable[["CallFuture"], None]) -> None:
        """Run ``fn(self)`` once completed (immediately if already done)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def map(self, fn: Callable[[Any], Any]) -> "CallFuture":
        """A future resolving to ``fn(value)``, evaluated on the collector.

        The mapper runs at most once, lazily, on whichever thread collects
        the result first — never on the transport's reader thread.  A
        mapper that raises fails the derived future (the source future is
        unaffected).
        """
        return _MappedFuture(self, fn)

    @classmethod
    def completed(cls, value: Any, describe: str = "call") -> "CallFuture":
        """An already-resolved future (local fast paths of fan-out ops)."""
        future = cls(describe)
        future._resolve(value)
        return future


class _MappedFuture(CallFuture):
    """Lazy ``fn(value)`` view over a source future (see CallFuture.map)."""

    def __init__(self, source: CallFuture, fn: Callable[[Any], Any]) -> None:
        super().__init__(source._describe)
        self._source = source
        self._fn = fn

    def done(self) -> bool:
        return self._source.done()

    def cancel(self, reason: str = "cancelled") -> bool:
        # Cancelling the view abandons the underlying exchange; the view
        # then surfaces the source's CallCancelledError unmapped.
        return self._source.cancel(reason)

    def cancelled(self) -> bool:
        return self._source.cancelled()

    def _wait_bound_s(self) -> float | None:
        return self._source._wait_bound_s()

    def result(self, timeout_s: float | None = None) -> Any:
        value = self._source.result(timeout_s)
        with self._lock:
            if not self._event.is_set():
                try:
                    self._value = self._fn(value)
                except Exception as exc:
                    self._error = exc
                self._event.set()
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout_s: float | None = None) -> BaseException | None:
        error = self._source.exception(timeout_s)
        if error is not None:
            return error
        try:
            self.result(timeout_s)
        except Exception as exc:  # a failing mapper is this future's failure
            return exc
        return None

    def add_done_callback(self, fn: Callable[[CallFuture], None]) -> None:
        self._source.add_done_callback(lambda _source: fn(self))


def gather(futures: Sequence[CallFuture], timeout_s: float | None = None,
           return_exceptions: bool = False,
           deadline: Deadline | None = None,
           cancel_stragglers: bool = False) -> list[Any]:
    """Collect every future's result, in order.

    The scatter-gather companion: issue N ``call_async``s, then
    ``gather(futures)``.  With ``return_exceptions=True`` a failed future
    contributes its exception object instead of raising, so one dead node
    cannot abort a sweep.  Without it, the first failure (in *input* order,
    after its own wait) raises.

    ``timeout_s`` and ``deadline`` bound the **whole gather** by one shared
    deadline (``timeout_s`` anchors at entry; when both are given the
    tighter wins).  Every wait is rebased on the remaining shared budget,
    so N hung futures cost one timeout window in total — not N stacked
    windows, which is what a per-wait timeout used to cost.  A future the
    budget expires on contributes/raises :class:`CallTimeoutError`.

    ``cancel_stragglers=True`` cancels any future still pending when the
    gather returns or raises — an aborted sweep (first failure, expired
    budget) leaves no exchange silently consuming io-timeout at the
    transport.  Completed futures are untouched, so on the eagerly
    completing simulated network this mode is trace-identical to the
    default.
    """
    shared = Deadline.tighter(
        deadline,
        Deadline.after_s(timeout_s) if timeout_s is not None else None,
    )
    futures = list(futures)
    results: list[Any] = []
    try:
        for future in futures:
            try:
                wait_s = shared.remaining_s() if shared is not None else None
                if wait_s is not None:
                    # A shared budget larger than a future's own transport
                    # window must not extend that wait: the future still
                    # times out when its blocking equivalent would have.
                    bound = future._wait_bound_s()
                    if bound is not None:
                        wait_s = min(wait_s, bound)
                results.append(future.result(wait_s))
            except Exception as exc:
                if not return_exceptions:
                    raise
                results.append(exc)
    finally:
        if cancel_stragglers:
            for future in futures:
                if not future.done():
                    future.cancel("gather abandoned this straggler")
    return results


class race:
    """Yield ``(key, future)`` pairs as their exchanges complete.

    The first-wins collector (a chase over several hosts, a hedged write
    racing its candidates): one hung destination cannot stand in front
    of a fast one.  :meth:`add` works while iterating — how a chase asks
    the next host and a streamed move sends a candidate's chunks once its
    chunk 0 is acked; keys need not be unique.
    Iteration stops when nothing is pending or ``deadline`` expires; what
    is left in :attr:`pending` is then the caller's to cancel.

    One wait never outlasts the pending futures' own transport bound, and
    futures that outlive it are forced through their timeout path, so a
    race never out-waits a blocking ``result()``.  A lone pending future
    is waited on directly — no queue, no done-callback — so a one-host
    chase costs what ``call`` costs.  On the eagerly completing simulated
    network completion order *is* insertion order.
    """

    def __init__(self, deadline: Deadline | None = None) -> None:
        self.deadline = deadline
        #: Added and not yet yielded: future -> key, in insertion order.
        self.pending: dict[CallFuture, Any] = {}
        self._completions: "queue.Queue[CallFuture] | None" = None

    def add(self, key: Any, future: CallFuture) -> None:
        """Enter ``future`` under ``key`` (also while iterating)."""
        self.pending[future] = key
        if self._completions is not None:
            future.add_done_callback(self._completions.put)

    def __iter__(self) -> Iterator[tuple[Any, CallFuture]]:
        while self.pending:
            future = self._next()
            if future is None:
                return  # the deadline expired; the caller cancels the rest
            yield self.pending.pop(future), future

    def _next(self) -> CallFuture | None:
        while True:
            wait_s = self._wait_s()
            if self._completions is None and len(self.pending) == 1:
                [future] = self.pending
                try:
                    future.exception(wait_s)
                except CallTimeoutError:
                    pass  # a bare future's wait gave up; it is still pending
                if future.done():
                    return future
            else:
                if self._completions is None:
                    self._completions = queue.Queue()
                    for future in self.pending:
                        future.add_done_callback(self._completions.put)
                try:
                    return self._completions.get(timeout=wait_s)
                except queue.Empty:
                    pass
            if self.deadline is not None and self.deadline.expired:
                return None
            # Every pending future out-waited its own transport bound (not
            # the deadline): time them out rather than hang.
            for future in self.pending:
                if not future.done():
                    try:
                        future.exception(0)
                    except Exception:
                        future.cancel("race: wait bound exhausted")

    def _wait_s(self) -> float | None:
        """The deadline's remainder, capped by the pending futures' bounds."""
        wait_s = self.deadline.remaining_s() if self.deadline is not None else None
        bounds = [bound for future in self.pending
                  if (bound := future._wait_bound_s()) is not None]
        if len(bounds) == len(self.pending):
            cap = max(bounds) + 0.05
            wait_s = cap if wait_s is None else min(wait_s, cap)
        return wait_s


class ReplyCache:
    """At-most-once execution: remembers replies by request message id.

    A bounded LRU behind one lock: once more than ``capacity`` replies
    are remembered, the least recently used is evicted, so a
    retransmission of any of the last ``capacity`` replies replays it.
    Retries reuse the same message id, so a retransmission of an
    already-executed request returns the remembered reply.

    The cache also tracks *in-flight* executions (:meth:`begin` /
    :meth:`finish`), giving dispatchers single-flight semantics: a
    retransmission that arrives while the original request is still
    executing waits for that execution instead of starting a second one.
    In-flight slots are unbounded by ``capacity`` (they are bounded by the
    dispatcher's own concurrency) and are always released by ``finish``.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._entries: OrderedDict[str, ReplyPayload] = OrderedDict()
        # msg_id -> waiter event, created lazily: ``None`` marks a flight
        # nobody is waiting on yet (the common case — the Event alloc is
        # hot-path overhead only a racing retransmission needs).
        self._inflight: dict[str, threading.Event | None] = {}
        self._lock = threading.Lock()

    def get(self, msg_id: str) -> ReplyPayload | None:
        """The cached reply for ``msg_id``, refreshing its recency."""
        with self._lock:
            payload = self._entries.get(msg_id)
            if payload is not None:
                self._entries.move_to_end(msg_id)
            return payload

    def put(self, msg_id: str, payload: ReplyPayload) -> None:
        """Remember ``payload`` as the reply for ``msg_id``."""
        with self._lock:
            self._put_locked(msg_id, payload)

    def _put_locked(self, msg_id: str, payload: ReplyPayload) -> None:
        self._entries[msg_id] = payload
        self._entries.move_to_end(msg_id)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def begin(self, msg_id: str) -> ReplyPayload | threading.Event | None:
        """Single-flight entry point for executing ``msg_id``.

        Returns the cached :class:`ReplyPayload` when the request already
        executed, a :class:`threading.Event` to wait on when another thread
        is executing it right now, or ``None`` when the caller now owns the
        execution and must eventually call :meth:`finish`.
        """
        with self._lock:
            payload = self._entries.get(msg_id)
            if payload is not None:
                self._entries.move_to_end(msg_id)
                return payload
            if msg_id in self._inflight:
                event = self._inflight[msg_id]
                if event is None:
                    event = self._inflight[msg_id] = threading.Event()
                return event
            self._inflight[msg_id] = None
            return None

    def finish(self, msg_id: str, payload: ReplyPayload | None) -> None:
        """End the flight :meth:`begin` granted, waking any waiters.

        ``payload`` is cached as the reply; pass ``None`` to release the
        flight without caching (control-flow exceptions), letting a later
        retransmission execute afresh.
        """
        with self._lock:
            if payload is not None:
                self._put_locked(msg_id, payload)
            event = self._inflight.pop(msg_id, None)
        if event is not None:
            event.set()  # only a racing retransmission materialized one

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class Transport(ABC):
    """Delivers messages between registered nodes; see module docstring."""

    #: Whether stubs on this transport may short-circuit invokes to
    #: colocated servants in process (the tier-1 local bypass).  Off on
    #: the simulated network: every simulated call must cross the
    #: virtual wire so figure traces stay byte-identical.
    supports_local_bypass = False

    #: Retransmissions ``call`` makes after a loss before giving up; a
    #: test that needs another budget sets it on one instance.
    retry_budget = DEFAULT_RETRY_BUDGET

    def __init__(self, clock: Clock, trace: MessageTrace | None = None) -> None:
        self.clock = clock
        self.trace = trace if trace is not None else MessageTrace()
        # The peer book: each connected peer's endpoint, under one lock.
        self._peer_lock = threading.Lock()
        self._peers: dict[str, Endpoint] = {}

    # -- address book ---------------------------------------------------------

    def connect(self, node_id: str, endpoint: Endpoint | tuple[str, int]) -> None:
        """Record where ``node_id`` can be reached, without registering it.

        The cross-host primitive: a peer hosted by *another process* is
        never in this transport's local node registry, so its address
        must be learned — from a seed list, a JOIN reply, or an ANNOUNCE
        (see :class:`repro.cluster.discovery.Membership`).  Calling
        ``connect`` again with a *different* endpoint replaces the entry
        (a re-joining peer's fresh address wins over the stale one) and
        lets transports sever connections built on the old address.
        Transports that deliver in process (the simulated network) keep
        the book but never consult it — every peer is local there.

        The whole decision — keep the entry, or replace it — is made in
        one hold of the peer lock, so two concurrent ``connect`` calls
        for one peer apply in some order and neither undoes the other.
        """
        if not isinstance(endpoint, Endpoint):
            endpoint = Endpoint(*endpoint)
        address = endpoint.address()
        with self._peer_lock:
            previous = self._peers.get(node_id)
            # Identity is (host, port) only: the uds facet is advisory
            # routing data, and learning or shedding it must not sever
            # healthy connections built on the unchanged TCP address.
            changed = previous is not None and previous.address() != address
            # Same address, but the new entry is missing a facet the old
            # one had learned (e.g. a roster merge that predates the
            # peer's HELLO): keep the learned facet.
            keep_facet = (previous is not None and not changed
                          and bool(previous.uds) and not endpoint.uds)
            if not keep_facet:
                self._peers[node_id] = endpoint
        if changed:
            self._peer_endpoint_changed(node_id)

    def endpoint_of(self, node_id: str) -> Endpoint | None:
        """Where ``node_id`` can be dialed (``None`` when unknown).

        The base implementation answers from the address book only;
        transports with real listeners also report their local nodes'
        bound addresses.
        """
        with self._peer_lock:
            return self._peers.get(node_id)

    def known_peers(self) -> dict[str, Endpoint]:
        """Copy of the address book (peers learned via :meth:`connect`)."""
        with self._peer_lock:
            return dict(self._peers)

    def _peer_endpoint_changed(self, node_id: str) -> None:
        """Hook: ``node_id``'s endpoint was replaced (sever stale links)."""

    def forget_peer(self, node_id: str) -> None:
        """Drop ``node_id``'s address-book entry.

        Called when a node deregisters or membership declares it dead,
        so a long-lived transport does not accumulate endpoints of
        departed peers; this pop is the peer book's bound.  Idempotent;
        a later :meth:`connect` records the peer afresh.
        """
        with self._peer_lock:
            self._peers.pop(node_id, None)

    # -- node management ----------------------------------------------------

    @abstractmethod
    def register(self, node_id: str, handler: MessageHandler) -> None:
        """Attach ``handler`` as the dispatcher for ``node_id``."""

    @abstractmethod
    def unregister(self, node_id: str) -> None:
        """Detach ``node_id`` (it becomes unreachable)."""

    @abstractmethod
    def nodes(self) -> list[str]:
        """Currently registered node ids."""

    # -- deferred work ------------------------------------------------------

    @abstractmethod
    def post(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` later, off the caller's thread of control.

        The one way the runtime defers work — an agent's next step, the
        release of a stray lock grant, a reply that found no caller
        waiting for it (handed to its node's handler).  A job's
        exception is dropped: a job reports its own failures.
        """

    @abstractmethod
    def quiesce(self, timeout_s: float = 30.0) -> None:
        """Return once no posted job is queued or running, the jobs those
        jobs post included; raises :class:`~repro.errors.MageError` after
        ``timeout_s``.  Never call it from a posted job."""

    def max_reply_wait_s(self) -> float | None:
        """The longest this transport lets a caller wait for one reply.

        ``None`` means unbounded (the in-process simulated network blocks
        until the handler returns).  Transports that abandon exchanges
        after an io window report it, so protocol code can avoid asking a
        *server* to keep working past the point its caller will have
        walked away — e.g. a lock request's queue wait is capped at this
        bound when the caller supplied no budget of its own.
        """
        return None

    # -- delivery (one attempt; implemented per transport) -------------------

    def _transmit(self, message: Message) -> Message:
        """Deliver one request attempt and return the reply envelope.

        The hook of an *eager* transport, called by the default
        :meth:`_transmit_async` under its loss-retry loop; a transport
        that overrides :meth:`_transmit_async` has no use for it.
        Raises :class:`MessageLostError` when the loss model ate either the
        request or the reply, and :class:`NodeUnreachableError` when the
        destination is gone.
        """
        raise NotImplementedError

    @abstractmethod
    def _transmit_oneway(self, message: Message) -> None:
        """Deliver one one-way attempt (no reply)."""

    # -- public API ----------------------------------------------------------

    def call(self, src: str, dst: str, kind: MessageKind, payload: Any = None,
             deadline: Deadline | None = None) -> Any:
        """Request/response exchange; returns the reply payload value.

        Retries lost transmissions up to the retry budget, then surfaces
        :class:`MessageLostError`.  Exceptions raised by the remote handler
        re-raise here.  Implemented as ``call_async(...).result()`` so the
        blocking and future forms cannot diverge.

        ``deadline`` bounds the whole exchange (send, retries, and the
        reply wait) and rides the message header so the destination — and
        any nested calls its handler makes — inherits the remaining
        budget.  ``None`` inherits the ambient dispatch deadline when this
        call is made *inside* a handler, and is unbounded otherwise.
        """
        return self.call_async(src, dst, kind, payload, deadline).result()

    def call_async(self, src: str, dst: str, kind: MessageKind,
                   payload: Any = None,
                   deadline: Deadline | None = None) -> CallFuture:
        """``call`` as a :class:`CallFuture` — the scatter-gather primitive.

        The base transport completes the future eagerly on the calling
        thread (deterministic; no extra threads); natively asynchronous
        transports return a future whose round trip is genuinely in flight,
        so issuing N futures before collecting any overlaps N round trips.
        """
        message = build_message(kind, src, dst, payload,
                                effective_deadline(deadline))
        return self._transmit_async(message)

    def stream(self, src: str, dst: str,
               requests: Iterable[tuple[MessageKind, Any]],
               window: int = 8,
               deadline: Deadline | None = None) -> list[Any]:
        """Windowed pipelined request sequence to one destination.

        Issues the ``(kind, payload)`` requests **in order**, keeping at most
        ``window`` exchanges outstanding — each new submission first
        collects the oldest outstanding reply, so a slow receiver applies
        backpressure instead of the sender buffering an unbounded frame
        queue.  Returns the reply values in request order.

        On the pipelined TCP transport the window's round trips genuinely
        overlap on the shared socket (a stream of N chunks costs ~N/window
        round-trip latencies plus transmission); on eagerly completing
        transports (the simulated network) every exchange runs inline at
        submission, so the message sequence is the deterministic
        one-call-per-request loop.  The mover keeps its own window per
        candidate; ``perf/layers.py`` times this as the pipelining layer.

        One ``deadline`` bounds the whole stream.  The first failed
        exchange raises after cancelling everything still outstanding —
        the caller sees either every reply or the error, never a silently
        shortened stream.  ``requests`` may be a lazy generator; chunk
        slices are then built only as the window advances.
        """
        if window < 1:
            raise ValueError(f"stream window must be >= 1, got {window}")
        deadline = effective_deadline(deadline)
        results: list[Any] = []
        outstanding: deque[CallFuture] = deque()
        try:
            for kind, payload in requests:
                if len(outstanding) >= window:
                    results.append(outstanding.popleft().result())
                outstanding.append(
                    self.call_async(src, dst, kind, payload, deadline=deadline)
                )
            while outstanding:
                results.append(outstanding.popleft().result())
        except Exception:
            for future in outstanding:
                if not future.done():
                    future.cancel("stream aborted by an earlier failure")
            raise
        return results

    def _transmit_async(self, message: Message) -> CallFuture:
        """Issue one exchange as a future.

        Default: run the whole exchange (with loss retries) eagerly on the
        calling thread and return the already-completed future — the
        deterministic behaviour the simulated network's reproducible traces
        depend on.  Transports with an asynchronous wire path override this.
        """
        future = CallFuture(message.describe)
        try:
            reply = self._transmit_with_retries(message)
        except Exception as exc:
            future._fail(exc)
        else:
            future._complete_from_reply(reply)
        return future

    def _transmit_with_retries(self, message: Message) -> Message:
        """The retry loop behind every eager ``call``.

        A deadline on the message bounds the loop twice over.  An exchange
        whose budget is gone fails fast with :class:`CallTimeoutError`
        instead of burning the rest of the retry budget on a caller that
        stopped waiting (checked before the first attempt as well, so an
        already-expired call never touches the wire).  And the retry count
        itself is **deadline-aware**: before each retransmission the loop
        asks whether the remaining budget can still afford an attempt —
        priced at the mean cost of the attempts already made, never below
        a small floor — so an almost-expired
        call retries at most once rather than queueing ``retry_budget``
        transmissions nobody will wait for.  Without a deadline the fixed
        budget applies unchanged.
        """
        attempts = self.retry_budget + 1
        last_loss: MessageLostError | None = None
        started = time.monotonic()
        for attempt in range(attempts):
            if message.deadline is not None and message.deadline.expired:
                raise CallTimeoutError(
                    f"{message.describe()}: deadline expired"
                ) from last_loss
            if attempt > 0 and not self._can_afford_retry(
                    message, attempt, started):
                raise CallTimeoutError(
                    f"{message.describe()}: remaining deadline budget cannot "
                    f"afford retry {attempt}"
                ) from last_loss
            try:
                return self._transmit(message)
            except MessageLostError as exc:
                last_loss = exc
        raise MessageLostError(
            f"{message.describe()} lost {attempts} times (retry budget exhausted)"
        ) from last_loss

    def _can_afford_retry(self, message: Message, attempts_done: int,
                          started_monotonic: float) -> bool:
        """Whether the remaining deadline budget covers one more attempt."""
        deadline = message.deadline
        if deadline is None:
            return True
        expected_s = max((time.monotonic() - started_monotonic)
                         / attempts_done, MIN_ATTEMPT_COST_S)
        return deadline.remaining_s() >= expected_s

    def cast(self, src: str, dst: str, kind: MessageKind, payload: Any = None) -> None:
        """One-way send; best-effort.

        Fire-and-forget semantics all the way down: a cast lost in flight
        or aimed at an unreachable node vanishes silently (the trace still
        records drops), exactly like a datagram, and the envelope is
        marked :attr:`Message.oneway` so the receiver sends no reply.
        MA's ``send`` rides this — "the result stays at the remote host"
        (Table 3).  Nothing that must arrive does: an agent's hop is a
        move (:mod:`repro.core.agents`).
        """
        message = build_message(kind, src, dst, payload)
        message.__dict__["oneway"] = True
        try:
            self._transmit_oneway(message)
        except (MessageLostError, NodeUnreachableError):
            pass

    # -- shared plumbing ------------------------------------------------------

    @staticmethod
    def _unwrap(reply: Message) -> Any:
        """Surface the reply value, re-raising marshalled handler exceptions.

        Protocol-level errors (our own :class:`~repro.errors.MageError`
        family) propagate as themselves; *servant* exceptions were already
        wrapped in :class:`~repro.errors.RemoteInvocationError` by the RMI
        invoker, traceback attached, before they reached the wire.
        """
        payload = reply.payload
        if isinstance(payload, ReplyPayload):
            error = payload.error
            if error is not None:
                raise error
            return payload.value
        return payload

    @staticmethod
    def execute_handler(message: Message, handler: MessageHandler,
                        cache: ReplyCache) -> ReplyPayload:
        """Run ``handler`` under at-most-once semantics; shared by transports.

        Single-flight: concurrent retransmissions of one message id (a
        retry racing a still-running original) converge on one handler
        execution — the duplicates wait and replay its reply.  Handler
        exceptions are marshalled into the reply; control-flow exceptions
        (``KeyboardInterrupt``/``SystemExit``) propagate uncached so they
        can actually stop the process instead of being replayed to callers
        forever.  A BATCH frame's subs each come through here on their
        own (:meth:`execute_batch`), so they get per-id deduplication and
        admission too.

        Admission control: a request whose deadline expired in flight or
        while queued behind busy workers is *dropped at dequeue* — the
        handler never runs; the reply is :class:`CallTimeoutError` (the
        same outcome the caller's own expired wait produces).  While the
        handler runs, the request's deadline is ambient
        (:func:`repro.net.deadline.deadline_scope`), so nested calls the
        handler issues inherit the caller's shrinking budget.
        """
        while True:
            token = cache.begin(message.msg_id)
            if isinstance(token, ReplyPayload):
                return token
            if token is not None:  # another thread owns the flight
                token.wait()
                # The flight finished; loop to pick up its cached reply.
                # (A control-flow abort or eviction under capacity pressure
                # may have left no entry — then this thread claims the
                # flight and executes.)
                continue
            payload: ReplyPayload | None = None
            try:
                if message.deadline is not None and message.deadline.expired:
                    # The caller's budget is gone: executing now would do
                    # work nobody is waiting for.
                    payload = ReplyPayload(error=CallTimeoutError(
                        f"{message.describe()}: deadline expired before dispatch"
                    ))
                elif (message.deadline is None
                        and current_deadline() is None):
                    # Unbounded request on a thread with no ambient
                    # deadline to mask: the scope would set None over
                    # None, so skip the context manager entirely.
                    value = handler(message)
                    payload = ReplyPayload(value=value)
                else:
                    with deadline_scope(message.deadline):
                        value = handler(message)
                    payload = ReplyPayload(value=value)
            except Exception as exc:  # marshalled back to the caller
                payload = ReplyPayload(error=exc)
            finally:
                cache.finish(message.msg_id, payload)
            return payload

    @staticmethod
    def execute_batch(
        message: Message,
        run_sub: Callable[[Message], ReplyPayload],
        done: Callable[[ReplyPayload], None],
        spawn: Callable[..., None] | None = None,
    ) -> None:
        """Run a BATCH frame's sub-requests; the one batch executor.

        ``run_sub`` executes one sub-request (through
        :meth:`execute_handler`, so each keeps its own message id,
        reply-cache slot, deadline admission and ambient deadline scope)
        and ``done`` receives the single reply:
        ``ReplyPayload(value=((sub_id, payload), ...))``, one pair per
        sub, in request order.

        The subs are independent calls that happened to share a frame:
        none shadows another and every one runs.  When the caller has a
        pool (``spawn(fn, *args)``) they fan back out across it — this
        thread runs the first, the last to finish calls ``done`` — so a
        slow sub never serializes its siblings.  Without ``spawn`` they
        run in order on the calling thread and ``done`` is called before
        this returns.
        """
        batch: Batch = message.payload
        subs = batch.subs
        if spawn is None or len(subs) < 2:
            done(ReplyPayload(value=tuple(
                (sub.msg_id, run_sub(sub)) for sub in subs)))
            return
        results: list[tuple[str, ReplyPayload] | None] = [None] * len(subs)
        lock = threading.Lock()
        pending = len(subs)

        def run(index: int) -> None:
            nonlocal pending
            sub = subs[index]
            results[index] = (sub.msg_id, run_sub(sub))
            with lock:
                pending -= 1
                last = pending == 0
            if last:
                done(ReplyPayload(value=tuple(results)))

        for index in range(1, len(subs)):
            spawn(run, index)
        run(0)
