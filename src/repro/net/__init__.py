"""Network substrate: messages, traces, delivery conditions, and transports.

Two interchangeable transports implement :class:`repro.net.transport.Transport`:

* :class:`repro.net.simnet.SimNetwork` — in-process, deterministic, with a
  virtual clock, configurable latency/loss, partitions, and full message
  tracing.  This is the default substrate for tests and benches, standing in
  for the paper's 10 Mb/s Ethernet testbed.
* :class:`repro.net.tcpnet.TcpNetwork` — real TCP sockets, loopback or
  cross-host.  It keeps one persistent, *pipelined* connection per
  (src, dst) pair: frames carry message ids, the reactor matches replies
  to waiting callers, and the server feeds a bounded worker pool.

Shared guarantees, regardless of transport:

* **At-most-once, single-flight** — every node's dispatch runs through a
  :class:`repro.net.transport.ReplyCache`: a retransmission of an executed
  request replays its cached reply, and one arriving *while* the original
  is still executing waits for that execution instead of starting a second
  one.  Non-idempotent moves therefore never run twice for one message id.
* **Batching** — one BATCH frame kind, built only by the TCP transport's
  auto-batcher from calls queued behind a round trip.  Its subs are
  independent: each keeps its own message id and at-most-once slot, and
  every one runs; ``Transport.execute_batch`` is the one executor.  The
  simulated network sends every call as its own message.
* **Drop tracing** — an undeliverable one-way send is recorded in the
  :class:`repro.net.trace.MessageTrace` as a drop on both transports.

The asynchronous invocation core
--------------------------------

``Transport.call_async`` is the future-returning form of ``call`` —
the primitive every multi-node runtime operation (class fan-out, load
sweeps, parallel find probes, cluster broadcast) scatters over.  It
returns a :class:`repro.net.transport.CallFuture`:

``future.result(timeout_s=None)``
    Block until the exchange completes; return the reply value or re-raise
    exactly what the blocking call would have raised (marshalled handler
    exceptions, ``NodeUnreachableError``, ``CallTimeoutError``, ...).
    ``call(...)`` *is* ``call_async(...).result()``, so the forms cannot
    drift.  On the pipelined TCP transport the default timeout is the
    transport's io timeout, and an expired wait abandons the exchange
    (late replies are dropped; the future fails permanently).
``future.exception(timeout_s=None)``
    Block the same way, but *return* the failure (``None`` on success) —
    what sweeps that tolerate partial failure want.
``future.done()``
    Non-blocking completion check.
``future.cancel(reason="")`` / ``future.cancelled()``
    Abandon the exchange: the future completes with
    :class:`~repro.errors.CallCancelledError` (first-wins; a racing reply
    that already completed it makes ``cancel`` a no-op returning
    ``False``).  On the pipelined TCP transport cancellation releases the
    in-flight exchange exactly like a timed-out waiter — the late reply
    is dropped, other waiters on the shared connection are untouched.  On the simulated network futures are already complete
    when handed out, so ``cancel`` is a deterministic no-op there.
``future.map(fn)``
    A derived future resolving to ``fn(value)``; the mapper runs lazily on
    the collecting thread (RMI unmarshals results this way, off the
    transport's reactor loop).  Cancelling the view cancels the source.
``future.add_done_callback(fn)``
    Run ``fn(future)`` on completion (immediately if already done).

:func:`repro.net.transport.gather` collects a sequence of futures in
order; ``gather(fs, return_exceptions=True)`` substitutes the exception
object for failed entries so one dead node cannot abort a sweep.
``timeout_s``/``deadline`` bound the whole gather by **one shared
deadline** (N hung futures cost one window, not N), and
``cancel_stragglers=True`` cancels whatever is still pending when the
gather returns or raises.

Deadlines
---------

:class:`repro.net.deadline.Deadline` is the end-to-end time budget of a
call chain — built with ``Deadline.after_ms(250)`` / ``after_s(...)``,
queried via ``remaining_ms()`` / ``remaining_s()`` / ``.expired``, and
accepted by every request/response form (``call``, ``call_async``,
``stream``) plus every runtime/cluster fan-out built on them.  One deadline:

* rides the :class:`~repro.net.message.Message` header, re-anchoring to
  the *remaining* budget across serialization, so each hop of a
  forwarding walk or lock chase sees a shrinking allowance;
* caps the caller-side wait (below the io timeout) and the loss-retry
  loop — an expired call never touches the wire;
* is enforced at the destination: requests whose deadline expired in
  flight or in queue are dropped at dispatch with
  :class:`~repro.errors.CallTimeoutError` (admission control);
* becomes *ambient* while the handler runs
  (:func:`repro.net.deadline.current_deadline`), so nested calls the
  handler makes inherit the caller's budget with no parameter plumbing.

With no deadline set, no path — messages, traces, virtual-clock
charges — pays for the feature, which is what keeps the figure benches
byte-stable.

Completion model: the **simulated network** completes futures eagerly on
the calling thread — deterministic messages, traces, and virtual-clock
charges, identical to the equivalent loop of blocking calls.  The
**pipelined TCP transport** implements futures natively on its waiter
mechanism: submission writes the frame, the reactor loop resolves the
future, so N outstanding futures overlap N round trips on one socket.

Bulk data and link awareness
----------------------------

``Transport.stream(src, dst, requests, window=8)`` is a windowed,
pipelined request sequence to one destination (each new submission
first collects the oldest outstanding reply, so a slow receiver applies
backpressure).  The streamed migration in :mod:`repro.runtime.mover`
(TRANSFER_CHUNK frames whose first opens the staging slot and whose
last commits, TRANSFER_COMMIT for a hedge's winner, TRANSFER_ABORT)
does not ride it: the mover's one sender loop keeps the same window
per candidate on ``call_async`` and ``race``.

The TCP transport additionally **compresses large frames by one rule**
(:mod:`repro.net.codec`): a frame of at least 16 KiB is zlib-compressed
unless its connection is a same-host Unix socket; everything else — all
small control traffic — ships raw.  Nothing is negotiated: every
admitted peer runs the same build, so every peer decodes zlib.
``TcpNetwork(latency_ms=..., bandwidth_mbps=...)`` emulates one slower
link, a reactor timer at the receiving node server, so benches can
price what pipelining, compression and chunking buy.

Cross-host endpoints
--------------------

:class:`repro.net.endpoint.Endpoint` is a dialable ``(host, port)``;
every transport keeps an **address book** (``connect(node_id,
endpoint)`` / ``endpoint_of`` / ``known_peers`` / ``forget_peer``) for
peers hosted by *other processes or machines*.  ``TcpNetwork(bind=...,
advertise_host=..., ports=...)`` opens the listeners beyond loopback,
and every connection starts with a mandatory **HELLO handshake**
(:class:`repro.net.endpoint.Hello`): protocol version, node id and
wire format digest cross the wire.  A peer that
answers no HELLO in time fails the dial
(:class:`~repro.errors.NodeUnreachableError`); one that states another
protocol version or wire format is refused with
:class:`~repro.errors.ProtocolMismatchError`; both happen before any
request frame is written.  HELLO frames are invisible to message
traces.  The cluster layer's
:class:`repro.cluster.discovery.Membership` service fills the address
book via seed-list JOIN and ANNOUNCE propagation and prunes it when its
heartbeat declares a peer dead.

The loss-retry loop is **deadline-aware**: retries are priced at the
observed attempt cost, never below a small floor, so an almost-expired
call retries at most once instead of spending the whole fixed budget.
"""

from repro.net.conditions import (
    BernoulliLoss,
    ConstantLatency,
    DeterministicLoss,
    LatencyModel,
    LossModel,
    NoLoss,
    PerLinkLatency,
    UniformLatency,
)
from repro.net.deadline import Deadline, current_deadline
from repro.net.endpoint import PROTOCOL_VERSION, Endpoint, Hello
from repro.net.message import Message, MessageKind
from repro.net.simnet import SimNetwork
from repro.net.tcpnet import TcpNetwork
from repro.net.trace import MessageTrace, TraceEvent
from repro.net.transport import CallFuture, Transport, gather

__all__ = [
    "BernoulliLoss",
    "CallFuture",
    "ConstantLatency",
    "Deadline",
    "DeterministicLoss",
    "Endpoint",
    "Hello",
    "LatencyModel",
    "LossModel",
    "Message",
    "PROTOCOL_VERSION",
    "MessageKind",
    "MessageTrace",
    "NoLoss",
    "PerLinkLatency",
    "SimNetwork",
    "TcpNetwork",
    "TraceEvent",
    "Transport",
    "UniformLatency",
    "current_deadline",
    "gather",
]
