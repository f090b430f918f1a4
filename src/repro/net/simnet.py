"""In-process simulated network.

Stands in for the paper's testbed (two hosts on 10 Mb/s Ethernet).  Every
registered node is an in-process endpoint; message delivery is a direct
function call on the sender's thread, preceded by charging the latency
model's cost to the shared virtual clock and a loss-model check.

Properties that matter for the reproduction:

* **Determinism** — with the default ``NoLoss``/``ConstantLatency`` models
  and synchronous casts, a run produces an identical message trace every
  time, which the figure benches rely on.
* **Calibration** — the default latency (10 ms one-way) makes a
  request/reply pair cost 20 virtual ms, matching the paper's amortized
  RMI round trip, so Table 3's shape reproduces from first principles
  (message counts × latency), not from hard-coded constants.
* **Fault injection** — per-link partitions, node crashes, and pluggable
  loss models exercise the recovery paths §4.3 demands.

``Transport.call_many`` needs no code here: the base class packs the batch
into one BATCH envelope and ``execute_handler`` hands it to the shared
``execute_batch``; because this transport charges latency per *message*,
a batch of N requests costs one round trip on the virtual clock —
exactly the saving the TCP transport realizes in real time.

``Transport.call_async`` likewise needs no code: the base class completes
the future *eagerly on the calling thread*, so a scatter-gather over this
transport executes its exchanges sequentially in submission order — same
messages, same trace, same virtual-clock charges as the equivalent loop of
blocking calls.  Determinism is the point: the figure benches that assert
literal message sequences keep holding for code written against the async
API, while the real TCP transport gives that same code genuinely
overlapped round trips.

Deadlines ride through unchanged: a :class:`~repro.net.deadline.Deadline`
on a call is carried in the message header, checked at dispatch by the
shared ``execute_handler`` admission path, and made ambient for nested
calls — all base-class machinery.  Because futures complete eagerly here,
an unexpired deadline leaves every message, trace, and virtual-clock
charge identical to the no-deadline run; ``CallFuture.cancel()`` on an
already-completed future is a no-op, so straggler-cancelling fan-out code
is deterministic on this transport and genuinely concurrent on TCP.

``Transport.stream`` likewise needs no code here: eager futures make a
windowed chunk stream execute as the sequential one-call-per-chunk loop,
so a chunked OBJECT_TRANSFER's trace is the literal PREPARE, CHUNK × N,
COMMIT sequence and each frame charges the latency model per message —
a bandwidth-aware model prices the chunks by their payload bytes.  Frame
codecs are a wire-bytes concern and do not exist here (payloads cross by
reference); this transport records no per-link latency EWMAs either
(``track_link_latency`` stays off), because its exchanges cost virtual
time and wall-clock noise would perturb deterministic candidate
rankings.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import MessageLostError, NodeUnreachableError, TransportError
from repro.net.conditions import ConstantLatency, LatencyModel, LossModel, NoLoss
from repro.net.message import Message
from repro.net.trace import MessageTrace
from repro.net.transport import MessageHandler, ReplyCache, Transport
from repro.util.clock import Clock, SimClock


class _Endpoint:
    """A registered node: its dispatcher plus its at-most-once reply cache."""

    def __init__(self, handler: MessageHandler) -> None:
        self.handler = handler
        self.reply_cache = ReplyCache()


class SimNetwork(Transport):
    """Deterministic in-process transport with latency, loss and partitions."""

    def __init__(
        self,
        clock: Clock | None = None,
        latency: LatencyModel | None = None,
        loss: LossModel | None = None,
        trace: MessageTrace | None = None,
        synchronous_casts: bool = False,
    ) -> None:
        super().__init__(clock=clock if clock is not None else SimClock(), trace=trace)
        self.latency = latency if latency is not None else ConstantLatency()
        self.loss = loss if loss is not None else NoLoss()
        self.synchronous_casts = synchronous_casts
        self._endpoints: dict[str, _Endpoint] = {}
        self._crashed: set[str] = set()
        self._partitions: set[frozenset[str]] = set()
        self._state_lock = threading.RLock()
        self._cast_pool: ThreadPoolExecutor | None = None
        self._attempt_counts: dict[str, int] = {}
        self._outstanding_casts: set = set()

    # -- node management ----------------------------------------------------

    def register(self, node_id: str, handler: MessageHandler) -> None:
        with self._state_lock:
            self._endpoints[node_id] = _Endpoint(handler)
            self._crashed.discard(node_id)

    def unregister(self, node_id: str) -> None:
        with self._state_lock:
            self._endpoints.pop(node_id, None)
        # Drop per-peer transport state (address-book entry, link EWMA)
        # so departed nodes leave nothing behind, matching TCP.
        self.forget_peer(node_id)

    def nodes(self) -> list[str]:
        with self._state_lock:
            return sorted(self._endpoints)

    # -- fault injection ------------------------------------------------------

    def crash(self, node_id: str) -> None:
        """Make ``node_id`` unreachable until :meth:`recover`."""
        with self._state_lock:
            self._crashed.add(node_id)

    def recover(self, node_id: str) -> None:
        """Undo :meth:`crash`."""
        with self._state_lock:
            self._crashed.discard(node_id)

    def partition(self, a: str, b: str) -> None:
        """Sever the (bidirectional) link between ``a`` and ``b``."""
        with self._state_lock:
            self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Undo :meth:`partition` for one link."""
        with self._state_lock:
            self._partitions.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        """Remove every partition."""
        with self._state_lock:
            self._partitions.clear()

    # -- delivery -------------------------------------------------------------

    def _endpoint_for(self, message: Message) -> _Endpoint:
        with self._state_lock:
            if message.dst in self._crashed:
                raise NodeUnreachableError(message.dst, "crashed")
            if frozenset((message.src, message.dst)) in self._partitions:
                raise NodeUnreachableError(message.dst, "partitioned from " + message.src)
            endpoint = self._endpoints.get(message.dst)
        if endpoint is None:
            raise NodeUnreachableError(message.dst, "not registered")
        return endpoint

    def _send_one(self, message: Message) -> None:
        """Charge latency and apply the loss model to one transmission."""
        with self._state_lock:
            attempt = self._attempt_counts.get(message.msg_id, 0)
            self._attempt_counts[message.msg_id] = attempt + 1
        if self.loss.should_drop(message, attempt):
            self.trace.record(message, self.clock.now_ms(), dropped=True)
            raise MessageLostError(f"lost: {message.describe()} (attempt {attempt})")
        self.trace.record(message, self.clock.now_ms())
        self.clock.advance(self.latency.latency_ms(message))

    def _forget_attempts(self, *msg_ids: str) -> None:
        with self._state_lock:
            for msg_id in msg_ids:
                self._attempt_counts.pop(msg_id, None)

    def _transmit(self, message: Message) -> Message:
        endpoint = self._endpoint_for(message)
        self._send_one(message)
        payload = self.execute_handler(message, endpoint.handler, endpoint.reply_cache)
        reply = message.reply(payload)
        # The destination may have crashed or been partitioned while the
        # handler ran; the reply is then lost in flight.
        try:
            self._endpoint_for(reply)
            self._send_one(reply)
        finally:
            self._forget_attempts(reply.msg_id)
        self._forget_attempts(message.msg_id)
        return reply

    def _transmit_oneway(self, message: Message) -> None:
        try:
            endpoint = self._endpoint_for(message)
        except NodeUnreachableError:
            # Match the TCP transport: an undeliverable one-way send is
            # recorded as a drop before it vanishes (``cast``'s contract
            # that "the trace still records drops").
            self.trace.record(message, self.clock.now_ms(), dropped=True)
            raise
        self._send_one(message)
        if self.synchronous_casts:
            self._run_cast(endpoint, message)
            return
        if self._cast_pool is None:
            with self._state_lock:
                if self._cast_pool is None:
                    self._cast_pool = ThreadPoolExecutor(
                        max_workers=8, thread_name_prefix="simnet-cast"
                    )
        future = self._cast_pool.submit(self._run_cast, endpoint, message)
        with self._state_lock:
            self._outstanding_casts.add(future)
        future.add_done_callback(self._cast_done)

    def _cast_done(self, future) -> None:
        with self._state_lock:
            self._outstanding_casts.discard(future)

    @staticmethod
    def _run_cast(endpoint: _Endpoint, message: Message) -> None:
        try:
            endpoint.handler(message)
        except Exception:
            # One-way messages have no reply channel; a failed cast is the
            # receiver's problem (mirrors a UDP datagram into a dead agent).
            pass

    def drain_casts(self, timeout_s: float = 30.0) -> None:
        """Block until all in-flight casts (and casts they spawn) finish.

        Gives tests and benches a determinism point after asynchronous
        agent tours: a hop handler enqueues its next hop before returning,
        so looping until the outstanding set empties observes whole tours.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            with self._state_lock:
                pending = list(self._outstanding_casts)
            if not pending:
                return
            if time.monotonic() > deadline:
                raise TransportError(
                    f"{len(pending)} casts still in flight after {timeout_s}s"
                )
            for future in pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    future.result(timeout=remaining)
                except Exception:
                    pass  # cast failures are the receiver's problem

    def shutdown(self) -> None:
        """Stop background cast workers (idempotent)."""
        with self._state_lock:
            pool, self._cast_pool = self._cast_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
