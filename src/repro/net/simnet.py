"""In-process simulated network.

Stands in for the paper's testbed (two hosts on 10 Mb/s Ethernet).  Every
registered node is an in-process endpoint; message delivery is a direct
function call on the sender's thread, preceded by charging the latency
model's cost to the shared virtual clock and a loss-model check.

Properties that matter for the reproduction:

* **Determinism** — with the default ``NoLoss``/``ConstantLatency`` models
  a run produces an identical message trace every time, which the figure
  benches rely on.  Every delivery, a cast's included, runs its handler
  on the sender's thread, and posted work (an agent's next step) waits in
  one FIFO until :meth:`SimNetwork.quiesce` runs it on the caller's
  thread, so a run with agent tours is single-threaded too.
* **Calibration** — the default latency (10 ms one-way) makes a
  request/reply pair cost 20 virtual ms, matching the paper's amortized
  RMI round trip, so Table 3's shape reproduces from first principles
  (message counts × latency), not from hard-coded constants.
* **Fault injection** — per-link partitions, node crashes, and pluggable
  loss models exercise the recovery paths §4.3 demands.

No BATCH frame exists here: only the TCP transport's auto-batcher
builds one, and every call on this transport is its own message, charged
its own latency.

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
so a stream's trace is its literal sequence of requests and each frame
charges the latency model per message — a bandwidth-aware model prices
the chunks by their payload bytes.  Frame
codecs are a wire-bytes concern and do not exist here (payloads cross by
reference).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro.errors import MageError, MessageLostError, NodeUnreachableError
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
    ) -> None:
        super().__init__(clock=clock if clock is not None else SimClock(), trace=trace)
        self.latency = latency if latency is not None else ConstantLatency()
        self.loss = loss if loss is not None else NoLoss()
        self._endpoints: dict[str, _Endpoint] = {}
        self._crashed: set[str] = set()
        self._partitions: set[frozenset[str]] = set()
        self._state_lock = threading.RLock()
        self._attempt_counts: dict[str, int] = {}
        #: Posted jobs not yet run: at most one step per touring agent,
        #: plus one release per stray lock grant.
        self._posted: deque[Callable[[], None]] = deque()

    # -- node management ----------------------------------------------------

    def register(self, node_id: str, handler: MessageHandler) -> None:
        with self._state_lock:
            self._endpoints[node_id] = _Endpoint(handler)
            self._crashed.discard(node_id)

    def unregister(self, node_id: str) -> None:
        with self._state_lock:
            self._endpoints.pop(node_id, None)
        # Drop the address-book entry so departed nodes leave nothing
        # behind, matching TCP.
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

    # -- deferred work ----------------------------------------------------------

    def post(self, fn: Callable[[], None]) -> None:
        """Queue ``fn`` for the next :meth:`quiesce`."""
        self._posted.append(fn)

    def quiesce(self, timeout_s: float = 30.0) -> None:
        """Run the posted jobs on this thread, in posting order, until none
        is left; raises :class:`MageError` once ``timeout_s`` of wall time
        has passed with jobs still queued (a runaway tour)."""
        deadline = time.monotonic() + timeout_s
        while self._posted:
            if time.monotonic() > deadline:
                raise MageError(f"posted work still running after {timeout_s}s")
            try:
                self._posted.popleft()()
            except Exception:
                pass

    # -- delivery -------------------------------------------------------------

    def _endpoint_for(self, message: Message) -> _Endpoint:
        """``message.dst``'s endpoint; an unreachable destination is traced
        as a drop, as TCP's refused dial is, before this raises."""
        with self._state_lock:
            if message.dst in self._crashed:
                reason = "crashed"
            elif frozenset((message.src, message.dst)) in self._partitions:
                reason = "partitioned from " + message.src
            elif (endpoint := self._endpoints.get(message.dst)) is None:
                reason = "not registered"
            else:
                return endpoint
        self.trace.record(message, self.clock.now_ms(), dropped=True)
        raise NodeUnreachableError(message.dst, reason)

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
        endpoint = self._endpoint_for(message)
        self._send_one(message)
        try:
            endpoint.handler(message)
        except Exception:
            # One-way messages have no reply channel; a failed cast is the
            # receiver's problem (mirrors a UDP datagram into a dead node).
            pass

    def shutdown(self) -> None:
        """Nothing to release: every delivery runs on its sender's thread,
        and every posted job on the thread that quiesces."""
