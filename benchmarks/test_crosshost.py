"""Cross-host endpoint layer: what does the HELLO handshake cost?

Not a paper figure — the engineering bench for the endpoint layer.  The
HELLO exchange adds one synchronous round trip to every new connection
(client HELLO out, server HELLO back) before the first request frame is
written.  That price is paid **once per connection**, and persistent
connections carry thousands of exchanges, so the acceptance bar is
*amortization*: averaged over a conversation, handshake overhead must
stay at or below one round-trip time.

Method: two transports in one process (separate registries — the
handshake genuinely crosses the wire), ``latency_ms=2.0`` emulating a
LAN hop so the round trip is measurable above scheduler noise.  On a
fresh connection we time the first call — which pays connect + HELLO +
one exchange — and ``CALLS - 1`` further calls, whose mean is the
round-trip time.  Everything the first call costs beyond one steady
call is charged to the handshake (an upper bound: the TCP connect is in
there too).

Measured shape asserted: amortized handshake overhead per call ≤ 1 RTT
(it is ~RTT/CALLS).

Results recorded in ``results/crosshost.txt``.
"""

from __future__ import annotations

import time

from repro.net.message import MessageKind
from repro.net.tcpnet import TcpNetwork

#: Emulated one-hop link delay (per request, at the destination).
LINK_LATENCY_MS = 2.0
#: Calls per conversation sample (the amortization denominator).
CALLS = 50
#: Best-of-N sampling to damp scheduler jitter on shared CI hardware.
SAMPLES = 3


def _conversation_s() -> tuple[float, float]:
    """One fresh-connection conversation; returns (first_s, steady_per_call_s).

    ``steady_per_call_s`` excludes the first call (which pays connect +
    handshake), so it reflects the channel's per-frame cost alone.
    """
    a = TcpNetwork(latency_ms=LINK_LATENCY_MS, hello_timeout_s=5.0)
    b = TcpNetwork(latency_ms=LINK_LATENCY_MS)
    try:
        a.register("caller", lambda m: "ok")
        b.register("server", lambda m: "pong")
        a.connect("server", b.endpoint_of("server"))
        started = time.perf_counter()
        a.call("caller", "server", MessageKind.PING)  # opens + handshakes
        first_s = time.perf_counter() - started
        steady_started = time.perf_counter()
        for _ in range(CALLS - 1):
            a.call("caller", "server", MessageKind.PING)
        steady_s = time.perf_counter() - steady_started
        return first_s, steady_s / (CALLS - 1)
    finally:
        a.shutdown()
        b.shutdown()


def test_handshake_overhead_amortizes_below_one_rtt(report):
    first_s = rtt_s = float("inf")
    for _ in range(SAMPLES):
        first, steady = _conversation_s()
        first_s, rtt_s = min(first_s, first), min(rtt_s, steady)

    # A steady-state call is exactly one round trip; the first call is
    # one round trip plus whatever opening the connection cost.
    overhead_total_s = max(0.0, first_s - rtt_s)
    amortized_s = overhead_total_s / CALLS

    lines = [
        "Cross-host HELLO handshake overhead "
        f"({CALLS} calls/conversation, {LINK_LATENCY_MS} ms emulated link, "
        f"best of {SAMPLES})",
        f"  round-trip time (steady-state call) : {rtt_s * 1e3:8.3f} ms",
        f"  first call (connect + HELLO + call) : {first_s * 1e3:8.3f} ms",
        f"  handshake overhead, whole conn      : {overhead_total_s * 1e3:8.3f} ms"
        f"  ({overhead_total_s / rtt_s:.2f} RTT)",
        f"  handshake overhead, amortized/call  : {amortized_s * 1e3:8.3f} ms"
        f"  ({amortized_s / rtt_s:.2f} RTT)",
    ]
    report("crosshost", "\n".join(lines))

    # The acceptance bar: ≤ 1 RTT amortized.  (The true cost is ~1 RTT
    # per *connection*, i.e. ~RTT/CALLS per call — assert with margin.)
    assert amortized_s <= rtt_s, (
        f"handshake overhead {amortized_s * 1e3:.3f} ms/call exceeds one "
        f"RTT ({rtt_s * 1e3:.3f} ms)"
    )
