"""Same-host fast paths: what each rung of the locality ladder buys.

Three comparisons, all at 8 concurrent callers:

* **Colocated invoke** — a stub whose servant lives in the caller's own
  store, through the tier-1 in-process bypass, against the wire: the
  same stub on a second node of the same transport (marshal, frame,
  loopback to the servant's node, unmarshal — a node's call to itself
  never reaches a socket).  The ladder's headline number: the bypass
  must clear **5x**.
* **Same-host UDS** — two separate transports on one machine (stand-ins
  for two processes), dialling each other over the tier-2 Unix-domain
  socket vs plain loopback TCP.  The payload is a compressible ~15 KB
  list whose envelope (14 797 bytes) sits just under the 16 KiB
  compression minimum, so neither leg compresses: the comparison is
  the socket family alone.  Must clear **1.2x**.
* **Migrate-then-call** — a servant starts remote, the stub's first call
  takes the wire, the object migrates to the caller's node, and the next
  call rides the bypass: the tier upgrade MAGE's whole migrate-toward-
  the-caller argument banks on, asserted via the client's bypass-hit
  counter.

Interleaved best-of sampling (each transport measured in adjacent load
windows, best rate kept) damps the box noise a single A/B run is hostage
to.  Results go to ``results/local_bypass.txt`` and machine-readable
``results/BENCH_local_bypass.json``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import pytest

from repro.net.message import MessageKind, inline_safe
from repro.net.tcpnet import TcpNetwork
from repro.runtime.namespace import Namespace

WORKERS = 8
COLOCATED_CALLS = 150
UDS_CALLS = 60
WARMUP_CALLS = 5
#: Interleaved A/B blocks; each block keeps its best of REPS runs.
BLOCKS = 2
REPS = 3

#: The UDS comparison payload: compressible, but its envelope is just
#: under ``codec.COMPRESS_MIN_BYTES``, so both legs ship it raw.
UDS_PAYLOAD = list(range(5000))


@dataclass(frozen=True)
class LadderSample:
    """One measured configuration: rate plus latency spread."""

    calls_per_s: float
    p50_ms: float
    p99_ms: float

    def as_dict(self) -> dict:
        return {
            "calls_per_s": round(self.calls_per_s, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _run_callers(call, workers: int, calls: int) -> LadderSample:
    """Rate and latency spread for ``workers`` threads looping ``call``."""
    barrier = threading.Barrier(workers + 1)
    lanes: list[list[float]] = [[] for _ in range(workers)]

    def worker(lane: list[float]) -> None:
        barrier.wait()
        for i in range(calls):
            t0 = time.perf_counter()
            call(i)
            lane.append(time.perf_counter() - t0)

    threads = [
        threading.Thread(target=worker, args=(lane,)) for lane in lanes
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    latencies = sorted(sample for lane in lanes for sample in lane)
    return LadderSample(
        calls_per_s=workers * calls / elapsed,
        p50_ms=_percentile(latencies, 0.50) * 1000.0,
        p99_ms=_percentile(latencies, 0.99) * 1000.0,
    )


def _best(a: LadderSample, b: LadderSample) -> LadderSample:
    return a if a.calls_per_s >= b.calls_per_s else b


def measure_colocated(local_bypass: bool,
                      calls: int = COLOCATED_CALLS) -> LadderSample:
    """Stub-call rate against a servant in the caller's own store
    (``local_bypass``), or from a second node of the same transport."""
    net = TcpNetwork()
    net.supports_local_bypass = local_bypass
    try:
        home = Namespace("bench", net)

        class Adder:
            def add(self, a, b=0):
                return a + b

        home.register("adder", Adder())
        ns = home if local_bypass else Namespace("caller", net)
        stub = ns.stub("adder", location="bench")
        for _ in range(WARMUP_CALLS):
            stub.add(1)
        best = None
        for _ in range(REPS):
            sample = _run_callers(lambda i: stub.add(i), WORKERS, calls)
            best = sample if best is None else _best(best, sample)
        if local_bypass:
            assert ns.client.local_hits > 0, "bypass never engaged"
        else:
            assert ns.client.local_hits == 0, "wire leg leaked onto bypass"
            assert ("caller", "bench") in net._channels, \
                "wire leg never dialled"
        return best
    finally:
        net.shutdown()


def measure_same_host(uds: bool, calls: int = UDS_CALLS) -> LadderSample:
    """Cross-transport call rate: UDS dial vs plain loopback TCP."""
    a, b = TcpNetwork(), TcpNetwork(uds=uds)
    try:
        a.register("caller", lambda m: None)
        b.register("server", inline_safe(lambda m: m.payload))
        a.connect("server", b.endpoint_of("server"))
        b.connect("caller", a.endpoint_of("caller"))
        for _ in range(WARMUP_CALLS):
            a.call("caller", "server", MessageKind.PING, UDS_PAYLOAD)
        best = None
        for _ in range(REPS):
            sample = _run_callers(
                lambda i: a.call("caller", "server", MessageKind.PING,
                                 UDS_PAYLOAD),
                WORKERS, calls,
            )
            best = sample if best is None else _best(best, sample)
        return best
    finally:
        a.shutdown()
        b.shutdown()


def measure_migration_upgrade() -> dict:
    """Tier upgrade after a move: wire first, bypass after migration."""
    net = TcpNetwork()
    try:
        home = Namespace("home", net)
        away = Namespace("away", net)

        class Counter:
            def __init__(self):
                self.n = 0

            def bump(self):
                self.n += 1
                return self.n

        away.register("counter", Counter())
        stub = home.stub("counter", location="away")
        t0 = time.perf_counter()
        assert stub.bump() == 1
        wire_ms = (time.perf_counter() - t0) * 1000.0
        hits_before = home.client.local_hits
        home.move("counter", "home", location="away")
        t0 = time.perf_counter()
        assert stub.bump() == 2  # state travelled with the object
        upgraded_ms = (time.perf_counter() - t0) * 1000.0
        hits_after = home.client.local_hits
        assert hits_before == 0
        assert hits_after == 1, "post-migration call missed the bypass"
        return {
            "wire_call_ms": round(wire_ms, 3),
            "post_move_call_ms": round(upgraded_ms, 3),
            "bypass_hits_before_move": hits_before,
            "bypass_hits_after_move": hits_after,
        }
    finally:
        net.shutdown()


@pytest.mark.perf
def test_local_bypass_smoke():
    """Low-iteration CI guard: the colocated bypass must beat the
    pipelined loopback-TCP baseline outright (the full bench, which
    also asserts the 5x margin, writes the recorded artifacts)."""
    bypass = measure_colocated(True, calls=40)
    wire = measure_colocated(False, calls=40)
    assert bypass.calls_per_s > wire.calls_per_s


@pytest.fixture(scope="module")
def ladder() -> tuple[LadderSample, LadderSample, LadderSample, LadderSample]:
    """Best (bypass, wire, uds, tcp) samples, shared by the artifact test
    (tier-1) and the threshold test (``-m perf``)."""
    bypass = wire = uds = tcp = None
    for _ in range(BLOCKS):  # interleave: adjacent load windows per pair
        sample = measure_colocated(True)
        bypass = sample if bypass is None else _best(bypass, sample)
        sample = measure_colocated(False)
        wire = sample if wire is None else _best(wire, sample)
    for _ in range(BLOCKS):
        sample = measure_same_host(True)
        uds = sample if uds is None else _best(uds, sample)
        sample = measure_same_host(False)
        tcp = sample if tcp is None else _best(tcp, sample)
    return bypass, wire, uds, tcp


def test_local_bypass(report, ladder):
    bypass, wire, uds, tcp = ladder
    migration = measure_migration_upgrade()
    bypass_speedup = bypass.calls_per_s / wire.calls_per_s
    uds_speedup = uds.calls_per_s / tcp.calls_per_s
    lines = [
        "Same-host fast paths -- 8 concurrent callers",
        "(locality tier vs calls/second; speedup over its wire baseline)",
        "",
        "colocated invoke (tier 1 vs pipelined loopback from a second node):",
        f"  bypass     {bypass.calls_per_s:>10.0f} calls/s   "
        f"p50 {bypass.p50_ms:>6.3f} ms   p99 {bypass.p99_ms:>7.3f} ms",
        f"  wire       {wire.calls_per_s:>10.0f} calls/s   "
        f"p50 {wire.p50_ms:>6.3f} ms   p99 {wire.p99_ms:>7.3f} ms",
        f"  speedup    {bypass_speedup:>9.2f}x",
        "",
        "same-host transport (tier 2 UDS vs loopback TCP, ~15 KB "
        "compressible payload):",
        f"  uds        {uds.calls_per_s:>10.0f} calls/s   "
        f"p50 {uds.p50_ms:>6.3f} ms   p99 {uds.p99_ms:>7.3f} ms",
        f"  tcp        {tcp.calls_per_s:>10.0f} calls/s   "
        f"p50 {tcp.p50_ms:>6.3f} ms   p99 {tcp.p99_ms:>7.3f} ms",
        f"  speedup    {uds_speedup:>9.2f}x",
        "",
        "migrate-then-call (tier upgrade after a move):",
        f"  first call (wire)      {migration['wire_call_ms']:>8.3f} ms   "
        f"bypass hits {migration['bypass_hits_before_move']}",
        f"  post-move call (bypass){migration['post_move_call_ms']:>8.3f} ms"
        f"   bypass hits {migration['bypass_hits_after_move']}",
    ]
    data = {
        "workers": WORKERS,
        "colocated": {
            "calls_per_worker": COLOCATED_CALLS,
            "bypass": bypass.as_dict(),
            "pipelined_tcp": wire.as_dict(),
            "speedup": round(bypass_speedup, 2),
        },
        "same_host": {
            "calls_per_worker": UDS_CALLS,
            "payload": "list(range(5000)), compressible, ~15 KB pickled",
            "uds": uds.as_dict(),
            "loopback_tcp": tcp.as_dict(),
            "speedup": round(uds_speedup, 2),
        },
        "migration_upgrade": migration,
    }
    report("local_bypass", "\n".join(lines), data)


@pytest.mark.perf
def test_local_bypass_bars(ladder):
    """The acceptance shape: the bypass collapses the loopback stack, and
    the Unix socket beats TCP."""
    bypass, wire, uds, tcp = ladder
    assert bypass.calls_per_s / wire.calls_per_s >= 5.0
    assert uds.calls_per_s / tcp.calls_per_s >= 1.2
