"""Two-phase streamed migration vs the monolithic frame, plus hedged writes.

Not a paper figure — the engineering bench for the PR-4 migration data
path.  §3.5's weak migration shipped ``(class descriptor, marshalled
state)`` as one monolithic pickled frame: a large object serialized,
transmitted, and applied as a single blocking unit.  The streamed
pipeline cuts that three ways — chunked frames pipeline over the pooled
socket, zlib frame compression shrinks what crosses the (bandwidth-
limited) link, and the PREPARE/CHUNK/COMMIT handshake defers apply so
the write side can be hedged.

Topology: real TCP sockets, 2 ms emulated link delay, 200 Mbit/s
emulated link bandwidth (the regime where an 8 MB frame costs ~320 ms of
transmission).  Two workloads:

* ``throughput`` — an 8 MB (compressible) object moves between two
  nodes: the pre-PR monolithic OBJECT_TRANSFER (uncompressed, single
  frame) vs chunked-raw vs chunked+zlib.  The transport compresses every
  large TCP frame by one rule (:mod:`repro.net.codec`); the two raw
  arms raise ``codec.COMPRESS_MIN_BYTES`` past the frame bound for
  their duration.  Bar: chunked+compressed ≥ 2x the monolithic
  throughput.
* ``hedged write`` — the same object must leave its host while the
  preferred target's dispatcher stalls 500 ms per message: plain
  ``move`` to the stalled target vs ``move(hedge=True,
  alternates=(healthy,))``.  Bar: hedged p99 ≥ 2x better.

Throughout, a poller asserts the staging invariant the two-phase design
exists for: **no observation ever sees a transferred object in a store
while its transfer is still staged** — partial streams are invisible,
and a hedged loser never materializes anything.

Excluded from tier-1 (``-m "not slow"``); runs in the weekly slow job or
explicitly via ``pytest -m slow benchmarks/test_transfer_pipeline.py``.
Results in ``results/transfer_pipeline.txt``.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.cluster import Cluster
from repro.net import codec
from repro.net.deadline import Deadline
from repro.net.tcpnet import _MAX_FRAME, TcpNetwork

LINK_LATENCY_MS = 2.0
BANDWIDTH_MBPS = 200.0
STATE_BYTES = 8 * 1024 * 1024      # 8 MB of object state
STALL_MS = 500.0
THROUGHPUT_SAMPLES = 5
HEDGE_SAMPLES = 5
IO_TIMEOUT_S = 30.0


class BulkState:
    """8 MB of structured, compressible state (sensor-log shaped)."""

    def __init__(self, nbytes=STATE_BYTES):
        self.readings = (b"reading:0042.17;" * (nbytes // 16))
        self.tag = "bulk"


def p99(samples_s):
    ordered = sorted(samples_s)
    index = min(len(ordered) - 1, round(0.99 * (len(ordered) + 1)) - 1)
    return ordered[max(index, 0)]


class StagingProbe:
    """Polls (store ∧ staging) on the receiving nodes during a move.

    Records a violation whenever a sampled instant shows the object
    present in a node's store *while that node still holds staged
    transfers* — the partially-applied-object observation the two-phase
    commit must make impossible.
    """

    def __init__(self, nodes, name):
        self._nodes = nodes
        self._name = name
        self.violations = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self):
        while not self._stop.is_set():
            for node in self._nodes:
                present = node.namespace.store.contains(self._name)
                staged = node.namespace.mover.staging_count()
                if present and staged:
                    self.violations.append((node.node_id, self._name, staged))
            time.sleep(0.001)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stop.set()
        self._thread.join(2.0)


def _cluster(stream_threshold, chunk_bytes=256 * 1024,
             node_ids=("n0", "n1", "n2")):
    # uds=False: every node shares this host, and a same-host Unix
    # socket never compresses; the bench is about the TCP link.
    net = TcpNetwork(latency_ms=LINK_LATENCY_MS, io_timeout_s=IO_TIMEOUT_S,
                     bandwidth_mbps=BANDWIDTH_MBPS, uds=False)
    cluster = Cluster(list(node_ids), transport=net,
                      stream_threshold=stream_threshold,
                      chunk_bytes=chunk_bytes)
    return cluster, net


def measure_throughput(compress, stream_threshold, label):
    """Seconds per 8 MB move, one arm; staging invariant asserted."""
    with pytest.MonkeyPatch.context() as patch:
        if not compress:  # no frame reaches the compression minimum
            patch.setattr(codec, "COMPRESS_MIN_BYTES", _MAX_FRAME + 1)
        return _timed_moves(stream_threshold, label)


def _timed_moves(stream_threshold, label):
    cluster, _net = _cluster(stream_threshold, node_ids=("n0", "n1"))
    samples = []
    try:
        receivers = [cluster["n1"]]
        for i in range(THROUGHPUT_SAMPLES):
            name = f"bulk-{label}-{i}"
            cluster["n0"].register(name, BulkState())
            with StagingProbe(receivers, name) as probe:
                start = time.perf_counter()
                assert cluster["n0"].namespace.move(name, "n1") == "n1"
                samples.append(time.perf_counter() - start)
            assert probe.violations == [], probe.violations
            assert cluster["n1"].namespace.store.get(name).tag == "bulk"
            cluster["n1"].namespace.unregister(name)
    finally:
        cluster.shutdown()
    return samples


def measure_hedged_write():
    """(plain_s, hedged_s) move times with the preferred target stalled."""
    cluster, net = _cluster(stream_threshold=256 * 1024,
                            chunk_bytes=1024 * 1024)
    plain, hedged = [], []
    release = threading.Event()
    try:
        inner = cluster["n1"].namespace.external.handle

        def stalled_dispatch(message):
            release.wait(STALL_MS / 1000.0)
            return inner(message)

        net.register("n1", stalled_dispatch)
        stalled = [cluster["n1"]]
        healthy = [cluster["n2"]]

        for i in range(HEDGE_SAMPLES):
            name = f"bulk-plain-{i}"
            cluster["n0"].register(name, BulkState())
            start = time.perf_counter()
            assert cluster["n0"].namespace.move(name, "n1") == "n1"
            plain.append(time.perf_counter() - start)

        for i in range(HEDGE_SAMPLES):
            name = f"bulk-hedged-{i}"
            cluster["n0"].register(name, BulkState())
            with StagingProbe(stalled + healthy, name) as probe:
                start = time.perf_counter()
                landed = cluster["n0"].namespace.move(
                    name, "n1", hedge=True, alternates=("n2",),
                    deadline=Deadline.after_s(IO_TIMEOUT_S),
                )
                hedged.append(time.perf_counter() - start)
            assert probe.violations == [], probe.violations
            # The healthy alternate won; the stalled loser never
            # materialized the object (its stream was aborted pre-apply).
            assert landed == "n2"
            assert not cluster["n1"].namespace.store.contains(name)
        # Let the losers' fire-and-forget aborts land, then confirm no
        # staging leaked anywhere (the GC would reap stragglers anyway).
        release.set()
        deadline = time.monotonic() + 10.0
        while (any(n.namespace.mover.staging_count() for n in cluster)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        for node in cluster:
            assert node.namespace.mover.staging_count() == 0
    finally:
        release.set()
        cluster.shutdown()
    return plain, hedged


@pytest.mark.slow
def test_transfer_pipeline(report):
    mono = measure_throughput(False, stream_threshold=1 << 30, label="mono")
    chunked_raw = measure_throughput(False, stream_threshold=256 * 1024,
                                     label="raw")
    chunked_zlib = measure_throughput(True, stream_threshold=256 * 1024,
                                      label="zlib")
    plain, hedged = measure_hedged_write()

    mbytes = STATE_BYTES / (1024 * 1024)
    speedup = statistics.median(mono) / statistics.median(chunked_zlib)
    hedge_gain = p99(plain) / p99(hedged)

    def row(label, samples):
        med = statistics.median(samples)
        return (f"  {label:<28} median {med * 1000:>9.1f} ms   "
                f"p99 {p99(samples) * 1000:>9.1f} ms   "
                f"{mbytes / med:>7.1f} MB/s")

    lines = [
        f"Streamed two-phase migration -- {mbytes:.0f} MB object over TCP "
        f"sockets, {LINK_LATENCY_MS:.0f} ms link delay, "
        f"{BANDWIDTH_MBPS:.0f} Mbit/s emulated bandwidth",
        f"({THROUGHPUT_SAMPLES} samples per arm; chunk 256 KiB, window 8)",
        "",
        row("monolithic (pre-PR frame)", mono),
        row("chunked, raw", chunked_raw),
        row("chunked + zlib", chunked_zlib),
        f"  chunked+compressed vs monolithic: {speedup:.1f}x",
        "",
        f"Hedged writes -- preferred target stalls {STALL_MS:.0f} ms per "
        f"message ({HEDGE_SAMPLES} samples per arm; chunk 1 MiB)",
        f"  plain move -> stalled target   median "
        f"{statistics.median(plain) * 1000:>9.1f} ms   "
        f"p99 {p99(plain) * 1000:>9.1f} ms",
        f"  hedged (stalled + healthy)     median "
        f"{statistics.median(hedged) * 1000:>9.1f} ms   "
        f"p99 {p99(hedged) * 1000:>9.1f} ms",
        f"  hedged p99 gain: {hedge_gain:.1f}x",
        "",
        "staging invariant: zero observations of a store-visible object",
        "with transfers still staged; hedged losers never materialized.",
    ]
    report("transfer_pipeline", "\n".join(lines))

    # Acceptance bars.
    assert speedup >= 2.0, lines
    assert hedge_gain >= 2.0, lines
    # The plain arm honestly paid the stall at least once per move.
    assert p99(plain) >= STALL_MS / 1000.0, lines
