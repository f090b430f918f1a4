"""Two real processes, one cluster: the cross-host acceptance tests.

The parent hosts ``hub`` on its own ``TcpNetwork``; a spawned child
Python process (``crosshost_child.py``) hosts ``worker`` on another.
Everything the single-process stack does in-memory must here cross the
wire through the HELLO-handshaked, address-book-routed endpoint layer:
membership join, locking, invocation, a *streamed* move, codec
negotiation — and, when the child is killed, heartbeat failure
detection feeding the load balancer.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import threading

import pytest

from repro.cluster import Cluster, LoadBalancer
from repro.net import TcpNetwork

CHILD = pathlib.Path(__file__).with_name("crosshost_child.py")
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

STREAM_THRESHOLD = 4 * 1024
CHUNK_BYTES = 2 * 1024


class Payload:
    """Migrates by value; its class ships by source to the child.

    Deliberately dependency-free: the child process has never imported
    this test module, so the class crosses as a source descriptor and is
    rebuilt there.
    """

    def __init__(self, blob):
        self.blob = blob

    def size(self):
        return len(self.blob)

    def checksum(self):
        return sum(self.blob) % 65536


class ChildProcess:
    """A spawned worker node, with captured output and a READY gate."""

    def __init__(self, seed: str, load: float = 5.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), "--node", "worker",
             "--seed", seed, "--load", str(load),
             "--stream-threshold", str(STREAM_THRESHOLD),
             "--chunk-bytes", str(CHUNK_BYTES)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, env=env, text=True,
        )
        self.lines: list[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip())
            if line.startswith("READY"):
                self._ready.set()
        self._ready.set()  # EOF: unblock waiters so they can report output

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        if not self._ready.wait(timeout_s) or self.proc.poll() is not None:
            raise AssertionError(
                f"child never became ready; output: {self.lines}"
            )
        if not any(line.startswith("READY") for line in self.lines):
            raise AssertionError(f"child failed before READY: {self.lines}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=10)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.close()  # child exits its serve loop
                self.proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()


@pytest.fixture
def two_process():
    """A hub cluster in this process plus a worker child process."""
    net = TcpNetwork()
    cluster = Cluster(["hub"], transport=net,
                      stream_threshold=STREAM_THRESHOLD,
                      chunk_bytes=CHUNK_BYTES)
    child = ChildProcess(seed=f"hub@{net.endpoint_of('hub')}")
    try:
        child.wait_ready()
        yield cluster, net, child
    finally:
        child.kill()
        cluster.shutdown()


def test_two_process_cluster_end_to_end(two_process):
    cluster, net, child = two_process
    hub = cluster["hub"]
    membership = hub.membership

    # -- membership: the JOIN (and its roster reply) crossed the wire ------
    assert membership.hosts() == ["hub", "worker"]
    assert net.endpoint_of("worker") is not None
    assert hub.namespace.server.ping("worker")

    # -- invoke: a GREV-style remote invocation against the child ----------
    counter = hub.stub("counter", location="worker")
    assert counter.incr(3) == 3
    assert counter.incr(4) == 7

    # -- lock: stay/move locking served by the other process ---------------
    grant = hub.namespace.lock("counter", target="hub",
                               origin_hint="worker", timeout_ms=10_000)
    assert grant.location == "worker"
    assert grant.kind == "move"
    hub.namespace.unlock(grant)

    # -- streaming move: PREPARE/CHUNK/COMMIT into the child ---------------
    blob = bytes(range(256)) * 256  # 64 KiB >> the 4 KiB stream threshold
    payload = Payload(blob)
    hub.register("payload", payload)
    assert hub.move("payload", "worker") == "worker"
    assert not hub.namespace.store.contains("payload")
    assert hub.find("payload", origin_hint="hub") == "worker"
    moved = hub.stub("payload", location="worker")
    assert moved.size() == len(blob)
    assert moved.checksum() == payload.checksum()

    # The child's own trace proves the object arrived as a chunked
    # two-phase stream, not one monolithic OBJECT_TRANSFER frame.
    probe = hub.stub("probe", location="worker")
    seen = probe.kinds()
    assert "TRANSFER_PREPARE" in seen
    assert "TRANSFER_CHUNK" in seen
    assert "TRANSFER_COMMIT" in seen
    assert probe.summary()["TRANSFER_CHUNK"] >= len(blob) // CHUNK_BYTES

    # -- codec negotiation happened on the wire, not via any registry ------
    # (the two processes share no in-process advertisement state, and no
    # advertise_codecs call was ever made between them)
    negotiated = net.negotiated_codecs("hub", "worker")
    assert negotiated is not None and "zlib" in negotiated
    assert probe.negotiated("worker", "hub") is not None  # child side too

    # -- failure: kill the child; the heartbeat must notice ----------------
    # A forwarding hint now points at the dead host; it must be evicted.
    assert hub.namespace.registry.forwarding_hint("payload") == "worker"
    child.kill()
    membership.heartbeat_timeout_ms = 500
    for _ in range(membership.suspect_after):
        membership.heartbeat_once()
    assert membership.is_dead("worker")
    assert membership.hosts() == ["hub"]
    assert hub.namespace.registry.forwarding_hint("payload") is None
    assert net.link_latency_s("worker") is None
    assert net.endpoint_of("worker") is None

    # -- and the balancer never targets the corpse -------------------------
    balancer = LoadBalancer(cluster, membership=membership, threshold=50)
    snapshot = balancer.snapshot()
    assert "worker" not in snapshot
    assert balancer.hedge_candidates(snapshot) == ["hub"]


def test_balancer_sees_cross_process_load_before_failure(two_process):
    cluster, net, child = two_process
    hub = cluster["hub"]
    hub.set_load(10)
    balancer = LoadBalancer(cluster, membership=hub.membership, threshold=50)
    snapshot = balancer.snapshot()
    # The child advertised --load 5; the sweep crossed processes.
    assert snapshot == {"hub": 10.0, "worker": 5.0}
    assert balancer.least_loaded(snapshot) == "worker"
