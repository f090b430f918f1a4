"""A real two-process MAGE cluster over cross-host TCP.

Run with::

    python examples/two_process_cluster.py

The parent process hosts ``hub`` on its own ``TcpNetwork``; it then
spawns a **separate Python process** (this same file, ``--child``) that
hosts ``worker`` on another transport.  The two share no in-process
state whatsoever — everything below crosses real sockets through the
endpoint layer:

1. **Seed-list join** — the child knows exactly one ``host:port`` (the
   hub's endpoint, passed on its command line).  Its JOIN carries its
   own endpoint; the hub records it in its address book and answers
   with the cluster roster.
2. **HELLO-checked wire** — the first connection in each direction
   opens with a HELLO exchange: protocol version, node id, wire-format
   digest.  Two processes of one build agree on everything else by
   construction.  The server's HELLO also offers its same-host Unix
   socket for later dials.
3. **The paper's operations, cross-process** — a remote invocation, a
   stay/move lock served by the other process, and a large object
   *streamed* to the worker as TRANSFER_CHUNK frames, the first of
   which opens its staging slot and the last of which commits it.
4. **Heartbeat failure detection** — the parent kills the child, the
   heartbeat sweep misses it repeatedly, membership declares it dead,
   its forwarding hints and transport state are pruned, and the load
   balancer stops targeting it.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

from repro.cluster import Cluster, LoadBalancer, Node
from repro.net import Endpoint, TcpNetwork

STREAM_THRESHOLD = 64 * 1024
CHUNK_BYTES = 16 * 1024
STATE_KB = 512


class FieldData:
    """The migrating payload (dependency-free: its class ships by source)."""

    def __init__(self, blob):
        self.blob = blob

    def size(self):
        return len(self.blob)


class Greeter:
    """A servant the parent invokes across process boundaries."""

    def __init__(self, where):
        self.where = where
        self.calls = 0

    def greet(self, name):
        self.calls += 1
        return f"hello {name}, from {self.where} (call #{self.calls})"


def run_child(seed: str) -> None:
    """The worker process: join the seed, host servants, serve until EOF."""
    seed_id, _, seed_addr = seed.partition("@")
    net = TcpNetwork()
    worker = Node("worker", net,
                  stream_threshold=STREAM_THRESHOLD, chunk_bytes=CHUNK_BYTES)
    worker.set_load(5)
    worker.register("greeter", Greeter("the child process"))
    worker.join(seed_id, Endpoint.parse(seed_addr))
    print(f"[child ] worker up at {net.endpoint_of('worker')}, "
          f"joined via {seed}", flush=True)
    sys.stdin.read()  # serve until the parent closes our stdin / kills us
    worker.shutdown()
    net.shutdown()


def main() -> None:
    net = TcpNetwork()
    cluster = Cluster(["hub"], transport=net,
                      stream_threshold=STREAM_THRESHOLD,
                      chunk_bytes=CHUNK_BYTES)
    hub = cluster["hub"]
    hub.set_load(10)
    endpoint = net.endpoint_of("hub")
    print(f"[parent] hub listening at {endpoint}")

    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    child = subprocess.Popen(
        [sys.executable, __file__, "--child", f"hub@{endpoint}"],
        stdin=subprocess.PIPE, env=env,
    )
    try:
        # Act 1: the join arrives (the child prints its own half).
        for _ in range(100):
            if "worker" in hub.membership.hosts():
                break
            time.sleep(0.1)
        assert hub.membership.hosts() == ["hub", "worker"], "join never arrived"
        print(f"[parent] membership: {hub.membership.hosts()}, "
              f"worker endpoint {net.endpoint_of('worker')}")

        # Act 2+3: invoke, lock, and stream a large object across.
        greeter = hub.stub("greeter", location="worker")
        print(f"[parent] invoke   : {greeter.greet('MAGE')!r}")

        grant = hub.namespace.lock("greeter", target="hub",
                                   origin_hint="worker", timeout_ms=10_000)
        print(f"[parent] lock     : {grant.kind} lock granted by "
              f"{grant.location!r}")
        hub.namespace.unlock(grant)

        blob = bytes(range(256)) * (STATE_KB * 4)  # STATE_KB KiB
        hub.register("fielddata", FieldData(blob))
        started = time.perf_counter()
        where = hub.move("fielddata", "worker")
        elapsed_ms = (time.perf_counter() - started) * 1e3
        size = hub.stub("fielddata", location="worker").size()
        print(f"[parent] move     : {size / 1024:.0f} KiB streamed to "
              f"{where!r} in {elapsed_ms:.1f} ms "
              f"(threshold {STREAM_THRESHOLD // 1024} KiB, "
              f"chunks {CHUNK_BYTES // 1024} KiB)")

        # Act 4: kill the child; the heartbeat notices, balancing reacts.
        balancer = LoadBalancer(cluster, membership=hub.membership,
                                threshold=50)
        print(f"[parent] loads    : {balancer.snapshot()}")
        child.kill()
        child.wait(timeout=10)
        membership = hub.membership
        membership.heartbeat_timeout_ms = 500
        sweeps = 0
        while not membership.is_dead("worker"):
            membership.heartbeat_once()
            sweeps += 1
        print(f"[parent] failure  : worker declared dead after {sweeps} "
              f"heartbeat sweeps; hosts now {membership.hosts()}")
        print(f"[parent] balancer : post-failure sweep {balancer.snapshot()} "
              "(the corpse is never a target)")
        assert "worker" not in balancer.snapshot()
        print("[parent] done.")
    finally:
        if child.poll() is None:
            child.kill()
        cluster.shutdown()


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        run_child(sys.argv[2])
    else:
        main()
