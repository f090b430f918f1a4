"""Deadlines, cancellation, and hedged chases over a lossy-feeling LAN.

Run with::

    python examples/deadlines.py

A 6-node cluster over real TCP sockets with a 2 ms emulated link delay,
one node wedged with a 400 ms stall (a brownout, not a crash: it answers,
late).  The controller then does what a §4.4 client does all day —
locates and locks a mobile object starting from *stale* knowledge that
points at the wedged node — three ways:

1. the sequential chase, which serializes behind the stall;
2. a hedged locate (``locate_any`` under one ``Deadline``): every
   registry probed in parallel, first verified answer wins, the wedged
   straggler is cancelled;
3. a hedged lock (``lock(hedge=True)``): speculative LOCK_REQUESTs to
   the last-known host and the origin, first grant wins.

Plus the fleet-wide view: a load sweep with one shared deadline, where
the wedged node simply misses the window instead of stalling the sweep.
"""

import threading
import time

from repro.cluster import Cluster, LoadBalancer
from repro.net.deadline import Deadline
from repro.net.tcpnet import TcpNetwork

NODE_IDS = [f"host{i}" for i in range(6)]
WEDGED = "host2"
STALL_S = 0.4


class SensorFeed:
    """A mobile component the controllers chase around the cluster."""

    def __init__(self) -> None:
        self.reads = 0

    def read(self) -> int:
        self.reads += 1
        return self.reads


def main():
    transport = TcpNetwork(latency_ms=2.0, io_timeout_s=10.0)
    with Cluster(NODE_IDS, transport=transport) as cluster:
        controller = cluster["host0"]

        # The object's history: born on host1, passed through the (soon
        # to be) wedged host2, now lives on host5.
        cluster["host1"].register("feed", SensorFeed(), shared=True)
        cluster["host1"].namespace.move("feed", WEDGED)
        cluster[WEDGED].namespace.move("feed", "host5")
        cluster["host1"].namespace.find("feed")  # collapse host1 -> host5

        # Wedge host2: every request it serves now stalls 400 ms.
        release = threading.Event()
        inner = cluster[WEDGED].namespace.external.handle

        def wedged_dispatch(message):
            release.wait(STALL_S)
            return inner(message)

        transport.register(WEDGED, wedged_dispatch)

        ns = controller.namespace

        # --- 1. the sequential chase pays the stall ---------------------
        ns.registry.note_location("feed", WEDGED)  # stale knowledge
        start = time.perf_counter()
        where = ns.find("feed", origin_hint="host1")
        seq_ms = (time.perf_counter() - start) * 1000
        print(f"sequential chase through {WEDGED}: found on {where} "
              f"in {seq_ms:.0f} ms (paid the stall)")

        # --- 2. hedged locate cancels the wedged straggler --------------
        ns.registry.note_location("feed", WEDGED)  # re-stale it
        start = time.perf_counter()
        where = ns.server.locate_any("feed", NODE_IDS, origin_hint="host1",
                                     deadline=Deadline.after_ms(2000))
        hedge_ms = (time.perf_counter() - start) * 1000
        print(f"hedged locate: found on {where} in {hedge_ms:.1f} ms "
              f"({seq_ms / max(hedge_ms, 0.001):.0f}x faster; wedged probe "
              "cancelled)")

        # --- 3. hedged lock: first grant wins ---------------------------
        ns.registry.note_location("feed", WEDGED)
        start = time.perf_counter()
        grant = ns.lock("feed", "host5", origin_hint="host1", hedge=True,
                        deadline=Deadline.after_ms(2000))
        lock_ms = (time.perf_counter() - start) * 1000
        print(f"hedged lock: {grant.kind} lock granted at {grant.location} "
              f"in {lock_ms:.1f} ms")
        stub = ns.stub("feed", location=grant.location)
        print(f"  read under lock -> {stub.read()}")
        ns.unlock(grant)

        # --- 4. one deadline for a whole sweep --------------------------
        for i, node_id in enumerate(NODE_IDS):
            cluster[node_id].set_load(10.0 * (i + 1))
        balancer = LoadBalancer(cluster, threshold=100.0,
                                probe_timeout_ms=150.0)
        start = time.perf_counter()
        loads = balancer.snapshot()
        sweep_ms = (time.perf_counter() - start) * 1000
        silent = sorted(n for n, v in loads.items() if v == float("inf"))
        print(f"load sweep under one 150 ms deadline: {sweep_ms:.0f} ms, "
              f"{len(loads)} hosts priced, silent-and-overloaded: {silent}")
        print(f"least loaded candidate: "
              f"{min((v, n) for n, v in loads.items())[1]}")

        release.set()
        print("deadline demo complete")


if __name__ == "__main__":
    main()
