"""Scatter-gather class distribution over the asynchronous invocation core.

Run with::

    python examples/async_fanout.py

An 8-node cluster over real TCP sockets with a 2 ms emulated link delay
(``TcpNetwork(latency_ms=...)``, the regime a real LAN imposes).  The
controller distributes a class to every node, instantiates a worker on
each, sweeps the cluster's load, and invokes all workers — every
multi-node step as scatter-gather over ``CallFuture``s, timed against the
equivalent sequential loop.
"""

import time

from repro.cluster import Cluster, LoadBalancer
from repro.net.tcpnet import TcpNetwork


class ShardWorker:
    """One shard of a partitioned computation."""

    def __init__(self, shard: int):
        self.shard = shard
        self.processed = 0

    def process(self, items: int) -> int:
        self.processed += items
        return self.shard

    def stats(self) -> tuple[int, int]:
        return (self.shard, self.processed)


def main():
    node_ids = [f"host{i}" for i in range(8)]
    transport = TcpNetwork(latency_ms=2.0)
    with Cluster(node_ids, transport=transport) as cluster:
        controller = cluster["host0"]
        controller.register_class(ShardWorker)

        # --- distribute the class: one overlapped push per node ----------
        start = time.perf_counter()
        hashes = cluster.push_class_everywhere("ShardWorker")
        fanout_ms = (time.perf_counter() - start) * 1000
        print(f"class pushed to {len(hashes)} nodes in {fanout_ms:.1f} ms "
              "(sequential would pay one round trip per node)")

        # --- instantiate one shard per node ------------------------------
        for i, node_id in enumerate(node_ids):
            controller.namespace.instantiate(
                "ShardWorker", f"shard{i}", node_id, args=(i,)
            )

        # --- overlapped invocations via stub.futures ----------------------
        stubs = [controller.stub(f"shard{i}", location=node_ids[i])
                 for i in range(8)]
        start = time.perf_counter()
        futures = [stub.futures.process(100) for stub in stubs]
        shards = sorted(f.result() for f in futures)
        parallel_ms = (time.perf_counter() - start) * 1000

        start = time.perf_counter()
        for stub in stubs:
            stub.process(100)
        sequential_ms = (time.perf_counter() - start) * 1000
        print(f"8 invocations: {sequential_ms:.1f} ms sequential vs "
              f"{parallel_ms:.1f} ms overlapped "
              f"({sequential_ms / parallel_ms:.1f}x)")
        assert shards == list(range(8))

        # --- one parallel sweep prices a balancing decision ---------------
        for i, node_id in enumerate(node_ids):
            cluster[node_id].set_load(25.0 * i)
        start = time.perf_counter()
        loads = cluster.query_all_loads()
        sweep_ms = (time.perf_counter() - start) * 1000
        balancer = LoadBalancer(cluster, threshold=100.0)
        print(f"load sweep of {len(loads)} hosts in {sweep_ms:.1f} ms; "
              f"overloaded: {balancer.overloaded(loads)}, "
              f"coolest: {balancer.least_loaded(loads)}")

        # move the hottest host's shard somewhere cooler
        new_home = balancer.rebalance("shard7", src="host0")
        print(f"rebalanced shard7: host7 -> {new_home}")

        total = sum(stub.stats()[1] for stub in stubs[:7])
        print(f"scatter-gather fanout done; {total} items processed on "
              "the untouched shards")


if __name__ == "__main__":
    main()
