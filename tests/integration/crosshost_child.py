"""Child process for the two-process cluster tests (and example).

Not a test module (no ``test_`` prefix): the integration tests and the
``examples/two_process_cluster.py`` demo launch this script with
``sys.executable`` to host a real, separate-process MAGE node.  It

* builds its own ``TcpNetwork`` (separate process ⇒ separate registry,
  so every exchange with the parent provably crosses the wire),
* joins the parent's cluster through the seed endpoint passed on the
  command line (JOIN/ANNOUNCE fill both address books),
* hosts a ``counter`` servant (invocation target), and a pinned
  ``probe`` servant that reports this process's observed message trace —
  which is how the parent asserts, from outside, that a streamed
  transfer really arrived as PREPARE/CHUNK/COMMIT frames,
* then serves until its stdin closes or it is killed (the tests kill it
  on purpose to exercise heartbeat failure detection).
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster import Node
from repro.net import Endpoint, TcpNetwork


class Counter:
    """A tiny servant the parent invokes across processes."""

    def __init__(self) -> None:
        self.value = 0

    def incr(self, by: int = 1) -> int:
        self.value += by
        return self.value

    def get(self) -> int:
        return self.value


class TraceProbe:
    """Reports this process's transport trace to remote callers.

    The parent cannot see the child's trace directly; invoking the probe
    is how the tests assert which frames arrived here.
    """

    def __init__(self, net: TcpNetwork) -> None:
        self._net = net

    def kinds(self) -> list[str]:
        return sorted(set(self._net.trace.kinds()))

    def summary(self) -> dict[str, int]:
        return dict(self._net.trace.summary())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--node", default="worker", help="this node's id")
    parser.add_argument("--seed", required=True,
                        help="seed member as 'node_id@host:port'")
    parser.add_argument("--load", type=float, default=0.0,
                        help="advertised host load")
    parser.add_argument("--stream-threshold", type=int, default=None)
    parser.add_argument("--chunk-bytes", type=int, default=None)
    args = parser.parse_args()
    seed_id, _, seed_addr = args.seed.partition("@")

    net = TcpNetwork()
    node = Node(args.node, net,
                stream_threshold=args.stream_threshold,
                chunk_bytes=args.chunk_bytes)
    node.set_load(args.load)
    node.register("counter", Counter())
    node.register("probe", TraceProbe(net), pinned=True)
    node.join(seed_id, Endpoint.parse(seed_addr))
    print(f"READY {args.node} @ {net.endpoint_of(args.node)}", flush=True)

    # Serve until the parent closes our stdin (or kills us outright —
    # the heartbeat tests do exactly that).
    sys.stdin.read()
    node.shutdown()
    net.shutdown()


if __name__ == "__main__":
    main()
