"""Streamed, compressed, hedged migration of a large object.

Run with::

    python examples/streaming_move.py

A 4-node cluster over real TCP sockets with a 2 ms emulated link delay
and a 200 Mbit/s emulated link bandwidth — the regime where moving an
8 MB object actually costs something.  Every frame of 16 KiB or more
crossing a TCP link is zlib-compressed (:mod:`repro.net.codec`).  Three
acts:

1. **Monolithic baseline** — the paper's single OBJECT_TRANSFER frame
   (compression off, streaming off): the whole marshalled state
   serializes, crosses the link, and applies as one blocking unit.
2. **Streamed + compressed** — the same object as a staged stream:
   zlib-compressed TRANSFER_CHUNK frames pipeline over the pooled
   socket (windowed, zero-copy slices of one blob).  The first chunk
   carries the stream's head and opens a staging slot; the last, sent
   once every other chunk is acked, carries the commit that atomically
   applies.  Until that commit the receiver's store shows nothing — a
   partially streamed object is invisible by construction.
3. **Hedged write** — the preferred target is wedged (500 ms per
   message).  ``move(hedge=True, alternates=...)`` streams to the wedged
   *and* a healthy target speculatively, sends a TRANSFER_COMMIT to
   whichever finishes staging first, and aborts the loser before
   anything applied.  The
   move completes at healthy speed; the loser never materializes a copy.
"""

import threading
import time

from repro.cluster import Cluster
from repro.net import codec
from repro.net.deadline import Deadline
from repro.net.tcpnet import _MAX_FRAME, TcpNetwork

NODE_IDS = ["archive", "lab", "field", "backup"]
WEDGED = "field"
STALL_S = 0.5
STATE_MB = 8


class SurveyData:
    """8 MB of structured survey readings — big, and compressible."""

    def __init__(self, nbytes=STATE_MB * 1024 * 1024):
        self.readings = b"depth:0042.17;" * (nbytes // 14)

    def nbytes(self):
        return len(self.readings)


def timed_move(cluster, name, src, dst, **kwargs):
    start = time.perf_counter()
    landed = cluster[src].namespace.move(name, dst, **kwargs)
    return landed, time.perf_counter() - start


def main():
    # uds=False throughout: the nodes share this host, and a same-host
    # Unix socket never compresses; the example is about the TCP link.
    print(f"== 1. monolithic baseline ({STATE_MB} MB, one frame) ==")
    baseline_net = TcpNetwork(latency_ms=2.0, bandwidth_mbps=200.0,
                              uds=False)
    min_bytes = codec.COMPRESS_MIN_BYTES
    codec.COMPRESS_MIN_BYTES = _MAX_FRAME + 1  # no frame is compressed
    try:
        with Cluster(NODE_IDS, transport=baseline_net,
                     stream_threshold=1 << 30) as cluster:
            cluster["archive"].register("survey", SurveyData())
            _, took = timed_move(cluster, "survey", "archive", "lab")
            print(f"   archive -> lab: {took * 1000:7.1f} ms  "
                  f"({STATE_MB / took:.0f} MB/s effective)")
    finally:
        codec.COMPRESS_MIN_BYTES = min_bytes

    print(f"== 2. streamed + compressed (256 KiB chunks, window 8) ==")
    fast_net = TcpNetwork(latency_ms=2.0, bandwidth_mbps=200.0, uds=False)
    with Cluster(NODE_IDS, transport=fast_net,
                 stream_threshold=256 * 1024) as cluster:
        cluster["archive"].register("survey", SurveyData())

        # Watch the staging invariant while the stream is in flight.
        observed = {"staged": 0, "leaked": 0}
        stop = threading.Event()

        def watch():
            lab = cluster["lab"].namespace
            while not stop.is_set():
                staged = lab.mover.staging_count()
                present = lab.store.contains("survey")
                observed["staged"] = max(observed["staged"], staged)
                if present and staged:
                    observed["leaked"] += 1
                time.sleep(0.001)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        _, took = timed_move(cluster, "survey", "archive", "lab")
        stop.set()
        watcher.join(1.0)
        print(f"   archive -> lab: {took * 1000:7.1f} ms  "
              f"({STATE_MB / took:.0f} MB/s effective)")
        print(f"   receiver staged transfers mid-flight: "
              f"{observed['staged']}, store sightings before commit: "
              f"{observed['leaked']} (must be 0)")
        assert observed["leaked"] == 0

        print(f"== 3. hedged write (preferred target wedged "
              f"{STALL_S * 1000:.0f} ms/message) ==")
        inner = cluster[WEDGED].namespace.external.handle
        release = threading.Event()

        def wedged_dispatch(message):
            release.wait(STALL_S)
            return inner(message)

        fast_net.register(WEDGED, wedged_dispatch)

        plain_start = time.perf_counter()
        cluster["lab"].namespace.move("survey", WEDGED)
        plain = time.perf_counter() - plain_start
        print(f"   plain move -> wedged {WEDGED!r}:   {plain * 1000:7.1f} ms")
        cluster[WEDGED].namespace.move("survey", "lab")  # bring it back

        landed, hedged = timed_move(
            cluster, "survey", "lab", WEDGED,
            hedge=True, alternates=("backup",),
            deadline=Deadline.after_s(20),
        )
        print(f"   hedged move ({WEDGED!r} + 'backup'): "
              f"{hedged * 1000:7.1f} ms -> landed on {landed!r} "
              f"({plain / hedged:.1f}x faster)")
        assert landed == "backup"
        assert not cluster[WEDGED].namespace.store.contains("survey")
        release.set()
        print("   loser never materialized the object; staging aborted.")


if __name__ == "__main__":
    main()
