"""The message sequence of every move shape on the simulated network.

The sim completes each exchange on the calling thread, so a move's
traffic is one deterministic list of frames and replies.  Each shape is
pinned whole here: a small move is one ``OBJECT_TRANSFER``, a stream is
``PREPARE, CHUNK × n, COMMIT``, a hedge prepares every candidate before
either streams, and a failed stream (never a failed small move) sends
``TRANSFER_ABORT``.  A frame to a crashed node is traced as lost.  A
hedge with more chunks than the per-candidate window may interleave its
candidates differently; its per-candidate order is the same, and it is
not pinned here.
"""

import pytest

from repro.bench.workloads import Counter
from repro.errors import NodeUnreachableError

KIB = 1024
CHUNK = 16 * KIB


class Bulk:
    """A mobile servant whose state is ``size`` bytes plus a little."""

    def __init__(self, size):
        self.payload = b"m" * size


def _cluster(make_cluster):
    return make_cluster(["alpha", "beta", "gamma"], stream_threshold=4 * KIB,
                        chunk_bytes=CHUNK)


def _sent(cluster):
    return [event.arrow() for event in cluster.trace.events()
            if not event.local]


def _exchange(src, dst, kind, times=1):
    return [f"{src} -> {dst}: {kind}",
            f"{dst} -> {src}: REPLY({kind})"] * times


def _stream(dst, chunks):
    return (_exchange("alpha", dst, "TRANSFER_PREPARE")
            + _exchange("alpha", dst, "TRANSFER_CHUNK", chunks)
            + _exchange("alpha", dst, "TRANSFER_COMMIT"))


def _size_for(chunks):
    """A payload size whose marshalled state spans exactly ``chunks``."""
    return chunks * CHUNK - CHUNK // 2


class TestMoveSequence:
    def test_a_small_move_is_one_transfer(self, make_cluster):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("c", Counter(1))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move("c", "beta") == "beta"
        assert _sent(cluster) == _exchange("alpha", "beta", "OBJECT_TRANSFER")

    def test_a_small_move_ignores_its_alternates(self, make_cluster):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("c", Counter(1))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move(
            "c", "beta", hedge=True, alternates=("gamma",)) == "beta"
        assert _sent(cluster) == _exchange("alpha", "beta", "OBJECT_TRANSFER")

    @pytest.mark.parametrize("chunks", [4, 12])
    def test_a_single_target_stream(self, make_cluster, chunks):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("b", Bulk(_size_for(chunks)))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move("b", "beta") == "beta"
        assert _sent(cluster) == _stream("beta", chunks)

    def test_a_two_candidate_hedge(self, make_cluster):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("b", Bulk(_size_for(4)))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move(
            "b", "beta", hedge=True, alternates=("gamma",)) == "beta"
        assert _sent(cluster) == (
            _exchange("alpha", "beta", "TRANSFER_PREPARE")
            + _exchange("alpha", "gamma", "TRANSFER_PREPARE")
            + _exchange("alpha", "beta", "TRANSFER_CHUNK", 4)
            + _exchange("alpha", "gamma", "TRANSFER_CHUNK", 4)
            + _exchange("alpha", "beta", "TRANSFER_COMMIT")
            + _exchange("alpha", "gamma", "TRANSFER_ABORT"))

    def test_a_hedge_prepares_in_the_callers_order(self, make_cluster):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("b", Bulk(_size_for(4)))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move(
            "b", "gamma", hedge=True, alternates=("beta",)) == "gamma"
        assert _sent(cluster) == (
            _exchange("alpha", "gamma", "TRANSFER_PREPARE")
            + _exchange("alpha", "beta", "TRANSFER_PREPARE")
            + _exchange("alpha", "gamma", "TRANSFER_CHUNK", 4)
            + _exchange("alpha", "beta", "TRANSFER_CHUNK", 4)
            + _exchange("alpha", "gamma", "TRANSFER_COMMIT")
            + _exchange("alpha", "beta", "TRANSFER_ABORT"))

    def test_a_hedge_skips_the_source_and_repeated_candidates(
            self, make_cluster):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("b", Bulk(_size_for(4)))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move(
            "b", "beta", hedge=True,
            alternates=("alpha", "beta", "gamma", "gamma")) == "beta"
        assert _sent(cluster) == (
            _exchange("alpha", "beta", "TRANSFER_PREPARE")
            + _exchange("alpha", "gamma", "TRANSFER_PREPARE")
            + _exchange("alpha", "beta", "TRANSFER_CHUNK", 4)
            + _exchange("alpha", "gamma", "TRANSFER_CHUNK", 4)
            + _exchange("alpha", "beta", "TRANSFER_COMMIT")
            + _exchange("alpha", "gamma", "TRANSFER_ABORT"))

    def test_a_stream_into_a_crashed_target_aborts(self, make_cluster):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("b", Bulk(_size_for(4)))
        cluster.crash("beta")
        cluster.trace.clear()
        with pytest.raises(NodeUnreachableError):
            cluster["alpha"].namespace.move("b", "beta")
        assert _sent(cluster) == ["alpha -> beta: TRANSFER_PREPARE  [LOST]",
                                  "alpha -> beta: TRANSFER_ABORT  [LOST]"]
        assert cluster["alpha"].namespace.store.contains("b")

    def test_a_small_move_into_a_crashed_target_sends_no_abort(
            self, make_cluster):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("c", Counter(1))
        cluster.crash("beta")
        cluster.trace.clear()
        with pytest.raises(NodeUnreachableError):
            cluster["alpha"].namespace.move("c", "beta")
        assert _sent(cluster) == ["alpha -> beta: OBJECT_TRANSFER  [LOST]"]
        assert cluster["alpha"].namespace.store.contains("c")
