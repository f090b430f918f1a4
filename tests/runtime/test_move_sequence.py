"""The message sequence of every move shape on the simulated network.

The sim completes each exchange on the calling thread, so a move's
traffic is one deterministic list of frames and replies.  Each shape is
pinned whole here: a small move is one ``OBJECT_TRANSFER``; a
single-target stream is ``CHUNK × n`` and nothing else — its first chunk
opens the staging slot and its last commits, so a one-chunk move is one
exchange; a hedge sends chunk 0 to every candidate before either
streams, then a ``TRANSFER_COMMIT`` to the winner and a
``TRANSFER_ABORT`` to the loser; and a failed stream (never a failed
small move) sends ``TRANSFER_ABORT``.  A frame to a crashed node is
traced as lost.  A hedge with more chunks than the per-candidate window
may interleave its candidates differently; its per-candidate order is
the same, and it is not pinned here.
"""

import pytest

from repro.bench.workloads import Counter
from repro.errors import NodeUnreachableError
from repro.net.conditions import LossModel
from repro.net.message import MessageKind

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


def _hedge(winner, loser, chunks):
    return (_exchange("alpha", winner, "TRANSFER_CHUNK")
            + _exchange("alpha", loser, "TRANSFER_CHUNK")
            + _exchange("alpha", winner, "TRANSFER_CHUNK", chunks - 1)
            + _exchange("alpha", loser, "TRANSFER_CHUNK", chunks - 1)
            + _exchange("alpha", winner, "TRANSFER_COMMIT")
            + _exchange("alpha", loser, "TRANSFER_ABORT"))


class _LoseChunkReply(LossModel):
    """Lose the ``nth`` reply to a TRANSFER_CHUNK, once."""

    def __init__(self, nth):
        self.left = nth

    def should_drop(self, message, attempt):
        if (message.kind is MessageKind.REPLY and attempt == 0
                and message.in_reply_to is MessageKind.TRANSFER_CHUNK):
            self.left -= 1
            return self.left == 0
        return False


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

    @pytest.mark.parametrize("chunks", [1, 4, 12])
    def test_a_single_target_stream(self, make_cluster, chunks):
        """Only chunk exchanges: the head rides chunk 0 and the commit the
        last chunk, so a one-chunk move is a single exchange."""
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("b", Bulk(_size_for(chunks)))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move("b", "beta") == "beta"
        assert _sent(cluster) == _exchange("alpha", "beta", "TRANSFER_CHUNK",
                                           chunks)
        assert cluster["beta"].namespace.store.contains("b")
        assert cluster["beta"].namespace.mover.staging_count() == 0

    def test_a_two_candidate_hedge(self, make_cluster):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("b", Bulk(_size_for(4)))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move(
            "b", "beta", hedge=True, alternates=("gamma",)) == "beta"
        assert _sent(cluster) == _hedge("beta", "gamma", 4)

    def test_a_one_chunk_hedge_still_commits_its_winner(self, make_cluster):
        """A hedge's winner is unknown until a candidate has staged
        everything, so no chunk of it commits."""
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("b", Bulk(_size_for(1)))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move(
            "b", "beta", hedge=True, alternates=("gamma",)) == "beta"
        assert _sent(cluster) == _hedge("beta", "gamma", 1)
        assert not cluster["gamma"].namespace.store.contains("b")
        assert cluster["gamma"].namespace.mover.staging_count() == 0

    def test_a_hedge_prepares_in_the_callers_order(self, make_cluster):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("b", Bulk(_size_for(4)))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move(
            "b", "gamma", hedge=True, alternates=("beta",)) == "gamma"
        assert _sent(cluster) == _hedge("gamma", "beta", 4)

    def test_a_hedge_skips_the_source_and_repeated_candidates(
            self, make_cluster):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("b", Bulk(_size_for(4)))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move(
            "b", "beta", hedge=True,
            alternates=("alpha", "beta", "gamma", "gamma")) == "beta"
        assert _sent(cluster) == _hedge("beta", "gamma", 4)

    def test_a_stream_into_a_crashed_target_aborts(self, make_cluster):
        cluster = _cluster(make_cluster)
        cluster["alpha"].register("b", Bulk(_size_for(4)))
        cluster.crash("beta")
        cluster.trace.clear()
        with pytest.raises(NodeUnreachableError):
            cluster["alpha"].namespace.move("b", "beta")
        assert _sent(cluster) == ["alpha -> beta: TRANSFER_CHUNK  [LOST]",
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

    @pytest.mark.parametrize("chunks", [1, 4])
    def test_a_lost_commit_ack_applies_once(self, make_cluster, chunks):
        """The committing chunk's reply is lost: its retransmission is
        answered without a second apply."""
        cluster = make_cluster(["alpha", "beta"], stream_threshold=4 * KIB,
                               chunk_bytes=CHUNK, loss=_LoseChunkReply(chunks))
        cluster["alpha"].register("b", Bulk(_size_for(chunks)))
        cluster.trace.clear()
        assert cluster["alpha"].namespace.move("b", "beta") == "beta"
        assert _sent(cluster) == (
            _exchange("alpha", "beta", "TRANSFER_CHUNK", chunks - 1)
            + ["alpha -> beta: TRANSFER_CHUNK",
               "beta -> alpha: REPLY(TRANSFER_CHUNK)  [LOST]"]
            + _exchange("alpha", "beta", "TRANSFER_CHUNK"))
        beta = cluster["beta"].namespace
        assert beta.mover.moves_in == 1
        assert beta.store.contains("b")
        assert not cluster["alpha"].namespace.store.contains("b")
        assert beta.mover.staging_count() == 0
