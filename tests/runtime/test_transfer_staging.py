"""Staged streamed migration: staging, commit atomicity, hedged writes.

The invariant under test everywhere here: **staging never leaks into the
store before the commit** — a partially streamed transfer is invisible,
an aborted one evaporates, and only a commit (riding the last chunk, or
a hedge's TRANSFER_COMMIT) materializes the object.
"""

import threading
import time

import pytest

from repro.bench.workloads import Counter
from repro.errors import MigrationError
from repro.net.deadline import Deadline
from repro.rmi.marshal import join_pieces
from repro.rmi.protocol import (
    ObjectTransfer,
    TransferAbort,
    TransferChunk,
    TransferCommit,
    TransferPrepare,
)


class BigState:
    """A servant whose marshalled state clears any streaming threshold."""

    def __init__(self, size=512 * 1024, fill=b"s"):
        self.blob = fill * size
        self.tag = "big"

    def nbytes(self):
        return len(self.blob)


def _streaming_cluster(make_cluster, nodes=("alpha", "beta", "gamma")):
    """A simulated cluster whose movers stream anything over 4 KiB."""
    return make_cluster(list(nodes), stream_threshold=4 * 1024,
                        chunk_bytes=16 * 1024)


def _staged_parts(mover, name="obj", transfer_id="xfer-test",
                  payload=b"p" * 1000, chunk_bytes=300, ttl_ms=30_000.0):
    """A hand-built stream head and its chunks, chunk 0 carrying the head,
    targeting ``mover`` directly."""
    obj = BigStateLike(payload)
    desc = mover.descriptor_for(obj)
    state_blob = join_pieces(mover.pack_state(obj))
    starts = range(0, len(state_blob), chunk_bytes)
    prepare = TransferPrepare(
        name=name,
        class_name=desc.class_name,
        class_desc=desc,
        class_hash=desc.source_hash,
        origin="alpha",
        transfer_id=transfer_id,
        total_bytes=len(state_blob),
        chunk_count=len(starts),
        ttl_ms=ttl_ms,
    )
    chunks = [
        TransferChunk(transfer_id=transfer_id, index=i,
                      data=state_blob[start:start + chunk_bytes],
                      prepare=prepare if i == 0 else None)
        for i, start in enumerate(starts)
    ]
    return prepare, chunks


def _with_commit(chunk, name="obj"):
    """``chunk`` as the committing last chunk of a single-target move."""
    return TransferChunk(
        transfer_id=chunk.transfer_id, index=chunk.index, data=chunk.data,
        prepare=chunk.prepare,
        commit=TransferCommit(transfer_id=chunk.transfer_id, name=name))


class BigStateLike(Counter):
    """Counter subclass carrying a payload so its state has real bytes."""

    def __init__(self, payload=b""):
        super().__init__(0)
        self.payload = payload


class TestStreamedMove:
    def test_large_object_streams_and_survives(self, make_cluster):
        cluster = _streaming_cluster(make_cluster)
        cluster["alpha"].register("big", BigState(size=128 * 1024))
        assert cluster["alpha"].namespace.move("big", "beta") == "beta"
        assert not cluster["alpha"].namespace.store.contains("big")
        moved = cluster["beta"].namespace.store.get("big")
        assert moved.nbytes() == 128 * 1024
        assert moved.tag == "big"
        kinds = [e.kind for e in cluster.trace.events() if not e.local]
        # 128 KiB of raw state / 16 KiB chunks, plus marshalling overhead;
        # the head rides the first chunk and the commit the last.
        assert kinds.count("TRANSFER_CHUNK") in (8, 9)
        assert "TRANSFER_COMMIT" not in kinds
        assert "OBJECT_TRANSFER" not in kinds
        # Nothing left staged on either side.
        assert cluster["beta"].namespace.mover.staging_count() == 0

    def test_small_object_keeps_the_single_frame_path(self, make_cluster):
        cluster = _streaming_cluster(make_cluster)
        cluster["alpha"].register("small", Counter(3))
        cluster["alpha"].namespace.move("small", "beta")
        kinds = [e.kind for e in cluster.trace.events() if not e.local]
        assert "OBJECT_TRANSFER" in kinds
        assert "TRANSFER_CHUNK" not in kinds

    def test_streamed_round_trip_preserves_state(self, make_cluster):
        cluster = _streaming_cluster(make_cluster)
        cluster["alpha"].register("big", BigState(size=64 * 1024, fill=b"q"))
        cluster["alpha"].namespace.move("big", "beta")
        cluster["beta"].namespace.move("big", "gamma")
        obj = cluster["gamma"].namespace.store.get("big")
        assert obj.blob == b"q" * (64 * 1024)

    def test_streamed_move_respects_deadline(self, make_cluster):
        cluster = _streaming_cluster(make_cluster)
        cluster["alpha"].register("big", BigState(size=64 * 1024))
        with pytest.raises(Exception):
            cluster["alpha"].namespace.move(
                "big", "beta", deadline=Deadline.after_ms(0))
        # The failed move left the object exactly where it was.
        assert cluster["alpha"].namespace.store.contains("big")
        assert not cluster["beta"].namespace.store.contains("big")


class TestStagingInvariants:
    def test_staging_never_leaks_into_the_store_before_commit(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        for chunk in chunks:
            assert beta.mover.receive_chunk(chunk) == "ok"
            # The explicit invariant: chunks staged, store untouched.
            assert not beta.store.contains("obj")
        assert beta.mover.staging_count() == 1
        assert beta.mover.commit(
            TransferCommit(transfer_id=prepare.transfer_id, name="obj")
        ) == "ok"
        assert beta.store.contains("obj")
        assert beta.mover.staging_count() == 0
        assert beta.store.get("obj").payload == b"p" * 1000

    def test_prepare_is_idempotent(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        beta.mover.receive_chunk(chunks[0])
        beta.mover.receive_chunk(chunks[1])
        # A retransmitted chunk 0 re-stages its head: it must not reset
        # the slot and drop chunk 1.
        beta.mover.receive_chunk(chunks[0])
        for chunk in chunks[2:]:
            beta.mover.receive_chunk(chunk)
        assert beta.mover.commit(
            TransferCommit(transfer_id=prepare.transfer_id, name="obj")
        ) == "ok"

    def test_retransmitted_commit_is_idempotent(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        for chunk in chunks:
            beta.mover.receive_chunk(chunk)
        commit = TransferCommit(transfer_id=prepare.transfer_id, name="obj")
        assert beta.mover.commit(commit) == "ok"
        beta.store.get("obj").increment()  # mutate after the first apply
        assert beta.mover.commit(commit) == "ok"  # lost-ack retransmission
        assert beta.store.get("obj").get() == 1  # not clobbered
        assert beta.mover.moves_in == 1

    def test_a_committing_chunk_applies_and_its_retransmission_reacks(
            self, pair):
        beta = pair["beta"].namespace
        _prepare, chunks = _staged_parts(beta.mover)
        for chunk in chunks[:-1]:
            beta.mover.receive_chunk(chunk)
        last = _with_commit(chunks[-1])
        assert beta.mover.receive_chunk(last) == "ok"
        assert beta.store.get("obj").payload == b"p" * 1000
        assert beta.mover.staging_count() == 0
        beta.store.get("obj").increment()
        assert beta.mover.receive_chunk(last) == "ok"  # lost-ack replay
        assert beta.store.get("obj").get() == 1  # not clobbered
        assert beta.mover.moves_in == 1

    def test_a_one_chunk_stream_opens_stages_and_applies_in_one_frame(
            self, pair):
        beta = pair["beta"].namespace
        _prepare, [only] = _staged_parts(beta.mover, chunk_bytes=10_000)
        assert only.prepare is not None
        assert beta.mover.receive_chunk(_with_commit(only)) == "ok"
        assert beta.store.get("obj").payload == b"p" * 1000
        assert beta.mover.staging_count() == 0

    def test_a_committing_chunk_of_an_incomplete_stream_is_refused(
            self, pair):
        beta = pair["beta"].namespace
        _prepare, chunks = _staged_parts(beta.mover)
        beta.mover.receive_chunk(chunks[0])  # chunks 1 and 2 never came
        with pytest.raises(MigrationError, match="incomplete"):
            beta.mover.receive_chunk(_with_commit(chunks[-1]))
        assert not beta.store.contains("obj")
        assert beta.mover.moves_in == 0

    def test_commit_of_incomplete_staging_is_refused(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        for chunk in chunks[:-1]:  # one chunk short
            beta.mover.receive_chunk(chunk)
        with pytest.raises(MigrationError):
            beta.mover.commit(
                TransferCommit(transfer_id=prepare.transfer_id, name="obj"))
        assert not beta.store.contains("obj")

    def test_commit_of_unknown_transfer_is_refused(self, pair):
        with pytest.raises(MigrationError):
            pair["beta"].namespace.mover.commit(
                TransferCommit(transfer_id="never-prepared", name="obj"))

    def test_chunk_without_prepare_is_refused(self, pair):
        with pytest.raises(MigrationError):
            pair["beta"].namespace.mover.receive_chunk(
                TransferChunk(transfer_id="never-prepared", index=0, data=b"x"))

    def test_duplicate_chunk_retransmission_is_ignored(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        for chunk in chunks:
            beta.mover.receive_chunk(chunk)
        beta.mover.receive_chunk(chunks[0])  # lost-ack retransmission
        assert beta.mover.commit(  # byte totals still verify
            TransferCommit(transfer_id=prepare.transfer_id, name="obj")
        ) == "ok"

    @pytest.mark.parametrize("index", [-1, None, 10**6])
    def test_chunk_index_outside_the_prepare_is_refused(self, pair, index):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        beta.mover.receive_chunk(chunks[0])
        stray = TransferChunk(
            transfer_id=prepare.transfer_id,
            index=prepare.chunk_count if index is None else index,
            data=b"x")
        with pytest.raises(MigrationError, match="outside its"):
            beta.mover.receive_chunk(stray)
        # Nothing of the refused chunk was kept, and the stream's own
        # abort still clears the slot.
        beta.mover.abort(TransferAbort(transfer_id=prepare.transfer_id))
        assert beta.mover.staging_count() == 0
        assert not beta.store.contains("obj")

    def test_chunk_past_the_prepared_byte_total_is_refused(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        for chunk in chunks[:-1]:
            beta.mover.receive_chunk(chunk)
        last = chunks[-1]
        fat = TransferChunk(transfer_id=last.transfer_id, index=last.index,
                            data=bytes(last.data) + b"!")
        with pytest.raises(MigrationError, match="overruns"):
            beta.mover.receive_chunk(fat)
        # The refusal stored nothing: the honest last chunk still fits.
        beta.mover.receive_chunk(last)
        beta.mover.abort(TransferAbort(transfer_id=prepare.transfer_id))
        assert beta.mover.staging_count() == 0
        assert not beta.store.contains("obj")

    def test_chunk_that_is_not_bytes_is_refused(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        beta.mover.receive_chunk(chunks[0])
        with pytest.raises(MigrationError, match="not bytes"):
            beta.mover.receive_chunk(TransferChunk(
                transfer_id=prepare.transfer_id, index=1, data=7))
        beta.mover.abort(TransferAbort(transfer_id=prepare.transfer_id))
        assert beta.mover.staging_count() == 0

    def test_a_chunk_of_several_segments_stages_and_commits(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover, payload=b"m" * 5000,
                                        chunk_bytes=900)
        for chunk in chunks:
            view = memoryview(chunk.data)
            beta.mover.receive_chunk(TransferChunk(
                transfer_id=chunk.transfer_id, index=chunk.index,
                data=(bytes(view[:100]), view[100:400], view[400:]),
                prepare=chunk.prepare))
        assert beta.mover.commit(
            TransferCommit(transfer_id=prepare.transfer_id, name="obj")
        ) == "ok"
        assert beta.store.get("obj").payload == b"m" * 5000

    def test_a_segment_that_is_not_bytes_is_refused(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        with pytest.raises(MigrationError, match="carries int, not bytes"):
            beta.mover.receive_chunk(TransferChunk(
                transfer_id=prepare.transfer_id, index=0,
                data=(chunks[0].data, 7), prepare=prepare))
        # Nothing of the refused chunk was kept: the honest one stages.
        beta.mover.receive_chunk(chunks[0])
        beta.mover.abort(TransferAbort(transfer_id=prepare.transfer_id))
        assert beta.mover.staging_count() == 0

    def test_segments_past_the_prepared_byte_total_are_refused(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        for chunk in chunks[:-1]:
            beta.mover.receive_chunk(chunk)
        last = chunks[-1]
        fat = TransferChunk(transfer_id=last.transfer_id, index=last.index,
                            data=(last.data, memoryview(b"!")))
        with pytest.raises(MigrationError, match="overruns"):
            beta.mover.receive_chunk(fat)
        beta.mover.receive_chunk(last)
        assert beta.mover.commit(
            TransferCommit(transfer_id=prepare.transfer_id, name="obj")
        ) == "ok"
        assert beta.store.get("obj").payload == b"p" * 1000

    def test_commit_reads_staged_views_without_joining_them(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover, payload=b"v" * 5000,
                                        chunk_bytes=7)
        # Chunk 0 opens the slot; the rest arrive out of order, all as
        # read-only views.
        for chunk in [chunks[0], *reversed(chunks[1:])]:
            beta.mover.receive_chunk(TransferChunk(
                transfer_id=chunk.transfer_id, index=chunk.index,
                data=memoryview(bytearray(chunk.data)).toreadonly(),
                prepare=chunk.prepare))
        assert beta.mover.commit(
            TransferCommit(transfer_id=prepare.transfer_id, name="obj")
        ) == "ok"
        assert beta.store.get("obj").payload == b"v" * 5000
        assert beta.mover.staging_count() == 0

    def test_abort_discards_staging(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        beta.mover.receive_chunk(chunks[0])
        assert beta.mover.abort(
            TransferAbort(transfer_id=prepare.transfer_id, reason="test")
        ) == "ok"
        assert beta.mover.staging_count() == 0
        assert not beta.store.contains("obj")
        # The stream is now dead: further chunks are refused.
        with pytest.raises(MigrationError):
            beta.mover.receive_chunk(chunks[1])

    def test_prepare_after_abort_cannot_resurrect_staging(self, pair):
        """Abort tombstones: on a congested node a stream's chunk 0 can
        dispatch *after* the ABORT that killed its transfer — its head
        must be refused, not resurrect an orphan staging entry."""
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        beta.mover.abort(TransferAbort(transfer_id=prepare.transfer_id,
                                       reason="loser"))
        with pytest.raises(MigrationError, match="aborted"):
            beta.mover.receive_chunk(chunks[0])
        with pytest.raises(MigrationError):
            beta.mover.receive_chunk(chunks[1])
        assert beta.mover.staging_count() == 0

    def test_abort_after_commit_is_refused(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        for chunk in chunks:
            beta.mover.receive_chunk(chunk)
        beta.mover.commit(
            TransferCommit(transfer_id=prepare.transfer_id, name="obj"))
        with pytest.raises(MigrationError):
            beta.mover.abort(TransferAbort(transfer_id=prepare.transfer_id))
        assert beta.store.contains("obj")

    def test_abort_racing_an_inflight_commit_is_refused(self, pair):
        """An abort landing while a COMMIT is mid-apply (staging entry
        already claimed, object not yet in the seen-set) must wait out
        the apply and then be refused — answering "ok" from that gap
        would leave a committed copy the source believes was aborted."""
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover)
        for chunk in chunks:
            beta.mover.receive_chunk(chunk)
        real_unpack = beta.mover.unpack
        mid_apply = threading.Event()
        abort_done = threading.Event()

        def slow_unpack(cls, blob):
            mid_apply.set()
            # Hold the apply window open until the abort has provably
            # started (it must park on the reservation, not sneak by).
            time.sleep(0.1)
            return real_unpack(cls, blob)

        beta.mover.unpack = slow_unpack
        outcome = {}

        def commit():
            outcome["commit"] = beta.mover.commit(
                TransferCommit(transfer_id=prepare.transfer_id, name="obj"))

        def abort():
            mid_apply.wait(2.0)
            try:
                beta.mover.abort(TransferAbort(transfer_id=prepare.transfer_id))
                outcome["abort"] = "ok"
            except MigrationError:
                outcome["abort"] = "refused"
            abort_done.set()

        committer = threading.Thread(target=commit)
        aborter = threading.Thread(target=abort)
        committer.start()
        aborter.start()
        committer.join(5.0)
        abort_done.wait(5.0)
        assert outcome == {"commit": "ok", "abort": "refused"}
        assert beta.store.contains("obj")  # committed exactly once
        assert beta.mover.moves_in == 1

    def test_orphaned_staging_is_reaped_after_its_ttl(self, pair):
        beta = pair["beta"].namespace
        prepare, chunks = _staged_parts(beta.mover, ttl_ms=30.0)
        beta.mover.receive_chunk(chunks[0])
        assert beta.mover.staging_count() == 1
        time.sleep(0.05)
        assert beta.mover.reap_staging() == 1
        assert beta.mover.staging_count() == 0
        assert beta.mover.staging_reaped == 1
        # A commit arriving after the reap is refused, not half-applied.
        with pytest.raises(MigrationError):
            beta.mover.commit(
                TransferCommit(transfer_id=prepare.transfer_id, name="obj"))
        assert not beta.store.contains("obj")

    def test_fresh_staging_survives_the_reaper(self, pair):
        beta = pair["beta"].namespace
        _prepare, chunks = _staged_parts(beta.mover, ttl_ms=30_000.0)
        beta.mover.receive_chunk(chunks[0])
        assert beta.mover.reap_staging() == 0
        assert beta.mover.staging_count() == 1


class TestReceiveDedupRace:
    def test_concurrent_retransmissions_apply_once(self, pair):
        """The PR-4 race fix: two in-flight retransmissions of one
        transfer id must converge on a single apply.  The id is reserved
        on entry, so the second thread waits out the first instead of
        racing it through the unpack/store window."""
        beta = pair["beta"].namespace
        alpha = pair["alpha"].namespace
        alpha.register("c", Counter(3))
        record = alpha.store.record("c")
        desc = alpha.mover.descriptor_for(record.obj)
        transfer = ObjectTransfer(
            name="c",
            class_name=desc.class_name,
            state_blob=join_pieces(alpha.mover.pack_state(record.obj)),
            class_desc=desc,
            class_hash=desc.source_hash,
            origin="alpha",
            transfer_id="dup-id",
        )
        # Widen the race window: the first unpack blocks until the second
        # receive has provably entered and parked on the reservation.
        real_unpack = beta.mover.unpack
        entered = threading.Event()

        def slow_unpack(cls, blob):
            entered.wait(2.0)
            time.sleep(0.05)
            return real_unpack(cls, blob)

        beta.mover.unpack = slow_unpack
        results = []

        def receive():
            results.append(beta.mover.receive(transfer))

        first = threading.Thread(target=receive)
        second = threading.Thread(target=receive)
        first.start()
        time.sleep(0.02)  # let the first thread reach the unpack
        second.start()
        time.sleep(0.02)  # let the second thread park on the reservation
        entered.set()
        first.join(5.0)
        second.join(5.0)
        assert results == ["ok", "ok"]
        assert beta.mover.moves_in == 1  # applied exactly once

    def test_failed_apply_releases_the_reservation(self, pair):
        beta = pair["beta"].namespace
        alpha = pair["alpha"].namespace
        alpha.register("c", Counter(9))
        record = alpha.store.record("c")
        desc = alpha.mover.descriptor_for(record.obj)
        transfer = ObjectTransfer(
            name="c",
            class_name=desc.class_name,
            state_blob=join_pieces(alpha.mover.pack_state(record.obj)),
            class_desc=desc,
            class_hash=desc.source_hash,
            origin="alpha",
            transfer_id="retry-id",
        )
        real_unpack = beta.mover.unpack
        calls = []

        def failing_once(cls, blob):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient unpack failure")
            return real_unpack(cls, blob)

        beta.mover.unpack = failing_once
        with pytest.raises(RuntimeError):
            beta.mover.receive(transfer)
        # The reservation was released: the retransmission executes afresh.
        assert beta.mover.receive(transfer) == "ok"
        assert beta.store.get("c").get() == 9


class TestTombstoneWindow:
    def test_the_last_4096_applied_ids_dedupe_and_older_ones_do_not(
            self, pair):
        beta = pair["beta"].namespace
        alpha = pair["alpha"].namespace
        alpha.register("c", Counter(5))
        record = alpha.store.record("c")
        desc = alpha.mover.descriptor_for(record.obj)
        state_blob = join_pieces(alpha.mover.pack_state(record.obj))
        transfers = [
            ObjectTransfer(
                name="c",
                class_name=desc.class_name,
                state_blob=state_blob,
                class_desc=desc,
                class_hash=desc.source_hash,
                origin="alpha",
                transfer_id=f"t{i}",
            )
            for i in range(4097)
        ]
        for transfer in transfers:
            assert beta.mover.receive(transfer) == "ok"
        assert beta.mover.moves_in == 4097
        for transfer in transfers[1:]:  # the last 4096: lost-ack replays
            assert beta.mover.receive(transfer) == "ok"
        assert beta.mover.moves_in == 4097
        beta.mover.receive(transfers[0])  # the 4097th-oldest was forgotten
        assert beta.mover.moves_in == 4098


class TestHedgedWrites:
    def test_hedged_move_lands_exactly_once(self, make_cluster):
        cluster = _streaming_cluster(make_cluster)
        cluster["alpha"].register("big", BigState(size=64 * 1024))
        landed = cluster["alpha"].namespace.move(
            "big", "beta", hedge=True, alternates=("gamma",))
        assert landed in ("beta", "gamma")
        loser = "gamma" if landed == "beta" else "beta"
        assert not cluster["alpha"].namespace.store.contains("big")
        assert cluster[landed].namespace.store.contains("big")
        # The loser never materialized the object and holds no staging.
        assert not cluster[loser].namespace.store.contains("big")
        assert cluster[loser].namespace.mover.staging_count() == 0
        # Forwarding follows the winner.
        assert cluster["alpha"].namespace.find("big") == landed

    def test_remote_hedged_write_via_move_request(self, make_cluster):
        """An initiator that does not host the object hands the alternates
        to the hosting mover through the MOVE_REQUEST."""
        cluster = _streaming_cluster(make_cluster)
        cluster["alpha"].register("big", BigState(size=64 * 1024))
        landed = cluster["gamma"].namespace.move(
            "big", "beta", origin_hint="alpha", hedge=True,
            alternates=("gamma",))
        assert landed in ("beta", "gamma")
        assert cluster[landed].namespace.store.contains("big")
        assert not cluster["alpha"].namespace.store.contains("big")

    def test_hedged_write_with_one_dead_target_still_lands(self, make_cluster):
        cluster = _streaming_cluster(make_cluster)
        cluster["alpha"].register("big", BigState(size=64 * 1024))
        cluster.crash("beta")
        landed = cluster["alpha"].namespace.move(
            "big", "beta", hedge=True, alternates=("gamma",),
            deadline=Deadline.after_s(10))
        assert landed == "gamma"
        assert cluster["gamma"].namespace.store.contains("big")
        assert not cluster["alpha"].namespace.store.contains("big")

    def test_hedged_write_all_targets_dead_keeps_the_object(self, make_cluster):
        cluster = _streaming_cluster(make_cluster)
        cluster["alpha"].register("big", BigState(size=64 * 1024))
        cluster.crash("beta")
        cluster.crash("gamma")
        with pytest.raises(MigrationError):
            cluster["alpha"].namespace.move(
                "big", "beta", hedge=True, alternates=("gamma",),
                deadline=Deadline.after_s(5))
        # Transfer-then-evict held: the object never left.
        assert cluster["alpha"].namespace.store.contains("big")
        snap = cluster["alpha"].namespace.locks.snapshot("big")
        assert snap["departing"] is False  # grants resumed after the abort

    def test_small_objects_ignore_alternates(self, make_cluster):
        cluster = _streaming_cluster(make_cluster)
        cluster["alpha"].register("small", Counter(1))
        landed = cluster["alpha"].namespace.move(
            "small", "beta", hedge=True, alternates=("gamma",))
        assert landed == "beta"
        kinds = [e.kind for e in cluster.trace.events() if not e.local]
        assert "TRANSFER_CHUNK" not in kinds


class TestDepartureLocking:
    def test_lock_during_stream_fails_over_to_the_winner(self, make_cluster):
        """A lock request arriving while the object streams away must not
        be granted against the departing copy: it queues, then fails over
        to the new host once the commit lands."""
        from repro.errors import LockMovedError
        from repro.runtime.locks import LockManager

        locks = LockManager("alpha")
        locks.begin_departure("obj")
        results = []

        def request():
            try:
                results.append(locks.acquire("obj", "alpha", "r",
                                             timeout_ms=2_000))
            except LockMovedError as exc:
                results.append(exc.new_location)

        thread = threading.Thread(target=request)
        thread.start()
        time.sleep(0.05)
        assert results == []  # withheld while departing
        locks.mark_moved("obj", "beta")
        thread.join(2.0)
        assert results == ["beta"]

    def test_aborted_departure_resumes_granting(self):
        from repro.runtime.locks import LockManager

        locks = LockManager("alpha")
        locks.begin_departure("obj")
        results = []

        def request():
            results.append(locks.acquire("obj", "alpha", "r",
                                         timeout_ms=2_000))

        thread = threading.Thread(target=request)
        thread.start()
        time.sleep(0.05)
        assert results == []
        locks.abort_departure("obj")
        thread.join(2.0)
        assert len(results) == 1 and results[0].kind == "stay"
