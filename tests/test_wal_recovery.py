"""WAL recovery battery (repro.wal).

Every durability claim the write-ahead log makes is exercised here the
hard way:

* kill-after-append — a child process appends through the WAL and
  SIGKILLs itself; the parent recovers and must see exactly the records
  that were fsynced, byte-identical to an index built from the same
  stream in one shot;
* torn final record — the log is truncated mid-frame (a torn write);
  replay drops only the torn tail and repairs the file;
* bit-flipped CRC — a corrupted payload is detected and everything from
  the bad frame on is dropped;
* replay idempotence — replaying twice equals replaying once, including
  the crash-between-publish-and-truncate window where an already-folded
  log is replayed over the new generation;
* and, throughout, the write path never restarts worker pools or
  rewrites the snapshot (the regression that motivated the WAL).

All parity checks run the exhaustive regime (α ≥ n, γ = α, triangular
filter only) so answers are byte-identical, not merely close.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import struct
import zlib

import numpy as np
import pytest

import repro.core.procpool as procpool
from repro.core import (
    HDIndex,
    HDIndexParams,
    IndexSpec,
    PersistenceError,
    build,
    open_index,
    save_index,
)
from repro.wal import (
    WAL_FILE,
    WriteAheadLog,
    read_current,
    replay_wal,
    resolve_snapshot_dir,
)
from repro.wal.log import _HEADER

DIM = 6
BASE_N = 120
SEED = 41

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="kill tests rely on fork-started children")


def _params(directory=None):
    """Exhaustive regime: α ≥ any count this file reaches, γ = α, no
    Ptolemaic pruning — answers are byte-identical to brute force."""
    return HDIndexParams(num_trees=2, hilbert_order=6, num_references=4,
                         alpha=512, gamma=512, use_ptolemaic=False,
                         domain=(0.0, 100.0), seed=3,
                         storage_dir=directory)


def _base_data():
    rng = np.random.default_rng(SEED)
    return rng.uniform(0.0, 100.0, size=(BASE_N, DIM))


def _extra(seed, count):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 100.0, size=(count, DIM))


def _build_wal_index(directory, data=None):
    spec = IndexSpec(params=_params(), wal=True)
    return build(spec, _base_data() if data is None else data,
                 storage_dir=str(directory))


def _oracle(vectors, deleted=()):
    """A fresh one-shot index over the full stream — the parity yardstick."""
    index = HDIndex(_params())
    index.build(np.asarray(vectors, dtype=np.float64))
    for object_id in deleted:
        index.delete(object_id)
    return index


def _assert_parity(index, oracle, queries, k=5):
    for query in queries:
        ids, dists = index.query(query, k)
        oracle_ids, oracle_dists = oracle.query(query, k)
        np.testing.assert_array_equal(ids, oracle_ids)
        np.testing.assert_array_equal(dists, oracle_dists)


def _simulate_crash(index):
    """Drop the index without compacting or flushing anything beyond what
    the fsync policy already guaranteed — the closest a test can get to
    pulling the plug without a child process."""
    if index._wal is not None:
        index._wal.close()
    # Deliberately NOT index.close(): a crash never runs that.


#: One frame of each kind: how it is appended, its bytes (taken from a
#: release that still tagged frames with a shard) and the record it
#: replays to.
PINNED_FRAMES = {
    "insert": (
        lambda log: log.append_insert(7, np.array([1.0, -2.5])),
        # insert 7, [1.0, -2.5]
        bytes.fromhex(
            "1d0000000d0fbc82010700000000000000ffffffff000000000000f03f"
            "00000000000004c0"),
        ("insert", 7, [1.0, -2.5], None)),
    "insert-metadata": (
        lambda log: log.append_insert(8, np.array([0.5, 3.0]),
                                      metadata={"label": 3, "tag": "a"}),
        # insert 8, {"label": 3, "tag": "a"}, [0.5, 3.0]
        bytes.fromhex(
            "36000000a24cd2e4030800000000000000ffffffff150000007b226c6162"
            "656c223a332c22746167223a2261227d000000000000e03f000000000000"
            "0840"),
        ("insert", 8, [0.5, 3.0], {"label": 3, "tag": "a"})),
    "delete": (
        lambda log: log.append_delete(7),
        # delete 7
        bytes.fromhex("0d000000a53a0bc5020700000000000000ffffffff"),
        ("delete", 7, None, None)),
}


class TestFrameFormat:
    def test_roundtrip_insert_delete(self, tmp_path):
        path = tmp_path / WAL_FILE
        log = WriteAheadLog(path)
        vector = np.arange(DIM, dtype=np.float64) + 0.5
        log.append_insert(7, vector)
        log.append_delete(3)
        log.append_insert(8, vector * 2)
        log.close()
        records, dropped = replay_wal(path)
        assert dropped == 0
        assert [r.op for r in records] == ["insert", "delete", "insert"]
        assert [r.object_id for r in records] == [7, 3, 8]
        np.testing.assert_array_equal(records[0].vector, vector)
        np.testing.assert_array_equal(records[2].vector, vector * 2)
        assert records[1].vector is None

    def test_frame_bytes_are_pinned(self, tmp_path):
        """An insert, an insert with metadata and a delete, byte for byte
        as the log has always framed them: length, CRC32, then op, id,
        an i32 that is always -1, the metadata JSON and the vector."""
        path = tmp_path / WAL_FILE
        log = WriteAheadLog(path)
        for case in PINNED_FRAMES:
            PINNED_FRAMES[case][0](log)
        log.close()
        assert path.read_bytes() == b"".join(
            frame for _, frame, _ in PINNED_FRAMES.values())

    @pytest.mark.parametrize("case", list(PINNED_FRAMES))
    def test_pinned_frame_replays_to_its_record(self, tmp_path, case):
        """A log holding one pinned frame, as an older release wrote it,
        replays to the record that frame was appended as."""
        _, frame, (op, object_id, vector, metadata) = PINNED_FRAMES[case]
        path = tmp_path / WAL_FILE
        path.write_bytes(frame)
        records, dropped = replay_wal(path)
        assert dropped == 0 and len(records) == 1
        record = records[0]
        assert (record.op, record.object_id) == (op, object_id)
        assert record.metadata == metadata
        if vector is None:
            assert record.vector is None
        else:
            np.testing.assert_array_equal(record.vector, vector)

    @pytest.mark.parametrize("tag", [0, 2])
    def test_the_i32_is_ignored_on_read(self, tmp_path, tag):
        """Older releases wrote a shard number into the i32 after the id:
        a frame carrying one replays as the same record, and the file's
        bytes are left as they were."""
        payload = (struct.pack("<Bqi", 1, 7, tag)
                   + np.array([1.0, -2.5]).astype("<f8").tobytes())
        path = tmp_path / WAL_FILE
        path.write_bytes(_HEADER.pack(len(payload), zlib.crc32(payload))
                         + payload)
        before = path.read_bytes()
        records, dropped = replay_wal(path)
        assert dropped == 0
        assert [(r.op, r.object_id) for r in records] == [("insert", 7)]
        np.testing.assert_array_equal(records[0].vector, [1.0, -2.5])
        assert path.read_bytes() == before

    def test_fsync_policies(self, tmp_path):
        """Every append is fsynced (``"always"``) or flushed for a
        later :meth:`sync` (``"batch"``); a log the OS alone syncs is
        not offered."""
        for policy in ("always", "batch"):
            log = WriteAheadLog(tmp_path / WAL_FILE, fsync=policy)
            log.append_delete(3)
            log.sync()
            log.close()
        with pytest.raises(ValueError, match="never"):
            WriteAheadLog(tmp_path / WAL_FILE, fsync="never")

    def test_missing_log_replays_empty(self, tmp_path):
        records, dropped = replay_wal(tmp_path / "absent.log")
        assert records == [] and dropped == 0


class TestKillAfterAppend:
    @needs_fork
    @pytest.mark.parametrize("kill_after", [0, 1, 5, 12])
    def test_recovered_equals_one_shot_build(self, tmp_path, kill_after):
        directory = tmp_path / "snap"
        _build_wal_index(directory).close()

        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_child_insert_and_die,
                            args=(str(directory), 99, kill_after))
        child.start()
        child.join(60)
        assert child.exitcode == -signal.SIGKILL

        recovered = open_index(directory)
        try:
            extra = _extra(99, kill_after)
            stream = np.vstack([_base_data(), extra]) if kill_after \
                else _base_data()
            deleted = {2} if kill_after >= 3 else set()
            assert recovered.count == BASE_N + kill_after
            oracle = _oracle(stream, deleted)
            _assert_parity(recovered, oracle, _base_data()[:4])
            oracle.close()
        finally:
            recovered.close()


def _child_insert_and_die(directory, seed, kill_after):
    index = open_index(directory, wal=True)
    for position, vector in enumerate(_extra(seed, kill_after)):
        index.insert(vector)
        if position == 2:
            index.delete(2)
    os.kill(os.getpid(), signal.SIGKILL)


class TestTornAndCorruptFrames:
    def _crashed_log(self, tmp_path, inserts=4):
        directory = tmp_path / "snap"
        index = _build_wal_index(directory)
        for vector in _extra(7, inserts):
            index.insert(vector)
        _simulate_crash(index)
        return directory, directory / WAL_FILE

    def test_torn_final_record_truncated_on_replay(self, tmp_path):
        directory, wal_path = self._crashed_log(tmp_path)
        intact = wal_path.stat().st_size
        # Tear the final frame: drop the last 5 bytes of its payload.
        with open(wal_path, "r+b") as handle:
            handle.truncate(intact - 5)
        recovered = open_index(directory)
        try:
            assert recovered.count == BASE_N + 3
            oracle = _oracle(np.vstack([_base_data(), _extra(7, 3)]))
            _assert_parity(recovered, oracle, _base_data()[:4])
            oracle.close()
        finally:
            recovered.close()
        # The torn tail was repaired away: the file now ends at the last
        # good frame and replays clean.
        records, dropped = replay_wal(wal_path)
        assert dropped == 0 and len(records) == 3

    def test_torn_header_truncated_on_replay(self, tmp_path):
        directory, wal_path = self._crashed_log(tmp_path)
        first_size = _frame_sizes(wal_path)[0]
        with open(wal_path, "r+b") as handle:
            handle.truncate(first_size + 3)  # 3 bytes of a header
        recovered = open_index(directory)
        try:
            assert recovered.count == BASE_N + 1
        finally:
            recovered.close()

    def test_bit_flipped_crc_drops_frame(self, tmp_path):
        directory, wal_path = self._crashed_log(tmp_path)
        sizes = _frame_sizes(wal_path)
        # Flip one payload byte inside the final frame.
        offset = sum(sizes[:-1]) + _HEADER.size + 2
        _flip_byte(wal_path, offset)
        recovered = open_index(directory)
        try:
            assert recovered.count == BASE_N + 3
            oracle = _oracle(np.vstack([_base_data(), _extra(7, 3)]))
            _assert_parity(recovered, oracle, _base_data()[:4])
            oracle.close()
        finally:
            recovered.close()

    def test_corrupt_middle_frame_drops_tail(self, tmp_path):
        directory, wal_path = self._crashed_log(tmp_path)
        sizes = _frame_sizes(wal_path)
        _flip_byte(wal_path, sum(sizes[:2]) + _HEADER.size + 1)
        recovered = open_index(directory)
        try:
            # Frames 0-1 survive; the corrupt third frame and everything
            # after it are gone (replay cannot trust frame boundaries
            # past a bad CRC).
            assert recovered.count == BASE_N + 2
            oracle = _oracle(np.vstack([_base_data(), _extra(7, 2)]))
            _assert_parity(recovered, oracle, _base_data()[:4])
            oracle.close()
        finally:
            recovered.close()

    def test_clean_log_is_not_rewritten(self, tmp_path):
        directory, wal_path = self._crashed_log(tmp_path)
        before = wal_path.read_bytes()
        recovered = open_index(directory)
        recovered.close()
        assert wal_path.read_bytes() == before


def _frame_sizes(wal_path):
    sizes = []
    blob = wal_path.read_bytes()
    offset = 0
    while offset < len(blob):
        length, _ = _HEADER.unpack_from(blob, offset)
        sizes.append(_HEADER.size + length)
        offset += _HEADER.size + length
    return sizes


def _flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestReplayIdempotence:
    def test_replay_twice_equals_once(self, tmp_path):
        directory = tmp_path / "snap"
        index = _build_wal_index(directory)
        for vector in _extra(11, 6):
            index.insert(vector)
        index.delete(4)
        _simulate_crash(index)

        oracle = _oracle(np.vstack([_base_data(), _extra(11, 6)]), {4})
        for _ in range(2):  # two recoveries over the same surviving log
            recovered = open_index(directory)
            assert recovered.count == BASE_N + 6
            _assert_parity(recovered, oracle, _base_data()[:4])
            _simulate_crash(recovered)
        oracle.close()

    def test_crash_between_publish_and_truncate(self, tmp_path,
                                                monkeypatch):
        """The narrowest compaction crash window: the new generation is
        published but the log was never truncated.  Replay must skip
        every already-folded record instead of double-applying it."""
        directory = tmp_path / "snap"
        index = _build_wal_index(directory)
        for vector in _extra(13, 5):
            index.insert(vector)
        index.delete(1)
        monkeypatch.setattr(WriteAheadLog, "truncate", lambda self: None)
        index.compact()
        monkeypatch.undo()
        _simulate_crash(index)

        assert (directory / WAL_FILE).stat().st_size > 0  # stale log
        recovered = open_index(directory)
        try:
            assert recovered.count == BASE_N + 5
            assert recovered.generation == 1
            oracle = _oracle(np.vstack([_base_data(), _extra(13, 5)]), {1})
            _assert_parity(recovered, oracle, _base_data()[:4])
            oracle.close()
        finally:
            recovered.close()


class TestGenerationLifecycle:
    def test_compaction_publishes_current_and_truncates(self, tmp_path):
        directory = tmp_path / "snap"
        index = _build_wal_index(directory)
        for vector in _extra(17, 4):
            index.insert(vector)
        generation = index.compact()
        assert generation == 1
        assert read_current(str(directory)) == "gen-000001"
        assert os.path.getsize(directory / WAL_FILE) == 0
        target = resolve_snapshot_dir(str(directory))
        assert os.path.basename(target) == "gen-000001"
        index.close()

    def test_save_refuses_uncompacted_delta(self, tmp_path):
        directory = tmp_path / "snap"
        index = _build_wal_index(directory)
        index.insert(_extra(19, 1)[0])
        with pytest.raises(PersistenceError, match="compact"):
            save_index(index, tmp_path / "elsewhere")
        index.compact()
        # Once folded, saving works again (to the file-backed index's own
        # generation directory, as for any file-backed index).
        save_index(index, resolve_snapshot_dir(str(directory)))
        index.close()

    def test_old_generations_pruned(self, tmp_path):
        directory = tmp_path / "snap"
        index = _build_wal_index(directory)
        for round_number in range(3):
            index.insert(_extra(23 + round_number, 1)[0])
            index.compact()
        generations = sorted(name for name in os.listdir(directory)
                             if name.startswith("gen-"))
        # Current + previous are kept (the previous one may still be
        # mapped by readers); older generations are gone.
        assert generations == ["gen-000002", "gen-000003"]
        index.close()


class TestNoResyncOnWritePath:
    """Regression guard: a write — logged or not — must never rewrite
    the snapshot (the O(n) resync the delta replaces)."""

    @pytest.mark.parametrize("wal", [None, True, False])
    def test_insert_keeps_the_snapshot(self, tmp_path, monkeypatch, wal):
        directory = tmp_path / "snap"
        spec = IndexSpec(params=_params(), wal=wal)
        index = build(spec, _base_data(), storage_dir=str(directory))
        try:
            index.query(_base_data()[0], 3)
            saves = []
            import repro.core.persistence as persistence
            real_save = persistence.save_index
            monkeypatch.setattr(
                persistence, "save_index",
                lambda *a, **kw: saves.append(a) or real_save(*a, **kw))
            for vector in _extra(29, 8):
                index.insert(vector)
            index.delete(5)
            assert saves == []
            oracle = _oracle(np.vstack([_base_data(), _extra(29, 8)]), {5})
            _assert_parity(index, oracle, _base_data()[:3])
            oracle.close()
        finally:
            monkeypatch.undo()
            index.close()
