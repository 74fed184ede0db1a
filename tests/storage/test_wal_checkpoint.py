"""Undo chains, the folding checkpoint, and sbspace-tagged log records.

Rollback walks the transaction's own chain and recovery starts from the
checkpoint image, so neither pays for the log's history.  Physical
records carry the sbspace they belong to: handles are numbered per
space, and before the tag a rollback or a recovery of one space also
replayed the other spaces' records onto same-numbered objects.
"""

import json
import random

import pytest

from repro.faults import FaultInjected, FaultRegistry
from repro.hblade import register_hybrid_blade
from repro.server import DatabaseServer
from repro.storage import wal as wal_module
from repro.storage.sbspace import Sbspace
from repro.storage.wal import SPACE_KINDS, LogRecord, RecordKind, WriteAheadLog


def two_space_server():
    db = DatabaseServer()
    db.create_sbspace("s1")
    db.create_sbspace("s2")
    register_hybrid_blade(db)
    db.prefer_virtual_index = True
    db.execute("CREATE TABLE a (k INTEGER)")
    db.execute("CREATE TABLE b (k INTEGER)")
    db.execute("CREATE INDEX ia ON a(k) USING hblade_am IN s1")
    db.execute("CREATE INDEX ib ON b(k) USING hblade_am IN s2")
    for i in range(50):
        db.execute(f"INSERT INTO a VALUES ({i})")
    return db


def blobs(space):
    """Everything recovery rebuilds, in comparable form."""
    return {
        handle: (dict(blob._pages), blob.page_count, sorted(blob._free),
                 blob._next_id)
        for handle, blob in space._objects.items()
    }


class TestCrossSpace:
    def test_rollback_touches_only_each_space_own_records(self):
        db = two_space_server()
        session = db.create_session()
        for sql in ("BEGIN WORK", "INSERT INTO b VALUES (1000)",
                    "INSERT INTO a VALUES (1000)", "ROLLBACK WORK"):
            db.execute(sql, session)
        db.execute("CHECK INDEX ia")
        db.execute("CHECK INDEX ib")
        rows = db.execute("SELECT k FROM a WHERE k >= 0")
        assert sorted(row["k"] for row in rows) == list(range(50))

    def test_recovery_redoes_only_the_space_own_records(self):
        db = two_space_server()
        db.execute("INSERT INTO b VALUES (7)")
        live = {name: blobs(space) for name, space in db.sbspaces.items()}
        for space in db.sbspaces.values():
            db.wal.recover(space)
        db.storage_epoch += 1
        assert {n: blobs(s) for n, s in db.sbspaces.items()} == live
        db.execute("CHECK INDEX ia")
        db.execute("CHECK INDEX ib")

    def test_physical_records_carry_their_space(self):
        db = two_space_server()
        spaces = {r.space for r in db.wal.records()
                  if r.kind is RecordKind.PAGE_WRITE}
        assert spaces == {"s1", "s2"}

    def test_space_tag_round_trips_the_wire_form(self):
        record = LogRecord(lsn=3, txn_id=2, kind=RecordKind.PAGE_WRITE,
                           lo_handle="LO:1", page_id=0, before=b"a",
                           after=b"b", space="s2")
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["space"] == "s2"
        assert LogRecord.from_dict(payload) == record
        untagged = LogRecord(lsn=3, txn_id=2, kind=RecordKind.BEGIN)
        assert "space" not in untagged.to_dict()


class CountingList(list):
    """A record list that counts how many of its items are read."""

    visits = 0

    def __iter__(self):
        for item in list.__iter__(self):
            self.visits += 1
            yield item

    def __getitem__(self, index):
        item = list.__getitem__(self, index)
        self.visits += len(item) if isinstance(index, slice) else 1
        return item


class TestUndoChains:
    def test_one_row_rollback_visits_only_its_own_records(self):
        db = two_space_server()
        # 20k records of other, finished transactions on a blob of s2.
        db.wal.log_begin(10**6 - 1)
        db.wal.log_create_lo(10**6 - 1, "LO:x", "s2")
        db.wal.log_page_alloc(10**6 - 1, "LO:x", 0, "s2")
        db.wal.log_commit(10**6 - 1)
        for txn in range(10**6, 10**6 + 7000):
            db.wal.log_begin(txn)
            db.wal.log_page_write(txn, "LO:x", 0, b"a", b"b", "s2")
            db.wal.log_commit(txn)
        assert len(db.wal) > 20_000
        session = db.create_session()
        db.execute("BEGIN WORK", session)
        db.execute("INSERT INTO a VALUES (1000)", session)
        txn = session.transaction.txn_id
        counting = CountingList(db.wal._records)
        db.wal._records = counting
        db.execute("ROLLBACK WORK", session)
        own = [r for r in list.__iter__(counting) if r.txn_id == txn]
        assert counting.visits <= len(own)
        db.execute("CHECK INDEX ia")
        assert db.execute("SELECT k FROM a WHERE k = 1000") == []

    def test_chains_are_dropped_at_commit_abort_and_recovery(self):
        wal = WriteAheadLog()
        space = Sbspace("s", page_size=64, wal=wal)
        for txn, end in ((1, wal.log_commit), (2, wal.log_abort)):
            wal.log_begin(txn)
            space.set_transaction(txn)
            space.create().allocate_page()
            assert len(wal.undo_chain(txn, "s")) == 2
            if txn == 2:
                space.rollback(txn)
            end(txn)
            assert wal.undo_chain(txn, "s") == []
        wal.log_begin(3)
        space.set_transaction(3)
        space.create()
        wal.recover(space)
        assert wal.undo_chain(3, "s") == []
        assert wal._chains == {}

    def test_undo_chains_are_per_space(self):
        wal = WriteAheadLog()
        one = Sbspace("one", page_size=64, wal=wal)
        two = Sbspace("two", page_size=64, wal=wal)
        wal.log_begin(1)
        for space in (one, two):
            space.set_transaction(1)
            blob = space.create()
            blob.allocate_page()
        assert [r.space for r in wal.undo_chain(1, "one")] == ["one", "one"]
        assert [r.space for r in wal.undo_chain(1, "two")] == ["two", "two"]


def committed_page(space, wal, txn, blob, payload):
    wal.log_begin(txn)
    space.set_transaction(txn)
    page = blob.allocate_page()
    blob.write_page(page, payload)
    wal.log_commit(txn)
    space.set_transaction(None)
    return page


class TestCheckpoint:
    def test_fold_keeps_lsns_and_drops_page_images(self):
        wal = WriteAheadLog()
        space = Sbspace("s", page_size=64, wal=wal)
        wal.log_begin(1)
        space.set_transaction(1)
        blob = space.create()
        wal.log_commit(1)
        for txn in range(2, 12):
            committed_page(space, wal, txn, blob, bytes([txn]) * 8)
        length, kinds = len(wal), [r.kind for r in wal.records()]
        assert wal.checkpoint_stats()["retained_bytes"] == 10 * 2 * 64
        assert wal.checkpoint() == 21
        assert len(wal) == length
        assert wal.last_lsn() == length - 1
        records = list(wal.records())
        assert [r.kind for r in records] == kinds
        assert [r.lsn for r in records] == list(range(length))
        assert all(r.before is None and r.after is None for r in records)
        assert all(r.space == "s" for r in records
                   if r.kind is RecordKind.PAGE_WRITE)
        assert wal.checkpoint_stats()["retained_bytes"] == 0
        live = blobs(space)
        space._reset_for_recovery()
        assert wal.recover(space) == 0
        assert blobs(space) == live

    def test_fold_stops_at_the_oldest_active_transaction(self):
        wal = WriteAheadLog()
        space = Sbspace("s", page_size=64, wal=wal)
        wal.log_begin(1)
        space.set_transaction(1)
        blob = space.create()
        wal.log_commit(1)
        committed_page(space, wal, 2, blob, b"old")
        wal.log_begin(3)  # stays open across the checkpoint
        space.set_transaction(3)
        page = blob.allocate_page()
        blob.write_page(page, b"open")
        space.set_transaction(None)
        committed_page(space, wal, 4, blob, b"later")
        horizon = next(r.lsn for r in wal.records() if r.txn_id == 3)
        wal.checkpoint()
        assert wal.checkpoint_stats()["folded_lsn"] == horizon
        open_records = wal.undo_chain(3, "s")
        assert open_records[-1].after is not None
        # The open transaction still rolls back from its before-images.
        space.rollback(3)
        wal.log_abort(3)
        assert page not in blob._pages
        live = blobs(space)
        wal.recover(space)
        assert blobs(space) == live

    def test_next_checkpoint_finishes_an_interrupted_release(self):
        faults = FaultRegistry()
        wal = WriteAheadLog(faults=faults)
        space = Sbspace("s", page_size=64, wal=wal)
        wal.log_begin(1)
        space.set_transaction(1)
        blob = space.create()
        wal.log_commit(1)
        for txn in range(2, 7):
            committed_page(space, wal, txn, blob, bytes([txn]) * 8)
        faults.set_fault("wal.checkpoint.release", "raise", times=1)
        with pytest.raises(FaultInjected):
            wal.checkpoint()
        stats = wal.checkpoint_stats()
        # The images are installed, but the folded records still hold
        # their bytes, and retained_bytes still counts them.
        assert stats["folded_lsn"] == len(wal)
        assert stats["retained_bytes"] == 5 * 2 * 64
        committed_page(space, wal, 7, blob, b"tail")
        wal.checkpoint()
        assert wal.checkpoint_stats()["retained_bytes"] == 0
        assert all(r.before is None and r.after is None for r in wal.records())
        # Nothing left to fold still finishes a cut-short release.
        faults.set_fault("wal.checkpoint.release", "raise", times=1)
        committed_page(space, wal, 8, blob, b"more")
        with pytest.raises(FaultInjected):
            wal.checkpoint()
        assert wal.checkpoint() == 0
        assert wal.checkpoint_stats()["retained_bytes"] == 0

    def test_commits_checkpoint_once_enough_records_wait(self, monkeypatch):
        monkeypatch.setattr(wal_module, "CHECKPOINT_RECORDS", 40)
        db = two_space_server()
        stats = db.wal.checkpoint_stats()
        assert stats["checkpoints"] > 0
        assert len(db.wal) - stats["folded_lsn"] < 40 + 20
        live = {name: blobs(space) for name, space in db.sbspaces.items()}
        for space in db.sbspaces.values():
            db.wal.recover(space)
        db.storage_epoch += 1
        assert {n: blobs(s) for n, s in db.sbspaces.items()} == live
        db.execute("CHECK INDEX ia")


# ----------------------------------------------------------------------
# Property: recovery from the image == recovery from LSN 0
# ----------------------------------------------------------------------


def redo_from_lsn_zero(records, name, page_size):
    """The reference: a fresh space rebuilt by redoing, from LSN 0, every
    record of *name* whose transaction committed."""
    committed = {r.txn_id for r in records if r.kind is RecordKind.COMMIT}
    space = Sbspace(name, page_size=page_size)
    for r in records:
        if r.kind in SPACE_KINDS and r.space == name and r.txn_id in committed:
            space._redo(r)
    space._finish_recovery()
    return space


def random_history(seed, steps=400):
    """Interleaved transactions over two spaces sharing one log, with
    torn and corrupted page writes and checkpoints at random points.

    Returns the log, its spaces and every record as first appended."""
    rng = random.Random(seed)
    faults = FaultRegistry()
    faults.set_fault("sbspace.page_write", "torn", probability=0.15,
                     seed=seed, times=None)
    wal = WriteAheadLog()
    appended = []
    wal.add_listener(appended.append)
    spaces = [Sbspace(name, page_size=32, wal=wal, faults=faults)
              for name in ("one", "two")]
    free_blobs = {space.name: [] for space in spaces}
    open_txns = {}  # txn id -> blobs it holds (a stand-in for LO locks)
    next_txn = 1
    for _ in range(steps):
        if len(open_txns) < 3 and (not open_txns or rng.random() < 0.3):
            wal.log_begin(next_txn)
            open_txns[next_txn] = []
            next_txn += 1
            continue
        txn = rng.choice(sorted(open_txns))
        held = open_txns[txn]
        roll = rng.random()
        if roll < 0.1 or (roll < 0.15 and len(held) > 2):
            commit = rng.random() < 0.75
            if commit:
                if rng.random() < 0.3:
                    wal.checkpoint()
                wal.log_commit(txn)
            else:
                for space in spaces:
                    space.rollback(txn)
                wal.log_abort(txn)
            for space, blob in held:
                if blob.handle in space:
                    # A rolled-back drop leaves a fresh shell object.
                    free_blobs[space.name].append(space.get(blob.handle))
            del open_txns[txn]
            continue
        space = rng.choice(spaces)
        space.set_transaction(txn)
        pool = free_blobs[space.name]
        if not pool or rng.random() < 0.1:
            blob = space.create()
            held.append((space, blob))
        else:
            blob = pool.pop(rng.randrange(len(pool)))
            held.append((space, blob))
        action = rng.random()
        if action < 0.05:
            space.drop(blob.handle)
        elif action < 0.3 or not blob._pages:
            blob.allocate_page()
        elif action < 0.4 and len(blob._pages) > 1:
            blob.free_page(rng.choice(sorted(blob._pages)))
        else:
            page = rng.choice(sorted(blob._pages))
            blob.write_page(page, rng.randbytes(rng.randrange(1, 33)))
        space.set_transaction(None)
    return wal, spaces, appended


@pytest.mark.parametrize("seed", range(12))
def test_recovery_from_image_equals_recovery_from_lsn_zero(seed):
    wal, spaces, appended = random_history(seed)
    assert wal.checkpoint_stats()["checkpoints"] > 0
    assert any(r.kind is RecordKind.PAGE_WRITE and r.after is None
               for r in wal.records())
    assert [r.lsn for r in appended] == list(range(len(wal)))
    for space in spaces:
        wal.recover(space)
        twin = redo_from_lsn_zero(appended, space.name, space.page_size)
        assert blobs(space) == blobs(twin)
        assert next(space._sequence) == next(twin._sequence)
