"""The crash matrix: every storage failpoint, several trigger depths.

For each registered storage-layer failpoint the matrix arms a one-shot
``crash``, drives the same deterministic workload until the crash fires,
recovers, and asserts the full contract: zero lost committed
transactions, zero resurrected uncommitted ones, and a structurally
valid recovered tree.

A completeness guard keeps the matrix honest: adding a failpoint to the
catalog without routing it through here (or the explicit exclusion list)
fails the suite.
"""

import pytest

from repro.faults import CATALOG
from repro.storage import wal as wal_module
from tests.faults.harness import (
    COMMITTED,
    CRASHED,
    CrashHarness,
    HybridCrashHarness,
    hybrid_random_workload,
    random_workload,
)

#: Failpoints the sbspace-backed commit path traverses.
STORAGE_POINTS = [
    "wal.append",
    "wal.fsync",
    "sbspace.page_read",
    "sbspace.page_write",
    "sbspace.open",
    "buffer.flush",
    "lock.acquire",
]

#: Failpoints only the hybrid hash + B+-tree AM traverses: the window
#: before the hash-directory half of a mutation and the window between
#: the hash and tree halves (the classic "one structure updated, the
#: other not yet" torn state).
HYBRID_POINTS = [
    "hblade.hash_write",
    "hblade.tree_write",
]

#: The checkpoint's three windows: before the new sbspace images are
#: built, before they replace the old ones, and while folded records
#: drop their page images.  A commit checkpoints before its COMMIT
#: record, so a crash in any window is a crash before that commit.
CHECKPOINT_POINTS = [
    "wal.checkpoint.fold",
    "wal.checkpoint.install",
    "wal.checkpoint.release",
]

#: Failpoints a sbspace-backed embedded engine never traverses: the
#: OS-file store is exercised by tests/storage/test_wal_idempotency.py
#: (checksummed reads are the *developer's* recovery story, Section 6),
#: the net points by tests/net/test_fault_injection.py, and the
#: replication points by tests/faults/test_replica_crash.py.
EXCLUDED = [
    "osfile.read",
    "osfile.write",
    "net.send",
    "net.recv",
    "repl.send",
    "repl.apply",
]


def test_matrix_covers_the_whole_catalog():
    assert sorted(
        STORAGE_POINTS + HYBRID_POINTS + CHECKPOINT_POINTS + EXCLUDED
    ) == sorted(CATALOG)


@pytest.mark.parametrize("hit", [1, 2, 5, 13])
@pytest.mark.parametrize("point", STORAGE_POINTS)
def test_crash_recover_verify(point, hit):
    harness = CrashHarness()
    # Committed work laid down before the failpoint is armed: recovery
    # must preserve it whatever happens later.
    harness.run_batch([f"pre{i}" for i in range(6)])
    harness.arm(point, "crash", hit=hit, times=1)
    outcomes = random_workload(harness, seed=hit * 31 + len(point), steps=60)
    assert outcomes[-1] == CRASHED, (
        f"failpoint {point} (hit={hit}) never fired in "
        f"{len(outcomes)} workload steps"
    )
    assert harness.crashed == point
    harness.recover()
    harness.verify()


@pytest.mark.parametrize("hit", [1, 2, 7])
@pytest.mark.parametrize("point", HYBRID_POINTS)
def test_hybrid_crash_between_structure_writes(point, hit):
    """Crash between the hash-directory and tree writes; recovery heals.

    The mutation's transaction never committed, so after WAL replay
    neither structure may show it -- checked through the tree-side
    range scan, hash-side point probes, CHECK INDEX, and the direct
    hash/tree agreement verifier.
    """
    harness = HybridCrashHarness()
    harness.run_batch([f"pre{i}" for i in range(6)])
    harness.arm(point, "crash", hit=hit, times=1)
    outcomes = hybrid_random_workload(
        harness, seed=hit * 53 + len(point), steps=80
    )
    assert outcomes[-1] == CRASHED, (
        f"failpoint {point} (hit={hit}) never fired in "
        f"{len(outcomes)} workload steps"
    )
    assert harness.crashed == point
    harness.recover()
    harness.verify()


@pytest.mark.parametrize("point", HYBRID_POINTS)
def test_hybrid_raise_rolls_back_both_structures(point):
    """A non-crash failure at either write path rolls back cleanly:
    the statement fails, both structures stay agreed, and the engine
    keeps taking work with no recovery step at all."""
    harness = HybridCrashHarness()
    harness.run_batch([f"pre{i}" for i in range(4)])
    harness.arm(point, "raise", times=1)
    assert harness.autocommit_insert("doomed") == "failed"
    harness.verify()
    assert harness.autocommit_insert("after") == "committed"
    harness.verify()


def test_hybrid_repeated_crashes():
    """Crash at the hash half, recover, crash at the tree half deeper:
    recovery output must itself be a valid recovery input."""
    harness = HybridCrashHarness()
    for round_number, (point, hit) in enumerate(
        (("hblade.hash_write", 3), ("hblade.tree_write", 11))
    ):
        harness.arm(point, "crash", hit=hit, times=1)
        outcomes = hybrid_random_workload(
            harness, seed=200 + round_number, steps=80
        )
        assert outcomes[-1] == CRASHED
        harness.recover()
        harness.verify()
    assert harness.run_batch(["final0", "final1"]) == "committed"
    harness.verify()


@pytest.mark.parametrize("point", ["sbspace.page_write", "wal.append"])
def test_repeated_crashes_at_the_same_point(point):
    """Crash, recover, crash again deeper: recovery output must itself
    be a valid recovery input."""
    harness = CrashHarness()
    for round_number, hit in enumerate((3, 17)):
        harness.arm(point, "crash", hit=hit, times=1)
        outcomes = random_workload(
            harness, seed=100 + round_number, steps=60
        )
        assert outcomes[-1] == CRASHED
        harness.recover()
        harness.verify()
    # After the final recovery, the engine still takes commits.
    assert harness.run_batch(["final0", "final1"]) == "committed"
    harness.verify()


#: Records below the horizon that make a commit checkpoint in the
#: checkpoint crash cases: small, so a short workload folds often.
SMALL_CHECKPOINT = 24


@pytest.mark.parametrize("hit", [1, 2, 5])
@pytest.mark.parametrize("point", CHECKPOINT_POINTS)
def test_crash_mid_checkpoint_heals_to_committed_prefix(
    point, hit, monkeypatch
):
    """Crash while a commit folds the log; recovery starts from the
    image installed last and lands on the committed prefix, and the
    recovered engine goes on checkpointing and recovering."""
    monkeypatch.setattr(wal_module, "CHECKPOINT_RECORDS", SMALL_CHECKPOINT)
    harness = CrashHarness()
    harness.run_batch([f"pre{i}" for i in range(6)])
    harness.arm(point, "crash", hit=hit, times=1)
    outcomes = random_workload(harness, seed=hit * 17 + len(point), steps=60)
    assert outcomes[-1] == CRASHED, (
        f"failpoint {point} (hit={hit}) never fired in "
        f"{len(outcomes)} workload steps"
    )
    assert harness.crashed == point
    harness.recover()
    harness.verify()
    assert_folded_records_released(harness.server.wal)
    for i in range(8):
        assert harness.run_batch([f"post{i}.0", f"post{i}.1"]) == COMMITTED
    assert harness.server.wal.checkpoint_stats()["checkpoints"] > 0
    harness.recover()
    harness.verify()
    assert_folded_records_released(harness.server.wal)


def assert_folded_records_released(wal):
    """No folded record keeps its page images, and the retained bytes
    are those of the unfolded records alone: a crash in the release
    window leaves nothing behind once the next checkpoint ran."""
    stats = wal.checkpoint_stats()
    records = list(wal.records())
    folded = records[:stats["folded_lsn"]]
    assert all(r.before is None and r.after is None for r in folded)
    assert stats["retained_bytes"] == sum(
        len(r.before or b"") + len(r.after or b"")
        for r in records[stats["folded_lsn"]:]
    )


@pytest.mark.parametrize("point", CHECKPOINT_POINTS)
def test_hybrid_crash_mid_checkpoint(point, monkeypatch):
    """The same windows over the hybrid AM's two blobs per index."""
    monkeypatch.setattr(wal_module, "CHECKPOINT_RECORDS", SMALL_CHECKPOINT)
    harness = HybridCrashHarness()
    harness.run_batch([f"pre{i}" for i in range(6)])
    harness.arm(point, "crash", hit=2, times=1)
    outcomes = hybrid_random_workload(harness, seed=71 + len(point), steps=80)
    assert outcomes[-1] == CRASHED
    assert harness.crashed == point
    harness.recover()
    harness.verify()
    assert_folded_records_released(harness.server.wal)
