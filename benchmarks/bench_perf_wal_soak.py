"""Perf WAL soak: rollback and recovery stay flat over a long uptime.

Section 5.3 of the paper leaves rollback and recovery of sbspace-resident
indexes to the server's log manager.  That log never truncates, so this
benchmark checks the two costs that must not grow with it: rollback walks
only the transaction's own undo chain, and recovery folds only the log
the checkpoint image lacks, then copies the image.

One engine runs a 200k-statement mixed soak over ``acct(k, bal)`` with an
``hblade_am`` index: point reads, balance updates, churn that deletes a
key and inserts it back (the table keeps its keys, so the index keeps
its size), and explicit transactions of which half roll back.  A *twin*
engine is built the same way and never runs the soak: it is the start
state.  At the end both are probed in alternation, so a slow spell of
the host hits both alike:

* a one-row rollback (``BEGIN``; ``INSERT``; timed ``ROLLBACK``) on the
  soaked engine is within 1.2x of the twin's;
* recovery (``WriteAheadLog.recover`` of the sbspace, then a cache
  epoch bump) on the soaked engine is within 1.5x of the twin's.  The
  first restart of each also folds the log's unfolded tail; it is
  reported, and the median of the restarts after it is gated;
* the page-image bytes the log retains, sampled through the soak, stay
  under what the unfolded records of one checkpoint interval can hold.

The result is appended to ``benchmarks/out/BENCH_wal_soak.json``.  Run::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_perf_wal_soak.py
"""

import os
import random
import resource
import statistics
import time

from repro.hblade import register_hybrid_blade
from repro.server import DatabaseServer
from repro.storage import wal as wal_module

STATEMENTS = 200_000
KEYS = 2_000
SEED = 13
PROBES = 101
RESTARTS = 9
ROLLBACK_BUDGET = 1.2
RECOVERY_BUDGET = 1.5
SAMPLE_EVERY = 1_000
#: Keys of the rollback probes; the soak's keys never reach them.
PROBE_BASE = 10**8


def build_engine(out_dir):
    db = DatabaseServer()
    db.create_sbspace("spc")
    register_hybrid_blade(db)
    db.execute("CREATE TABLE acct (k INTEGER, bal INTEGER)")
    db.execute("CREATE INDEX ai ON acct(k) USING hblade_am IN spc")
    db.prefer_virtual_index = True
    path = os.path.join(out_dir, f"wal-soak-{os.getpid()}.unl")
    with open(path, "w", encoding="utf-8") as handle:
        for k in range(KEYS):
            handle.write(f"{k}|{k % 1000}\n")
    try:
        db.execute(f"LOAD FROM '{path}' INSERT INTO acct")
    finally:
        os.unlink(path)
    return db


def soak(db, statements, retained):
    """Run the mix until *statements* statements ran; append the log's
    retained page-image bytes to *retained* every SAMPLE_EVERY.

    Churn deletes a key and inserts it back, so the table keeps the
    same keys and the index the same size: what the soak leaves behind
    is history, not data."""
    rng = random.Random(SEED)
    session = db.create_session()
    ran = 0

    def run(sql):
        nonlocal ran
        ran += 1
        if ran % SAMPLE_EVERY == 0:
            retained.append(db.wal.checkpoint_stats()["retained_bytes"])
        return db.execute(sql, session)

    def churn(key):
        run(f"DELETE FROM acct WHERE k = {key}")
        run(f"INSERT INTO acct VALUES ({key}, {rng.randrange(1000)})")

    while ran < statements:
        roll = rng.random()
        key = rng.randrange(KEYS)
        if roll < 0.6:
            rows = run(f"SELECT bal FROM acct WHERE k = {key}")
            assert len(rows) == 1, (key, rows)
        elif roll < 0.8:
            run(f"UPDATE acct SET bal = {rng.randrange(1000)} WHERE k = {key}")
        elif roll < 0.9:
            churn(key)
        else:
            run("BEGIN WORK")
            run(f"UPDATE acct SET bal = {rng.randrange(1000)} WHERE k = {key}")
            if rng.random() < 0.5:
                churn(rng.randrange(KEYS))
                run("COMMIT WORK")
            else:
                run(f"INSERT INTO acct VALUES ({PROBE_BASE - 1}, 0)")
                run("ROLLBACK WORK")
    return ran


def time_rollback(db, session, i):
    db.execute("BEGIN WORK", session)
    db.execute(f"INSERT INTO acct VALUES ({PROBE_BASE + i}, 0)", session)
    start = time.perf_counter()
    db.execute("ROLLBACK WORK", session)
    return time.perf_counter() - start


def time_recovery(db):
    space = db.get_sbspace("spc")
    start = time.perf_counter()
    db.wal.recover(space)
    space.set_transaction(None)
    db.storage_epoch += 1
    return time.perf_counter() - start


def alternate(engines, measure, rounds):
    """Median of *rounds* runs of ``measure(engine, i)`` per engine, the
    engines taking turns (and turns at going first)."""
    samples = [[] for _ in engines]
    for i in range(rounds):
        order = range(len(engines)) if i % 2 == 0 else reversed(range(len(engines)))
        for e in order:
            samples[e].append(measure(engines[e], i))
    return [statistics.median(s) for s in samples]


def test_rollback_and_recovery_stay_flat_over_a_long_soak(
    append_bench, artifact_dir
):
    main, twin = build_engine(artifact_dir), build_engine(artifact_dir)
    sessions = {id(main): main.create_session(), id(twin): twin.create_session()}

    def rollback(db, i):
        return time_rollback(db, sessions[id(db)], i)

    start_rollback = alternate([main], rollback, PROBES)[0]
    wal_start = len(main.wal)
    retained = []
    started = time.perf_counter()
    ran = soak(main, STATEMENTS, retained)
    soak_s = time.perf_counter() - started
    main_rollback, twin_rollback = alternate(
        [main, twin], lambda db, i: rollback(db, PROBES + i), PROBES
    )
    # The first restart also folds the log's unfolded tail (at most one
    # checkpoint interval); the gated median is of the restarts after it.
    main_first, twin_first = time_recovery(main), time_recovery(twin)
    main_recover, twin_recover = alternate(
        [main, twin], lambda db, i: time_recovery(db), RESTARTS
    )
    # Recovery rebuilt the same index the soak left behind.
    main.execute("CHECK INDEX ai")
    page_size = main.get_sbspace("spc").page_size
    # One interval of unfolded records plus the committing transaction's
    # own, each holding a before- and an after-image.
    bound = (wal_module.CHECKPOINT_RECORDS + 512) * 2 * page_size
    stats = main.wal.checkpoint_stats()
    payload = {
        "statements": ran,
        "soak_s": soak_s,
        "wal_records_start": wal_start,
        "wal_records_end": len(main.wal),
        "checkpoints": stats["checkpoints"],
        "rollback_start_ms": start_rollback * 1e3,
        "rollback_end_ms": main_rollback * 1e3,
        "rollback_twin_ms": twin_rollback * 1e3,
        "rollback_ratio": main_rollback / twin_rollback,
        "recover_first_end_s": main_first,
        "recover_first_twin_s": twin_first,
        "recover_end_s": main_recover,
        "recover_twin_s": twin_recover,
        "recover_ratio": main_recover / twin_recover,
        "retained_bytes_max": max(retained, default=0),
        "retained_bytes_end": stats["retained_bytes"],
        "retained_bytes_bound": bound,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "budgets": {"rollback": ROLLBACK_BUDGET, "recover": RECOVERY_BUDGET},
    }
    append_bench("BENCH_wal_soak.json", payload)
    assert payload["rollback_ratio"] <= ROLLBACK_BUDGET, payload
    assert payload["recover_ratio"] <= RECOVERY_BUDGET, payload
    assert payload["retained_bytes_max"] <= bound, payload
