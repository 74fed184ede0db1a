"""``txn_soak``: a long run of small explicit transactions, in-process.

``acct(k, bal)`` with an ``hblade_am`` index on ``k``.  Each
transaction updates one balance, inserts one new account, reads one
account and commits; every 10th rolls back instead, and every 5th is
followed by an autocommit range read.  The run ends with the
crash-restart sequence of ``tests/faults/harness.py``.

The engine's heap tables are not transactional (only sbspace pages
are logged and rolled back), so a rolled-back UPDATE keeps its new
balance while a rolled-back INSERT's key vanishes from the index.  The
model follows that rule, and the run reports how many rolled-back heap
writes stayed visible (``heap_writes_surviving_rollback``).
"""

from __future__ import annotations

import random
import time
from typing import Dict

from repro.hblade import register_hybrid_blade
from repro.server import DatabaseServer

from common import (
    COMMIT, OTHER, READ, ROLLBACK, SBSPACE, SCAN, WRITE, Failed, InProcess,
    Recorder, crash_restart, engine_counters, load_table, peak_rss_mb,
    sbspace_bytes,
)

#: Preloaded accounts.  At SIZES_AT_TRANSACTION the table holds
#: 4,800-5,000 keys, between the hash directory's doublings at 4,096
#: and 8,192 keys (16 keys per bucket).
ACCOUNTS = 3000
#: The seed adds up to this many accounts to the preload, so that the
#: sizes read at SIZES_AT_TRANSACTION differ between seeds as the
#: other inputs do (with a fixed preload they came out identical).
ACCOUNTS_JITTER = 200
#: Keys of the transaction probes; the mix's fresh keys never reach it.
PROBE_BASE = 10**8
ROLLBACK_EVERY = 10
SCAN_EVERY = 5
SCAN_WIDTH = 20
#: The workload exists to show cost growing with history; fewer
#: transactions than this cannot show it (or fill rollback deciles).
MIN_TRANSACTIONS = 2000
#: ``index_bytes_per_row`` and ``peak_rss_mb`` are read when this many
#: transactions have run, not at the end.  How many a run makes follows
#: the host's speed, and with it the rows sharing the hash directory's
#: fixed pages (sbspace bytes per row fall from ~300 to ~170 between
#: 8,192 and 16,384 keys, then jump at the doubling: spread 0.24 over
#: ten runs) and the WAL held in memory (spread 0.11).
SIZES_AT_TRANSACTION = 2000


class TxnSoak(InProcess):
    name = "txn_soak"

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        db = DatabaseServer()
        db.create_sbspace(SBSPACE)
        register_hybrid_blade(db)
        session = db.create_session()
        execute = lambda sql: db.execute(sql, session)  # noqa: E731
        execute("CREATE TABLE acct (k INTEGER, bal INTEGER)")
        execute(f"CREATE INDEX ai ON acct(k) USING hblade_am IN {SBSPACE}")
        db.prefer_virtual_index = True
        rng = random.Random(self.seed)
        #: What a read through the index must return: key -> balance.
        accounts = ACCOUNTS + rng.randrange(ACCOUNTS_JITTER)
        self.model = {k: rng.randrange(1000) for k in range(accounts)}
        load_table(execute, "acct", sorted(self.model.items()), self.out_dir)
        self.db, self.session, self.execute = db, session, execute
        self.rng = random.Random(self.seed * 7919 + 3)
        self.next_key = accounts
        self.keys = list(self.model)
        self.committed_bal = dict(self.model)
        self.rolled_back_keys = set()
        self.transactions = 0
        #: Filled at SIZES_AT_TRANSACTION; a run that never gets there
        #: fails on MIN_TRANSACTIONS and reports the end's sizes.
        self.sizes = {}
        self.wal_start = len(db.wal)

    def _check_scan(self, rec: Recorder, rows, low: int, high: int) -> None:
        start = time.perf_counter()
        expected = sorted(
            (k, bal) for k, bal in self.model.items() if low <= k <= high
        )
        got = sorted((row["k"], row["bal"]) for row in rows)
        rec.expect(got == expected, f"range [{low}, {high}] read {len(got)} "
                                    f"rows, model has {len(expected)}")
        rec.check_s += time.perf_counter() - start

    def step(self, rec: Recorder) -> None:
        rng, run, execute = self.rng, rec.run, self.execute
        self.transactions += 1
        rollback = self.transactions % ROLLBACK_EVERY == 0
        account = rng.choice(self.keys)
        balance = rng.randrange(1000)
        key = self.next_key
        self.next_key += 1
        run(OTHER, execute, "BEGIN WORK")
        try:
            run(WRITE, execute,
                f"UPDATE acct SET bal = {balance} WHERE k = {account}")
            self.model[account] = balance  # heap writes are not undone
            run(WRITE, execute, f"INSERT INTO acct VALUES ({key}, {balance})")
            probe = account if rng.random() < 0.5 else rng.choice(self.keys)
            rows = run(READ, execute, f"SELECT bal FROM acct WHERE k = {probe}")
            expected = [{"bal": self.model[probe]}] if probe in self.model else []
            rec.expect(rows == expected, f"k={probe} read {rows}, model "
                                         f"{expected}")
        except Failed:
            rollback = True
        if rollback:
            run(ROLLBACK, execute, "ROLLBACK WORK")
            self.rolled_back_keys.add(key)
        else:
            run(COMMIT, execute, "COMMIT WORK")
            self.model[key] = balance
            self.keys.append(key)
            self.committed_bal[key] = balance
            self.committed_bal[account] = balance
        if self.transactions == SIZES_AT_TRANSACTION:
            start = time.perf_counter()
            self.sizes = {
                "index_bytes_per_row": sbspace_bytes(self.db) / len(self.model),
                "peak_rss_mb": peak_rss_mb(),
            }
            rec.check_s += time.perf_counter() - start
        if self.transactions % SCAN_EVERY == 0:
            low = rng.randrange(self.next_key)
            high = low + SCAN_WIDTH - 1
            rows = run(SCAN, execute,
                       f"SELECT k, bal FROM acct WHERE k >= {low} AND k <= {high}")
            self._check_scan(rec, rows, low, high)

    def probe_target(self):
        execute = self.execute
        return execute, lambda i: f"INSERT INTO acct VALUES ({PROBE_BASE + i}, 0)"

    def probed(self, outcome: Dict[int, bool]) -> None:
        for i, committed in outcome.items():
            if committed:
                self.model[PROBE_BASE + i] = self.committed_bal[PROBE_BASE + i] = 0
            else:
                self.rolled_back_keys.add(PROBE_BASE + i)

    def _verify(self, rec: Recorder, when: str) -> None:
        rows = rec.run(OTHER, self.execute, "SELECT k, bal FROM acct WHERE k >= 0")
        got = {row["k"]: row["bal"] for row in rows}
        rec.expect(got == self.model, f"{when}: index range read "
                                      f"{len(got)} rows, model {len(self.model)}")
        sample = random.Random(self.seed).sample(
            sorted(self.model), min(100, len(self.model))
        ) + sorted(self.rolled_back_keys)[:100]
        for key in sample:
            rows = rec.run(OTHER, self.execute,
                           f"SELECT bal FROM acct WHERE k = {key}")
            expected = [{"bal": self.model[key]}] if key in self.model else []
            rec.expect(rows == expected, f"{when}: k={key} read {rows}, "
                                         f"model {expected}")
        try:
            rec.run(OTHER, self.execute, "CHECK INDEX ai")
        except Failed:
            pass

    def finish(self, rec: Recorder) -> Dict[str, float]:
        rollbacks = self.transactions // ROLLBACK_EVERY
        rec.expect(
            self.transactions >= MIN_TRANSACTIONS,
            f"only {self.transactions} transactions ran "
            f"(at least {MIN_TRANSACTIONS} needed)",
        )
        properties = {
            "transactions": self.transactions,
            "rollbacks": rollbacks,
            "wal_len_start": self.wal_start,
            "wal_len_end": len(self.db.wal),
            "heap_writes_surviving_rollback": sum(
                1 for k, bal in self.committed_bal.items()
                if self.model.get(k) != bal
            ),
            "rows": len(self.model),
        }
        self._verify(rec, "before restart")
        end = crash_restart(self.db, self.twin_db)
        self._verify(rec, "after restart")
        end.update(engine_counters(self.db))
        end["peak_rss_mb"] = peak_rss_mb()
        end["index_bytes_per_row"] = sbspace_bytes(self.db) / len(self.model)
        properties["peak_rss_mb_end"] = end["peak_rss_mb"]
        end.update(self.sizes)
        end["properties"] = properties
        return end
