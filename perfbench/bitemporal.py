"""``bitemporal``: the paper's workload, in-process, one session.

A now-relative relation ``emp(id, te)`` with a GR-tree on ``te`` and a
B+-tree on ``id``, preloaded from a seeded :class:`BitemporalWorkload`,
then driven by the same generator while its simulated clock advances:
now-relative and fixed inserts, logical deletions (an UPDATE that
freezes the extent), window ``Overlaps`` queries and a small share of
current-timeslice queries.  The GR-tree is built larger than its
per-index node cache and buffer pool, so searches miss both.
"""

from __future__ import annotations

import random
import time
from typing import Dict

from repro.bblade import register_btree_blade
from repro.datablade import register_grtree_blade
from repro.server import DatabaseServer
from repro.temporal.chronon import Clock
from repro.temporal.extent import TimeExtent
from repro.temporal.variables import NOW, UC
from repro.workloads import BitemporalWorkload, WorkloadConfig

from common import (
    OTHER, READ, SBSPACE, SCAN, WRITE, Failed, InProcess, Recorder,
    crash_restart, engine_counters, peak_rss_mb, sbspace_bytes,
)

#: Rows loaded before timing: ~50 GR-tree nodes at 2 KiB pages.
PRELOAD_ROWS = 1500
#: Per-index caches the tree must outgrow.  Smaller than the server
#: defaults (128 nodes, 64 pages) so a preload that takes seconds, not
#: tens of seconds, is already several times larger than both.
NODE_CACHE = 16
BUFFER_PAGES = 8
#: Shares of the timed mix; the rest are generator steps (80% insert,
#: 10% logical deletion, 10% modification = deletion + insert).  A
#: window costs ~10 writes, so 25% windows still spend most of the time
#: reading while leaving enough writes for a steady tail.
TIMESLICE_SHARE = 0.03
WINDOW_SHARE = 0.25
#: Window queries visit the cells below the diagonal of a GRID x GRID
#: grid over the preloaded history's (transaction time, valid time)
#: plane, in a seeded order, one jittered 10 x 10 window per cell.
#: Below the diagonal (valid time before transaction time) a window
#: overlaps the now-relative rows recorded between the two, so its cost
#: grows smoothly with the distance to the diagonal; above it a window
#: meets only a few fixed rows.  Mixing both halves put the median in
#: the gap between a ~3 ms and a ~30 ms mode, where it flipped from run
#: to run.  The grid spans the preload's time range, not the advancing
#: clock, so later inserts (all recorded after it) never change a
#: window's answer and the reads cost the same however far a run gets.
GRID = 8
WINDOW_SPAN = 10
#: The benchmark, not the generator, advances the simulated clock: one
#: chronon after every STEPS_PER_CHRONON generator steps (the
#: generator's default is the same rate, drawn at random).  A drawn
#: rate left the preload's density of rows per chronon, and with it the
#: rows every window returns, varying by 10% between seeds.
STEPS_PER_CHRONON = 5
#: Every n-th query is checked against the generator's oracle.
CHECK_EVERY = 10


class _SqlSink:
    """Turns the generator's ``insert``/``delete`` calls into SQL.  A
    delete is always followed by the insert of the same row's frozen
    extent: together they are one logical-deletion UPDATE."""

    def __init__(self, run) -> None:
        self.run = run
        self.pending = None

    def insert(self, extent, rowid: int) -> None:
        if self.pending == rowid:
            self.pending = None
            self.run(
                WRITE,
                f"UPDATE emp SET te = '{extent.to_text()}' WHERE id = {rowid}",
            )
        else:
            self.run(
                WRITE, f"INSERT INTO emp VALUES ({rowid}, '{extent.to_text()}')"
            )

    def delete(self, extent, rowid: int) -> None:
        self.pending = rowid


class Bitemporal(InProcess):
    name = "bitemporal"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.db = None

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        clock = Clock(now=0)
        db = DatabaseServer(clock=clock)
        db.create_sbspace(SBSPACE)
        register_grtree_blade(db)
        register_btree_blade(db)
        session = db.create_session()
        execute = lambda sql: db.execute(sql, session)  # noqa: E731
        execute("CREATE TABLE emp (id INTEGER, te GRT_TimeExtent_t)")
        execute(
            f"CREATE INDEX gi ON emp(te) USING grtree_am IN {SBSPACE} "
            f"WITH (node_cache = {NODE_CACHE}, buffer_capacity = {BUFFER_PAGES})"
        )
        execute(f"CREATE INDEX bi ON emp(id) USING btree_am IN {SBSPACE}")
        db.prefer_virtual_index = True
        workload = BitemporalWorkload(clock, WorkloadConfig(
            seed=self.seed, clock_advance_probability=0.0
        ))
        sink = _SqlSink(lambda cls, sql: execute(sql))
        for _ in range(PRELOAD_ROWS // STEPS_PER_CHRONON):
            workload.populate(sink, STEPS_PER_CHRONON)
            clock.advance(1)
        self.horizon = clock.now
        self.steps = 0
        self.db, self.session, self.execute = db, session, execute
        self.clock, self.workload = clock, workload
        self.rng = random.Random(self.seed * 7919 + 1)
        self.queries = 0
        self.cells = []
        self.probes: Dict[int, bool] = {}

    # -- the timed mix ----------------------------------------------------

    def _query(self, rec: Recorder, cls: str, query, always_check=False):
        sql = f"SELECT id FROM emp WHERE Overlaps(te, '{query.to_text()}')"
        rows = rec.run(cls, self.execute, sql)
        self.queries += 1
        if always_check or self.queries % CHECK_EVERY == 0:
            start = time.perf_counter()
            expected = self.workload.oracle_overlapping(query)
            got = sorted(row["id"] for row in rows)
            rec.expect(got == expected, f"{sql}: {len(got)} rows, "
                                        f"oracle has {len(expected)}")
            rec.check_s += time.perf_counter() - start

    def _window(self):
        if not self.cells:
            self.cells = [(i, j) for i in range(GRID) for j in range(i)]
            self.rng.shuffle(self.cells)
        i, j = self.cells.pop()
        cell = self.horizon / GRID
        tt = int((i + self.rng.random()) * cell)
        vt = int((j + self.rng.random()) * cell)
        return TimeExtent(tt, tt + WINDOW_SPAN, vt, vt + WINDOW_SPAN)

    def step(self, rec: Recorder) -> None:
        roll = self.rng.random()
        if roll < TIMESLICE_SHARE:
            self._query(rec, SCAN, self.workload.current_timeslice_query())
        elif roll < TIMESLICE_SHARE + WINDOW_SHARE:
            self._query(rec, READ, self._window())
        else:
            self.workload.step(
                _SqlSink(lambda cls, sql: rec.run(cls, self.execute, sql))
            )
            self.steps += 1
            if self.steps % STEPS_PER_CHRONON == 0:
                self.clock.advance(1)

    def probe_target(self):
        """This engine's probe statements: one-row inserts with negative
        ids, which the generator never uses, current at its clock."""
        execute, clock = self.execute, self.clock

        def insert_sql(i: int) -> str:
            now = clock.now
            extent = TimeExtent(now, UC, now, NOW).to_text()
            return f"INSERT INTO emp VALUES (-{i + 1}, '{extent}')"

        return execute, insert_sql

    def probed(self, outcome: Dict[int, bool]) -> None:
        """Committed probe rows join the oracle."""
        now = self.clock.now
        for i, committed in outcome.items():
            if committed:
                self.workload.history[-(i + 1)] = TimeExtent(now, UC, now, NOW)
        self.probes = outcome

    # -- verification -----------------------------------------------------

    def _verify(self, rec: Recorder, when: str) -> None:
        for _ in range(3):
            self._query(rec, OTHER, self._window(), True)
        self._query(rec, OTHER, self.workload.current_timeslice_query(), True)
        for i, committed in self.probes.items():
            rows = rec.run(
                OTHER, self.execute, f"SELECT id FROM emp WHERE id = -{i + 1}"
            )
            expected = [{"id": -(i + 1)}] if committed else []
            rec.expect(rows == expected, f"{when}: probe {-(i + 1)} read "
                                         f"{rows}, expected {expected}")
        for index in ("gi", "bi"):
            try:
                rec.run(OTHER, self.execute, f"CHECK INDEX {index}")
            except Failed:
                pass

    def finish(self, rec: Recorder) -> Dict[str, float]:
        stats = self.execute("UPDATE STATISTICS FOR INDEX gi")
        nodes = stats["nodes"]
        properties = {
            "grtree_nodes": nodes,
            "grtree_node_cache": NODE_CACHE,
            "grtree_buffer_pages": BUFFER_PAGES,
            "rows": len(self.workload.history),
        }
        rec.expect(
            nodes > NODE_CACHE and nodes > BUFFER_PAGES,
            f"GR-tree has {nodes} nodes, not more than its node cache "
            f"({NODE_CACHE}) and buffer pool ({BUFFER_PAGES} pages)",
        )
        self._verify(rec, "before restart")
        end = crash_restart(self.db, self.twin_db)
        self._verify(rec, "after restart")
        end.update(engine_counters(self.db))
        end["peak_rss_mb"] = peak_rss_mb()
        end["index_bytes_per_row"] = sbspace_bytes(self.db) / len(
            self.workload.history
        )
        end["properties"] = properties
        return end
