"""Pieces every workload shares: latency recording, the transaction
probes, the crash-restart sequence and engine-side measurements."""

from __future__ import annotations

import gc
import os
import resource
import time
from typing import Callable, Dict, List, Optional, Tuple

from layers import install_engine
from tracer import aggregate

#: Latency classes; each end-to-end latency metric reads one of them.
READ, WRITE, SCAN, COMMIT, ROLLBACK, OTHER = (
    "read", "write", "scan", "commit", "rollback", "other",
)

#: The one sbspace every workload's indexes live in.
SBSPACE = "spc"

#: Transaction probes per engine after the timed phase (README.md).
PROBES = 240


class Failed(Exception):
    """The engine refused a statement (already counted as failed)."""


class Recorder:
    """Latency samples per class, plus attempted/failed accounting.

    ``mode`` is "plain" or "traced"; samples land in the current mode's
    bucket so a traced run can compare the two.  Time spent checking
    answers is accumulated in ``check_s`` and kept out of throughput.
    """

    def __init__(self) -> None:
        self.mode = "plain"
        self.samples: Dict[str, Dict[str, List[float]]] = {
            "plain": {}, "traced": {},
        }
        self.statements = {"plain": 0, "traced": 0}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.check_s = 0.0

    def run(self, cls: str, execute: Callable[[str], object], sql: str):
        """Execute one statement, timing it into *cls*; raises
        :class:`Failed` (already counted) when the engine refuses it."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = execute(sql)
        except Exception as exc:
            self.fail(f"{sql[:80]!r} raised {type(exc).__name__}: {exc}")
            raise Failed(str(exc)) from exc
        elapsed = time.perf_counter() - start
        self.samples[self.mode].setdefault(cls, []).append(elapsed)
        self.statements[self.mode] += 1
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def expect(self, ok: bool, message: str) -> None:
        """A wrong answer counts as a failed operation."""
        if not ok:
            self.fail(message)

    def merge(self, other: "Recorder") -> None:
        for mode, classes in other.samples.items():
            for cls, values in classes.items():
                self.samples[mode].setdefault(cls, []).extend(values)
            self.statements[mode] += other.statements[mode]
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: 20 - len(self.failures)])
        self.check_s += other.check_s

    def plain(self, cls: str) -> List[float]:
        return self.samples["plain"].get(cls, [])


def probe_pairs(main, twin, count: int = PROBES) -> Dict[int, bool]:
    """*count* one-row transactions on each of two engines, committed
    and rolled back in turn, alternating between the run's engine
    (*main*) and its twin: an identical engine set up just before it
    that never ran the timed phase.  Interleaving makes both share
    every slowdown of the host, so their ratio isolates what the timed
    phase's history costs.  *main* and *twin* are ``(recorder, execute,
    insert_sql)`` with ``insert_sql(i)`` the i-th probe's INSERT.
    Returns i -> committed."""
    outcome = {}
    for i in range(count):
        commit = i % 2 == 0
        for rec, execute, insert_sql in (
            (main, twin) if (i // 2) % 2 == 0 else (twin, main)
        ):
            rec.run(OTHER, execute, "BEGIN WORK")
            rec.run(WRITE, execute, insert_sql(i))
            if commit:
                rec.run(COMMIT, execute, "COMMIT WORK")
            else:
                rec.run(ROLLBACK, execute, "ROLLBACK WORK")
        outcome[i] = commit
    return outcome


def load_table(execute, table: str, rows, out_dir: str) -> None:
    """Bulk-load *rows* (tuples) into *table* through ``LOAD``."""
    path = os.path.join(out_dir, f"load-{os.getpid()}-{table}.unl")
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write("|".join(str(field) for field in row) + "\n")
    try:
        execute(f"LOAD FROM '{path}' INSERT INTO {table}")
    finally:
        os.unlink(path)


def _restart(db) -> Tuple[float, int]:
    space = db.get_sbspace(SBSPACE)
    start = time.perf_counter()
    for txn_id in db.wal.active_transactions():
        db.locks.release_all(txn_id)
    replayed = db.wal.recover(space)
    space.set_transaction(None)
    db.storage_epoch += 1
    return time.perf_counter() - start, replayed


def crash_restart(db, twin, min_times: int = 5, min_s: float = 2.0
                  ) -> Dict[str, float]:
    """The restart a crash forces (``tests/faults/harness.py``): locks of
    transactions open at the crash vanish, the sbspace is rebuilt by
    replaying the WAL, and cached index handles are invalidated.

    Replay rebuilds the same state every time, so the run's engine and
    its twin are restarted alternately until each has restarted
    *min_times* times and both together *min_s* seconds; the medians
    and the WAL records the twin lacks (the timed phase's history) are
    returned."""
    mine, twins = [], []
    while len(mine) < min_times or sum(mine) + sum(twins) < min_s:
        elapsed, replayed = _restart(db)
        mine.append(elapsed)
        twins.append(_restart(twin)[0])
    return {
        "recover_main_s": sorted(mine)[len(mine) // 2],
        "recover_twin_s": sorted(twins)[len(twins) // 2],
        "recover_records": replayed,
        "history": len(db.wal) - len(twin.wal),
    }


def sbspace_bytes(db) -> int:
    """Bytes held by every large object in every sbspace.  The sbspace
    exposes no per-object listing, so this reads its object table."""
    return sum(
        blob.page_count * space.page_size
        for space in db.sbspaces.values()
        for blob in space._objects.values()
    )


def engine_counters(db) -> Dict[str, float]:
    """Engine counters the per-layer metrics difference across traced
    slices.  Read while no tracer is installed."""
    snap = db.obs.metrics.snapshot()
    buffers = db.obs.buffer_totals()
    return {
        "wal_records": len(db.wal),
        "logical_reads": buffers["logical_reads"],
        "physical_reads": buffers["physical_reads"],
        "page_writes": sum(
            value for key, value in snap.items()
            if key.startswith("sbspace.") and key.endswith(".page_writes")
        ),
        "lock_acquires": snap.get("locks.acquires", 0),
        "lock_wait_s": snap.get("locks.wait_seconds", 0.0),
        "stmtcache_hits": snap.get("sql.stmtcache.hits", 0),
        "stmtcache_misses": snap.get("sql.stmtcache.misses", 0),
        "hash_path": snap.get("hblade.hash_path", 0),
        "point_lookups": snap.get("hblade.point_lookups", 0),
        "registry_keys": len(snap),
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Slicer:
    """Alternates plain and traced slices of the timed phase.

    ``toggle(on)`` installs or removes the tracer; counters read at
    each traced slice's edges are differenced and summed.
    """

    SLICE_S = 0.5

    def __init__(
        self,
        rec: Recorder,
        toggle: Optional[Callable[[bool], None]],
        counters: Callable[[], Dict[str, float]],
    ) -> None:
        self.rec = rec
        self.toggle = toggle
        self.counters = counters
        self.delta: Dict[str, float] = {}
        self.host = HostSpeed()
        self.plain_s = 0.0
        self.traced_s = 0.0
        self._before: Optional[Dict[str, float]] = None
        self._slice_start = time.perf_counter()

    def tick(self) -> None:
        """Switch mode when the current slice has run its course."""
        if self.toggle is None:
            return
        now = time.perf_counter()
        if now - self._slice_start >= self.SLICE_S:
            self._switch(now)

    def _switch(self, now: float) -> None:
        if self.rec.mode == "plain":
            self.plain_s += now - self._slice_start
            self._before = self.counters()
            self.toggle(True)
            self.rec.mode = "traced"
        else:
            self.toggle(False)
            self.traced_s += now - self._slice_start
            after = self.counters()
            for key, value in after.items():
                self.delta[key] = self.delta.get(key, 0) + value - self._before[key]
            self.rec.mode = "plain"
        self._slice_start = time.perf_counter()

    def finish(self) -> None:
        now = time.perf_counter()
        if self.rec.mode == "traced":
            self._switch(now)
        else:
            self.plain_s += now - self._slice_start


#: Size of the reference loop: ~0.2 ms on the host this was tuned on.
REFERENCE_KEYS = 500
#: What the reference loop takes, on average, on the reference host
#: (a 2-vCPU KVM guest, Xeon, CPython 3.11).  Timings are scaled to it.
REFERENCE_MS = 0.22


def _reference_loop() -> None:
    """A fixed piece of pure-Python work (string keys into a dict, a
    sort with a key function): the kind of work the engine does."""
    table = {}
    for i in range(REFERENCE_KEYS):
        table[str(i)] = i * 2
    sorted(table.items(), key=lambda item: item[1] % 97)


class HostSpeed:
    """How fast the CPU this run had was, timed between statements.

    On a shared host the vCPU alternates, many times a second, between
    a fast state and one ~1.6x slower, and the share of time spent fast
    varies from run to run (the reference loop averaged 0.16-0.25 ms
    over half-second windows), moving every timing of a run together by
    up to 20%.  Every EVERY_S of the timed phase the reference loop runs
    once between two statements, on the same CPU (``run.py`` pins the
    benchmark and its child processes to one).  ``factor`` is the
    loop's mean time over REFERENCE_MS; timings are divided by it.
    The loop runs no engine code, so a change to the engine moves the
    scaled timings exactly as much as the raw ones.
    """

    EVERY_S = 0.02

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._next = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now < self._next:
            return
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _reference_loop()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(end - start)
        self.spent_s += time.perf_counter() - now
        self._next = end + self.EVERY_S

    def factor(self) -> float:
        """Mean loop time over REFERENCE_MS.  Samples over four times
        the median (the loop was preempted) are left out."""
        ordered = sorted(self.samples)
        limit = 4 * ordered[len(ordered) // 2]
        kept = [value for value in ordered if value <= limit]
        return sum(kept) / len(kept) * 1000.0 / REFERENCE_MS


def drive(step: Callable[[Recorder], None], rec: Recorder, seconds: float,
          slicer: Slicer) -> None:
    """Run *step* back to back for *seconds* (one closed-loop session),
    timing the reference loop between steps."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        slicer.tick()
        slicer.host.tick()
        try:
            step(rec)
        except Failed:
            pass  # counted by the recorder; the run will fail


class InProcess:
    """The workload interface, for workloads whose engine runs in this
    process.  Subclasses provide ``setup``, ``step`` and ``finish``."""

    db = None

    def prepare(self, count: int) -> List[float]:
        """Set up *count* (at least 2) times from scratch.  The last
        engine runs the workload; the one before it is kept as the twin
        the probes compare against (``probe_target``)."""
        times = []
        for _ in range(count):
            if self.db is not None:
                self.twin, self.twin_db = self.probe_target(), self.db
            self.db = None
            gc.collect()
            start = time.perf_counter()
            self.setup()
            times.append(time.perf_counter() - start)
        return times

    def probe(self, rec: Recorder, twin_rec: Recorder) -> None:
        execute, insert_sql = self.probe_target()
        twin_execute, twin_sql = self.twin
        self.probed(probe_pairs(
            (rec, execute, insert_sql), (twin_rec, twin_execute, twin_sql)
        ))

    def counters(self) -> Dict[str, float]:
        return engine_counters(self.db)

    def run(self, rec: Recorder, seconds: float, slicer: Slicer) -> None:
        drive(self.step, rec, seconds, slicer)

    def trace(self, tracer, on: bool) -> None:
        if on:
            install_engine(tracer)
        else:
            tracer.unwrap_all()

    def trace_results(self, tracer, out_dir: str, args) -> Dict[str, object]:
        path = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        )
        tracer.write(path)
        return {"aggregates": [aggregate(tracer)], "spans": len(tracer),
                "spans_files": [path]}

    def close(self) -> None:
        self.db = self.twin = self.twin_db = None
