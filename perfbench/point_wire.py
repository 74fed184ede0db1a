"""``point_wire``: short statements over the wire.

The engine runs in a child process (``wire_server.py``) behind a
:class:`~repro.net.server.NetServer` with one worker thread; this
process is the load generator, holding one closed-loop
:class:`~repro.net.client.ReproClient` connection with no think time.  Sixteen tables each carry an
``hblade_am`` index of 300 keys, small enough that every index fits
its own buffer pool.  The mix is ~90% point SELECTs of a random key on
a random table, ~9% single-row INSERTs of a fresh key and ~1% key-range
SELECTs.  Statements are short, so per-statement fixed costs dominate:
framing, parsing (literals defeat the statement cache) and the obs
registry snapshot, which grows with the number of opened indexes.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro.hblade import register_hybrid_blade
from repro.net.client import ReproClient
from repro.server import DatabaseServer

from common import (
    OTHER, READ, SBSPACE, SCAN, WRITE, Failed, Recorder, Slicer, load_table,
    probe_pairs,
)
from layers import install_client
from tracer import aggregate

TABLES = 16
KEYS = 300
KEY_SPACE = 10**6
#: Closed-loop connections.  With two, a statement either ran at once
#: or queued behind the other connection's, and which of the two
#: happened to more than half of them flipped from run to run, so the
#: median jumped by a third; one connection keeps every statement's
#: path the same.
CLIENTS = 1
INSERT_SHARE = 0.09
SCAN_SHARE = 0.01
SCAN_WIDTH = 50_000
#: Fresh keys start here so they never meet a preloaded key or a scan
#: range; probe keys start above them.
FRESH_BASE = 10**6
PROBE_BASE = 10**8
#: How long a control command may take before the child is presumed hung.
REPLY_TIMEOUT_S = 120.0


def table_keys(seed: int, table: int) -> List[int]:
    return random.Random(seed * 1000 + table).sample(range(KEY_SPACE), KEYS)


def build_engine(seed: int, out_dir: str):
    """Schema and preload; runs in the child process."""
    db = DatabaseServer()
    db.create_sbspace(SBSPACE)
    register_hybrid_blade(db)
    for table in range(TABLES):
        db.execute(f"CREATE TABLE t{table} (k INTEGER, v LVARCHAR)")
        db.execute(
            f"CREATE INDEX hi{table} ON t{table}(k) USING hblade_am IN {SBSPACE}"
        )
        load_table(
            db.execute,
            f"t{table}",
            ((key, f"v{key}") for key in table_keys(seed, table)),
            out_dir,
        )
    db.prefer_virtual_index = True
    return db


def index_fit(db) -> Dict[str, object]:
    """Pages of each index structure against its buffer pool."""
    worst = 0.0
    pages = []
    for table in range(TABLES):
        for part in ("tree", "hash"):
            pool = db.obs.pools[f"index.hi{table}.{part}"]
            count = pool.store.page_count
            count = count() if callable(count) else count
            pages.append(count)
            worst = max(worst, count / pool.capacity)
    return {"index_pages_max": max(pages), "index_pages_min": min(pages),
            "pool_fill_max": worst}


class PointWire:
    name = "point_wire"

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.proc = None
        self.keys = [table_keys(seed, table) for table in range(TABLES)]
        #: (table, key) of every committed fresh insert.
        self.inserted: List[Tuple[int, int]] = []
        self.probes: Dict[int, bool] = {}
        self.busy_retries: List[int] = []

    # -- the child process ------------------------------------------------

    def prepare(self, count: int) -> List[float]:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__),
                                          "wire_server.py"),
             "--seed", str(self.seed), "--setups", str(count),
             "--out", self.out_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        )
        self._buffer = b""
        hello = self._reply()
        self.port = hello["port"]
        self.twin_port = hello["twin_port"]
        return hello["setup_s"]

    def _reply(self) -> Dict[str, object]:
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("wire server did not answer in time")
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                raise RuntimeError(f"wire server exited ({self.proc.wait()})")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def _call(self, command: str) -> Dict[str, object]:
        self.proc.stdin.write(command.encode() + b"\n")
        return self._reply()

    def counters(self) -> Dict[str, float]:
        return self._call("counters")

    def trace(self, tracer, on: bool) -> None:
        if on:
            install_client(tracer)
            self._call("trace on")
        else:
            self._call("trace off")
            tracer.unwrap_all()

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    # -- clients ----------------------------------------------------------

    def _client(self, port=None):
        return ReproClient("127.0.0.1", port or self.port).connect()

    def _loop(self, index: int, shared: Recorder, rec: Recorder,
              deadline: float) -> None:
        rng = random.Random(self.seed * 100 + index)
        next_key = FRESH_BASE + index
        with self._client() as client:
            # Looked up per call, so wrappers installed mid-run are seen.
            execute = lambda sql: client.execute(sql)  # noqa: E731
            while time.perf_counter() < deadline:
                self.host.tick()
                rec.mode = shared.mode
                table = rng.randrange(TABLES)
                roll = rng.random()
                try:
                    if roll < SCAN_SHARE:
                        low = rng.randrange(KEY_SPACE - SCAN_WIDTH)
                        high = low + SCAN_WIDTH - 1
                        rows = rec.run(SCAN, execute,
                                       f"SELECT k FROM t{table} WHERE "
                                       f"k >= {low} AND k <= {high}")
                        expected = sorted(
                            k for k in self.keys[table] if low <= k <= high
                        )
                        got = sorted(row["k"] for row in rows)
                        rec.expect(got == expected, f"t{table} [{low}, {high}] "
                                   f"read {len(got)} keys, expected {len(expected)}")
                    elif roll < SCAN_SHARE + INSERT_SHARE:
                        key, next_key = next_key, next_key + CLIENTS
                        rec.run(WRITE, execute,
                                f"INSERT INTO t{table} VALUES ({key}, 'v{key}')")
                        self.inserted.append((table, key))
                    else:
                        key = rng.choice(self.keys[table])
                        rows = rec.run(READ, execute,
                                       f"SELECT v FROM t{table} WHERE k = {key}")
                        rec.expect(rows == [{"v": f"v{key}"}],
                                   f"t{table} k={key} read {rows}")
                except Failed:
                    pass
            self.busy_retries.append(client.stats["busy_retries"])

    def run(self, rec: Recorder, seconds: float, slicer: Slicer) -> None:
        deadline = time.perf_counter() + seconds
        # Timed in the client's thread, between its statements.
        self.host = slicer.host
        locals_ = [Recorder() for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=self._loop, args=(i, rec, locals_[i], deadline))
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        while time.perf_counter() < deadline:
            slicer.tick()
            time.sleep(0.01)
        for thread in threads:
            thread.join(timeout=60)
            if thread.is_alive():
                raise RuntimeError("a load-generator client did not stop")
        mode = rec.mode
        for local in locals_:
            rec.merge(local)
        rec.mode = mode

    # -- probes and verification ------------------------------------------

    def probe(self, rec: Recorder, twin_rec: Recorder) -> None:
        def insert_sql(i: int) -> str:
            return f"INSERT INTO t0 VALUES ({PROBE_BASE + i}, 'p{i}')"

        with self._client() as main, self._client(self.twin_port) as twin:
            self.probes = probe_pairs(
                (rec, lambda sql: main.execute(sql), insert_sql),
                (twin_rec, lambda sql: twin.execute(sql), insert_sql),
            )

    def _verify(self, rec: Recorder, when: str) -> None:
        expected = [
            (table, key, [{"v": f"v{key}"}]) for table, key in self.inserted
        ]
        expected += [
            (table, key, [{"v": f"v{key}"}])
            for table in range(TABLES) for key in self.keys[table][:10]
        ]
        expected += [
            (0, PROBE_BASE + i, [{"v": f"p{i}"}] if committed else [])
            for i, committed in self.probes.items()
        ]
        with self._client() as client:
            for table, key, rows in expected:
                try:
                    got = rec.run(OTHER, client.execute,
                                  f"SELECT v FROM t{table} WHERE k = {key}")
                except Failed:
                    continue
                rec.expect(got == rows, f"{when}: t{table} k={key} read {got}, "
                                        f"expected {rows}")
            for table in range(TABLES):
                try:
                    rec.run(OTHER, client.execute, f"CHECK INDEX hi{table}")
                except Failed:
                    pass

    def finish(self, rec: Recorder) -> Dict[str, object]:
        self._verify(rec, "before restart")
        end = self._call("restart")
        self._verify(rec, "after restart")
        final = self._call("finish")
        end.update(final["counters"])
        end["peak_rss_mb"] = final["peak_rss_mb"]
        end["busy_retries"] = sum(self.busy_retries)
        rows = TABLES * KEYS + len(self.inserted) + sum(self.probes.values())
        end["index_bytes_per_row"] = final["sbspace_bytes"] / rows
        fit = final["index_fit"]
        rec.expect(
            fit["pool_fill_max"] <= 1.0,
            f"an index outgrew its buffer pool: {fit}",
        )
        end["properties"] = {**fit, "rows": rows}
        self.final = final
        return end

    def trace_results(self, tracer, out_dir: str, args) -> Dict[str, object]:
        path = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}-client.tsv.gz"
        )
        tracer.write(path)
        server = self.final["trace"]
        return {
            "aggregates": [aggregate(tracer), server["aggregate"]],
            "spans": len(tracer) + server["spans"],
            "spans_files": [path, server["spans_file"]],
        }
