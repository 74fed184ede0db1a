"""Which engine functions the traced run wraps, and the per-layer
metrics derived from the spans they record.

Every target is looked up on its owner at call time by the engine
(``obj.method``, ``module.function``), which is what lets a wrapper set
on the owner see every call.  Span names are ``<layer>.<what>``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from tracer import Tracer

#: Access-method name -> the blade package that implements it.
BLADES = {"grtree_am": "datablade", "btree_am": "bblade", "hblade_am": "hblade"}


def _kind(sql: str) -> str:
    return sql.split(None, 1)[0].lower() if sql.strip() else ""


def _purpose_name(args: tuple) -> str:
    # Executor.call_purpose(self, am, slot, *args)
    am, slot = args[1], args[2]
    return f"purpose.{BLADES.get(am.name, am.name)}.{slot}"


def _count_hits(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.count("grtree.cursor_hits")


def _count_scan(tracer: Tracer, args: tuple, result: Any) -> None:
    # WriteAheadLog.records_for(self, txn_id) scans the whole log.
    tracer.count("wal.records_scanned", len(args[0]))
    tracer.count("wal.records_own", len(result))


def _count_server_elapsed(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None and result.get("kind") == "result":
        tracer.count("net.server_elapsed_s", result.get("elapsed", 0.0))


def install_engine(tracer: Tracer) -> None:
    """Wrap the layers that run where the engine runs."""
    from repro.btree.tree import BPlusTree
    from repro.grtree.cursor import Cursor
    from repro.grtree.node import GRNodeStore
    from repro.grtree.tree import GRTree
    from repro.hblade.directory import HashDirectory
    from repro.net import protocol
    from repro.obs import Observability
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.workload import WorkloadModel
    from repro.server import executor, sql
    from repro.server.executor import Executor
    from repro.server.server import DatabaseServer
    from repro.storage.sbspace import Sbspace
    from repro.storage.wal import WriteAheadLog
    from repro.temporal.extent import TimeExtent

    wrap = tracer.wrap
    wrap(DatabaseServer, "execute", "server.execute",
         root=lambda args: _kind(args[1]))
    wrap(sql, "parse", "server.parse")
    wrap(Executor, "execute", "server.executor")
    wrap(executor, "choose_plan", "server.plan")
    wrap(Executor, "call_purpose", _purpose_name)
    wrap(MetricsRegistry, "snapshot", "obs.snapshot")
    wrap(MetricsRegistry, "delta", "obs.delta")
    wrap(Observability, "span", "obs.span", context_manager=True)
    wrap(WorkloadModel, "observe", "obs.workload")
    wrap(protocol, "encode_frame", "net.encode")
    wrap(protocol, "read_frame", "net.decode")
    wrap(protocol, "_recv_exact", "net.recv")
    wrap(GRTree, "insert", "grtree.insert")
    wrap(GRTree, "delete", "grtree.delete")
    wrap(GRTree, "search", "grtree.search")
    wrap(Cursor, "next", "grtree.cursor_next", after=_count_hits)
    wrap(GRNodeStore, "read", "grtree.node_read")
    wrap(BPlusTree, "insert", "btree.insert")
    wrap(BPlusTree, "delete", "btree.delete")
    wrap(BPlusTree, "search_range", "btree.search")
    wrap(HashDirectory, "lookup", "hblade.lookup")
    wrap(HashDirectory, "insert", "hblade.dir_insert")
    wrap(Sbspace, "open", "storage.lo_open")
    wrap(Sbspace, "rollback", "storage.rollback")
    wrap(WriteAheadLog, "_append", "storage.wal_append")
    wrap(WriteAheadLog, "records_for", "storage.records_for", after=_count_scan)
    wrap(TimeExtent, "from_text", "temporal.extent_input")


def install_client(tracer: Tracer) -> None:
    """Wrap the wire client's side (the load-generator process)."""
    from repro.net import protocol
    from repro.net.client import ReproClient

    tracer.wrap(ReproClient, "execute", "client.execute",
                root=lambda args: _kind(args[1]))
    tracer.wrap(protocol, "encode_frame", "net.encode")
    tracer.wrap(protocol, "read_frame", "net.decode",
                after=_count_server_elapsed)
    tracer.wrap(protocol, "_recv_exact", "net.recv")


class Spans:
    """Queries over :func:`tracer.aggregate` rows, possibly merged from
    several processes."""

    def __init__(self, aggregates: Iterable[Dict[str, Any]]) -> None:
        self.rows: List[list] = []
        self.counts: Dict[str, float] = {}
        for agg in aggregates:
            self.rows.extend(agg["rows"])
            for key, value in agg["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + value

    def _select(self, prefix: str, parent=None, kind=None):
        for name, parent_name, row_kind, calls, own, incl in self.rows:
            # A prefix ending in "." selects every name under it.
            if name != prefix and not (
                prefix.endswith(".") and name.startswith(prefix)
            ):
                continue
            if parent is not None and parent_name != parent:
                continue
            if kind is not None and row_kind != kind:
                continue
            yield calls, own, incl

    def calls(self, prefix: str, **where) -> float:
        return sum(row[0] for row in self._select(prefix, **where))

    def self_s(self, prefix: str, **where) -> float:
        return sum(row[1] for row in self._select(prefix, **where))

    def incl_s(self, prefix: str, **where) -> float:
        return sum(row[2] for row in self._select(prefix, **where))

    def self_us_per_call(self, prefix: str) -> float:
        calls = self.calls(prefix)
        return self.self_s(prefix) / calls * 1e6 if calls else 0.0

    def waterfall(self, statements: int) -> Dict[str, float]:
        """Self microseconds per statement by span name, largest first."""
        totals: Dict[str, float] = {}
        for name, _, _, _, own, _ in self.rows:
            totals[name] = totals.get(name, 0.0) + own
        return {
            name: round(total / statements * 1e6, 3)
            for name, total in sorted(totals.items(), key=lambda kv: -kv[1])
        } if statements else {}


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_ratio", "hits_per_node")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


#: Every per-layer metric -> unit, in report order.
PER_LAYER_NAMES = (
    "obs.snapshot_calls_per_stmt", "obs.snapshot_us", "obs.delta_us",
    "obs.span_self_us", "obs.workload_us", "obs.registry_keys",
    "net.codec_us", "net.overhead_us", "net.busy_retries",
    "server.parse_us", "server.stmtcache_hit_ratio", "server.plan_us",
    "server.executor_self_us", "server.purpose_calls_per_stmt",
    "server.open_close_us",
    "datablade.purpose_self_us", "bblade.purpose_self_us",
    "hblade.purpose_self_us", "hblade.hash_path_ratio",
    "grtree.insert_us", "grtree.delete_us", "grtree.search_us",
    "grtree.nodes_per_search", "grtree.hits_per_node",
    "btree.insert_us", "btree.search_us", "hblade.lookup_us",
    "hblade.dir_insert_us",
    "storage.buffer_hit_ratio", "storage.logical_reads_per_stmt",
    "storage.page_writes_per_stmt", "storage.lo_open_us",
    "storage.lock_acquires_per_stmt", "storage.lock_wait_us",
    "storage.wal_append_us", "storage.wal_records_per_stmt",
    "storage.wal_records_per_readonly_stmt", "storage.rollback_us",
    "storage.rollback_scan_ratio", "storage.wal_len_end",
    "storage.recover_records",
    "temporal.extent_input_us",
    "trace.overhead_pct", "trace.spans_per_stmt",
)
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER_NAMES}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Spans, delta: Dict[str, float], end: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric (see BENCHMARK.json and README.md).

    *delta* holds engine counters differenced over the traced slices,
    *end* the engine's state after the run; ``*_us`` metrics are mean
    self time per call unless their README entry says otherwise.
    """
    stmts = spans.calls("server.execute", parent="")
    selects = spans.calls("server.execute", parent="", kind="select")
    client_stmts = spans.calls("client.execute", parent="")
    obs_spans = spans.calls("obs.span") / 2  # enter + exit
    searches = spans.calls("grtree.search")
    cursor_reads = spans.calls("grtree.node_read", parent="grtree.cursor_next")
    open_close = [
        f"purpose.{blade}.{slot}"
        for blade in BLADES.values()
        for slot in ("am_open", "am_close")
    ]
    client_s = spans.incl_s("client.execute", parent="")
    lookups = delta.get("point_lookups", 0)
    reads = delta.get("logical_reads", 0)
    return {
        "obs.snapshot_calls_per_stmt": _ratio(spans.calls("obs.snapshot"), stmts),
        "obs.snapshot_us": spans.self_us_per_call("obs.snapshot"),
        "obs.delta_us": spans.self_us_per_call("obs.delta"),
        "obs.span_self_us": _ratio(spans.self_s("obs.span") * 1e6, obs_spans),
        "obs.workload_us": spans.self_us_per_call("obs.workload"),
        "obs.registry_keys": end["registry_keys"],
        "net.codec_us": _ratio(
            (spans.self_s("net.encode") + spans.self_s("net.decode")) * 1e6,
            client_stmts,
        ),
        "net.overhead_us": _ratio(
            (client_s - spans.counts.get("net.server_elapsed_s", 0.0)) * 1e6,
            client_stmts,
        ),
        "net.busy_retries": end.get("busy_retries", 0),
        "server.parse_us": spans.self_us_per_call("server.parse"),
        "server.stmtcache_hit_ratio": _ratio(
            delta.get("stmtcache_hits", 0),
            delta.get("stmtcache_hits", 0) + delta.get("stmtcache_misses", 0),
        ),
        "server.plan_us": spans.self_us_per_call("server.plan"),
        "server.executor_self_us": spans.self_us_per_call("server.executor"),
        "server.purpose_calls_per_stmt": _ratio(spans.calls("purpose."), stmts),
        "server.open_close_us": _ratio(
            sum(spans.incl_s(name) for name in open_close) * 1e6,
            sum(spans.calls(name) for name in open_close),
        ),
        "datablade.purpose_self_us": spans.self_us_per_call("purpose.datablade."),
        "bblade.purpose_self_us": spans.self_us_per_call("purpose.bblade."),
        "hblade.purpose_self_us": spans.self_us_per_call("purpose.hblade."),
        "hblade.hash_path_ratio": _ratio(delta.get("hash_path", 0), lookups),
        "grtree.insert_us": spans.self_us_per_call("grtree.insert"),
        "grtree.delete_us": spans.self_us_per_call("grtree.delete"),
        "grtree.search_us": _ratio(
            (spans.self_s("grtree.search") + spans.self_s("grtree.cursor_next")
             + spans.incl_s("grtree.node_read", parent="grtree.cursor_next"))
            * 1e6,
            searches,
        ),
        "grtree.nodes_per_search": _ratio(cursor_reads, searches),
        "grtree.hits_per_node": _ratio(
            spans.counts.get("grtree.cursor_hits", 0), cursor_reads
        ),
        "btree.insert_us": spans.self_us_per_call("btree.insert"),
        "btree.search_us": spans.self_us_per_call("btree.search"),
        "hblade.lookup_us": spans.self_us_per_call("hblade.lookup"),
        "hblade.dir_insert_us": spans.self_us_per_call("hblade.dir_insert"),
        "storage.buffer_hit_ratio": _ratio(
            reads - delta.get("physical_reads", 0), reads
        ),
        "storage.logical_reads_per_stmt": _ratio(reads, stmts),
        "storage.page_writes_per_stmt": _ratio(delta.get("page_writes", 0), stmts),
        "storage.lo_open_us": spans.self_us_per_call("storage.lo_open"),
        "storage.lock_acquires_per_stmt": _ratio(
            delta.get("lock_acquires", 0), stmts
        ),
        "storage.lock_wait_us": _ratio(delta.get("lock_wait_s", 0.0) * 1e6, stmts),
        "storage.wal_append_us": spans.self_us_per_call("storage.wal_append"),
        "storage.wal_records_per_stmt": _ratio(delta.get("wal_records", 0), stmts),
        "storage.wal_records_per_readonly_stmt": _ratio(
            spans.calls("storage.wal_append", kind="select"), selects
        ),
        "storage.rollback_us": _ratio(
            spans.incl_s("storage.rollback") * 1e6, spans.calls("storage.rollback")
        ),
        "storage.rollback_scan_ratio": _ratio(
            spans.counts.get("wal.records_own", 0),
            spans.counts.get("wal.records_scanned", 0),
        ),
        "storage.wal_len_end": end["wal_records"],
        "storage.recover_records": end["recover_records"],
        "temporal.extent_input_us": spans.self_us_per_call("temporal.extent_input"),
    }
