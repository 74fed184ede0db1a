"""Turn a finished run into its metrics, details and summary line."""

from __future__ import annotations

from typing import Dict, List, Optional

from common import COMMIT, READ, ROLLBACK, SCAN, WRITE, Recorder
from layers import PER_LAYER_UNITS, Spans, layer_metrics
from stats import median, percentile, tail_level

#: End-to-end metric -> unit (BENCHMARK.json lists the same names).
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "read_p90_ms": "ms",
    "write_p90_ms": "ms",
    "rollback_drift": "ratio",
    "recover_drift": "ratio",
    "peak_rss_mb": "MB",
    "index_bytes_per_row": "B",
}


#: Timings of the timed phase are scaled to the reference host's speed
#: (``common.HostSpeed``); the unscaled values and the factor are in the
#: counts.  ``setup_s`` is not scaled: set-up runs before the timed
#: phase, and its spread is not gated.
#:
#: Medians of reads, writes and scans are printed with the counts, not
#: as metrics.  This host alternates every few milliseconds between a
#: fast and a ~1.6x slower state (a fixed 0.2 ms Python loop shows both
#: modes; the fast one holds 20-60% of a run's samples, varying between
#: runs).  A median of short statements sits in whichever mode holds
#: half of them and moved by a third between runs of the same code; a
#: p90 stays in the slow mode and held within 6%.  The wide reads
#: (scans) spread 0.2-0.5 on some workload whatever the scaling.
#:
#: The tail level reported for reads and writes.  Every workload leaves
#: far more than 10 samples beyond it (``tail_levels`` in each run's
#: counts gives the highest level that does); p90 rather than higher
#: because on a shared two-CPU host, stalls of a second or two move a
#: p95 from run to run while a p90 holds.
TAIL = 90.0


def _ms(samples: List[float], level: float) -> float:
    return percentile(samples, level) * 1000.0


def _overhead_pct(rec: Recorder) -> float:
    """Traced over untraced time for the traced slices' own mix: each
    class's mean latency is weighed by its traced sample count, so
    slices that happened to draw more of a slow class do not count as
    tracing cost."""
    traced = plain = 0.0
    for cls, samples in rec.samples["traced"].items():
        base = rec.samples["plain"].get(cls)
        if samples and base:
            traced += sum(samples)
            plain += len(samples) * sum(base) / len(base)
    return (traced / plain - 1.0) * 100.0 if plain else 0.0


#: WAL records of history the drift metrics are scaled to.
DRIFT_HISTORY = 10_000


def _drift(main: float, twin: float, history: int) -> float:
    """*main* over *twin*, with the excess over 1 scaled to
    DRIFT_HISTORY records: the run's engine differs from its twin only
    by *history* WAL records, and how many the timed phase wrote
    depends on the host's speed."""
    return 1.0 + (main / twin - 1.0) * DRIFT_HISTORY / max(history, 1)


def build(setup_s, rec: Recorder, aux: Dict[str, Recorder], slicer,
          end: Dict[str, object], traced: Optional[Dict[str, object]]):
    recorders = [rec, *aux.values()]
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    failures = [f for r in recorders for f in r.failures][:20]
    # Commit and rollback latency come from the mix when it has
    # transactions of its own (txn_soak), else from the probes.
    source = rec if rec.plain(ROLLBACK) else aux["probe"]
    commits, rollbacks = source.plain(COMMIT), source.plain(ROLLBACK)
    history = end["history"]
    rollback_main = median(aux["probe"].plain(ROLLBACK))
    rollback_twin = median(aux["twin"].plain(ROLLBACK))
    samples = {cls: len(values) for cls, values in rec.samples["plain"].items()}
    counts = {
        "samples": samples,
        "commit_samples": len(commits),
        "rollback_samples": len(rollbacks),
        # Absolute commit, rollback and restart times are measured in a
        # few seconds after the timed phase, which on a shared host
        # swing 30% with its load; reported here, not as metrics.
        "read_p50_ms": _ms(rec.plain(READ), 50),
        "write_p50_ms": _ms(rec.plain(WRITE), 50),
        "scan_p50_ms": _ms(rec.plain(SCAN), 50),
        "commit_p50_ms": _ms(commits, 50),
        "rollback_p50_ms": _ms(rollbacks, 50),
        "tail_levels": {
            cls: tail_level(samples.get(cls, 0)) for cls in (READ, WRITE)
        },
        "setup_s_each": setup_s,
        "history_wal_records": history,
        "rollback_main_ms": rollback_main * 1000.0,
        "rollback_twin_ms": rollback_twin * 1000.0,
        "recover_main_s": end["recover_main_s"],
        "recover_twin_s": end["recover_twin_s"],
    }
    properties = {**end["properties"], "registry_keys": end["registry_keys"]}
    details = [{"properties": properties}, {"counts": counts}]
    if failures:
        details.append({"failures": failures})
    if traced is None:
        busy = slicer.plain_s - rec.check_s - slicer.host.spent_s
        factor = slicer.host.factor()
        raw = {
            "throughput_ops_s": rec.statements["plain"] / busy,
            "read_p90_ms": _ms(rec.plain(READ), TAIL),
            "write_p90_ms": _ms(rec.plain(WRITE), TAIL),
        }
        counts["host_factor"] = factor
        counts["host_samples"] = len(slicer.host.samples)
        counts["unscaled"] = raw
        values = {
            "setup_s": median(setup_s),
            "throughput_ops_s": raw["throughput_ops_s"] * factor,
            "read_p90_ms": raw["read_p90_ms"] / factor,
            "write_p90_ms": raw["write_p90_ms"] / factor,
            "rollback_drift": _drift(rollback_main, rollback_twin, history),
            "recover_drift": _drift(
                end["recover_main_s"], end["recover_twin_s"], history
            ),
            "peak_rss_mb": end["peak_rss_mb"],
            "index_bytes_per_row": end["index_bytes_per_row"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    else:
        spans = Spans(traced["aggregates"])
        values = layer_metrics(spans, slicer.delta, end)
        stmts = spans.calls("server.execute", parent="")
        values["trace.overhead_pct"] = _overhead_pct(rec)
        values["trace.spans_per_stmt"] = traced["spans"] / stmts if stmts else 0.0
        details.append({"waterfall_us_per_stmt": spans.waterfall(stmts)})
        details.append({"spans_files": traced["spans_files"],
                        "traced_s": slicer.traced_s, "plain_s": slicer.plain_s})
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details.append({"ops_attempted": attempted, "ops_failed": failed})
    return {"summary": summary, "details": details}
