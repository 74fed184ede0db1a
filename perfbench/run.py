#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload bitemporal --seed 1 --seconds 10 --trace 0

Run from the repository root; the engine is imported from ``src/``.
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run
that alternates untraced and traced slices.  Earlier lines carry the
run's provenance, verified input properties and sample counts.  The
exit code is 0 only when every statement succeeded and every answer
was right.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per run; ``setup_s`` is their median.  The last engine runs
#: the workload and the one before it is the probes' twin.
SETUPS = 3

WORKLOADS = ("bitemporal", "point_wire", "txn_soak")


def make_workload(name: str, seed: int):
    if name == "bitemporal":
        from bitemporal import Bitemporal
        return Bitemporal(seed)
    if name == "point_wire":
        from point_wire import PointWire
        return PointWire(seed, OUT)
    from txn_soak import TxnSoak
    return TxnSoak(seed, OUT)


def provenance(args) -> Dict[str, object]:
    try:
        import numpy  # noqa: F401
        numpy_present = True
    except ImportError:
        numpy_present = False
    digest = hashlib.sha1()
    for directory, subdirs, files in os.walk(os.path.join(SRC, "repro")):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_sha": git_sha(),
        "src_sha1": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_present,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def git_sha():
    """HEAD's SHA when the root is itself a git work tree, else None
    (git is not asked otherwise: it would search the parent directories)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    # One CPU for this process and the server it may start, so the
    # reference loop (common.HostSpeed) times the CPU the engine runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from common import Recorder, Slicer
    from tracer import Tracer
    import report

    prov = provenance(args)
    print(json.dumps({"provenance": prov}), flush=True)
    workload = make_workload(args.workload, args.seed)
    try:
        setup_s = workload.prepare(SETUPS)
        aux = {"probe": Recorder(), "twin": Recorder(), "verify": Recorder()}
        rec = Recorder()
        tracer = Tracer() if args.trace else None
        slicer = Slicer(
            rec,
            (lambda on: workload.trace(tracer, on)) if tracer is not None else None,
            workload.counters,
        )
        gc.collect()
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        workload.run(rec, args.seconds, slicer)
        slicer.finish()
        # Below 1 for a single-threaded in-process workload, this
        # process waited for a CPU (host contention) during the phase.
        cpu_share = (time.process_time() - cpu_start) / (
            time.perf_counter() - wall_start)
        workload.probe(aux["probe"], aux["twin"])
        end = workload.finish(aux["verify"])
        traced = (workload.trace_results(tracer, OUT, args)
                  if tracer is not None else None)
    finally:
        workload.close()
    result = report.build(setup_s, rec, aux, slicer, end, traced)
    result["details"].insert(0, {"cpu_share": cpu_share})
    for line in result["details"]:
        print(json.dumps(line), flush=True)
    with open(os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ), "w", encoding="utf-8") as handle:
        json.dump({"provenance": prov, **result}, handle, indent=1)
    print(json.dumps(result["summary"]), flush=True)
    return 0 if result["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
