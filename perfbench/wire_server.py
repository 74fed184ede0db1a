#!/usr/bin/env python3
"""The engine side of the ``point_wire`` workload (a child process).

Builds the engine ``--setups`` times, serves the last one and its
predecessor (the probes' twin) on ephemeral localhost ports, and answers one-line commands on standard
input with one JSON line each on standard output:

``counters``      engine counters (``common.engine_counters``)
``trace on|off``  install or remove the engine-side span wrappers
``restart``       the crash-restart sequence, timed
``finish``        final state (and spans, when traced); then exit

End of input also shuts the server down.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def reply(message) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from common import (
        crash_restart, engine_counters, peak_rss_mb, sbspace_bytes,
    )
    from layers import install_engine
    from point_wire import build_engine, index_fit
    from repro.net.server import NetServer
    from tracer import Tracer, aggregate

    # The last engine is served to the load generator; the one before
    # it is the twin the transaction probes compare against.
    setup_s = []
    db = twin = None
    for _ in range(args.setups):
        twin, db = db, None
        gc.collect()
        start = time.perf_counter()
        db = build_engine(args.seed, args.out)
        setup_s.append(time.perf_counter() - start)
    # Statements run one at a time under the engine lock; a single
    # worker keeps a second one from contending for the interpreter
    # lock only to wait on the engine lock.
    net = NetServer(db, workers=1).start()
    twin_net = NetServer(twin, workers=1).start()
    tracer = None
    try:
        reply({"port": net.address[1], "twin_port": twin_net.address[1],
               "setup_s": setup_s})
        for line in sys.stdin:
            command = line.split()
            if command == ["counters"]:
                reply(engine_counters(db))
            elif command == ["trace", "on"]:
                tracer = tracer or Tracer()
                install_engine(tracer)
                reply({"ok": True})
            elif command == ["trace", "off"]:
                tracer.unwrap_all()
                reply({"ok": True})
            elif command == ["restart"]:
                reply(crash_restart(db, twin))
            elif command == ["finish"]:
                final = {
                    "counters": engine_counters(db),
                    "peak_rss_mb": peak_rss_mb(),
                    "sbspace_bytes": sbspace_bytes(db),
                    "index_fit": index_fit(db),
                    "trace": None,
                }
                if tracer is not None:
                    path = os.path.join(
                        args.out, f"spans-point_wire-seed{args.seed}-server.tsv.gz"
                    )
                    tracer.write(path)
                    final["trace"] = {"aggregate": aggregate(tracer),
                                      "spans": len(tracer), "spans_file": path}
                reply(final)
                break
            else:
                reply({"error": f"unknown command {line.strip()!r}"})
    finally:
        twin_net.shutdown()
        net.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
