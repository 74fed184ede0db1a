#!/usr/bin/env python
"""Concurrency and recovery over sbspace-stored indices (Section 5.3).

Run:  python examples/concurrency.py

Shows what the paper's analysis predicts: locking at large-object
granularity serializes writers against everyone, shared locks outlive
the close under repeatable read, and the write-ahead log brings the
index back after a crash -- all without a single line of locking or
logging code in the DataBlade.
"""

from repro.datablade import register_grtree_blade
from repro.server import DatabaseServer
from repro.storage.locks import LockConflictError
from repro.temporal.chronon import Clock, format_chronon


def day(chronon: int) -> str:
    return format_chronon(chronon)


def main() -> None:
    server = DatabaseServer(clock=Clock(now=100))
    server.create_sbspace("spc")
    register_grtree_blade(server)
    server.execute("CREATE TABLE t (name LVARCHAR, te GRT_TimeExtent_t)")
    server.execute("CREATE INDEX gi ON t(te) USING grtree_am IN spc")
    server.prefer_virtual_index = True
    server.execute(
        f"INSERT INTO t VALUES ('seed', '{day(100)}, UC, {day(95)}, NOW')"
    )

    query = f"SELECT name FROM t WHERE Overlaps(te, '{day(100)}, UC, {day(100)}, NOW')"

    print("1. A writer transaction inserts: the whole index (one large")
    print("   object) is locked exclusively until the transaction ends.")
    writer = server.create_session()
    reader = server.create_session()
    server.execute("BEGIN WORK", writer)
    server.execute(
        f"INSERT INTO t VALUES ('w1', '{day(100)}, UC, {day(96)}, NOW')",
        writer,
    )
    server.execute("BEGIN WORK", reader)
    try:
        server.execute(query, reader)
    except LockConflictError as exc:
        print(f"   reader blocked as predicted: {exc}")
    server.execute("ROLLBACK WORK", reader)
    server.execute("COMMIT WORK", writer)
    print("   writer committed; reader now sees:",
          [r["name"] for r in server.execute(query, reader)])

    print("\n2. Repeatable read: even a *shared* lock survives grt_close")
    print("   and is only released at transaction end.")
    rr = server.create_session()
    server.execute("SET ISOLATION TO REPEATABLE READ", rr)
    server.execute("BEGIN WORK", rr)
    server.execute(query, rr)
    held = server.locks.locked_resources
    print(f"   locks still held after the statement closed the index: {held}")
    w2 = server.create_session()
    server.execute("BEGIN WORK", w2)
    try:
        server.execute(
            f"INSERT INTO t VALUES ('w2', '{day(100)}, UC, {day(97)}, NOW')",
            w2,
        )
    except LockConflictError as exc:
        print(f"   a writer conflicts with the lingering read lock: {exc}")
    server.execute("ROLLBACK WORK", w2)
    server.execute("COMMIT WORK", rr)
    print("   after commit:", server.locks.locked_resources, "locks held")

    print("\n3. Crash recovery from the write-ahead log.")
    space = server.get_sbspace("spc")
    print(f"   before crash: {space.object_count} large object(s), "
          f"{sum(b.page_count for b in space._objects.values())} pages")
    space._reset_for_recovery()
    print("   crash! volatile sbspace state lost "
          f"({space.object_count} objects remain)")
    folded = server.wal.recover(space)
    print(f"   recovery folded {folded} committed log records into the "
          "checkpoint image and rebuilt the space from it")
    rows = server.execute(query)
    print("   index answers again:", sorted(r["name"] for r in rows))
    print("  ", server.execute("CHECK INDEX gi"))


if __name__ == "__main__":
    main()
