"""LogRecord wire round-trips and WAL stats (replication satellites).

The replication stream serializes every ``LogRecord`` through
``to_dict``/``from_dict``; these tests pin the round-trip for *every*
``RecordKind`` -- adding a kind without wire support fails here -- and
the explicit rejection of unknown kinds (a version-skewed primary must
produce a loud error, not a silently skipped record).
"""

import pytest

from repro.storage.wal import DDL_TXN, LogRecord, RecordKind, WriteAheadLog

#: One fully-populated exemplar per kind.  The parametrization below
#: iterates ``RecordKind`` itself, so a kind missing from this table
#: fails the suite instead of silently shrinking coverage.
_EXEMPLARS = {
    RecordKind.BEGIN: dict(txn_id=7),
    RecordKind.COMMIT: dict(txn_id=7),
    RecordKind.ABORT: dict(txn_id=7),
    RecordKind.CREATE_LO: dict(txn_id=7, lo_handle="spc:3"),
    RecordKind.DROP_LO: dict(txn_id=7, lo_handle="spc:3"),
    RecordKind.PAGE_ALLOC: dict(txn_id=7, lo_handle="spc:3", page_id=11),
    RecordKind.PAGE_FREE: dict(txn_id=7, lo_handle="spc:3", page_id=11),
    RecordKind.PAGE_WRITE: dict(
        txn_id=7,
        lo_handle="spc:3",
        page_id=11,
        before=b"\x00\x01old page \xff",
        after=b"new page bytes \xfe\x00",
    ),
    RecordKind.ROW_INSERT: dict(
        txn_id=7, table="t", rowid=4, row={"id": "4", "te": "[3-5]"}
    ),
    RecordKind.ROW_DELETE: dict(txn_id=7, table="t", rowid=4),
    RecordKind.ROW_UPDATE: dict(
        txn_id=7, table="t", rowid=4, row={"id": "4", "te": "[3-NOW]"}
    ),
    RecordKind.DDL: dict(txn_id=DDL_TXN, sql="CREATE TABLE t (id INTEGER)"),
}


@pytest.mark.parametrize("kind", list(RecordKind), ids=lambda k: k.value)
def test_every_kind_round_trips(kind):
    assert kind in _EXEMPLARS, f"no wire exemplar for {kind.value}"
    record = LogRecord(lsn=42, kind=kind, **_EXEMPLARS[kind])
    payload = record.to_dict()
    # The payload is JSON-safe: bytes went through base64.
    import json

    json.dumps(payload)
    back = LogRecord.from_dict(payload)
    assert back == record


@pytest.mark.parametrize("kind", list(RecordKind), ids=lambda k: k.value)
def test_wire_form_omits_unset_fields(kind):
    record = LogRecord(lsn=1, kind=kind, **_EXEMPLARS[kind])
    payload = record.to_dict()
    for field in ("lo_handle", "page_id", "before", "after", "table",
                  "rowid", "row", "sql"):
        if getattr(record, field) is None:
            assert field not in payload


@pytest.mark.parametrize(
    "payload",
    [
        {"lsn": 0, "txn_id": 1, "kind": "row_upsert"},
        {"lsn": 0, "txn_id": 1, "kind": ""},
        {"lsn": 0, "txn_id": 1, "kind": None},
        {"lsn": 0, "txn_id": 1},
    ],
    ids=["unknown", "empty", "none", "missing"],
)
def test_unknown_kinds_are_rejected_explicitly(payload):
    with pytest.raises(ValueError, match="unknown log record kind"):
        LogRecord.from_dict(payload)


def test_round_trip_through_the_replication_frame_shape():
    """A batch of wire dicts survives a JSON hop, order intact."""
    import json

    records = [
        LogRecord(lsn=i, kind=kind, **_EXEMPLARS[kind])
        for i, kind in enumerate(RecordKind)
    ]
    hopped = json.loads(json.dumps([r.to_dict() for r in records]))
    assert [LogRecord.from_dict(p) for p in hopped] == records


# ----------------------------------------------------------------------
# WriteAheadLog.stats(): last_lsn and per-kind counts (satellite 2)
# ----------------------------------------------------------------------


def test_stats_exposes_last_lsn_and_kind_counts():
    wal = WriteAheadLog()
    assert wal.stats()["last_lsn"] == -1
    txn = 1
    wal.log_begin(txn)
    wal.log_create_lo(txn, "spc:1", "spc")
    wal.log_page_alloc(txn, "spc:1", 0, "spc")
    wal.log_page_write(txn, "spc:1", 0, b"old", b"new", "spc")
    wal.log_page_write(txn, "spc:1", 0, b"new", b"newer", "spc")
    wal.log_commit(txn)
    stats = wal.stats()
    assert stats["last_lsn"] == 5
    assert stats["kind.begin"] == 1
    assert stats["kind.create_lo"] == 1
    assert stats["kind.page_alloc"] == 1
    assert stats["kind.page_write"] == 2
    assert stats["kind.commit"] == 1
    assert stats["records"] == 6


def test_stats_counts_logical_kinds_and_ddl():
    wal = WriteAheadLog()
    wal.ship_rows = True
    wal.log_ddl("CREATE TABLE t (id INTEGER)")
    txn = 9
    wal.log_begin(txn)
    wal.log_row_insert(txn, "t", 0, {"id": "1"})
    wal.log_row_update(txn, "t", 0, {"id": "2"})
    wal.log_row_delete(txn, "t", 0)
    wal.log_commit(txn)
    stats = wal.stats()
    assert stats["kind.ddl"] == 1
    assert stats["kind.row_insert"] == 1
    assert stats["kind.row_update"] == 1
    assert stats["kind.row_delete"] == 1
    assert stats["last_lsn"] == 5
    # DDL is auto-committed by construction; the row txn committed too.
    assert wal.is_committed(DDL_TXN)
    assert wal.is_committed(txn)


def test_stats_does_not_require_reaching_into_records():
    """The counters come from bookkeeping, not a scan of ``_records``
    -- stats on a long log is O(kinds), and the per-kind counts agree
    with the record list."""
    from collections import Counter

    wal = WriteAheadLog()
    for txn in range(1, 30):
        wal.log_begin(txn)
        wal.log_page_write(txn, "spc:1", txn, b"a", b"b", "spc")
        (wal.log_commit if txn % 3 else wal.log_abort)(txn)
    stats = wal.stats()
    records = list(wal.records())
    expected = Counter(record.kind.value for record in records)
    for kind, count in expected.items():
        assert stats[f"kind.{kind}"] == count
    assert stats["last_lsn"] == len(records) - 1
