"""Write-ahead logging and recovery for the smart-blob space.

The paper (Section 5.3) notes that when index data lives in an sbspace,
the server's log manager -- not the DataBlade -- provides recovery.  This
module is that log manager: smart-blob page writes and large-object
lifecycle events are logged before they are applied, transactions can be
rolled back from before-images at runtime, and :meth:`WriteAheadLog.recover`
reconstructs the committed state after a simulated crash (redo from the
log onto an emptied space).

Neither rollback nor recovery pays for the log's history.  Each active
transaction keeps a chain of its own sbspace records per space (the
list form of ARIES' ``prev_lsn`` chain, Mohan et al., TODS 1992), so
rollback walks only what the transaction wrote.  A *checkpoint* folds
committed records below the oldest active transaction into a shadow
image per sbspace, redoing them with the same ``_redo`` recovery uses,
and drops their page images from the log; recovery folds the tail the
images lack and copies the space from its image.

For replication (``repro.repl``) the log additionally carries *logical*
records: DDL statement text and row-level insert/delete/update images.
Logical records are only appended while :attr:`WriteAheadLog.ship_rows`
is on (a served primary); an embedded engine pays nothing for them.
Physical sbspace records and logical records share one LSN sequence, so
a replica sees a gap-free stream and can detect drops by LSN alone.
"""

from __future__ import annotations

import base64
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

if TYPE_CHECKING:
    from repro.storage.sbspace import Sbspace

#: Reserved transaction id for auto-committed records (DDL): statement
#: text is logged only after the statement succeeded, so these records
#: are committed by construction.  Real transaction ids start at 1.
DDL_TXN = 0

#: A commit checkpoints once this many records below the oldest active
#: transaction wait to be folded.  It bounds the log's retained page
#: images and the tail recovery redoes; each fold costs a copy of the
#: page tables of the sbspaces it touches.
CHECKPOINT_RECORDS = 2048


class RecordKind(enum.Enum):
    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    CREATE_LO = "create_lo"
    DROP_LO = "drop_lo"
    PAGE_ALLOC = "page_alloc"
    PAGE_FREE = "page_free"
    PAGE_WRITE = "page_write"
    # Logical replication records (never replayed into an sbspace).
    ROW_INSERT = "row_insert"
    ROW_DELETE = "row_delete"
    ROW_UPDATE = "row_update"
    DDL = "ddl"


#: Kinds that :meth:`WriteAheadLog.recover` and ``Sbspace.rollback``
#: replay/undo physically; everything else is logical shipping payload.
SPACE_KINDS = frozenset(
    {
        RecordKind.CREATE_LO,
        RecordKind.DROP_LO,
        RecordKind.PAGE_ALLOC,
        RecordKind.PAGE_FREE,
        RecordKind.PAGE_WRITE,
    }
)


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    txn_id: int
    kind: RecordKind
    lo_handle: Optional[str] = None
    page_id: Optional[int] = None
    before: Optional[bytes] = None
    after: Optional[bytes] = None
    #: Logical fields (ROW_* / DDL records only).
    table: Optional[str] = None
    rowid: Optional[int] = None
    #: Column values in wire-text form (each via ``data_type.export_text``).
    row: Optional[dict] = None
    sql: Optional[str] = None
    #: Sbspace a physical record belongs to (``None`` on the other
    #: kinds).  Handles are numbered per space, so undo and redo must
    #: not cross spaces.
    space: Optional[str] = None

    # -- wire form ---------------------------------------------------------
    #
    # Replication ships records as JSON; bytes fields travel base64-coded.
    # ``from_dict`` is strict about the kind: an unknown kind means the
    # peer speaks a newer log format, and silently skipping records would
    # corrupt the replica, so it must be an explicit error.

    def to_dict(self) -> dict:
        payload = {
            "lsn": self.lsn,
            "txn_id": self.txn_id,
            "kind": self.kind.value,
        }
        if self.lo_handle is not None:
            payload["lo_handle"] = self.lo_handle
        if self.page_id is not None:
            payload["page_id"] = self.page_id
        if self.before is not None:
            payload["before"] = base64.b64encode(self.before).decode("ascii")
        if self.after is not None:
            payload["after"] = base64.b64encode(self.after).decode("ascii")
        if self.table is not None:
            payload["table"] = self.table
        if self.rowid is not None:
            payload["rowid"] = self.rowid
        if self.row is not None:
            payload["row"] = dict(self.row)
        if self.sql is not None:
            payload["sql"] = self.sql
        if self.space is not None:
            payload["space"] = self.space
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "LogRecord":
        try:
            kind = RecordKind(payload["kind"])
        except (KeyError, ValueError):
            raise ValueError(
                f"unknown log record kind: {payload.get('kind')!r}"
            ) from None
        before = payload.get("before")
        after = payload.get("after")
        return cls(
            lsn=int(payload["lsn"]),
            txn_id=int(payload["txn_id"]),
            kind=kind,
            lo_handle=payload.get("lo_handle"),
            page_id=payload.get("page_id"),
            before=None if before is None else base64.b64decode(before),
            after=None if after is None else base64.b64decode(after),
            table=payload.get("table"),
            rowid=payload.get("rowid"),
            row=payload.get("row"),
            sql=payload.get("sql"),
            space=payload.get("space"),
        )

    def without_images(self) -> "LogRecord":
        """This record with its page images dropped (a folded record)."""
        return LogRecord(
            self.lsn, self.txn_id, self.kind, self.lo_handle, self.page_id,
            space=self.space,
        )


class WriteAheadLog:
    """An append-only log with runtime rollback and crash recovery."""

    def __init__(self, faults=None) -> None:
        self._records: List[LogRecord] = []
        #: Active transaction id -> LSN of its BEGIN record.
        self._active: Dict[int, int] = {}
        self._committed: set[int] = set()
        self._aborted: set[int] = set()
        self._kind_counts: dict[str, int] = {}
        #: Undo chains: active transaction id -> sbspace name -> that
        #: transaction's records in the space, in LSN order.
        self._chains: Dict[int, Dict[str, List[LogRecord]]] = {}
        #: Page size of every sbspace logging here (a new image needs it).
        self._page_sizes: Dict[str, int] = {}
        #: The checkpoint: committed sbspace records below
        #: ``_folded_lsn`` are folded into one detached
        #: :class:`~repro.storage.sbspace.Sbspace` per space name.
        self._images: Dict[str, Sbspace] = {}
        self._folded_lsn = 0
        #: Records below this LSN have dropped their page images.  It
        #: trails ``_folded_lsn`` only while a release is cut short; the
        #: next checkpoint finishes it.
        self._released_lsn = 0
        self._checkpoints = 0
        #: Optional :class:`repro.faults.FaultRegistry`; ``None`` keeps
        #: the append path free of any fault-injection cost.
        self.faults = faults
        #: When on, the executor logs row images and the server logs DDL
        #: text, making the log a complete logical history from LSN 0.
        #: Served primaries turn this on at boot; embedded engines don't.
        self.ship_rows = False
        self._listeners: List[Callable[[LogRecord], None]] = []

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def add_listener(self, listener: Callable[[LogRecord], None]) -> None:
        """Call *listener* after every append (the shipper's wake-up)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[LogRecord], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def register_space(self, name: str, page_size: int) -> None:
        """Record that sbspace *name* logs here (checkpoints image it)."""
        self._page_sizes[name] = page_size

    def _append(self, txn_id: int, kind: RecordKind, **fields) -> LogRecord:
        if self.faults is not None:
            self.faults.hit("wal.append")
        record = LogRecord(lsn=len(self._records), txn_id=txn_id, kind=kind, **fields)
        self._records.append(record)
        key = kind.value
        self._kind_counts[key] = self._kind_counts.get(key, 0) + 1
        for listener in self._listeners:
            listener(record)
        return record

    def _append_space(
        self, txn_id: int, kind: RecordKind, space: str, **fields
    ) -> None:
        """Append a physical record and link it into its undo chain."""
        self._require_active(txn_id)
        record = self._append(txn_id, kind, space=space, **fields)
        self._chains.setdefault(txn_id, {}).setdefault(space, []).append(record)

    def log_begin(self, txn_id: int) -> None:
        if txn_id in self._active:
            raise ValueError(f"transaction {txn_id} already active")
        if txn_id in self._committed or txn_id in self._aborted:
            raise ValueError(f"transaction id {txn_id} was already used")
        self._active[txn_id] = len(self._records)
        self._append(txn_id, RecordKind.BEGIN)

    def log_commit(self, txn_id: int) -> None:
        self._require_active(txn_id)
        # The 'fsync' failpoint models the flush that makes the COMMIT
        # record durable: a crash here leaves the transaction active in
        # the log, so recovery discards it -- the commit never happened.
        if self.faults is not None:
            self.faults.hit("wal.fsync")
        self._end(txn_id)
        self._committed.add(txn_id)
        self._append(txn_id, RecordKind.COMMIT)

    def log_abort(self, txn_id: int) -> None:
        self._require_active(txn_id)
        self._end(txn_id)
        self._aborted.add(txn_id)
        self._append(txn_id, RecordKind.ABORT)

    def _end(self, txn_id: int) -> None:
        del self._active[txn_id]
        self._chains.pop(txn_id, None)

    def log_create_lo(self, txn_id: int, lo_handle: str, space: str) -> None:
        self._append_space(txn_id, RecordKind.CREATE_LO, space, lo_handle=lo_handle)

    def log_drop_lo(self, txn_id: int, lo_handle: str, space: str) -> None:
        self._append_space(txn_id, RecordKind.DROP_LO, space, lo_handle=lo_handle)

    def log_page_alloc(
        self, txn_id: int, lo_handle: str, page_id: int, space: str
    ) -> None:
        self._append_space(
            txn_id, RecordKind.PAGE_ALLOC, space, lo_handle=lo_handle, page_id=page_id
        )

    def log_page_free(
        self,
        txn_id: int,
        lo_handle: str,
        page_id: int,
        before: bytes,
        space: str,
    ) -> None:
        self._append_space(
            txn_id,
            RecordKind.PAGE_FREE,
            space,
            lo_handle=lo_handle,
            page_id=page_id,
            before=before,
        )

    def log_page_write(
        self,
        txn_id: int,
        lo_handle: str,
        page_id: int,
        before: bytes,
        after: bytes,
        space: str,
    ) -> None:
        self._append_space(
            txn_id,
            RecordKind.PAGE_WRITE,
            space,
            lo_handle=lo_handle,
            page_id=page_id,
            before=before,
            after=after,
        )

    # -- logical records (replication) ---------------------------------

    def log_row_insert(
        self, txn_id: int, table: str, rowid: int, row: dict
    ) -> None:
        self._require_active(txn_id)
        self._append(
            txn_id, RecordKind.ROW_INSERT, table=table, rowid=rowid, row=row
        )

    def log_row_delete(self, txn_id: int, table: str, rowid: int) -> None:
        self._require_active(txn_id)
        self._append(txn_id, RecordKind.ROW_DELETE, table=table, rowid=rowid)

    def log_row_update(
        self, txn_id: int, table: str, rowid: int, row: dict
    ) -> None:
        self._require_active(txn_id)
        self._append(
            txn_id, RecordKind.ROW_UPDATE, table=table, rowid=rowid, row=row
        )

    def log_ddl(self, sql: str) -> None:
        """Log a successful DDL statement verbatim (auto-committed)."""
        self._append(DDL_TXN, RecordKind.DDL, sql=sql)

    def _require_active(self, txn_id: int) -> None:
        if txn_id not in self._active:
            raise ValueError(f"transaction {txn_id} is not active")

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------

    def records(self) -> Iterable[LogRecord]:
        return iter(self._records)

    def records_from(self, lsn: int) -> List[LogRecord]:
        """Records with ``record.lsn >= lsn`` (the catch-up stream)."""
        if lsn <= 0:
            return list(self._records)
        return self._records[lsn:]

    def records_for(self, txn_id: int) -> List[LogRecord]:
        """Every record of *txn_id*: a scan of the whole log (rollback
        walks :meth:`undo_chain` instead)."""
        return [r for r in self._records if r.txn_id == txn_id]

    def undo_chain(self, txn_id: int, space: str) -> List[LogRecord]:
        """The active transaction's records in sbspace *space*, oldest
        first: what rolling it back there has to undo."""
        return list(self._chains.get(txn_id, {}).get(space, ()))

    def is_committed(self, txn_id: int) -> bool:
        return txn_id == DDL_TXN or txn_id in self._committed

    def is_active(self, txn_id: int) -> bool:
        return txn_id in self._active

    def active_transactions(self) -> frozenset[int]:
        """Transactions with a BEGIN but no COMMIT/ABORT yet.

        The crash harness reads this before recovery to model the lock
        table: locks are volatile, so whatever the crashed transactions
        held simply vanishes."""
        return frozenset(self._active)

    def last_lsn(self) -> int:
        """LSN of the newest record; ``-1`` for an empty log."""
        return len(self._records) - 1

    def __len__(self) -> int:
        return len(self._records)

    def stats(self) -> dict:
        """Counters pulled by the observability metrics collectors."""
        stats = {
            "records": len(self._records),
            "commits": len(self._committed),
            "aborts": len(self._aborted),
            "active": len(self._active),
            "last_lsn": len(self._records) - 1,
        }
        for kind, count in self._kind_counts.items():
            stats[f"kind.{kind}"] = count
        return stats

    def checkpoint_stats(self) -> dict:
        """Checkpoints taken, the LSN they folded up to, and the
        page-image bytes the log still holds.  Kept out of
        :meth:`stats`: obs snapshots those at every span boundary."""
        return {
            "checkpoints": self._checkpoints,
            "folded_lsn": self._folded_lsn,
            "retained_bytes": sum(
                len(r.before or b"") + len(r.after or b"")
                for r in self._records[self._released_lsn:]
            ),
        }

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def _horizon(self) -> int:
        """The LSN below which every transaction has ended: the oldest
        active transaction's BEGIN, or the end of the log."""
        return min(self._active.values(), default=len(self._records))

    def checkpoint_due(self) -> bool:
        return self._horizon() - self._folded_lsn >= CHECKPOINT_RECORDS

    def checkpoint(self) -> int:
        """Fold committed sbspace records below the horizon into the
        per-space images; returns how many were redone into them.

        The new images are built aside, so a crash before they are
        installed leaves the old checkpoint whole.  Once installed, the
        folded records keep their LSN, kind and addresses but drop
        their page images: recovery never reads them again.  A release
        cut short is finished here, even when there is nothing to fold.
        """
        from repro.storage.sbspace import Sbspace

        start, horizon = self._folded_lsn, self._horizon()
        folded = 0
        if horizon > start:
            if self.faults is not None:
                self.faults.hit("wal.checkpoint.fold")
            images = dict(self._images)
            forked = set()
            for lsn in range(start, horizon):
                record = self._records[lsn]
                if (
                    record.kind not in SPACE_KINDS
                    or record.txn_id not in self._committed
                ):
                    continue
                name = record.space
                if name not in forked:
                    image = Sbspace(name, page_size=self._page_sizes[name])
                    if name in images:
                        image._load_image(images[name])
                    images[name] = image
                    forked.add(name)
                images[name]._redo(record)
                folded += 1
            if self.faults is not None:
                self.faults.hit("wal.checkpoint.install")
            self._images, self._folded_lsn = images, horizon
            self._checkpoints += 1
        self._release()
        return folded

    def _release(self) -> None:
        """Drop the page images of every folded record that still has
        them, including those of an earlier, interrupted release."""
        start, end = self._released_lsn, self._folded_lsn
        if end <= start:
            return
        if self.faults is not None:
            self.faults.hit("wal.checkpoint.release")
        records = self._records
        for lsn in range(start, end):
            record = records[lsn]
            if record.before is not None or record.after is not None:
                records[lsn] = record.without_images()
        self._released_lsn = end

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self, space) -> int:
        """Rebuild *space* (an :class:`~repro.storage.sbspace.Sbspace`)
        to the committed state after a crash.

        Transactions that were still active at the crash are treated as
        aborted, so their records are never redone.  A checkpoint then
        folds every committed record the images lack -- the redo a
        restart from LSN 0 would do, done once, so the next recovery
        starts where this one ended -- and the space is copied from its
        image, each blob with its own page table.  Logical records
        carry no sbspace state and are skipped.  Returns the number of
        records folded.
        """
        self._aborted.update(self._active)
        self._active.clear()
        self._chains.clear()
        folded = self.checkpoint()
        space._reset_for_recovery()
        image = self._images.get(space.name)
        if image is not None:
            space._load_image(image)
        space._finish_recovery()
        return folded
