"""Sessions, transactions, and transaction-end callbacks (Section 5.4).

A DataBlade cannot observe a transaction *begin* -- "the DataBlade API
does not provide means of capturing a transaction-begin event" -- but it
can register a callback that fires at transaction end, which is how the
GR-tree blade frees the named memory holding its sampled current time.

Statements run inside a transaction: an explicit ``BEGIN WORK`` one, or a
single-statement autocommit transaction the server wraps around the
statement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.faults import SimulatedCrash
from repro.server.errors import TransactionError
from repro.server.memory import Duration
from repro.storage.locks import IsolationLevel

#: A transaction-end callback: ``fn(session, committed: bool)``.
EndCallback = Callable[["Session", bool], None]


class Transaction:
    def __init__(self, txn_id: int, explicit: bool) -> None:
        self.txn_id = txn_id
        self.explicit = explicit
        self.end_callbacks: List[EndCallback] = []
        #: Deferred work (e.g. large-object drops that must survive abort).
        self.on_commit_actions: List[Callable[[], None]] = []


class Session:
    """One client connection: isolation level + transaction state."""

    _ids = itertools.count(1)

    def __init__(self, server) -> None:
        self.server = server
        self.session_id = next(Session._ids)
        self.isolation = IsolationLevel.COMMITTED_READ
        self.transaction: Optional[Transaction] = None
        #: Set by the serving layer (``repro.net``) when this session is
        #: bound to a network connection; tagged onto statement spans.
        self.connection_id: Optional[int] = None
        #: Distributed-trace context propagated by the wire client for
        #: the *current* statement; stamped onto its root span so the
        #: client, server, and storage spans stitch into one trace.
        self.trace_id: Optional[str] = None
        self.parent_span_id: Optional[int] = None
        #: The root span of this session's most recent statement -- the
        #: serving layer reads it to build ``explain_profile`` replies.
        self.last_root_span = None
        #: Replica staleness bound: ``("ms", n)``/``("lsn", n)`` set by
        #: ``SET READ STALENESS``; ``None`` means any lag is acceptable.
        self.read_staleness: Optional[tuple] = None

    # ------------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.transaction is not None

    def begin(self, explicit: bool = True) -> Transaction:
        if self.transaction is not None:
            raise TransactionError("transaction already in progress")
        txn_id = self.server.next_txn_id()
        self.transaction = Transaction(txn_id, explicit)
        self.server.wal.log_begin(txn_id)
        self.server.bind_transaction(self, txn_id)
        return self.transaction

    def register_end_callback(self, callback: EndCallback) -> None:
        """The DataBlade API's transaction-end callback registration."""
        if self.transaction is None:
            raise TransactionError("no transaction to register a callback on")
        self.transaction.end_callbacks.append(callback)

    def on_commit(self, action: Callable[[], None]) -> None:
        if self.transaction is None:
            raise TransactionError("no transaction in progress")
        self.transaction.on_commit_actions.append(action)

    def commit(self) -> None:
        txn = self._require_transaction()
        for action in txn.on_commit_actions:
            action()
        # Checkpoint before the COMMIT record: a crash while folding is
        # a crash before this transaction committed.
        wal = self.server.wal
        if wal.checkpoint_due():
            wal.checkpoint()
        wal.log_commit(txn.txn_id)
        self._finish(txn, committed=True)

    def rollback(self) -> None:
        txn = self._require_transaction()
        self.server.rollback_storage(txn.txn_id)
        self.server.wal.log_abort(txn.txn_id)
        self._finish(txn, committed=False)

    def _require_transaction(self) -> Transaction:
        if self.transaction is None:
            raise TransactionError("no transaction in progress")
        return self.transaction

    def _finish(self, txn: Transaction, committed: bool) -> None:
        self.transaction = None
        self.server.release_transaction(self, txn.txn_id)
        for callback in txn.end_callbacks:
            callback(self, committed)
        self.server.memory.end_duration(Duration.PER_TRANSACTION)

    # ------------------------------------------------------------------

    def autocommit(self):
        """Context manager wrapping a statement in a transaction if none
        is open (commit on success, roll back on error)."""
        return _Autocommit(self)


class _Autocommit:
    def __init__(self, session: Session) -> None:
        self.session = session
        self.started = False

    def __enter__(self) -> Session:
        if not self.session.in_transaction:
            self.session.begin(explicit=False)
            self.started = True
        return self.session

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.started:
            return
        if exc_type is not None and issubclass(exc_type, SimulatedCrash):
            # The engine "died" mid-statement: a real crash never gets
            # to run rollback, so neither does a simulated one.  All
            # volatile state stays frozen; the crash-consistency harness
            # recovers from the WAL instead.
            return
        if exc_type is None:
            self.session.commit()
        else:
            self.session.rollback()
