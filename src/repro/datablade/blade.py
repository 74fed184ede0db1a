"""The GR-tree DataBlade: purpose functions and blade state (Appendix A).

The fourteen ``grt_*`` purpose functions follow the steps of the paper's
Table 5, traced step by step under the ``grt`` trace class so that the
Table 5 benchmark can verify them.  Blade state lives where the paper
puts it:

* the ``Tree`` object and the open BLOB in the *index descriptor*'s user
  data (created by ``grt_create``/``grt_open``, deleted by ``grt_close``);
* the ``Cursor`` in the *scan descriptor*'s user data (created by
  ``grt_beginscan`` from the qualification descriptor);
* the transaction's constant current-time value in *named memory* keyed
  by session id, freed by a transaction-end callback (Section 5.4);
* the (index name, fragment id, BLOB handle) record in the table
  associated with the access method, ``grtree_indexdata``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.datablade import bladesmith
from repro.datablade.amkit import AccessMethodKit
from repro.datablade.qualification import QualificationPlan, build_plan
from repro.datablade.time_extent import TYPE_NAME
from repro.grtree.cursor import Cursor
from repro.grtree.node import GRNodeStore
from repro.grtree.specialize import SpecializedOps
from repro.grtree.tree import GRTree
from repro.server.access_method import (
    IndexDescriptor,
    RowReference,
    ScanDescriptor,
)
from repro.server.errors import AccessMethodError
from repro.storage.buffer import BufferPool
from repro.storage.sbspace import LargeObjectHandle
from repro.temporal.chronon import Chronon
from repro.temporal.extent import TimeExtent

#: Trace class for purpose-function steps (the Table 5 reproduction).
TRACE_GRT = "grt"


class GRTreeDataBlade(AccessMethodKit):
    """Configuration and implementation of the GR-tree access method.

    The create/open/close/drop lifecycle, the metadata row and the
    handle cache come from :class:`AccessMethodKit`; this class adds the
    GR-tree's checks, its Tree object, the transaction's current time
    and the Table 5 step trace.
    """

    PREFIX = "grt"
    LIBRARY_PATH = "usr/functions/grtree.bld"
    AM_NAME = "grtree_am"
    OPCLASS_NAME = "grt_opclass"
    METADATA_TABLE = "grtree_indexdata"
    METADATA_COLUMNS = bladesmith.GRT_METADATA_COLUMNS

    def __init__(
        self, server, time_horizon: int = 20, handle_cache: bool = True
    ) -> None:
        super().__init__(server)
        self.time_horizon = time_horizon
        #: Keep Tree/pool/BLOB objects of closed indices for the next
        #: ``grt_open`` instead of rebuilding them per statement.  The
        #: BLOB is still opened and closed per statement (locks follow
        #: the paper's protocol); only the object rebuild is skipped.
        self.handle_cache = handle_cache

    # ------------------------------------------------------------------
    # Current time and transactions (Section 5.4)
    # ------------------------------------------------------------------

    def _named_now_key(self, session) -> str:
        return f"grt_now.session{session.session_id}"

    def current_time(self, session=None) -> Chronon:
        """The transaction's constant current time, if sampled; else the
        clock (seqscan UDR invocations run outside any index open)."""
        if session is not None and session.in_transaction:
            key = self._named_now_key(session)
            if self.server.memory.named_exists(key):
                return self.server.memory.named_get(key)
        return self.server.clock.now

    def _sample_current_time(self, session) -> Chronon:
        """First index use in the transaction samples the clock into
        named memory and registers the freeing callback."""
        if session is None or not session.in_transaction:
            return self.server.clock.now
        key = self._named_now_key(session)
        if self.server.memory.named_exists(key):
            return self.server.memory.named_get(key)
        value = self.server.clock.now
        self.server.memory.named_allocate(key, value)

        def free_named_now(ended_session, committed: bool) -> None:
            if self.server.memory.named_exists(key):
                self.server.memory.named_free(key)

        session.register_end_callback(free_named_now)
        return value

    # ------------------------------------------------------------------
    # Kit hooks
    # ------------------------------------------------------------------

    def _step(self, slot: str, step: int, text: str) -> None:
        self.server.trace.emit(TRACE_GRT, 2, f"grt_{slot}({step}) {text}")

    def _validate(self, td: IndexDescriptor) -> None:
        """Steps 1-4 of ``grt_create``: the checks before any storage."""
        self._step("create", 1, "create Tree object")
        if tuple(t.upper() for t in td.column_types) != (TYPE_NAME.upper(),):
            self._step("create", 2, "column type check failed")
            raise AccessMethodError(
                f"{self.AM_NAME} indexes exactly one {TYPE_NAME} column, "
                f"got {td.column_types}"
            )
        self._step("create", 2, "column types accepted")
        from repro.datablade.strategies import HARD_CODED_PREDICATES

        for opclass_name in td.opclass_names:
            opclass = self.server.catalog.opclasses.get(opclass_name)
            unknown = [
                s for s in opclass.strategies
                if s.lower() not in HARD_CODED_PREDICATES
            ]
            if unknown:
                self._step("create", 3, "operator class check failed")
                raise AccessMethodError(
                    f"operator class {opclass.name} declares strategies the "
                    f"hard-coded GR-tree cannot serve: {unknown} (Section 5.2)"
                )
        self._step("create", 3, "operator class accepted")
        duplicate = [
            info
            for info in self.server.catalog.indices_on(td.table_name)
            if info.name.lower() != td.index_name.lower()
            and tuple(c.lower() for c in info.columns)
            == tuple(c.lower() for c in td.columns)
            and info.am_name.lower() == td.am_name.lower()
            and info.parameters == td.parameters
        ]
        if duplicate:
            self._step("create", 4, "duplicate index check failed")
            raise AccessMethodError(
                f"an equivalent {self.AM_NAME} index already exists: "
                f"{duplicate[0].name}"
            )
        self._step("create", 4, "no equivalent index exists")

    def _build(self, td: IndexDescriptor, pools, row) -> Dict[str, Any]:
        node_cache = self._setting(td, "node_cache", self.server.node_cache_size)
        store = GRNodeStore(pools[0], node_cache_size=int(node_cache))
        if row is None:
            tree = GRTree.create(
                store, self.server.clock, time_horizon=self.time_horizon
            )
        else:
            tree = GRTree.open(store, self.server.clock, meta_page=row["metapage"])
        # Compile specialized/vectorized kernels once per handle (see
        # :mod:`repro.grtree.specialize`): the bundle lives and dies with
        # the tree object, so the storage-epoch check that invalidates
        # the handle cache invalidates the compiled code too.
        if self._flag(td, "specialize", self.server.specialize_indexes):
            tree.spec = SpecializedOps()
        tree.obs = self.server.obs
        return {"tree": tree, "store": store}

    def _attach_obs(self, td: IndexDescriptor) -> None:
        # Reopening replaces the previous pool under the same name, so
        # ``SHOW STATS`` always shows the live pool of each index.
        obs, name = self.server.obs, f"index.{td.index_name}"
        obs.attach_buffer_pool(name, td.user_data["pools"][0])
        obs.attach_node_cache(name, td.user_data["store"])
        if td.user_data["tree"].spec is not None:
            obs.attach_specializer(name, td.user_data["tree"].spec)

    # ------------------------------------------------------------------
    # Purpose functions (Table 5)
    # ------------------------------------------------------------------

    def grt_create(self, td: IndexDescriptor) -> int:
        self.am_create(td, fragid=0, metapage=0)
        # Record where the meta page landed so grt_open can find it.
        rowid, _ = self._metadata_row(td.index_name)
        self._metadata_table().update_row(
            rowid, {"metapage": td.user_data["tree"].meta_page}
        )
        self._sample_current_time(td.session)
        return 0

    def grt_open(self, td: IndexDescriptor) -> int:
        self.am_open(td)
        self._sample_current_time(td.session)
        return 0

    # -- scanning ---------------------------------------------------------

    def grt_beginscan(self, sd: ScanDescriptor) -> int:
        self._step("beginscan", 1, "get qualification descriptor qd")
        if sd.qualification is None:
            raise AccessMethodError("grt_beginscan needs a qualification")
        plan = build_plan(sd.qualification)
        self._step("beginscan", 2, "get index descriptor td")
        tree = self._tree(sd.index)
        now = self._sample_current_time(sd.index.session)
        self._step(
            "beginscan", 3, f"create Cursor ({len(plan.branches)} DNF branch(es))"
        )
        sd.user_data["scan"] = _BladeScan(tree, plan, now)
        self._step("beginscan", 4, "saved Cursor pointer in td")
        return 0

    def grt_rescan(self, sd: ScanDescriptor) -> int:
        self._step("rescan", 1, "get index descriptor td")
        scan = self._cursor(sd)
        self._step("rescan", 2, "get Cursor pointer")
        scan.reset()
        self._step("rescan", 3, "reset Cursor")
        return 0

    def grt_getnext(self, sd: ScanDescriptor) -> Optional[RowReference]:
        scan = self._cursor(sd)
        entry = scan.next()
        if entry is None:
            return None
        self._step("getnext", 4, f"formed retrowid from rowid={entry.rowid}")
        return RowReference(
            rowid=entry.rowid, fragid=entry.fragid, row=(entry.extent(),)
        )

    def grt_endscan(self, sd: ScanDescriptor) -> int:
        self._step("endscan", 1, "get index descriptor td")
        self._step("endscan", 2, "get Cursor pointer")
        sd.user_data.pop("scan", None)
        self._step("endscan", 3, "deleted Cursor")
        return 0

    def _cursor(self, sd: ScanDescriptor) -> "_BladeScan":
        scan = sd.user_data.get("scan")
        if scan is None:
            raise AccessMethodError("no scan in progress (grt_beginscan missing)")
        return scan

    # -- updates ------------------------------------------------------------

    def grt_insert(self, td: IndexDescriptor, newrow, newrowid: int) -> int:
        self._step("insert", 1, "get Tree object pointer")
        tree = self._tree(td)
        extent = self._extent_of(newrow)
        self._step("insert", 2, f"formed entry for rowid={newrowid}")
        self._writable(td)
        tree.insert(extent, newrowid)
        self._step("insert", 3, "inserted entry via Tree.insert()")
        return 0

    def grt_delete(self, td: IndexDescriptor, oldrow, oldrowid: int) -> int:
        self._step("delete", 1, "get Tree object pointer")
        tree = self._tree(td)
        extent = self._extent_of(oldrow)
        self._writable(td)
        if not tree.delete(extent, oldrowid):
            raise AccessMethodError(
                f"index {td.index_name} has no entry for rowid {oldrowid}"
            )
        self._step("delete", 4, "deleted entry via Tree.delete()")
        if tree.condensed:
            self._step("delete", 5, "tree condensed: open cursors reset")
        return 0

    def grt_update(
        self, td: IndexDescriptor, oldrow, oldrowid: int, newrow, newrowid: int
    ) -> int:
        self._step("update", 1, "invoke grt_delete")
        self.grt_delete(td, oldrow, oldrowid)
        self._step("update", 2, "invoke grt_insert")
        self.grt_insert(td, newrow, newrowid)
        return 0

    def _extent_of(self, row) -> TimeExtent:
        value = row[0]
        if not isinstance(value, TimeExtent):
            raise AccessMethodError(
                f"GR-tree rows carry one {TYPE_NAME}, got {value!r}"
            )
        return value

    # -- costing, statistics, checking ---------------------------------------

    def grt_scancost(self, sd: ScanDescriptor) -> float:
        if sd.qualification is None:
            return float("inf")
        plan = build_plan(sd.qualification)
        tree = self._tree_for_estimation(sd.index)
        now = self.current_time(sd.index.session)
        cost = 0.0
        for branch in plan.branches:
            cost += tree.scan_cost(branch[0].query, now=now)
        return cost

    def grt_stats(self, td: IndexDescriptor) -> Dict[str, float]:
        tree = self._tree(td)
        stats = tree.stats()
        stats.update(tree.quality())
        self._step("stats", 1, f"collected statistics: {sorted(stats)}")
        return stats

    def grt_check(self, td: IndexDescriptor) -> int:
        self.am_check(td)
        self._step("check", 1, "index is consistent")
        return 0

    def _tree_for_estimation(self, td: IndexDescriptor):
        """A tree view for costing without taking locks (planning time)."""
        if "tree" in td.user_data:
            return td.user_data["tree"]
        _, row = self._metadata_row(td.index_name)
        space = self.server.get_sbspace(td.space_name)
        blob = space.get(LargeObjectHandle(row["blobhandle"]))
        pool = BufferPool(blob, capacity=8)
        return GRTree.open(GRNodeStore(pool), self.server.clock, row["metapage"])


class _BladeScan:
    """Cursor state over the DNF plan: one GR-tree cursor per branch,
    branch-local residual predicates, cross-branch de-duplication."""

    def __init__(self, tree: GRTree, plan: QualificationPlan, now: Chronon) -> None:
        self.tree = tree
        self.plan = plan
        self.now = now
        self._branch = 0
        self._cursor: Optional[Cursor] = None
        self._seen: set = set()

    def reset(self) -> None:
        self._branch = 0
        self._cursor = None
        self._seen.clear()

    def next(self):
        while self._branch < len(self.plan.branches):
            branch = self.plan.branches[self._branch]
            if self._cursor is None:
                primary = branch[0]
                self._cursor = self.tree.search(
                    primary.query, primary.predicate, now=self.now
                )
            entry = self._cursor.next()
            if entry is None:
                self._branch += 1
                self._cursor = None
                continue
            key = (entry.rowid, entry.fragid)
            if key in self._seen:
                continue
            region = entry.region(self.now)
            if all(
                pred.predicate.leaf_test(region, pred.query.region(self.now))
                for pred in branch[1:]
            ):
                self._seen.add(key)
                return entry
        return None
