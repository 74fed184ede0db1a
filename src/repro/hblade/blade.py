"""The Griffin-style hybrid access method (``hblade_am``).

One virtual index, two structures over the same keys: a
:class:`~repro.hblade.directory.HashDirectory` for point lookups and the
existing :class:`~repro.btree.tree.BPlusTree` for range scans, each in
its own smart blob of the index's sbspace.  ``hb_beginscan`` converts
the qualification to DNF and routes every branch: an equality branch
(bounds collapse to one key) probes the hash side, anything else walks
the tree side -- the plan-visible split Griffin argues for (PAPERS.md).

Consistency between the paths is the precision-locking-style
:class:`~repro.hblade.guard.PrecisionGuard`: every mutation publishes
its key around the two-structure update window (hash write first, tree
write second -- each behind its own ``SET FAULT`` failpoint), and a
hash-path probe that overlaps a publication falls back to the tree path
instead of trusting the possibly-torn hash view.

Step 4 extensibility works as in the B+-tree blade, doubled: the
operator class supplies *two* support functions, ``HB_Compare`` for the
tree order and ``HB_Hash`` for bucket placement, both resolved
dynamically at call time.  Contract between them: values that compare
equal must hash equal, and the key codec must be injective up to
comparator equality -- the blade canonicalizes the one stock violation
(IEEE ``-0.0`` vs ``0.0``) before encoding.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.bblade.blade import (
    KeyScan,
    OrderedKeyBlade,
    _RANGES,
    _canonical,
    _natural,
)
from repro.btree.node import BTreeNodeStore
from repro.btree.tree import BPlusTree
from repro.hblade.check import verify_hybrid
from repro.hblade.directory import HashDirectory, fnv1a
from repro.hblade.guard import PrecisionGuard
from repro.server.access_method import IndexDescriptor, ScanDescriptor
from repro.server.errors import AccessMethodError

#: am_scancost terms: a hash probe is one bucket chain, a tree branch a
#: root-to-leaf descent plus leaf walking.
_POINT_COST = 1.5
_RANGE_COST_PAD = 2.0


def hb_hash_udr(value) -> int:
    """The default ``HB_Hash`` support: deterministic FNV-1a over the
    value's canonical text.  Satisfies the opclass contract with the
    natural comparator: equal values produce equal text."""
    return fnv1a(repr(_canonical(value)).encode("utf-8"))


class HybridDataBlade(OrderedKeyBlade):
    """Two blobs per index -- tree pages and hash directory -- under one
    set of kit purpose functions."""

    PREFIX = "hb"
    LIBRARY_PATH = "usr/functions/hblade.bld"
    AM_NAME = "hblade_am"
    OPCLASS_NAME = "hblade_ops"
    METADATA_TABLE = "hblade_indexdata"
    BLOBS = ("tree", "hash")
    METADATA_COLUMNS = (
        ("indexname", "LVARCHAR"),
        ("treehandle", "LVARCHAR"),
        ("hashhandle", "LVARCHAR"),
    )
    META_MAGIC = b"HTB1"
    SUPPORTS = (
        ("HB_Compare", 2, "hb_compare_udr", _natural),
        ("HB_Hash", 1, "hb_hash_udr", hb_hash_udr),
    )

    def __init__(self, server) -> None:
        super().__init__(server)
        #: One guard per index name; guards are process-local state (a
        #: crash drops them with the rest of volatile memory).
        self._guards: Dict[str, PrecisionGuard] = {}

    # ------------------------------------------------------------------
    # Codec and dynamic support resolution (Step 4)
    # ------------------------------------------------------------------

    def _hasher(self, td: IndexDescriptor):
        """The bucket-placement function over *encoded* keys, routed
        through the opclass's ``HB_Hash`` support UDR."""
        hash_name = self._support_name(td, "hash")
        key_type = self._key_type(td)
        type_name = key_type.name
        routines = self.server.catalog.routines

        def hash_key(key: bytes) -> int:
            routine = routines.resolve(hash_name, (type_name,))
            routines.invocations += 1
            return routine(key_type.receive(key))

        return hash_key

    def _encode(self, td: IndexDescriptor, value: Any) -> bytes:
        return self._key_type(td).send(_canonical(value))

    # ------------------------------------------------------------------
    # Kit hooks and helpers
    # ------------------------------------------------------------------

    def _guard(self, index_name: str) -> PrecisionGuard:
        return self._guards.setdefault(index_name.lower(), PrecisionGuard())

    def _inc(self, name: str, amount: float = 1) -> None:
        self.server.obs.inc(name, amount)

    def _build(self, td: IndexDescriptor, pools, row) -> Dict[str, Any]:
        tree_pool, hash_pool = pools
        tree = BPlusTree(
            BTreeNodeStore(tree_pool),
            self._comparator(td),
            **self._meta(td, tree_pool, row),
        )
        split_threshold = int(self._setting(td, "split_threshold", 16))
        if row is None:
            directory = HashDirectory.create(
                hash_pool,
                self._hasher(td),
                initial_buckets=int(self._setting(td, "buckets", 8)),
                split_threshold=split_threshold,
            )
        else:
            directory = HashDirectory.open(
                hash_pool, self._hasher(td), split_threshold=split_threshold
            )
        return {"tree": tree, "directory": directory}

    def _save(self, td: IndexDescriptor) -> None:
        super()._save(td)
        if td.user_data["blobs"][1].is_writable:
            td.user_data["directory"].save()

    def _forget(self, td: IndexDescriptor) -> None:
        super()._forget(td)
        self._guards.pop(td.index_name.lower(), None)

    def _attach_obs(self, td: IndexDescriptor) -> None:
        tree_pool, hash_pool = td.user_data["pools"]
        obs = self.server.obs
        obs.attach_buffer_pool(f"index.{td.index_name}.tree", tree_pool)
        obs.attach_buffer_pool(f"index.{td.index_name}.hash", hash_pool)

    def _scan(self, td: IndexDescriptor, branches) -> "_HScan":
        return _HScan(self, td, branches)

    def _verify(self, td: IndexDescriptor) -> None:
        verify_hybrid(td.user_data["tree"], td.user_data["directory"])

    # ------------------------------------------------------------------
    # Purpose functions
    # ------------------------------------------------------------------

    def hb_beginscan(self, sd: ScanDescriptor) -> int:
        self.am_beginscan(sd)
        obs = self.server.obs
        if obs.enabled:
            scan = sd.user_data["scan"]
            with obs.span(
                "hblade.scan",
                index=sd.index.index_name,
                path=scan.path,
                hash_branches=scan.hash_branches,
                tree_branches=scan.tree_branches,
            ):
                pass
        return 0

    def hb_insert(self, td: IndexDescriptor, newrow, newrowid: int) -> int:
        self._writable(td)
        key = self._encode(td, newrow[0])
        directory: HashDirectory = td.user_data["directory"]
        faults = self.server.faults
        rehashes_before = directory.rehashes
        with self._guard(td.index_name).publishing(key):
            # Hash side first, tree side second: the window between the
            # two is exactly what the guard and the crash matrix probe.
            if faults is not None:
                faults.hit("hblade.hash_write")
            directory.insert(key, newrowid)
            if faults is not None:
                faults.hit("hblade.tree_write")
            td.user_data["tree"].insert(key, newrowid)
        self._inc("hblade.inserts")
        if directory.rehashes != rehashes_before:
            self._inc("hblade.rehashes")
        return 0

    def hb_delete(self, td: IndexDescriptor, oldrow, oldrowid: int) -> int:
        self._writable(td)
        key = self._encode(td, oldrow[0])
        directory: HashDirectory = td.user_data["directory"]
        faults = self.server.faults
        with self._guard(td.index_name).publishing(key):
            if faults is not None:
                faults.hit("hblade.hash_write")
            hash_found = directory.delete(key, oldrowid)
            if faults is not None:
                faults.hit("hblade.tree_write")
            tree_found = td.user_data["tree"].delete(key, oldrowid)
        if not (hash_found and tree_found):
            raise AccessMethodError(
                f"index {td.index_name} has no entry for rowid {oldrowid} "
                f"(hash={hash_found}, tree={tree_found})"
            )
        self._inc("hblade.deletes")
        return 0

    # -- cost, stats ---------------------------------------------------

    def hb_scancost(self, sd: ScanDescriptor) -> float:
        """The optimizer hook: equality branches are priced as hash
        probes, range branches as tree descents -- so against a plain
        B+-tree index on the same column, equality predicates route
        here and the plan output shows it."""
        td = sd.index
        tree = td.user_data.get("tree")
        if tree is None:
            entry = self._handles.get(td.index_name.lower())
            tree = entry["tree"] if entry else None
        height = tree.height if tree is not None else 2
        hash_on = self._flag(td, "hash_path", True)
        cost = 0.0
        for branch in self._branches(td, sd.qualification):
            if hash_on and self._is_point(branch):
                cost += _POINT_COST
            else:
                cost += height + _RANGE_COST_PAD
        return cost

    def _is_point(self, branch) -> bool:
        """Equality-only detection without an open index: a branch whose
        templates pin both bounds to one constant."""
        lows = [c for name, c in branch if _RANGES[name][0] == "K"]
        highs = [c for name, c in branch if _RANGES[name][1] == "K"]
        return bool(
            lows
            and highs
            and any(name == "equal" for name, _ in branch)
        )

    def hb_stats(self, td: IndexDescriptor) -> Dict[str, float]:
        stats: Dict[str, float] = dict(self._tree(td).stats())
        for name, value in td.user_data["directory"].stats().items():
            stats[f"hash_{name}"] = value
        stats["guard_fallbacks"] = self._guard(td.index_name).fallbacks
        return stats


class _HScan(KeyScan):
    """DNF scan routing each branch to its path, with deduplication."""

    def __init__(self, blade: HybridDataBlade, td: IndexDescriptor, branches):
        self.blade = blade
        self.directory: HashDirectory = td.user_data["directory"]
        self.guard = blade._guard(td.index_name)
        self.hash_enabled = blade._flag(td, "hash_path", True)
        super().__init__(td.user_data["tree"], blade._key_type(td), branches)

    def _probe_hash(self, key: bytes) -> Tuple[List[Tuple[int, int]], bool]:
        """The guarded point lookup: probe, then validate against the
        precision guard; any overlap falls back to the tree path.

        Returns ``(matches, used_hash)`` so the caller can attribute
        the branch to the path that actually served it."""
        stamp = self.guard.read_stamp()
        if not self.guard.conflicts(key):
            matches = self.directory.lookup(key)
            if self.guard.validate(key, stamp):
                self.blade._inc("hblade.hash_path")
                return matches, True
        self.guard.record_fallback()
        self.blade._inc("hblade.guard_fallbacks")
        self.blade._inc("hblade.tree_path")
        return self.tree.search_equal(key), False

    def probe(self, branch) -> List[Tuple[int, int, bytes]]:
        low, high, low_inc, high_inc = self.bounds(branch)
        is_point = (
            low is not None
            and high is not None
            and low_inc
            and high_inc
            and low == high
        )
        if is_point and self.hash_enabled:
            self.blade._inc("hblade.point_lookups")
            matches, used_hash = self._probe_hash(low)
            if used_hash:
                self.hash_branches += 1
            else:
                self.tree_branches += 1
            return [(rowid, fragid, low) for rowid, fragid in matches]
        self.tree_branches += 1
        if is_point:
            self.blade._inc("hblade.point_lookups")
        else:
            self.blade._inc("hblade.range_scans")
        self.blade._inc("hblade.tree_path")
        return [
            (rowid, fragid, key)
            for key, rowid, fragid in self.tree.search_range(
                low, high, low_inc, high_inc
            )
        ]

    def reset(self) -> None:
        self.hash_branches = 0
        self.tree_branches = 0
        super().reset()
        if self.hash_branches and self.tree_branches:
            self.path = "mixed"
        elif self.hash_branches:
            self.path = "hash"
        else:
            self.path = "tree"
