"""The R-tree DataBlade: ``Box`` opaque type + ``rtree_am``.

Mirrors the structure of the GR-tree blade at smaller scale: purpose
functions ``rt_*`` over an R*-tree persisted in one smart blob, a default
operator class with the strategies the paper lists for Informix's R-tree
(``Overlap``, ``Equal``, ``Contains``, ``Within``) and supports
(``Union``, ``Size``, ``Inter``).  Unlike the GR-tree blade, the strategy
functions here are dispatched *dynamically* through the UDR registry --
the non-hard-coded design alternative of Section 5.2 -- so the Figure 7
benchmark can compare both dispatch regimes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.datablade.amkit import AccessMethodKit
from repro.rtree.geometry import Rect
from repro.rtree.node import NodeStore
from repro.rtree.rstar import RStarTree
from repro.server.access_method import (
    IndexDescriptor,
    RowReference,
    ScanDescriptor,
)
from repro.server.datatypes import OpaqueType
from repro.server.errors import AccessMethodError, DataTypeError

BOX_TYPE_NAME = "Box"


def box_input(text: str) -> Rect:
    """Parse ``"(x1, y1, x2, y2)"`` into a rectangle."""
    cleaned = text.strip().strip("()")
    parts = [p.strip() for p in cleaned.split(",")]
    if len(parts) != 4:
        raise DataTypeError(f"a Box literal needs four coordinates: {text!r}")
    try:
        x1, y1, x2, y2 = (float(p) for p in parts)
    except ValueError:
        raise DataTypeError(f"invalid Box literal: {text!r}") from None
    if x1 > x2 or y1 > y2:
        raise DataTypeError(f"Box corners out of order: {text!r}")
    return Rect((x1, y1), (x2, y2))


def box_output(value: Rect) -> str:
    return f"({value.lo[0]:g}, {value.lo[1]:g}, {value.hi[0]:g}, {value.hi[1]:g})"


def make_box_type() -> OpaqueType:
    def validate(value):
        if not isinstance(value, Rect) or value.ndim != 2:
            raise DataTypeError(f"Box expected, got {value!r}")
        return value

    return OpaqueType(
        BOX_TYPE_NAME, input_fn=box_input, output_fn=box_output, validate_fn=validate
    )


#: Strategy semantics: leaf test + internal pruning test, as callables on
#: (entry_rect, query_rect).
_STRATEGIES: Dict[str, Tuple[Callable, Callable]] = {
    "overlap": (Rect.intersects, Rect.intersects),
    "equal": (lambda a, b: a == b, Rect.contains),
    "contains": (Rect.contains, Rect.contains),
    "within": (lambda a, b: b.contains(a), Rect.intersects),
}

#: Commuted forms for f(constant, column).
_COMMUTED = {
    "overlap": "overlap",
    "equal": "equal",
    "contains": "within",
    "within": "contains",
}

_UDR_NAMES = {
    "overlap": "Overlap",
    "equal": "Equal",
    "contains": "Contains",
    "within": "Within",
}


class RTreeDataBlade(AccessMethodKit):
    """The R-tree access method over 2-D boxes."""

    PREFIX = "rt"
    LIBRARY_PATH = "usr/functions/rtree.bld"
    AM_NAME = "rtree_am"
    OPCLASS_NAME = "rtree_ops"
    METADATA_TABLE = "rtree_indexdata"
    META_MAGIC = b"RTB1"

    def __init__(self, server) -> None:
        super().__init__(server)
        #: Dynamic dispatch: strategy tests resolved through the UDR
        #: registry per entry (the extensible design of Section 5.2).
        self.dynamic_dispatch = False

    def _validate(self, td: IndexDescriptor) -> None:
        if tuple(t.upper() for t in td.column_types) != (BOX_TYPE_NAME.upper(),):
            raise AccessMethodError(
                f"{self.AM_NAME} indexes exactly one {BOX_TYPE_NAME} column"
            )

    def _build(self, td: IndexDescriptor, pools, row):
        meta = self._meta(td, pools[0], row)
        return {"tree": RStarTree(NodeStore(pools[0], ndim=2), **meta)}

    def _leaf(self, td: IndexDescriptor, qual) -> Tuple[str, Rect]:
        name = qual.function.lower()
        if name not in _STRATEGIES:
            raise AccessMethodError(
                f"{qual.function} is not an R-tree strategy function"
            )
        if not isinstance(qual.constant, Rect):
            raise AccessMethodError(f"{qual.function} constant must be a Box")
        if qual.constant_first:
            name = _COMMUTED[name]
        return name, qual.constant

    def _scan(self, td: IndexDescriptor, branches) -> "_RScan":
        return _RScan(self, self._tree(td), branches)

    def rt_scancost(self, sd: ScanDescriptor) -> float:
        # A crude estimate: tree height plus a constant per DNF branch.
        tree = sd.index.user_data.get("tree")
        height = tree.height if tree is not None else 2
        return float(height + len(self._branches(sd.index, sd.qualification)))

    def leaf_test(self, strategy: str, entry_rect: Rect, query: Rect) -> bool:
        """Leaf-level test; dynamically dispatched through the UDR
        registry when ``dynamic_dispatch`` is on (Section 5.2)."""
        if self.dynamic_dispatch:
            routine = self.server.catalog.routines.resolve(
                _UDR_NAMES[strategy], (BOX_TYPE_NAME, BOX_TYPE_NAME)
            )
            self.server.catalog.routines.invocations += 1
            return bool(routine(entry_rect, query))
        return _STRATEGIES[strategy][0](entry_rect, query)


class _RScan:
    """DNF scan over the R*-tree with cross-branch de-duplication."""

    def __init__(self, blade, tree, branches) -> None:
        self.blade = blade
        self.tree = tree
        self.branches = branches
        self.reset()

    def reset(self) -> None:
        self._results: List[Tuple[int, int, Rect]] = []
        self._rects: Dict[Tuple[int, int], Rect] = {}
        self._pos = 0
        seen = set()
        for branch in self.branches:
            strategy, query = branch[0]
            for rowid, fragid in self._probe(strategy, query):
                if (rowid, fragid) in seen:
                    continue
                rect = self._rects.get((rowid, fragid))
                if rect is None:
                    continue
                if all(
                    self.blade.leaf_test(s, rect, q) for s, q in branch[1:]
                ):
                    seen.add((rowid, fragid))
                    self._results.append((rowid, fragid, rect))

    def _probe(self, strategy: str, query: Rect):
        """Index probe with the strategy's leaf test applied."""
        hits = []
        stack = [self.tree.root_id]
        while stack:
            node = self.tree.store.read(stack.pop())
            for entry in node.entries:
                if node.leaf:
                    if self.blade.leaf_test(strategy, entry.rect, query):
                        hits.append((entry.rowid, entry.fragid))
                        self._rects[(entry.rowid, entry.fragid)] = entry.rect
                else:
                    if _STRATEGIES[strategy][1](entry.rect, query):
                        stack.append(entry.child)
        return hits

    def next(self) -> Optional[RowReference]:
        if self._pos >= len(self._results):
            return None
        rowid, fragid, rect = self._results[self._pos]
        self._pos += 1
        return RowReference(rowid=rowid, fragid=fragid, row=(rect,))


def register_rtree_blade(server) -> RTreeDataBlade:
    """Install the R-tree DataBlade into *server*."""
    blade = RTreeDataBlade(server)
    server.types.register(make_box_type())
    box, boxes = (BOX_TYPE_NAME,), (BOX_TYPE_NAME, BOX_TYPE_NAME)
    blade.install(
        [
            ("Overlap", boxes, "boolean", "rt_overlap_udr", Rect.intersects),
            ("Equal", boxes, "boolean", "rt_equal_udr", lambda a, b: a == b),
            ("Contains", boxes, "boolean", "rt_contains_udr", Rect.contains),
            ("Within", boxes, "boolean", "rt_within_udr",
             lambda a, b: b.contains(a)),
            ("RT_Union", boxes, "pointer", "rt_union_udr", Rect.union),
            ("RT_Size", box, "pointer", "rt_size_udr", Rect.area),
            ("RT_Inter", boxes, "pointer", "rt_inter_udr", Rect.intersection),
        ],
        [(
            blade.OPCLASS_NAME,
            True,
            ("Overlap", "Equal", "Contains", "Within"),
            ("RT_Union", "RT_Size", "RT_Inter"),
        )],
        commutators={
            "Overlap": "Overlap",
            "Equal": "Equal",
            "Contains": "Within",
            "Within": "Contains",
        },
    )
    return blade
