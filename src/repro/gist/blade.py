"""The generic GiST DataBlade (``gist_am``).

The paper's conclusion made concrete: *one* set of purpose functions
serves every GiST instantiation; the *operator class* chosen at
``CREATE INDEX`` time selects the extension (key class) -- "use
specially designed operator classes to extend it".  Shipping opclasses:

* ``gist_rect_ops`` -- Box column, strategies Overlap/Contains/Within/
  Equal (the R-tree instance);
* ``gist_interval_ops`` -- INTEGER/FLOAT column, comparison strategies
  (the B+-tree instance).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.datablade.amkit import AccessMethodKit
from repro.gist.extension import GistExtension
from repro.gist.extensions import IntervalExtension, RectExtension
from repro.gist.tree import GiST, GistNodeStore
from repro.server.access_method import (
    IndexDescriptor,
    RowReference,
    ScanDescriptor,
)
from repro.server.errors import AccessMethodError


class GistDataBlade(AccessMethodKit):
    PREFIX = "gs"
    LIBRARY_PATH = "usr/functions/gist.bld"
    AM_NAME = "gist_am"
    METADATA_TABLE = "gist_indexdata"
    META_MAGIC = b"GIST"

    def __init__(self, server) -> None:
        super().__init__(server)
        #: opclass name (lowercase) -> extension instance.
        self.extensions: Dict[str, GistExtension] = {}

    def register_extension(self, opclass_name: str, extension: GistExtension):
        self.extensions[opclass_name.lower()] = extension
        return extension

    def _extension(self, td: IndexDescriptor) -> GistExtension:
        name = td.opclass_names[0].lower()
        try:
            return self.extensions[name]
        except KeyError:
            raise AccessMethodError(
                f"no GiST extension registered for operator class {name}"
            ) from None

    # ------------------------------------------------------------------
    # Kit hooks: the extension is the operator class's part
    # ------------------------------------------------------------------

    def _validate(self, td: IndexDescriptor) -> None:
        super()._validate(td)
        self._extension(td)  # fails fast for unknown opclasses

    def _build(self, td: IndexDescriptor, pools, row):
        meta = self._meta(td, pools[0], row)
        return {"tree": GiST(GistNodeStore(pools[0], self._extension(td)), **meta)}

    def _key(self, td: IndexDescriptor, value: Any):
        return self._extension(td).key_for_value(value)

    def _leaf(self, td: IndexDescriptor, qual):
        return self._extension(td).query_for(qual.function, qual.constant)

    def _scan(self, td: IndexDescriptor, branches) -> "_GScan":
        return _GScan(self._tree(td), self._extension(td), branches)

    def gs_scancost(self, sd: ScanDescriptor) -> float:
        tree = sd.index.user_data.get("tree")
        height = tree.height if tree is not None else 2
        return float(height + 1)


class _GScan:
    def __init__(self, tree: GiST, extension: GistExtension, branches) -> None:
        self.tree = tree
        self.extension = extension
        self.branches = branches
        self.reset()

    def reset(self) -> None:
        self._results = []
        self._pos = 0
        seen = set()
        # Leaf keys are needed for the residual predicates of a branch;
        # collect them during the probe.
        for branch in self.branches:
            primary = branch[0]
            for node in self._probe_nodes(primary):
                for entry in node.entries:
                    if not self.extension.matches(entry.key, primary):
                        continue
                    if any(
                        not self.extension.matches(entry.key, q)
                        for q in branch[1:]
                    ):
                        continue
                    pointer = (entry.rowid, entry.fragid)
                    if pointer in seen:
                        continue
                    seen.add(pointer)
                    self._results.append((entry.rowid, entry.fragid, entry.key))

    def _probe_nodes(self, query):
        stack = [self.tree.root_id]
        while stack:
            node = self.tree.store.read(stack.pop())
            if node.leaf:
                yield node
            else:
                for entry in node.entries:
                    if self.extension.consistent(entry.key, query):
                        stack.append(entry.child)

    def next(self) -> Optional[RowReference]:
        if self._pos >= len(self._results):
            return None
        rowid, fragid, key = self._results[self._pos]
        self._pos += 1
        return RowReference(rowid=rowid, fragid=fragid, row=(key,))


def register_gist_blade(server) -> GistDataBlade:
    """Install the generic GiST access method with its two shipped
    operator classes (rect and interval instantiations)."""
    blade = GistDataBlade(server)
    # The rect instantiation indexes Box columns; make the type available
    # even when the R-tree blade is not installed.
    from repro.rblade.blade import BOX_TYPE_NAME, make_box_type

    if BOX_TYPE_NAME not in server.types:
        server.types.register(make_box_type())
    # Rect strategies over Box (registered by the R-tree blade when both
    # are installed; register private spellings to stay independent),
    # then interval strategies over numbers.
    boxes = (BOX_TYPE_NAME, BOX_TYPE_NAME)
    udrs = [
        ("GS_Overlap", boxes, "boolean", "gist_overlap_udr",
         lambda a, b: a.intersects(b)),
        ("GS_Contains", boxes, "boolean", "gist_contains_udr",
         lambda a, b: a.contains(b)),
        ("GS_Within", boxes, "boolean", "gist_within_udr",
         lambda a, b: b.contains(a)),
        ("GS_Equal", boxes, "boolean", "gist_equal_udr", lambda a, b: a == b),
    ]
    numeric = (
        ("GS_NumEqual", "gist_num_eq_udr", lambda a, b: a == b),
        ("GS_GreaterThan", "gist_num_gt_udr", lambda a, b: a > b),
        ("GS_GreaterThanOrEqual", "gist_num_ge_udr", lambda a, b: a >= b),
        ("GS_LessThan", "gist_num_lt_udr", lambda a, b: a < b),
        ("GS_LessThanOrEqual", "gist_num_le_udr", lambda a, b: a <= b),
    )
    for type_name in ("INTEGER", "FLOAT"):
        udrs += [
            (name, (type_name, type_name), "boolean", symbol, fn)
            for name, symbol, fn in numeric
        ]
    blade.install(
        udrs,
        [
            ("gist_rect_ops", True, [udr[0] for udr in udrs[:4]], ()),
            ("gist_interval_ops", False, [name for name, _, _ in numeric], ()),
        ],
    )
    blade.register_extension("gist_rect_ops", RectExtension())
    blade.register_extension("gist_interval_ops", IntervalExtension())
    return blade
