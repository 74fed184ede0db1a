"""The B+-tree access method (``btree_am``) and its operator classes.

Unlike the GR-tree blade (which hard-codes everything, Section 5.2),
this blade resolves its ``Compare`` *support function* dynamically
through the operator class named at ``CREATE INDEX`` time -- so a second
operator class with a redefined comparator changes the order of an
index without touching a single purpose function, exactly the
extensibility story of Step 4.

Keys are the column type's binary ``send()`` representation; the
comparator UDR receives the *decoded* values.

:class:`OrderedKeyBlade` is the B+-tree family's shared strategy code --
ranges, commuted forms, key bounds, the comparator, the strategy UDRs
and their per-type registration -- used by this blade and the hybrid
blade (:mod:`repro.hblade`).
"""

from __future__ import annotations

import operator
from typing import Any, List, Optional, Tuple

from repro.btree.node import BTreeNodeStore
from repro.btree.tree import BPlusTree
from repro.datablade.amkit import AccessMethodKit
from repro.server.access_method import (
    IndexDescriptor,
    RowReference,
    ScanDescriptor,
)
from repro.server.errors import AccessMethodError

#: Types with binary send/receive, natural comparison, and stable repr.
INDEXABLE_TYPES = ("INTEGER", "FLOAT", "DATE", "LVARCHAR")

#: (strategy, symbol tag, test on the natural comparison, range template
#: (low, high, low_inclusive, high_inclusive) with ``K`` standing for the
#: constant key, commuted strategy): ``GreaterThan(c, col)`` means
#: ``col < c``, and so on.
_STRATEGIES = (
    ("Equal", "equal", operator.eq, ("K", "K", True, True), "Equal"),
    ("GreaterThan", "gt", operator.gt, ("K", None, False, True), "LessThan"),
    ("GreaterThanOrEqual", "ge", operator.ge, ("K", None, True, True),
     "LessThanOrEqual"),
    ("LessThan", "lt", operator.lt, (None, "K", True, False), "GreaterThan"),
    ("LessThanOrEqual", "le", operator.le, (None, "K", True, True),
     "GreaterThanOrEqual"),
)
_RANGES = {name.lower(): template for name, _, _, template, _ in _STRATEGIES}
_COMMUTED = {name.lower(): commuted.lower() for name, *_, commuted in _STRATEGIES}


def _natural(a, b) -> int:
    return (a > b) - (a < b)


def _canonical(value: Any) -> Any:
    """Collapse comparator-equal values with distinct encodings.

    The hash path matches on encoded bytes, so the codec must be
    injective up to ``HB_Compare`` equality; IEEE floats violate that
    once (``-0.0 == 0.0`` but the ``send()`` bytes differ).
    """
    if isinstance(value, float) and value == 0.0:
        return 0.0
    return value


class OrderedKeyBlade(AccessMethodKit):
    """A blade over encoded keys ordered by an opclass comparator."""

    #: Support functions: (SQL name, arity, symbol, callable).
    SUPPORTS: Tuple[Tuple[str, int, str, Any], ...] = ()

    def _key_type(self, td: IndexDescriptor):
        return self.server.catalog.types.get(td.column_types[0])

    def _support_name(self, td: IndexDescriptor, needle: str) -> str:
        opclass = self.server.catalog.opclasses.get(td.opclass_names[0])
        for name in opclass.supports:
            if needle in name.lower():
                return name
        raise AccessMethodError(
            f"operator class {opclass.name} declares no {needle} support"
        )

    def _comparator(self, td: IndexDescriptor):
        """Resolve the opclass's Compare support function dynamically --
        the non-hard-coded design of Section 5.2."""
        compare_name = self._support_name(td, "compare")
        key_type = self._key_type(td)
        type_name = key_type.name
        routines = self.server.catalog.routines

        def compare(a: bytes, b: bytes) -> int:
            routine = routines.resolve(compare_name, (type_name, type_name))
            routines.invocations += 1
            return routine(key_type.receive(a), key_type.receive(b))

        return compare

    def _leaf(self, td: IndexDescriptor, qual) -> Tuple[str, Any]:
        name = qual.function.lower()
        if name.startswith(self.PREFIX + "_"):
            name = name[len(self.PREFIX) + 1:]
        if name not in _RANGES:
            raise AccessMethodError(
                f"{qual.function} is not a {self.AM_NAME} strategy function"
            )
        if qual.constant_first:
            name = _COMMUTED[name]
        return name, qual.constant

    def install_family(self) -> None:
        """Register the five strategies and the opclass supports for
        every indexable type, with the commutator hints."""
        family = self.PREFIX.upper()
        udrs = []
        for type_name in INDEXABLE_TYPES:
            for name, tag, test, _, _ in _STRATEGIES:
                udrs.append((
                    f"{family}_{name}", (type_name, type_name), "boolean",
                    f"{self.PREFIX}_{tag}_udr",
                    lambda a, b, test=test: test(_natural(a, b), 0),
                ))
            for name, arity, symbol, fn in self.SUPPORTS:
                udrs.append((name, (type_name,) * arity, "int", symbol, fn))
        strategies = [f"{family}_{name}" for name, *_ in _STRATEGIES]
        supports = [name for name, *_ in self.SUPPORTS]
        self.install(
            udrs,
            [(self.OPCLASS_NAME, True, strategies, supports)],
            {f"{family}_{name}": f"{family}_{c}" for name, *_, c in _STRATEGIES},
        )


class KeyScan:
    """Materialized DNF scan over encoded keys, de-duplicated across
    branches; each branch is one key range of the tree."""

    def __init__(self, tree: BPlusTree, key_type, branches) -> None:
        self.tree = tree
        self.key_type = key_type
        self.branches = branches
        self.reset()

    def bounds(self, branch):
        """Intersect the branch's range predicates into one interval."""
        low = high = None
        low_inc = high_inc = True
        for name, constant in branch:
            key = self.key_type.send(_canonical(constant))
            t_low, t_high, t_low_inc, t_high_inc = _RANGES[name]
            if t_low == "K":
                if low is None or self.tree.compare(key, low) > 0 or (
                    self.tree.compare(key, low) == 0 and not t_low_inc
                ):
                    low, low_inc = key, t_low_inc
            if t_high == "K":
                if high is None or self.tree.compare(key, high) < 0 or (
                    self.tree.compare(key, high) == 0 and not t_high_inc
                ):
                    high, high_inc = key, t_high_inc
        return low, high, low_inc, high_inc

    def probe(self, branch) -> List[Tuple[int, int, bytes]]:
        return [
            (rowid, fragid, key)
            for key, rowid, fragid in self.tree.search_range(*self.bounds(branch))
        ]

    def reset(self) -> None:
        self._results: List[Tuple[int, int, bytes]] = []
        self._pos = 0
        seen = set()
        for branch in self.branches:
            for rowid, fragid, key in self.probe(branch):
                if (rowid, fragid) not in seen:
                    seen.add((rowid, fragid))
                    self._results.append((rowid, fragid, key))

    def next(self) -> Optional[RowReference]:
        if self._pos >= len(self._results):
            return None
        rowid, fragid, key = self._results[self._pos]
        self._pos += 1
        return RowReference(
            rowid=rowid, fragid=fragid, row=(self.key_type.receive(key),)
        )


class BTreeDataBlade(OrderedKeyBlade):
    PREFIX = "bt"
    LIBRARY_PATH = "usr/functions/btree.bld"
    AM_NAME = "btree_am"
    OPCLASS_NAME = "btree_ops"
    METADATA_TABLE = "btree_indexdata"
    META_MAGIC = b"BTB1"
    SUPPORTS = (("Compare", 2, "bt_compare_udr", _natural),)

    def _build(self, td: IndexDescriptor, pools, row):
        meta = self._meta(td, pools[0], row)
        return {
            "tree": BPlusTree(
                BTreeNodeStore(pools[0]), self._comparator(td), **meta
            )
        }

    def _key(self, td: IndexDescriptor, value: Any) -> bytes:
        return self._key_type(td).send(value)

    def _scan(self, td: IndexDescriptor, branches) -> KeyScan:
        return KeyScan(self._tree(td), self._key_type(td), branches)

    def bt_scancost(self, sd: ScanDescriptor) -> float:
        tree = sd.index.user_data.get("tree")
        height = tree.height if tree is not None else 2
        return float(height + len(self._branches(sd.index, sd.qualification)))


def register_btree_blade(server) -> BTreeDataBlade:
    """Install the B+-tree DataBlade; indexable types: INTEGER, FLOAT,
    DATE, LVARCHAR (anything with binary send/receive and a comparator
    overload)."""
    blade = BTreeDataBlade(server)
    blade.install_family()
    return blade
