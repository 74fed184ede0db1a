"""The access-method kit shared by the five blades.

Every blade now runs the same open/close/handle-cache lifecycle, honours
the same per-index and server-wide settings, and records catalog hints
that name real routines.  Each test runs over all five access methods.
"""

import itertools

import pytest

from repro.bblade import register_btree_blade
from repro.datablade import register_grtree_blade
from repro.faults import FaultInjected
from repro.gist import register_gist_blade
from repro.hblade import register_hybrid_blade
from repro.rblade import register_rtree_blade
from repro.server import DatabaseServer
from repro.server.access_method import PURPOSE_SLOTS
from repro.temporal.chronon import Clock, format_chronon


def extent(i):
    return f"'{format_chronon(100 - i)}, UC, {format_chronon(90 - i)}, NOW'"


def box(i):
    return f"'({i}, {i}, {i + 1}, {i + 1})'"


#: am -> (register, column type, opclass suffix, literal, equality strategy)
AMS = {
    "btree_am": (register_btree_blade, "INTEGER", "", str, "BT_Equal"),
    "hblade_am": (register_hybrid_blade, "INTEGER", "", str, "HB_Equal"),
    "gist_am": (
        register_gist_blade, "INTEGER", " gist_interval_ops", str, "GS_NumEqual"
    ),
    "rtree_am": (register_rtree_blade, "Box", "", box, "Equal"),
    "grtree_am": (
        register_grtree_blade, "GRT_TimeExtent_t", "", extent, "Equal"
    ),
}


def make_server(am, with_clause="", **server_kwargs):
    register, col_type, opclass, _, _ = AMS[am]
    server = DatabaseServer(clock=Clock(now=100), **server_kwargs)
    server.create_sbspace("spc")
    blade = register(server)
    server.execute(f"CREATE TABLE t (k {col_type})")
    server.execute(
        f"CREATE INDEX ix ON t(k{opclass}) USING {am} IN spc {with_clause}"
    )
    server.prefer_virtual_index = True
    return server, blade


def insert(server, am, i):
    literal = AMS[am][3]
    return server.execute(f"INSERT INTO t VALUES ({literal(i)})")


def lookup(server, am, i):
    _, _, _, literal, equal = AMS[am]
    return server.execute(f"SELECT k FROM t WHERE {equal}(k, {literal(i)})")


@pytest.mark.parametrize("am", sorted(AMS))
def test_failed_close_leaves_no_stale_attachment(am):
    """A close that raises leaves the old structure attached; rollback
    then rewrites storage underneath it.  The next open must discard
    the attachment instead of resurrecting the rolled-back entry."""
    server, _ = make_server(am)
    for i in range(5):
        insert(server, am, i)
    server.execute("SET FAULT 'sbspace.page_write' RAISE")
    with pytest.raises(FaultInjected):
        insert(server, am, 99)
    server.execute("SET FAULT ALL OFF")
    assert lookup(server, am, 99) == []
    assert len(lookup(server, am, 3)) == 1
    assert "consistent" in server.execute("CHECK INDEX ix")


@pytest.mark.parametrize("am", sorted(AMS))
def test_with_buffer_capacity_sizes_the_pools(am):
    server, blade = make_server(am, "WITH (buffer_capacity = 8)")
    insert(server, am, 1)
    pools = blade._handles["ix"]["pools"]
    assert [pool.capacity for pool in pools] == [8] * len(blade.BLOBS)


@pytest.mark.parametrize("am", sorted(AMS))
def test_server_wide_buffer_capacity_applies(am):
    server, blade = make_server(am, buffer_capacity=24)
    insert(server, am, 1)
    assert {pool.capacity for pool in blade._handles["ix"]["pools"]} == {24}


@pytest.mark.parametrize("am", sorted(AMS))
def test_buffer_flush_failpoint_fires(am):
    server, _ = make_server(am)
    server.execute("SET FAULT 'buffer.flush' RAISE")
    with pytest.raises(FaultInjected):
        insert(server, am, 1)
    server.execute("SET FAULT ALL OFF")
    assert lookup(server, am, 1) == []
    insert(server, am, 1)
    assert len(lookup(server, am, 1)) == 1


@pytest.mark.parametrize("am", sorted(AMS))
def test_handles_are_reused_across_statements(am):
    server, blade = make_server(am)
    insert(server, am, 1)
    tree = blade._handles["ix"]["tree"]
    insert(server, am, 2)
    assert blade._handles["ix"]["tree"] is tree
    assert len(lookup(server, am, 2)) == 1


@pytest.mark.parametrize("am", sorted(AMS))
def test_exports_name_every_purpose_slot(am):
    _, blade = make_server(am)
    exports = blade.exports()
    assert sorted(exports) == sorted(
        blade.PREFIX + slot[2:] for slot in PURPOSE_SLOTS
    )
    assert all(fn.__self__ is blade for fn in exports.values())


#: Sample literals per argument type for the catalog-hint check.
SAMPLES = {
    "INTEGER": ["-1", "0", "3"],
    "FLOAT": ["-0.5", "0.0", "2.5"],
    "DATE": ["01/01/98", "01/02/98"],
    "LVARCHAR": ["a", "b"],
    "GRT_TIMEEXTENT_T": [
        f"{format_chronon(100)}, UC, {format_chronon(95)}, NOW",
        f"{format_chronon(90)}, {format_chronon(99)}, "
        f"{format_chronon(90)}, {format_chronon(95)}",
        f"{format_chronon(80)}, UC, {format_chronon(70)}, {format_chronon(99)}",
    ],
    "BOX": ["(0, 0, 2, 2)", "(1, 1, 3, 3)", "(0, 0, 5, 5)"],
}


def check_hints(server) -> int:
    """Every recorded commutator and negator names an existing routine
    of the same signature, and ``f(a, b) == commutator(b, a)``; returns
    how many routines carry hints."""
    routines = server.catalog.routines
    checked = 0
    for name in routines.names():
        for routine in routines.overloads(name):
            if routine.commutator is None and routine.negator is None:
                continue
            types = routine.arg_types
            values = [
                server.types.get(types[0]).input(text)
                for text in SAMPLES[types[0].upper()]
            ]
            if routine.commutator is not None:
                commutator = routines.resolve(routine.commutator, types)
                assert commutator.arg_types == types
                for a, b in itertools.product(values, repeat=2):
                    assert routine(a, b) == commutator(b, a), (
                        routine.signature, routine.commutator, a, b
                    )
            if routine.negator is not None:
                negator = routines.resolve(routine.negator, types)
                assert negator.arg_types == types
                for a, b in itertools.product(values, repeat=2):
                    assert routine(a, b) != negator(a, b)
            checked += 1
    return checked


@pytest.mark.parametrize("am", sorted(AMS))
def test_catalog_hints_name_real_routines(am):
    server, _ = make_server(am)
    checked = check_hints(server)
    if am in ("btree_am", "hblade_am", "grtree_am", "rtree_am"):
        assert checked > 0


def test_catalog_hints_are_per_overload():
    """The R-tree and GR-tree blades both register ``Contains``; each
    blade's hint lands on its own overload only, in either order."""
    for order in ((register_rtree_blade, register_grtree_blade),
                  (register_grtree_blade, register_rtree_blade)):
        server = DatabaseServer(clock=Clock(now=100))
        for register in order:
            register(server)
        routines = server.catalog.routines
        boxes = routines.resolve("Contains", ["BOX", "BOX"])
        extents = routines.resolve(
            "Contains", ["GRT_TimeExtent_t", "GRT_TimeExtent_t"]
        )
        assert boxes.commutator == "Within"
        assert extents.commutator == "ContainedIn"
        assert routines.resolve("Within", ["BOX", "BOX"]).commutator == "Contains"
        assert check_hints(server) == 8
