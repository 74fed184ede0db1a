"""Tests for server components: types, UDRs, memory, trace, catalog."""

import pytest

from repro.server.datatypes import (
    BooleanType,
    DataTypeError,
    DateType,
    IntegerType,
    OpaqueType,
    TypeRegistry,
)
from repro.server.errors import AccessMethodError, CatalogError, UdrError
from repro.server.access_method import (
    PURPOSE_SLOTS,
    PURPOSE_TASKS,
    SecondaryAccessMethod,
    SpaceType,
)
from repro.server.catalog import IndexInfo, SystemCatalog
from repro.server.memory import Duration, MemoryManager, NamedMemoryError
from repro.server.opclass import OperatorClass, OperatorClassRegistry
from repro.server.table import Column, Table
from repro.server.trace import TraceFacility
from repro.server.udr import Routine, RoutineRegistry, SharedLibraryRegistry
from repro.temporal.chronon import Granularity


class TestTypes:
    def test_builtin_roundtrips(self):
        registry = TypeRegistry()
        assert registry.get("integer").input("42") == 42
        assert registry.get("BOOLEAN").input("t") is True
        assert registry.get("float").input("1.5") == 1.5

    def test_date_uses_paper_format(self):
        date = DateType(Granularity.DAY)
        value = date.input("12/10/95")
        assert date.output(value) == "12/10/1995"

    def test_validation_errors(self):
        with pytest.raises(DataTypeError):
            IntegerType().validate("not an int")
        with pytest.raises(DataTypeError):
            BooleanType().validate(1)
        with pytest.raises(DataTypeError):
            IntegerType().input("xyz")

    def test_opaque_type_support_functions(self):
        opaque = OpaqueType(
            "Pair",
            input_fn=lambda text: tuple(int(p) for p in text.split(":")),
            output_fn=lambda value: f"{value[0]}:{value[1]}",
        )
        assert opaque.input("3:4") == (3, 4)
        assert opaque.output((3, 4)) == "3:4"
        # Send/receive and import/export default to the text pair.
        assert opaque.receive(opaque.send((3, 4))) == (3, 4)
        assert opaque.import_text(opaque.export_text((3, 4))) == (3, 4)

    def test_duplicate_type_rejected(self):
        registry = TypeRegistry()
        with pytest.raises(DataTypeError):
            registry.register(IntegerType())

    def test_unregister(self):
        registry = TypeRegistry()
        registry.register(OpaqueType("X", input_fn=str, output_fn=str))
        registry.unregister("x")
        assert "X" not in registry


class TestSharedLibrary:
    def test_external_name_resolution(self):
        lib = SharedLibraryRegistry()
        lib.register("usr/functions/grtree.bld", "grt_open", lambda td: 0)
        fn = lib.resolve_external("usr/functions/grtree.bld(grt_open)")
        assert fn({}) == 0

    def test_missing_symbol(self):
        lib = SharedLibraryRegistry()
        with pytest.raises(UdrError):
            lib.resolve_external("lib.bld(nope)")

    def test_malformed_external_name(self):
        lib = SharedLibraryRegistry()
        with pytest.raises(UdrError):
            lib.resolve_external("no-parentheses")


class TestRoutines:
    def make(self):
        registry = RoutineRegistry()
        registry.register(
            Routine("f", ("INTEGER",), "INTEGER", lambda x: x + 1)
        )
        registry.register(
            Routine("f", ("FLOAT",), "FLOAT", lambda x: x + 0.5)
        )
        return registry

    def test_overload_resolution(self):
        registry = self.make()
        assert registry.resolve("f", ["INTEGER"])(1) == 2
        assert registry.resolve("f", ["FLOAT"])(1.0) == 1.5

    def test_resolution_counts_overhead(self):
        registry = self.make()
        registry.resolve("f", ["INTEGER"])
        registry.resolve("f", ["INTEGER"])
        assert registry.resolutions == 2

    def test_duplicate_signature_rejected(self):
        registry = self.make()
        with pytest.raises(UdrError):
            registry.register(
                Routine("F", ("INTEGER",), "INTEGER", lambda x: x)
            )

    def test_resolve_any_requires_single_overload(self):
        registry = self.make()
        with pytest.raises(UdrError):
            registry.resolve_any("f")
        registry.register(Routine("g", (), "INTEGER", lambda: 7))
        assert registry.resolve_any("g")() == 7

    def test_negator_commutator(self):
        registry = self.make()
        registry.set_commutator("f", "f", ["INTEGER"])
        registry.set_negator("f", "not_f", ["INTEGER"])
        routine = registry.resolve("f", ["INTEGER"])
        assert routine.commutator == "f"
        assert routine.negator == "not_f"

    def test_unknown_name(self):
        registry = self.make()
        with pytest.raises(UdrError):
            registry.resolve("missing", [])


class TestMemory:
    def test_duration_scoping(self):
        memory = MemoryManager()
        memory.allocate(Duration.PER_STATEMENT)
        memory.allocate(Duration.PER_TRANSACTION)
        memory.end_duration(Duration.PER_STATEMENT)
        assert memory.live_count(Duration.PER_STATEMENT) == 0
        assert memory.live_count(Duration.PER_TRANSACTION) == 1
        memory.end_duration(Duration.PER_TRANSACTION)
        assert memory.live_count(Duration.PER_TRANSACTION) == 0

    def test_ending_longer_duration_frees_shorter(self):
        memory = MemoryManager()
        memory.allocate(Duration.PER_FUNCTION)
        memory.allocate(Duration.PER_STATEMENT)
        memory.end_duration(Duration.PER_TRANSACTION)
        assert memory.live_count(Duration.PER_FUNCTION) == 0
        assert memory.live_count(Duration.PER_STATEMENT) == 0

    def test_named_memory_lifecycle(self):
        memory = MemoryManager()
        memory.named_allocate("grt_now.session1", 42)
        assert memory.named_get("grt_now.session1") == 42
        assert memory.named_exists("grt_now.session1")
        memory.named_free("grt_now.session1")
        assert not memory.named_exists("grt_now.session1")

    def test_named_memory_errors(self):
        memory = MemoryManager()
        memory.named_allocate("x", 1)
        with pytest.raises(NamedMemoryError):
            memory.named_allocate("x", 2)
        with pytest.raises(NamedMemoryError):
            memory.named_get("y")
        with pytest.raises(NamedMemoryError):
            memory.named_free("y")


class TestTrace:
    def test_disabled_by_default(self):
        trace = TraceFacility()
        trace.emit("grt", 1, "hidden")
        assert trace.messages() == []

    def test_level_filtering(self):
        trace = TraceFacility()
        trace.set_level("grt", 1)
        trace.emit("grt", 1, "shown")
        trace.emit("grt", 2, "too detailed")
        trace.emit("other", 1, "wrong class")
        assert trace.texts("grt") == ["shown"]

    def test_messages_are_sequenced(self):
        trace = TraceFacility()
        trace.set_level("a", 1)
        trace.set_level("b", 1)
        trace.emit("a", 1, "first")
        trace.emit("b", 1, "second")
        sequences = [m.sequence for m in trace.messages()]
        assert sequences == sorted(sequences)

    def test_disable_class(self):
        trace = TraceFacility()
        trace.set_level("grt", 2)
        trace.set_level("grt", 0)
        trace.emit("grt", 1, "off again")
        assert trace.messages() == []

    def test_clear(self):
        trace = TraceFacility()
        trace.set_level("x", 1)
        trace.emit("x", 1, "m")
        trace.clear()
        assert trace.messages() == []


class TestAccessMethodRegistry:
    def test_am_getnext_mandatory(self):
        with pytest.raises(AccessMethodError):
            SecondaryAccessMethod("bad_am", {"am_open": "f"})

    def test_unknown_slot_rejected(self):
        with pytest.raises(AccessMethodError):
            SecondaryAccessMethod("bad_am", {"am_getnext": "g", "am_frobnicate": "f"})

    def test_table2_covers_all_slots(self):
        from_tasks = {slot for slots in PURPOSE_TASKS.values() for slot in slots}
        assert from_tasks == set(PURPOSE_SLOTS)

    def test_sptype(self):
        am = SecondaryAccessMethod("a", {"am_getnext": "g"}, SpaceType.EXTERNAL_FILE)
        assert am.sptype is SpaceType.EXTERNAL_FILE


class TestOperatorClasses:
    def test_strategy_membership_case_insensitive(self):
        oc = OperatorClass("oc", "am", ("Overlaps", "Equal"), ("GRT_Union",))
        assert oc.is_strategy("overlaps")
        assert oc.is_support("grt_union")
        assert not oc.is_strategy("grt_union")

    def test_extension_preserves_name(self):
        oc = OperatorClass("oc", "am", ("Overlaps",))
        extended = oc.extended_with(strategies=("Neighbour", "Overlaps"))
        assert extended.strategies == ("Overlaps", "Neighbour")
        assert extended.name == "oc"

    def test_registry_replace_for_extension(self):
        registry = OperatorClassRegistry()
        oc = registry.register(OperatorClass("oc", "am", ("Overlaps",)))
        registry.replace(oc.extended_with(strategies=("Neighbour",)))
        assert registry.get("oc").is_strategy("Neighbour")

    def test_for_access_method(self):
        registry = OperatorClassRegistry()
        registry.register(OperatorClass("a1", "am1", ("f",)))
        registry.register(OperatorClass("a2", "am1", ("g",)))
        registry.register(OperatorClass("b1", "am2", ("h",)))
        assert len(registry.for_access_method("am1")) == 2


class TestTablesAndCatalog:
    def make_table(self):
        return Table(
            "emp",
            [Column("name", TypeRegistry().get("LVARCHAR")),
             Column("age", TypeRegistry().get("INTEGER"))],
        )

    def test_insert_fetch_delete(self):
        table = self.make_table()
        rowid = table.insert_row({"name": "a", "age": 30})
        assert table.fetch(rowid)["age"] == 30
        table.delete_row(rowid)
        with pytest.raises(Exception):
            table.fetch(rowid)

    def test_insert_validates_types(self):
        table = self.make_table()
        with pytest.raises(DataTypeError):
            table.insert_row({"name": "a", "age": "old"})

    def test_missing_column_rejected(self):
        table = self.make_table()
        with pytest.raises(Exception):
            table.insert_row({"name": "a"})

    def test_scan_charges_pages(self):
        table = self.make_table()
        for i in range(100):
            table.insert_row({"name": f"r{i}", "age": i})
        before = table.pages_read
        list(table.scan())
        assert table.pages_read - before == table.page_count

    def test_rowids_stable_across_deletes(self):
        table = self.make_table()
        ids = [table.insert_row({"name": f"r{i}", "age": i}) for i in range(5)]
        table.delete_row(ids[2])
        assert table.fetch(ids[3])["age"] == 3

    def test_catalog_index_bookkeeping(self):
        catalog = SystemCatalog(TypeRegistry())
        catalog.create_table(self.make_table())
        info = IndexInfo("i1", "emp", ("age",), "am", ("oc",), "spc")
        catalog.create_index(info)
        assert catalog.has_index("I1")
        assert catalog.indices_on("emp", "age") == [info]
        assert catalog.indices_on("emp", "name") == []
        assert len(catalog.fragments("i1")) == 1
        with pytest.raises(CatalogError):
            catalog.drop_table("emp")  # index still exists
        catalog.drop_index("i1")
        catalog.drop_table("emp")

    def test_duplicate_detection(self):
        catalog = SystemCatalog(TypeRegistry())
        catalog.create_table(self.make_table())
        info = IndexInfo("i1", "emp", ("age",), "am", ("oc",), "spc")
        catalog.create_index(info)
        found = catalog.find_equivalent_index("emp", ("AGE",), "AM", {})
        assert found is info
        assert catalog.find_equivalent_index("emp", ("name",), "am", {}) is None
