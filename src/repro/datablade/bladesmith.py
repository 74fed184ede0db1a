"""BladeSmith stand-in: generation of registration SQL (Section 6.1).

BladeSmith generated, from object definitions, the SQL scripts that
BladeManager runs to register and unregister a DataBlade in a database.
This module generates the same artifacts as strings, so the scripts are
inspectable (and testable) exactly like the generated ``.sql`` files of a
real DataBlade project.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.server.access_method import PURPOSE_SLOTS

#: A UDR declaration: (SQL name, argument types, return type, symbol).
Udr = Tuple[str, Sequence[str], str, str]
#: An operator class: (name, is default, strategies, supports).
Opclass = Tuple[str, bool, Sequence[str], Sequence[str]]


def purpose_function_symbols(prefix: str) -> Tuple[Tuple[str, str], ...]:
    """(slot, symbol) pairs for the access-method registration:
    ``am_open`` -> ``<prefix>_open``."""
    return tuple((slot, prefix + slot[2:]) for slot in PURPOSE_SLOTS)


PURPOSE_FUNCTION_SYMBOLS = purpose_function_symbols("grt")

STRATEGY_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("Overlaps", "grt_overlaps_udr"),
    ("Equal", "grt_equal_udr"),
    ("Contains", "grt_contains_udr"),
    ("ContainedIn", "grt_containedin_udr"),
)

SUPPORT_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("GRT_Union", "grt_union_udr"),
    ("GRT_Size", "grt_size_udr"),
    ("GRT_Intersection", "grt_intersection_udr"),
)

GRT_METADATA_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("indexname", "LVARCHAR"),
    ("fragid", "INTEGER"),
    ("blobhandle", "LVARCHAR"),
    ("metapage", "INTEGER"),
)


def grt_udrs(type_name: str = "GRT_TimeExtent_t") -> List[Udr]:
    """The GR-tree's strategy and support function declarations."""
    udrs: List[Udr] = [
        (name, (type_name, type_name), "boolean", symbol)
        for name, symbol in STRATEGY_FUNCTIONS
    ]
    for name, symbol in SUPPORT_FUNCTIONS:
        arity = 1 if name == "GRT_Size" else 2
        udrs.append((name, (type_name,) * arity, "pointer", symbol))
    return udrs


def generate_register_script(
    library_path: str,
    am_name: str = "grtree_am",
    opclass_name: str = "grt_opclass",
    type_name: str = "GRT_TimeExtent_t",
    metadata_table: str = "grtree_indexdata",
    prefix: str = "grt",
    udrs: Optional[Sequence[Udr]] = None,
    opclasses: Optional[Sequence[Opclass]] = None,
    metadata_columns: Sequence[Tuple[str, str]] = GRT_METADATA_COLUMNS,
) -> str:
    """The registration script BladeManager would run (Section 4
    examples).  The defaults describe the GR-tree blade; other blades
    pass their prefix, UDRs, operator classes and metadata columns."""
    if udrs is None:
        udrs = grt_udrs(type_name)
    if opclasses is None:
        opclasses = [(
            opclass_name,
            True,
            [name for name, _ in STRATEGY_FUNCTIONS],
            [name for name, _ in SUPPORT_FUNCTIONS],
        )]
    symbols = purpose_function_symbols(prefix)
    statements: List[str] = []
    for _, symbol in symbols:
        statements.append(
            f"CREATE FUNCTION {symbol}(pointer) RETURNING int\n"
            f"  EXTERNAL NAME '{library_path}({symbol})' LANGUAGE c"
        )
    for name, arg_types, return_type, symbol in udrs:
        statements.append(
            f"CREATE FUNCTION {name}({', '.join(arg_types)}) "
            f"RETURNING {return_type}\n"
            f"  EXTERNAL NAME '{library_path}({symbol})' LANGUAGE c"
        )
    slots = ",\n    ".join(f"{slot} = {symbol}" for slot, symbol in symbols)
    statements.append(
        f"CREATE SECONDARY ACCESS_METHOD {am_name} (\n"
        f"    {slots},\n"
        f'    am_sptype = "S"\n)'
    )
    for name, default, strategies, supports in opclasses:
        lines = [
            f"CREATE {'DEFAULT ' if default else ''}OPCLASS {name} FOR {am_name}",
            f"  STRATEGIES({', '.join(strategies)})",
        ]
        if supports:
            lines.append(f"  SUPPORT({', '.join(supports)})")
        statements.append("\n".join(lines))
    columns = ",\n".join(f"  {column} {kind}" for column, kind in metadata_columns)
    statements.append(f"CREATE TABLE {metadata_table} (\n{columns}\n)")
    return ";\n\n".join(statements) + ";\n"


def generate_unregister_script(
    am_name: str = "grtree_am",
    opclass_name: str = "grt_opclass",
    metadata_table: str = "grtree_indexdata",
) -> str:
    """The matching unregistration script."""
    statements: List[str] = [
        f"DROP OPCLASS {opclass_name}",
        f"DROP SECONDARY ACCESS_METHOD {am_name}",
    ]
    for name, _ in STRATEGY_FUNCTIONS + SUPPORT_FUNCTIONS:
        statements.append(f"DROP FUNCTION {name}")
    for _, symbol in PURPOSE_FUNCTION_SYMBOLS:
        statements.append(f"DROP FUNCTION {symbol}")
    statements.append(f"DROP TABLE {metadata_table}")
    return ";\n\n".join(statements) + ";\n"


def generate_type_support_skeleton(type_name: str) -> str:
    """A BladeSmith-style C skeleton for an opaque type's support
    functions (illustrative output, as the GUI tool would emit)."""
    lines = [
        f"/* Generated by BladeSmith stand-in for opaque type {type_name} */",
        "",
    ]
    for fn in ("Input", "Output", "Send", "Receive", "ImportText", "ExportText"):
        lines.extend(
            [
                f"mi_pointer {type_name}{fn}(mi_pointer arg)",
                "{",
                "    /* TODO: flesh out the generated skeleton */",
                "    return arg;",
                "}",
                "",
            ]
        )
    return "\n".join(lines)
