"""BladeManager stand-in: registering the GR-tree DataBlade (Section 6.1).

Registration mirrors what happens when BladeManager runs the generated
SQL scripts against a database: the shared library's symbols become
CREATE FUNCTION targets, the opaque type is registered (the type support
functions are native code, so they are installed through the type
registry directly), and the access method, operator class, and the
blade's metadata table are created.  Unregistration reverses all of it.
"""

from __future__ import annotations

from repro.datablade import bladesmith
from repro.datablade.blade import GRTreeDataBlade
from repro.datablade.strategies import make_strategy_functions
from repro.datablade.supports import make_support_functions
from repro.datablade.time_extent import TYPE_NAME, make_time_extent_type


def register_grtree_blade(
    server, time_horizon: int = 20, handle_cache: bool = True
) -> GRTreeDataBlade:
    """Install the GR-tree DataBlade into *server*; returns the blade.

    Buffer-pool and node-cache sizes come from the server-wide settings
    (``DatabaseServer(buffer_capacity=..., node_cache_size=...)``) unless
    ``CREATE INDEX ... WITH (...)`` overrides them per index;
    ``handle_cache=False`` restores the paper's literal behaviour of
    rebuilding the Tree object on every ``grt_open``.
    """
    blade = GRTreeDataBlade(
        server, time_horizon=time_horizon, handle_cache=handle_cache
    )

    # Step 1 (Section 4): the new data type and its support functions.
    server.types.register(make_time_extent_type(server.clock.granularity))

    # The shared library (purpose functions plus strategy/support UDRs)
    # and Steps 2-4 plus the blade's metadata table, via the generated
    # script.
    functions = {
        **make_strategy_functions(lambda: blade.current_time()),
        **make_support_functions(lambda: blade.current_time()),
    }
    blade.install(
        [udr + (functions[udr[0]],) for udr in bladesmith.grt_udrs()],
        # Informix's association hints (Section 5.2): commutators only --
        # there is no way to declare "not overlaps implies not equal".
        commutators={
            "Overlaps": "Overlaps",
            "Equal": "Equal",
            "Contains": "ContainedIn",
            "ContainedIn": "Contains",
        },
    )
    return blade


def unregister_grtree_blade(server) -> None:
    """Remove every object the registration script created."""
    for info in list(server.catalog.index_names()):
        index = server.catalog.get_index(info)
        if index.am_name.lower() == GRTreeDataBlade.AM_NAME:
            raise RuntimeError(
                f"index {index.name} still uses {GRTreeDataBlade.AM_NAME}; "
                "drop it before unregistering the DataBlade"
            )
    script = bladesmith.generate_unregister_script()
    with server.provisioning():
        server.run_script(script)
    server.types.unregister(TYPE_NAME)
