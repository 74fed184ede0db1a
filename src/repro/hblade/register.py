"""Registration of the hybrid blade -- the six-step recipe, third time.

Same shape as ``register_btree_blade``, through the same B+-tree-family
registration (:meth:`~repro.bblade.blade.OrderedKeyBlade.install_family`):
shared-library symbols, purpose functions, strategy and support UDRs
per indexable type, the secondary access method, its default operator
class, and the blade metadata table -- all through the SQL surface under
``server.provisioning()``.

The one new ingredient is the second support function: ``HB_Hash`` joins
``HB_Compare`` in the opclass SUPPORT list, and the blade resolves both
dynamically (Step 4).  An alternative opclass can redefine either half
-- order and placement -- as long as it keeps the contract that
comparator-equal values hash equal.
"""

from __future__ import annotations

from repro.hblade.blade import HybridDataBlade


def register_hybrid_blade(server) -> HybridDataBlade:
    """Install the hybrid hash + B+-tree DataBlade."""
    blade = HybridDataBlade(server)
    blade.install_family()
    return blade
