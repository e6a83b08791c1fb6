"""Exact rowmotion and toggle dynamics on finite posets.

Four realms: combinatorial sets, piecewise-linear labelings on Stanley's
polytopes, birational labelings over the rationals, and a noncommutative
realm evaluated on exact rational matrices.  The last three share one
toggle calculus over different backends; the tropical backend ties the
algebraic realms back to the piecewise-linear one.  The combinatorial
realm is separate, faster code on integer bit masks, which the tests check
against the piecewise-linear maps at 0/1 labelings
(``test_comb_maps_are_pl_maps_at_vertices_of_random_posets``).
"""

from .backends import (
    AlgebraBackend,
    MatrixRing,
    RationalField,
    TropicalSemiring,
    derive_seed,
    parallel_sum,
    parse_backend,
    random_labeling,
)
from .dynamics import Atom, Dynamics, detect_order
from .harness import (
    THEOREMS,
    CheckSpec,
    OrbitReport,
    build_poset,
    emit_report,
    labeling_orbit_report,
    run_check,
    scan_conjecture,
)
from .matrices import RationalMatrix
from .poset import (
    Poset,
    chain_product,
    chain_product_index,
    parse_poset,
    random_graded_poset,
    random_poset,
    root_poset_a,
    root_poset_a_index,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraBackend", "Atom", "CheckSpec", "Dynamics", "MatrixRing",
    "OrbitReport", "Poset", "RationalField", "RationalMatrix", "THEOREMS",
    "TropicalSemiring", "build_poset", "chain_product", "chain_product_index",
    "derive_seed", "detect_order", "emit_report", "labeling_orbit_report",
    "parallel_sum", "parse_backend", "parse_poset", "random_graded_poset",
    "random_labeling", "random_poset", "root_poset_a", "root_poset_a_index",
    "run_check", "scan_conjecture",
]
