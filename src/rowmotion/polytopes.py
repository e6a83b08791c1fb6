"""Piecewise-linear toggles and transfer maps on exact-rational labelings.

Labelings are tuples of :class:`fractions.Fraction`, one value per poset
element.  Maps are only applied inside their defining polytopes; a
labeling outside the domain raises :class:`DomainViolation` rather than
being clamped.  Inside the domain every map is the tropicalization of the
birational one: the generic :class:`Dynamics` over the max-plus semiring
with C = 1.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .backends import TropicalSemiring, unit_interval_fraction
from .dynamics import Dynamics
from .errors import DomainViolation

ZERO = Fraction(0)
ONE = Fraction(1)
POINT_DENOMINATOR_BOUND = 64
_TROPICAL = TropicalSemiring(const_c=ONE)


def as_labeling(p, values):
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != p.n:
        raise ValueError(f"expected {p.n} values, got {len(vals)}")
    return vals


def indicator(p, members):
    return tuple(ONE if v in members else ZERO for v in range(p.n))


def _tropical(p, method, f, *args):
    """Apply one Dynamics map over the max-plus semiring to a tuple labeling."""
    dyn = Dynamics(p, _TROPICAL)
    return method(dyn, *args, dyn.labeling(f))


def _max_chain_sum(p, f):
    """The largest maximal-chain sum: one max-plus inverse down transfer."""
    best = _tropical(p, Dynamics.inv_down_transfer, f)
    return max((best[m] for m in p.maximal_elements()), default=ZERO)


# -- polytope membership -----------------------------------------------------


def in_unit_cube(f):
    return all(ZERO <= x <= ONE for x in f)


def in_order_polytope(p, f):
    """Order-preserving labelings into [0, 1]."""
    if not in_unit_cube(f):
        return False
    return all(f[u] <= f[v] for (u, v) in p.covers)


def in_order_reversing(p, f):
    """Order-reversing labelings into [0, 1]: those f with 1 - f order-preserving."""
    return in_order_polytope(p, [ONE - x for x in f])


def in_chain_polytope(p, f):
    """Non-negative labelings whose every maximal-chain sum is at most 1."""
    if any(x < ZERO for x in f):
        return False
    return _max_chain_sum(p, f) <= ONE


def _require(p, f, predicate, name):
    if not predicate(p, f):
        raise DomainViolation(f"labeling is outside the {name}")


# -- toggles -----------------------------------------------------------------


def pl_order_toggle(p, v, f):
    """Reflect f(v) inside the interval allowed by its neighbours.

    Boundary values 0 below the minimal elements and 1 above the maximal
    elements.  An involution on the order polytope.
    """
    _require(p, f, in_order_polytope, "order polytope")
    return _tropical(p, Dynamics.order_toggle, f, v)


def pl_antichain_toggle(p, v, g):
    """Chain polytope toggle: 1 minus the best chain sum through v."""
    _require(p, g, in_chain_polytope, "chain polytope")
    return _tropical(p, Dynamics.antichain_toggle, g, v)


# -- transfer maps -----------------------------------------------------------


def pl_complement(p, f):
    return _tropical(p, Dynamics.theta, f)


def pl_down_transfer(p, f):
    """f(x) minus the best lower-cover value; order polytope -> chain polytope."""
    _require(p, f, in_order_polytope, "order polytope")
    return _tropical(p, Dynamics.down_transfer, f)


def pl_up_transfer(p, f):
    """f(x) minus the best upper-cover value; order-reversing -> chain polytope."""
    _require(p, f, in_order_reversing, "order-reversing polytope")
    return _tropical(p, Dynamics.up_transfer, f)


def pl_inv_down_transfer(p, f):
    """Best chain sum from the bottom; chain polytope -> order polytope."""
    _require(p, f, in_chain_polytope, "chain polytope")
    return _tropical(p, Dynamics.inv_down_transfer, f)


def pl_inv_up_transfer(p, f):
    """Best chain sum towards the top; chain polytope -> order-reversing."""
    _require(p, f, in_chain_polytope, "chain polytope")
    return _tropical(p, Dynamics.inv_up_transfer, f)


# -- rowmotion ---------------------------------------------------------------
#
# Each toggle maps its polytope to itself, so the domain is checked once.


def pl_order_rowmotion(p, f):
    """Toggle product over a linear extension, applied top-down."""
    _require(p, f, in_order_polytope, "order polytope")
    return _tropical(p, Dynamics.order_rowmotion, f)


def pl_antichain_rowmotion(p, g):
    """Toggle product over a linear extension, applied bottom-up."""
    _require(p, g, in_chain_polytope, "chain polytope")
    return _tropical(p, Dynamics.antichain_rowmotion, g)


# -- random points ------------------------------------------------------------


def _raw_point(p, rng):
    return [unit_interval_fraction(rng, POINT_DENOMINATOR_BOUND) for _ in range(p.n)]


def random_chain_polytope_point(p, seed):
    """A generic rational point of the chain polytope (not uniform)."""
    rng = random.Random(seed)
    raw = _raw_point(p, rng)
    worst = _max_chain_sum(p, raw)
    if worst > ONE:
        bound = POINT_DENOMINATOR_BOUND
        scale = Fraction(rng.randint(1, bound), bound + 1) / worst
        raw = [x * scale for x in raw]
    return tuple(raw)


def random_order_polytope_point(p, seed):
    """A generic rational point of the order polytope (not uniform)."""
    raw = _raw_point(p, random.Random(seed))
    out = [None] * p.n
    for x in p.default_linear_extension:
        out[x] = max([raw[x]] + [out[u] for u in p.down_adjacency[x]])
    return tuple(out)


def random_order_reversing_point(p, seed):
    """A generic rational point of the order-reversing polytope: 1 - an order polytope point."""
    return tuple(ONE - x for x in random_order_polytope_point(p, seed))
