"""Piecewise-linear toggles and transfer maps on exact-rational labelings.

Labelings are tuples of :class:`fractions.Fraction`, one value per poset
element.  Every map is the tropicalization of the birational one: the
generic :class:`Dynamics` over the max-plus semiring with C = 1.  One
applier, :func:`pl_apply`, runs each of them, by map name or as a toggle
word, after one check against the polytope that the domain table names for
the step; a labeling outside it raises :class:`DomainViolation` rather than
being clamped.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from .backends import TropicalSemiring, unit_interval_fraction
from .dynamics import Atom, Dynamics
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


def _max_chain_sum(p, f):
    """The largest maximal-chain sum: one max-plus inverse down transfer."""
    dyn = Dynamics(p, _TROPICAL)
    best = dyn.inv_down_transfer(dyn.labeling(f))
    return max((best[m] for m in p.maximal_elements()), default=ZERO)


# -- polytope membership -----------------------------------------------------


def in_unit_cube(f):
    return all(ZERO <= x <= ONE for x in f)


def _require_length(p, f):
    if len(f) != p.n:
        raise ValueError(f"expected {p.n} values")


def in_order_polytope(p, f):
    """Order-preserving labelings into [0, 1]."""
    _require_length(p, f)
    if not in_unit_cube(f):
        return False
    return all(f[u] <= f[v] for (u, v) in p.covers)


def in_order_reversing(p, f):
    """Order-reversing labelings into [0, 1]: those f with 1 - f order-preserving."""
    _require_length(p, f)
    return in_order_polytope(p, [ONE - x for x in f])


def in_chain_polytope(p, f):
    """Non-negative labelings whose every maximal-chain sum is at most 1."""
    _require_length(p, f)
    if any(x < ZERO for x in f):
        return False
    return _max_chain_sum(p, f) <= ONE


# -- the applier ---------------------------------------------------------------

_ORDER, _REVERSING, _CHAIN = "order polytope", "order-reversing polytope", "chain polytope"

# The polytope each Dynamics map and each toggle-atom kind reads (None: any labeling).
_DOMAIN = {
    "T": _ORDER, "E": _ORDER, "rank_T": _ORDER,
    "down_transfer": _ORDER, "order_rowmotion": _ORDER,
    "up_transfer": _REVERSING,
    "tau": _CHAIN, "eps": _CHAIN, "rank_tau": _CHAIN,
    "inv_down_transfer": _CHAIN, "inv_up_transfer": _CHAIN, "antichain_rowmotion": _CHAIN,
    "theta": None,
}


def pl_apply(p, step, f):
    """Apply ``step`` to f over the max-plus semiring with C = 1.

    ``step`` is a Dynamics map name from the domain table or a toggle word, a
    tuple of Atoms.  f is checked once against the polytope the step reads:
    each toggle maps its polytope to itself, so the check covers a whole word,
    and a word mixing order and antichain atoms has no domain.  A rowmotion
    name runs the one-sweep Dynamics method; the word of its single toggles
    gives the same labeling, one atom at a time.  f must have one value per
    element, which is checked before any membership test.
    """
    dyn = Dynamics(p, _TROPICAL)
    f = dyn.labeling(f)
    if isinstance(step, str):
        if step not in _DOMAIN or not hasattr(dyn, step):
            raise ValueError(f"unknown PL map {step!r}")
        domains, run = {_DOMAIN[step]}, getattr(dyn, step)
    else:
        word = tuple(step)
        domains, run = {_DOMAIN.get(kind) for kind, _ in word}, partial(dyn.apply_word, word)
    domains.discard(None)
    if len(domains) > 1:
        raise ValueError("a PL toggle word cannot mix order and antichain atoms")
    # Looked up per call, so a wrapper installed on a membership test sees the call.
    member = {_ORDER: in_order_polytope, _REVERSING: in_order_reversing,
              _CHAIN: in_chain_polytope}
    for polytope in domains:
        if not member[polytope](p, f):
            raise DomainViolation(f"labeling is outside the {polytope}")
    return run(f)


# Named entries over pl_apply, looked up by name by perfbench's workloads and spans.


def pl_order_toggle(p, v, f):
    return pl_apply(p, (Atom("T", v),), f)


def pl_antichain_toggle(p, v, g):
    return pl_apply(p, (Atom("tau", v),), g)


def pl_order_rowmotion(p, f):
    return pl_apply(p, "order_rowmotion", f)


def pl_antichain_rowmotion(p, g):
    return pl_apply(p, "antichain_rowmotion", g)


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
