"""Piecewise-linear toggles and transfer maps on exact-rational labelings.

Labelings are tuples of :class:`fractions.Fraction`, one value per poset
element.  Every map is the tropicalization of the birational one: the
generic :class:`Dynamics` over the max-plus semiring with C = 1.  One
applier, :func:`pl_apply`, runs each of them, by map name or as a toggle
word, after one check against the polytope that the domain table names for
the step; a labeling outside it raises :class:`DomainViolation` rather than
being clamped.

The max-plus work runs on integers.  With L the least common denominator
of a labeling, x ↦ L·x maps it into the max-plus semiring on integers,
where max, + and negation are int operations and C = 1 becomes L; the
maps commute with it exactly.  :func:`pl_apply` and the chain bound behind
the chain-polytope test and sampler each take that image once per call and
map their results back to reduced Fractions.  In perfbench's orbit-scan
(grids up to 5x5; CPython 3.11.7, 2-vCPU host) PL antichain orbits took
×0.62 and PL order orbits ×0.77 of their time on Fractions; on
``random 10 3``, whose labels keep small denominators, the two conversions
cost about what they save.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import le

from .backends import _from_max_plus_image, _to_max_plus_image, unit_interval_fraction
from .dynamics import Atom, Dynamics
from .errors import DomainViolation

ZERO = Fraction(0)
ONE = Fraction(1)
POINT_DENOMINATOR_BOUND = 64


def as_labeling(p, values):
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != p.n:
        raise ValueError(f"expected {p.n} values, got {len(vals)}")
    return vals


def indicator(p, members):
    return tuple(ONE if v in members else ZERO for v in range(p.n))


def _maximal_chain_sums(p, f):
    """The largest chain sum ending at each maximal element: one max-plus inverse
    down transfer, run on the integer image of f."""
    backend, image, scale = _to_max_plus_image(f, ONE)
    best = Dynamics(p, backend).inv_down_transfer(image)
    return _from_max_plus_image([best[m] for m in p.maximal_elements()], scale)


# -- polytope membership -----------------------------------------------------
#
# The tests take rational values, Fractions or ints, and compare them as integers:
# with positive denominators, x <= y is x.num * y.den <= y.num * x.den.


def _terms(f):
    """The numerators and the positive denominators of rational values."""
    try:
        return [x._numerator for x in f], [x._denominator for x in f]
    except AttributeError:  # an int or bool value
        return [x.numerator for x in f], [x.denominator for x in f]


def _in_unit_interval(num, den):
    return min(num, default=0) >= 0 and all(map(le, num, den))


def in_unit_cube(f):
    """Whether every value of f, a rational (Fraction or int), lies in [0, 1]."""
    return _in_unit_interval(*_terms(f))


def _require_length(p, f):
    if len(f) != p.n:
        raise ValueError(f"expected {p.n} values")


def _order_preserving(p, num, den):
    return all(num[u] * den[v] <= num[v] * den[u] for u, v in p.covers)


def in_order_polytope(p, f):
    """Order-preserving labelings into [0, 1], of rational values (Fraction or int)."""
    _require_length(p, f)
    num, den = _terms(f)
    return _in_unit_interval(num, den) and _order_preserving(p, num, den)


def in_order_reversing(p, f):
    """Order-reversing labelings into [0, 1], of rational values (Fraction or int):
    those f with 1 - f order-preserving, that is with -f order-preserving."""
    _require_length(p, f)
    num, den = _terms(f)
    return _in_unit_interval(num, den) and _order_preserving(p, [-n for n in num], den)


def in_chain_polytope(p, f):
    """Non-negative labelings, of rational values (Fraction or int), whose every
    maximal-chain sum is at most 1."""
    _require_length(p, f)
    if min(_terms(f)[0], default=0) < 0:
        return False
    return all(map(le, *_terms(_maximal_chain_sums(p, f))))


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
    element, which is checked before any membership test.  The step runs on
    the integer image of f, L·f with L its least common denominator, and the
    result comes back as reduced Fractions.
    """
    f = tuple(f)
    _require_length(p, f)
    if isinstance(step, str):
        if step not in _DOMAIN or not hasattr(Dynamics, step):
            raise ValueError(f"unknown PL map {step!r}")
        domains = {_DOMAIN[step]}
    else:
        step = tuple(step)
        domains = {_DOMAIN.get(kind) for kind, _ in step}
    domains.discard(None)
    if len(domains) > 1:
        raise ValueError("a PL toggle word cannot mix order and antichain atoms")
    # Looked up per call, so a wrapper installed on a membership test sees the call.
    member = {_ORDER: in_order_polytope, _REVERSING: in_order_reversing,
              _CHAIN: in_chain_polytope}
    for polytope in domains:
        if not member[polytope](p, f):
            raise DomainViolation(f"labeling is outside the {polytope}")
    backend, image, scale = _to_max_plus_image(f, ONE)
    dyn = Dynamics(p, backend)
    image = getattr(dyn, step)(image) if isinstance(step, str) else dyn.apply_word(step, image)
    return _from_max_plus_image(image, scale)


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
    worst = max(_maximal_chain_sums(p, raw), default=ZERO)
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
