"""Rowmotion on order ideals, filters, and antichains as plain sets.

A :class:`SubsetState` is a frozen set of element indices tagged with a
kind; kinds are enforced at operation boundaries because the complement
map swaps them.  All operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import CompositionMismatch, KindMismatch, OrbitBudgetExceeded

DEFAULT_ORBIT_BUDGET = 10**7
# 2^20 masks take about 0.8 s (chain 4x5, CPython 3.11, 2-vCPU host); each element doubles it
MAX_ENUMERATED_ELEMENTS = 20


class Kind(str, Enum):
    IDEAL = "ideal"
    FILTER = "filter"
    ANTICHAIN = "antichain"
    RAW = "raw"


@dataclass(frozen=True)
class SubsetState:
    members: frozenset
    kind: Kind

    def __contains__(self, v):
        return v in self.members

    def __len__(self):
        return len(self.members)


# Per kind, which of (tested, outside) is the member mask's complement: a mask is a
# state of the kind when no element of ``tested`` has a strict down-set meeting ``outside``.
_COMPLEMENTED = {Kind.IDEAL: (0, 1), Kind.FILTER: (1, 0), Kind.ANTICHAIN: (0, 0)}


def make_state(p, members, kind):
    members = frozenset(members)
    kind = Kind(kind)
    stray = members - p.elements
    if stray:
        raise KindMismatch(f"{sorted(stray)} are not elements of a poset of {p.n} elements")
    if kind in _COMPLEMENTED:
        full = (1 << p.n) - 1
        mask = sum(1 << v for v in members)
        tested, outside = (mask ^ full * c for c in _COMPLEMENTED[kind])
        if any(tested >> v & 1 and p._below[v] & outside for v in range(p.n)):
            raise KindMismatch(f"{sorted(members)} is not a valid {kind.value}")
    return SubsetState(members, kind)


def ideal(p, members):
    return make_state(p, members, Kind.IDEAL)


def filter_state(p, members):
    return make_state(p, members, Kind.FILTER)


def antichain(p, members):
    return make_state(p, members, Kind.ANTICHAIN)


def _require(s, kind):
    if s.kind != kind:
        raise KindMismatch(f"expected a {kind.value}, got a {s.kind.value}")


# -- transfer maps ---------------------------------------------------------


def complement(p, s):
    """Complement within P; swaps the ideal and filter kinds."""
    members = p.elements - s.members
    if s.kind == Kind.IDEAL:
        kind = Kind.FILTER
    elif s.kind == Kind.FILTER:
        kind = Kind.IDEAL
    else:
        kind = Kind.RAW
    return SubsetState(members, kind)


def up_transfer(p, s):
    """Maximal elements of an ideal, as an antichain."""
    return _transfer(p, s, down=False)


def down_transfer(p, s):
    """Minimal elements of a filter, as an antichain."""
    return _transfer(p, s, down=True)


def _transfer(p, s, down):
    _require(s, Kind.FILTER if down else Kind.IDEAL)
    covers = p.down_adjacency if down else p.up_adjacency
    members = frozenset(v for v in s.members
                        if not any(w in s.members for w in covers[v]))
    return SubsetState(members, Kind.ANTICHAIN)


def inverse_up_transfer(p, s):
    """Downward saturation of an antichain, as an ideal."""
    return _inv_transfer(p, s, down=False)


def inverse_down_transfer(p, s):
    """Upward saturation of an antichain, as a filter."""
    return _inv_transfer(p, s, down=True)


def _inv_transfer(p, s, down):
    _require(s, Kind.ANTICHAIN)
    # x joins when it lies below a member (an ideal) or, ``down``, above one (a filter)
    reaches = (lambda x, y: p.leq(y, x)) if down else p.leq
    members = frozenset(x for x in range(p.n)
                        if any(reaches(x, y) for y in s.members))
    return SubsetState(members, Kind.FILTER if down else Kind.IDEAL)


# -- toggles ---------------------------------------------------------------


def toggle_ideal(p, v, s):
    """Add or remove v when the result is still an ideal, else fix."""
    _require(s, Kind.IDEAL)
    m = s.members
    if v not in m:
        if all(u in m for u in p.down_adjacency[v]):
            return SubsetState(m | {v}, Kind.IDEAL)
    else:
        if not any(w in m for w in p.up_adjacency[v]):
            return SubsetState(m - {v}, Kind.IDEAL)
    return s


def toggle_filter(p, v, s):
    """The ideal toggle conjugated by the complement."""
    _require(s, Kind.FILTER)
    return complement(p, toggle_ideal(p, v, complement(p, s)))


def toggle_antichain(p, v, s):
    """Remove v if present; add it when it stays an antichain; else fix."""
    _require(s, Kind.ANTICHAIN)
    m = s.members
    if v in m:
        return SubsetState(m - {v}, Kind.ANTICHAIN)
    if all(p.incomparable(v, u) for u in m):
        return SubsetState(m | {v}, Kind.ANTICHAIN)
    return s


# -- rowmotion -------------------------------------------------------------


def rowmotion(p, kind, s):
    """Rowmotion on ideals, antichains, or filters.

    Computes both the transfer-map composition and the toggle product
    along the default linear extension and insists they agree.  Filter
    rowmotion is ideal rowmotion conjugated by the complement.
    """
    kind = Kind(kind)
    _require(s, kind)
    if kind == Kind.FILTER:
        return complement(p, rowmotion(p, Kind.IDEAL, complement(p, s)))
    if kind == Kind.IDEAL:
        via_transfer = inverse_up_transfer(p, down_transfer(p, complement(p, s)))
        toggle, order = toggle_ideal, reversed(p.default_linear_extension)
    elif kind == Kind.ANTICHAIN:
        via_transfer = down_transfer(p, complement(p, inverse_up_transfer(p, s)))
        toggle, order = toggle_antichain, p.default_linear_extension
    else:
        raise KindMismatch("rowmotion is defined on ideals, antichains, and filters")
    via_toggles = s
    for v in order:
        via_toggles = toggle(p, v, via_toggles)
    if via_transfer != via_toggles:
        raise CompositionMismatch(
            f"toggle product {sorted(via_toggles.members)} != "
            f"transfer composition {sorted(via_transfer.members)}")
    return via_transfer


def rowmotion_ideal(p, s):
    return rowmotion(p, Kind.IDEAL, s)


def rowmotion_antichain(p, s):
    return rowmotion(p, Kind.ANTICHAIN, s)


def rowmotion_filter(p, s):
    return rowmotion(p, Kind.FILTER, s)


# -- state-space enumeration and orbits -------------------------------------


def _all_states(p, kind):
    """Every state of ``kind``, in increasing order of the member mask.

    Each of the 2^n masks passes when no element of ``tested`` has a strict
    down-set meeting ``outside``, where each of the two is the mask or its
    complement.  The test reads only the down-set masks, never the index
    order, and only the masks that pass become a ``SubsetState``.
    """
    if p.n > MAX_ENUMERATED_ELEMENTS:
        raise OrbitBudgetExceeded(
            f"state-space enumeration of {p.n} elements is beyond desk scale "
            f"(at most {MAX_ENUMERATED_ELEMENTS})")
    n, below = p.n, p._below
    full = (1 << n) - 1
    flip_tested, flip_outside = (full * c for c in _COMPLEMENTED[kind])
    out = []
    for mask in range(full + 1):
        tested, outside = mask ^ flip_tested, mask ^ flip_outside
        for v in range(n):
            if tested >> v & 1 and below[v] & outside:
                break
        else:
            out.append(SubsetState(frozenset(v for v in range(n) if mask >> v & 1), kind))
    return out


def all_ideals(p):
    """Order ideals: no member has a strict down-set meeting the complement."""
    return _all_states(p, Kind.IDEAL)


def all_filters(p):
    """Order filters: no non-member has a strict down-set meeting the filter."""
    return _all_states(p, Kind.FILTER)


def all_antichains(p):
    """Antichains: no member has a strict down-set meeting the antichain."""
    return _all_states(p, Kind.ANTICHAIN)


def orbit(p, step, start):
    """The forward orbit of ``start`` under ``step`` up to first return.

    Raises OrbitBudgetExceeded past ``DEFAULT_ORBIT_BUDGET`` states.
    """
    seen = {start}
    out = [start]
    current = start
    while True:
        current = step(p, current)
        if current == start:
            return out
        if current in seen:
            raise CompositionMismatch("orbit re-entered without closing; step is not invertible")
        seen.add(current)
        out.append(current)
        if len(out) > DEFAULT_ORBIT_BUDGET:
            raise OrbitBudgetExceeded(f"orbit exceeds {DEFAULT_ORBIT_BUDGET} states")


def orbit_partition(p, step, states):
    """Partition ``states`` into orbits of ``step``."""
    remaining = set(states)
    orbits = []
    for s in states:
        if s not in remaining:
            continue
        o = orbit(p, step, s)
        orbits.append(o)
        remaining -= set(o)
    return orbits


def orbit_average(o, statistic=len):
    """Exact average of ``statistic`` over the orbit ``o``; the default is the cardinality."""
    return Fraction(sum(statistic(s) for s in o), len(o))


def map_order(orbits):
    """Least t >= 1 with step^t = identity on the union of the given orbits."""
    return math.lcm(*(len(o) for o in orbits))
