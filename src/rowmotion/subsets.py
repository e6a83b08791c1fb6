"""Rowmotion on order ideals, filters, and antichains as integer bit masks.

A :class:`SubsetState` is a mask of element indices (bit v set when v is a
member) tagged with a kind; kinds are enforced at operation boundaries
because the complement map swaps them.  Every map is integer operations on
the label-free masks that a :class:`~rowmotion.poset.Poset` builds once: the
full set, the strict down-sets and up-sets, and the lower and upper covers.
All operations are pure.
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
    mask: int
    kind: Kind

    @property
    def members(self):
        """The member indices, as a frozenset built on each read."""
        return frozenset(_bits(self.mask))

    def __contains__(self, v):
        return isinstance(v, int) and v >= 0 and self.mask >> v & 1 == 1

    def __len__(self):
        return self.mask.bit_count()


def _bits(mask):
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Per kind, which of (tested, outside) is the member mask's complement: a mask is a
# state of the kind when no element of ``tested`` has a strict down-set meeting ``outside``.
_COMPLEMENTED = {Kind.IDEAL: (0, 1), Kind.FILTER: (1, 0), Kind.ANTICHAIN: (0, 0)}


def make_state(p, members, kind):
    members = frozenset(members)
    kind = Kind(kind)
    stray = members - p.elements
    if stray:
        raise KindMismatch(f"{sorted(stray)} are not elements of a poset of {p.n} elements")
    mask = sum(1 << v for v in members)
    if kind in _COMPLEMENTED:
        tested, outside = (mask ^ p._full * c for c in _COMPLEMENTED[kind])
        if any(tested >> v & 1 and p._below[v] & outside for v in range(p.n)):
            raise KindMismatch(f"{sorted(members)} is not a valid {kind.value}")
    return SubsetState(mask, kind)


def ideal(p, members):
    return make_state(p, members, Kind.IDEAL)


def filter_state(p, members):
    return make_state(p, members, Kind.FILTER)


def antichain(p, members):
    return make_state(p, members, Kind.ANTICHAIN)


def _require(s, kind):
    if s.kind != kind:
        raise KindMismatch(f"expected a {kind.value}, got a {s.kind.value}")


def _require_element(p, v):
    if not 0 <= v < p.n:
        raise ValueError(f"toggle at {v} references a missing element")


# -- transfer maps ---------------------------------------------------------

_COMPLEMENT_KIND = {Kind.IDEAL: Kind.FILTER, Kind.FILTER: Kind.IDEAL,
                    Kind.ANTICHAIN: Kind.RAW, Kind.RAW: Kind.RAW}


def complement(p, s):
    """Complement within P; swaps the ideal and filter kinds."""
    return SubsetState(p._full & ~s.mask, _COMPLEMENT_KIND[s.kind])


def up_transfer(p, s):
    """Maximal elements of an ideal, as an antichain."""
    return _transfer(p, s, down=False)


def down_transfer(p, s):
    """Minimal elements of a filter, as an antichain."""
    return _transfer(p, s, down=True)


def _transfer(p, s, down):
    _require(s, Kind.FILTER if down else Kind.IDEAL)
    return SubsetState(_extremes(p, s.mask, down), Kind.ANTICHAIN)


def _extremes(p, m, down):
    """The members of ``m`` with no lower cover (``down``) or no upper cover in ``m``:
    those that are no upper (or lower) cover of a member."""
    covers = p._upper_covers if down else p._lower_covers
    covered, rest = 0, m
    while rest:  # _bits(m) inlined: rowmotion runs two of these loops per step
        low = rest & -rest
        covered |= covers[low.bit_length() - 1]
        rest ^= low
    return m & ~covered


def inverse_up_transfer(p, s):
    """Downward saturation of an antichain, as an ideal."""
    return _inv_transfer(p, s, down=False)


def inverse_down_transfer(p, s):
    """Upward saturation of an antichain, as a filter."""
    return _inv_transfer(p, s, down=True)


def _inv_transfer(p, s, down):
    _require(s, Kind.ANTICHAIN)
    return SubsetState(_saturated(p, s.mask, down), Kind.FILTER if down else Kind.IDEAL)


def _saturated(p, m, down):
    """``m`` with every element above (``down``, a filter) or below a member (an ideal)."""
    reach = p._above if down else p._below
    out, rest = m, m
    while rest:
        low = rest & -rest
        out |= reach[low.bit_length() - 1]
        rest ^= low
    return out


# -- toggles ---------------------------------------------------------------


def toggle_ideal(p, v, s):
    """Add or remove v when the result is still an ideal, else fix."""
    _require(s, Kind.IDEAL)
    _require_element(p, v)
    return SubsetState(_toggled_ideal(p, v, s.mask), Kind.IDEAL)


def toggle_filter(p, v, s):
    """The ideal toggle conjugated by the complement."""
    _require(s, Kind.FILTER)
    _require_element(p, v)
    return SubsetState(p._full & ~_toggled_ideal(p, v, p._full & ~s.mask), Kind.FILTER)


def toggle_antichain(p, v, s):
    """Remove v if present; add it when it stays an antichain; else fix."""
    _require(s, Kind.ANTICHAIN)
    _require_element(p, v)
    return SubsetState(_toggled_antichain(p, v, s.mask), Kind.ANTICHAIN)


def _toggled_ideal(p, v, m):
    bit = 1 << v
    if m & bit:
        return m if p._upper_covers[v] & m else m ^ bit
    return m if p._lower_covers[v] & ~m else m | bit


def _toggled_antichain(p, v, m):
    bit = 1 << v
    if m & bit:
        return m ^ bit
    return m if (p._below[v] | p._above[v]) & m else m | bit


# -- rowmotion -------------------------------------------------------------


def rowmotion(p, kind, s):
    """Rowmotion on ideals, antichains, or filters.

    Computes both the transfer-map composition and the toggle product
    along the default linear extension and insists they agree.  Filter
    rowmotion is ideal rowmotion conjugated by the complement.
    """
    kind = Kind(kind)
    _require(s, kind)
    if kind == Kind.IDEAL:
        mask = _ideal_rowmotion(p, s.mask)
    elif kind == Kind.FILTER:
        mask = p._full & ~_ideal_rowmotion(p, p._full & ~s.mask)
    elif kind == Kind.ANTICHAIN:
        mask = _antichain_rowmotion(p, s.mask)
    else:
        raise KindMismatch("rowmotion is defined on ideals, antichains, and filters")
    return SubsetState(mask, kind)


def _ideal_rowmotion(p, m):
    via_transfer = _saturated(p, _extremes(p, p._full & ~m, down=True), down=False)
    via_toggles = m
    for v in reversed(p.default_linear_extension):
        via_toggles = _toggled_ideal(p, v, via_toggles)
    return _agreed(via_toggles, via_transfer)


def _antichain_rowmotion(p, m):
    via_transfer = _extremes(p, p._full & ~_saturated(p, m, down=False), down=True)
    via_toggles = m
    for v in p.default_linear_extension:
        via_toggles = _toggled_antichain(p, v, via_toggles)
    return _agreed(via_toggles, via_transfer)


def _agreed(via_toggles, via_transfer):
    if via_transfer != via_toggles:
        raise CompositionMismatch(
            f"toggle product {list(_bits(via_toggles))} != "
            f"transfer composition {list(_bits(via_transfer))}")
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
    n, below, full = p.n, p._below, p._full
    flip_tested, flip_outside = (full * c for c in _COMPLEMENTED[kind])
    out = []
    for mask in range(full + 1):
        tested, outside = mask ^ flip_tested, mask ^ flip_outside
        for v in range(n):
            if tested >> v & 1 and below[v] & outside:
                break
        else:
            out.append(SubsetState(mask, kind))
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
