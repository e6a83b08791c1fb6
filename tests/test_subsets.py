import itertools
import random
import re
from fractions import Fraction

import pytest

from rowmotion import subsets
from rowmotion.errors import CompositionMismatch, KindMismatch
from rowmotion.poset import Poset, chain_product, random_graded_poset, random_poset, root_poset_a
from rowmotion.subsets import (
    Kind,
    SubsetState,
    all_antichains,
    all_filters,
    all_ideals,
    antichain,
    complement,
    down_transfer,
    filter_state,
    ideal,
    inverse_down_transfer,
    inverse_up_transfer,
    make_state,
    map_order,
    orbit,
    orbit_average,
    orbit_partition,
    rowmotion,
    rowmotion_antichain,
    rowmotion_filter,
    rowmotion_ideal,
    toggle_antichain,
    toggle_filter,
    toggle_ideal,
    up_transfer,
)

# Letters a..f for the A3 triangle, in the builder's element order u,v,w,x,y,z:
# a=[1,1], b=[2,2], c=[3,3] (bottom), d=[1,2], e=[2,3] (middle), f=[1,3] (top).
A, B, C, D, E, F = range(6)


def state_of(members, kind):
    """The state of ``kind`` whose mask has the bits of ``members``, unchecked."""
    return SubsetState(sum(1 << v for v in members), kind)


def test_complement_empty_ideal(p23):
    s = complement(p23, ideal(p23, []))
    assert s.kind == Kind.FILTER
    assert s.members == frozenset(range(6))


def test_complement_four_element_ideal(a3):
    # the four-element ideal {a,b,c,e} complements to the filter {d,f}
    s = complement(a3, ideal(a3, {A, B, C, E}))
    assert s.members == {D, F}
    assert s.kind == Kind.FILTER


def test_complement_is_an_involution_on_random_subsets():
    rng = random.Random(5)
    for trial in range(50):
        p = random_poset(rng.randint(1, 7), seed=rng.randint(0, 10**6))
        members = frozenset(v for v in range(p.n) if rng.random() < 0.5)
        s = state_of(members, Kind.RAW)
        assert complement(p, complement(p, s)).members == members


def test_up_transfer_roundtrip_all_antichains(p23):
    for s in all_antichains(p23):
        assert up_transfer(p23, inverse_up_transfer(p23, s)) == s
    for s in all_ideals(p23):
        assert inverse_up_transfer(p23, up_transfer(p23, s)) == s


def test_up_transfer_empty(p23):
    assert up_transfer(p23, ideal(p23, [])).members == frozenset()
    assert inverse_up_transfer(p23, antichain(p23, [])).members == frozenset()


def test_up_transfer_a3_example(a3):
    # the ideal {a,b,c,e} has maximal elements {a, e}
    got = up_transfer(a3, ideal(a3, {A, B, C, E}))
    assert got.members == {A, E}


def test_down_transfer_full_poset(p23):
    got = down_transfer(p23, filter_state(p23, range(6)))
    assert got.members == set(p23.minimal_elements())


def test_down_transfer_a3_example(a3):
    # middle step of order-ideal rowmotion: filter {d,f} -> {d}
    assert down_transfer(a3, filter_state(a3, {D, F})).members == {D}


def test_down_transfer_roundtrip_2x2(p22):
    for s in all_antichains(p22):
        assert down_transfer(p22, inverse_down_transfer(p22, s)) == s


def test_kind_mismatch_raised(p23):
    with pytest.raises(KindMismatch):
        up_transfer(p23, filter_state(p23, {5}))
    with pytest.raises(KindMismatch):
        toggle_ideal(p23, 0, antichain(p23, {0}))
    with pytest.raises(KindMismatch):
        ideal(p23, {5})  # the top element alone is not downward closed


def test_ideal_toggle_step_by_step_sequence(a3):
    # hand-traced toggle-by-toggle states: T_f T_e T_d T_c T_b T_a applied
    # top-down to {a,b,c,e}
    s = ideal(a3, {A, B, C, E})
    panels = []
    for v in (F, E, D, C, B, A):
        s = toggle_ideal(a3, v, s)
        panels.append(set(s.members))
    assert panels == [
        {A, B, C, E},   # f not addable: d missing below it
        {A, B, C},      # e removed
        {A, B, C, D},   # d added
        {A, B, D},      # c removed
        {A, B, D},      # b not removable: d above it
        {A, B, D},      # a not removable: d above it
    ]


def test_ideal_toggle_maximal_not_addable(p23):
    s = ideal(p23, [])
    assert toggle_ideal(p23, 5, s) == s


def test_ideal_toggles_are_involutions(p23):
    for s in all_ideals(p23):
        for v in range(p23.n):
            assert toggle_ideal(p23, v, toggle_ideal(p23, v, s)) == s


def test_antichain_toggle_step_by_step_sequence(a3):
    # tau_f tau_e tau_d tau_c tau_b tau_a applied bottom-up to {a, e}
    s = antichain(a3, {A, E})
    panels = []
    for v in (A, B, C, D, E, F):
        s = toggle_antichain(a3, v, s)
        panels.append(set(s.members))
    assert panels == [
        {E},        # a removed
        {E},        # b comparable with e
        {E},        # c comparable with e
        {D, E},     # d added
        {D},        # e removed
        {D},        # f comparable with d
    ]


def test_antichain_toggle_removes_singleton(p23):
    s = antichain(p23, {3})
    assert toggle_antichain(p23, 3, s).members == frozenset()


def test_antichain_toggles_are_involutions(a3):
    for s in all_antichains(a3):
        for v in range(a3.n):
            assert toggle_antichain(a3, v, toggle_antichain(a3, v, s)) == s


def test_toggle_commutation_both_directions(p23, a3):
    for p in (p23, a3):
        ideals = all_ideals(p)
        antichains = all_antichains(p)
        for u, v in itertools.combinations(range(p.n), 2):
            covering = (u, v) in p.covers or (v, u) in p.covers
            t_commutes = all(
                toggle_ideal(p, u, toggle_ideal(p, v, s))
                == toggle_ideal(p, v, toggle_ideal(p, u, s))
                for s in ideals)
            assert t_commutes == (not covering)
            tau_commutes = all(
                toggle_antichain(p, u, toggle_antichain(p, v, s))
                == toggle_antichain(p, v, toggle_antichain(p, u, s))
                for s in antichains)
            assert tau_commutes == p.incomparable(u, v)


def test_rowmotion_a3_hand_traced_examples(a3):
    got = rowmotion_ideal(a3, ideal(a3, {A, B, C, E}))
    assert got.members == {A, B, D}
    got = rowmotion_antichain(a3, antichain(a3, {A, E}))
    assert got.members == {D}


def test_rowmotion_antichain_of_empty_is_minimals(p23, a3):
    for p in (p23, a3):
        got = rowmotion_antichain(p, antichain(p, []))
        assert got.members == set(p.minimal_elements())


def test_rowmotion_checks_kind(p23):
    with pytest.raises(KindMismatch):
        rowmotion(p23, Kind.IDEAL, antichain(p23, []))


def test_rowmotion_2x3_order_five_from_every_start(p23):
    for s in all_antichains(p23):
        assert len(orbit(p23, rowmotion_antichain, s)) == 5


def test_toggle_products_match_transfers_for_every_extension(p23, a3, linear_extensions):
    # toggle products equal transfer compositions, on every extension and state
    for p in (p23, a3):
        exts = linear_extensions(p, limit=10**6)
        for ext in exts:
            for s in all_ideals(p):
                expected = rowmotion_ideal(p, s)
                got = s
                for v in reversed(ext):
                    got = toggle_ideal(p, v, got)
                assert got == expected
            for s in all_antichains(p):
                expected = rowmotion_antichain(p, s)
                got = s
                for v in ext:
                    got = toggle_antichain(p, v, got)
                assert got == expected
            for s in all_filters(p):
                expected = rowmotion_filter(p, s)
                got = s
                for v in reversed(ext):
                    got = toggle_filter(p, v, got)
                assert got == expected


def reference_toggle_filter(p, v, s):
    """The filter toggle written out on its own: add or remove v when the
    result is still a filter, else fix.  A reference for the complemented
    ideal toggle."""
    m = s.members
    if v not in m:
        if all(w in m for w in p.up_adjacency[v]):
            return state_of(m | {v}, Kind.FILTER)
    elif not any(u in m for u in p.down_adjacency[v]):
        return state_of(m - {v}, Kind.FILTER)
    return s


def filter_oracle_posets():
    return ([random_poset(n, 1000 + n) for n in range(3, 10)]
            + [random_graded_poset(seed) for seed in (1, 2, 7)])


@pytest.mark.parametrize("p", filter_oracle_posets(), ids=repr)
def test_filter_toggle_matches_reference_on_every_filter(p):
    for s in all_filters(p):
        for v in range(p.n):
            assert toggle_filter(p, v, s) == reference_toggle_filter(p, v, s)


@pytest.mark.parametrize("p", filter_oracle_posets(), ids=repr)
def test_filter_rowmotion_matches_reference_toggle_product(p):
    moved = 0
    for s in all_filters(p):
        got = s
        for v in reversed(p.default_linear_extension):
            got = reference_toggle_filter(p, v, got)
        assert rowmotion_filter(p, s) == got
        moved += got != s
    assert moved  # rowmotion is not the identity on any nonempty poset


# The set validators that make_state ran before the mask test: the reference for
# it and for the enumerator.
def is_ideal(p, members):
    return all(u in members for v in members for u in p.down_adjacency[v])


def is_filter(p, members):
    return all(w in members for v in members for w in p.up_adjacency[v])


def is_antichain(p, members):
    ms = sorted(members)
    return all(p.incomparable(u, v) for i, u in enumerate(ms) for v in ms[i + 1:])


def reference_all_states(p, validator, kind):
    """The enumeration before integer masks: a frozenset per mask, then the
    set validator.  A reference for the mask tests of ``all_*``."""
    out = []
    for mask in range(1 << p.n):
        members = frozenset(v for v in range(p.n) if mask >> v & 1)
        if validator(p, members):
            out.append(state_of(members, kind))
    return out


ENUMERATIONS = [(all_ideals, is_ideal, Kind.IDEAL), (all_filters, is_filter, Kind.FILTER),
                (all_antichains, is_antichain, Kind.ANTICHAIN)]


@pytest.mark.parametrize("kind", [Kind.IDEAL, Kind.FILTER, Kind.ANTICHAIN])
def test_make_state_refuses_members_outside_the_poset(p22, kind):
    # on an antichain poset, -1 once passed the set test of an ideal, and
    # rowmotion then reported the input error as a CompositionMismatch
    for p, members in [(p22, {99}), (p22, {-1}), (p22, {0, 4}), (Poset(3, []), {-1})]:
        stray = re.escape(f"{sorted(members - p.elements)} are not elements")
        with pytest.raises(KindMismatch, match=stray):
            make_state(p, members, kind)


def test_make_state_accepts_exactly_the_subsets_the_set_validators_accept():
    # every subset of -1..n, so that each poset also meets members on both sides of it
    rng = random.Random(2803)
    posets = [relabeled(random_poset(n, rng.randrange(10**6)), rng)
              for n in range(9) for _ in range(4)]
    for p in posets:
        for mask in range(1 << p.n + 2):
            members = frozenset(v - 1 for v in range(p.n + 2) if mask >> v & 1)
            for _, validator, kind in ENUMERATIONS:
                try:
                    make_state(p, members, kind)
                    accepted = True
                except KindMismatch:
                    accepted = False
                expected = members <= p.elements and validator(p, members)
                assert accepted == expected, (p.covers, sorted(members), kind)


def relabeled(p, rng):
    """``p`` with its indices shuffled, so the identity need not be a linear extension."""
    perm = list(range(p.n))
    rng.shuffle(perm)
    return Poset(p.n, [(perm[u], perm[v]) for (u, v) in p.covers])


def test_state_enumeration_matches_set_reference_on_relabeled_posets(p23, a3):
    rng = random.Random(4111)
    posets = [Poset(0, []), p23, a3]
    posets += [relabeled(random_poset(n, rng.randrange(10**6)), rng)
               for n in range(12) for _ in range(10)]
    assert sum(u > v for p in posets for (u, v) in p.covers) > 100
    for p in posets:
        for enumerate_states, validator, kind in ENUMERATIONS:
            assert enumerate_states(p) == reference_all_states(p, validator, kind), (p.covers, kind)


@pytest.mark.parametrize("p,count", [(chain_product(4, 4), 70), (root_poset_a(5), 132),
                                     (chain_product(3, 6), 84)], ids=repr)
def test_census_state_counts(p, count):
    # the posets of the comb-census benchmark; each kind is in bijection with the others
    for enumerate_states, _, kind in ENUMERATIONS:
        states = enumerate_states(p)
        assert len(states) == count and {s.kind for s in states} == {kind}


def test_rowmotion_as_three_step_composition_exhaustive(a3):
    for s in all_antichains(a3):
        direct = down_transfer(a3, complement(a3, inverse_up_transfer(a3, s)))
        assert rowmotion_antichain(a3, s) == direct
    for s in all_ideals(a3):
        direct = inverse_up_transfer(a3, down_transfer(a3, complement(a3, s)))
        assert rowmotion_ideal(a3, s) == direct


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (2, 3), (1, 4), (3, 4)])
def test_rowmotion_order_on_chain_products(a, b):
    p = chain_product(a, b)
    assert map_order(orbit_partition(p, rowmotion_antichain, all_antichains(p))) == a + b
    assert map_order(orbit_partition(p, rowmotion_ideal, all_ideals(p))) == a + b


def test_homomesy_2x3(p23):
    for s in all_antichains(p23):
        assert orbit_average(orbit(p23, rowmotion_antichain, s)) == Fraction(6, 5)


def test_homomesy_singleton():
    p = chain_product(1, 1)
    assert orbit_average(orbit(p, rowmotion_antichain, antichain(p, []))) == Fraction(1, 2)


def test_homomesy_2x2(p22):
    for s in all_antichains(p22):
        assert orbit_average(orbit(p22, rowmotion_antichain, s)) == 1


def test_custom_statistic(p23):
    # top-element membership is NOT homomesic: one orbit contains {top}, the
    # other avoids the top entirely (brute-force enumeration)
    top_indicator = lambda s: Fraction(1 if 5 in s.members else 0)
    values = {orbit_average(orbit(p23, rowmotion_antichain, s), statistic=top_indicator)
              for s in all_antichains(p23)}
    assert values == {Fraction(1, 5), Fraction(0)}


def test_orbit_partition_covers_state_space(p23):
    orbits = orbit_partition(p23, rowmotion_antichain, all_antichains(p23))
    assert sorted(len(o) for o in orbits) == [5, 5]
    assert sum(len(o) for o in orbits) == len(all_antichains(p23))


def test_orbit_budget_exceeded(p23, monkeypatch):
    from rowmotion import subsets
    from rowmotion.errors import OrbitBudgetExceeded
    monkeypatch.setattr(subsets, "DEFAULT_ORBIT_BUDGET", 2)
    with pytest.raises(OrbitBudgetExceeded):
        orbit(p23, rowmotion_antichain, antichain(p23, []))


# -- frozenset references for the mask maps -----------------------------------
# The set code that ran before states became integer masks, on member sets and
# cover lists: a differential oracle for every map of subsets.py.


def reference_complement(p, s):
    kind = {Kind.IDEAL: Kind.FILTER, Kind.FILTER: Kind.IDEAL}.get(s.kind, Kind.RAW)
    return state_of(p.elements - s.members, kind)


def reference_transfer(p, s, down):
    """Minimal (``down``) or maximal members: those with no lower or upper cover inside."""
    covers = p.down_adjacency if down else p.up_adjacency
    m = s.members
    return state_of({v for v in m if not any(w in m for w in covers[v])}, Kind.ANTICHAIN)


def reference_inverse_transfer(p, s, down):
    """Every element above (``down``, a filter) or below (an ideal) some member."""
    reaches = (lambda x, y: p.leq(y, x)) if down else p.leq
    members = {x for x in range(p.n) if any(reaches(x, y) for y in s.members)}
    return state_of(members, Kind.FILTER if down else Kind.IDEAL)


def reference_toggle_ideal(p, v, s):
    m = s.members
    if v not in m:
        if all(u in m for u in p.down_adjacency[v]):
            return state_of(m | {v}, Kind.IDEAL)
    elif not any(w in m for w in p.up_adjacency[v]):
        return state_of(m - {v}, Kind.IDEAL)
    return s


def reference_toggle_antichain(p, v, s):
    m = s.members
    if v in m:
        return state_of(m - {v}, Kind.ANTICHAIN)
    if all(p.incomparable(v, u) for u in m):
        return state_of(m | {v}, Kind.ANTICHAIN)
    return s


REFERENCE_TOGGLES = {Kind.IDEAL: reference_toggle_ideal, Kind.FILTER: reference_toggle_filter,
                     Kind.ANTICHAIN: reference_toggle_antichain}
TOGGLES = {Kind.IDEAL: toggle_ideal, Kind.FILTER: toggle_filter,
           Kind.ANTICHAIN: toggle_antichain}


def reference_rowmotion(p, s):
    """The transfer composition on sets, checked against the reference toggle product
    along the default extension (top-down for ideals and filters)."""
    if s.kind == Kind.ANTICHAIN:
        via_transfer = reference_transfer(
            p, reference_complement(p, reference_inverse_transfer(p, s, down=False)), down=True)
        order = p.default_linear_extension
    else:
        ideal_start = s if s.kind == Kind.IDEAL else reference_complement(p, s)
        via_transfer = reference_inverse_transfer(
            p, reference_transfer(p, reference_complement(p, ideal_start), down=True), down=False)
        if s.kind == Kind.FILTER:
            via_transfer = reference_complement(p, via_transfer)
        order = reversed(p.default_linear_extension)
    via_toggles = s
    for v in order:
        via_toggles = REFERENCE_TOGGLES[s.kind](p, v, via_toggles)
    assert via_toggles == via_transfer
    return via_transfer


def mask_map_mismatches(p):
    """Each (map, state) on which a mask map of subsets.py differs from its reference,
    over every ideal, filter and antichain of ``p`` and one raw subset per antichain."""
    bad = []

    def check(name, s, got, want):
        if got != want:
            bad.append((name, sorted(s.members), s.kind.value))

    for s in all_ideals(p) + all_filters(p) + all_antichains(p):
        check("complement", s, complement(p, s), reference_complement(p, s))
        raw = state_of(s.members, Kind.RAW)
        check("complement", raw, complement(p, raw), reference_complement(p, raw))
        if s.kind == Kind.IDEAL:
            check("up_transfer", s, up_transfer(p, s), reference_transfer(p, s, down=False))
        elif s.kind == Kind.FILTER:
            check("down_transfer", s, down_transfer(p, s), reference_transfer(p, s, down=True))
        else:
            check("inverse_up_transfer", s, inverse_up_transfer(p, s),
                  reference_inverse_transfer(p, s, down=False))
            check("inverse_down_transfer", s, inverse_down_transfer(p, s),
                  reference_inverse_transfer(p, s, down=True))
        for v in range(p.n):
            check(f"toggle {v}", s, TOGGLES[s.kind](p, v, s), REFERENCE_TOGGLES[s.kind](p, v, s))
        check("rowmotion", s, rowmotion(p, s.kind, s), reference_rowmotion(p, s))
    return bad


def oracle_posets():
    rng = random.Random(3507)
    posets = [Poset(0, [])] + [random_poset(n, rng.randrange(10**6)) for n in range(1, 9)]
    posets += [relabeled(random_poset(n, rng.randrange(10**6)), rng)
               for n in range(1, 10) for _ in range(3)]
    posets += [random_graded_poset(seed) for seed in (3, 4)]
    return posets


def test_oracle_posets_leave_index_order():
    # relabeled posets put covers against the index order, so no mask map may rely on it
    posets = oracle_posets()
    assert sum(u > v for p in posets for (u, v) in p.covers) > 20
    assert sum(p.default_linear_extension != tuple(range(p.n)) for p in posets) > 10


@pytest.mark.parametrize("p", oracle_posets(), ids=repr)
def test_mask_maps_match_frozenset_references(p):
    assert mask_map_mismatches(p) == []


def test_frozenset_oracle_catches_inverse_transfers_reading_cover_masks(monkeypatch):
    # a mutant that saturates along the covers only: right for height-two posets, wrong above
    def inverse_transfer_on_covers(p, s, down):
        covers = p._upper_covers if down else p._lower_covers
        out = s.mask
        for v in s.members:
            out |= covers[v]
        return SubsetState(out, Kind.FILTER if down else Kind.IDEAL)

    monkeypatch.setattr(subsets, "_inv_transfer", inverse_transfer_on_covers)
    caught = {name for p in oracle_posets() for name, _, _ in mask_map_mismatches(p)}
    assert caught == {"inverse_up_transfer", "inverse_down_transfer"}


def test_broken_masked_toggle_trips_the_composition_check(p23, monkeypatch):
    # an ideal toggle that never removes an element: the toggle product then
    # disagrees with the transfer composition, and rowmotion refuses to answer
    def never_removes(p, v, m):
        return m | 1 << v if not p._lower_covers[v] & ~m else m

    monkeypatch.setattr(subsets, "_toggled_ideal", never_removes)
    with pytest.raises(CompositionMismatch, match=r"toggle product \[0, 1, 2, 3, 4, 5\] != "
                                                  r"transfer composition \[\]$"):
        rowmotion_ideal(p23, ideal(p23, range(6)))
    with pytest.raises(CompositionMismatch):
        rowmotion_filter(p23, filter_state(p23, []))


@pytest.mark.parametrize("toggle,kind", [(toggle_ideal, Kind.IDEAL),
                                         (toggle_filter, Kind.FILTER),
                                         (toggle_antichain, Kind.ANTICHAIN)])
@pytest.mark.parametrize("v", [-1, 6])
def test_single_toggles_refuse_a_missing_element(p23, toggle, kind, v):
    # -1 once read the covers of element 5, and 6 made the "antichain" {6}
    s = make_state(p23, [], kind)
    with pytest.raises(ValueError, match=f"toggle at {v} references a missing element"):
        toggle(p23, v, s)


def test_filter_rowmotion_is_one_rowmotion_call(p23, monkeypatch):
    calls = []
    inner = subsets.rowmotion

    def counted(*args):
        calls.append(args[1])
        return inner(*args)

    monkeypatch.setattr(subsets, "rowmotion", counted)
    for s in all_filters(p23):
        rowmotion_filter(p23, s)
    assert calls == [Kind.FILTER] * len(all_filters(p23))


def test_subset_state_reads_its_mask():
    s = SubsetState(0b101001, Kind.RAW)
    assert s.members == frozenset({0, 3, 5}) and len(s) == 3
    assert [v in s for v in (-1, 0, 1, 3, 5, 6, "0")] == [False, True, False, True, True,
                                                            False, False]
    assert s == SubsetState(0b101001, Kind.RAW) != SubsetState(0b101001, Kind.ANTICHAIN)
    assert hash(s) == hash(SubsetState(0b101001, Kind.RAW))
    with pytest.raises(AttributeError):
        s.mask = 0
