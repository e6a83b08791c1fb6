import gc
import random
import weakref
from fractions import Fraction

import pytest

from rowmotion.backends import MatrixRing, RationalField, TropicalSemiring
from rowmotion.dynamics import Atom, Dynamics
from rowmotion.errors import DomainViolation, NotGraded
from rowmotion.poset import chain_product, random_graded_poset, random_poset, root_poset_a
from rowmotion.polytopes import (
    in_chain_polytope,
    in_order_polytope,
    in_order_reversing,
    in_unit_cube,
    indicator,
    pl_antichain_rowmotion,
    pl_antichain_toggle,
    pl_apply,
    pl_order_rowmotion,
    pl_order_toggle,
    random_chain_polytope_point,
    random_order_polytope_point,
    random_order_reversing_point,
)
from rowmotion.subsets import (
    all_antichains,
    all_filters,
    all_ideals,
    complement,
    down_transfer,
    inverse_down_transfer,
    inverse_up_transfer,
    rowmotion_antichain,
    rowmotion_filter,
    rowmotion_ideal,
    toggle_antichain,
    toggle_filter,
    toggle_ideal,
    up_transfer,
)

F = Fraction


def test_all_zero_in_all_three(p23):
    zero = (F(0),) * 6
    assert in_order_polytope(p23, zero)
    assert in_chain_polytope(p23, zero)
    assert in_order_reversing(p23, zero)


def test_vertices_are_indicators(p23):
    for s in all_filters(p23):
        assert in_order_polytope(p23, indicator(p23, s.members))
    for s in all_antichains(p23):
        assert in_chain_polytope(p23, indicator(p23, s.members))
    for s in all_ideals(p23):
        assert in_order_reversing(p23, indicator(p23, s.members))


def test_chain_sum_three_halves_rejected(p22):
    f = (F(3, 4), F(0), F(0), F(3, 4))  # the (1,1)-(2,1)-(2,2) chain sums to 3/2
    assert sum(f[v] for v in p22.maximal_chains()[0]) == F(3, 2)
    assert not in_chain_polytope(p22, f)


def test_pl_order_toggle_singleton():
    p = chain_product(1, 1)
    assert pl_order_toggle(p, 0, (F(1, 3),)) == (F(2, 3),)


def test_pl_antichain_toggle_singleton():
    p = chain_product(1, 1)
    assert pl_antichain_toggle(p, 0, (F(1, 4),)) == (F(3, 4),)


def test_pl_order_toggle_restricts_to_filter_toggle(p23):
    for s in all_filters(p23):
        f = indicator(p23, s.members)
        for v in range(p23.n):
            assert pl_order_toggle(p23, v, f) == \
                indicator(p23, toggle_filter(p23, v, s).members)


def test_pl_antichain_toggle_restricts_to_antichain_toggle(p23):
    for s in all_antichains(p23):
        g = indicator(p23, s.members)
        for v in range(p23.n):
            assert pl_antichain_toggle(p23, v, g) == \
                indicator(p23, toggle_antichain(p23, v, s).members)


def test_pl_transfers_restrict_to_combinatorial_maps(p23):
    for s in all_filters(p23):
        f = indicator(p23, s.members)
        assert pl_apply(p23, "theta", f) == indicator(p23, complement(p23, s).members)
        assert pl_apply(p23, "down_transfer", f) == indicator(p23, down_transfer(p23, s).members)
    for s in all_ideals(p23):
        f = indicator(p23, s.members)
        assert pl_apply(p23, "up_transfer", f) == indicator(p23, up_transfer(p23, s).members)
    for s in all_antichains(p23):
        g = indicator(p23, s.members)
        assert pl_apply(p23, "inv_down_transfer", g) == \
            indicator(p23, inverse_down_transfer(p23, s).members)
        assert pl_apply(p23, "inv_up_transfer", g) == \
            indicator(p23, inverse_up_transfer(p23, s).members)


def test_comb_maps_are_pl_maps_at_vertices_of_random_posets():
    """Seeded cross-check: at 0/1 labelings every combinatorial map is its PL map."""
    posets = ([random_poset(n, seed) for n in range(3, 10) for seed in (n, 10 + n)]
              + [random_graded_poset(seed) for seed in range(10)])
    for p in posets:
        def ind(s):
            return indicator(p, s.members)

        def through_complement(pl_map, f):  # ideal indicators are 1 - filter indicators
            return pl_apply(p, "theta", pl_map(pl_apply(p, "theta", f)))

        for s in all_filters(p):
            f = ind(s)
            assert pl_order_rowmotion(p, f) == ind(rowmotion_filter(p, s))
            assert pl_apply(p, "theta", f) == ind(complement(p, s))
            assert pl_apply(p, "down_transfer", f) == ind(down_transfer(p, s))
            for v in range(p.n):
                assert pl_order_toggle(p, v, f) == ind(toggle_filter(p, v, s))
        for s in all_ideals(p):
            f = ind(s)
            assert through_complement(lambda h: pl_order_rowmotion(p, h), f) == \
                ind(rowmotion_ideal(p, s))
            assert pl_apply(p, "up_transfer", f) == ind(up_transfer(p, s))
            for v in range(p.n):
                assert through_complement(lambda h: pl_order_toggle(p, v, h), f) == \
                    ind(toggle_ideal(p, v, s))
        for s in all_antichains(p):
            g = ind(s)
            assert pl_antichain_rowmotion(p, g) == ind(rowmotion_antichain(p, s))
            assert pl_apply(p, "inv_down_transfer", g) == ind(inverse_down_transfer(p, s))
            assert pl_apply(p, "inv_up_transfer", g) == ind(inverse_up_transfer(p, s))
            for v in range(p.n):
                assert pl_antichain_toggle(p, v, g) == ind(toggle_antichain(p, v, s))


def test_pl_toggles_are_involutions_at_random_points(a3):
    for seed in range(100):
        f = random_order_polytope_point(a3, seed)
        for v in range(a3.n):
            assert pl_order_toggle(a3, v, pl_order_toggle(a3, v, f)) == f
        g = random_chain_polytope_point(a3, seed)
        for v in range(a3.n):
            assert pl_antichain_toggle(a3, v, pl_antichain_toggle(a3, v, g)) == g


def test_pl_toggles_stay_in_polytopes(a3, p23):
    for p in (a3, p23):
        for seed in range(25):
            f = random_order_polytope_point(p, seed)
            for v in range(p.n):
                f = pl_order_toggle(p, v, f)
                assert in_order_polytope(p, f)
            g = random_chain_polytope_point(p, seed)
            for v in range(p.n):
                g = pl_antichain_toggle(p, v, g)
                assert in_chain_polytope(p, g)


def test_pl_complement_of_zero_is_one(p23):
    zero = (F(0),) * 6
    assert pl_apply(p23, "theta", zero) == (F(1),) * 6


def test_pl_domain_violation(p23):
    bad = (F(2),) * 6
    with pytest.raises(DomainViolation, match="^labeling is outside the order polytope$"):
        pl_order_toggle(p23, 0, bad)
    with pytest.raises(DomainViolation, match="^labeling is outside the order polytope$"):
        pl_apply(p23, "down_transfer", bad)
    with pytest.raises(DomainViolation, match="^labeling is outside the order-reversing polytope$"):
        pl_apply(p23, "up_transfer", bad)
    with pytest.raises(DomainViolation, match="^labeling is outside the chain polytope$"):
        pl_antichain_toggle(p23, 0, bad)


def bridge_posets():
    return ([chain_product(2, 3), root_poset_a(3)]
            + [random_graded_poset(seed) for seed in range(6)]
            + [random_poset(7, seed) for seed in range(4)])


@pytest.mark.parametrize("p", bridge_posets(), ids=repr)
def test_toggle_group_isomorphism_on_polytope_points(p):
    """The paper's isomorphism between the two toggle groups, run as PL toggle
    words: theta o inv-up carries each antichain-side word to its order-side one."""
    dyn = Dynamics(p, TropicalSemiring())

    def bridge(g):
        return pl_apply(p, "theta", pl_apply(p, "inv_up_transfer", g))

    pairs = [(dyn.star_word((Atom(k, v),)), (Atom(k, v),)) for v in range(p.n) for k in "TE"]
    pairs += [((Atom(k, v),), dyn.star_word((Atom(k, v),)))
              for v in range(p.n) for k in ("tau", "eps")]
    if p.is_graded:
        pairs.append((dyn.antichain_gyration_word(), dyn.order_gyration_word()))
    for seed in range(10):
        g = random_chain_polytope_point(p, seed)
        side = bridge(g)
        for anti, order in pairs:
            assert bridge(pl_apply(p, anti, g)) == pl_apply(p, order, side), (anti, order)


def test_pl_apply_runs_names_and_words_alike(p23):
    ext = p23.default_linear_extension
    for seed in range(10):
        f = random_order_polytope_point(p23, seed)
        g = random_chain_polytope_point(p23, seed)
        assert pl_apply(p23, "order_rowmotion", f) == \
            pl_apply(p23, tuple(Atom("T", v) for v in reversed(ext)), f)
        assert pl_apply(p23, "antichain_rowmotion", g) == \
            pl_apply(p23, tuple(Atom("tau", v) for v in ext), g)
        assert pl_apply(p23, (), f) == f


def test_pl_apply_errors(p23):
    f = random_order_polytope_point(p23, 1)
    with pytest.raises(ValueError, match="mix order and antichain"):
        pl_apply(p23, (Atom("T", 0), Atom("tau", 1)), f)
    for name in ("rowmotion", "T", "order_rowmotion_via_transfers"):
        with pytest.raises(ValueError, match=f"unknown PL map '{name}'"):
            pl_apply(p23, name, f)
    with pytest.raises(DomainViolation, match="^labeling is outside the chain polytope$"):
        pl_apply(p23, (Atom("tau", 0),), (F(1),) * 6)
    ungraded = random_poset(7, 0)
    with pytest.raises(NotGraded):
        pl_apply(ungraded, (Atom("rank_T", 0),), random_order_polytope_point(ungraded, 1))


def test_wrong_length_labelings_are_refused_before_any_membership_test(p22):
    # One value too many must not pass the order tests, and one too few must not
    # reach an IndexError: each raises the labeling's own ValueError.
    steps = ["order_rowmotion", "up_transfer", "antichain_rowmotion", "theta",
             (Atom("T", 0),), (Atom("tau", 0),)]
    for f in ([F(0)] * 5, [F(0), F(1, 2)], [F(-1)] * 5, []):
        for member in (in_order_polytope, in_order_reversing, in_chain_polytope):
            with pytest.raises(ValueError, match="^expected 4 values$"):
                member(p22, f)
        for step in steps:
            with pytest.raises(ValueError, match="^expected 4 values$"):
                pl_apply(p22, step, f)


def test_pl_transfer_roundtrips_random_points(p23):
    for seed in range(100):
        f = random_order_polytope_point(p23, seed)
        assert pl_apply(p23, "inv_down_transfer", pl_apply(p23, "down_transfer", f)) == f
        h = random_order_reversing_point(p23, seed)
        assert pl_apply(p23, "inv_up_transfer", pl_apply(p23, "up_transfer", h)) == h
        g = random_chain_polytope_point(p23, seed)
        assert pl_apply(p23, "down_transfer", pl_apply(p23, "inv_down_transfer", g)) == g
        assert pl_apply(p23, "up_transfer", pl_apply(p23, "inv_up_transfer", g)) == g


def test_pl_rowmotion_equals_transfer_composition(p23, a3):
    for p in (p23, a3):
        for seed in range(50):
            f = random_order_polytope_point(p, seed)
            up = pl_apply(p, "inv_up_transfer", pl_apply(p, "down_transfer", f))
            assert pl_order_rowmotion(p, f) == pl_apply(p, "theta", up)
            g = random_chain_polytope_point(p, seed)
            flipped = pl_apply(p, "theta", pl_apply(p, "inv_up_transfer", g))
            assert pl_antichain_rowmotion(p, g) == pl_apply(p, "down_transfer", flipped)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (2, 3), (1, 5), (2, 4), (3, 3)])
def test_pl_antichain_rowmotion_order(a, b):
    p = chain_product(a, b)
    for seed in range(10):
        g = random_chain_polytope_point(p, seed)
        cur = g
        first_return = None
        for k in range(1, a + b + 1):
            cur = pl_antichain_rowmotion(p, cur)
            if cur == g:
                first_return = k
                break
        # generic points return first at a+b; the only allowed exception is
        # the 1/2 fixed point of the singleton
        if (a, b) == (1, 1) and first_return == 1:
            assert g == (F(1, 2),)
        else:
            assert first_return == a + b


def test_random_points_lie_in_their_polytopes(p33):
    for seed in range(50):
        assert in_order_polytope(p33, random_order_polytope_point(p33, seed))
        assert in_chain_polytope(p33, random_chain_polytope_point(p33, seed))
        assert in_order_reversing(p33, random_order_reversing_point(p33, seed))
    posets = ([random_poset(n, seed) for n in (4, 7) for seed in range(3)]
              + [random_graded_poset(seed) for seed in range(4)])
    for p in posets:
        for seed in range(8):
            assert in_order_polytope(p, random_order_polytope_point(p, seed))
            assert in_chain_polytope(p, random_chain_polytope_point(p, seed))
            assert in_order_reversing(p, random_order_reversing_point(p, seed))


# -- differential oracle: the piecewise-linear maps written out by hand ---------------
#
# The library runs every map as the tropical Dynamics; these are the
# direct max/min formulas, with maximal-chain enumeration for the chain sums.


def oracle_order_toggle(p, v, f):
    lower = max((f[u] for u in p.down_adjacency[v]), default=F(0))
    upper = min((f[w] for w in p.up_adjacency[v]), default=F(1))
    return f[:v] + (lower + upper - f[v],) + f[v + 1:]


def oracle_antichain_toggle(p, v, g):
    best = max(sum(g[x] for x in chain) for (chain, _) in p.chains_through(v))
    return g[:v] + (1 - best,) + g[v + 1:]


def oracle_complement(p, f):
    return tuple(1 - x for x in f)


def oracle_down_transfer(p, f):
    return tuple(f[x] - max((f[u] for u in p.down_adjacency[x]), default=F(0))
                 for x in range(p.n))


def oracle_up_transfer(p, f):
    return tuple(f[x] - max((f[w] for w in p.up_adjacency[x]), default=F(0))
                 for x in range(p.n))


def oracle_inv_down_transfer(p, f):
    out = [None] * p.n
    for x in p.default_linear_extension:
        out[x] = f[x] + max((out[u] for u in p.down_adjacency[x]), default=F(0))
    return tuple(out)


def oracle_inv_up_transfer(p, f):
    out = [None] * p.n
    for x in reversed(p.default_linear_extension):
        out[x] = f[x] + max((out[w] for w in p.up_adjacency[x]), default=F(0))
    return tuple(out)


def oracle_order_rowmotion(p, f):
    for v in reversed(p.default_linear_extension):
        f = oracle_order_toggle(p, v, f)
    return f


def oracle_antichain_rowmotion(p, g):
    for v in p.default_linear_extension:
        g = oracle_antichain_toggle(p, v, g)
    return g


def oracle_in_chain_polytope(p, f):
    return (all(x >= 0 for x in f)
            and all(sum(f[v] for v in chain) <= 1 for chain in p.maximal_chains()))


def oracle_posets():
    return ([chain_product(2, 3), chain_product(3, 3), root_poset_a(3)]
            + [random_poset(n, seed) for n, seed in ((6, 1), (7, 101), (8, 5))]
            + [random_graded_poset(seed) for seed in (1, 2, 7)])


@pytest.mark.parametrize("p", oracle_posets(), ids=repr)
def test_pl_maps_match_hand_written_formulas(p):
    for seed in range(8):
        f = random_order_polytope_point(p, seed)
        h = random_order_reversing_point(p, seed)
        g = random_chain_polytope_point(p, seed)
        assert pl_apply(p, "theta", f) == oracle_complement(p, f)
        assert pl_apply(p, "down_transfer", f) == oracle_down_transfer(p, f)
        assert pl_apply(p, "up_transfer", h) == oracle_up_transfer(p, h)
        assert pl_apply(p, "inv_down_transfer", g) == oracle_inv_down_transfer(p, g)
        assert pl_apply(p, "inv_up_transfer", g) == oracle_inv_up_transfer(p, g)
        assert pl_order_rowmotion(p, f) == oracle_order_rowmotion(p, f)
        assert pl_antichain_rowmotion(p, g) == oracle_antichain_rowmotion(p, g)
        for v in range(p.n):
            assert pl_order_toggle(p, v, f) == oracle_order_toggle(p, v, f)
            assert pl_antichain_toggle(p, v, g) == oracle_antichain_toggle(p, v, g)


@pytest.mark.parametrize("p", oracle_posets(), ids=repr)
def test_chain_polytope_membership_matches_enumeration(p):
    for seed in range(8):
        g = random_chain_polytope_point(p, seed)
        worst = max(sum(g[v] for v in chain) for chain in p.maximal_chains())
        candidates = [g, tuple(-x for x in g), g[:-1] + (F(-1, 64),)]
        if worst:  # rescaled so the maximum chain sum is exactly 1, then 1 + 1/64
            edge, over = (tuple(x * bound / worst for x in g) for bound in (F(1), F(65, 64)))
            assert in_chain_polytope(p, edge) and not in_chain_polytope(p, over)
            candidates += [edge, over]
        for f in candidates:
            assert in_chain_polytope(p, f) == oracle_in_chain_polytope(p, f)


def oracle_in_order_reversing(p, f):
    return all(0 <= x <= 1 for x in f) and all(f[u] >= f[v] for (u, v) in p.covers)


@pytest.mark.parametrize("p", oracle_posets(), ids=repr)
def test_order_reversing_membership_matches_cover_check(p):
    rng = random.Random(p.n)
    outcomes = set()
    for seed in range(8):
        h = random_order_reversing_point(p, seed)
        raw = tuple(F(rng.randint(-8, 24), 16) for _ in range(p.n))  # in [-1/2, 3/2]
        for f in (h, h[:-1] + (F(17, 16),), tuple(-x for x in h),
                  random_order_polytope_point(p, seed), raw):
            got = in_order_reversing(p, f)
            assert got == oracle_in_order_reversing(p, f)
            outcomes.add(got)
    assert outcomes == {True, False}


# -- integer membership tests against Fraction comparisons --------------------------


def fraction_in_unit_cube(f):
    return all(F(0) <= x <= F(1) for x in f)


def fraction_in_order_polytope(p, f):
    return fraction_in_unit_cube(f) and all(f[u] <= f[v] for (u, v) in p.covers)


TINY = F(1, 10 ** 30)
ONE_F = F(1)


def membership_candidates(p, seed):
    """Seeded points of each polytope, their images just across a face, raw values
    of both signs and past 1, and the same labelings with int values."""
    rng = random.Random(f"membership:{seed}")
    f = random_order_polytope_point(p, seed)
    h = random_order_reversing_point(p, seed)
    g = random_chain_polytope_point(p, seed)
    v = rng.randrange(p.n)
    out = [f, h, g, tuple(F(rng.randint(-4, 20), rng.randint(1, 16)) for _ in range(p.n))]
    for x in (f, h, g):
        for bump in (TINY, -TINY, F(1, 2)):
            out.append(x[:v] + (x[v] + bump,) + x[v + 1:])
    half = (F(1, 2),) * p.n  # equal labels across every cover
    out += [half, (ONE_F,) * p.n, (F(0),) * p.n, (1,) * p.n, (0,) * p.n,
            tuple(rng.choice((0, 1)) for _ in range(p.n)),
            tuple(rng.choice((0, 1, F(1, 3), -1, 2, F(4, 3))) for _ in range(p.n))]
    out += [tuple(int(x) for x in indicator(p, s.members))
            for s in (all_ideals(p)[seed % 3], all_filters(p)[seed % 3],
                      all_antichains(p)[seed % 3])]
    return out


@pytest.mark.parametrize("p", oracle_posets(), ids=repr)
def test_integer_membership_matches_fraction_comparisons(p):
    outcomes = {member: set() for member in ("cube", "order", "reversing", "chain")}
    for seed in range(6):
        for f in membership_candidates(p, seed):
            got = {"cube": in_unit_cube(f), "order": in_order_polytope(p, f),
                   "reversing": in_order_reversing(p, f), "chain": in_chain_polytope(p, f)}
            assert got == {"cube": fraction_in_unit_cube(f),
                           "order": fraction_in_order_polytope(p, f),
                           "reversing": oracle_in_order_reversing(p, f),
                           "chain": oracle_in_chain_polytope(p, f)}, f
            for member, result in got.items():
                outcomes[member].add(result)
    assert all(seen == {True, False} for seen in outcomes.values())


def test_integer_membership_boundary_values(p22):
    # p22's covers are 0 < 1, 0 < 2, 1 < 3 and 2 < 3; its maximal chains are 0, 1, 3
    # and 0, 2, 3.  Each row: in the order, order-reversing and chain polytopes.
    assert in_unit_cube(()) and in_unit_cube((0, 1, True, F(0), F(1)))
    for outside in ((ONE_F + TINY,), (-TINY,), (2,), (-1,), (F(-1, 2), F(1, 2))):
        assert not in_unit_cube(outside)
    cases = {
        (F(0), F(0), F(0), F(0)): (True, True, True),
        (F(1), F(1), F(1), F(1)): (True, True, False),
        (0, 0, 1, 1): (True, False, False),
        (1, 1, 0, 0): (False, True, False),
        (F(1, 2), F(1, 2), 0, 0): (False, True, True),
        (0, F(1, 3), F(1, 3), 1): (True, False, False),
        (F(1, 3), F(1, 3), F(1, 3), F(1, 3)): (True, True, True),
        (F(1, 3), F(1, 3), F(1, 3), F(1, 3) + TINY): (True, False, False),
        (F(1, 2), F(1, 2) - TINY, F(1, 2), F(1, 2)): (False, False, False),
        (0, 0, 0, ONE_F + TINY): (False, False, False),
        (-TINY, 0, 0, 0): (False, False, False),
        (F(1, 2), 0, 0, F(1, 2)): (False, False, True),
    }
    for f, (order, reversing, chain) in cases.items():
        assert (in_order_polytope(p22, f), in_order_reversing(p22, f),
                in_chain_polytope(p22, f)) == (order, reversing, chain), f
        assert (order, reversing, chain) == (
            fraction_in_order_polytope(p22, f), oracle_in_order_reversing(p22, f),
            oracle_in_chain_polytope(p22, f)), f


def test_antichain_maps_never_enumerate_chains():
    def refuse(*args):
        raise AssertionError("maximal chains enumerated")

    p = chain_product(3, 4)
    p.maximal_chains = p.chains_through = refuse
    for backend in (RationalField(), MatrixRing(2), MatrixRing(3), TropicalSemiring()):
        dyn = Dynamics(p, backend)
        g = dyn.random_labeling(5)
        assert dyn.antichain_rowmotion(g) == dyn.antichain_rowmotion_via_transfers(g)
    g = random_chain_polytope_point(p, 5)
    assert in_chain_polytope(p, g)
    assert in_chain_polytope(p, pl_antichain_rowmotion(p, g))


def test_pl_dynamics_goes_with_its_poset():
    # A PL step keeps nothing that holds the poset: it goes when the last outside
    # reference goes.
    p = chain_product(2, 3)
    pl_antichain_rowmotion(p, random_chain_polytope_point(p, 1))
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None
