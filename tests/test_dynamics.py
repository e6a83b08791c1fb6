"""Generic toggle calculus against hand-expanded symbolic oracles.

The expected values below were derived by expanding the defining
formulas by hand: the four transfer maps on the A3 root poset, one full
antichain rowmotion orbit on [2]x[3] (commutative and noncommutative),
and the starred-toggle computation.  Each expansion is evaluated
directly with Fraction / matrix arithmetic and compared against the
library's maps at random substitutions.
"""

import functools
import operator
import random
from fractions import Fraction

import pytest

from rowmotion import dynamics
from rowmotion.backends import (
    AlgebraBackend,
    MatrixRing,
    RationalField,
    TropicalSemiring,
    _label_bits_bound,
    derive_seed,
    label_bits,
    parallel_sum,
    parse_backend,
)
from rowmotion.dynamics import Atom, Dynamics, detect_order, inverse_word
from rowmotion.errors import LabelsTooLarge, NotGraded, NotInvertible
from rowmotion.matrices import RationalMatrix
from rowmotion.poset import chain_product, chain_product_index, root_poset_a_index

F = Fraction
IDX23 = chain_product_index(2, 3)
IDXA3 = root_poset_a_index(3)
# u,v,w,x,y,z on [2]x[3] in builder order
P23_LETTERS = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3)]
# u,v,w (bottom), x,y (middle), z (top) on the A3 root poset
A3_LETTERS = [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3)]


def rational_dyn(p, c=F(2)):
    return Dynamics(p, RationalField(const_c=c))


def starred(dyn, kind, v, f):
    """The image of the single atom ``kind`` at v under the isomorphism, applied to f."""
    return dyn.apply_word(dyn.star_word((Atom(kind, v),)), f)


def random_values(seed, count, lo=1, hi=50):
    rng = random.Random(seed)
    return [F(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(count)]


# -- transfer maps: hand-expanded A3 oracle ------------------------------------


def a3_transfer_oracles(u, v, w, x, y, z):
    """Hand-expanded outputs of the four transfer maps, element order u..z."""
    return {
        "down": (u, v, w, x / (u + v), y / (v + w), z / (x + y)),
        "up": (u / x, v / (x + y), w / y, x / z, y / z, z),
        "inv_down": (u, v, w, x * (u + v), y * (v + w),
                     z * (u * x + v * x + v * y + w * y)),
        "inv_up": (u * x * z, v * (x + y) * z, w * y * z, x * z, y * z, z),
    }


@pytest.mark.parametrize("seed", range(20))
def test_a3_transfers_match_symbolic_expansion(a3, seed):
    dyn = rational_dyn(a3)
    vals = random_values(derive_seed("fig1", seed), 6)
    g = dyn.labeling(vals)
    oracles = a3_transfer_oracles(*vals)
    assert dyn.down_transfer(g) == oracles["down"]
    assert dyn.up_transfer(g) == oracles["up"]
    assert dyn.inv_down_transfer(g) == oracles["inv_down"]
    assert dyn.inv_up_transfer(g) == oracles["inv_up"]


def test_transfer_roundtrips_all_backends(p23, a3):
    for p in (p23, a3):
        for backend in (RationalField(), MatrixRing(2), MatrixRing(3), TropicalSemiring()):
            dyn = Dynamics(p, backend)
            for seed in range(50 if backend.is_commutative else 20):
                g = dyn.random_labeling(derive_seed("rt", seed))
                assert dyn.down_transfer(dyn.inv_down_transfer(g)) == g
                assert dyn.inv_down_transfer(dyn.down_transfer(g)) == g
                assert dyn.up_transfer(dyn.inv_up_transfer(g)) == g
                assert dyn.inv_up_transfer(dyn.up_transfer(g)) == g


def test_theta_involution_and_zero(p23):
    dyn = rational_dyn(p23, c=F(7, 3))
    for seed in range(50):
        g = dyn.random_labeling(seed)
        assert dyn.theta(dyn.theta(g)) == g
    with pytest.raises(NotInvertible):
        dyn.theta(dyn.labeling([F(0)] + [F(1)] * 5))


def test_not_invertible_names_failing_stage(p23):
    dyn = rational_dyn(p23)
    bottom_zero = dyn.labeling([F(0)] + [F(1)] * 5)
    top_zero = dyn.labeling([F(1)] * 5 + [F(0)])
    # zero at (2,2) kills the single chain product through (2,1)
    middle_zero = dyn.labeling([F(1), F(1), F(1), F(0), F(1), F(1)])
    cases = [
        (dyn.theta, bottom_zero, "complement at (1,1)"),
        (dyn.down_transfer, bottom_zero, "down transfer at (2,1)"),
        (dyn.up_transfer, top_zero, "up transfer at (2,2)"),
        (lambda f: dyn.order_toggle(0, f), bottom_zero, "order toggle at (1,1)"),
        (lambda f: dyn.order_elggot(0, f), bottom_zero, "order elggot at (1,1)"),
        (lambda g: dyn.antichain_toggle(1, g), middle_zero, "antichain toggle at (2,1)"),
        (lambda g: dyn.antichain_elggot(1, g), middle_zero, "antichain elggot at (2,1)"),
    ]
    for stage, labeling, name in cases:
        with pytest.raises(NotInvertible) as err:
            stage(labeling)
        assert name in str(err.value)


def test_theta_involution_matrices(p23):
    dyn = Dynamics(p23, MatrixRing(2, const_c=F(4, 3)))
    for seed in range(20):
        g = dyn.random_labeling(seed)
        assert dyn.theta(dyn.theta(g)) == g


def test_theta_after_inv_up_symbolic_expansion(p23):
    # one-step decomposition, expanded by hand: inv-up then complement on [2]x[3]
    c = F(3)
    dyn = rational_dyn(p23, c=c)
    u, v, w, x, y, z = random_values(4, 6)
    g = dyn.labeling([u, v, w, x, y, z])
    du = dyn.inv_up_transfer(g)
    expanded = {
        (1, 1): u * (v * x + w * x + w * y) * z,
        (2, 1): v * x * z,
        (1, 2): w * (x + y) * z,
        (2, 2): x * z,
        (1, 3): y * z,
        (2, 3): z,
    }
    for coord, val in expanded.items():
        assert du[IDX23[coord]] == val
    th = dyn.theta(du)
    for coord, val in expanded.items():
        assert th[IDX23[coord]] == c / val


# -- order toggles -------------------------------------------------------------


def test_order_toggle_singleton_all_backends():
    p = chain_product(1, 1)
    for backend in (RationalField(const_c=F(5, 2)), MatrixRing(2), TropicalSemiring()):
        dyn = Dynamics(p, backend)
        g = dyn.random_labeling(3)
        got = dyn.order_toggle(0, g)
        expected = backend.mul(backend.constant_c(), backend.invert(g[0]))
        assert backend.equals(got[0], expected)


def test_order_toggles_involutions_rational(p23):
    dyn = rational_dyn(p23)
    for seed in range(100):
        g = dyn.random_labeling(seed)
        for v in range(p23.n):
            assert dyn.order_toggle(v, dyn.order_toggle(v, g)) == g


@pytest.mark.parametrize("d", [2, 3])
def test_order_elggot_inverts_toggle_matrices(p23, d):
    dyn = Dynamics(p23, MatrixRing(d))
    for seed in range(20):
        g = dyn.random_labeling(derive_seed("elggot", d, seed))
        for v in range(p23.n):
            assert dyn.order_elggot(v, dyn.order_toggle(v, g)) == g
            assert dyn.order_toggle(v, dyn.order_elggot(v, g)) == g


def test_toggle_commutation_with_witness(p23):
    dyn = rational_dyn(p23)
    g = dyn.random_labeling(11)
    for u in range(p23.n):
        for v in range(u + 1, p23.n):
            covering = (u, v) in p23.covers or (v, u) in p23.covers
            same = (dyn.order_toggle(u, dyn.order_toggle(v, g))
                    == dyn.order_toggle(v, dyn.order_toggle(u, g)))
            if not covering:
                assert same
    # witness: covering pairs fail to commute at a generic point
    found_witness = False
    for (u, v) in p23.covers:
        if (dyn.order_toggle(u, dyn.order_toggle(v, g))
                != dyn.order_toggle(v, dyn.order_toggle(u, g))):
            found_witness = True
    assert found_witness


def test_antichain_commutation_incomparable_only(a3):
    dyn = rational_dyn(a3)
    g = dyn.random_labeling(13)
    found_witness = False
    for u in range(a3.n):
        for v in range(u + 1, a3.n):
            same = (dyn.antichain_toggle(u, dyn.antichain_toggle(v, g))
                    == dyn.antichain_toggle(v, dyn.antichain_toggle(u, g)))
            if a3.incomparable(u, v):
                assert same
            elif not same:
                found_witness = True
    assert found_witness


# -- antichain toggles: the [2]x[3] worked example -------------------------------


def test_antichain_toggle_2x3_steps():
    p = chain_product(2, 3)
    c = F(5)
    dyn = rational_dyn(p, c=c)
    u, v, w, x, y, z = random_values(8, 6)
    g = dyn.labeling([u, v, w, x, y, z])
    step1 = dyn.antichain_toggle(IDX23[(1, 1)], g)
    assert step1[IDX23[(1, 1)]] == c / (u * (v * x + w * x + w * y) * z)
    step2 = dyn.antichain_toggle(IDX23[(2, 1)], step1)
    assert step2[IDX23[(2, 1)]] == u * (v * x + w * x + w * y) / (v * x)
    step3 = dyn.antichain_toggle(IDX23[(1, 2)], step2)
    assert step3[IDX23[(1, 2)]] == u * (v * x + w * x + w * y) / (w * (x + y))


def test_antichain_toggle_nc_worked_examples(p23):
    back = MatrixRing(2, const_c=F(3, 2))
    dyn = Dynamics(p23, back)
    g = dyn.random_labeling(42)
    u, v, w, x, y, z = (g[IDX23[c]] for c in P23_LETTERS)
    c = back.constant_c()
    inv = back.invert
    prod = back.product
    cases = {
        (1, 1): prod([c, inv(u), inv(x @ v + x @ w + y @ w), inv(z)]),
        (2, 1): prod([c, inv(v), inv(x), inv(z), inv(u)]),
        (1, 2): prod([c, inv(w), inv(x + y), inv(z), inv(u)]),
        (2, 2): prod([c, inv(x), inv(z), inv(u), inv(v + w)]),
    }
    for coord, expected in cases.items():
        got = dyn.antichain_toggle(IDX23[coord], g)
        assert got[IDX23[coord]] == expected


def test_antichain_toggle_involution_rational_and_tropical(a3):
    for backend in (RationalField(), TropicalSemiring()):
        dyn = Dynamics(a3, backend)
        for seed in range(50):
            g = dyn.random_labeling(seed)
            for v in range(a3.n):
                assert dyn.antichain_toggle(v, dyn.antichain_toggle(v, g)) == g


def test_antichain_elggot_inverts_toggle_matrices(a3):
    dyn = Dynamics(a3, MatrixRing(2))
    for seed in range(20):
        g = dyn.random_labeling(seed)
        for v in range(a3.n):
            assert dyn.antichain_elggot(v, dyn.antichain_toggle(v, g)) == g
            assert dyn.antichain_toggle(v, dyn.antichain_elggot(v, g)) == g


def test_meteor_gorge_identities(p23, a3):
    for p in (p23, a3):
        for backend in (RationalField(const_c=F(7, 5)), MatrixRing(2, const_c=F(7, 5))):
            b = backend
            dyn = Dynamics(p, b)
            for seed in range(10):
                g = dyn.random_labeling(derive_seed("mg", seed))
                nd = dyn.inv_down_transfer(g)
                du = dyn.inv_up_transfer(g)
                c = b.constant_c()
                for v in range(p.n):
                    tog = dyn.antichain_toggle(v, g)[v]
                    assert b.equals(tog, b.product(
                        [c, b.invert(b.mul(nd[v], du[v])), g[v]]))
                    assert b.equals(tog, b.product(
                        [c, b.invert(du[v]), b.invert(nd[v]), g[v]]))
                    elg = dyn.antichain_elggot(v, g)[v]
                    assert b.equals(elg, b.product(
                        [c, g[v], b.invert(b.mul(nd[v], du[v]))]))
                    assert b.equals(elg, b.product(
                        [c, g[v], b.invert(du[v]), b.invert(nd[v])]))


# -- rowmotion orbits -----------------------------------------------------------


def bar_orbit_oracle(u, v, w, x, y, z, c):
    """The full 5-step antichain rowmotion orbit on [2]x[3], expanded by hand."""
    s = v * x + w * x + w * y
    return [
        {(1, 1): c / (u * s * z), (2, 1): u * s / (v * x), (1, 2): u * s / (w * (x + y)),
         (2, 2): v * w * (x + y) / s, (1, 3): w * (x + y) / y, (2, 3): x * y / (x + y)},
        {(1, 1): z, (2, 1): c / (u * w * y * z), (1, 2): c / (u * (v + w) * x * z),
         (2, 2): u * (v + w) / v, (1, 3): u * (v + w) / w, (2, 3): v * w / (v + w)},
        {(1, 1): x * y / (x + y), (2, 1): (x + y) * z / x, (1, 2): (x + y) * z / y,
         (2, 2): c / (u * w * (x + y) * z), (1, 3): c / (u * v * x * z), (2, 3): u},
        {(1, 1): v * w / (v + w), (2, 1): (v + w) * x / v,
         (1, 2): (v + w) * x * y / s, (2, 2): s * z / ((v + w) * x),
         (1, 3): s * z / (w * y), (2, 3): c / (u * s * z)},
        {(1, 1): u, (2, 1): v, (1, 2): w, (2, 2): x, (1, 3): y, (2, 3): z},
    ]


@pytest.mark.parametrize("seed", range(20))
def test_bar_orbit_matches_symbolic_expansion(p23, seed):
    c = F(seed + 2, 3)
    dyn = rational_dyn(p23, c=c)
    vals = random_values(derive_seed("fig4", seed), 6)
    g = dyn.labeling(vals)
    orbit = bar_orbit_oracle(*vals, c)
    cur = g
    for panel in orbit:
        cur = dyn.antichain_rowmotion(cur)
        for coord, val in panel.items():
            assert cur[IDX23[coord]] == val
    assert cur == g


def nar_step_oracle(back, u, v, w, x, y, z, c):
    """First two noncommutative antichain rowmotion steps, expanded by hand."""
    inv = back.invert
    prod = back.product
    s = x @ v + x @ w + y @ w
    first = {
        (2, 3): inv(inv(x) + inv(y)),
        (2, 2): prod([v, inv(s), x + y, w]),
        (1, 3): prod([inv(y), x + y, w]),
        (2, 1): prod([inv(v), inv(x), s, u]),
        (1, 2): prod([inv(w), inv(x + y), s, u]),
        (1, 1): prod([c, inv(u), inv(s), inv(z)]),
    }
    second = {
        (2, 3): inv(inv(v) + inv(w)),
        (2, 2): prod([inv(v), v + w, u]),
        (1, 3): prod([inv(w), v + w, u]),
        (2, 1): prod([c, inv(u), inv(w), inv(y), inv(z)]),
        (1, 2): prod([c, inv(u), inv(v + w), inv(x), inv(z)]),
        (1, 1): z,
    }
    return first, second


@pytest.mark.parametrize("seed", range(5))
def test_nar_orbit_matches_symbolic_expansion(p23, seed):
    back = MatrixRing(2, const_c=F(seed + 2, 5))
    dyn = Dynamics(p23, back)
    g = dyn.random_labeling(derive_seed("fig5", seed))
    letters = [g[IDX23[c]] for c in P23_LETTERS]
    first, second = nar_step_oracle(back, *letters, back.constant_c())
    one = dyn.antichain_rowmotion(g)
    for coord, val in first.items():
        assert one[IDX23[coord]] == val
    two = dyn.antichain_rowmotion(one)
    for coord, val in second.items():
        assert two[IDX23[coord]] == val
    assert detect_order(dyn.antichain_rowmotion, g, operator.eq, max_iter=10) == 5


def test_singleton_rowmotion_order_two():
    p = chain_product(1, 1)
    for backend in (RationalField(const_c=F(9, 4)), MatrixRing(2), TropicalSemiring()):
        dyn = Dynamics(p, backend)
        g = dyn.random_labeling(1)
        assert detect_order(dyn.antichain_rowmotion, g, operator.eq, max_iter=4) == 2
        got = dyn.order_rowmotion(g)
        assert backend.equals(got[0], backend.mul(backend.constant_c(),
                                                  backend.invert(g[0])))


def test_nor_order_2x2_matrix():
    p = chain_product(2, 2)
    dyn = Dynamics(p, MatrixRing(2))
    for seed in range(5):
        g = dyn.random_labeling(derive_seed("nor22", seed))
        assert detect_order(dyn.order_rowmotion, g, operator.eq, max_iter=10) == 4


def test_transfer_factorizations_random_posets():
    from rowmotion.poset import random_poset
    for seed in (101, 202, 303):
        p = random_poset(6, seed)
        for backend in (RationalField(), MatrixRing(2)):
            dyn = Dynamics(p, backend)
            for pt in range(10):
                g = dyn.random_labeling(derive_seed("fact", seed, pt))
                assert (dyn.order_rowmotion(g)
                        == dyn.order_rowmotion_via_transfers(g))
                assert (dyn.antichain_rowmotion(g)
                        == dyn.antichain_rowmotion_via_transfers(g))


def test_rowmotion_conjugacy_down_transfer(p23, a3):
    # order rowmotion is the down-transfer conjugate of antichain rowmotion
    for p in (p23, a3):
        for backend in (RationalField(), MatrixRing(2)):
            dyn = Dynamics(p, backend)
            for seed in range(10):
                g = dyn.random_labeling(derive_seed("conj", seed))
                assert (dyn.down_transfer(dyn.order_rowmotion(g))
                        == dyn.antichain_rowmotion(dyn.down_transfer(g)))
                assert (
                    dyn.inv_down_transfer(
                        dyn.antichain_rowmotion(dyn.down_transfer(g)))
                    == dyn.order_rowmotion(g))


def test_extension_independence(p23, a3, linear_extensions):
    for p in (p23, a3):
        exts = linear_extensions(p, limit=10)
        for backend in (RationalField(), MatrixRing(2)):
            dyn = Dynamics(p, backend)
            g = dyn.random_labeling(23)
            bar = dyn.antichain_rowmotion(g)
            bor = dyn.order_rowmotion(g)
            for ext in exts:
                assert dyn.antichain_rowmotion(g, ext) == bar
                assert dyn.order_rowmotion(g, ext) == bor


def test_rowmotion_refuses_a_sequence_that_is_no_linear_extension(p23, monkeypatch):
    # Reversed, it is no rowmotion; two elements short, the backend would fail
    # inside; with 5 twice, the order sweep would toggle 5 twice.
    dyn = Dynamics(p23, RationalField())
    g = dyn.random_labeling(3)
    for bad in ((5, 4, 3, 2, 1, 0), (0, 1), (0, 1, 2, 3, 4, 5, 5)):
        for rowmotion in (dyn.order_rowmotion, dyn.antichain_rowmotion):
            with pytest.raises(ValueError, match="not a linear extension"):
                rowmotion(g, bad)
    expected = dyn.order_rowmotion(g), dyn.antichain_rowmotion(g)
    monkeypatch.setattr(Dynamics, "_linear_extension", None)  # the default is not checked
    assert (dyn.order_rowmotion(g), dyn.antichain_rowmotion(g)) == expected


def test_matrix_d1_agrees_with_rational_bitwise(p23):
    c = F(7, 4)
    rat = Dynamics(p23, RationalField(const_c=c))
    mat = Dynamics(p23, MatrixRing(1, const_c=c))
    g_rat = rat.random_labeling(31)
    g_mat = mat.random_labeling(31)
    assert [m.rows[0][0] for m in g_mat] == list(g_rat)
    bar_rat = rat.antichain_rowmotion(g_rat)
    bar_mat = mat.antichain_rowmotion(g_mat)
    assert [m.rows[0][0] for m in bar_mat] == list(bar_rat)


# -- starred toggles and the toggle-group isomorphism ---------------------------


def test_star_t22_matches_symbolic_expansion(p23):
    c = F(11, 7)
    dyn = rational_dyn(p23, c=c)
    u, v, w, x, y, z = random_values(77, 6)
    g = dyn.labeling([u, v, w, x, y, z])
    s = v * x + w * x + w * y
    got = starred(dyn, "T", IDX23[(2, 2)], g)
    expanded = {
        (1, 1): u,
        (2, 1): x * s / (w * (x + y)),
        (1, 2): w * (x + y) * s / (y * s + v * w * (x + y)),
        (2, 2): v * w * (x + y) / s,
        (1, 3): y,
        (2, 3): z,
    }
    for coord, val in expanded.items():
        assert got[IDX23[coord]] == val
    # and the bridge maps it onto the plain order toggle
    bridge = lambda h: dyn.theta(dyn.inv_up_transfer(h))
    assert bridge(got) == dyn.order_toggle(IDX23[(2, 2)], bridge(g))


def test_star_toggle_minimal_element_degenerates(p23):
    dyn = rational_dyn(p23)
    g = dyn.random_labeling(3)
    v0 = IDX23[(1, 1)]
    assert dyn.star_word((Atom("T", v0),)) == (Atom("tau", v0),)
    assert dyn.star_word((Atom("tau", v0),)) == (Atom("T", v0),)
    assert starred(dyn, "T", v0, g) == dyn.antichain_toggle(v0, g)
    assert starred(dyn, "tau", v0, g) == dyn.order_toggle(v0, g)


@pytest.mark.parametrize("backend_factory", [
    lambda: RationalField(const_c=F(3)),
    lambda: MatrixRing(2, const_c=F(3)),
], ids=["rational", "matrix:2"])
def test_star_diagrams_all_elements(p23, a3, backend_factory):
    for p in (p23, a3):
        dyn = Dynamics(p, backend_factory())
        bridge = lambda h: dyn.theta(dyn.inv_up_transfer(h))
        for seed in range(5):
            g = dyn.random_labeling(derive_seed("star", seed))
            side = bridge(g)
            for v in range(p.n):
                assert (bridge(starred(dyn, "T", v, g))
                        == dyn.order_toggle(v, side))
                assert (bridge(starred(dyn, "E", v, g))
                        == dyn.order_elggot(v, side))
                assert (bridge(dyn.antichain_toggle(v, g))
                        == starred(dyn, "tau", v, side))
                assert (bridge(dyn.antichain_elggot(v, g))
                        == starred(dyn, "eps", v, side))


def test_eta_word_independent_of_extension_choice(p23, a3):
    # tau_v* built from any linear extension of the lower set acts identically
    for p in (p23, a3):
        for backend in (RationalField(), MatrixRing(2)):
            dyn = Dynamics(p, backend)
            g = dyn.random_labeling(5)
            for v in range(p.n):
                below = sorted(p.strict_down_set(v))
                sub_exts = [ext for ext in _extensions_of_subset(p, below)]
                results = []
                for ext in sub_exts:
                    word = (tuple(Atom("E", x) for x in ext)
                            + (Atom("T", v),)
                            + tuple(Atom("T", x) for x in reversed(ext)))
                    results.append(dyn.apply_word(word, g))
                for r in results[1:]:
                    assert r == results[0]
                assert starred(dyn, "tau", v, g) == results[0]


def _extensions_of_subset(p, elements):
    import itertools
    out = []
    for perm in itertools.permutations(elements):
        if all(not p.less(perm[j], perm[i])
               for i in range(len(perm)) for j in range(i + 1, len(perm))):
            out.append(perm)
    return out


def test_pairwise_incomparable_conjugation_lemma(p23, a3):
    # tau*_{v1}..tau*_{vk} = eta_{S} T_{v1}..T_{vk} eta_{S}^{-1} for antichains S
    from rowmotion.subsets import all_antichains
    for p in (p23, a3):
        for backend in (RationalField(), MatrixRing(2)):
            dyn = Dynamics(p, backend)
            g = dyn.random_labeling(9)
            for s in all_antichains(p):
                vs = sorted(s.members)
                if len(vs) < 2:
                    continue
                lhs = g
                for v in reversed(vs):  # tau*_{v1} applied last
                    lhs = starred(dyn, "tau", v, lhs)
                word = (inverse_word(dyn.eta_word(vs))
                        + tuple(Atom("T", v) for v in reversed(vs))
                        + dyn.eta_word(vs))
                rhs = dyn.apply_word(word, g)
                assert lhs == rhs


def test_nar_equals_starred_word_composition(p23):
    # the isomorphism proof's engine: tau*_{xn}..tau*_{x1} = order rowmotion
    for backend in (RationalField(), MatrixRing(2)):
        dyn = Dynamics(p23, backend)
        g = dyn.random_labeling(15)
        lhs = g
        for v in p23.default_linear_extension:
            lhs = starred(dyn, "tau", v, lhs)
        assert lhs == dyn.order_rowmotion(g)


# -- differential oracle: starred words built from their definitions ------------

TOGGLE_KINDS = ("T", "E", "tau", "eps")


def _ref_strict_below(p, elements):
    below = set().union(*(p.strict_down_set(v) for v in elements))
    return tuple(x for x in p.default_linear_extension if x in below)


def _ref_eta(p, elements):
    return tuple(Atom("T", x) for x in reversed(_ref_strict_below(p, elements)))


def _ref_eta_inverse(p, elements):
    return tuple(Atom("E", x) for x in _ref_strict_below(p, elements))


def _ref_star(p, kind, v):
    """T*_v (E*_v) is tau_v (eps_v) conjugated by the antichain toggles at v's
    lower covers; tau*_v (eps*_v) is T_v (E_v) conjugated by eta_v."""
    if kind in ("T", "E"):
        cov = p.down_adjacency[v]
        return (tuple(Atom("tau", u) for u in cov)
                + (Atom("tau" if kind == "T" else "eps", v),)
                + tuple(Atom("eps", u) for u in reversed(cov)))
    return _ref_eta_inverse(p, (v,)) + (Atom("T" if kind == "tau" else "E", v),) + _ref_eta(p, (v,))


def _ref_star_rank(p, kind, i):
    return sum((_ref_star(p, kind, v) for v in p.rank_elements(i)), ())


def _ref_starred_gyration(p):
    r = p.top_rank
    ranks = list(range(0, r + 1, 2)) + list(range(1, r + 1, 2))
    return sum((_ref_star_rank(p, "T", i) for i in ranks), ())


def _random_word(rng, n, length):
    return tuple(Atom(rng.choice(TOGGLE_KINDS), rng.randrange(n)) for _ in range(length))


def _oracle_posets():
    from rowmotion.poset import random_graded_poset, random_poset, root_poset_a
    return ([chain_product(3, 4), root_poset_a(4)]
            + [random_poset(n, derive_seed("star-oracle", n)) for n in range(1, 11)]
            + [random_graded_poset(derive_seed("star-oracle-graded", s)) for s in range(8)])


def test_star_word_matches_definitions_on_random_posets():
    graded = 0
    for p in _oracle_posets():
        dyn = Dynamics(p, RationalField())
        rng = random.Random(derive_seed("star-oracle-words", p.n))
        for v in range(p.n):
            assert dyn.eta_word((v,)) == _ref_eta(p, (v,))
            assert inverse_word(dyn.eta_word((v,))) == _ref_eta_inverse(p, (v,))
            for kind in TOGGLE_KINDS:
                assert dyn.star_word((Atom(kind, v),)) == _ref_star(p, kind, v)
        subset = rng.sample(range(p.n), min(3, p.n))
        assert dyn.eta_word(subset) == _ref_eta(p, subset)
        assert inverse_word(dyn.eta_word(subset)) == _ref_eta_inverse(p, subset)
        word = _random_word(rng, p.n, 8)
        assert dyn.star_word(word) == sum((_ref_star(p, k, v) for k, v in word), ())
        if p.is_graded:
            graded += 1
            for i in range(p.top_rank + 1):
                assert dyn.star_word((Atom("rank_T", i),)) == _ref_star_rank(p, "T", i)
                assert dyn.star_word((Atom("rank_tau", i),)) == _ref_star_rank(p, "tau", i)
            assert dyn.star_word(dyn.order_gyration_word()) == _ref_starred_gyration(p)
    assert graded >= 10  # chain 3x4, rootA 4 and the eight random graded posets


def test_inverse_word_undoes_random_words_noncommutative(p23, a3):
    from rowmotion.poset import random_poset
    for p in (p23, a3, random_poset(7, derive_seed("inverse-word", 7))):
        dyn = Dynamics(p, MatrixRing(2))
        rng = random.Random(derive_seed("inverse-word-atoms", p.n))
        for seed in range(4):
            g = dyn.random_labeling(derive_seed("inverse-word", seed))
            word = _random_word(rng, p.n, 6)
            assert dyn.apply_word(inverse_word(word), dyn.apply_word(word, g)) == g
    with pytest.raises(KeyError):  # rank atoms have no elggot atom
        inverse_word((Atom("T", 0), Atom("rank_T", 0)))


@pytest.mark.parametrize("backend_spec", ["rational", "tropical", "matrix:2", "matrix:3"])
def test_star_word_is_its_own_inverse(backend_spec):
    # The isomorphism applied twice is the identity of the toggle group: the
    # word star(star(a)) is longer than a, but it acts on labelings as a does.
    from rowmotion.poset import random_poset, root_poset_a
    checked = []
    for p in (chain_product(2, 3), root_poset_a(3), random_poset(6, 4)):
        dyn = Dynamics(p, parse_backend(backend_spec))
        atoms = [Atom(kind, v) for v in range(p.n) for kind in TOGGLE_KINDS]
        if p.is_graded:
            atoms += [Atom(kind, i) for i in range(p.top_rank + 1)
                      for kind in ("rank_T", "rank_tau")]
        f = dyn.random_labeling(derive_seed("star-round-trip", p.serialize()))
        for a in atoms:
            twice = dyn.star_word(dyn.star_word((a,)))
            assert dyn.apply_word(twice, f) == dyn.apply_word((a,), f), a
        checked.append(len(atoms))
    assert checked == [32, 30, 24]


# -- graded machinery -----------------------------------------------------------


def test_toggle_word_atoms_validated(p22):
    dyn = rational_dyn(p22)
    g = dyn.random_labeling(0)
    with pytest.raises(ValueError):
        dyn.apply_word((Atom("T", 9),), g)
    with pytest.raises(ValueError):
        dyn.apply_word((Atom("rank_tau", 7),), g)
    with pytest.raises(ValueError):
        dyn.apply_word((Atom("spin", 0),), g)
    with pytest.raises(ValueError):
        dyn.star_word((Atom("spin", 0),))


@pytest.mark.parametrize("atom", [Atom("rank_T", 7), Atom("rank_tau", -1), Atom("T", -1),
                                  Atom("E", 6), Atom("tau", 6), Atom("eps", -1), Atom("spin", 0)],
                         ids=str)
def test_star_word_refuses_the_atoms_that_apply_word_refuses(p23, atom):
    # A missing rank must not map to the empty word, a negative index must not
    # wrap around, and one past the end must not be an IndexError.
    dyn = rational_dyn(p23)
    with pytest.raises(ValueError) as applied:
        dyn.apply_word((Atom("T", 0), atom), dyn.random_labeling(0))
    with pytest.raises(ValueError) as starred:
        dyn.star_word((Atom("T", 0), atom))
    assert str(starred.value) == str(applied.value)


@pytest.mark.parametrize("method", ["order_toggle", "order_elggot",
                                    "antichain_toggle", "antichain_elggot"])
def test_single_toggles_refuse_a_missing_element(p22, method):
    # A negative index must not wrap around to the last element, and one
    # past the end must be the word path's ValueError, not an IndexError.
    dyn = rational_dyn(p22)
    g = dyn.random_labeling(0)
    for v in (-1, p22.n):
        with pytest.raises(ValueError, match=r"\[-?\d+\] references a missing element"):
            getattr(dyn, method)(v, g)


def test_rank_toggle_requires_graded():
    from rowmotion.poset import parse_poset
    p = parse_poset("4\n0<1\n1<2\n3<2\n")
    dyn = Dynamics(p, RationalField())
    g = dyn.random_labeling(0)
    with pytest.raises(NotGraded):
        dyn.apply_word((Atom("rank_tau", 0),), g)
    with pytest.raises(NotGraded):
        dyn.order_gyration_word()
    with pytest.raises(NotGraded):
        dyn.star_word((Atom("rank_T", 0),))
    with pytest.raises(NotGraded):
        dyn.graded_rescale([F(1)], g)


def test_rank_toggles_square_to_identity_rational(p23):
    dyn = rational_dyn(p23)
    g = dyn.random_labeling(2)
    for i in range(p23.top_rank + 1):
        assert dyn.apply_word((Atom("rank_tau", i),) * 2, g) == g
        assert dyn.apply_word((Atom("rank_T", i),) * 2, g) == g


def test_rank_toggle_equals_single_toggles_in_index_order():
    # Rank 1 is {1, 2}, but the default extension 0, 2, 3, 1 visits 2 first;
    # with both toggles singular, the first in index order must be reported.
    from rowmotion.poset import parse_poset
    p = parse_poset("4\n0<2\n3<1\n")
    assert p.rank_elements(1) == (1, 2) and p.default_linear_extension == (0, 2, 3, 1)
    dyn = rational_dyn(p)
    degenerate = dyn.labeling([F(1), F(0), F(0), F(1)])
    for g in (dyn.random_labeling(4), degenerate):
        for i in (0, 1):
            single = g
            for v in p.rank_elements(i):
                single = _outcome(lambda: dyn.antichain_toggle(v, single))
                if isinstance(single, str):
                    break
            assert _outcome(lambda: dyn.apply_word((Atom("rank_tau", i),), g)) == single
    assert _outcome(lambda: dyn.apply_word((Atom("rank_tau", 1),), degenerate)) == \
        "antichain toggle at 1"


def test_bar_is_rank_toggle_product(p23, a3):
    for p in (p23, a3):
        for backend in (RationalField(), MatrixRing(2)):
            dyn = Dynamics(p, backend)
            g = dyn.random_labeling(21)
            ranks = range(p.top_rank + 1)
            h = dyn.apply_word([Atom("rank_tau", i) for i in ranks], g)
            assert h == dyn.antichain_rowmotion(g)
            h = dyn.apply_word([Atom("rank_T", i) for i in reversed(ranks)], g)
            assert h == dyn.order_rowmotion(g)


def _apply_rank_eps(dyn, i, f):
    for v in dyn.poset.rank_elements(i):
        f = dyn.antichain_elggot(v, f)
    return f


def test_rank_identities_for_starred_toggles(p23, a3):
    # commutative: T_i* = rank-tau_{i-1} rank-tau_i rank-tau_{i-1};
    # noncommutative the outer conjugator becomes the rank elggot
    for p in (p23, a3):
        for backend in (RationalField(), MatrixRing(2)):
            dyn = Dynamics(p, backend)
            g = dyn.random_labeling(8)
            for i in range(p.top_rank + 1):
                lhs = g
                for v in p.rank_elements(i):
                    lhs = starred(dyn, "T", v, lhs)
                rhs = g
                if i > 0:
                    rhs = dyn.apply_word((Atom("rank_tau", i - 1),), rhs)
                rhs = dyn.apply_word((Atom("rank_tau", i),), rhs)
                if i > 0:
                    rhs = (dyn.apply_word((Atom("rank_tau", i - 1),), rhs)
                           if backend.is_commutative
                           else _apply_rank_eps(dyn, i - 1, rhs))
                assert lhs == rhs


def test_rank_identities_commutative_palindromes(p23, a3):
    for p in (p23, a3):
        dyn = rational_dyn(p)
        g = dyn.random_labeling(81)
        for v in range(p.n):
            i = p.rank[v]
            lhs = starred(dyn, "tau", v, g)
            rhs = dyn.apply_word([Atom("rank_T", j) for j in range(i)]
                                 + [Atom("T", v)]
                                 + [Atom("rank_T", j) for j in range(i - 1, -1, -1)], g)
            assert lhs == rhs


def test_gyration_word_shapes_rank_seven():
    # a tall enough chain to exercise the rank-7 word shapes
    p = chain_product(1, 8)
    dyn = Dynamics(p, RationalField())
    bog = dyn.order_gyration_word()
    assert [a.index for a in bog] == [0, 2, 4, 6, 1, 3, 5, 7]
    assert all(a.kind == "rank_T" for a in bog)
    bag = dyn.antichain_gyration_word()
    assert [a.index for a in bag] == [1, 3, 5, 7, 6, 4, 2, 0]
    assert all(a.kind == "rank_tau" for a in bag)


def test_gyration_diagram_commutative(p23, a3):
    for p in (p23, a3):
        dyn = rational_dyn(p, c=F(5, 2))
        bridge = lambda h: dyn.theta(dyn.inv_up_transfer(h))
        for seed in range(10):
            g = dyn.random_labeling(derive_seed("gyr", seed))
            assert (bridge(dyn.apply_word(dyn.antichain_gyration_word(), g))
                    == dyn.apply_word(dyn.order_gyration_word(), bridge(g)))


def test_gyration_diagram_tropical(p23, a3):
    for p in (p23, a3):
        dyn = Dynamics(p, TropicalSemiring())
        bridge = lambda h: dyn.theta(dyn.inv_up_transfer(h))
        for seed in range(10):
            g = dyn.random_labeling(derive_seed("gyrtrop", seed))
            assert (bridge(dyn.apply_word(dyn.antichain_gyration_word(), g))
                    == dyn.apply_word(dyn.order_gyration_word(), bridge(g)))


def test_gyration_diagram_noncommutative_needs_starred_form(p23):
    dyn = Dynamics(p23, MatrixRing(2))
    bridge = lambda h: dyn.theta(dyn.inv_up_transfer(h))
    g = dyn.random_labeling(6)
    bog = dyn.order_gyration_word()
    rhs = dyn.apply_word(bog, bridge(g))
    assert bridge(dyn.apply_word(dyn.star_word(bog), g)) == rhs
    # the plain rank word is a strictly commutative identity: witness
    assert bridge(dyn.apply_word(dyn.antichain_gyration_word(), g)) != rhs


def test_gyration_and_rowmotion_share_orbit_order(p23):
    dyn = rational_dyn(p23)
    for seed in range(5):
        g = dyn.random_labeling(derive_seed("bogorder", seed))
        bog = dyn.order_gyration_word()
        k_bog = detect_order(lambda h: dyn.apply_word(bog, h), g, operator.eq, max_iter=12)
        k_bor = detect_order(dyn.order_rowmotion, g, operator.eq, max_iter=12)
        assert k_bog == k_bor == 5


def test_graded_rescale_2_4_9(a3):
    dyn = rational_dyn(a3)
    g = dyn.labeling(random_values(55, 6))
    scaled = dyn.graded_rescale([F(2), F(4), F(9)], g)
    for v in range(a3.n):
        assert scaled[v] == g[v] * [2, 4, 9][a3.rank[v]]
    ones = dyn.graded_rescale([F(1)] * 3, g)
    assert ones == g


def test_graded_rescale_matrix_requires_central(p23):
    from rowmotion.errors import NotCentral
    from rowmotion.matrices import RationalMatrix
    back = MatrixRing(2)
    dyn = Dynamics(p23, back)
    g = dyn.random_labeling(0)
    good = [back.central_from_rational(F(k + 1)) for k in range(4)]
    dyn.graded_rescale(good, g)
    bad = list(good)
    bad[1] = RationalMatrix([[1, 1], [0, 1]])
    with pytest.raises(NotCentral):
        dyn.graded_rescale(bad, g)


def test_rank_rescale_law(p23, p33):
    for p in (p23, p33):
        for backend in (RationalField(const_c=F(3)), MatrixRing(2, const_c=F(3))):
            dyn = Dynamics(p, backend)
            rng = random.Random(71)
            scalars = [backend.central_from_rational(F(rng.randint(1, 9), rng.randint(1, 9)))
                       for _ in range(p.top_rank + 1)]
            inv_total = backend.invert(backend.product(scalars))
            for seed in range(5):
                g = dyn.random_labeling(derive_seed("rr", seed))
                scaled = dyn.graded_rescale(scalars, g)
                for i in range(p.top_rank + 1):
                    swapped = list(scalars)
                    swapped[i] = inv_total
                    rank_tau = (Atom("rank_tau", i),)
                    assert (
                        dyn.apply_word(rank_tau, scaled)
                        == dyn.graded_rescale(swapped, dyn.apply_word(rank_tau, g)))


def test_bar_rescale_law(p23, p33):
    for p in (p23, p33):
        for backend in (RationalField(const_c=F(3)), MatrixRing(2, const_c=F(3))):
            dyn = Dynamics(p, backend)
            rng = random.Random(72)
            scalars = [backend.central_from_rational(F(rng.randint(1, 9), rng.randint(1, 9)))
                       for _ in range(p.top_rank + 1)]
            inv_total = backend.invert(backend.product(scalars))
            for seed in range(5):
                g = dyn.random_labeling(derive_seed("br", seed))
                lhs = dyn.antichain_rowmotion(dyn.graded_rescale(scalars, g))
                rhs = dyn.graded_rescale([inv_total] + scalars[:-1],
                                         dyn.antichain_rowmotion(g))
                assert lhs == rhs


# -- tropical bridge --------------------------------------------------------------


def test_tropical_operations_equal_pl_maps(p23):
    from rowmotion import polytopes as pl
    dyn = Dynamics(p23, TropicalSemiring())  # C = 1, the chain polytope bound

    for seed in range(100):
        f = pl.random_order_polytope_point(p23, seed)
        lab = dyn.labeling(f)
        assert dyn.theta(lab) == pl.pl_apply(p23, "theta", f)
        assert dyn.down_transfer(lab) == pl.pl_apply(p23, "down_transfer", f)
        for v in range(p23.n):
            assert dyn.order_toggle(v, lab) == pl.pl_order_toggle(p23, v, f)
        assert dyn.order_rowmotion(lab) == pl.pl_order_rowmotion(p23, f)

        h = pl.random_order_reversing_point(p23, seed)
        assert dyn.up_transfer(dyn.labeling(h)) == pl.pl_apply(p23, "up_transfer", h)

        g = pl.random_chain_polytope_point(p23, seed)
        glab = dyn.labeling(g)
        assert dyn.inv_down_transfer(glab) == pl.pl_apply(p23, "inv_down_transfer", g)
        assert dyn.inv_up_transfer(glab) == pl.pl_apply(p23, "inv_up_transfer", g)
        for v in range(p23.n):
            assert dyn.antichain_toggle(v, glab) == pl.pl_antichain_toggle(p23, v, g)
        assert dyn.antichain_rowmotion(glab) == pl.pl_antichain_rowmotion(p23, g)


# -- chain-enumeration oracle for the antichain toggles ------------------------------


def enumerated_chain_sum(dyn, g, v, through_value_first):
    """Sum over maximal chains through v of the rotated label product.

    The definition, enumerated chain by chain; the library factors it
    through the inverse transfer maps instead.
    """
    b = dyn.backend
    terms = []
    for chain, pos in dyn.poset.chains_through(v):
        cut = pos + 1 if through_value_first else pos
        seq = tuple(reversed(chain[:cut])) + tuple(reversed(chain[cut:]))
        terms.append(b.product(g[x] for x in seq))
    return b.sum(terms)


ORACLE_BACKENDS = {
    "rational": RationalField,
    "matrix:2": lambda: MatrixRing(2),
    "matrix:3": lambda: MatrixRing(3),
    "tropical": TropicalSemiring,
}


@pytest.mark.parametrize("backend_name", sorted(ORACLE_BACKENDS))
def test_antichain_toggles_match_chain_enumeration(backend_name):
    # Generic labelings, then central labels in ±1, ±2, whose chain sums
    # cancel often: a toggle or elggot must raise exactly when its sum is singular.
    from rowmotion.poset import random_graded_poset, random_poset
    posets = [random_poset(n, seed) for n, seed in ((5, 3), (7, 101), (8, 5), (9, 44))]
    posets += [random_graded_poset(seed) for seed in (1, 2, 7)]
    singular = 0
    for p in posets:
        dyn = Dynamics(p, ORACLE_BACKENDS[backend_name]())
        b = dyn.backend
        labelings = [dyn.random_labeling(derive_seed("chain-oracle", p.serialize(), pt))
                     for pt in range(3)]
        rng = random.Random(p.serialize())
        labelings += [tuple(b.central_from_rational(rng.choice((-2, -1, 1, 2)))
                            for _ in range(p.n)) for _ in range(3)]
        for g in labelings:
            for v in range(p.n):
                for kind, toggle, first in (("toggle", dyn.antichain_toggle, False),
                                            ("elggot", dyn.antichain_elggot, True)):
                    try:
                        want = b.mul(b.constant_c(),
                                     b.invert(enumerated_chain_sum(dyn, g, v, first)))
                    except NotInvertible:
                        with pytest.raises(NotInvertible) as exc:
                            toggle(v, g)
                        assert exc.value.context == f"antichain {kind} at {p.element_names[v]}"
                        singular += 1
                        continue
                    assert b.equals(toggle(v, g)[v], want)
    assert singular > 0 or backend_name == "tropical"  # max-plus inversion is total


# -- toggle-by-toggle oracle for the antichain rowmotion sweep -----------------------


def toggle_loop_rowmotion(dyn, g, extension):
    """Antichain rowmotion by its definition: one single toggle per element,
    bottom-up along the extension, each a sweep of its own that reruns both
    inverse transfer recurrences on that element's lower and upper sets."""
    for v in extension:
        g = dyn.antichain_toggle(v, g)
    return g


def enumerated_toggle_rowmotion(dyn, g, extension):
    """Antichain rowmotion as a toggle product whose every toggle is C over
    the enumerated chain sum: it shares no code with the library's sweep."""
    b = dyn.backend
    for v in extension:
        new = b.mul(b.constant_c(), b.invert(enumerated_chain_sum(dyn, g, v, False)))
        g = g[:v] + (new,) + g[v + 1:]
    return g


SWEEP_BACKENDS = {**ORACLE_BACKENDS, "matrix:1": lambda: MatrixRing(1)}


def sweep_oracle_posets():
    from rowmotion.poset import random_graded_poset, random_poset, root_poset_a
    return ([random_poset(n, seed) for n, seed in ((6, 3), (8, 5), (9, 44))]
            + [random_graded_poset(seed) for seed in (1, 5, 10)]
            + [chain_product(3, 4), root_poset_a(4), chain_product(2, 8)])


@pytest.mark.parametrize("backend_name", sorted(SWEEP_BACKENDS))
def test_antichain_rowmotion_sweep_matches_toggle_loop(backend_name, linear_extensions):
    cases = 0
    for p in sweep_oracle_posets():
        dyn = Dynamics(p, SWEEP_BACKENDS[backend_name]())
        exts = linear_extensions(p, limit=2)
        assert len(exts) == 2
        for pt in range(3):
            g = dyn.random_labeling(derive_seed("sweep-oracle", p.serialize(), pt))
            for ext in exts:
                sweep = dyn.antichain_rowmotion(g, ext)
                assert sweep == enumerated_toggle_rowmotion(dyn, g, ext)
                assert sweep == toggle_loop_rowmotion(dyn, g, ext)
                cases += 1
    assert cases == 54


def _outcome(fn):
    """The labeling ``fn`` returns, or the stage named by its NotInvertible."""
    try:
        return fn()
    except NotInvertible as exc:
        return exc.context


def test_antichain_rowmotion_sweep_degenerates_like_toggle_loop(linear_extensions):
    # Small labels of both signs make chain sums cancel, at the first element
    # of the sweep or further along it.
    from rowmotion.poset import random_poset, root_poset_a
    b = RationalField()
    degenerate = set()
    for p in (chain_product(2, 3), root_poset_a(3), random_poset(7, 5)):
        dyn = Dynamics(p, b)
        for seed in range(60):
            rng = random.Random(seed)
            g = tuple(F(rng.choice((-2, -1, 1, 2))) for _ in range(p.n))
            for ext in linear_extensions(p, limit=2):
                sweep = _outcome(lambda: dyn.antichain_rowmotion(g, ext))
                assert sweep == _outcome(lambda: toggle_loop_rowmotion(dyn, g, ext))
                if isinstance(sweep, str):
                    degenerate.add(sweep)
    assert len(degenerate) >= 3
    assert all(stage.startswith("antichain toggle at ") for stage in degenerate)


def test_antichain_rowmotion_sweep_singular_matrix_label(p23, linear_extensions):
    # A singular label at x makes every chain sum through x singular.
    dyn = Dynamics(p23, MatrixRing(2))
    singular = RationalMatrix(((F(1), F(2)), (F(2), F(4))))
    for x in range(p23.n):
        g = dyn.random_labeling(x)
        g = g[:x] + (singular,) + g[x + 1:]
        for ext in linear_extensions(p23, limit=2):
            sweep = _outcome(lambda: dyn.antichain_rowmotion(g, ext))
            assert isinstance(sweep, str)
            assert sweep == _outcome(lambda: toggle_loop_rowmotion(dyn, g, ext))


# -- tuple-rebuilding oracle for the order sweep -------------------------------------


def rebuilt_order_toggles(dyn, f, elements, elggot=False):
    """Order toggles (or elggots) at ``elements`` in turn, each one from its
    definition on a freshly rebuilt tuple: no code shared with the sweep."""
    b = dyn.backend
    for v in elements:
        lower = [f[u] for u in dyn.poset.down_adjacency[v]]
        upper = [f[w] for w in dyn.poset.up_adjacency[v]]
        try:
            left = b.sum(lower) if lower else b.one()
            right = parallel_sum(b, upper) if upper else b.constant_c()
            if elggot:
                left, right = right, left
            new = b.mul(b.mul(left, b.invert(f[v])), right)
        except NotInvertible as exc:
            kind = "elggot" if elggot else "toggle"
            raise NotInvertible(context=f"order {kind} at {dyn.poset.element_names[v]}") from exc
        f = f[:v] + (new,) + f[v + 1:]
    return f


@pytest.mark.parametrize("backend_name", sorted(ORACLE_BACKENDS))
def test_order_sweep_matches_rebuilt_toggles(backend_name, linear_extensions):
    # Generic labelings, then central labels in ±1, ±2, whose sums and
    # parallel sums cancel often: both sides must raise at the same stage.
    from rowmotion.poset import random_graded_poset, random_poset
    posets = ([random_poset(n, seed) for n, seed in ((6, 3), (8, 5), (9, 44))]
              + [random_graded_poset(seed) for seed in (1, 5, 10)] + [chain_product(3, 4)])
    degenerate, graded = set(), 0
    for p in posets:
        dyn = Dynamics(p, ORACLE_BACKENDS[backend_name]())
        b = dyn.backend
        labelings = [dyn.random_labeling(derive_seed("order-sweep", p.serialize(), pt))
                     for pt in range(2)]
        rng = random.Random(p.serialize())
        labelings += [tuple(b.central_from_rational(rng.choice((-2, -1, 1, 2)))
                            for _ in range(p.n)) for _ in range(4)]
        pairs = [(lambda g, ext=ext: dyn.order_rowmotion(g, ext),
                  lambda g, ext=ext: rebuilt_order_toggles(dyn, g, ext[::-1]))
                 for ext in linear_extensions(p, limit=2)]
        for v in range(p.n):
            pairs.append((lambda g, v=v: dyn.order_toggle(v, g),
                          lambda g, v=v: rebuilt_order_toggles(dyn, g, (v,))))
            pairs.append((lambda g, v=v: dyn.order_elggot(v, g),
                          lambda g, v=v: rebuilt_order_toggles(dyn, g, (v,), elggot=True)))
        if p.is_graded:
            graded += 1
            for i in range(p.top_rank + 1):
                pairs.append((lambda g, i=i: dyn.apply_word((Atom("rank_T", i),), g),
                              lambda g, i=i: rebuilt_order_toggles(dyn, g, p.rank_elements(i))))
        for g in labelings:
            for sweep, oracle in pairs:
                got, want = _outcome(lambda: sweep(g)), _outcome(lambda: oracle(g))
                if isinstance(want, str):
                    assert got == want
                    degenerate.add(want.rsplit(" at ", 1)[0])
                else:
                    assert not isinstance(got, str) and got == want
    assert graded >= 4
    assert degenerate == ({"order toggle", "order elggot"} if backend_name != "tropical"
                          else set())  # max-plus inversion is total


# -- fresh-inverse oracle for the order sweep's one inversion per label --------------


class FreshInverseDynamics(Dynamics):
    """The order sweep as it was before it kept inverses: one list of labels, and
    at every read of an upper cover a fresh inversion inside ``parallel_sum``."""

    def _order_sweep(self, f, toggled, elggot):
        b = self.backend
        add, mul, invert = b.add, b.mul, b.invert
        lower_covers, upper_covers = self.poset.down_adjacency, self.poset.up_adjacency
        out = list(f)
        for v in toggled:
            lower = None
            for u in lower_covers[v]:
                lower = out[u] if lower is None else add(lower, out[u])
            upper = upper_covers[v]
            try:
                right = parallel_sum(b, [out[w] for w in upper]) if upper else b.constant_c()
                inv = invert(out[v])
                if elggot:
                    out[v] = mul(right, inv)
                    if lower is not None:
                        out[v] = mul(out[v], lower)
                else:
                    out[v] = mul(inv if lower is None else mul(lower, inv), right)
            except NotInvertible as exc:
                kind = "elggot" if elggot else "toggle"
                raise NotInvertible(context=f"order {kind} at {self._name(v)}") from exc
        return tuple(out)


def fresh_inverse_posets():
    from rowmotion.poset import random_poset
    # random 12 3 has an element with four upper covers, whose parallel sum reads four
    # inverses, and elements with two or more lower covers, whose inverses are shared.
    return ([random_poset(n, seed) for n, seed in ((6, 3), (8, 5), (9, 44), (12, 3))]
            + [chain_product(3, 4)])


def _order_sweep_calls(p, rng):
    """Rowmotion, every single toggle and elggot, a seeded word of T and E atoms, and
    the sweeps u, v, u' for each two lower covers u, u' of v, as calls on a Dynamics
    and a labeling.  Only such a sweep reads, at u', an inverse kept at u for a
    label that v has since rewritten; no public map sweeps that way."""
    word = tuple(Atom(rng.choice(("T", "E")), rng.randrange(p.n)) for _ in range(2 * p.n))
    calls = [lambda d, g: d.order_rowmotion(g), lambda d, g: d.apply_word(word, g)]
    for v, lower in enumerate(p.down_adjacency):
        if len(lower) >= 2:
            calls += [lambda d, g, s=(lower[0], v, lower[1]), e=e: d._order_sweep(g, s, e)
                      for e in (False, True)]
    calls += [lambda d, g, v=v: d.order_toggle(v, g) for v in range(p.n)]
    calls += [lambda d, g, v=v: d.order_elggot(v, g) for v in range(p.n)]
    return calls


@pytest.mark.parametrize("backend_name", sorted(ORACLE_BACKENDS))
def test_order_sweep_matches_fresh_inverse_reference(backend_name):
    # Generic labelings, then central labels in ±1, ±2, whose parallel sums cancel
    # often: the kept inverses must give the same labeling or the same failing stage.
    posets = fresh_inverse_posets()
    assert max(len(up) for p in posets for up in p.up_adjacency) >= 3
    degenerate = set()
    for p in posets:
        backend = ORACLE_BACKENDS[backend_name]()
        dyn, ref = Dynamics(p, backend), FreshInverseDynamics(p, backend)
        rng = random.Random(derive_seed("fresh-inverse", p.serialize(), backend_name))
        labelings = [dyn.random_labeling(derive_seed("fresh-inverse", p.serialize(), pt))
                     for pt in range(2)]
        labelings += [tuple(backend.central_from_rational(rng.choice((-2, -1, 1, 2)))
                            for _ in range(p.n)) for _ in range(4)]
        calls = _order_sweep_calls(p, rng)
        for g in labelings:
            for call in calls:
                got, want = _outcome(lambda: call(dyn, g)), _outcome(lambda: call(ref, g))
                assert got == want
                if isinstance(want, str):
                    degenerate.add(want.rsplit(" at ", 1)[0])
    assert degenerate == ({"order toggle", "order elggot"} if backend_name != "tropical"
                          else set())  # max-plus inversion is total


def test_order_sweep_singular_upper_cover_label_matrix():
    # A singular label at an upper cover w of v makes the parallel sum at v fail; in
    # rowmotion, a singular lower-cover sum at w makes w's new label singular, and
    # the parallel sum at w's next lower cover in the sweep reads its kept inverse.
    from rowmotion.poset import random_poset
    singular = RationalMatrix(((F(1), F(2)), (F(2), F(4))))
    for p in (chain_product(2, 3), random_poset(12, 3)):
        backend = MatrixRing(2)
        dyn, ref = Dynamics(p, backend), FreshInverseDynamics(p, backend)
        for w in range(p.n):
            g = dyn.random_labeling(derive_seed("singular-upper", p.serialize(), w))
            g = g[:w] + (singular,) + g[w + 1:]
            for v in p.down_adjacency[w]:
                for call in (dyn.order_toggle, dyn.order_elggot):
                    kind = call.__name__.split("_")[1]
                    with pytest.raises(NotInvertible) as exc:
                        call(v, g)
                    assert exc.value.context == f"order {kind} at {p.element_names[v]}"
                    assert _outcome(lambda: getattr(ref, call.__name__)(v, g)) == \
                        exc.value.context
            lower = p.down_adjacency[w]
            if len(lower) < 2:
                continue
            g = list(dyn.random_labeling(derive_seed("singular-sum", p.serialize(), w)))
            g[lower[1]] = singular + RationalMatrix.scalar(2, -1) @ g[lower[0]]
            for u in lower[2:]:
                g[u] = RationalMatrix.scalar(2, 0)
            g = tuple(g)
            assert backend.sum(g[u] for u in lower) == singular
            got = _outcome(lambda: dyn.order_rowmotion(g))
            assert isinstance(got, str) and got == _outcome(lambda: ref.order_rowmotion(g))
            # it fails below w: at w itself, only the sum of its lower covers is singular
            assert got != f"order toggle at {p.element_names[w]}"


class InversionCountingBackend:
    """Delegates to ``inner`` and keeps every value passed to ``invert``, so that no
    value is freed and its id reused while the count is read."""

    def __init__(self, inner):
        self.inner = inner
        self.inverted = []

    def invert(self, x):
        self.inverted.append(x)
        return self.inner.invert(x)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize("backend_name", sorted(ORACLE_BACKENDS))
def test_order_sweep_inverts_each_label_at_most_once(backend_name):
    # The labels of one sweep are the starting labels and the new ones; every element
    # with two lower covers has its new label read by both parallel sums.
    reread = 0
    for p in fresh_inverse_posets():
        counting = InversionCountingBackend(ORACLE_BACKENDS[backend_name]())
        dyn, ref = Dynamics(p, counting), FreshInverseDynamics(p, counting)
        g = _generic_labeling(counting.inner, p, derive_seed("invert-once", p.serialize()))
        ext = p.default_linear_extension
        sweeps = [lambda d: d.order_rowmotion(g), lambda d: d._order_sweep(g, ext, False)]
        sweeps += [lambda d, v=v: d.order_toggle(v, g) for v in range(p.n)]
        sweeps += [lambda d, v=v: d.order_elggot(v, g) for v in range(p.n)]
        for sweep in sweeps:
            counts = {}
            for d in (dyn, ref):
                counting.inverted.clear()
                out = sweep(d)
                labels = {id(x) for x in g + out}
                counts[d] = max(sum(id(x) == key for x in counting.inverted) for key in labels)
            assert counts[dyn] <= 1
            reread += counts[ref] > 1
    assert reread > 0  # the reference does invert a label twice in some sweep


# -- identity-free sweeps ----------------------------------------------------------


class IdentityCountingBackend:
    """Delegates to ``inner`` and counts the products with an operand equal to one()."""

    product = AlgebraBackend.product  # the library's product, through the counting mul

    def __init__(self, inner):
        self.inner = inner
        self.identity_products = 0

    def mul(self, x, y):
        one = self.inner.one()
        if self.inner.equals(x, one) or self.inner.equals(y, one):
            self.identity_products += 1
        return self.inner.mul(x, y)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class IdentityMultiplyingDynamics(Dynamics):
    """The sweeps written with the boundary identity multiplied in, where the
    library leaves it out: a reference that shares no sweep code with it."""

    def _transfer(self, f, down):
        b = self.backend
        covers = self.poset.down_adjacency if down else self.poset.up_adjacency
        out = []
        for x in range(self.poset.n):
            near = [f[y] for y in covers[x]]
            acc = b.sum(near) if near else b.one()
            try:
                inv = b.invert(acc)
            except NotInvertible as exc:
                side = "down" if down else "up"
                raise NotInvertible(context=f"{side} transfer at {self._name(x)}") from exc
            out.append(b.mul(f[x], inv) if down else b.mul(inv, f[x]))
        return tuple(out)

    def _inv_transfer(self, f, elements, down):
        b = self.backend
        covers = self.poset.down_adjacency if down else self.poset.up_adjacency
        out = [None] * self.poset.n
        for x in elements:
            near = [out[y] for y in covers[x]]
            acc = b.sum(near) if near else b.one()
            out[x] = b.mul(f[x], acc) if down else b.mul(acc, f[x])
        return out

    def _order_sweep(self, f, toggled, elggot):
        return rebuilt_order_toggles(self, tuple(f), toggled, elggot)

    def _antichain_sweep(self, g, toggled, extension, elggot):
        b = self.backend
        lower, upper = self.poset.down_adjacency, self.poset.up_adjacency
        if elggot:
            extension = extension[::-1]
            lower, upper = upper, lower
        mul = (lambda x, y: b.mul(y, x)) if elggot else b.mul
        toggled = set(toggled)
        above, below = set(toggled), set(toggled)
        for x in extension:
            if x not in above and not above.isdisjoint(lower[x]):
                above.add(x)
        for x in reversed(extension):
            if x not in below and not below.isdisjoint(upper[x]):
                below.add(x)
        up = self._inv_transfer(g, [x for x in reversed(extension) if x in above], down=elggot)
        down = [None] * self.poset.n
        out = list(g)
        for x in extension:
            if x not in below:
                continue
            near = [down[u] for u in lower[x]]
            acc = b.sum(near) if near else b.one()
            if x in toggled:
                try:
                    out[x] = b.mul(b.constant_c(), b.invert(mul(acc, up[x])))
                except NotInvertible as exc:
                    kind = "elggot" if elggot else "toggle"
                    raise NotInvertible(context=f"antichain {kind} at {self._name(x)}") from exc
            if not below.isdisjoint(upper[x]):
                down[x] = mul(out[x], acc)
        return tuple(out)


def _sweep_runs(dyn):
    """Every map that sweeps: both rowmotions, each single toggle and elggot,
    the four transfers and the rowmotions through them, and a toggle word."""
    n = dyn.poset.n
    runs = [dyn.order_rowmotion, dyn.antichain_rowmotion, dyn.down_transfer,
            dyn.up_transfer, dyn.inv_down_transfer, dyn.inv_up_transfer,
            dyn.order_rowmotion_via_transfers, dyn.antichain_rowmotion_via_transfers]
    for method in ("order_toggle", "order_elggot", "antichain_toggle", "antichain_elggot"):
        runs += [lambda f, m=getattr(dyn, method), v=v: m(v, f) for v in range(n)]
    word = [Atom(kind, v) for v in (0, n - 1) for kind in ("T", "tau", "E", "eps")]
    if dyn.poset.is_graded:
        word += [Atom(kind, i) for i in (0, dyn.poset.top_rank)
                 for kind in ("rank_T", "rank_tau")]
    runs.append(lambda f: dyn.apply_word(word, f))
    return runs


def _generic_labeling(backend, p, seed):
    # Tropical samples lie in [0, 1] and may be 0, its one(); labels of both
    # signs with large denominators make no label or sum equal to it.
    if backend.is_tropical:
        rng = random.Random(seed)
        return tuple(F(rng.randint(1, 10**6) * rng.choice((-1, 1)), rng.randint(1, 10**6))
                     for _ in range(p.n))
    return Dynamics(p, backend).random_labeling(seed)


@pytest.mark.parametrize("backend_name", sorted(ORACLE_BACKENDS))
def test_sweeps_never_multiply_by_the_identity(backend_name):
    from rowmotion.poset import random_graded_poset, random_poset
    posets = ([random_poset(n, seed) for n, seed in ((6, 3), (8, 5))]
              + [random_graded_poset(seed) for seed in (1, 5)])
    runs = 0
    for p in posets:
        lean = IdentityCountingBackend(ORACLE_BACKENDS[backend_name]())
        heavy = IdentityCountingBackend(ORACLE_BACKENDS[backend_name]())
        dyn, ref = Dynamics(p, lean), IdentityMultiplyingDynamics(p, heavy)
        g = _generic_labeling(lean.inner, p, derive_seed("identity-free", p.serialize()))
        for run, ref_run in zip(_sweep_runs(dyn), _sweep_runs(ref)):
            assert run(g) == ref_run(g)
            runs += 1
        for k in (1, 2, 4):
            assert lean.product(g[:k]) == functools.reduce(lean.inner.mul, g[:k])
        assert lean.product([]) == lean.inner.one()
        assert lean.identity_products == 0, p.serialize()
        assert heavy.identity_products > 0  # the reference does multiply by one()
    assert runs > 4 * 30


# -- toggle words, atom by atom ------------------------------------------------------


def _rank_order_poset():
    # Rank 1 is {1, 2}, but the default extension 0, 2, 3, 1 visits 2 first:
    # the rank atom toggles them in index order, rowmotion in extension order.
    from rowmotion.poset import parse_poset
    return parse_poset("4\n0<2\n3<1\n")


@pytest.mark.parametrize("backend_spec", ["rational", "matrix:2"])
def test_a_bad_atom_raises_after_the_atoms_before_it(backend_spec):
    # The atoms before a bad atom are applied first, so atoms that degenerate
    # before it raise NotInvertible.
    from rowmotion.poset import random_poset
    p = _rank_order_poset()
    dyn = Dynamics(p, parse_backend(backend_spec))
    b = dyn.backend
    singular = tuple(b.central_from_rational(x) for x in (1, 0, 0, 1))
    for bad in (Atom("T", 9), Atom("eps", -1), Atom("rank_tau", 7), Atom("spin", 0)):
        for before in ((Atom("tau", 2), Atom("tau", 1)), (Atom("T", 3), Atom("T", 1)),
                       (Atom("rank_tau", 1),)):
            with pytest.raises(NotInvertible):
                dyn.apply_word(before + (bad,), singular)
            with pytest.raises(ValueError):
                dyn.apply_word(before + (bad,), dyn.random_labeling(1))
    ungraded = random_poset(7, 0)
    assert not ungraded.is_graded
    flat = Dynamics(ungraded, parse_backend(backend_spec))
    zero = (b.central_from_rational(0),) * ungraded.n
    with pytest.raises(NotInvertible):
        flat.apply_word((Atom("E", 0), Atom("rank_T", 0)), zero)
    with pytest.raises(NotGraded):
        flat.apply_word((Atom("E", 0), Atom("rank_T", 0)), flat.random_labeling(1))


def test_antichain_sweep_plans_are_kept_apart(linear_extensions):
    # One poset's plan store serves single toggles, toggle words, rank atoms and
    # rowmotion along two extensions, interleaved: each call must give what the
    # same call gives on a rebuilt copy of the poset, whose store is empty,
    # labeling or failing stage alike.
    from rowmotion.poset import Poset, random_poset, root_poset_a

    def rebuilt(p):
        copy = Poset(p.n, p.covers, p.element_names)
        assert copy.covers == p.covers and not copy._plans
        return copy
    apart = 0
    for p in (_rank_order_poset(), chain_product(2, 3), root_poset_a(3), random_poset(7, 5)):
        one, two = linear_extensions(p, limit=2)
        ext = p.default_linear_extension
        calls = [lambda d, g: d.antichain_rowmotion(g, one),
                 lambda d, g: d.antichain_rowmotion(g, two),
                 lambda d, g: d.order_rowmotion(g, two),
                 lambda d, g: d.apply_word(tuple(Atom("tau", v) for v in ext[1:]), g),
                 lambda d, g: d.apply_word(tuple(Atom("eps", v) for v in reversed(ext)), g)]
        calls += [lambda d, g, v=v: d.antichain_toggle(v, g) for v in range(p.n)]
        calls += [lambda d, g, v=v: d.antichain_elggot(v, g) for v in range(p.n)]
        calls += [lambda d, g, i=i: d.apply_word((Atom("rank_tau", i),), g)
                  for i in range(p.top_rank + 1 if p.is_graded else 0)]
        for spec in ("rational", "matrix:2"):
            dyn = Dynamics(p, parse_backend(spec))
            b = dyn.backend
            rng = random.Random(derive_seed("plans", p.serialize(), spec))
            labelings = [dyn.random_labeling(derive_seed("plans", p.serialize()))]
            labelings += [tuple(b.central_from_rational(rng.choice((-2, -1, 1, 2)))
                                for _ in range(p.n)) for _ in range(30)]
            if p.n == 4:
                labelings.append(tuple(b.central_from_rational(x) for x in (1, 0, 0, 1)))
            for g in labelings:
                rng.shuffle(calls)
                for call in calls:
                    assert _outcome(lambda: call(dyn, g)) == \
                        _outcome(lambda: call(Dynamics(rebuilt(p), b), g))
                apart += (_outcome(lambda: dyn.antichain_rowmotion(g, one))
                          != _outcome(lambda: dyn.antichain_rowmotion(g, two)))
    assert apart > 0  # some labeling fails at a different stage along each extension



# -- the label-size stop: a stored-integer bound first, label_bits past it ------------


def reference_detect_order(step, start, limit, max_iter):
    """``detect_order`` measuring every label by ``label_bits`` at every step: the
    order, None, or ("stop", k) where a label first needs more than ``limit`` bits."""
    current = start
    for k in range(1, max_iter + 1):
        current = step(current)
        if max(map(label_bits, current), default=0) > limit:
            return "stop", k
        if current == start:
            return k
    return None


def _detect_outcome(step, start, max_iter):
    try:
        return detect_order(step, start, operator.eq, max_iter=max_iter)
    except LabelsTooLarge as exc:
        return "stop", exc.iterates


def _walk(labelings):
    """A step that walks the labelings in turn, the last back to the first."""
    after = {id(f): labelings[(k + 1) % len(labelings)] for k, f in enumerate(labelings)}
    return lambda f: after[id(f)]


def test_label_size_stop_at_the_limit_on_built_labels():
    limit = dynamics.MAX_LABEL_BITS
    small = F(3, 7)
    at = F(2 ** (limit - 2))  # limit - 1 numerator bits and one denominator bit
    over = F(1, 2 ** (limit - 1))  # one numerator bit and limit denominator bits
    assert (label_bits(at), label_bits(over)) == (limit, limit + 1)
    # n/D with a large gcd(n, D): the entry 1/3 is stored as (D/3)/D.
    den = 3 * 2 ** (limit * 3 // 5)
    shared = RationalMatrix(((F(1, den), F(1, 3)), (F(0), F(1))))
    assert _label_bits_bound(shared) > limit >= label_bits(shared)
    kinds = {
        "rational": (small, at, over),
        "tropical": (-small, -at, -over),
        "matrix": tuple(RationalMatrix.scalar(2, x) for x in (small, at, over)),
    }
    for kind, (s, a, o) in kinds.items():
        walks = [[(s, s), (a, s), (s, a)], [(s, s), (s, a), (o, s), (s, a)],
                 [(s, s), (a, a), (a, s), (s, o)]]
        if kind == "matrix":
            walks += [[(s, s), (shared, s), (s, shared)], [(s, s), (shared, a), (shared, o)]]
        outcomes = set()
        for walk in walks:
            want = reference_detect_order(_walk(walk), walk[0], limit, 10)
            assert _detect_outcome(_walk(walk), walk[0], 10) == want, (kind, walk)
            outcomes.add(want)
        assert {3, ("stop", 2), ("stop", 3)} <= outcomes, kind


@pytest.mark.parametrize("backend_spec", ["rational", "tropical", "matrix:2", "matrix:3"])
def test_label_size_stop_matches_label_bits_on_orbits(backend_spec, monkeypatch):
    # The labels of rowmotion orbits and of the non-periodic product of the two
    # rowmotions, walked again under limits at and one bit below each step's largest
    # label: the stop must come where label_bits first passes the limit, never before.
    p = chain_product(2, 3)
    dyn = Dynamics(p, parse_backend(backend_spec))
    start = dyn.random_labeling(derive_seed("label-stop", backend_spec))
    stops = set()
    for step, steps in ((dyn.antichain_rowmotion, 5), (dyn.order_rowmotion, 5),
                        (lambda f: dyn.order_rowmotion(dyn.antichain_rowmotion(f)), 2)):
        orbit = [start]
        while len(orbit) <= steps and (len(orbit) == 1 or orbit[-1] != start):
            orbit.append(step(orbit[-1]))
        if orbit[-1] == start:
            orbit.pop()
        walk = _walk(orbit)
        sizes = [max(map(label_bits, f)) for f in orbit]
        for limit in sorted({b - d for b in sizes for d in (0, 1)}):
            monkeypatch.setattr(dynamics, "MAX_LABEL_BITS", limit)
            want = reference_detect_order(walk, start, limit, 8)
            assert _detect_outcome(walk, start, 8) == want, limit
            stops.add(want)
    assert 5 in stops and ("stop", 1) in stops
    assert any(isinstance(s, tuple) and s[1] > 1 for s in stops)
