import copy
import itertools
import random

import pytest

from rowmotion import polytopes, subsets
from rowmotion import poset as poset_module
from rowmotion.backends import parse_backend
from rowmotion.dynamics import Atom, Dynamics
from rowmotion.errors import (
    ChainBudgetExceeded,
    CycleDetected,
    DanglingElement,
    RowmotionError,
)
from rowmotion.harness import build_poset
from rowmotion.poset import (
    Poset,
    chain_product,
    chain_product_index,
    parse_poset,
    random_graded_poset,
    random_poset,
    root_poset_a,
    root_poset_a_index,
)
from rowmotion.subsets import Kind
from test_report_digests import RANK_ORDER_POSET


def brute_force_covers(n, relations):
    """Oracle: transitive closure then reduction, straight from the definition."""
    closure = set(relations)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return {(u, v) for (u, v) in closure
            if not any((u, w) in closure and (w, v) in closure for w in range(n))}


def reference_order(n, relations):
    """Oracle for the constructor: the same checks in the same order, then
    Warshall's transitive closure, a cubic cover scan, a sorted Kahn pass
    over the covers for the default extension, and ranks along it.

    Returns (lt table, covers, up adjacency, down adjacency, extension, rank).
    """
    for (u, v) in relations:
        if not (0 <= u < n and 0 <= v < n):
            raise DanglingElement(f"relation ({u},{v}) references a missing element")
    lt = [[False] * n for _ in range(n)]
    for (u, v) in relations:
        if u == v:
            raise CycleDetected(f"element {u} declared below itself")
        lt[u][v] = True
    for k in range(n):
        for i in range(n):
            if lt[i][k]:
                for j in range(n):
                    if lt[k][j]:
                        lt[i][j] = True
    if any(lt[i][i] for i in range(n)):
        raise CycleDetected("directed cycle")
    covers = {(u, v) for u in range(n) for v in range(n)
              if lt[u][v] and not any(lt[u][w] and lt[w][v] for w in range(n))}
    up = tuple(tuple(sorted(v for (x, v) in covers if x == u)) for u in range(n))
    down = tuple(tuple(sorted(u for (u, x) in covers if x == v)) for v in range(n))
    indeg = [len(d) for d in down]
    ready = sorted(v for v in range(n) if indeg[v] == 0)
    extension = []
    while ready:
        v = ready.pop(0)
        extension.append(v)
        for w in up[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    rank = [None] * n
    for v in extension:
        lower = {rank[u] for u in down[v]}
        if len(lower) > 1:
            rank = None
            break
        rank[v] = lower.pop() + 1 if lower else 0
    if rank is not None and len({rank[v] for v in range(n) if not up[v]}) > 1:
        rank = None
    return (tuple(map(tuple, lt)), covers, up, down, tuple(extension),
            None if rank is None else tuple(rank))


@pytest.fixture
def recorded(monkeypatch):
    """Make every builder record the relations it hands to ``Poset``."""
    class RecordingPoset(Poset):
        def __init__(self, n, relations, element_names=None):
            self.declared = list(relations)
            super().__init__(n, self.declared, element_names)
    monkeypatch.setattr(poset_module, "Poset", RecordingPoset)


def assert_matches_reference(p, relations):
    lt, covers, up, down, extension, rank = reference_order(p.n, relations)
    assert p.covers == covers
    assert p.up_adjacency == up and p.down_adjacency == down
    assert p.default_linear_extension == extension
    assert p.rank == rank
    for u in range(p.n):
        for v in range(p.n):
            assert p.less(u, v) is lt[u][v]
            assert p.leq(u, v) is (u == v or lt[u][v])
            assert p.incomparable(u, v) is (u != v and not lt[u][v] and not lt[v][u])
    for v in range(p.n):
        assert p.strict_down_set(v) == frozenset(u for u in range(p.n) if lt[u][v])
        assert p.down_set(v) == frozenset(u for u in range(p.n) if u == v or lt[u][v])
    # the label-free masks of subsets.py
    mask = lambda members: sum(1 << u for u in members)
    assert p._full == mask(range(p.n))
    assert p._below == tuple(mask(u for u in range(p.n) if lt[u][v]) for v in range(p.n))
    assert p._above == tuple(mask(u for u in range(p.n) if lt[v][u]) for v in range(p.n))
    assert p._lower_covers == tuple(map(mask, down))
    assert p._upper_covers == tuple(map(mask, up))


def test_sweep_matches_reference_on_seeded_random_posets(recorded):
    for seed in range(300):
        p = random_poset(seed % 17, seed)
        assert_matches_reference(p, p.declared)
    for seed in range(100):
        p = random_graded_poset(seed)
        assert_matches_reference(p, p.declared)


def test_sweep_matches_reference_on_relabeled_redundant_relations(recorded):
    # Relabeling moves the lexicographically first extension off the identity;
    # the repeats and the closure pairs are relations the sweep must absorb.
    for seed in range(100):
        rng = random.Random(seed)
        n = 2 + seed % 11
        base = random_poset(n, 1000 + seed)
        perm = list(range(n))
        rng.shuffle(perm)
        closure = [(u, v) for u in range(n) for v in range(n) if base.less(u, v)]
        relations = [(perm[u], perm[v]) for (u, v) in base.declared + closure[:3]]
        relations += relations[:2]
        rng.shuffle(relations)
        assert_matches_reference(Poset(n, relations), relations)


NAMED_SPECS = (
    [f"chain {a}x{b}" for a in range(1, 4) for b in range(a, 13) if a * b <= 12]
    + ["chain 1x10", "chain 2x8", "chain 3x6", "chain 4x4", "chain 4x6", "chain 5x5",
       "chain 6x6", "chain 8x8", "chain 12x13"]
    + [f"rootA {m}" for m in range(1, 7)]
    + ["random 5 7", "random 6 303", "random 7 1", "random 7 11", "random 7 101",
       "random 7 202"]
    + [f"random 16 {s}" for s in range(1, 7)]
)


@pytest.mark.parametrize("spec", NAMED_SPECS)
def test_sweep_matches_reference_on_named_specs(recorded, spec):
    p = build_poset(spec)
    assert_matches_reference(p, p.declared)


@pytest.mark.parametrize("n,relations", [
    (1, [(0, 0)]),
    (2, [(0, 1), (1, 0)]),
    (2, [(0, 5)]),
    (2, [(-1, 0)]),
    (2, [(0, 0), (0, 5)]),  # the dangling check runs first
    (4, [(0, 1), (1, 2), (2, 1), (2, 3)]),
    (3, [(0, 1), (1, 2), (2, 0)]),
])
def test_sweep_raises_like_reference(n, relations):
    with pytest.raises(RowmotionError) as got:
        Poset(n, relations)
    with pytest.raises(RowmotionError) as want:
        reference_order(n, relations)
    assert type(got.value) is type(want.value)


def test_cycle_message_names_the_unordered_elements():
    with pytest.raises(CycleDetected, match=r"elements \[1, 2, 3\]"):
        Poset(4, [(0, 1), (1, 2), (2, 1), (2, 3)])


def test_chain_product_2x3_shape(p23):
    assert p23.n == 6
    assert len(p23.covers) == 7
    assert p23.rank is not None
    assert p23.top_rank == 3


def test_chain_product_singleton():
    p = chain_product(1, 1)
    assert p.n == 1
    assert len(p.covers) == 0
    assert p.rank == (0,)


def test_chain_product_3x3_cover_count(p33):
    # a(b-1) + b(a-1), cross-checked by a from-scratch transitive reduction
    a = b = 3
    assert len(p33.covers) == a * (b - 1) + b * (a - 1) == 12
    idx = chain_product_index(a, b)
    relations = {(idx[(i, j)], idx[(k, l)])
                 for (i, j) in idx for (k, l) in idx
                 if (i, j) != (k, l) and i <= k and j <= l}
    assert set(p33.covers) == brute_force_covers(p33.n, relations)


def test_chain_product_ranks(p23):
    idx = chain_product_index(2, 3)
    for (i, j), k in idx.items():
        assert p23.rank[k] == i + j - 2


def test_root_poset_a3_shape(a3):
    assert a3.n == 6
    by_rank = [len(a3.rank_elements(i)) for i in range(a3.top_rank + 1)]
    assert by_rank == [3, 2, 1]
    assert len(a3.covers) == 6


def test_root_poset_a1_singleton():
    p = root_poset_a(1)
    assert p.n == 1 and not p.covers


def test_root_poset_a4_brute_force():
    p = root_poset_a(4)
    assert p.n == 10
    assert p.top_rank == 3
    # oracle over interval pairs: [i,j] <= [k,l] iff k <= i and j <= l
    idx = root_poset_a_index(4)
    for (i, j), u in idx.items():
        for (k, l), v in idx.items():
            expected = (u != v) and k <= i and j <= l
            assert p.less(u, v) == expected


def test_parse_three_chain():
    p = parse_poset("3\n0<1\n1<2\n")
    assert p.covers == {(0, 1), (1, 2)}
    assert p.rank == (0, 1, 2)


def test_parse_applies_transitive_reduction():
    p = parse_poset("# redundant relation below\n3\n0<1\n1<2\n0<2\n")
    assert p.covers == {(0, 1), (1, 2)}


def test_parse_cycle_detected():
    with pytest.raises(CycleDetected):
        parse_poset("2\n0<1\n1<0\n")


def test_parse_dangling_element():
    with pytest.raises(DanglingElement):
        parse_poset("2\n0<5\n")


def test_parse_roundtrip(p23, a3):
    for p in (p23, a3):
        q = parse_poset(p.serialize())
        assert q.n == p.n
        assert q.covers == p.covers
        assert q.rank == p.rank


def is_isomorphic(p, q):
    """Brute-force poset isomorphism oracle for n <= 8."""
    if p.n != q.n or len(p.covers) != len(q.covers):
        return False
    for perm in itertools.permutations(range(p.n)):
        if all(((perm[u], perm[v]) in q.covers) for (u, v) in p.covers):
            return True
    return False


def test_parse_2x3_file_isomorphic_to_builder(p23):
    text = "6\n0<1\n0<2\n1<3\n2<3\n2<4\n3<5\n4<5\n"
    assert is_isomorphic(parse_poset(text), p23)


def all_extensions_brute_force(p):
    return [perm for perm in itertools.permutations(range(p.n))
            if all(perm.index(u) < perm.index(v) for (u, v) in p.covers)]


def test_linear_extensions_two_antichain(linear_extensions):
    p = Poset(2, [])
    assert linear_extensions(p, limit=10) == [(0, 1), (1, 0)]


def test_linear_extensions_2x2_count(p22, linear_extensions):
    brute = all_extensions_brute_force(p22)
    assert len(brute) == 2
    assert linear_extensions(p22, limit=10) == sorted(brute)


def test_linear_extensions_2x3_first_matches_builder_order(p23, linear_extensions):
    idx = chain_product_index(2, 3)
    expected = tuple(idx[c] for c in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
    assert linear_extensions(p23, limit=1)[0] == expected
    assert p23.default_linear_extension == expected


def test_linear_extensions_are_lex_sorted_and_valid(p23, a3, linear_extensions):
    for p in (p23, a3):
        exts = linear_extensions(p, limit=10**6)
        assert exts == sorted(exts)
        assert exts == sorted(all_extensions_brute_force(p))


def test_extension_invariant_adjacent_transpositions(a3, linear_extensions):
    # any two extensions differ by swaps of adjacent incomparable elements:
    # equivalently, the swap graph on extensions is connected
    exts = linear_extensions(a3, limit=10**6)
    pos = {e: i for i, e in enumerate(exts)}
    adj = {i: set() for i in range(len(exts))}
    for e in exts:
        for k in range(len(e) - 1):
            if a3.incomparable(e[k], e[k + 1]):
                f = e[:k] + (e[k + 1], e[k]) + e[k + 2:]
                adj[pos[e]].add(pos[f])
    seen, stack = {0}, [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    assert len(seen) == len(exts)


def dfs_maximal_chains(p):
    """Independent oracle: maximal chains by recursive DFS, in the library's order."""
    chains = []

    def walk(chain):
        last = chain[-1]
        if not p.up_adjacency[last]:
            chains.append(tuple(chain))
            return
        for w in p.up_adjacency[last]:
            walk(chain + [w])

    for m in p.minimal_elements():
        walk([m])
    return chains


def dfs_chains_through(p, v):
    """Independent oracle: enumerate maximal chains by DFS and filter."""
    return [c for c in dfs_maximal_chains(p) if v in c]


def test_chains_through_2x3_bottom(p23):
    idx = chain_product_index(2, 3)
    assert len(p23.chains_through(idx[(1, 1)])) == 3


def test_chains_through_singleton():
    p = chain_product(1, 1)
    assert p.chains_through(0) == (((0,), 0),)


def test_chains_through_a3_matches_dfs_oracle(a3):
    posets = ([a3] + [random_poset(n, seed) for n in (5, 7, 9) for seed in range(4)]
              + [random_graded_poset(seed) for seed in range(8)])
    for p in posets:
        for v in range(p.n):
            got = [chain for (chain, _) in p.chains_through(v)]
            assert sorted(got) == sorted(dfs_chains_through(p, v))


def test_chains_are_maximal_and_positions_correct(p23, a3):
    for p in (p23, a3):
        for v in range(p.n):
            for chain, pos in p.chains_through(v):
                assert chain[pos] == v
                assert chain[0] in p.minimal_elements()
                assert chain[-1] in p.maximal_elements()
                assert all((chain[i], chain[i + 1]) in p.covers
                           for i in range(len(chain) - 1))


def test_maximal_chains_match_recursive_oracle_in_order():
    rng = random.Random(29)
    posets = [Poset(0, []), Poset(3, []), root_poset_a(4), chain_product(3, 4)]
    posets += [random_poset(rng.randint(1, 12), rng.randrange(10**6)) for _ in range(40)]
    posets += [random_graded_poset(seed) for seed in range(20)]
    for p in posets:
        assert list(p.maximal_chains()) == dfs_maximal_chains(p), p


def test_longest_admitted_chain_needs_no_recursion():
    # 1200 elements, past the interpreter's default recursion limit of 1000
    p = chain_product(1, 1200)
    assert p.maximal_chains() == (tuple(range(1200)),)
    assert p.chains_through(1199) == ((tuple(range(1200)), 1199),)


def test_chain_budget_admits_exactly_the_budget(monkeypatch):
    monkeypatch.setattr("rowmotion.poset.DEFAULT_CHAIN_BUDGET", 4)
    assert Poset(4, []).maximal_chains() == ((0,), (1,), (2,), (3,))


def test_chain_budget_exceeded(monkeypatch):
    monkeypatch.setattr("rowmotion.poset.DEFAULT_CHAIN_BUDGET", 3)
    p = Poset(4, [])  # 4-antichain has 4 maximal chains
    with pytest.raises(ChainBudgetExceeded):
        p.maximal_chains()


def test_random_poset_deterministic_and_valid():
    p = random_poset(7, seed=11)
    q = random_poset(7, seed=11)
    assert p.covers == q.covers
    assert set(p.covers) == brute_force_covers(7, set(p.covers))


def test_ungraded_poset_detected():
    # three-element "N" with one short and one long path to the top
    p = parse_poset("4\n0<1\n1<3\n0<2\n2<3\n0<3\n")
    assert p.is_graded
    q = parse_poset("3\n0<1\n1<2\n0<2\n")  # reduces to a chain
    assert q.is_graded
    r = parse_poset("4\n0<1\n1<2\n3<2\n")  # maximal elements at unequal depth
    assert not r.is_graded



# -- a built poset is never written to --------------------------------------------------


def _dynamics_calls(dyn, g):
    """Every public Dynamics method, by name, as a call on the labeling g."""
    p, b = dyn.poset, dyn.backend
    n, top, ext = p.n, p.top_rank, p.default_linear_extension
    other = next(e for e in itertools.permutations(range(n))
                 if e != ext and all(e.index(u) < e.index(v) for u, v in p.covers))
    word = tuple(Atom(kind, v) for v in (0, n - 1) for kind in ("T", "tau", "E", "eps"))
    word += tuple(Atom(kind, i) for i in (0, top) for kind in ("rank_T", "rank_tau"))

    def each(single):
        return [single(v, g) for v in range(n)]
    return {
        "labeling": lambda: dyn.labeling(g),
        "random_labeling": lambda: dyn.random_labeling(3),
        "theta": lambda: dyn.theta(g),
        "down_transfer": lambda: dyn.down_transfer(g),
        "up_transfer": lambda: dyn.up_transfer(g),
        "inv_down_transfer": lambda: dyn.inv_down_transfer(g),
        "inv_up_transfer": lambda: dyn.inv_up_transfer(g),
        "order_toggle": lambda: each(dyn.order_toggle),
        "order_elggot": lambda: each(dyn.order_elggot),
        "antichain_toggle": lambda: each(dyn.antichain_toggle),
        "antichain_elggot": lambda: each(dyn.antichain_elggot),
        "order_rowmotion": lambda: (dyn.order_rowmotion(g), dyn.order_rowmotion(g, other)),
        "antichain_rowmotion": lambda: (dyn.antichain_rowmotion(g),
                                        dyn.antichain_rowmotion(g, other)),
        "order_rowmotion_via_transfers": lambda: dyn.order_rowmotion_via_transfers(g),
        "antichain_rowmotion_via_transfers": lambda: dyn.antichain_rowmotion_via_transfers(g),
        "apply_word": lambda: dyn.apply_word(word, g),
        "star_word": lambda: dyn.apply_word(dyn.star_word(word), g),
        "eta_word": lambda: dyn.apply_word(dyn.eta_word((n - 1,)), g),
        "order_gyration_word": lambda: dyn.apply_word(dyn.order_gyration_word(), g),
        "antichain_gyration_word": lambda: dyn.apply_word(dyn.antichain_gyration_word(), g),
        "graded_rescale": lambda: dyn.graded_rescale(
            [b.central_from_rational(i + 2) for i in range(top + 1)], g),
    }


ATOM_KINDS = ("T", "E", "tau", "eps", "rank_T", "rank_tau")


def test_no_library_code_writes_to_a_built_poset():
    # Every Dynamics map and word on four backends, each PL step by name and by
    # word, and every subsets map: the poset's attributes stay as they were built.
    for p in (chain_product(2, 3), parse_poset(RANK_ORDER_POSET)):
        built = copy.deepcopy(vars(p))
        for spec in ("rational", "tropical", "matrix:2", "matrix:3"):
            dyn = Dynamics(p, parse_backend(spec))
            calls = _dynamics_calls(dyn, dyn.random_labeling(1))
            assert calls.keys() == {name for name in dir(Dynamics) if not name.startswith("_")
                                    and callable(getattr(Dynamics, name))}
            for name, call in calls.items():
                call()
                assert vars(p) == built, (spec, name)
        points = {"order polytope": polytopes.random_order_polytope_point(p, 1),
                  "order-reversing polytope": polytopes.random_order_reversing_point(p, 1),
                  "chain polytope": polytopes.random_chain_polytope_point(p, 1)}
        points[None] = points["chain polytope"]
        for step, polytope in polytopes._DOMAIN.items():
            if step in ATOM_KINDS:
                count = p.top_rank + 1 if step.startswith("rank_") else p.n
                step = tuple(Atom(step, i) for i in range(count))
            polytopes.pl_apply(p, step, points[polytope])
            assert vars(p) == built, step
        single = {Kind.IDEAL: (subsets.complement, subsets.up_transfer),
                  Kind.FILTER: (subsets.complement, subsets.down_transfer),
                  Kind.ANTICHAIN: (subsets.inverse_up_transfer, subsets.inverse_down_transfer)}
        for kind, states in ((Kind.IDEAL, subsets.all_ideals(p)),
                             (Kind.FILTER, subsets.all_filters(p)),
                             (Kind.ANTICHAIN, subsets.all_antichains(p))):
            toggle = getattr(subsets, f"toggle_{kind.value}")
            for s in states:
                for m in single[kind]:
                    m(p, s)
                for v in range(p.n):
                    toggle(p, v, s)
                subsets.rowmotion(p, kind, s)
            subsets.orbit_partition(p, getattr(subsets, f"rowmotion_{kind.value}"), states)
            assert vars(p) == built, kind
