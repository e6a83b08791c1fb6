import itertools

import pytest

from rowmotion.errors import ChainBudgetExceeded, CycleDetected, DanglingElement
from rowmotion.poset import (
    Poset,
    chain_product,
    chain_product_index,
    parse_poset,
    random_poset,
    root_poset_a,
    root_poset_a_index,
)


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


def test_linear_extensions_two_antichain():
    p = Poset(2, [])
    assert p.linear_extensions(limit=10) == [(0, 1), (1, 0)]


def test_linear_extensions_2x2_count(p22):
    brute = all_extensions_brute_force(p22)
    assert len(brute) == 2
    assert p22.linear_extensions(limit=10) == sorted(brute)


def test_linear_extensions_2x3_first_matches_builder_order(p23):
    idx = chain_product_index(2, 3)
    expected = tuple(idx[c] for c in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
    assert p23.linear_extensions(limit=1)[0] == expected
    assert p23.default_linear_extension == expected


def test_linear_extensions_are_lex_sorted_and_valid(p23, a3):
    for p in (p23, a3):
        exts = p.linear_extensions(limit=10**6)
        assert exts == sorted(exts)
        assert exts == sorted(all_extensions_brute_force(p))


def test_extension_invariant_adjacent_transpositions(a3):
    # any two extensions differ by swaps of adjacent incomparable elements:
    # equivalently, the swap graph on extensions is connected
    exts = a3.linear_extensions(limit=10**6)
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


def dfs_chains_through(p, v):
    """Independent oracle: enumerate maximal chains by DFS and filter."""
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
    return [c for c in chains if v in c]


def test_chains_through_2x3_bottom(p23):
    idx = chain_product_index(2, 3)
    assert len(p23.chains_through(idx[(1, 1)])) == 3


def test_chains_through_singleton():
    p = chain_product(1, 1)
    assert p.chains_through(0) == (((0,), 0),)


def test_chains_through_a3_matches_dfs_oracle(a3):
    for v in range(a3.n):
        got = [chain for (chain, _) in a3.chains_through(v)]
        assert sorted(got) == sorted(dfs_chains_through(a3, v))


def test_chains_are_maximal_and_positions_correct(p23, a3):
    for p in (p23, a3):
        for v in range(p.n):
            for chain, pos in p.chains_through(v):
                assert chain[pos] == v
                assert chain[0] in p.minimal_elements()
                assert chain[-1] in p.maximal_elements()
                assert all((chain[i], chain[i + 1]) in p.covers
                           for i in range(len(chain) - 1))


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
