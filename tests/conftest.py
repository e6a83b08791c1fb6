from fractions import Fraction

import pytest

from rowmotion.poset import chain_product, root_poset_a


def enumerate_linear_extensions(poset, limit):
    """The lexicographically first ``limit`` linear extensions, by backtracking."""
    if limit < 1:
        raise ValueError("limit must be positive")
    n = poset.n
    out = []
    indeg = [len(poset.down_adjacency[v]) for v in range(n)]
    prefix = []
    used = [False] * n

    def backtrack():
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(n):
            if used[v] or indeg[v] != 0:
                continue
            used[v] = True
            prefix.append(v)
            for w in poset.up_adjacency[v]:
                indeg[w] -= 1
            backtrack()
            for w in poset.up_adjacency[v]:
                indeg[w] += 1
            prefix.pop()
            used[v] = False
            if len(out) >= limit:
                return

    backtrack()
    return out


@pytest.fixture(scope="session")
def linear_extensions():
    return enumerate_linear_extensions


@pytest.fixture(scope="session")
def p22():
    return chain_product(2, 2)


@pytest.fixture(scope="session")
def p23():
    return chain_product(2, 3)


@pytest.fixture(scope="session")
def p33():
    return chain_product(3, 3)


@pytest.fixture(scope="session")
def a3():
    return root_poset_a(3)


def frac(num, den=1):
    return Fraction(num, den)
