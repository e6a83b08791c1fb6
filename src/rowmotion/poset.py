"""Finite posets given by cover relations.

Elements are dense integer indices ``0..n-1`` with a display-name table.
Relations supplied to the constructor may be any strict order relations;
one topological sweep checks them for cycles and reduces them to the cover
relation.  At most ``MAX_ELEMENTS`` elements are accepted.  Instances never
change after construction, so they are safe to share between threads.
Maximal chains are enumerated afresh on each call; they are a reference
enumeration that the toggle calculus itself never reads.
"""

from __future__ import annotations

import heapq
import random
from .errors import ChainBudgetExceeded, CycleDetected, DanglingElement

DEFAULT_CHAIN_BUDGET = 10**6
MAX_ELEMENTS = 1800
RANDOM_POSET_DENSITY = 0.35
GRADED_MAX_RANK = 3
GRADED_MAX_WIDTH = 3


class Poset:
    """A finite poset.

    Attributes:
        n: element count.
        elements: frozenset of all elements ``0..n-1``.
        element_names: display string per element.
        covers: frozenset of pairs ``(u, v)`` with u covered by v.
        up_adjacency / down_adjacency: per-element sorted cover lists.
        default_linear_extension: the lexicographically smallest
            order-preserving permutation of ``0..n-1``.
        rank: per-element rank list, or None when the poset is ungraded.
    """

    def __init__(self, n, relations, element_names=None):
        if n < 0:
            raise ValueError("element count must be non-negative")
        _check_size(n)
        self.n = n
        self.elements = frozenset(range(n))
        if element_names is None:
            element_names = [str(i) for i in range(n)]
        if len(element_names) != n:
            raise ValueError("need exactly one name per element")
        self.element_names = tuple(element_names)

        for (u, v) in relations:
            if not (0 <= u < n and 0 <= v < n):
                raise DanglingElement(f"relation ({u},{v}) references a missing element")
        preds = [[] for _ in range(n)]
        succs = [[] for _ in range(n)]
        for (u, v) in relations:
            if u == v:
                raise CycleDetected(f"element {u} declared below itself")
            preds[v].append(u)
            succs[u].append(v)

        # One Kahn sweep, smallest ready element first: it visits the lexicographically
        # first linear extension, a visited element's strict down-set mask is complete,
        # and its lower covers are the declared predecessors below none of the others.
        indeg = [len(ps) for ps in preds]
        ready = [v for v in range(n) if not indeg[v]]
        order, below, down, lower = [], [0] * n, [()] * n, [0] * n
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            indirect = 0
            for u in preds[v]:
                indirect |= below[u]
            down[v] = tuple(sorted({u for u in preds[v] if not indirect >> u & 1}))
            lower[v] = sum(1 << u for u in down[v])
            below[v] = indirect | lower[v]
            for w in succs[v]:
                indeg[w] -= 1
                if not indeg[w]:
                    heapq.heappush(ready, w)
        if len(order) < n:
            raise CycleDetected(f"elements {[v for v in range(n) if indeg[v]]} "
                                "lie on or above a directed cycle")

        self.covers = frozenset((u, v) for v in range(n) for u in down[v])
        up = [[] for _ in range(n)]
        for (u, v) in sorted(self.covers):
            up[u].append(v)
        # One sweep down the extension over the upper covers: an element's strict
        # up-set is its upper covers and their strict up-sets.
        upper, above = [0] * n, [0] * n
        for v in reversed(order):
            for w in up[v]:
                upper[v] |= 1 << w
                above[v] |= above[w]
            above[v] |= upper[v]

        # Label-free masks, bit u of entry v: u < v (_below), v < u (_above), u covered
        # by v (_lower_covers), u covering v (_upper_covers); _full holds every element.
        self._below = tuple(below)
        self._above = tuple(above)
        self._lower_covers = tuple(lower)
        self._upper_covers = tuple(upper)
        self._full = (1 << n) - 1
        self.up_adjacency = tuple(map(tuple, up))
        self.down_adjacency = tuple(down)
        self.default_linear_extension = tuple(order)
        self.rank = self._compute_rank()

    # -- order queries ------------------------------------------------

    def less(self, u, v):
        """True when u < v strictly."""
        return self._below[v] >> u & 1 == 1

    def leq(self, u, v):
        return u == v or self._below[v] >> u & 1 == 1

    def incomparable(self, u, v):
        return u != v and not self._below[v] >> u & 1 and not self._below[u] >> v & 1

    def minimal_elements(self):
        return tuple(v for v in range(self.n) if not self.down_adjacency[v])

    def maximal_elements(self):
        return tuple(v for v in range(self.n) if not self.up_adjacency[v])

    def down_set(self, v):
        """All x with x <= v."""
        return self.strict_down_set(v) | {v}

    def strict_down_set(self, v):
        below = self._below[v]
        return frozenset(x for x in range(self.n) if below >> x & 1)

    @property
    def is_graded(self):
        return self.rank is not None

    @property
    def top_rank(self):
        if self.rank is None:
            return None
        return max(self.rank, default=0)

    def rank_elements(self, i):
        if self.rank is None:
            return ()
        return tuple(v for v in range(self.n) if self.rank[v] == i)

    # -- construction helpers ------------------------------------------

    def _compute_rank(self):
        rank = [None] * self.n
        for v in self.default_linear_extension:
            if not self.down_adjacency[v]:
                rank[v] = 0
                continue
            lower = {rank[u] for u in self.down_adjacency[v]}
            if len(lower) != 1:
                return None
            rank[v] = lower.pop() + 1
        tops = {rank[v] for v in self.maximal_elements()}
        if len(tops) > 1:
            return None
        return tuple(rank)

    # -- maximal chains --------------------------------------------------

    def maximal_chains(self):
        """All maximal chains, bottom-to-top; at most ``DEFAULT_CHAIN_BUDGET``.

        A depth-first walk up the covers, smallest cover first, that keeps one
        iterator per level of the current chain on an explicit stack, so a
        chain as long as ``MAX_ELEMENTS`` needs no recursion.
        """
        chains = []
        for bottom in self.minimal_elements():
            chain, branches = [bottom], [iter(self.up_adjacency[bottom])]
            while branches:
                w = next(branches[-1], None)
                if w is not None:
                    chain.append(w)
                    branches.append(iter(self.up_adjacency[w]))
                    continue
                if not self.up_adjacency[chain[-1]]:  # a maximal element ends a chain
                    if len(chains) >= DEFAULT_CHAIN_BUDGET:
                        raise ChainBudgetExceeded(
                            f"more than {DEFAULT_CHAIN_BUDGET} maximal chains")
                    chains.append(tuple(chain))
                chain.pop()
                branches.pop()
        return tuple(chains)

    def chains_through(self, v):
        """Maximal chains containing v, paired with v's position in each."""
        return tuple((chain, chain.index(v)) for chain in self.maximal_chains() if v in chain)

    # -- serialization ----------------------------------------------------

    def serialize(self):
        lines = [f"# poset on {self.n} elements", str(self.n)]
        for (u, v) in sorted(self.covers):
            lines.append(f"{u}<{v}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"Poset(n={self.n}, covers={len(self.covers)})"


def _check_size(n):
    if n > MAX_ELEMENTS:
        raise ValueError(f"a poset of {n} elements exceeds the limit of {MAX_ELEMENTS}")


# -- builders ------------------------------------------------------------


def chain_product(a, b):
    """The product of chains [a] x [b].

    Elements (i, j) with 1 <= i <= a, 1 <= j <= b, indexed column by
    column so the identity permutation is the lexicographically first
    linear extension: (1,1), (2,1), ..., (a,1), (1,2), ...
    Graded with rank(i, j) = i + j - 2.
    """
    if a < 1 or b < 1:
        raise ValueError("chain lengths must be positive")
    _check_size(a * b)
    index = chain_product_index(a, b)
    names = [f"({i},{j})" for (i, j) in index]
    relations = []
    for (i, j), k in index.items():
        if i + 1 <= a:
            relations.append((k, index[(i + 1, j)]))
        if j + 1 <= b:
            relations.append((k, index[(i, j + 1)]))
    return Poset(a * b, relations, names)


def chain_product_index(a, b):
    """Coordinate -> index map matching :func:`chain_product`."""
    index = {}
    k = 0
    for j in range(1, b + 1):
        for i in range(1, a + 1):
            index[(i, j)] = k
            k += 1
    return index


def root_poset_a(m):
    """The positive root poset of type A_m.

    Elements are the intervals [i, j] with 1 <= i <= j <= m, listed rank
    by rank (rank = j - i), with covers [i,j] < [i,j+1] and [i,j] < [i-1,j].
    """
    if m < 1:
        raise ValueError("m must be positive")
    _check_size(m * (m + 1) // 2)
    index = root_poset_a_index(m)
    names = [f"[{i},{j}]" for (i, j) in index]
    relations = []
    for (i, j), k in index.items():
        if j + 1 <= m:
            relations.append((k, index[(i, j + 1)]))
        if i - 1 >= 1:
            relations.append((k, index[(i - 1, j)]))
    return Poset(len(names), relations, names)


def root_poset_a_index(m):
    """Interval -> index map matching :func:`root_poset_a`."""
    index = {}
    k = 0
    for r in range(m):
        for i in range(1, m - r + 1):
            index[(i, i + r)] = k
            k += 1
    return index


def parse_poset(text):
    """Parse the poset text format.

    First non-comment line: element count n.  Subsequent lines "i<j"
    declare relations between 0-based indices (redundant relations are
    reduced away, not rejected).  Lines starting with '#' are comments.
    """
    n = None
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ValueError(f"line {lineno}: expected element count, got {line!r}")
            if n < 0:
                raise ValueError(f"line {lineno}: element count must be non-negative")
            continue
        if "<" not in line:
            raise ValueError(f"line {lineno}: expected 'i<j', got {line!r}")
        left, _, right = line.partition("<")
        try:
            u, v = int(left), int(right)
        except ValueError:
            raise ValueError(f"line {lineno}: expected integer indices, got {line!r}")
        relations.append((u, v))
    if n is None:
        raise ValueError("missing element count line")
    return Poset(n, relations)


def random_poset(n, seed):
    """A pseudo-random poset on n elements, deterministic in the seed.

    Relations i < j are proposed on index-increasing pairs with
    probability ``RANDOM_POSET_DENSITY`` and reduced to covers, so the
    identity is always a linear extension.
    """
    _check_size(n)
    rng = random.Random(seed)
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < RANDOM_POSET_DENSITY:
                relations.append((i, j))
    return Poset(n, relations)


def random_graded_poset(seed):
    """A pseudo-random graded poset: ranked levels with covers only
    between adjacent ranks, every non-top element covered and every
    non-bottom element covering something.  At most ``GRADED_MAX_RANK``
    ranks above the bottom, each of at most ``GRADED_MAX_WIDTH`` elements."""
    rng = random.Random(seed)
    r = rng.randint(1, GRADED_MAX_RANK)
    sizes = [rng.randint(1, GRADED_MAX_WIDTH) for _ in range(r + 1)]
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    relations = []
    for i in range(r):
        lo = [offsets[i] + k for k in range(sizes[i])]
        hi = [offsets[i + 1] + k for k in range(sizes[i + 1])]
        edges = set()
        for u in lo:
            edges.add((u, rng.choice(hi)))
        for v in hi:
            edges.add((rng.choice(lo), v))
        for u in lo:
            for v in hi:
                if rng.random() < 0.3:
                    edges.add((u, v))
        relations.extend(sorted(edges))
    return Poset(total, relations)
