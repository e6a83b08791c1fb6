"""The generic toggle calculus over an algebra backend.

Every formula is written in its noncommutative order; the commutative
birational realm is obtained purely by backend choice (exact rationals),
the skew-field evaluation model by square rational matrices, and the
piecewise-linear realm by the tropical backend.  The combinatorial realm
alone has its own code on bit masks, ``subsets.py``: run here on 0/1
labelings it is four to nine times slower per antichain-rowmotion step.
The seeded test ``test_comb_maps_are_pl_maps_at_vertices_of_random_posets``
checks that the two agree.

Composition convention: toggle words are stored and applied in
*application order* (first atom acts first).  The classical notation
``T_{x_1} T_{x_2} ... T_{x_n}`` composes right-to-left, so order
rowmotion applies toggles along a linear extension from the top of the
poset downwards, while antichain rowmotion applies them from the bottom
upwards.

Boundary values are injected inside operations and never stored: the
virtual bottom element carries the multiplicative identity, the virtual
top carries it for the plain transfer maps and the central constant C
for toggles and the complement map.  The identity is never multiplied:
an element with no lower (or upper) covers keeps its own label, or its
own inverted label, where a product with the boundary value would stand.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .backends import _label_bits_bound, label_bits, random_labeling
from .errors import LabelsTooLarge, NotCentral, NotGraded, NotInvertible

MAX_LABEL_BITS = 2**14  # orbits stop once a label needs more bits than this


class Atom(NamedTuple):
    kind: str  # one of T, E, tau, eps, rank_T, rank_tau
    index: int

    def __str__(self):
        return f"{self.kind}[{self.index}]"


_INVERSE_KIND = {"T": "E", "E": "T", "tau": "eps", "eps": "tau"}
_STAR_KIND = {"T": "tau", "E": "eps", "tau": "T", "eps": "E"}


def inverse_word(word):
    """The word undoing a word of T, E, tau and eps atoms: reversed, each
    toggle swapped with its elggot (a rank atom, having none, is a KeyError)."""
    return tuple(Atom(_INVERSE_KIND[kind], i) for kind, i in reversed(word))


class Dynamics:
    """Toggle and transfer dynamics for one poset over one backend.  It keeps no
    state and writes nothing to its poset."""

    def __init__(self, poset, backend):
        self.poset = poset
        self.backend = backend
        self.extension = poset.default_linear_extension

    # -- labelings ---------------------------------------------------------
    #
    # A labeling is a tuple with one backend value per poset element.

    def labeling(self, values):
        values = tuple(values)
        if len(values) != self.poset.n:
            raise ValueError(f"expected {self.poset.n} values")
        return values

    def random_labeling(self, seed):
        return random_labeling(self.backend, self.poset, seed)

    # -- transfer maps -------------------------------------------------------

    def theta(self, f):
        """Complement: pointwise C times the inverse."""
        b = self.backend
        mul, invert, c = b.mul, b.invert, b.constant_c()
        out = []
        for v, x in enumerate(f):
            try:
                out.append(mul(c, invert(x)))
            except NotInvertible as exc:
                raise NotInvertible(context=f"complement at {self._name(v)}") from exc
        return tuple(out)

    def down_transfer(self, f):
        """f(x) times the inverted sum of lower-cover values."""
        return self._transfer(f, down=True)

    def up_transfer(self, f):
        """Inverted sum of upper-cover values times f(x)."""
        return self._transfer(f, down=False)

    def _transfer(self, f, down):
        b = self.backend
        add, mul, invert = b.add, b.mul, b.invert
        covers = self.poset.down_adjacency if down else self.poset.up_adjacency
        out = []
        for x in range(self.poset.n):
            acc = None
            for y in covers[x]:
                acc = f[y] if acc is None else add(acc, f[y])
            if acc is None:  # the boundary identity is its own inverse: x keeps f[x]
                out.append(f[x])
                continue
            try:
                inv = invert(acc)
            except NotInvertible as exc:
                side = "down" if down else "up"
                raise NotInvertible(context=f"{side} transfer at {self._name(x)}") from exc
            out.append(mul(f[x], inv) if down else mul(inv, f[x]))
        return tuple(out)

    def inv_down_transfer(self, f):
        """Sum over saturated chains from the bottom, highest label first."""
        return tuple(self._inv_transfer(f, self.extension, down=True))

    def inv_up_transfer(self, f):
        """Sum over saturated chains towards the top, highest label first."""
        return tuple(self._inv_transfer(f, reversed(self.extension), down=False))

    def _inv_transfer(self, f, elements, down):
        """The inverse transfer recurrence on ``elements``, None elsewhere.

        ``elements`` must contain, before each element, all of its lower
        covers (``down``) or all of its upper covers (otherwise).
        """
        add, mul = self.backend.add, self.backend.mul
        covers = self.poset.down_adjacency if down else self.poset.up_adjacency
        out = [None] * self.poset.n
        for x in elements:
            acc = None
            for y in covers[x]:
                acc = out[y] if acc is None else add(acc, out[y])
            if acc is None:
                out[x] = f[x]
            else:
                out[x] = mul(f[x], acc) if down else mul(acc, f[x])
        return out

    # -- order toggles ---------------------------------------------------------

    def order_toggle(self, v, f):
        """Lower-cover sum, inverted value, parallel sum of upper covers."""
        self._require_element("T", v)
        return self._order_sweep(f, (v,), elggot=False)

    def order_elggot(self, v, f):
        """Inverse of the order toggle (same data, mirrored product)."""
        self._require_element("E", v)
        return self._order_sweep(f, (v,), elggot=True)

    def _order_sweep(self, f, toggled, elggot):
        """Toggle the elements of ``toggled`` in turn on one list of labels, top-down:
        no element comes after one of its lower covers.

        The toggle at v is L·f(v)⁻¹·R, the elggot R·f(v)⁻¹·L, with L the
        lower-cover sum and R the parallel sum of the upper covers (C at a
        maximal element); at a minimal element L is the identity and is left out.
        Each label is inverted at most once per sweep: an upper cover's inverse is
        kept, so the parallel sums of its lower covers share it.  Top-down, each
        element is toggled before a lower cover reads it, so no kept inverse is
        read after its label is rewritten.
        """
        b = self.backend
        add, mul, invert = b.add, b.mul, b.invert
        lower_covers, upper_covers = self.poset.down_adjacency, self.poset.up_adjacency
        out = list(f)
        inverse = [None] * len(out)  # the inverse of each label in out, once computed
        for v in toggled:
            lower = None
            for u in lower_covers[v]:
                lower = out[u] if lower is None else add(lower, out[u])
            try:
                right = None
                for w in upper_covers[v]:
                    x = inverse[w]
                    if x is None:
                        x = inverse[w] = invert(out[w])
                    right = x if right is None else add(right, x)
                right = b.constant_c() if right is None else invert(right)
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

    # -- antichain toggles --------------------------------------------------------

    def antichain_toggle(self, v, g):
        """C·(L·U[v])⁻¹: C over the sum, over the maximal chains through v, of
        the labels below v multiplied top-down, then the labels from the top of
        the chain down to v.  U is the inverse up transfer at or above v, and
        L = Σ_{u⋖v} D[u], with D the inverse down transfer strictly below v; at
        a minimal element U[v] stands alone."""
        self._require_element("tau", v)
        p, ext, c = self.poset, self.extension, self.backend.constant_c()
        at_or_above, below = p._above[v] | 1 << v, p._below[v]
        up = self._inv_transfer(g, [x for x in reversed(ext) if at_or_above >> x & 1], down=False)
        down = self._inv_transfer(g, [x for x in ext if below >> x & 1], down=True)
        out = list(g)
        out[v] = self._antichain_label(v, c, self._cover_sum(down, p.down_adjacency[v]), up[v],
                                       "toggle")
        return tuple(out)

    def antichain_elggot(self, v, g):
        """Inverse of the antichain toggle, its dual with every product reversed:
        C·(U′[v]·L′)⁻¹, with U′ the inverse down transfer at or below v and
        L′ = Σ_{w⋗v} D′[w], D′ the inverse up transfer strictly above v."""
        self._require_element("eps", v)
        p, ext, c = self.poset, self.extension, self.backend.constant_c()
        at_or_below, above = p._below[v] | 1 << v, p._above[v]
        up = self._inv_transfer(g, [x for x in ext if at_or_below >> x & 1], down=True)
        down = self._inv_transfer(g, [x for x in reversed(ext) if above >> x & 1], down=False)
        out = list(g)
        out[v] = self._antichain_label(v, c, up[v], self._cover_sum(down, p.up_adjacency[v]),
                                       "elggot")
        return tuple(out)

    def _cover_sum(self, values, covers):
        """Σ values[y] over ``covers``, or None (the boundary identity) when empty."""
        acc = None
        for y in covers:
            acc = values[y] if acc is None else self.backend.add(acc, values[y])
        return acc

    def _antichain_label(self, v, c, left, right, kind):
        """C·(left·right)⁻¹, a None factor being the identity and left out."""
        b = self.backend
        try:
            return b.mul(c, b.invert(right if left is None else
                                     left if right is None else b.mul(left, right)))
        except NotInvertible as exc:
            raise NotInvertible(context=f"antichain {kind} at {self._name(v)}") from exc

    # -- rowmotion ----------------------------------------------------------------

    def order_rowmotion(self, f, extension=None):
        """Order toggles along a linear extension, applied top-down."""
        ext = self.extension if extension is None else self._linear_extension(extension)
        return self._order_sweep(f, ext[::-1], elggot=False)

    def antichain_rowmotion(self, g, extension=None):
        """Antichain toggles along a linear extension, applied bottom-up, as one
        sweep of O(n + covers) backend operations, where toggling element by
        element reruns both inverse transfer recurrences for each one.  The
        elements above v are untoggled when v's turn comes, so U is the inverse
        up transfer of the starting labels, taken once; D, the inverse down
        transfer of the new labels, grows along the sweep where a later toggle
        reads it.  The single toggles in turn take the same inversions."""
        ext = self.extension if extension is None else self._linear_extension(extension)
        mul, c = self.backend.mul, self.backend.constant_c()
        lower_covers, upper_covers = self.poset.down_adjacency, self.poset.up_adjacency
        up = self._inv_transfer(g, reversed(ext), down=False)
        down, out = [None] * self.poset.n, list(g)
        for v in ext:
            lower = self._cover_sum(down, lower_covers[v])
            out[v] = self._antichain_label(v, c, lower, up[v], "toggle")
            if upper_covers[v]:
                down[v] = out[v] if lower is None else mul(out[v], lower)
        return tuple(out)

    def _linear_extension(self, extension):
        """``extension`` as a tuple; ValueError unless it lists each element once,
        after its lower covers.  O(n + covers)."""
        ext = tuple(extension)
        place = {x: k for k, x in enumerate(ext)}
        if len(ext) != self.poset.n or place.keys() != self.poset.elements or \
                any(place[u] > place[v] for u, v in self.poset.covers):
            raise ValueError("extension is not a linear extension of the poset")
        return ext

    def order_rowmotion_via_transfers(self, f):
        return self.theta(self.inv_up_transfer(self.down_transfer(f)))

    def antichain_rowmotion_via_transfers(self, g):
        return self.down_transfer(self.theta(self.inv_up_transfer(g)))

    # -- toggle words -----------------------------------------------------------

    def apply_word(self, word, f):
        """Apply the atoms of ``word`` in turn, each by its single-toggle method,
        a rank atom as its rank's toggles in index order; a bad atom raises once
        the atoms before it are applied.  A recorded check computes the work that
        neighbouring toggles share once per point, by value numbering."""
        single = {"T": self.order_toggle, "E": self.order_elggot,
                  "tau": self.antichain_toggle, "eps": self.antichain_elggot}
        for atom in word:
            kind, elements = self._atom_toggles(atom)
            for v in elements:
                f = single[kind](v, f)
        return f

    def _atom_toggles(self, atom):
        """The single-toggle kind of an atom and the elements it toggles, in turn:
        ValueError for an unknown kind, a missing element or a missing rank, and
        NotGraded for a rank atom on an ungraded poset."""
        kind, i = atom
        if kind in ("T", "E", "tau", "eps"):
            self._require_element(kind, i)
            return kind, (i,)
        if kind in ("rank_T", "rank_tau"):
            self._require_graded()
            if not 0 <= i <= self.poset.top_rank:
                raise ValueError(f"atom {atom} references a missing rank")
            return kind[len("rank_"):], self.poset.rank_elements(i)
        raise ValueError(f"unknown toggle-word atom {atom}")

    def eta_word(self, elements):
        """Order toggles clearing the strict lower set of ``elements``, top-down."""
        below = set().union(*(self.poset.strict_down_set(v) for v in elements))
        return tuple(Atom("T", x) for x in reversed(self.extension) if x in below)

    def star_word(self, word):
        """Image of ``word`` under the toggle-group isomorphism: T_v becomes
        tau_v conjugated by the antichain toggles at v's lower covers, tau_v
        becomes T_v conjugated by eta_v, and so on for elggots; a rank atom
        maps as its rank's single toggles in index order.  Atoms are read as
        ``apply_word`` reads them, so a bad atom raises the same error.
        Over a noncommutative backend the image of order gyration is not
        antichain gyration; it is the word that makes the gyration diagram
        commute."""
        out = []
        for atom in word:
            kind, elements = self._atom_toggles(atom)
            for v in elements:
                if kind in ("T", "E"):
                    cov = self.poset.down_adjacency[v]
                    out += [Atom("tau", u) for u in cov]
                    out.append(Atom(_STAR_KIND[kind], v))
                    out += [Atom("eps", u) for u in reversed(cov)]
                else:
                    eta = self.eta_word((v,))
                    out += inverse_word(eta) + (Atom(_STAR_KIND[kind], v),) + eta
        return tuple(out)

    # -- graded machinery -----------------------------------------------------

    def _require_element(self, kind, v):
        if not 0 <= v < self.poset.n:
            raise ValueError(f"atom {Atom(kind, v)} references a missing element")

    def _require_graded(self):
        if not self.poset.is_graded:
            raise NotGraded("this operation needs a graded poset")

    def order_gyration_word(self):
        """Even-rank order toggles first, then odd ranks."""
        self._require_graded()
        r = self.poset.top_rank
        ranks = list(range(0, r + 1, 2)) + list(range(1, r + 1, 2))
        return tuple(Atom("rank_T", i) for i in ranks)

    def antichain_gyration_word(self):
        """Odd-rank antichain toggles bottom-up, then even ranks top-down."""
        self._require_graded()
        r = self.poset.top_rank
        ranks = [i for i in range(r + 1) if i % 2 == 1] + \
                [i for i in range(r, -1, -1) if i % 2 == 0]
        return tuple(Atom("rank_tau", i) for i in ranks)

    def graded_rescale(self, scalars, g):
        """Multiply every rank-i value by the central scalar a_i."""
        self._require_graded()
        b = self.backend
        scalars = tuple(scalars)
        r = self.poset.top_rank
        if len(scalars) != r + 1:
            raise ValueError(f"need {r + 1} scalars, got {len(scalars)}")
        for i, a in enumerate(scalars):
            if not b.is_central(a):
                raise NotCentral(f"rescaling scalar for rank {i} is not central")
        out = [b.mul(scalars[self.poset.rank[v]], g[v]) for v in range(self.poset.n)]
        return tuple(out)

    def _name(self, v):
        return self.poset.element_names[v]


def detect_order(step: Callable, start, equal, max_iter=64):
    """Least k <= max_iter with step^k(start) == start, else None.

    Minimality is inherent: the first return is reported, and no smaller
    exponent matched along the way.  Raises LabelsTooLarge as soon as a
    label outgrows ``MAX_LABEL_BITS``: labels of a non-periodic orbit grow
    without bound, so the next steps would only get slower.  Each step first
    bounds the labels by the bits of the integers they store, and measures
    them exactly by ``label_bits``, one gcd per matrix entry, only when that
    bound passes the limit; so it stops at the same step as the exact rule.
    """
    current = start
    for k in range(1, max_iter + 1):
        current = step(current)
        if max(map(_label_bits_bound, current), default=0) > MAX_LABEL_BITS and \
                max(map(label_bits, current)) > MAX_LABEL_BITS:
            raise LabelsTooLarge(f"a label outgrew MAX_LABEL_BITS = {MAX_LABEL_BITS} bits "
                                 f"at step {k}", iterates=k)
        if equal(current, start):
            return k
    return None

