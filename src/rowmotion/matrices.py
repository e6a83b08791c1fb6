"""Small immutable matrices over exact rationals.

Just enough linear algebra for the noncommutative evaluation model:
addition, multiplication and inversion, all exact.  A matrix is stored as a
row-major tuple of integer numerators over one positive common denominator,
in canonical form: the numerators and the denominator share no factor, and
the sign sits on the numerators.  Equality and hashing read this form, and
``rows`` is a view of it as reduced ``Fraction``s.

Sums, products and entrywise scalings are integer arithmetic at every d,
reduced once per result by one gcd sweep.  At d = 2 the sum, the product
and the inverse are closed forms on the four numerators.  The sum is over
the denominators' lcm; the inverse is the adjugate of the numerators times
the denominator, over the numerators' integer determinant, with the
determinant's common factor with the numerators and then with the
denominator divided out before the products, and the sign put on the
numerators.  At d >= 3 the inverse is in-place Gauss-Jordan on
the entries as Fractions, brought back to integer form: fraction-free
(Bareiss) elimination on the numerators was measured slower on large-entry
matrix:8 orbits, whose entries one common denominator inflates.

Every matrix is made by ``_trusted`` (``_reduced`` divides out the gcd first),
copies and pickles included.  It fills the slots of an unguarded base class
with plain attribute stores and then switches the object's class to
``RationalMatrix``, whose ``__setattr__`` and ``__delattr__`` refuse every
change.  When a matrix had five slots, five ``object.__setattr__`` calls took
about 1.1 us per matrix and five slot-descriptor ``__set__`` calls
0.5 us; the stores and the switch take 0.2 us.  The d = 2 product reduces its
own result: its denominator is a product of positive ones, so the gcd needs
no sign step.  Fresh per-op times against five ``object.__setattr__`` calls
and no d = 2 reduction in place (CPython 3.11, a 2-vCPU host): d = 2 product
2.7 -> 1.2 us, sum 3.0 -> 2.0 us, d = 2 inverse 3.0 -> 2.0 us.  The d = 2
closed-form sum and inverse then took a sum of a product and a sample
from 2.0 to 1.3 us and a fresh product's inverse from 2.3 to 1.7 us (same
host, median of 5 processes).

``identity`` and ``scalar`` build plain matrices, which take the same paths
as any other.  A successful inverse is stored on both matrices, so a matrix
is inverted at most once and ``x.inverse().inverse() is x`` while x lives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from weakref import ref

from .errors import NotInvertible

_set = object.__setattr__
_ZERO = Fraction(0)


class _Unsealed:
    """A matrix's slots without its guard, for ``_trusted`` to fill by plain stores."""

    __slots__ = ("d", "_num", "_den", "_inv", "__weakref__")


class RationalMatrix(_Unsealed):
    """An immutable d x d matrix of rationals, hashable and exactly comparable."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = [[Fraction(x) for x in row] for row in rows]
        d = len(rows)
        if any(len(row) != d for row in rows):
            raise ValueError("matrix must be square")
        return _trusted(d, *_from_fractions([x for row in rows for x in row]))

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("RationalMatrix is immutable")

    def __reduce__(self):
        """Copies and pickles are rebuilt by ``_trusted``, as every matrix is."""
        return _trusted, (self.d, self._num, self._den)

    @property
    def rows(self):
        """The entries as a tuple of rows of reduced Fractions, built on each read."""
        return tuple(map(tuple, self._fraction_rows()))

    def _fraction_rows(self):
        """A fresh list of lists of the entries as reduced Fractions; nothing is stored."""
        d, den = self.d, self._den
        entries = [Fraction(n, den) for n in self._num]
        return [entries[i:i + d] for i in range(0, d * d, d)]

    @classmethod
    def identity(cls, d):
        return cls.scalar(d, 1)

    @classmethod
    def scalar(cls, d, c):
        c = Fraction(c)
        num = tuple(c.numerator if i == j else 0 for i in range(d) for j in range(d))
        return _trusted(d, num, c.denominator)

    def __add__(self, other):
        d = self.d
        if d != other.d:
            raise ValueError("dimension mismatch")
        p, q = self._den, other._den
        if d == 2:  # one gcd for the lcm and one over the result
            a, b, c, e = self._num
            a2, b2, c2, e2 = other._num
            g = gcd(p, q)
            s, r = q // g, p // g
            t, u, v, w = a * s + a2 * r, b * s + b2 * r, c * s + c2 * r, e * s + e2 * r
            den = p * s
            g = gcd(den, t, u, v, w)  # positive, as den is: no sign step
            if g == 1:
                return _trusted(2, (t, u, v, w), den)
            return _trusted(2, (t // g, u // g, v // g, w // g), den // g)
        g = gcd(p, q)
        s, t = q // g, p // g
        num = tuple([a * s + b * t for a, b in zip(self._num, other._num)])
        return _reduced(d, num, p * s)

    def __matmul__(self, other):
        d = self.d
        if d != other.d:
            raise ValueError("dimension mismatch")
        x, y = self._num, other._num
        den = self._den * other._den
        if d == 2:  # verify-registry pass_s read x1.24 with the general product below
            a, b, c, e = x
            p, q, r, s = y
            t, u, v, w = a * p + b * r, a * q + b * s, c * p + e * r, c * q + e * s
            g = gcd(den, t, u, v, w)  # positive, as den is: no sign step
            if g == 1:
                return _trusted(2, (t, u, v, w), den)
            return _trusted(2, (t // g, u // g, v // g, w // g), den // g)
        cols = [y[j::d] for j in range(d)]
        num = tuple([sum(map(mul, x[i:i + d], col))
                     for i in range(0, d * d, d) for col in cols])
        return _reduced(d, num, den)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix[{body}]"

    def is_scalar(self):
        num, step = self._num, self.d + 1
        c = num[0]
        return all(n == (0 if k % step else c) for k, n in enumerate(num))

    def max_entry_bits(self):
        """Numerator plus denominator bits of the largest entry in lowest terms."""
        den = self._den
        return max((n // (g := gcd(n, den))).bit_length() + (den // g).bit_length()
                   for n in self._num)

    def inverse(self):
        """Exact inverse, computed once per matrix; NotInvertible on a singular matrix.

        The inverse refers back to its matrix weakly, so the pair forms no reference
        cycle and is freed as soon as the last outside reference goes.
        """
        # Without the stored inverse orbit-scan read pass_s x1.19 and op_tail_ms x1.37;
        # without the back-reference, op_tail_ms x1.035 (worse in 7 of 7 pairs).
        inv = self._inv
        if type(inv) is ref:
            inv = inv()
        if inv is None:
            inv = self._inverse()
            _set(self, "_inv", inv)
            _set(inv, "_inv", ref(self))
        return inv

    def _inverse(self):
        """The adjugate over the determinant at d = 2, and in-place Gauss-Jordan on the
        entries as Fractions otherwise.

        No identity half is carried along.  At column k the pivot's reciprocal takes
        the pivot's place and scales the rest of the pivot row; each other row with a
        nonzero entry f in column k gets -f times the reciprocal there and loses f times
        the rest of the pivot row.  The array then holds the inverse of the row-swapped
        matrix, and swapping the same columns back, last swap first, gives the inverse.
        Rows with a zero in column k and zeros of the pivot row cost no product.
        Nothing is stored.
        """
        d = self.d
        if d == 2:  # orbit-scan pass_s read x1.24 with Gauss-Jordan at d = 2
            # (N/D)^-1 = D adj(N) / det(N) for the numerators N over the denominator D.
            # Dividing out det's common factor with N's entries, then with D, leaves
            # det coprime to the products, so they need no gcd.
            a, b, c, e = self._num
            det = a * e - b * c
            if not det:
                raise NotInvertible(context="singular 2x2 matrix")
            g = gcd(det, a, b, c, e)
            if g != 1:
                a, b, c, e, det = a // g, b // g, c // g, e // g, det // g
            den = self._den
            g = gcd(det, den)
            if g != 1:
                den //= g
                det //= g
            if det < 0:
                den, det = -den, -det
            return _trusted(2, (e * den, -b * den, -c * den, a * den), det)
        a = self._fraction_rows()
        swaps = []
        for k in range(d):
            pivot = next((r for r in range(k, d) if a[r][k]), None)
            if pivot is None:
                raise NotInvertible(context=f"singular {d}x{d} matrix")
            if pivot != k:
                a[k], a[pivot] = a[pivot], a[k]
                swaps.append((k, pivot))
            row = a[k]
            inv_p = 1 / row[k]
            row[k] = _ZERO  # skipped by the scaling, then given the reciprocal
            row = a[k] = [x * inv_p if x else x for x in row]
            nonzero = [(j, y) for j, y in enumerate(row) if y]
            row[k] = inv_p
            minus_inv_p = -inv_p
            for other in a:
                f = other[k]
                if other is not row and f:
                    other[k] = f * minus_inv_p
                    for j, y in nonzero:
                        other[j] -= f * y
        for k, pivot in reversed(swaps):
            for row in a:
                row[k], row[pivot] = row[pivot], row[k]
        return _trusted(d, *_from_fractions([x for row in a for x in row]))


def _from_fractions(entries):
    """Canonical numerators and denominator of reduced Fractions, in order.

    Over the lcm of the denominators no prime divides every numerator: an entry
    whose denominator holds the lcm's full power of that prime has a numerator
    coprime to it, and the lcm's cofactor for that entry lacks the prime.
    """
    den = lcm(*(x.denominator for x in entries))
    return tuple(x.numerator * (den // x.denominator) for x in entries), den


def _trusted(d, num, den):
    """A matrix from numerators and a denominator already in canonical form.

    The one place a matrix is made.  Its slots are filled while it is still an
    ``_Unsealed``, by plain stores that the guard would refuse; switching its class
    then seals it.  RationalMatrix adds no slot, so the layout stays as it is.
    """
    m = _Unsealed()
    m.d = d
    m._num = num
    m._den = den
    m._inv = None
    m.__class__ = RationalMatrix
    return m


def _reduced(d, num, den):
    """A matrix from a tuple of integer numerators over a nonzero integer denominator."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple([n // g for n in num])
        den //= g
    return _trusted(d, num, den)
