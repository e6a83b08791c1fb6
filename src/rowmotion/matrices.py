"""Small immutable matrices over exact rationals.

Just enough linear algebra for the noncommutative evaluation model:
addition, multiplication and inversion, all exact.  A matrix is stored as a
row-major tuple of integer numerators over one positive common denominator,
in canonical form: the numerators and the denominator share no factor, and
the sign sits on the numerators.  Equality and hashing read this form, and
``rows`` is a view of it as reduced ``Fraction``s.

Sums, products and entrywise scalings are integer arithmetic at every d,
reduced once per result by one gcd sweep.  At d = 2 the inverse is the
adjugate of the numerators times the denominator, over the numerators'
integer determinant.  At d >= 3 it is in-place Gauss-Jordan on the entries
as Fractions, brought back to integer form: fraction-free (Bareiss)
elimination on the numerators was measured slower on large-entry matrix:8
orbits, whose entries one common denominator inflates.

Work whose result the algebra already gives is skipped.  A matrix made by
``identity``, ``scalar`` or a product of two such matrices carries its
scalar c as a tag, and a product with a tagged factor is the other factor
scaled entrywise by c (the other factor itself when c = 1).  A successful
inverse is stored on both matrices, so a matrix is inverted at most once
and ``x.inverse().inverse() is x`` while x lives.  ``is_scalar`` falls back
on the entries, so an untagged matrix equal to c·I is still scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from weakref import ref

from .errors import NotInvertible

_set = object.__setattr__
_ZERO = Fraction(0)


class RationalMatrix:
    """An immutable d x d matrix of rationals, hashable and exactly comparable."""

    __slots__ = ("d", "_num", "_den", "_scalar", "_inv", "_rows", "__weakref__")

    def __init__(self, rows):
        rows = [[Fraction(x) for x in row] for row in rows]
        d = len(rows)
        if any(len(row) != d for row in rows):
            raise ValueError("matrix must be square")
        self._init(d, *_from_fractions([x for row in rows for x in row]))

    def _init(self, d, num, den, scalar=None):
        _set(self, "d", d)
        _set(self, "_num", num)
        _set(self, "_den", den)
        _set(self, "_scalar", scalar)
        _set(self, "_inv", None)
        _set(self, "_rows", None)

    @classmethod
    def _trusted(cls, d, num, den, scalar=None):
        """A matrix from numerators and a denominator already in canonical form."""
        m = object.__new__(cls)
        m._init(d, num, den, scalar)
        return m

    @classmethod
    def _reduced(cls, d, num, den):
        """A matrix from a tuple of integer numerators over a nonzero integer denominator."""
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(n // g for n in num)
            den //= g
        return cls._trusted(d, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def rows(self):
        """The entries as a tuple of rows of reduced Fractions, built on first use."""
        rows = self._rows
        if rows is None:
            rows = tuple(map(tuple, self._fraction_rows()))
            _set(self, "_rows", rows)
        return rows

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
        return cls._trusted(d, num, c.denominator, scalar=c)

    def _scaled(self, c):
        return RationalMatrix._reduced(self.d, tuple(c.numerator * n for n in self._num),
                                       c.denominator * self._den)

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        p, q = self._den, other._den
        g = gcd(p, q)
        s, t = q // g, p // g
        num = tuple(a * s + b * t for a, b in zip(self._num, other._num))
        return RationalMatrix._reduced(self.d, num, p * s)

    def __matmul__(self, other):
        d = self.d
        if d != other.d:
            raise ValueError("dimension mismatch")
        s, t = self._scalar, other._scalar
        if s is not None:
            if t is not None:
                return RationalMatrix.scalar(d, s * t)
            return other if s == 1 else other._scaled(s)
        if t is not None:
            return self if t == 1 else self._scaled(t)
        x, y = self._num, other._num
        if d == 2:
            a, b, c, e = x
            p, q, r, s = y
            num = (a * p + b * r, a * q + b * s, c * p + e * r, c * q + e * s)
        else:
            cols = [y[j::d] for j in range(d)]
            num = tuple(sum(map(mul, x[i:i + d], col))
                        for i in range(0, d * d, d) for col in cols)
        return RationalMatrix._reduced(d, num, self._den * other._den)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix[{body}]"

    def is_scalar(self):
        if self._scalar is not None:
            return True
        num, step = self._num, self.d + 1
        c = num[0]
        return all(n == (0 if k % step else c) for k, n in enumerate(num))

    def max_entry_bits(self):
        """Numerator plus denominator bits of the largest entry in lowest terms."""
        den = self._den
        den_bits = den.bit_length()
        best = 0
        for n in self._num:
            if n.bit_length() + den_bits > best:  # else reducing cannot beat best
                g = gcd(n, den)
                best = max(best, (n // g).bit_length() + (den // g).bit_length())
        return best

    def inverse(self):
        """Exact inverse, computed once per matrix; NotInvertible on a singular matrix.

        The inverse refers back to its matrix weakly, so the pair forms no reference
        cycle and is freed as soon as the last outside reference goes.
        """
        inv = self._inv
        if type(inv) is ref:
            inv = inv()
        if inv is None:
            inv = self._inverse()
            _set(self, "_inv", inv)
            _set(inv, "_inv", ref(self))
        return inv

    def _inverse(self):
        """1/c for a tagged c·I, the adjugate over the determinant at d = 2, and
        in-place Gauss-Jordan on the entries as Fractions otherwise.

        No identity half is carried along.  At column k the pivot's reciprocal takes
        the pivot's place and scales the rest of the pivot row; each other row with a
        nonzero entry f in column k gets -f times the reciprocal there and loses f times
        the rest of the pivot row.  The array then holds the inverse of the row-swapped
        matrix, and swapping the same columns back, last swap first, gives the inverse.
        Rows with a zero in column k and zeros of the pivot row cost no product.
        Nothing is stored.
        """
        d = self.d
        c = self._scalar
        if c is not None:
            if c == 0:
                raise NotInvertible(context=f"singular {d}x{d} matrix")
            return RationalMatrix.scalar(d, 1 / c)
        if d == 2:
            # (N/D)^-1 = D adj(N) / det(N) for the numerators N over the denominator D
            a, b, c, e = self._num
            det = a * e - b * c
            if not det:
                raise NotInvertible(context="singular 2x2 matrix")
            den = self._den
            return RationalMatrix._reduced(2, (e * den, -b * den, -c * den, a * den), det)
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
        return RationalMatrix._trusted(d, *_from_fractions([x for row in a for x in row]))


def _from_fractions(entries):
    """Canonical numerators and denominator of reduced Fractions, in order.

    Over the lcm of the denominators no prime divides every numerator: an entry
    whose denominator holds the lcm's full power of that prime has a numerator
    coprime to it, and the lcm's cofactor for that entry lacks the prime.
    """
    den = lcm(*(x.denominator for x in entries))
    return tuple(x.numerator * (den // x.denominator) for x in entries), den
