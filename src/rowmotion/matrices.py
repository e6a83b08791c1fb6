"""Small immutable matrices over exact rationals.

Just enough linear algebra for the noncommutative evaluation model:
addition, multiplication, and Gauss-Jordan inversion, all exact, with every
entry a reduced ``Fraction``.  Inversion works in place on the d x d entries,
with no identity half, and undoes its row swaps by swapping columns back; a
product sums each dot product from its first term, not from an int 0.  At
d = 2 both use closed forms on the entries' integer numerators and
denominators instead: each product entry a*p + b*r is one ``Fraction`` built
from a single integer numerator and denominator, and the inverse is the
adjugate over the determinant, four such constructions.

Work whose result the algebra already gives is skipped.  A matrix made by
``identity``, ``scalar`` or a product of two such matrices carries its
scalar c as a tag, and a product with a tagged factor is the other factor
scaled entrywise by c (the other factor itself when c = 1).  A successful
inverse is stored on both matrices, so a matrix is inverted at most once
and ``x.inverse().inverse() is x``.  Equality and hashing read the entries
only, and ``is_scalar`` falls back on them, so an untagged matrix equal to
c·I is still scalar.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul

from .errors import NotInvertible

_set = object.__setattr__
_ZERO = Fraction(0)


def _dot2(a, p, b, r):
    """a*p + b*r for Fractions, as one reduction of integer numerators and denominators."""
    x, xd = a.numerator * p.numerator, a.denominator * p.denominator
    y, yd = b.numerator * r.numerator, b.denominator * r.denominator
    return Fraction(x * yd + y * xd, xd * yd)


class RationalMatrix:
    """An immutable d x d matrix of Fractions, hashable and exactly comparable."""

    __slots__ = ("rows", "d", "_scalar", "_inv")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        d = len(rows)
        if any(len(row) != d for row in rows):
            raise ValueError("matrix must be square")
        _set(self, "rows", rows)
        _set(self, "d", d)
        _set(self, "_scalar", None)
        _set(self, "_inv", None)

    @classmethod
    def _trusted(cls, rows, scalar=None):
        """A matrix from a square tuple of tuples of Fractions, unchecked and unconverted."""
        m = object.__new__(cls)
        _set(m, "rows", rows)
        _set(m, "d", len(rows))
        _set(m, "_scalar", scalar)
        _set(m, "_inv", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, d):
        return cls.scalar(d, 1)

    @classmethod
    def scalar(cls, d, c):
        c = Fraction(c)
        zero = Fraction(0)
        return cls._trusted(tuple(tuple(c if i == j else zero for j in range(d))
                                  for i in range(d)), scalar=c)

    def _scaled(self, c):
        return RationalMatrix._trusted(tuple(tuple(c * x for x in row) for row in self.rows))

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return RationalMatrix._trusted(tuple(tuple(a + b for a, b in zip(r1, r2))
                                             for r1, r2 in zip(self.rows, other.rows)))

    def __matmul__(self, other):
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        s, t = self._scalar, other._scalar
        if s is not None:
            if t is not None:
                return RationalMatrix.scalar(self.d, s * t)
            return other if s == 1 else other._scaled(s)
        if t is not None:
            return self if t == 1 else self._scaled(t)
        if self.d == 2:
            (a, b), (c, e) = self.rows
            (p, q), (r, s) = other.rows
            return RationalMatrix._trusted(((_dot2(a, p, b, r), _dot2(a, q, b, s)),
                                            (_dot2(c, p, e, r), _dot2(c, q, e, s))))
        cols = tuple(zip(*other.rows))
        return RationalMatrix._trusted(tuple(tuple(reduce(add, map(mul, row, col))
                                                   for col in cols) for row in self.rows))

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix[{body}]"

    def is_scalar(self):
        if self._scalar is not None:
            return True
        d = self.d
        c = self.rows[0][0]
        return all(self.rows[i][j] == (c if i == j else 0)
                   for i in range(d) for j in range(d))

    def inverse(self):
        """Exact inverse, computed once per matrix; NotInvertible on a singular matrix."""
        inv = self._inv
        if inv is None:
            inv = self._inverse()
            _set(self, "_inv", inv)
            _set(inv, "_inv", self)
        return inv

    def _inverse(self):
        """In-place Gauss-Jordan on a copy of the d x d entries, the adjugate over the
        determinant at d = 2, or 1/c for a tagged c·I.

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
            (a, b), (c, e) = self.rows
            an, ad = a.numerator, a.denominator
            bn, bd = b.numerator, b.denominator
            cn, cd = c.numerator, c.denominator
            en, ed = e.numerator, e.denominator
            # det = (an*en*bd*cd - bn*cn*ad*ed) / (ad*ed*bd*cd); each entry of the
            # adjugate [[e, -b], [-c, a]] times that denominator over det_n
            det_n = an * en * bd * cd - bn * cn * ad * ed
            if not det_n:
                raise NotInvertible(context="singular 2x2 matrix")
            aded, bdcd = ad * ed, bd * cd
            return RationalMatrix._trusted(
                ((Fraction(en * ad * bdcd, det_n), Fraction(-bn * aded * cd, det_n)),
                 (Fraction(-cn * aded * bd, det_n), Fraction(an * ed * bdcd, det_n))))
        a = [list(row) for row in self.rows]
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
        return RationalMatrix._trusted(tuple(map(tuple, a)))
