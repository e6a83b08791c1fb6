"""Small immutable matrices over exact rationals.

Just enough linear algebra for the noncommutative evaluation model:
addition, multiplication, and Gauss-Jordan inversion, all exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInvertible


class RationalMatrix:
    """An immutable d x d matrix of Fractions, hashable and exactly comparable."""

    __slots__ = ("rows", "d")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        d = len(rows)
        if any(len(row) != d for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, d):
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)))

    @classmethod
    def scalar(cls, d, c):
        c = Fraction(c)
        return cls(tuple(tuple(c if i == j else Fraction(0) for j in range(d)) for i in range(d)))

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return RationalMatrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                                    for r1, r2 in zip(self.rows, other.rows)))

    def __matmul__(self, other):
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        d = self.d
        cols = tuple(zip(*other.rows))
        return RationalMatrix(tuple(tuple(sum(a * b for a, b in zip(row, col))
                                          for col in cols) for row in self.rows))

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix[{body}]"

    def is_scalar(self):
        d = self.d
        c = self.rows[0][0]
        return all(self.rows[i][j] == (c if i == j else 0)
                   for i in range(d) for j in range(d))

    def inverse(self):
        """Exact Gauss-Jordan inverse; NotInvertible on a singular matrix."""
        d = self.d
        aug = [list(row) + [Fraction(int(i == j)) for j in range(d)]
               for i, row in enumerate(self.rows)]
        for col in range(d):
            pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
            if pivot is None:
                raise NotInvertible(context=f"singular {d}x{d} matrix")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv_p = 1 / aug[col][col]
            aug[col] = [x * inv_p for x in aug[col]]
            for r in range(d):
                if r != col and aug[r][col] != 0:
                    factor = aug[r][col]
                    aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
        return RationalMatrix(tuple(tuple(row[d:]) for row in aug))
