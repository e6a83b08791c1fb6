"""Value algebras behind the generic toggle calculus.

One abstract interface with three instances: exact rationals (the
commutative birational realm), square rational matrices (the evaluation
model for the skew-field realm), and the max-plus tropical semiring
(the bridge to the piecewise-linear realm).

Backends are stateless descriptors: sampling takes an explicit seed, so
concurrent use is deterministic and race-free by construction.
"""

from __future__ import annotations

import hashlib
import random
from abc import ABC, abstractmethod
from fractions import Fraction

from .errors import NotInvertible
from .matrices import RationalMatrix

DEFAULT_SAMPLE_RANGE = (1, 50)  # positive, so every sampled rational is nonzero
TROPICAL_DENOMINATOR_BOUND = 50
MAX_MATRIX_DIMENSION = 8  # parse_backend's limit: a large-entry matrix:8 orbit takes ~4 s


def derive_seed(*parts):
    """Stable integer seed from arbitrary labelled parts."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _sample_fraction(rng):
    lo, hi = DEFAULT_SAMPLE_RANGE
    num = rng.randint(lo, hi)
    den = rng.randint(lo, hi)
    return Fraction(num, den)


def unit_interval_fraction(rng, denominator_bound):
    """A rational in [0, 1]: a denominator up to the bound, then a numerator up to it."""
    den = rng.randint(1, denominator_bound)
    num = rng.randint(0, den)
    return Fraction(num, den)


class AlgebraBackend(ABC):
    """Addition, multiplication, inversion, and seeded generic sampling."""

    is_commutative = True
    is_tropical = False
    name = "abstract"

    @abstractmethod
    def add(self, x, y): ...

    @abstractmethod
    def mul(self, x, y): ...

    @abstractmethod
    def one(self): ...

    @abstractmethod
    def invert(self, x): ...

    @abstractmethod
    def constant_c(self): ...

    @abstractmethod
    def sample_generic(self, seed): ...

    def equals(self, x, y):
        return x == y

    def is_central(self, x):
        return True

    def central_from_rational(self, q):
        """Embed a nonzero rational as a central element."""
        return Fraction(q)

    def sum(self, values):
        it = iter(values)
        try:
            total = next(it)
        except StopIteration:
            raise ValueError("empty sum has no backend value")
        for v in it:
            total = self.add(total, v)
        return total

    def product(self, values):
        """Left-to-right product; order matters for noncommutative backends."""
        out = self.one()
        for v in values:
            out = self.mul(out, v)
        return out

    def describe(self):
        return self.name

    def __repr__(self):
        return f"<backend {self.describe()}>"


class RationalField(AlgebraBackend):
    """Arbitrary-precision rationals; a commutative field."""

    name = "rational"

    def __init__(self, const_c=Fraction(2)):
        self._c = Fraction(const_c)
        if self._c == 0:
            raise ValueError("the constant C must be nonzero")

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def one(self):
        return Fraction(1)

    def invert(self, x):
        if x == 0:
            raise NotInvertible(context="rational zero")
        return 1 / x

    def constant_c(self):
        return self._c

    def sample_generic(self, seed):
        return _sample_fraction(random.Random(seed))


class MatrixRing(AlgebraBackend):
    """Square exact-rational matrices; noncommutative for d >= 2.

    Inversion is partial (singular matrices model the degenerate labels
    where the skew-field maps are undefined).  The constant C is a scalar
    matrix, hence central by construction.  ``one()`` and C are built once
    and tagged as scalars, so a product with either is at most an entrywise
    scaling (see ``matrices``).
    """

    def __init__(self, d, const_c=Fraction(2)):
        if d < 1:
            raise ValueError("matrix dimension must be positive")
        self.d = d
        c = Fraction(const_c)
        if c == 0:
            raise ValueError("the constant C must be nonzero")
        self._c = RationalMatrix.scalar(d, c)
        self._one = RationalMatrix.identity(d)
        self.name = f"matrix:{d}"

    @property
    def is_commutative(self):
        return self.d == 1

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x @ y

    def one(self):
        return self._one

    def invert(self, x):
        return x.inverse()

    def constant_c(self):
        return self._c

    def is_central(self, x):
        return x.is_scalar()

    def central_from_rational(self, q):
        return RationalMatrix.scalar(self.d, Fraction(q))

    def sample_generic(self, seed):
        rng = random.Random(seed)
        return RationalMatrix(tuple(tuple(_sample_fraction(rng) for _ in range(self.d))
                                    for _ in range(self.d)))


class TropicalSemiring(AlgebraBackend):
    """Max-plus algebra on exact rationals: add = max, mul = +, one = 0.

    Inversion (negation) is total, so the piecewise-linear identities
    that involve no subtraction evaluate exactly here.
    """

    name = "tropical"
    is_tropical = True

    def __init__(self, const_c=Fraction(1)):
        self._c = Fraction(const_c)

    def add(self, x, y):
        return max(x, y)

    def mul(self, x, y):
        return x + y

    def one(self):
        return Fraction(0)

    def invert(self, x):
        return -x

    def constant_c(self):
        return self._c

    def sample_generic(self, seed):
        return unit_interval_fraction(random.Random(seed), TROPICAL_DENOMINATOR_BOUND)


def label_bits(x):
    """Numerator plus denominator bits of a Fraction, or of a matrix's largest entry."""
    if isinstance(x, RationalMatrix):
        return x.max_entry_bits()
    return x.numerator.bit_length() + x.denominator.bit_length()


def parallel_sum(backend, values):
    """Inverse of the sum of inverses: the harmonic combination."""
    values = list(values)
    if not values:
        raise ValueError("parallel sum of an empty sequence")
    inverses = []
    for i, v in enumerate(values):
        try:
            inverses.append(backend.invert(v))
        except NotInvertible:
            raise NotInvertible(context=f"parallel-sum operand {i}")
    try:
        return backend.invert(backend.sum(inverses))
    except NotInvertible:
        raise NotInvertible(context="parallel-sum of inverses")


def random_labeling(backend, p, seed):
    """One independent generic sample per element, deterministic in the seed."""
    return tuple(backend.sample_generic(derive_seed("label", seed, v))
                 for v in range(p.n))


def parse_backend(spec, const_c=None):
    """Parse a backend descriptor: rational | matrix:d (d <= MAX_MATRIX_DIMENSION) | tropical."""
    spec = spec.strip().lower()
    kwargs = {}
    if const_c is not None:
        kwargs["const_c"] = Fraction(const_c)
    if spec == "rational":
        return RationalField(**kwargs)
    if spec == "tropical":
        return TropicalSemiring(**kwargs)
    if spec.startswith("matrix:"):
        d = spec.split(":", 1)[1]
        if not (d.isdecimal() and 1 <= int(d) <= MAX_MATRIX_DIMENSION):
            raise ValueError(f"backend {spec!r} needs an integer d from 1 "
                             f"to {MAX_MATRIX_DIMENSION}")
        return MatrixRing(int(d), **kwargs)
    raise ValueError(f"unknown backend {spec!r}; choose rational, matrix:d, or tropical")
