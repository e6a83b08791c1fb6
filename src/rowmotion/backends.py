"""Value algebras behind the generic toggle calculus.

One abstract interface with three instances: exact rationals (the
commutative birational realm), square rational matrices (the evaluation
model for the skew-field realm), and the max-plus tropical semiring
(the bridge to the piecewise-linear realm).

Backends are stateless descriptors: sampling takes an explicit seed, so
concurrent use is deterministic and race-free by construction.

The rational and tropical operations are integer arithmetic on the
numerator and denominator, with the gcd steps of ``Fraction``'s own
operators, and every result is built by ``_fraction`` without a second
normalization.  Values stay plain ``Fraction``s in lowest terms with a
positive denominator, so equality, hashing and every report byte are
those of the stdlib operators.  Per call (CPython 3.11.7, 2-vCPU Linux
host, operands from ``sample_generic``, median of 5 processes), stdlib
operators → these kernels: rational mul 1.48 → 0.69 µs, add 1.50 →
0.70 µs, invert 0.93 → 0.36 µs; tropical mul 1.55 → 0.66 µs, add
0.78 → 0.30 µs, invert 0.82 → 0.36 µs.  The kernels read ``Fraction``'s
two slots, ``_numerator`` and ``_denominator``, which ``_fraction`` fills,
and fall back to the ``numerator`` and ``denominator`` properties on an
``int`` or ``bool`` operand.  Against the properties, with fresh sampled
operands (same host, median of 5 processes): rational mul 0.67 → 0.49 µs,
add 0.65 → 0.48 µs, invert 0.34 → 0.24 µs.

Tropical orbits and the piecewise-linear maps skip even those kernels.
Max, + and negation create no denominator, so with L the least common
denominator of a labeling and C, x ↦ L·x is an exact isomorphism of the
max-plus semiring on those values onto a max-plus semiring on integers,
``_IntegralMaxPlus``: add is ``max``, mul is int ``+``, invert is negation,
one() is 0 and C is C·L.  Equality holds on the image exactly when it holds
on the Fractions.  ``_to_max_plus_image`` and ``_from_max_plus_image`` are
the one pair of conversions; the way back reduces each X/L by one gcd.  The
image is private: every value a caller passes in or gets back is a
``Fraction``.
"""

from __future__ import annotations

import hashlib
import operator
import random
from abc import ABC, abstractmethod
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

from .errors import NotInvertible
from .matrices import RationalMatrix, _from_fractions, _trusted

DEFAULT_SAMPLE_RANGE = (1, 50)  # positive, so every sampled rational is nonzero
TROPICAL_DENOMINATOR_BOUND = 50
MAX_MATRIX_DIMENSION = 8  # parse_backend's limit: a large-entry matrix:8 orbit takes ~4 s


def derive_seed(*parts):
    """Stable integer seed from arbitrary labelled parts."""
    text = ":".join(map(str, parts))
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


_new_object = object.__new__  # one global read per result, not a builtin and an attribute


def _fraction(n, d):
    """The Fraction n/d for coprime n and d > 0, filled without re-normalizing.

    Every rational and tropical result is built here: a plain ``Fraction``
    whose two slots hold a value already in lowest terms, so ``==``,
    ``hash``, ``copy`` and ``pickle`` treat it as the constructor's own.
    """
    q = _new_object(Fraction)
    q._numerator = n
    q._denominator = d
    return q


_ONE = _fraction(1, 1)  # the rational one(), built once
_ZERO = _fraction(0, 1)  # the tropical one()


def _rational_add(x, y):
    """x + y, with Henrici's gcd steps (those of ``Fraction.__add__``)."""
    try:
        na, da, nb, db = x._numerator, x._denominator, y._numerator, y._denominator
    except AttributeError:  # an int or bool operand
        na, da, nb, db = x.numerator, x.denominator, y.numerator, y.denominator
    g = gcd(da, db)
    if g == 1:
        return _fraction(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _fraction(t, s * db)
    return _fraction(t // g2, s * (db // g2))


def _sample_fraction(rng):
    """num/den, each drawn by randint's own rejection loop, inlined (CPython 3.10
    to 3.13; a test pins the values against ``rng.randint(*DEFAULT_SAMPLE_RANGE)``)."""
    lo, hi = DEFAULT_SAMPLE_RANGE
    span = hi - lo + 1
    bits, getrandbits = span.bit_length(), rng.getrandbits
    num = den = span
    while num >= span:
        num = getrandbits(bits)
    while den >= span:
        den = getrandbits(bits)
    g = gcd(num + lo, den + lo)
    return _fraction((num + lo) // g, (den + lo) // g)


def unit_interval_fraction(rng, denominator_bound):
    """A rational in [0, 1]: a denominator up to the bound, then a numerator up to it."""
    den = rng.randint(1, denominator_bound)
    num = rng.randint(0, den)
    g = gcd(num, den)
    return _fraction(num // g, den // g)


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
        """A hook for tracing backends only: library code compares canonical values with ``==``."""
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
        """Left-to-right product from the first factor, ``one()`` if empty; order matters."""
        it = iter(values)
        out = next(it, None)
        if out is None:
            return self.one()
        for v in it:
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
        return _rational_add(x, y)

    def mul(self, x, y):
        """x * y, cross-cancelled (the gcd steps of ``Fraction.__mul__``)."""
        try:
            na, da, nb, db = x._numerator, x._denominator, y._numerator, y._denominator
        except AttributeError:  # an int or bool operand
            na, da, nb, db = x.numerator, x.denominator, y.numerator, y.denominator
        g1 = gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        return _fraction(na * nb, da * db)

    def one(self):
        return _ONE

    def invert(self, x):
        try:
            n, d = x._numerator, x._denominator
        except AttributeError:  # an int or bool operand
            n, d = x.numerator, x.denominator
        if not n:
            raise NotInvertible(context="rational zero")
        return _fraction(d, n) if n > 0 else _fraction(-d, -n)

    def constant_c(self):
        return self._c

    def sample_generic(self, seed):
        return _sample_fraction(random.Random(seed))


class MatrixRing(AlgebraBackend):
    """Square exact-rational matrices; noncommutative for d >= 2.

    Inversion is partial (singular matrices model the degenerate labels
    where the skew-field maps are undefined).  The constant C is a scalar
    matrix, hence central by construction.  ``one()`` and C are built once.
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
        entries = [_sample_fraction(rng) for _ in range(self.d * self.d)]
        return _trusted(self.d, *_from_fractions(entries))


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
        """max(x, y): y only when it is strictly larger, as ``max`` picks."""
        try:
            larger = y._numerator * x._denominator > x._numerator * y._denominator
        except AttributeError:  # an int or bool operand
            larger = y.numerator * x.denominator > x.numerator * y.denominator
        return y if larger else x

    def mul(self, x, y):
        return _rational_add(x, y)

    def one(self):
        return _ZERO

    def invert(self, x):
        try:
            return _fraction(-x._numerator, x._denominator)
        except AttributeError:  # an int or bool operand
            return _fraction(-x.numerator, x.denominator)

    def constant_c(self):
        return self._c

    def sample_generic(self, seed):
        return unit_interval_fraction(random.Random(seed), TROPICAL_DENOMINATOR_BOUND)


class _IntegralMaxPlus(AlgebraBackend):
    """The max-plus semiring on integers: add = max, mul = +, invert = negation.

    It runs the image of a ``TropicalSemiring`` labeling under x ↦ L·x, which
    ``_to_max_plus_image`` builds; C is C·L there and one() is 0.
    """

    name = "integral max-plus"
    add = max
    mul = operator.add
    invert = operator.neg

    def __init__(self, const_c):
        self._c = const_c

    def one(self):
        return 0

    def constant_c(self):
        return self._c

    def sample_generic(self, seed):
        raise TypeError("the integral max-plus image draws no samples")


def _to_max_plus_image(values, const_c):
    """The image of rational ``values`` and C under x ↦ L·x, L the least common
    denominator of them all: (the integral max-plus backend, the integers L·x, L).

    Max, + and negation create no denominator, so every map over the tropical
    semiring with this C, run on the image, gives L times its rational result
    exactly, and two labelings are equal exactly when their images are.
    """
    try:
        nums, dens = [x._numerator for x in values], [x._denominator for x in values]
    except AttributeError:  # an int or bool value
        nums, dens = [x.numerator for x in values], [x.denominator for x in values]
    scale = lcm(const_c.denominator, *dens)
    image = tuple([n * (scale // d) for n, d in zip(nums, dens)])
    return _IntegralMaxPlus(const_c.numerator * (scale // const_c.denominator)), image, scale


def _from_max_plus_image(image, scale):
    """The reduced Fractions X/L of integers on the max-plus image with L = ``scale``."""
    return tuple([_fraction(x // g, scale // g)
                  for x, g in zip(image, map(gcd, image, repeat(scale)))])


def label_bits(x):
    """Numerator plus denominator bits of a Fraction, or of a matrix's largest entry."""
    if isinstance(x, RationalMatrix):
        return x.max_entry_bits()
    return x.numerator.bit_length() + x.denominator.bit_length()


def _label_bits_bound(x):
    """A bound on ``label_bits(x)`` from the integers x stores, with no gcd.

    It is exact for a Fraction or an int.  For a matrix it is the largest
    numerator's bits plus the common denominator's: an entry n/D in lowest
    terms is n/g over D/g, neither longer than n or D.
    """
    if type(x) is Fraction:
        return x._numerator.bit_length() + x._denominator.bit_length()
    if isinstance(x, RationalMatrix):
        return max(map(int.bit_length, x._num)) + x._den.bit_length()
    return label_bits(x)


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
