import random
from fractions import Fraction

import pytest

from rowmotion import backends
from rowmotion.backends import (
    MatrixRing,
    RationalField,
    TropicalSemiring,
    derive_seed,
    parallel_sum,
    parse_backend,
    random_labeling,
)
from rowmotion.errors import NotInvertible
from rowmotion.matrices import RationalMatrix
from rowmotion.poset import chain_product

F = Fraction

BACKENDS = [RationalField(), MatrixRing(2), MatrixRing(3), TropicalSemiring()]


def test_matrix_basics():
    m = RationalMatrix([[1, 2], [3, 4]])
    eye = RationalMatrix.identity(2)
    assert m @ eye == m == eye @ m
    assert m + m == RationalMatrix([[2, 4], [6, 8]])
    inv = m.inverse()
    assert m @ inv == eye == inv @ m
    assert inv == RationalMatrix([[F(-2), F(1)], [F(3, 2), F(-1, 2)]])


def test_matrix_singular_raises():
    with pytest.raises(NotInvertible):
        RationalMatrix([[1, 2], [2, 4]]).inverse()


def test_matrix_scalar_detection():
    assert RationalMatrix.scalar(3, F(5, 7)).is_scalar()
    assert not RationalMatrix([[1, 0], [1, 1]]).is_scalar()


def test_matrix_not_commutative():
    a = RationalMatrix([[0, 1], [0, 0]])
    b = RationalMatrix([[0, 0], [1, 0]])
    assert a @ b != b @ a


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.describe())
def test_backend_axioms_randomized(backend):
    c = backend.constant_c()
    trials = 300 if backend.describe() == "matrix:3" else 1000
    for trial in range(trials):
        x = backend.sample_generic(derive_seed("ax", trial, 0))
        y = backend.sample_generic(derive_seed("ax", trial, 1))
        z = backend.sample_generic(derive_seed("ax", trial, 2))
        assert backend.equals(backend.add(backend.add(x, y), z),
                              backend.add(x, backend.add(y, z)))
        assert backend.equals(backend.add(x, y), backend.add(y, x))
        assert backend.equals(backend.mul(backend.mul(x, y), z),
                              backend.mul(x, backend.mul(y, z)))
        assert backend.equals(backend.mul(backend.one(), x), x)
        assert backend.equals(backend.mul(x, backend.one()), x)
        assert backend.equals(backend.mul(c, x), backend.mul(x, c))
        try:
            inv = backend.invert(x)
        except NotInvertible:
            continue
        assert backend.equals(backend.mul(inv, x), backend.one())
        assert backend.equals(backend.mul(x, inv), backend.one())


def test_parallel_sum_rational_examples():
    b = RationalField()
    assert parallel_sum(b, [F(2), F(2)]) == F(1)
    assert parallel_sum(b, [F(3), F(6)]) == F(2)  # 1/(1/3 + 1/6)


def test_parallel_sum_identifies_failing_stage():
    b = RationalField()
    with pytest.raises(NotInvertible) as err:
        parallel_sum(b, [F(1), F(0)])
    assert "operand 1" in str(err.value)
    with pytest.raises(NotInvertible) as err:
        parallel_sum(b, [F(1), F(-1)])
    assert "sum of inverses" in str(err.value)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.describe())
def test_reciprocity_randomized(backend):
    rng = random.Random(99)
    trials = 300 if backend.describe() == "matrix:3" else 1000
    skipped = 0
    for trial in range(trials):
        k = rng.randint(1, 5)
        xs = [backend.sample_generic(derive_seed("recip", trial, i)) for i in range(k)]
        try:
            par = parallel_sum(backend, xs)
            inv_sum = backend.sum(backend.invert(x) for x in xs)
        except NotInvertible:
            skipped += 1
            continue
        assert backend.equals(backend.mul(par, inv_sum), backend.one())
        assert backend.equals(backend.mul(inv_sum, par), backend.one())
    assert skipped < trials // 10


def test_tropical_reciprocity_reads_min_plus_max_of_negatives():
    b = TropicalSemiring()
    xs = [F(1, 3), F(2), F(-5, 4)]
    assert min(xs) + max(-x for x in xs) == 0
    assert b.mul(parallel_sum(b, xs), b.sum(b.invert(x) for x in xs)) == b.one()


def test_tropical_encoding():
    b = TropicalSemiring()
    assert b.add(F(2), F(3)) == F(3)
    assert b.mul(F(2), F(3)) == F(5)
    assert b.one() == 0
    assert b.invert(F(7, 2)) == F(-7, 2)
    assert b.constant_c() == 1


def test_matrix_reciprocity_both_orders_d2():
    b = MatrixRing(2)
    for seed in range(50):
        xs = [b.sample_generic(derive_seed("mrec", seed, i)) for i in range(3)]
        try:
            par = parallel_sum(b, xs)
            inv_sum = b.sum(b.invert(x) for x in xs)
        except NotInvertible:
            continue
        assert b.mul(par, inv_sum) == b.one()
        assert b.mul(inv_sum, par) == b.one()


def test_matrix_d4_desk_scale():
    b = MatrixRing(4, const_c=F(3))
    for seed in range(20):
        x = b.sample_generic(derive_seed("d4", seed))
        assert b.mul(x, b.invert(x)) == b.one()
        xs = [b.sample_generic(derive_seed("d4r", seed, i)) for i in range(2)]
        assert b.mul(parallel_sum(b, xs), b.sum(b.invert(v) for v in xs)) == b.one()


def test_random_labeling_deterministic():
    p = chain_product(2, 3)
    b = RationalField()
    assert random_labeling(b, p, 7) == random_labeling(b, p, 7)


def test_random_labeling_varies_across_seeds():
    p = chain_product(2, 3)
    b = RationalField()
    for k in range(20):
        one = random_labeling(b, p, derive_seed("pair", k, 0))
        two = random_labeling(b, p, derive_seed("pair", k, 1))
        assert one != two


def test_tropical_sampling_range_bounded():
    p = chain_product(2, 3)
    b = TropicalSemiring()
    values = random_labeling(b, p, 3)
    assert all(0 <= v <= 1 for v in values)


def test_matrix_d1_matches_rational_field_bit_for_bit():
    p = chain_product(2, 3)
    rational = random_labeling(RationalField(), p, 13)
    matrix = random_labeling(MatrixRing(1), p, 13)
    assert [m.rows[0][0] for m in matrix] == list(rational)


def test_rational_samples_fully_reduced_nonzero(monkeypatch):
    monkeypatch.setattr(backends, "DEFAULT_SAMPLE_RANGE", (1, 9))
    b = RationalField()
    for seed in range(200):
        q = b.sample_generic(seed)
        assert q != 0
        from math import gcd
        assert gcd(q.numerator, q.denominator) == 1


def test_parse_backend():
    assert parse_backend("rational").describe() == "rational"
    assert parse_backend("matrix:3").describe() == "matrix:3"
    assert parse_backend("tropical").describe() == "tropical"
    assert parse_backend("matrix:2", const_c="5/3").constant_c() == \
        RationalMatrix.scalar(2, F(5, 3))
    with pytest.raises(ValueError):
        parse_backend("floaty")
    d_max = backends.MAX_MATRIX_DIMENSION
    assert parse_backend(f"matrix:{d_max}").d == d_max
    for spec in ("matrix:0", f"matrix:{d_max + 1}", "matrix:x", "matrix:"):
        with pytest.raises(ValueError, match=spec):
            parse_backend(spec)


def test_central_embedding():
    assert MatrixRing(2).is_central(RationalMatrix.scalar(2, F(4)))
    assert not MatrixRing(2).is_central(RationalMatrix([[1, 1], [0, 1]]))
    assert RationalField().central_from_rational(F(3, 4)) == F(3, 4)
    assert MatrixRing(2).central_from_rational(2) == RationalMatrix.scalar(2, 2)
