import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction
from math import gcd

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
MATRIX_DIMENSIONS = [1, 2, 3, 4, backends.MAX_MATRIX_DIMENSION]


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


def _ref_product(x, y):
    """Reference product from the entries alone: no shortcuts."""
    xr, yr = x.rows, y.rows
    d = len(xr)
    return tuple(tuple(sum((xr[i][k] * yr[k][j] for k in range(d)), F(0))
                       for j in range(d)) for i in range(d))


def _ref_inverse(x):
    """Reference Gauss-Jordan inverse from the entries; None when singular."""
    d = len(x.rows)
    a = [list(row) for row in x.rows]
    inv = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    for col in range(d):
        rows = [r for r in range(col, d) if a[r][col] != 0]
        if not rows:
            return None
        p = rows[-1]  # any nonzero pivot gives the same exact inverse
        a[col], a[p], inv[col], inv[p] = a[p], a[col], inv[p], inv[col]
        piv = a[col][col]
        a[col] = [v / piv for v in a[col]]
        inv[col] = [v / piv for v in inv[col]]
        for r in range(d):
            if r != col:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


def _shortcut_cases(d):
    """Seeded generic, sparse and singular matrices, and scalars built every way and from rows."""
    rng = random.Random(f"shortcuts:{d}")
    generic = [MatrixRing(d).sample_generic(rng.randrange(10**9)) for _ in range(4)]
    sparse = [RationalMatrix([[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d)]
                              for _ in range(d)]) for _ in range(8)]
    singular = [RationalMatrix([[F(0)] * d] + [[F(rng.randint(1, 9)) for _ in range(d)]
                                               for _ in range(d - 1)]),
                RationalMatrix([[F(i + 1) * F(j + 2, 3) for j in range(d)] for i in range(d)])]
    scalars = [RationalMatrix.identity(d), MatrixRing(d).one(), MatrixRing(d).constant_c(),
               RationalMatrix.scalar(d, F(3, 7)), RationalMatrix.scalar(d, -1),
               RationalMatrix.scalar(d, 0), MatrixRing(d).central_from_rational(F(-5, 2))]
    from_rows = [RationalMatrix(m.rows) for m in scalars]
    return generic + sparse + singular + scalars + from_rows


def _swap_cases(d):
    """Nonsingular matrices whose elimination has a zero pivot entry, so rows must swap."""
    if d == 1:
        return []
    rng = random.Random(f"swaps:{d}")
    weighted_cycle = RationalMatrix([[F(i + 2, 3) if j == (i + 1) % d else F(0)
                                      for j in range(d)] for i in range(d)])
    reversal = RationalMatrix([[F(int(i + j == d - 1)) for j in range(d)] for i in range(d)])
    dense = [[F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(d)] for _ in range(d)]
    zero_lead = RationalMatrix([[F(0)] + dense[0][1:]] + dense[1:])
    cases = [weighted_cycle, reversal, zero_lead]
    if d >= 3:  # row 1 minus its multiple of row 0 is zero up to the last column
        row1 = dense[0][:-1] + [dense[0][-1] + 1]
        cases.append(RationalMatrix([dense[0], row1] + dense[2:]))
    return cases


def _big_cases(d):
    """Seeded matrices with entries of about 1000 bits, one of them with a zero leading entry."""
    if d not in (2, 3):
        return []
    rng = random.Random(f"big:{d}")

    def entry():
        return F(rng.getrandbits(1000) - 2**999, rng.getrandbits(1000) | 1)

    cases = [RationalMatrix([[entry() for _ in range(d)] for _ in range(d)]) for _ in range(3)]
    rows = [[entry() for _ in range(d)] for _ in range(d)]
    rows[0][0] = F(0)
    return cases + [RationalMatrix(rows)]


def _two_by_two_cases(d):
    """2x2 matrices for the closed forms: negative determinants with four nonzero
    entries, singular ones whose determinant cancels across denominators > 1, and a
    zero numerator in each position."""
    if d != 2:
        return []
    negative = [RationalMatrix([[F(1, 2), F(3)], [F(5, 7), F(2, 3)]]),  # det -38/21
                RationalMatrix([[F(-3, 4), F(5, 6)], [F(7, 5), F(-2, 9)]])]  # det -1
    cancelling = [RationalMatrix([[F(1, 2), F(1, 3)], [F(3, 4), F(1, 2)]]),
                  RationalMatrix([[F(-2, 3), F(4, 5)], [F(5, 6), F(-1)]])]
    base = [F(2, 3), F(-5, 4), F(7, 2), F(1, 6)]
    zeros = [RationalMatrix([[F(0) if i == k else base[i] for i in (0, 1)],
                             [F(0) if i == k else base[i] for i in (2, 3)]]) for k in range(4)]
    return negative + cancelling + zeros


def _kernel_cases(d):
    return _shortcut_cases(d) + _swap_cases(d) + _big_cases(d) + _two_by_two_cases(d)


def _all_fractions(m):
    return all(type(v) is F for row in m.rows for v in row)


@pytest.mark.parametrize("d", MATRIX_DIMENSIONS)
def test_matrix_products_match_reference(d):
    cases = _kernel_cases(d)
    for x in cases:
        for y in cases:
            prod = x @ y
            assert prod.rows == _ref_product(x, y), (x, y)
            assert _all_fractions(prod)
            if x.is_scalar() and y.is_scalar():
                assert prod.is_scalar()
        total = x + x
        assert total.rows == tuple(tuple(2 * v for v in row) for row in x.rows)
        assert _all_fractions(total)


@pytest.mark.parametrize("d", MATRIX_DIMENSIONS)
def test_matrix_inverse_matches_reference_and_is_memoized(d):
    singular = 0
    for x in _kernel_cases(d):
        expected = _ref_inverse(x)
        if expected is None:
            singular += 1
            for _ in range(2):  # a failure is not stored: the retry raises the same way
                with pytest.raises(NotInvertible) as err:
                    x.inverse()
                assert err.value.context == f"singular {d}x{d} matrix"
            with pytest.raises(NotInvertible, match="parallel-sum operand 1"):
                parallel_sum(MatrixRing(d), [MatrixRing(d).one(), x])
            continue
        inv = x.inverse()
        assert inv.rows == expected and _all_fractions(inv)
        assert x.inverse() is inv
        assert inv.inverse() is x
        assert parallel_sum(MatrixRing(d), [x]) is x
    assert singular >= 3
    assert all(_ref_inverse(x) is not None for x in _swap_cases(d) + _big_cases(d))
    assert [_ref_inverse(x) is None for x in _two_by_two_cases(d)] == (
        [False, False, True, True] + [False] * 4 if d == 2 else [])


def test_matrix_and_its_stored_inverse_form_no_reference_cycle():
    gc.disable()  # so only reference counting can free the matrix
    try:
        for d in (1, 2, 3):
            x = MatrixRing(d).sample_generic(7)
            inv = x.inverse()
            rows, alive = x.rows, weakref.ref(x)
            del x
            assert alive() is None
            again = inv.inverse()
            assert again.rows == rows and inv.inverse() is again and again.inverse() is inv
    finally:
        gc.enable()


def test_scalar_matrices_built_every_way_are_one_central_value():
    for d in (1, 2, 3):
        ring = MatrixRing(d, const_c=F(-4, 9))
        x = ring.sample_generic(d)
        for c in (F(1), F(2), F(-4, 9), F(0)):
            ways = [RationalMatrix.scalar(d, c), ring.central_from_rational(c),
                    RationalMatrix([[c * (i == j) for j in range(d)] for i in range(d)])]
            if c == 1:
                ways += [RationalMatrix.identity(d), ring.one()]
            if c == F(-4, 9):
                ways.append(ring.constant_c())
            ways += [RationalMatrix(m.rows) for m in ways]
            first = ways[0]
            for m in ways:
                assert m == first and hash(m) == hash(first)
                assert m.is_scalar() and ring.is_central(m)
                for y in (x, first, m):
                    assert (m @ y).rows == _ref_product(m, y)
                    assert (y @ m).rows == _ref_product(y, m)
                assert (m @ m).is_scalar()
    b = MatrixRing(2)
    x = b.sample_generic(5)
    assert b.one() is b.one() and b.mul(b.one(), x) == x and b.mul(x, b.one()) == x
    assert b.mul(b.constant_c(), x) == b.mul(x, b.constant_c()) == x + x


def _is_canonical(m):
    """Positive denominator sharing no factor with the numerators; rows reduced Fractions."""
    return (m._den > 0 and gcd(m._den, *m._num) == 1 and _all_fractions(m)
            and all(v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
                    for row in m.rows for v in row))


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_matrix_built_every_way_has_one_canonical_form(d, flip):
    rng = random.Random(f"canonical:{d}")
    while True:
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(d)] for _ in range(d)]
        if _ref_inverse(RationalMatrix(rows)) is not None:
            break
    if flip:  # the determinant's other sign: swap two rows, or negate a 1x1 entry
        rows = [rows[1], rows[0]] + rows[2:] if d > 1 else [[-rows[0][0]]]
    m = RationalMatrix(rows)
    unreduced = RationalMatrix([[f"{6 * v.numerator}/{6 * v.denominator}" for v in row]
                                for row in rows])
    negative = RationalMatrix([[F(-v.numerator, -v.denominator) for v in row] for row in rows])
    # factors and terms whose integer results share a factor to cancel
    third = RationalMatrix([[F(int(i == j), 3) for j in range(d)] for i in range(d)])
    product = RationalMatrix([[3 * v for v in row] for row in rows]) @ third
    sum_ = (RationalMatrix([[v - F(5, 6) for v in row] for row in rows])
            + RationalMatrix([[F(5, 6)] * d] * d))
    twice_inverted = RationalMatrix(RationalMatrix(rows).inverse().rows).inverse()
    copies = [unreduced, negative, product, sum_, twice_inverted]
    for copy in copies:
        assert copy == m and hash(copy) == hash(m)
        assert copy.rows == m.rows and _is_canonical(copy)
    assert _is_canonical(m) and m.rows == tuple(map(tuple, rows))
    assert m.inverse() == twice_inverted.inverse() and _is_canonical(m.inverse())
    zero = m + RationalMatrix([[-v for v in row] for row in rows])
    assert zero._den == 1 and zero == RationalMatrix.scalar(d, 0) and _is_canonical(zero)


def _closed_form_cases():
    """2x2 matrices for the closed-form sum and inverse: a negative determinant that
    shares a factor with the denominator, one that shares a factor with the entries,
    one that shares both, two with equal denominators whose sum cancels, and
    300-bit entries."""
    rng = random.Random("closed-form-2x2")

    def entry():
        return F(rng.getrandbits(300) - 2**299, rng.getrandbits(300) | 1)

    return ([RationalMatrix([[F(1, 5), F(4, 5)], [F(3, 5), F(2, 5)]]),  # det -2/5
             RationalMatrix([[F(6, 5), F(3, 5)], [F(3, 5), F(6, 5)]]),  # det 27/25
             RationalMatrix([[F(6, 5), F(3, 5)], [F(3, 5), F(-6, 5)]]),  # det -9/5
             RationalMatrix([[F(1, 6), F(1, 6)], [F(1, 6), F(5, 6)]]),
             RationalMatrix([[F(1, 6), F(5, 6)], [F(-1, 6), F(1, 6)]])]
            + [RationalMatrix([[entry(), entry()], [entry(), entry()]]) for _ in range(4)])


def test_two_by_two_sum_and_inverse_are_canonical_closed_forms():
    cases = _closed_form_cases()
    dets = [a * e - b * c for a, b, c, e in (x._num for x in cases)]
    assert dets[0] < 0 and gcd(dets[0], cases[0]._den) > 1
    assert gcd(dets[1], *cases[1]._num) > 1 and gcd(dets[1], cases[1]._den) == 1
    assert dets[2] < 0 and gcd(dets[2], *cases[2]._num) > 1
    assert gcd(dets[2] // gcd(dets[2], *cases[2]._num), cases[2]._den) > 1
    assert max(x.max_entry_bits() for x in cases) > 550
    for x in cases:
        for y in cases:
            total = x + y
            assert total.rows == tuple(tuple(v + w for v, w in zip(r, s))
                                       for r, s in zip(x.rows, y.rows)), (x, y)
            assert _is_canonical(total) and total == RationalMatrix(total.rows)
        zero = x + RationalMatrix([[-v for v in row] for row in x.rows])
        assert zero._num == (0, 0, 0, 0) and zero._den == 1 and _is_canonical(zero)
        with pytest.raises(NotInvertible):
            zero.inverse()
        inv = x.inverse()
        assert inv == RationalMatrix(_ref_inverse(x)) and _is_canonical(inv), x
        assert inv.inverse() is x and (x @ inv).rows == RationalMatrix.identity(2).rows
    # equal denominators 6 whose numerator sums (2, 6, 0, 6) share the factor 2 with 6
    cancelled = cases[3] + cases[4]
    assert (cancelled._num, cancelled._den) == ((1, 3, 0, 3), 3)


def _matrices_from_every_source():
    """A matrix from each place one is made: the constructor, both products, a sum,
    an inverse, identity and a ring's one."""
    x = RationalMatrix([[1, F(2, 3)], [-3, 4]])
    y = MatrixRing(3).sample_generic(1)
    return {"constructor": x, "d2 product": x @ x, "d3 product": y @ y, "sum": x + x,
            "inverse": x.inverse(), "identity": RationalMatrix.identity(2),
            "ring one": MatrixRing(3).one()}


@pytest.mark.parametrize("name", ["d", "_num", "_den", "__class__", "fresh_name"])
def test_matrices_from_every_source_are_immutable(name):
    for source, m in _matrices_from_every_source().items():
        before = (m.d, m._num, m._den)
        with pytest.raises(AttributeError):
            setattr(m, name, 1)
        with pytest.raises(AttributeError):
            delattr(m, name)
        assert type(m) is RationalMatrix, source
        assert (m.d, m._num, m._den) == before and _is_canonical(m), source


@pytest.mark.parametrize("d", [1, 2, 3])
def test_matrix_copies_and_pickles_are_equal_sealed_matrices(d):
    rng = random.Random(f"copy:{d}")
    m = RationalMatrix([[F(rng.randint(-9, 9), rng.randint(1, 9)) + (i == j)
                         for j in range(d)] for i in range(d)])
    inverted = RationalMatrix(m.rows)
    inverted.inverse()  # one matrix whose inverse is stored
    for x in (m, inverted, inverted.inverse()):
        for dup in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(dup) is RationalMatrix and dup == x and hash(dup) == hash(x)
            with pytest.raises(AttributeError):
                dup._num = (0,) * (d * d)
            assert dup.inverse() == x.inverse()


def _oracle_label_bits(m):
    return max(v.numerator.bit_length() + v.denominator.bit_length()
               for row in m.rows for v in row)


@pytest.mark.parametrize("d", [2, 3, backends.MAX_MATRIX_DIMENSION])
def test_label_bits_is_the_largest_reduced_entry(d):
    rng = random.Random(f"label-bits:{d}")

    def entry():
        bits = rng.choice([1, 8, 300])
        return F(rng.getrandbits(bits) - 2 ** (bits - 1), rng.getrandbits(bits) | 1)

    xs = [RationalMatrix([[entry() for _ in range(d)] for _ in range(d)]) for _ in range(4)]
    values = xs + [x @ y for x in xs for y in xs] + [x + y for x in xs for y in xs]
    values += [x.inverse() for x in xs[:2]] + [RationalMatrix.scalar(d, F(-7, 3 ** 200))]
    for m in values:
        assert backends.label_bits(m) == _oracle_label_bits(m), m


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


@pytest.mark.parametrize("spec", ["rational", "tropical", "matrix:1", "matrix:2", "matrix:3",
                                  "matrix:8"])
def test_sample_generic_pins_its_values(spec):
    # References drawn by randint and built by the public constructors: the
    # sampler's own draws and builders must give these values, in these forms.
    b = parse_backend(spec)
    lo, hi = backends.DEFAULT_SAMPLE_RANGE
    seeds = [0, 1, 2**64 - 1] + [derive_seed("sample-pin", spec, k) for k in range(40)]
    for seed in seeds:
        rng = random.Random(seed)
        got = b.sample_generic(seed)
        if spec == "tropical":
            den = rng.randint(1, backends.TROPICAL_DENOMINATOR_BOUND)
            want = F(rng.randint(0, den), den)
        elif spec == "rational":
            want = F(rng.randint(lo, hi), rng.randint(lo, hi))
        else:
            want = RationalMatrix([[F(rng.randint(lo, hi), rng.randint(lo, hi))
                                    for _ in range(b.d)] for _ in range(b.d)])
            assert type(got) is RationalMatrix
            assert (got.d, got._num, got._den) == (want.d, want._num, want._den)
            assert got._den > 0 and gcd(got._den, *got._num) == 1
            continue
        assert type(got) is Fraction and got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1


def test_rational_invert_matches_division_in_lowest_terms():
    rng = random.Random("rational-invert")
    b = RationalField()
    values = [1, -1, 7, -12, F(1), F(-5), F(-3, 4), F(9, 2)]
    for bits in (8, 300):
        for _ in range(100):
            num = rng.getrandbits(bits) + 1
            values += [F(num, rng.getrandbits(bits) + 1), F(-num, rng.getrandbits(bits) + 1),
                       F(num), F(-num), num, -num]
    for x in values:
        inv = b.invert(x)
        assert inv == 1 / F(x) and type(inv) is F, x  # a plain int gets a Fraction too
        assert inv.denominator > 0 and gcd(inv.numerator, inv.denominator) == 1, x
        assert b.mul(x, inv) == 1
    for zero in (0, F(0), F(0, 5)):
        with pytest.raises(NotInvertible) as err:
            b.invert(zero)
        assert err.value.context == "rational zero"


def _oracle_values(tag):
    """Seeded 8- and 300-bit fractions of both signs, zero and plain ints."""
    rng = random.Random(tag)
    values = [0, 1, -3, F(0), F(1), F(-1), F(5, 7), F(-9, 4)]
    for bits in (8, 300):
        for _ in range(12):
            num = rng.getrandbits(bits) + 1
            values += [F(num, rng.getrandbits(bits) + 1), F(-num, rng.getrandbits(bits) + 1),
                       num, -num]
    return values


def _assert_matches(got, want, *operands):
    assert got == want and hash(got) == hash(want), operands
    assert type(got) is F, operands  # a plain int gets a Fraction too
    assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1, operands


def test_rational_and_tropical_kernels_match_stdlib_arithmetic():
    rational, tropical = RationalField(), TropicalSemiring()
    values = _oracle_values("integer-kernels")
    for x in values:
        for y in values:
            _assert_matches(rational.add(x, y), F(x) + y, x, y)
            _assert_matches(rational.mul(x, y), F(x) * y, x, y)
            _assert_matches(tropical.mul(x, y), F(x) + y, x, y)
            assert tropical.add(x, y) is max(x, y), (x, y)  # one operand, as max picks
        _assert_matches(tropical.invert(x), -F(x), x)
        if x:
            _assert_matches(rational.invert(x), 1 / F(x), x)
    for zero in (0, F(0), F(0, 5), rational.add(F(1, 3), F(-1, 3))):
        with pytest.raises(NotInvertible) as err:
            rational.invert(zero)
        assert err.value.context == "rational zero"
    assert rational.one() is rational.one() == 1 and tropical.one() is tropical.one() == 0


def test_kernels_match_stdlib_arithmetic_on_plain_int_and_bool_operands():
    # Operands without Fraction's slots take the public numerator and denominator.
    rational, tropical = RationalField(), TropicalSemiring()
    values = [False, True, 0, 1, -1, 6, -35, 2**300 + 1, F(-6, 35), F(2**200, 3)]
    for x in values:
        for y in values:
            _assert_matches(rational.add(x, y), F(x) + y, x, y)
            _assert_matches(rational.mul(x, y), F(x) * y, x, y)
            _assert_matches(tropical.mul(x, y), F(x) + y, x, y)
            assert tropical.add(x, y) is max(x, y), (x, y)
        _assert_matches(tropical.invert(x), -F(x), x)
        if x:
            _assert_matches(rational.invert(x), 1 / F(x), x)
        else:
            with pytest.raises(NotInvertible):
                rational.invert(x)


def test_kernel_results_copy_and_pickle_as_fractions():
    rational, tropical = RationalField(), TropicalSemiring()
    big = F(2**200 + 1, 3**90)
    made = [rational.mul(big, F(-6, 35)), rational.add(big, F(1, 2)), rational.invert(-big),
            rational.one(), tropical.mul(big, F(-1, 3)), tropical.invert(big), tropical.one()]
    for q in made:
        for twin in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            _assert_matches(twin, q)
            assert (twin.numerator, twin.denominator) == (q.numerator, q.denominator)


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
