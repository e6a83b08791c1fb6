import dataclasses
import gc
import itertools
import json
import math
import operator
import random
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

from rowmotion import backends, cli, harness
from rowmotion.backends import (
    MatrixRing,
    RationalField,
    derive_seed,
    parallel_sum,
    parse_backend,
    random_labeling,
)
from rowmotion.dynamics import Dynamics, detect_order
from rowmotion.errors import GenericityFailure, LabelsTooLarge, NotInvertible
from rowmotion.harness import (
    THEOREMS,
    CheckSpec,
    TheoremCheck,
    build_poset,
    default_check_specs,
    emit_report,
    labeling_orbit_report,
    run_check,
    scan_conjecture,
)
from rowmotion.poset import chain_product, random_graded_poset, random_poset

from test_report_digests import report_digest


def test_registry_contents():
    expected = {
        "involution", "commutation", "extension-independence", "reciprocity",
        "meteor-gorge", "bar-transfer", "nor-transfer", "t-star", "tau-star",
        "gyration", "rescale-rank", "rescale-bar",
    }
    assert set(THEOREMS) == expected


def test_each_identity_is_one_registry_entry():
    # An identity's realms are its default backends, not a second id for its check.
    checks = Counter(t.pairs for t in THEOREMS.values())
    assert max(checks.values()) == 1


def test_checkspec_validation():
    with pytest.raises(ValueError, match="unknown theorem 'no-such-theorem'"):
        default_check_specs(theorems=["no-such-theorem"])
    with pytest.raises(ValueError):
        CheckSpec("bar-transfer", "chain 2x3", "rational", points=0)


def test_build_poset_specs(tmp_path):
    assert build_poset("chain 2x3").n == 6
    assert build_poset("rootA 3").n == 6
    assert build_poset("random 5 7").n == 5
    # keywords and the x in any case; a file path keeps its own
    for spelled, canonical in [("Chain 2x3", "chain 2x3"), ("chain 2X3", "chain 2x3"),
                               ("CHAIN 2X3", "chain 2x3"), ("Random 5 1", "random 5 1"),
                               ("RANDOM 5 7", "random 5 7"), ("roota 3", "rootA 3"),
                               ("ROOTA 4", "rootA 4")]:
        got, want = build_poset(spelled), build_poset(canonical)
        assert (got.covers, got.element_names) == (want.covers, want.element_names)
    path = tmp_path / "Mixed.Poset"
    path.write_text(build_poset("chain 2x2").serialize())
    assert build_poset(str(path)).covers == chain_product(2, 2).covers
    with pytest.raises(FileNotFoundError):
        build_poset(str(tmp_path / "mixed.poset"))
    with pytest.raises(FileNotFoundError):
        build_poset("missing.poset")


def test_run_check_bar_transfer_20_points():
    rep = run_check(CheckSpec("bar-transfer", "chain 2x3", "rational", points=20, seed=1))
    assert rep["passes"] == 20 and rep["failures"] == 0 and rep["status"] == "pass"


def test_run_check_reciprocity_matrix_50_points():
    rep = run_check(CheckSpec("reciprocity", "chain 2x3", "matrix:2", points=50, seed=2))
    assert rep["passes"] == 50 and rep["failures"] == 0


def test_run_check_involution_singleton_one_point():
    rep = run_check(CheckSpec("involution", "chain 1x1", "rational", points=1, seed=3))
    assert rep["passes"] == 1 and rep["status"] == "pass"


def test_run_check_involution_noncommutative_inverse_pairs():
    rep = run_check(CheckSpec("involution", "chain 2x3", "matrix:2"))
    assert rep["status"] == "pass" and rep["passes"] == rep["points"]


def test_run_check_involution_noncommutative_catches_wrong_elggot(monkeypatch):
    monkeypatch.setattr(Dynamics, "order_elggot", Dynamics.order_toggle)
    rep = run_check(CheckSpec("involution", "chain 2x3", "matrix:2"))
    assert rep["status"] == "fail"


@pytest.mark.parametrize("theorem, backend", [("bar-transfer", "rational"),
                                              ("bar-transfer", "tropical"),
                                              ("bar-transfer", "matrix:2")])
def test_run_check_fails_a_transfer_that_drops_a_label(monkeypatch, theorem, backend):
    # A labeling one label short is not equal to the full one, whatever its prefix.
    down_transfer = Dynamics.down_transfer
    monkeypatch.setattr(Dynamics, "down_transfer", lambda self, f: down_transfer(self, f)[:-1])
    rep = run_check(CheckSpec(theorem, "chain 2x3", backend))
    assert rep["status"] == "fail" and rep["failures"] == rep["points"] == 20


def _s4(b, xs):
    """The standard polynomial s4: the signed sum of the products of xs in all 24 orders."""
    minus = b.central_from_rational(-1)
    terms = []
    for perm in itertools.permutations(range(4)):
        factors = [xs[k] for k in perm]
        odd = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4)) % 2
        terms.append(b.product([minus] + factors if odd else factors))
    return b.sum(terms)


class S4Dynamics(Dynamics):
    """Each toggled order label is off by s4 of the labels at the first four other elements."""

    def _order_sweep(self, f, toggled, elggot):
        out = f
        for v in toggled:
            out = list(super()._order_sweep(out, (v,), elggot))
            others = [out[u] for u in range(self.poset.n) if u != v][:4]
            out[v] = self.backend.add(out[v], _s4(self.backend, others))
            out = tuple(out)
        return out


@pytest.mark.parametrize("theorem", ["involution", "t-star", "commutation"])
def test_s4_defect_is_invisible_on_2x2_matrices_only(monkeypatch, theorem):
    # Amitsur-Levitzki: s4 vanishes on 2x2 matrices, so the matrix:2 default
    # backends cannot see this defect, while matrix:3 sees it at every point.
    monkeypatch.setattr(harness, "Dynamics", S4Dynamics)
    two = run_check(CheckSpec(theorem, "chain 2x3", "matrix:2", points=3))
    three = run_check(CheckSpec(theorem, "chain 2x3", "matrix:3", points=3))
    assert two["status"] == "pass" and two["passes"] == 3
    assert three["status"] == "fail" and three["failures"] == 3


def test_run_check_skips_ungraded_for_graded_theorems():
    # seed chosen so the random poset is ungraded
    from rowmotion.poset import random_poset
    seed = next(s for s in range(100) if not random_poset(6, s).is_graded)
    rep = run_check(CheckSpec("gyration", f"random 6 {seed}", "rational", points=5))
    assert rep["status"] == "skipped (ungraded)"


def test_run_check_deterministic():
    spec = CheckSpec("tau-star", "rootA 3", "rational", points=5, seed=9)
    assert run_check(spec) == run_check(spec)


class SingularRational(RationalField):
    """Rationals whose first ``times`` inversions raise; it keeps every operand it inverts."""

    def __init__(self, times):
        super().__init__()
        self.times, self.inverted = times, []

    def invert(self, x):
        self.inverted.append(x)
        if len(self.inverted) <= self.times:
            raise NotInvertible(context="forced")
        return super().invert(x)


class CoinFlipRational(RationalField):
    """Rationals whose products are off by one whenever the next flip is False."""

    def __init__(self, flips):
        super().__init__()
        self.flips = iter(flips)

    def mul(self, x, y):
        out = super().mul(x, y)
        return out if next(self.flips) else self.add(out, self.one())


def _inverted_twice(dyn, g, aux):
    b = dyn.backend
    yield (b.invert(b.invert(g[0])),), (g[0],)


def test_run_check_genericity_failure(monkeypatch):
    monkeypatch.setitem(THEOREMS, "always-degenerate",
                        TheoremCheck(_inverted_twice, False, ("rational",), "fixture"))
    monkeypatch.setattr(harness, "DEFAULT_MAX_RETRIES", 2)
    b = SingularRational(times=math.inf)
    with pytest.raises(GenericityFailure, match="point 0 stayed degenerate through 2 retries"):
        run_check(CheckSpec("always-degenerate", "chain 1x1", "rational", points=1), backend=b)
    assert len(set(b.inverted)) == len(b.inverted) == 3


def test_run_check_retries_then_passes(monkeypatch):
    monkeypatch.setitem(THEOREMS, "degenerate-once",
                        TheoremCheck(_inverted_twice, False, ("rational",), "fixture"))
    rep = run_check(CheckSpec("degenerate-once", "chain 1x1", "rational", points=1),
                    backend=SingularRational(times=1))
    assert rep["passes"] == 1 and rep["retries"] == 1 and rep["status"] == "pass"


def test_run_check_counts_failures(monkeypatch):
    def coin_flip(dyn, g, aux):
        yield g, (dyn.backend.mul(g[0], dyn.backend.one()),)
    monkeypatch.setitem(THEOREMS, "coin-flip",
                        TheoremCheck(coin_flip, False, ("rational",), "fixture"))
    rep = run_check(CheckSpec("coin-flip", "chain 1x1", "rational", points=4),
                    backend=CoinFlipRational([True, False, True, False]))
    assert rep["passes"] == 2 and rep["failures"] == 2 and rep["status"] == "fail"


def second_extension(p):
    """The extension that extension-independence compares with the default one,
    recorded by a stand-in for Dynamics; the default itself when it compares none."""
    seen = []

    def rowmotion(g, extension):
        seen.append(extension)
        return g
    spy = SimpleNamespace(poset=p, antichain_rowmotion=rowmotion, order_rowmotion=rowmotion)
    assert all(lhs == rhs for lhs, rhs in harness._extension_independence_pairs(spy, (), None))
    if not seen:
        return p.default_linear_extension
    assert seen[0] == seen[2] == p.default_linear_extension and seen[1] == seen[3]
    return seen[1]


def is_linear_extension(p, order):
    position = {v: i for i, v in enumerate(order)}
    return (sorted(order) == list(range(p.n))
            and all(position[u] < position[v] for u, v in p.covers))


def test_extension_independence_second_extension_on_seeded_posets(linear_extensions):
    posets = ([chain_product(1, 1), chain_product(1, 4)]
              + [random_poset(n, seed) for n in range(2, 9) for seed in range(6)]
              + [random_graded_poset(seed) for seed in range(30)])
    differed = 0
    for p in posets:
        two = second_extension(p)
        assert is_linear_extension(p, two), p.covers
        several = len(linear_extensions(p, limit=2)) == 2
        assert (two != p.default_linear_extension) == several, p.covers
        differed += several
    assert 0 < differed < len(posets)


@pytest.mark.parametrize("spec,expected", [("chain 2x3", (0, 2, 4, 1, 3, 5)),
                                           ("rootA 3", (2, 1, 4, 0, 3, 5))])
def test_extension_independence_second_extension_on_verify_posets(spec, expected):
    assert spec in harness.DEFAULT_VERIFY_POSETS
    assert second_extension(build_poset(spec)) == expected


def test_default_check_specs_cover_registry():
    specs = default_check_specs(points=1)
    assert {s.theorem for s in specs} == set(THEOREMS)


def test_orbit_report_2x3_rational():
    p = chain_product(2, 3)
    rep = labeling_orbit_report(p, RationalField(), "bar", seed=0, poset_name="chain 2x3")
    d = rep.to_dict()
    assert d["order"] == 5
    assert d["returned_to_start"] and d["minimal"]
    assert {"map", "order", "seed", "failures"} <= set(d)


def test_orbit_report_exceeded():
    p = chain_product(2, 3)
    rep = labeling_orbit_report(p, RationalField(), "bar", seed=0, max_iter=3)
    assert rep.order is None and rep.iterates == 3
    assert rep.to_dict()["order"] == "exceeded"


@pytest.mark.parametrize("backend", [RationalField(), MatrixRing(2)])
def test_orbit_report_stops_when_a_label_outgrows_the_bound(monkeypatch, backend):
    p = chain_product(2, 3)
    monkeypatch.setattr("rowmotion.dynamics.MAX_LABEL_BITS", 16)
    d = labeling_orbit_report(p, backend, "bar", seed=0).to_dict()
    assert d["order"] == "exceeded" and 1 <= d["iterates"] < 5
    assert not d["returned_to_start"] and not d["minimal"]
    # The stop lives in the bare loop, so every orbit has it, not only reports.
    dyn = Dynamics(p, backend)
    with pytest.raises(LabelsTooLarge, match="MAX_LABEL_BITS = 16 bits") as exc:
        detect_order(dyn.antichain_rowmotion, dyn.random_labeling(0), operator.eq)
    assert 1 <= exc.value.iterates < 5


def test_scan_conjecture_small_table():
    rows = scan_conjecture(2, 3, "rational", seeds=(0, 1, 2))
    by_ab = {(r["a"], r["b"]): r for r in rows}
    assert by_ab[(1, 1)]["observed"] == 2
    assert by_ab[(2, 3)]["expected"] == 5
    assert all(r["status"] == "consistent" for r in rows)


def test_scan_conjecture_matrix3_2x2():
    rows = scan_conjecture(2, 2, "matrix:3", seeds=(0,))
    by_ab = {(r["a"], r["b"]): r for r in rows}
    assert by_ab[(2, 2)]["observed"] == 4
    assert by_ab[(2, 2)]["status"] == "consistent"


def test_scan_reports_exceeded_rows_without_failing():
    rows = scan_conjecture(1, 1, "rational", seeds=(0,), max_iter=1)
    assert rows[0]["status"] == "exceeded"
    assert rows[0]["observed"] == "exceeded"


def test_scan_counts_a_shorter_orbit_on_a_non_generic_start_as_consistent():
    # Seed 0's tropical start on the one-element chain is 1/2, a fixed point of 1 - f.
    (row,) = scan_conjecture(1, 1, "tropical")
    assert row["observed"] == "1/2/2" and row["status"] == "consistent"


@pytest.mark.parametrize("orders,observed,status", [
    ((3, 3, 3), 3, "inconsistent"),
    ((3, 6, 6), "3/6/6", "consistent"),
], ids=["3/3/3", "3/6/6"])
def test_scan_status_is_whether_the_orders_lcm_is_a_plus_b(monkeypatch, orders, observed,
                                                          status):
    def stub(poset, backend, map_id, seed, poset_name=None, max_iter=64):
        return SimpleNamespace(order=orders[seed])
    monkeypatch.setattr(harness, "labeling_orbit_report", stub)
    rows = scan_conjecture(2, 4, "rational")
    (row,) = [r for r in rows if (r["a"], r["b"]) == (2, 4)]
    assert row["expected"] == 6 and row["observed"] == observed and row["status"] == status


def test_orbit_report_genericity_failure(monkeypatch):
    from rowmotion import harness as h

    starts = []

    def always_degenerate(step, start, equal, max_iter=64, **image):
        starts.append(start)
        raise NotInvertible(context="forced")

    monkeypatch.setattr(h, "detect_order", always_degenerate)
    monkeypatch.setattr(h, "DEFAULT_MAX_RETRIES", 2)
    with pytest.raises(GenericityFailure, match="orbit of bar stayed degenerate through 2 retries"):
        labeling_orbit_report(chain_product(1, 1), RationalField(), "bar", seed=0)
    assert len(set(starts)) == len(starts) == 3


def test_orbit_report_counts_degenerate_starts(monkeypatch):
    real = harness.detect_order
    starts = []

    def degenerate_first(step, start, equal, max_iter=64, **image):
        starts.append(start)
        if len(starts) == 1:
            raise NotInvertible(context="first start only")
        return real(step, start, equal, max_iter=max_iter, **image)

    monkeypatch.setattr(harness, "detect_order", degenerate_first)
    rep = labeling_orbit_report(chain_product(2, 2), RationalField(), "bar", seed=0)
    assert rep.failures == 1 and rep.order == 4
    assert starts[0] != starts[1]


def test_model_note_only_on_noncommutative_backends():
    for spec in ("rational", "tropical", "matrix:1", "matrix:2"):
        orbit = labeling_orbit_report(chain_product(1, 2), parse_backend(spec), "bar", seed=0)
        check = run_check(CheckSpec("reciprocity", "chain 1x2", spec, points=1))
        assert ("model" in orbit.to_dict()) == ("model" in check) == (spec == "matrix:2")


def test_scan_skips_beyond_element_budget(monkeypatch):
    monkeypatch.setattr(harness, "SCAN_ELEMENT_BUDGET", 12)
    rows = scan_conjecture(4, 4, "rational", seeds=(0,))
    by_ab = {(r["a"], r["b"]): r for r in rows}
    assert by_ab[(4, 4)]["status"] == "skipped"
    assert by_ab[(3, 4)]["status"] == "consistent"


def test_emit_report_empty():
    assert json.loads(emit_report([], "json")) == []
    assert emit_report([], "text") == b"(no reports)\n"


def test_emit_report_json_schema_and_determinism():
    p = chain_product(2, 2)
    rep = labeling_orbit_report(p, RationalField(), "bor", seed=4).to_dict()
    blob1 = emit_report([rep], "json")
    blob2 = emit_report([labeling_orbit_report(p, RationalField(), "bor", seed=4).to_dict()],
                        "json")
    assert blob1 == blob2
    parsed = json.loads(blob1)
    assert parsed[0]["map"] == "bor" and parsed[0]["order"] == 4


def test_emit_report_csv_scan_header():
    rows = scan_conjecture(1, 2, "rational", seeds=(0,))
    blob = emit_report(rows, "csv").decode()
    assert blob.splitlines()[0] == "a,b,backend,observed,expected,status"


def test_emit_report_unknown_format():
    with pytest.raises(ValueError):
        emit_report([], "yaml")


def test_concurrent_checks_share_poset_and_stay_deterministic():
    # checks are independent pure jobs: a thread pool over one shared poset and
    # one shared backend, whose registry points the threads draw and read
    # concurrently, matches the sequential run
    import sys
    from concurrent.futures import ThreadPoolExecutor

    p = chain_product(2, 3)
    specs = [CheckSpec(t, "chain 2x3", "matrix:2", points=8, seed=5)
             for t in ("bar-transfer", "meteor-gorge", "tau-star", "involution",
                       "commutation", "reciprocity", "gyration", "rescale-bar")]
    sequential = [run_check(s, poset=p) for s in specs]
    fresh, shared = chain_product(2, 3), MatrixRing(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda s: run_check(s, poset=fresh, backend=shared), specs))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == sequential


def test_nar_and_nor_orders_match():
    # the headline equality: antichain and order rowmotion share their order.
    # Iterating past the true period on generic posets blows up exact values
    # exponentially, so compare where the order is finite and small.
    for a, b, d in [(2, 2, 2), (2, 2, 3), (2, 3, 2)]:
        p = chain_product(a, b)
        backend = MatrixRing(d)
        bar = labeling_orbit_report(p, backend, "bar", seed=1, max_iter=10)
        bor = labeling_orbit_report(p, backend, "bor", seed=1, max_iter=10)
        assert bar.order == bor.order == a + b


def _verify_all_rows(shared):
    """Each row of `verify --all` in the CLI's order, or the GenericityFailure it raised.

    ``shared``: one backend and one poset object per spec across all checks, as
    the CLI builds them; otherwise a fresh backend and poset for every check.
    """
    specs = default_check_specs()
    backend_objects = {s.backend_spec: parse_backend(s.backend_spec) for s in specs}
    posets = {s.poset_spec: build_poset(s.poset_spec) for s in specs}
    rows = []
    for s in specs:
        if shared:
            poset, backend = posets[s.poset_spec], backend_objects[s.backend_spec]
        else:
            poset, backend = build_poset(s.poset_spec), parse_backend(s.backend_spec)
        try:
            rows.append(run_check(s, poset=poset, backend=backend))
        except GenericityFailure as exc:
            rows.append(f"GenericityFailure: {exc}")
    return rows


@pytest.mark.parametrize("sample_range", [backends.DEFAULT_SAMPLE_RANGE, (1, 3)])
def test_shared_registry_points_give_the_rows_of_fresh_draws(monkeypatch, sample_range):
    # (1, 3) makes matrix:2 points degenerate often: 232 redraws, and four checks
    # that stay degenerate through every retry, with the same rows either way.
    monkeypatch.setattr(backends, "DEFAULT_SAMPLE_RANGE", sample_range)
    shared = _verify_all_rows(shared=True)
    assert shared == _verify_all_rows(shared=False)
    raised = [r for r in shared if isinstance(r, str)]
    retries = sum(r["retries"] for r in shared if not isinstance(r, str))
    if sample_range == (1, 3):
        assert retries == 232 and len(raised) == 4
        assert all("rootA 3/matrix:2: point 2 stayed degenerate" in r for r in raised)
    else:
        assert retries == 0 and not raised


def test_verify_draws_each_registry_point_once_per_backend(monkeypatch, tmp_path):
    draws, alive = Counter(), []

    def counting_backend(spec, *args, **kwargs):
        b = parse_backend(spec, *args, **kwargs)

        class Counting(type(b)):
            def sample_generic(self, seed):
                draws[spec] += 1
                return super().sample_generic(seed)
        b.__class__ = Counting
        alive.append(weakref.ref(b))
        return b
    monkeypatch.setattr(cli, "parse_backend", counting_backend)
    entries = len(harness._POINTS)
    assert report_digest(tmp_path, "verify", "--all", "--points", "20") == \
        "d8f12b75edc468d9bc71d93ae8061bc82088ad8c2fa95ffe67649e36a77e7f64"
    # both default posets have six elements, so the two share each point's 20 seeds
    assert draws == {"rational": 6 * 20, "tropical": 6 * 20, "matrix:2": 6 * 20}
    gc.collect()
    assert alive and all(ref() is None for ref in alive)
    assert len(harness._POINTS) == entries


@pytest.mark.parametrize("backend", ["rational", "tropical", "matrix:2"])
def test_verify_all_with_a_backend_runs_each_theorem_once_per_poset(capsys, backend):
    assert cli.main(["verify", "--all", "--points", "2", "--backend", backend,
                     "--format", "json"]) == 0
    pairs = [(r["theorem"], r["poset"]) for r in json.loads(capsys.readouterr().out)]
    assert len(pairs) == len(set(pairs)) == len(THEOREMS) * len(harness.DEFAULT_VERIFY_POSETS)
    assert len(pairs) == 24


def test_orbit_reports_draw_afresh():
    b = RationalField()
    labeling_orbit_report(chain_product(2, 2), b, "bar", seed=1)
    assert b not in harness._POINTS


def test_a_backend_that_cannot_be_weakly_keyed_draws_afresh():
    class ValueEqual(RationalField):
        __hash__ = None

        def __eq__(self, other):
            return isinstance(other, RationalField)
    spec = CheckSpec("tau-star", "rootA 3", "rational", points=5, seed=9)
    assert run_check(spec, backend=ValueEqual()) == run_check(spec)


# -- checks recorded once and replayed, against the direct checks ------------------


def _first_difference(equalities):
    """How a check's pairs end: ("unequal", k) at the first unequal pair k,
    ("degenerate", k) when pair k raises NotInvertible, else ("equal", pairs)."""
    it, k = iter(equalities), 0
    while True:
        try:
            equal = next(it)
        except StopIteration:
            return "equal", k
        except NotInvertible:
            return "degenerate", k
        if not equal:
            return "unequal", k
        k += 1


class ReversedInverseTransfer(Dynamics):
    """Mutant: the inverse transfer recurrence multiplies its sum on the other side."""

    def _inv_transfer(self, f, elements, down):
        add, mul = self.backend.add, self.backend.mul
        covers = self.poset.down_adjacency if down else self.poset.up_adjacency
        out = [None] * self.poset.n
        for x in elements:
            acc = None
            for y in covers[x]:
                acc = out[y] if acc is None else add(acc, out[y])
            out[x] = f[x] if acc is None else (mul(acc, f[x]) if down else mul(f[x], acc))
        return out


class BottomUpEta(Dynamics):
    """Mutant: eta_word toggles the strict lower set bottom-up."""

    def eta_word(self, elements):
        return tuple(reversed(super().eta_word(elements)))


def _bridge_posets():
    return ([build_poset("chain 2x3"), build_poset("rootA 3")]
            + [random_graded_poset(derive_seed("recorded-bridge", s)) for s in range(3)])


@pytest.mark.parametrize("backend_spec", ["rational", "tropical", "matrix:2", "matrix:3"])
def test_recorded_bridge_checks_end_like_the_direct_ones(monkeypatch, backend_spec):
    # Every check, replayed against its pairs evaluated directly, both sides
    # given one seeded aux.  Generic labelings, then central labels in ±1, whose
    # sums often vanish, so pairs degenerate at every stage; the mutants make
    # pairs unequal.
    b = parse_backend(backend_spec)
    seen = Counter()
    # On matrix:3 the reversed products' gyration labels grow for about 10 s a labeling.
    mutants = (BottomUpEta,) if backend_spec == "matrix:3" else (ReversedInverseTransfer, BottomUpEta)
    for dynamics in (Dynamics, *mutants):
        monkeypatch.setattr(harness, "Dynamics", dynamics)
        for p in _bridge_posets():
            rng = random.Random(derive_seed("recorded-bridge", p.serialize()))
            labelings = [random_labeling(b, p, derive_seed("recorded-bridge", k)) for k in range(2)]
            labelings += [tuple(b.central_from_rational(rng.choice((-1, 1))) for _ in range(p.n))
                          for _ in range(4)]
            for theorem, thm in THEOREMS.items():
                if thm.needs_graded and not p.is_graded:
                    continue
                replay = harness._record(thm.pairs, p, b)
                for k, g in enumerate(labelings):
                    aux = harness._aux(b, "recorded-bridge", k)
                    direct = _first_difference(
                        lhs == rhs for lhs, rhs in thm.pairs(dynamics(p, b), g, aux))
                    assert _first_difference(replay(g, aux)) == direct, (theorem, p.serialize(), g)
                    seen[direct[0]] += 1
    # tropical inversion is total, so nothing degenerates there
    assert seen["equal"] and seen["unequal"] and (seen["degenerate"] or b.is_tropical)


@pytest.mark.parametrize("rhs, outcome", [
    (lambda b, g: (*g[:-1], b.mul(g[-1], b.constant_c())), ("unequal", 1)),  # the last label only
    (lambda b, g: g[:-1], ("unequal", 1)),  # one label short
    (lambda b, g: (b.mul(b.one(), g[0]), *g[1:]), ("equal", 2)),
])
def test_a_replayed_pair_compares_every_label(rhs, outcome):
    p, b = chain_product(2, 3), RationalField()
    replay = harness._record(lambda dyn, g, aux: iter([(g, g), (g, rhs(dyn.backend, g))]), p, b)
    assert _first_difference(replay(random_labeling(b, p, 1), harness._aux(b, 1))) == outcome


def _direct(pairs, poset, backend):
    """The oracle put in place of ``harness._record``: ``pairs`` evaluated afresh
    at each point, on the current ``harness.Dynamics``."""
    dyn = harness.Dynamics(poset, backend)
    return lambda g, aux: (lhs == rhs for lhs, rhs in pairs(dyn, g, aux))


def _registry_rows(monkeypatch, recorded, points=harness.DEFAULT_POINTS):
    """The rows of `verify --all` on the current ``harness.Dynamics``, or the
    GenericityFailure each raised: as run, or with every check evaluated directly
    at each point."""
    rows = []
    with monkeypatch.context() as m:
        if not recorded:
            m.setattr(harness, "_record", _direct)
        for s in default_check_specs(points=points):
            try:
                rows.append(run_check(s))
            except GenericityFailure as exc:
                rows.append(f"GenericityFailure: {exc}")
    return rows


def test_recorded_bridge_rows_equal_direct_rows_at_sample_range_1_3(monkeypatch):
    # (1, 3) makes points degenerate often, so both paths must redraw the same points.
    monkeypatch.setattr(backends, "DEFAULT_SAMPLE_RANGE", (1, 3))
    recorded = _registry_rows(monkeypatch, recorded=True)
    assert recorded == _registry_rows(monkeypatch, recorded=False)
    raised = [r for r in recorded if isinstance(r, str)]
    assert sum(r["retries"] for r in recorded if not isinstance(r, str)) == 232
    assert len(raised) == 4 and all("rootA 3/matrix:2: point 2 stayed" in r for r in raised)


class ComparingDynamics(Dynamics):
    """A Dynamics that branches on whether two labels are equal."""

    def theta(self, f):
        if f and f[0] == f[-1]:
            return super().theta(f[::-1])
        return super().theta(f)


def test_a_check_that_compares_labels_while_it_runs_raises_when_recorded(monkeypatch):
    monkeypatch.setattr(harness, "Dynamics", ComparingDynamics)
    with pytest.raises(TypeError, match="compared a label"):
        run_check(CheckSpec("t-star", "chain 2x3", "rational", points=2))


def test_bridge_checks_record_their_words_once_per_run_check(monkeypatch):
    # A check calls Dynamics only while it is recorded: as often at 1 point as at 20.
    calls = []

    class Counting(Dynamics):
        def __getattribute__(self, name):
            attr = super().__getattribute__(name)
            if name.startswith("_") or name == "random_labeling" or not callable(attr):
                return attr

            def counted(*args, **kwargs):
                calls.append(name)
                return attr(*args, **kwargs)
            return counted
    monkeypatch.setattr(harness, "Dynamics", Counting)
    for theorem in THEOREMS:
        counts = []
        for points in (1, 20):
            calls.clear()
            run_check(CheckSpec(theorem, "chain 2x3", "matrix:2", points=points))
            counts.append(Counter(calls))
        # reciprocity calls only the backend
        assert counts[0] == counts[1] and (counts[0] or theorem == "reciprocity"), theorem


def test_each_check_runs_its_pairs_once_per_run_check(monkeypatch):
    for theorem, thm in THEOREMS.items():
        calls = []

        def counted(dyn, g, aux, pairs=thm.pairs):
            calls.append(theorem)
            return pairs(dyn, g, aux)
        monkeypatch.setitem(THEOREMS, theorem, dataclasses.replace(thm, pairs=counted))
        rep = run_check(CheckSpec(theorem, "chain 2x3", "matrix:2", points=20))
        assert rep["passes"] == 20 and calls == [theorem]


@pytest.mark.parametrize("theorem", ["rescale-bar", "rescale-rank"])
def test_checks_that_draw_build_one_generator_per_attempt(monkeypatch, theorem):
    # Recorded once, the drawn scalars are replay inputs: one vector per point, not per run.
    draws = []

    class Drawing(random.Random):
        def __init__(self, seed):
            draws.append([])
            super().__init__(seed)

        def randint(self, a, b):
            draws[-1].append(super().randint(a, b))
            return draws[-1][-1]
    p, b = build_poset("chain 2x3"), parse_backend("matrix:2")
    monkeypatch.setattr(harness, "random", SimpleNamespace(Random=Drawing))
    monkeypatch.setattr(backends, "DEFAULT_SAMPLE_RANGE", (1, 3))  # so some points redraw
    rep = run_check(CheckSpec(theorem, "chain 2x3", "matrix:2", points=20), poset=p, backend=b)
    assert rep["retries"] > 0 and len(draws) == rep["points"] + rep["retries"]
    assert len({tuple(d) for d in draws}) > 1
    draws.clear()  # a check that draws nothing builds no generator
    run_check(CheckSpec("bar-transfer", "chain 2x3", "matrix:2", points=20), poset=p, backend=b)
    assert draws == []


def test_a_recorded_check_knows_which_registers_are_central():
    seen = []

    def pairs(dyn, g, aux):
        b = dyn.backend
        x, y = aux(2)
        seen.extend(b.is_central(v) for v in (x, b.mul(x, y), b.invert(b.add(x, b.one())),
                                              b.product([b.constant_c(), y, x])))
        with pytest.raises(TypeError, match="central"):
            b.is_central(b.mul(x, g[0]))
        b.is_central(g[0])
        yield g, g
    with pytest.raises(TypeError, match="asked whether a label is central"):
        harness._record(pairs, chain_product(2, 3), MatrixRing(2))
    assert seen == [True] * 4
    # so graded_rescale's guard stops a label used as a scalar while it is recorded
    with pytest.raises(TypeError, match="central"):
        harness._record(lambda dyn, g, aux: iter([(dyn.graded_rescale(g[:4], g), g)]),
                        chain_product(2, 3), MatrixRing(2))


# The add/mul/invert steps of each default row's recorded program, on chain 2x3 and
# rootA 3, taken while toggle words still fused each run of atoms into one sweep:
# value numbering records the same ops when the atoms are applied one at a time.
RECORDED_OPS = {
    "bar-transfer": (51, 39), "commutation": (45, 41), "extension-independence": (60, 52),
    "gyration": (91, 83), "involution": (94, 82), "meteor-gorge": (111, 103),
    "nor-transfer": (56, 50), "reciprocity": (21, 21), "rescale-bar": (76, 67),
    "rescale-rank": (76, 67), "t-star": (277, 220), "tau-star": (307, 231),
}
RECORDED_NC_GYRATION_OPS = (144, 116)  # the starred order word, not the rank word


def test_each_default_row_records_a_pinned_number_of_ops():
    specs = default_check_specs()
    for spec in specs:
        p, b = build_poset(spec.poset_spec), parse_backend(spec.backend_spec)
        rec = harness._Recorder(b, p.n)
        for _ in THEOREMS[spec.theorem].pairs(Dynamics(p, rec), rec.labels, rec.draw):
            pass
        ops = sum(name in ("add", "mul", "invert") for name, *_ in rec.steps)
        pinned = (RECORDED_NC_GYRATION_OPS if spec.theorem == "gyration" and not b.is_commutative
                  else RECORDED_OPS[spec.theorem])
        assert ops == pinned[harness.DEFAULT_VERIFY_POSETS.index(spec.poset_spec)], spec
    assert len(specs) == 52


@pytest.mark.parametrize("backend", ["rational", "matrix:2"])
def test_reciprocity_checks_every_operand_count(monkeypatch, backend):
    # A parallel sum that squares its fourth of exactly four operands fails at every point.
    def squares_a_fourth_operand(b, values):
        values = list(values)
        if len(values) == 4:
            values[3] = b.mul(values[3], values[3])
        return parallel_sum(b, values)
    monkeypatch.setattr(harness, "parallel_sum", squares_a_fourth_operand)
    rep = run_check(CheckSpec("reciprocity", "chain 2x3", backend))
    assert rep["failures"] == rep["points"] == 20


@pytest.mark.parametrize("mutant", [ReversedInverseTransfer, BottomUpEta])
def test_mutants_fail_the_same_bridge_rows_recorded_and_direct(monkeypatch, mutant):
    monkeypatch.setattr(harness, "Dynamics", mutant)
    recorded = _registry_rows(monkeypatch, recorded=True, points=3)
    assert recorded == _registry_rows(monkeypatch, recorded=False, points=3)
    assert any(r["status"] == "fail" for r in recorded)
