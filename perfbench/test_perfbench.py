"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from rowmotion import harness  # noqa: E402
from rowmotion.backends import parallel_sum, parse_backend  # noqa: E402
from rowmotion.errors import NotInvertible  # noqa: E402
from rowmotion.matrices import RationalMatrix  # noqa: E402
from workloads import Outcome  # noqa: E402

BACKENDS = ("rational", "tropical", "matrix:2", "matrix:3")


@pytest.mark.parametrize("spec", BACKENDS)
def test_traced_backend_equals_bare_backend(spec):
    bare = parse_backend(spec)
    tracer = layers.Tracer()
    traced = layers.TracedBackend(bare, tracer)
    xs = [bare.sample_generic(seed) for seed in range(6)]
    for x, y in zip(xs, xs[1:]):
        assert bare.equals(traced.add(x, y), bare.add(x, y))
        assert bare.equals(traced.mul(x, y), bare.mul(x, y))
        assert bare.equals(traced.invert(x), bare.invert(x))
        assert traced.equals(x, x) and not traced.equals(x, y)
    assert bare.equals(traced.sum(xs), bare.sum(xs))
    assert bare.equals(traced.product(xs), bare.product(xs))
    assert bare.equals(parallel_sum(traced, xs), parallel_sum(bare, xs))
    assert bare.equals(traced.sample_generic(7), bare.sample_generic(7))
    assert bare.equals(traced.one(), bare.one())
    assert bare.equals(traced.constant_c(), bare.constant_c())
    assert (traced.name, traced.describe()) == (bare.name, bare.describe())
    assert (traced.is_commutative, traced.is_tropical) == (bare.is_commutative, bare.is_tropical)
    key = layers.BACKEND_KEYS[spec]
    assert tracer.stat(f"backends.{key}.mul", "calls") > 0


def test_traced_backend_counts_not_invertible():
    tracer = layers.Tracer()
    traced = layers.TracedBackend(parse_backend("matrix:2"), tracer)
    with pytest.raises(NotInvertible):
        traced.invert(RationalMatrix(((1, 2), (2, 4))))
    assert tracer.counters["not_invertible"] == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_is_deterministic_in_its_seed(name):
    one, two, other = (workloads.build(name, s) for s in (5, 5, 6))
    assert [op.label for op in one.ops] == [op.label for op in two.ops]
    assert list(one.posets) == list(two.posets)
    first = [op.run(w.backends, w.posets).rows for w in (one, two) for op in w.ops[:1]]
    assert first[0] == first[1]
    if name != "verify-registry":
        assert [op.label for op in one.ops] != [op.label for op in other.ops]


def test_verify_registry_is_the_cli_check_list():
    w = workloads.build("verify-registry", 0)
    cli = [(theorem, ps, bs) for theorem in sorted(harness.THEOREMS)
           for ps in ("chain 2x3", "rootA 3")
           for bs in harness.THEOREMS[theorem].default_backends]
    assert [tuple(op.label.split(" / ")) for op in w.ops] == cli
    assert len(w.ops) == 52


def _census(spec, sizes, averages, states=None, map_id="rowA"):
    return Outcome([], {"kind": "census", "poset": spec,
                        "states": sum(sizes) if states is None else states,
                        "sizes": sizes, "averages": averages,
                        "period": workloads.expected_order(spec),
                        "expected_average": workloads.expected_average(spec, map_id)})


def test_gate_accepts_right_answers():
    report = {"status": "pass", "points": 20, "passes": 20, "failures": 0}
    outcomes = [
        Outcome([], {"kind": "check", "report": report}),
        Outcome([], {"kind": "order", "order": 7, "expected": 7}),
        Outcome([], {"kind": "walk", "size": 4, "average": Fraction(3),
                     "period": 12, "expected_average": Fraction(3)}),
        _census("chain 2x2", [4, 2], [Fraction(1), Fraction(1)]),
        _census("chain 2x2", [2, 4], [Fraction(2), Fraction(2)], map_id="rowJ"),
    ]
    assert workloads.gate(outcomes) == [[]] * len(outcomes)


@pytest.mark.parametrize("wrong", [
    Outcome([], {"kind": "check", "report": {"status": "fail", "points": 20,
                                             "passes": 19, "failures": 1}}),
    Outcome([], {"kind": "order", "order": 6, "expected": 7}),
    Outcome([], {"kind": "order", "order": None, "expected": 7}),
    Outcome([], {"kind": "walk", "size": 5, "average": Fraction(3),
                 "period": 12, "expected_average": Fraction(3)}),
    Outcome([], {"kind": "walk", "size": 4, "average": Fraction(5, 2),
                 "period": 12, "expected_average": Fraction(3)}),
    _census("chain 2x2", [4, 2], [Fraction(1), Fraction(1)], states=7),
    _census("chain 2x2", [3, 3], [Fraction(1)] * 2),
    _census("rootA 3", [8, 6], [Fraction(3, 2), Fraction(5, 3)]),
    None,
])
def test_gate_flags_a_wrong_answer(wrong):
    assert workloads.gate([wrong]) != [[]]


def test_gate_flags_orbit_multisets_that_differ_across_maps():
    outcomes = [_census("random 16 1", [4, 2], [Fraction(1)] * 2),
                _census("random 16 1", [3, 3], [Fraction(1)] * 2, map_id="rowJ")]
    assert all(workloads.gate(outcomes))


def test_traced_pass_reports_the_same_bytes_and_restores_the_library():
    w = workloads.build("orbit-scan", 3)
    keep = {"bar:rational", "bor:matrix:2", "pl-antichain", "comb-walk"}
    w.ops = [op for op in w.ops if op.category in keep and "5x5" not in op.label][:12]
    untraced = run.run_pass(w, w.backends)
    originals = (harness.Dynamics, harness.run_check, RationalMatrix.__matmul__)
    tracer = layers.Tracer()
    with layers.traced(tracer, w) as backends:
        traced = run.run_pass(w, backends, tracer)
    assert (harness.Dynamics, harness.run_check, RationalMatrix.__matmul__) == originals
    assert all("chains_through" not in p.__dict__ for p in w.posets.values())
    assert untraced.failed == traced.failed == 0
    assert traced.report == untraced.report
    assert tracer.stat("op", "calls") == len(w.ops)
    assert tracer.stat("dynamics.chain_sum", "calls") > 0


def test_self_time_excludes_child_spans():
    tracer = layers.Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")

    def body():
        for _ in range(3):
            tracer.call(inner, sum, range(20000))
    tracer.call(outer, body)
    assert tracer.parent[0] == -1 and list(tracer.parent[1:]) == [0, 0, 0]
    covered = sum(tracer.end[i] - tracer.start[i] for i in (1, 2, 3))
    whole = tracer.end[0] - tracer.start[0]
    assert tracer.stat("outer", "self_s") == pytest.approx(whole - covered)


@pytest.mark.parametrize("name, percentile", [("verify-registry", 95),
                                              ("orbit-scan", 98),
                                              ("comb-census", 89)])
def test_tail_percentile_keeps_ten_samples_beyond(name, percentile):
    ops = len(workloads.build(name, 0).ops)
    samples = run.min_passes(ops) * ops
    assert run.tail_percentile(ops) == percentile
    assert (1 - percentile / 100) * samples >= 10
    assert (1 - (percentile + 1) / 100) * samples < 10
