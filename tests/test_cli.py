import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rowmotion import cli as cli_module
from rowmotion.cli import main
from rowmotion.errors import NotInvertible
from rowmotion.harness import (DEFAULT_MAX_ITER, MAX_ITER_LIMIT, ORBIT_WORK_BUDGET,
                               SCAN_ELEMENT_BUDGET, THEOREMS, TheoremCheck, build_poset)
from rowmotion.poset import MAX_ELEMENTS

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poset_inspect(capsys):
    code, out, _ = run(capsys, "poset", "--poset", "chain 2x3")
    assert code == 0
    assert "elements: 6" in out
    assert "maximal_chains: 3" in out


def test_poset_counts_chains_past_the_enumeration_budget(capsys):
    code, out, _ = run(capsys, "poset", "--poset", "chain 12x13")
    assert code == 0
    assert "maximal_chains: 1352078" in out  # binomial(23, 11)


def test_poset_serialize_roundtrip(capsys, tmp_path):
    path = tmp_path / "out.poset"
    code, _, _ = run(capsys, "poset", "--poset", "rootA 3", "--serialize", str(path))
    assert code == 0
    code, out, _ = run(capsys, "poset", "--poset", str(path))
    assert code == 0 and "elements: 6" in out


def test_orbit_comb_prints_order_five(capsys):
    code, out, _ = run(capsys, "orbit", "--realm", "comb",
                       "--poset", "chain 2x3", "--map", "rowA")
    assert code == 0
    assert "order 5" in out


def test_orbit_comb_filter_map(capsys):
    code, out, _ = run(capsys, "orbit", "--realm", "comb",
                       "--poset", "chain 2x2", "--map", "rowF")
    assert code == 0
    assert "order 4" in out


def test_orbit_missing_poset_file_exit_2(capsys):
    code, _, err = run(capsys, "orbit", "--poset", "missing.poset")
    assert code == 2
    assert "missing.poset" in err


def test_orbit_max_iter_at_the_limit_runs(capsys):
    code, out, _ = run(capsys, "orbit", "--realm", "tropical", "--poset", "chain 2x2",
                       "--max-iter", str(MAX_ITER_LIMIT), "--format", "json")
    assert code == 0 and json.loads(out)[0]["order"] == 4


def test_poset_spec_naming_a_directory_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "poset", "--poset", str(tmp_path))
    assert code == 2 and not out
    assert err.startswith("error: ") and str(tmp_path) in err


def test_orbit_out_naming_a_directory_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "orbit", "--poset", "chain 2x2", "--out", str(tmp_path))
    assert code == 2 and not out
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_orbit_comb_report_on_stdout_parses_with_the_order_on_stderr(capsys, fmt):
    code, out, err = run(capsys, "orbit", "--realm", "comb", "--poset", "chain 1x2",
                         "--format", fmt)
    assert code == 0 and err == "order 3\n"
    if fmt == "json":
        rows = json.loads(out)
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["size"]) for r in rows] == [3]


def test_verify_empty_poset_passes(capsys):
    code, out, err = run(capsys, "verify", "--poset", "random 0 1", "--points", "1",
                         "--format", "json")
    assert code == 0, err
    assert {r["status"] for r in json.loads(out)} == {"pass"}


def test_poset_empty_poset_is_graded_with_no_ranks(capsys):
    code, out, _ = run(capsys, "poset", "--poset", "random 0 1", "--format", "json")
    info = json.loads(out)
    assert code == 0 and info["graded"] is True and info["ranks"] == []


@pytest.mark.parametrize("realm,spec,canonical", [
    ("tropical", "Tropical", "tropical"),
    ("nc", "MATRIX:2", "matrix:2"),
    ("birational", " Rational ", "rational"),
])
def test_orbit_backend_spec_is_normalized_before_the_realm_check(capsys, realm, spec, canonical):
    argv = ("orbit", "--realm", realm, "--poset", "chain 2x2", "--format", "json")
    code, out, err = run(capsys, *argv, "--backend", spec)
    assert code == 0, err
    assert json.loads(out)[0]["backend"] == canonical
    assert out == run(capsys, *argv, "--backend", canonical)[1]


def test_orbit_backend_realm_mismatch_names_the_parsed_backend(capsys):
    code, _, err = run(capsys, "orbit", "--realm", "tropical", "--poset", "chain 2x2",
                       "--backend", " MATRIX:2")
    assert code == 2 and err == "error: --backend matrix:2 is inconsistent with --realm tropical\n"


def test_scan_reports_the_parsed_backend(capsys):
    code, out, _ = run(capsys, "scan", "--max", "1x2", "--backend", " MATRIX:2", "--seeds", "1",
                       "--format", "json")
    assert code == 0 and {r["backend"] for r in json.loads(out)} == {"matrix:2"}


def test_orbit_birational_json(capsys):
    code, out, _ = run(capsys, "orbit", "--realm", "birational",
                       "--poset", "chain 2x3", "--map", "bar",
                       "--seed", "5", "--format", "json")
    assert code == 0
    rep = json.loads(out)[0]
    assert rep["order"] == 5 and rep["backend"] == "rational"


def test_orbit_nc_backend_const_c(capsys):
    code, out, _ = run(capsys, "orbit", "--realm", "nc", "--poset", "chain 2x2",
                       "--map", "bor", "--backend", "matrix:3",
                       "--const-c", "7/3", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["order"] == 4


def test_orbit_backend_realm_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "orbit", "--realm", "birational",
                       "--poset", "chain 2x2", "--backend", "matrix:2")
    assert code == 2 and "inconsistent" in err


def test_orbit_pl_with_labeling(capsys):
    labeling = json.dumps(["1/8", "1/8", "1/8", "1/8", "1/8", "1/8"])
    code, out, _ = run(capsys, "orbit", "--realm", "pl", "--poset", "chain 2x3",
                       "--map", "antichain", "--labeling", labeling,
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["order"] == 5


def test_orbit_pl_labeling_reads_decimals_exactly(capsys):
    # ten times 0.1 is exactly 1, on the chain polytope's boundary
    labeling = "[" + ",".join(["0.1"] * 10) + "]"
    code, out, err = run(capsys, "orbit", "--realm", "pl", "--poset", "chain 1x10",
                         "--labeling", labeling, "--format", "json")
    assert code == 0, err
    assert json.loads(out)[0]["order"] == 11


def test_orbit_pl_with_labeling_reports_no_seed(capsys, monkeypatch):
    # a given labeling draws nothing, so neither the row nor its bytes carry a seed
    argv = ("orbit", "--realm", "pl", "--poset", "chain 1x2",
            "--labeling", '["1/4","1/4"]', "--format", "json")
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and "seed" not in json.loads(plain)[0]
    monkeypatch.setenv("ROWMOTION_SEED", "7")
    code, seeded, _ = run(capsys, *argv)
    assert code == 0 and seeded == plain


def test_orbit_pl_labels_past_the_bit_bound_exit_2(capsys, monkeypatch):
    # PL orbits run through the same label-size stop as the algebraic ones.
    monkeypatch.setattr("rowmotion.dynamics.MAX_LABEL_BITS", 3)
    code, out, err = run(capsys, "orbit", "--realm", "pl", "--poset", "chain 1x2",
                         "--labeling", '["1/4","1/4"]')
    assert code == 2 and not out
    assert err == "error: a label outgrew MAX_LABEL_BITS = 3 bits at step 1\n"


@pytest.mark.parametrize("spec", ["matrix:40", "matrix:x"])
def test_orbit_rejects_bad_matrix_dimension_at_once(capsys, spec):
    start = time.perf_counter()
    code, out, err = run(capsys, "orbit", "--realm", "nc", "--poset", "chain 2x3",
                         "--backend", spec)
    assert code == 2 and spec in err and not out
    assert time.perf_counter() - start < 1.0


def test_verify_single_theorem(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "bar-transfer",
                       "--poset", "chain 2x3", "--points", "5", "--seed", "7")
    assert code == 0
    assert "pass" in out


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--poset", "chain 2x2",
                       "--points", "2", "--seed", "1", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert {r["theorem"] for r in reports} == set(THEOREMS)
    assert all(r["failures"] == 0 for r in reports)


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    for tid in THEOREMS:
        assert tid in out


def test_verify_unknown_theorem_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "fermat")
    assert code == 2 and "fermat" in err


def test_verify_failure_exit_1(capsys, monkeypatch):
    monkeypatch.setitem(THEOREMS, "always-false",
                        TheoremCheck(lambda dyn, g, rng: False, False,
                                     ("rational",), "fixture"))
    code, out, _ = run(capsys, "verify", "--theorem", "always-false",
                       "--poset", "chain 1x1", "--points", "2")
    assert code == 1
    assert "fail" in out


def test_verify_builds_each_poset_once_before_any_check_runs(capsys, monkeypatch):
    built = []

    def recording_build(spec, build=cli_module.build_poset):
        built.append(spec)
        return build(spec)
    monkeypatch.setattr("rowmotion.cli.build_poset", recording_build)
    monkeypatch.setattr("rowmotion.harness.build_poset", recording_build)
    code, _, err = run(capsys, "verify", "--theorem", "gyration", "--poset", "chain 2x3",
                       "--poset", "chain 9x", "-v")
    assert code == 2 and "'chain 9x'" in err and "checking" not in err
    built.clear()
    code, _, _ = run(capsys, "verify", "--theorem", "reciprocity", "--theorem", "involution",
                     "--poset", "chain 2x2", "--points", "2")
    assert code == 0 and built == ["chain 2x2"]


def test_verify_repeated_theorem_and_poset_run_once(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "reciprocity", "--poset", "chain 1x2",
                       "--theorem", "reciprocity", "--poset", "chain 1x2", "--points", "2",
                       "--format", "json")
    rows = json.loads(out)
    assert code == 0 and len(rows) == len(THEOREMS["reciprocity"].default_backends)


def test_verify_genericity_failure_exit_3(capsys, monkeypatch):
    def always_degenerate(dyn, g, rng):
        raise NotInvertible(context="forced")
    monkeypatch.setitem(THEOREMS, "always-degenerate",
                        TheoremCheck(always_degenerate, False, ("rational",), "fixture"))
    code, _, err = run(capsys, "verify", "--theorem", "always-degenerate",
                       "--poset", "chain 1x1", "--points", "1")
    assert code == 3
    assert "genericity" in err


def test_scan_text_and_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "scan", "--max", "2x2", "--backend", "rational",
                       "--seeds", "2")
    assert code == 0 and "consistent" in out
    path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--max", "2x2", "--backend", "rational",
                     "--seeds", "1", "--format", "csv", "--out", str(path))
    assert code == 0
    assert path.read_text().splitlines()[0] == "a,b,backend,observed,expected,status"


def test_homomesy_table(capsys):
    code, out, _ = run(capsys, "homomesy", "--poset", "chain 2x3", "--map", "rowA")
    assert code == 0
    assert "6/5" in out and "homomesic" in out


def test_json_report_roundtrips(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "reciprocity",
                       "--poset", "chain 2x2", "--points", "3", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert all({"theorem", "poset", "backend", "seed", "points",
                "passes", "failures", "retries", "status"} <= set(r) for r in reports)


def test_env_seed_respected(capsys, monkeypatch):
    monkeypatch.setenv("ROWMOTION_SEED", "99")
    code, out, _ = run(capsys, "verify", "--theorem", "involution",
                       "--poset", "chain 1x1", "--points", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["seed"] == 99


def test_non_integer_env_seed_exits_2_naming_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("ROWMOTION_SEED", "abc")
    code, out, err = run(capsys, "verify", "--theorem", "involution",
                         "--poset", "chain 1x1", "--points", "1")
    assert code == 2 and not out
    assert err == "error: ROWMOTION_SEED must be an integer, got 'abc'\n"


def test_poset_json_format(capsys):
    code, out, _ = run(capsys, "poset", "--poset", "chain 2x2", "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["elements"] == 4 and info["graded"]


def test_poset_refuses_csv_format(capsys):
    # poset prints text or json only; argparse exits 2 naming the flag
    with pytest.raises(SystemExit) as exc:
        main(["poset", "--poset", "chain 2x2", "--format", "csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and "--format" in captured.err and not captured.out


def test_orbit_out_file(capsys, tmp_path):
    path = tmp_path / "orbit.json"
    code, out, _ = run(capsys, "orbit", "--realm", "comb", "--poset", "chain 2x2",
                       "--map", "rowJ", "--format", "json", "--out", str(path))
    assert code == 0
    rows = json.loads(path.read_text())
    assert sum(r["size"] for r in rows) == 6  # ideals of the 2x2 grid
    assert "order 4" in out


def test_output_deterministic_across_runs(capsys):
    args = ("verify", "--theorem", "meteor-gorge", "--poset", "rootA 3",
            "--points", "4", "--seed", "3", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("argv,flag", [
    (("scan", "--seeds", "0"), "--seeds"),
    (("scan", "--max", "3"), "--max"),
    (("scan", "--max-iter", "0"), "--max-iter"),
    (("orbit", "--realm", "birational", "--poset", "chain 2x2", "--max-iter", "0"),
     "--max-iter"),
    (("orbit", "--realm", "birational", "--poset", "chain 2x2", "--max-iter", "-1"),
     "--max-iter"),
    (("orbit", "--realm", "pl", "--poset", "chain 2x2", "--labeling", "[1"), "--labeling"),
    (("orbit", "--realm", "pl", "--poset", "chain 1x1", "--labeling", "{}"), "--labeling"),
    (("orbit", "--realm", "nc", "--poset", "chain 2x2", "--const-c", "1/0"), "--const-c"),
    (("verify", "--theorem", "involution", "--points", "2", "--const-c", "1/0"), "--const-c"),
    (("orbit", "--realm", "nc", "--poset", "chain 2x2", "--const-c", "abc"), "--const-c"),
    (("poset", "--poset", "rootA x"), "'rootA x'"),
    (("poset", "--poset", "chain axb"), "'chain axb'"),
    (("poset", "--poset", "random 5 x"), "'random 5 x'"),
    (("orbit", "--realm", "birational", "--poset", "chain 2x2", "--const-c", "0"),
     "--const-c '0'"),
    (("orbit", "--realm", "nc", "--poset", "chain 2x2", "--const-c", "0"), "--const-c '0'"),
    (("verify", "--theorem", "involution", "--points", "2", "--const-c", "0"), "--const-c '0'"),
    (("orbit", "--realm", "comb", "--poset", "chain 2x2", "--const-c", "2"),
     "--const-c has no effect for --realm comb"),
    (("orbit", "--realm", "pl", "--poset", "chain 2x2", "--const-c", "1"),
     "--const-c has no effect for --realm pl"),
    (("orbit", "--realm", "comb", "--poset", "chain 2x2", "--backend", "garbage"),
     "--backend has no effect for --realm comb"),
    (("orbit", "--realm", "pl", "--poset", "chain 2x2", "--backend", "rational"),
     "--backend has no effect for --realm pl"),
    (("orbit", "--realm", "birational", "--poset", "chain 1x1", "--labeling", "[1]"),
     "--labeling has no effect for --realm birational"),
    (("orbit", "--realm", "tropical", "--poset", "chain 1x1", "--labeling", "[1]"),
     "--labeling has no effect for --realm tropical"),
    (("orbit", "--realm", "comb", "--poset", "chain 2x2", "--seed", "9"),
     "--seed has no effect for --realm comb"),
    (("orbit", "--poset", "chain 2x2", "--max-iter", "3"),
     "--max-iter has no effect for --realm comb"),
    (("orbit", "--realm", "pl", "--poset", "chain 1x2", "--labeling", '["1/4","1/4"]',
      "--seed", "9"), "--seed has no effect for --realm pl"),
    (("scan", "--max", "0x3"), "--max must be at least 1"),
    (("scan", "--max", "2x0"), "--max must be at least 1"),
    (("scan", "--max=-1x2"), "--max must be at least 1"),
    (("verify", "--theorem", "involution", "--points", "0"), "--points must be at least 1"),
    (("verify", "--theorem", "involution", "--points", "-3"), "--points must be at least 1"),
    (("verify", "--all", "--theorem", "involution"), "--theorem has no effect with --all"),
    (("orbit", "--realm", "tropical", "--poset", "random 10 3", "--max-iter", "100000000"),
     f"--max-iter must be at most {MAX_ITER_LIMIT}"),
    (("orbit", "--realm", "pl", "--poset", "random 10 3", "--max-iter", str(MAX_ITER_LIMIT + 1)),
     f"--max-iter must be at most {MAX_ITER_LIMIT}"),
    (("scan", "--max-iter", "100000000"), f"--max-iter must be at most {MAX_ITER_LIMIT}"),
    (("orbit", "--realm", "tropical", "--poset", "chain 9x", "--max-iter", "100000000"),
     f"--max-iter must be at most {MAX_ITER_LIMIT}"),  # refused before the poset is built
    (("orbit", "--realm", "tropical", "--poset", "random 40 2", "--max-iter", "4096"),
     "--max-iter 4096 is too many steps for a poset of 40 elements and 70 covers"),
    (("orbit", "--realm", "pl", "--poset", "random 200 1", "--max-iter", "4096"),
     "--max-iter 4096 is too many steps for a poset of 200 elements"),
    (("orbit", "--realm", "tropical", "--poset", "chain 30x30"),  # the default 64 steps
     "--max-iter 64 is too many steps for a poset of 900 elements"),
    (("scan", "--max", "1500x1500"), "--max 1500x1500: each side must be at most "
     f"SCAN_ELEMENT_BUDGET = {SCAN_ELEMENT_BUDGET}"),
    (("scan", "--max", "13x1"), "SCAN_ELEMENT_BUDGET"),
    (("scan", "--max", f"1x{SCAN_ELEMENT_BUDGET + 1}", "--backend", "garbage"),
     "SCAN_ELEMENT_BUDGET"),  # refused before the backend is built
])
def test_bad_values_exit_2_naming_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and flag in err and not out


def test_orbit_work_budget_admits_the_documented_cases(capsys):
    for spec, steps in (("random 10 3", MAX_ITER_LIMIT), ("chain 2x2", MAX_ITER_LIMIT),
                        ("random 200 1", DEFAULT_MAX_ITER)):
        p = build_poset(spec)
        assert steps * (p.n + len(p.covers)) <= ORBIT_WORK_BUDGET, spec
    code, out, _ = run(capsys, "orbit", "--realm", "tropical", "--poset", "chain 2x2",
                       "--max-iter", str(MAX_ITER_LIMIT), "--format", "json")
    assert code == 0 and json.loads(out)[0]["order"] == 4


@pytest.mark.parametrize("theorems", [
    ("--all",),
    ("--theorem", "tropical-only", "--theorem", "involution"),
])
def test_verify_const_c_zero_exits_before_any_check_runs(capsys, monkeypatch, theorems):
    # C = 0 is valid for the tropical backend only; the first other backend
    # must be refused before any check runs, even when tropical checks come first.
    monkeypatch.setitem(THEOREMS, "tropical-only",
                        TheoremCheck(lambda dyn, g, rng: True, False, ("tropical",), "fixture"))
    checked = []
    monkeypatch.setattr("rowmotion.harness.run_check", lambda *a, **k: checked.append(a))
    code, out, err = run(capsys, "verify", *theorems, "--poset", "chain 1x1",
                         "--points", "2", "--const-c", "0")
    assert code == 2 and "--const-c '0'" in err and not out
    assert checked == []


def test_tropical_const_c_zero_is_the_max_plus_unit(capsys):
    code, out, _ = run(capsys, "orbit", "--realm", "tropical", "--poset", "chain 2x2",
                       "--const-c", "0", "--format", "json")
    assert code == 0 and json.loads(out)[0]["order"] == 4


def _poset_file(tmp_path, n):
    path = tmp_path / "big.poset"
    path.write_text(f"{n}\n0<1\n")
    return str(path)


@pytest.mark.parametrize("spec", [
    f"chain 1x{MAX_ELEMENTS + 1}",
    f"random {MAX_ELEMENTS + 1} 1",
    f"rootA {math.isqrt(2 * MAX_ELEMENTS) + 1}",  # m(m + 1)/2 > MAX_ELEMENTS
    _poset_file,
])
def test_poset_size_limit_exits_2_at_once(capsys, tmp_path, spec):
    if callable(spec):
        spec = spec(tmp_path, MAX_ELEMENTS + 1)
    start = time.perf_counter()
    code, out, err = run(capsys, "poset", "--poset", spec)
    assert code == 2 and not out
    assert spec in err and f"limit of {MAX_ELEMENTS}" in err
    assert time.perf_counter() - start < 1.0


def test_poset_largest_admitted_size_builds(capsys, tmp_path):
    for spec in (f"chain 1x{MAX_ELEMENTS}", _poset_file(tmp_path, MAX_ELEMENTS)):
        code, out, _ = run(capsys, "poset", "--poset", spec)
        assert code == 0 and f"elements: {MAX_ELEMENTS}" in out


@pytest.mark.parametrize("realm", ["birational", "nc"])
def test_orbit_of_non_periodic_labels_stops_at_the_label_size_bound(realm):
    # Labels on "random 7 1" grow without bound, so each step takes longer
    # than the one before; the run must stop on its own.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-m", "rowmotion.cli", "orbit", "--realm", realm,
         "--poset", "random 7 1", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)[0]
    assert report["order"] == "exceeded" and report["iterates"] < 64


def test_orbit_comb_refuses_large_state_space_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "orbit", "--realm", "comb", "--poset", "chain 4x6")
    assert code == 2 and "24 elements" in err
    assert time.perf_counter() - start < 1.0
