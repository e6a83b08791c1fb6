"""Command-line entry point.

Subcommands: poset (build/inspect/serialize), orbit, verify, scan,
homomesy.  Exit codes: 0 all-pass, 1 check failure, 2 usage error,
3 genericity failure after the retry budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import harness, polytopes, subsets
from .backends import RationalField, parse_backend
from .dynamics import Dynamics, detect_order
from .errors import GenericityFailure, RowmotionError
from .harness import THEOREMS, CheckSpec, build_poset, emit_report

REALM_BACKENDS = {"birational": "rational", "nc": "matrix:2", "tropical": "tropical"}


def _default_seed():
    env = os.environ.get("ROWMOTION_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"ROWMOTION_SEED must be an integer, got {env!r}") from None


def _add_common(sp, formats=("text", "json", "csv")):
    sp.add_argument("--poset", required=True,
                    help="poset spec: 'chain AxB', 'rootA M', 'random N SEED', or a file path")
    sp.add_argument("--format", choices=formats, default="text")
    sp.add_argument("--out", help="write the report here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rowmotion",
        description="Exact rowmotion and toggle dynamics on finite posets.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("poset", help="build, inspect, and serialize posets")
    _add_common(sp, formats=("text", "json"))
    sp.add_argument("--serialize", metavar="PATH",
                    help="write the poset text format ('-' for stdout)")

    sp = sub.add_parser("orbit", help="orbit structure of a rowmotion map")
    _add_common(sp)
    sp.add_argument("--realm", choices=["comb", "pl", "birational", "nc", "tropical"],
                    default="comb")
    sp.add_argument("--map", dest="map_id",
                    help="comb: rowA|rowJ|rowF; pl: order|antichain; else: bar|bor")
    sp.add_argument("--backend", help="rational | matrix:d | tropical")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--const-c", dest="const_c", help="central constant C as p/q")
    sp.add_argument("--max-iter", type=int, default=None,
                    help=f"step cap (default {harness.DEFAULT_MAX_ITER}; not for --realm comb)")
    sp.add_argument("--labeling", help="JSON array of numbers or 'p/q' strings (pl realm)")

    sp = sub.add_parser("verify", help="run theorem checks from the registry")
    sp.add_argument("--all", action="store_true", help="run every registered theorem")
    sp.add_argument("--theorem", action="append", default=[],
                    help="theorem id (repeatable); see --list")
    sp.add_argument("--list", action="store_true", help="list theorem ids and exit")
    sp.add_argument("--poset", action="append", default=[],
                    help="poset spec (repeatable; default: "
                         f"{' and '.join(harness.DEFAULT_VERIFY_POSETS)})")
    sp.add_argument("--backend", help="override the theorem's default backends")
    sp.add_argument("--const-c", dest="const_c", help="central constant C as p/q")
    sp.add_argument("--points", type=int, default=harness.DEFAULT_POINTS)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--format", choices=["text", "json", "csv"], default="text")
    sp.add_argument("--out")
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="progress lines on stderr while checks run")

    sp = sub.add_parser("scan", help="observed rowmotion orders on chain products")
    sp.add_argument("--max", dest="max_ab", default="3x3",
                    help=f"scan up to AxB, each side at most {harness.SCAN_ELEMENT_BUDGET}")
    sp.add_argument("--backend", default="matrix:2")
    sp.add_argument("--map", dest="map_id", choices=["bor", "bar"], default="bor")
    sp.add_argument("--seeds", type=int, default=3, help="number of seeds per poset")
    sp.add_argument("--seed", type=int, default=None, help="base seed")
    sp.add_argument("--max-iter", type=int, default=harness.DEFAULT_MAX_ITER)
    sp.add_argument("--format", choices=["text", "json", "csv"], default="text")
    sp.add_argument("--out")

    sp = sub.add_parser("homomesy", help="orbit statistic averages, combinatorial realm")
    _add_common(sp)
    sp.add_argument("--map", dest="map_id", choices=["rowA", "rowJ", "rowF"],
                    default="rowA")
    return parser


def _at_least_one(flag, value, at_most=None):
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    if at_most is not None and value > at_most:
        raise ValueError(f"{flag} must be at most {at_most}, got {value}")
    return value


def _emit(rows, fmt, out):
    data = emit_report(rows, format=fmt)
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


_COMB_MAPS = {
    "rowA": (subsets.rowmotion_antichain, subsets.all_antichains),
    "rowJ": (subsets.rowmotion_ideal, subsets.all_ideals),
    "rowF": (subsets.rowmotion_filter, subsets.all_filters),
}


def _comb_orbit_rows(p, map_id):
    """One report row per orbit of a combinatorial map, and the orbits."""
    step, states_of = _COMB_MAPS[map_id]
    orbits = subsets.orbit_partition(p, step, states_of(p))
    rows = [{"map": map_id, "orbit": i, "size": len(orb),
             "cardinality_average": str(subsets.orbit_average(orb))}
            for i, orb in enumerate(orbits)]
    return rows, orbits


def cmd_poset(args):
    p = build_poset(args.poset)
    if args.serialize:
        text = p.serialize()
        if args.serialize == "-":
            sys.stdout.write(text)
        else:
            with open(args.serialize, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.serialize}")
        return 0
    # Chains from the bottom to each element: the inverse down transfer of all-ones labels.
    dyn = Dynamics(p, RationalField())
    paths = dyn.inv_down_transfer(dyn.labeling([Fraction(1)] * p.n))
    info = {
        "elements": p.n,
        "names": list(p.element_names),
        "covers": sorted([u, v] for (u, v) in p.covers),
        "graded": p.is_graded,
        "ranks": list(p.rank) if p.rank is not None else None,
        "linear_extension": list(p.default_linear_extension),
        "maximal_chains": int(sum(paths[m] for m in p.maximal_elements())),
    }
    if args.format == "json":
        out = json.dumps(info, indent=2, sort_keys=True) + "\n"
    else:
        out = "\n".join(f"{k}: {v}" for k, v in info.items()) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


_PL_MAPS = {
    "antichain": (polytopes.random_chain_polytope_point, polytopes.pl_antichain_rowmotion),
    "order": (polytopes.random_order_polytope_point, polytopes.pl_order_rowmotion),
}


def _parse_const_c(text):
    """The --const-c value as an exact Fraction, or None when the flag is absent."""
    if text is None:
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--const-c {text!r}: zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"--const-c {text!r}: {exc}") from None


def _parse_backend(spec, const_c_text):
    """``parse_backend(spec)`` with the --const-c value, so that an error the
    value causes (C = 0 outside the tropical backend) names the flag."""
    backend = parse_backend(spec)
    const_c = _parse_const_c(const_c_text)
    if const_c is None:
        return backend
    try:
        return parse_backend(spec, const_c=const_c)
    except ValueError as exc:
        raise ValueError(f"--const-c {const_c_text!r}: {exc}") from None


def _parse_labeling(p, text):
    """A JSON array of numbers or 'p/q' strings; decimals are read exactly."""
    try:
        values = json.loads(text, parse_float=Fraction)
        if not isinstance(values, list):
            raise ValueError("not a JSON array")
        return polytopes.as_labeling(p, values)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"--labeling {text!r}: {exc}") from None


def cmd_orbit(args):
    realm = args.realm
    for flag, value, realms in (("--const-c", args.const_c, ("comb", "pl")),
                                ("--backend", args.backend, ("comb", "pl")),
                                ("--labeling", args.labeling, ("comb", *REALM_BACKENDS)),
                                ("--seed", args.seed, ("comb",)),
                                ("--max-iter", args.max_iter, ("comb",))):
        if value is not None and realm in realms:
            raise ValueError(f"{flag} has no effect for --realm {realm}")
    if args.seed is not None and args.labeling is not None:
        raise ValueError(f"--seed has no effect for --realm {realm} with --labeling")
    max_iter = (harness.DEFAULT_MAX_ITER if args.max_iter is None
                else _at_least_one("--max-iter", args.max_iter, harness.MAX_ITER_LIMIT))
    p = build_poset(args.poset)
    size = p.n + len(p.covers)
    if realm != "comb" and max_iter * size > harness.ORBIT_WORK_BUDGET:
        raise ValueError(f"--max-iter {max_iter} is too many steps for a poset of {p.n} elements "
                         f"and {len(p.covers)} covers: steps x (elements + covers) must be at most "
                         f"{harness.ORBIT_WORK_BUDGET}, so at most "
                         f"{harness.ORBIT_WORK_BUDGET // size} steps here")
    seed = args.seed if args.seed is not None else _default_seed()
    if realm == "comb":
        map_id = args.map_id or "rowA"
        if map_id not in _COMB_MAPS:
            raise ValueError(f"--map for combinatorial orbits must be one of {sorted(_COMB_MAPS)}")
        rows, orbits = _comb_orbit_rows(p, map_id)
        for row, orb in zip(rows, orbits):
            row["states"] = " ".join(
                "{" + ",".join(p.element_names[v] for v in sorted(s.members)) + "}" for s in orb)
        _emit(rows, args.format, args.out)
        # A json or csv report on stdout stays parseable: the order goes beside it.
        print(f"order {subsets.map_order(orbits)}",
              file=sys.stderr if args.format != "text" and not args.out else sys.stdout)
        return 0
    if realm == "pl":
        map_id = args.map_id or "antichain"
        if map_id not in _PL_MAPS:
            raise ValueError("--map for the pl realm must be 'order' or 'antichain'")
        sample, rowmotion = _PL_MAPS[map_id]
        start = _parse_labeling(p, args.labeling) if args.labeling else sample(p, seed)
        order = detect_order(lambda f: rowmotion(p, f), start, lambda a, b: a == b,
                             max_iter=max_iter)
        report = {"map": f"pl-{map_id}", "poset": args.poset, "seed": seed,
                  "order": order if order is not None else "exceeded"}
        if args.labeling:  # a given labeling draws no seed
            del report["seed"]
        _emit([report], args.format, args.out)
        return 0
    backend = _parse_backend(args.backend or REALM_BACKENDS[realm], args.const_c)
    if backend.describe().split(":")[0] != REALM_BACKENDS[realm].split(":")[0]:
        raise ValueError(f"--backend {backend.describe()} is inconsistent with --realm {realm}")
    map_id = args.map_id or "bar"
    if map_id not in ("bar", "bor"):
        raise ValueError("--map for algebraic realms must be 'bar' or 'bor'")
    rep = harness.labeling_orbit_report(p, backend, map_id, seed,
                                        poset_name=args.poset, max_iter=max_iter)
    _emit([rep.to_dict()], args.format, args.out)
    return 0


def cmd_verify(args):
    if args.list:
        for tid in sorted(THEOREMS):
            print(f"{tid}: {THEOREMS[tid].description}")
        return 0
    if args.all and args.theorem:
        raise ValueError("--theorem has no effect with --all")
    theorems = list(dict.fromkeys(args.theorem)) or sorted(THEOREMS)  # repeats run once
    points = _at_least_one("--points", args.points)
    poset_specs = list(dict.fromkeys(args.poset)) or list(harness.DEFAULT_VERIFY_POSETS)
    seed = args.seed if args.seed is not None else _default_seed()
    for tid in theorems:
        if tid not in THEOREMS:
            raise ValueError(f"unknown theorem {tid!r}; try --list")
    plan = [(tid, (args.backend,) if args.backend else THEOREMS[tid].default_backends)
            for tid in theorems]
    # Every backend and poset is built before any check runs, so a bad spec exits at once.
    backends = {bs: _parse_backend(bs, args.const_c) for _, specs in plan for bs in specs}
    posets = {ps: build_poset(ps) for ps in poset_specs}
    reports = []
    for tid, specs in plan:
        for ps in poset_specs:
            for bs in specs:
                if args.verbose:
                    print(f"checking {tid} on {ps} over {bs}: "
                          f"{THEOREMS[tid].description}", file=sys.stderr)
                reports.append(harness.run_check(
                    CheckSpec(tid, ps, bs, points=points, seed=seed),
                    poset=posets[ps], backend=backends[bs]))
    reports.sort(key=lambda r: (r["theorem"], r["poset"], r["backend"], r["seed"]))
    _emit(reports, args.format, args.out)
    failed = sum(r["failures"] for r in reports)
    return 1 if failed else 0


def cmd_scan(args):
    try:
        a_max, b_max = (int(x) for x in args.max_ab.split("x", 1))
    except ValueError:
        raise ValueError(f"--max expects AxB, got {args.max_ab!r}") from None
    _at_least_one("--max", min(a_max, b_max))
    if max(a_max, b_max) > harness.SCAN_ELEMENT_BUDGET:  # every cell past it reads skipped
        raise ValueError(f"--max {args.max_ab}: each side must be at most "
                         f"SCAN_ELEMENT_BUDGET = {harness.SCAN_ELEMENT_BUDGET}")
    base = args.seed if args.seed is not None else _default_seed()
    seeds = [base + i for i in range(_at_least_one("--seeds", args.seeds))]
    rows = harness.scan_conjecture(a_max, b_max, args.backend, seeds=seeds, map_id=args.map_id,
                                   max_iter=_at_least_one("--max-iter", args.max_iter,
                                                          harness.MAX_ITER_LIMIT))
    _emit(rows, args.format, args.out)
    return 0


def cmd_homomesy(args):
    p = build_poset(args.poset)
    rows, _ = _comb_orbit_rows(p, args.map_id)
    averages = {r["cardinality_average"] for r in rows}
    rows.append({"map": args.map_id, "orbit": "ALL", "size": sum(r["size"] for r in rows),
                 "cardinality_average": "homomesic" if len(averages) == 1 else "NOT homomesic"})
    _emit(rows, args.format, args.out)
    return 0


_COMMANDS = {
    "poset": cmd_poset,
    "orbit": cmd_orbit,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "homomesy": cmd_homomesy,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GenericityFailure as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, RowmotionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
