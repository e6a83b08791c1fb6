"""Command-line entry point.

Subcommands: poset (build/inspect/serialize), orbit, verify, scan,
homomesy.  Exit codes: 0 all-pass, 1 check failure, 2 usage error,
3 genericity failure after the retry budget.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import re
import sys
from fractions import Fraction

from . import harness, polytopes, subsets
from .backends import RationalField, parse_backend
from .dynamics import Dynamics, detect_order
from .errors import GenericityFailure, RowmotionError
from .harness import THEOREMS, build_poset, emit_report

REALM_BACKENDS = {"birational": "rational", "nc": "matrix:2", "tropical": "tropical"}


def _default_seed():
    env = os.environ.get("ROWMOTION_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"ROWMOTION_SEED must be an integer, got {env!r}") from None


_POSET_HELP = "poset spec: 'chain AxB', 'rootA M', 'random N SEED', or a file path"


def _add_output(sp, formats=("text", "json", "csv")):
    sp.add_argument("--format", choices=formats, default="text")
    sp.add_argument("--out", help="write the report here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rowmotion",
        description="Exact rowmotion and toggle dynamics on finite posets.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("poset", help="build, inspect, and serialize posets")
    sp.add_argument("--poset", required=True, help=_POSET_HELP)
    _add_output(sp, formats=("text", "json"))
    sp.add_argument("--serialize", metavar="PATH",
                    help="write the poset text format ('-' for stdout)")

    sp = sub.add_parser("orbit", help="orbit structure of a rowmotion map")
    sp.add_argument("--poset", required=True, help=_POSET_HELP)
    _add_output(sp)
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
    sp.add_argument("--points", type=int, default=harness.DEFAULT_POINTS,
                    help=f"sample points per check, at most {harness.MAX_SAMPLES}")
    sp.add_argument("--seed", type=int, default=None)
    _add_output(sp)
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="progress lines on stderr while checks run")

    sp = sub.add_parser("scan", help="observed rowmotion orders on chain products")
    sp.add_argument("--max", dest="max_ab", default="3x3",
                    help=f"scan up to AxB, each side at most {harness.SCAN_ELEMENT_BUDGET}")
    sp.add_argument("--backend", default="matrix:2")
    sp.add_argument("--map", dest="map_id", choices=["bor", "bar"], default="bor")
    sp.add_argument("--seeds", type=int, default=3,
                    help=f"number of seeds per poset, at most {harness.MAX_SAMPLES}")
    sp.add_argument("--seed", type=int, default=None, help="base seed")
    sp.add_argument("--max-iter", type=int, default=harness.DEFAULT_MAX_ITER)
    _add_output(sp)

    sp = sub.add_parser("homomesy", help="orbit statistic averages, combinatorial realm")
    sp.add_argument("--poset", required=True, help=_POSET_HELP)
    _add_output(sp)
    sp.add_argument("--map", dest="map_id", choices=["rowA", "rowJ", "rowF"],
                    default="rowA")
    return parser


def _at_least_one(flag, value, at_most=None):
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    if at_most is not None and value > at_most:
        raise ValueError(f"{flag} must be at most {at_most}, got {value}")
    return value


def _write(data, out):
    """The bytes ``data`` into the file ``out``, or as text to stdout when it is None."""
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
        _write(p.serialize().encode(), None if args.serialize == "-" else args.serialize)
        if args.serialize != "-":
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
    _write(out.encode(), args.out)
    return 0


_PL_MAPS = {
    "antichain": (polytopes.random_chain_polytope_point, "antichain_rowmotion"),
    "order": (polytopes.random_order_polytope_point, "order_rowmotion"),
}


def _parse_backend(spec, const_c_text):
    """``parse_backend(spec)`` with the --const-c text as C, built by one call.  On an
    error the spec is parsed again without C: a bad spec is the error reported, and
    otherwise the error names the flag (a malformed value, or C = 0 outside the
    tropical backend)."""
    try:
        const_c = None if const_c_text is None else _fraction(const_c_text)
        return parse_backend(spec, const_c=const_c)
    except (ValueError, ZeroDivisionError) as exc:
        parse_backend(spec)
        reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise ValueError(f"--const-c {const_c_text!r}: {reason}") from None


def _fraction(text):
    """``Fraction(text)``, refused first when a decimal exponent exceeds Python's
    integer digit limit: ``Fraction('1e-10000000')`` spends seconds on 10**10000000."""
    exponent = re.search(r"[eE][-+]?(\d[\d_]*)", text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()  # 4300 before 3.10.7
    if exponent and limit and int(exponent[1]) > limit:
        raise ValueError(f"a decimal exponent must be at most {limit}, got {exponent[1]}")
    return Fraction(text)


def _parse_labeling(p, text):
    """A JSON array of numbers or 'p/q' strings; decimals are read exactly."""
    try:
        values = json.loads(text, parse_float=_fraction, parse_constant=_fraction)
        if not isinstance(values, list):
            raise ValueError("not a JSON array")
        if any(isinstance(v, bool) for v in values):  # Fraction(True) is 1
            raise ValueError("true and false are not numbers")
        return polytopes.as_labeling(p, [_fraction(v) if isinstance(v, str) else v for v in values])
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
        _write(emit_report(rows, format=args.format), args.out)
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
        order = detect_order(lambda f: polytopes.pl_apply(p, rowmotion, f), start,
                             operator.eq, max_iter=max_iter)
        report = {"map": f"pl-{map_id}", "poset": args.poset, "seed": seed,
                  "order": order if order is not None else "exceeded"}
        if args.labeling:  # a given labeling draws no seed
            del report["seed"]
        _write(emit_report([report], format=args.format), args.out)
        return 0
    backend = _parse_backend(args.backend or REALM_BACKENDS[realm], args.const_c)
    if backend.describe().split(":")[0] != REALM_BACKENDS[realm].split(":")[0]:
        raise ValueError(f"--backend {backend.describe()} is inconsistent with --realm {realm}")
    map_id = args.map_id or "bar"
    if map_id not in ("bar", "bor"):
        raise ValueError("--map for algebraic realms must be 'bar' or 'bor'")
    rep = harness.labeling_orbit_report(p, backend, map_id, seed,
                                        poset_name=args.poset, max_iter=max_iter)
    _write(emit_report([rep.to_dict()], format=args.format), args.out)
    return 0


def cmd_verify(args):
    if args.list:
        for tid in sorted(THEOREMS):
            print(f"{tid}: {THEOREMS[tid].description}")
        return 0
    if args.all and args.theorem:
        raise ValueError("--theorem has no effect with --all")
    points = _at_least_one("--points", args.points, harness.MAX_SAMPLES)
    seed = args.seed if args.seed is not None else _default_seed()
    specs = harness.default_check_specs(args.poset or harness.DEFAULT_VERIFY_POSETS, points,
                                        seed, theorems=args.theorem, backend=args.backend)
    # Every backend and poset is built before any check runs, so a bad spec exits at once.
    backends = {bs: _parse_backend(bs, args.const_c)
                for bs in dict.fromkeys(s.backend_spec for s in specs)}
    posets = {ps: build_poset(ps) for ps in dict.fromkeys(s.poset_spec for s in specs)}
    reports = []
    for s in specs:
        if args.verbose:
            print(f"checking {s.theorem} on {s.poset_spec} over {s.backend_spec}: "
                  f"{THEOREMS[s.theorem].description}", file=sys.stderr)
        reports.append(harness.run_check(s, poset=posets[s.poset_spec],
                                         backend=backends[s.backend_spec]))
    reports.sort(key=lambda r: (r["theorem"], r["poset"], r["backend"], r["seed"]))
    _write(emit_report(reports, format=args.format), args.out)
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
    seeds = [base + i for i in range(_at_least_one("--seeds", args.seeds, harness.MAX_SAMPLES))]
    rows = harness.scan_conjecture(a_max, b_max, args.backend, seeds=seeds, map_id=args.map_id,
                                   max_iter=_at_least_one("--max-iter", args.max_iter,
                                                          harness.MAX_ITER_LIMIT))
    _write(emit_report(rows, format=args.format), args.out)
    return 0


def cmd_homomesy(args):
    p = build_poset(args.poset)
    rows, _ = _comb_orbit_rows(p, args.map_id)
    averages = {r["cardinality_average"] for r in rows}
    rows.append({"map": args.map_id, "orbit": "ALL", "size": sum(r["size"] for r in rows),
                 "cardinality_average": "homomesic" if len(averages) == 1 else "NOT homomesic"})
    _write(emit_report(rows, format=args.format), args.out)
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
