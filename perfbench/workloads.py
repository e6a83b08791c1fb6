"""The benchmark's three workloads, built from a seed, and their correctness gate.

A workload is a fixed list of operations.  Each operation calls only the
package's public functions and returns an :class:`Outcome`: the report rows
it contributes, plus the facts the gate checks against known exact answers.
The gate is a pure function of the outcomes, so a test can feed it a wrong
answer without touching the library.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from rowmotion import dynamics, harness, polytopes, subsets
from rowmotion.backends import parse_backend

VERIFY_POSETS = ("chain 2x3", "rootA 3")
VERIFY_POINTS = 20
ORBIT_GRIDS = ((3, 3), (4, 4), (5, 5), (2, 8))
SCAN_MAX = (3, 4)            # `rowmotion scan --max 3x4`: every a<=b with ab <= 12
MATRIX3_GRIDS = ((2, 3), (3, 3))
WALK_GRIDS = ((6, 6), (8, 8))
ORBIT_SEEDS = 3
MAX_ITER = harness.DEFAULT_MAX_ITER
CENSUS_POSETS = ("chain 4x4", "rootA 5", "chain 3x6")   # plus "random 16 <seed>"
COMB_MAPS = ("rowA", "rowJ", "rowF")


@dataclass
class Outcome:
    """What one operation produced: report rows and the facts to check."""

    rows: list
    facts: dict


@dataclass(frozen=True)
class Op:
    label: str
    category: str
    run: Callable  # (backends by spec, posets by spec) -> Outcome


@dataclass
class Workload:
    name: str
    posets: dict
    backends: dict
    ops: list
    chain_posets: tuple  # posets whose maximal-chain index the operations read
    build_s: float = 0.0
    chain_index_s: float = 0.0

    def report(self, outcomes):
        """The pass's report bytes, emitted the way the CLI emits them."""
        rows = [row for o in outcomes if o is not None for row in o.rows]
        if self.name == "verify-registry":
            rows.sort(key=lambda r: (r["theorem"], r["poset"], r["backend"], r["seed"]))
        return harness.emit_report(rows, "json")


def grid_spec(a, b):
    return f"chain {a}x{b}"


def _seeds(workload, seed, count):
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(10**6) for _ in range(count)]


# -- verify-registry -----------------------------------------------------------


def _verify_op(spec):
    def run(backends, posets):
        report = harness.run_check(spec, poset=posets[spec.poset_spec],
                                   backend=backends[spec.backend_spec])
        return Outcome([report], {"kind": "check", "report": report})
    return run


def _verify_ops(seed):
    """The checks of `rowmotion verify --all --points 20`, in the CLI's order."""
    return [Op(f"{s.theorem} / {s.poset_spec} / {s.backend_spec}", f"check:{s.backend_spec}",
               _verify_op(s))
            for s in harness.default_check_specs(VERIFY_POSETS, VERIFY_POINTS, seed)]


# -- orbit-scan ------------------------------------------------------------------


def _labeling_orbit_op(spec, a, b, bs, map_id, s):
    def run(backends, posets):
        rep = harness.labeling_orbit_report(posets[spec], backends[bs], map_id, s,
                                            poset_name=spec, max_iter=MAX_ITER)
        return Outcome([rep.to_dict()], {"kind": "order", "order": rep.order,
                                         "expected": a + b})
    return run


_PL_MAPS = {
    "antichain": ("random_chain_polytope_point", "pl_antichain_rowmotion"),
    "order": ("random_order_polytope_point", "pl_order_rowmotion"),
}


def _pl_op(spec, a, b, kind, s):
    sampler, stepper = _PL_MAPS[kind]

    def run(backends, posets):
        p = posets[spec]
        start = getattr(polytopes, sampler)(p, s)
        rowmotion = getattr(polytopes, stepper)
        order = dynamics.detect_order(lambda f: rowmotion(p, f), start,
                                      lambda x, y: x == y, max_iter=MAX_ITER)
        row = {"map": f"pl-{kind}", "poset": spec, "seed": s,
               "order": order if order is not None else "exceeded"}
        return Outcome([row], {"kind": "order", "order": order, "expected": a + b})
    return run


_COMB_STEPS = {
    "rowA": ("rowmotion_antichain", "all_antichains"),
    "rowJ": ("rowmotion_ideal", "all_ideals"),
    "rowF": ("rowmotion_filter", "all_filters"),
}


def expected_average(spec, map_id):
    """The known exact orbit average of the state cardinality, or None.

    Antichains: ab/(a+b) on [a]x[b] and m/2 on the type A_m root poset.
    Ideals and filters of [a]x[b]: ab/2.
    """
    kind, size = spec.split(" ", 1)
    if kind == "chain":
        a, b = (int(x) for x in size.split("x"))
        return Fraction(a * b, a + b) if map_id == "rowA" else Fraction(a * b, 2)
    if kind == "rootA" and map_id == "rowA":
        return Fraction(int(size), 2)
    return None


def expected_order(spec):
    """Combinatorial rowmotion on [a]x[b] has order exactly a+b."""
    kind, size = spec.split(" ", 1)
    if kind == "chain":
        a, b = (int(x) for x in size.split("x"))
        return a + b
    return None


def _walk_op(spec, map_id, s):
    step_name, _ = _COMB_STEPS[map_id]

    def run(backends, posets):
        p = posets[spec]
        rng = random.Random(s)
        tops = rng.sample(range(p.n), rng.randint(1, 4))
        ideal = subsets.ideal(p, set().union(*(p.down_set(v) for v in tops)))
        start = {"rowJ": ideal,
                 "rowA": subsets.up_transfer(p, ideal),
                 "rowF": subsets.complement(p, ideal)}[map_id]
        orbit = subsets.orbit(p, getattr(subsets, step_name), start)
        average = Fraction(sum(len(x) for x in orbit), len(orbit))
        row = {"map": map_id, "poset": spec, "seed": s, "size": len(orbit),
               "cardinality_average": str(average)}
        return Outcome([row], {"kind": "walk", "size": len(orbit), "average": average,
                               "period": expected_order(spec),
                               "expected_average": expected_average(spec, map_id)})
    return run


def _orbit_ops(seed):
    seeds = _seeds("orbit-scan", seed, ORBIT_SEEDS)
    ops = []
    for a, b in ORBIT_GRIDS:
        spec = grid_spec(a, b)
        for map_id in ("bar", "bor"):
            for bs in ("rational", "tropical"):
                for s in seeds:
                    ops.append(Op(f"{map_id} / {spec} / {bs} / {s}", f"{map_id}:{bs}",
                                  _labeling_orbit_op(spec, a, b, bs, map_id, s)))
        for kind in _PL_MAPS:
            for s in seeds:
                ops.append(Op(f"pl-{kind} / {spec} / {s}", f"pl-{kind}",
                              _pl_op(spec, a, b, kind, s)))
    for a, b in scan_grids():
        spec = grid_spec(a, b)
        for map_id in ("bar", "bor"):
            for s in seeds:
                ops.append(Op(f"{map_id} / {spec} / matrix:2 / {s}", f"{map_id}:matrix:2",
                              _labeling_orbit_op(spec, a, b, "matrix:2", map_id, s)))
    for a, b in MATRIX3_GRIDS:
        spec = grid_spec(a, b)
        for map_id in ("bar", "bor"):
            for s in seeds:
                ops.append(Op(f"{map_id} / {spec} / matrix:3 / {s}", f"{map_id}:matrix:3",
                              _labeling_orbit_op(spec, a, b, "matrix:3", map_id, s)))
    for a, b in WALK_GRIDS:
        spec = grid_spec(a, b)
        for map_id in COMB_MAPS:
            for s in seeds:
                ops.append(Op(f"walk {map_id} / {spec} / {s}", "comb-walk",
                              _walk_op(spec, map_id, s)))
    return ops


def scan_grids():
    a_max, b_max = SCAN_MAX
    return [(a, b) for a in range(1, a_max + 1) for b in range(a, b_max + 1)
            if a * b <= 12]


# -- comb-census -------------------------------------------------------------------


def _census_op(spec, map_id):
    step_name, enum_name = _COMB_STEPS[map_id]

    def run(backends, posets):
        p = posets[spec]
        states = getattr(subsets, enum_name)(p)
        orbits = subsets.orbit_partition(p, getattr(subsets, step_name), states)
        sizes = [len(o) for o in orbits]
        averages = [Fraction(sum(len(s) for s in o), len(o)) for o in orbits]
        rows = [{"poset": spec, "map": map_id, "orbit": i, "size": len(orb),
                 "cardinality_average": str(avg),
                 "states": " ".join("{" + ",".join(p.element_names[v] for v in sorted(s.members))
                                    + "}" for s in orb)}
                for i, (orb, avg) in enumerate(zip(orbits, averages))]
        return Outcome(rows, {"kind": "census", "poset": spec, "states": len(states),
                              "sizes": sizes, "averages": averages,
                              "period": expected_order(spec),
                              "expected_average": expected_average(spec, map_id)})
    return run


def census_specs(seed):
    return CENSUS_POSETS + (f"random 16 {_seeds('comb-census', seed, 1)[0]}",)


def _census_ops(seed):
    return [Op(f"census {map_id} / {spec}", f"census:{map_id}", _census_op(spec, map_id))
            for spec in census_specs(seed) for map_id in COMB_MAPS]


# -- construction -------------------------------------------------------------------


WORKLOADS = ("verify-registry", "orbit-scan", "comb-census")


def build(name, seed):
    """Posets, backends and the operation list of one workload.

    Times the poset builds and the first fill of the maximal-chain index,
    which every CLI invocation pays as well.
    """
    if name == "verify-registry":
        ops, specs, chain_specs = _verify_ops(seed), VERIFY_POSETS, VERIFY_POSETS
        backend_specs = sorted({bs for t in harness.THEOREMS.values() for bs in t.default_backends})
    elif name == "orbit-scan":
        ops = _orbit_ops(seed)
        chain_grids = list(ORBIT_GRIDS) + scan_grids() + list(MATRIX3_GRIDS)
        chain_specs = tuple(dict.fromkeys(grid_spec(a, b) for a, b in chain_grids))
        specs = chain_specs + tuple(grid_spec(a, b) for a, b in WALK_GRIDS)
        backend_specs = ["rational", "tropical", "matrix:2", "matrix:3"]
    elif name == "comb-census":
        ops, specs, chain_specs, backend_specs = _census_ops(seed), census_specs(seed), (), []
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    t0 = time.perf_counter()
    posets = {spec: harness.build_poset(spec) for spec in specs}
    backends = {bs: parse_backend(bs) for bs in backend_specs}
    t1 = time.perf_counter()
    for spec in chain_specs:
        p = posets[spec]
        p.maximal_chains()
        p.chains_through(0)
    t2 = time.perf_counter()
    return Workload(name, posets, backends, ops, tuple(chain_specs),
                    build_s=t1 - t0, chain_index_s=t2 - t1)


# -- the correctness gate --------------------------------------------------------------


def check_outcome(facts):
    """Problems with one operation's answer, judged against exact known values."""
    kind = facts["kind"]
    problems = []
    if kind == "check":
        r = facts["report"]
        if r.get("status") != "pass":
            problems.append(f"check status {r.get('status')!r}")
        if r.get("passes") != r.get("points") or r.get("failures") != 0:
            problems.append(f"{r.get('failures')} failing points of {r.get('points')}")
    elif kind == "order":
        if facts["order"] != facts["expected"]:
            problems.append(f"orbit order {facts['order']} != a+b = {facts['expected']}")
    elif kind == "walk":
        period = facts["period"]
        if period is not None and period % facts["size"]:
            problems.append(f"orbit size {facts['size']} does not divide a+b = {period}")
        if facts["expected_average"] is not None and facts["average"] != facts["expected_average"]:
            problems.append(f"orbit average {facts['average']} != {facts['expected_average']}")
    elif kind == "census":
        if sum(facts["sizes"]) != facts["states"]:
            problems.append(f"orbit sizes sum to {sum(facts['sizes'])}, "
                            f"not the {facts['states']} states")
        period = facts["period"]
        if period is not None and math.lcm(*facts["sizes"]) != period:
            problems.append(f"map order {math.lcm(*facts['sizes'])} != a+b = {period}")
        expected = facts["expected_average"]
        if expected is not None and any(x != expected for x in facts["averages"]):
            problems.append(f"cardinality averages {sorted(set(facts['averages']))} "
                            f"are not all {expected}")
    else:
        problems.append(f"unknown outcome kind {kind!r}")
    return problems


def gate(outcomes):
    """Problems per operation; None marks an operation that raised.

    Beyond each answer on its own, the orbit-size multisets of rowA, rowJ
    and rowF on one poset must agree, since the three maps are conjugate.
    """
    problems = [["raised an exception"] if o is None else check_outcome(o.facts)
                for o in outcomes]
    census = {}
    for i, o in enumerate(outcomes):
        if o is not None and o.facts["kind"] == "census":
            census.setdefault(o.facts["poset"], []).append(i)
    for spec, idx in census.items():
        multisets = {tuple(sorted(outcomes[i].facts["sizes"])) for i in idx}
        if len(multisets) > 1:
            for i in idx:
                problems[i].append(f"orbit-size multisets differ across maps on {spec}")
    return problems
