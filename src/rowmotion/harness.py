"""Theorem-to-test registry, randomized identity checks, and orbit scans.

Every identity is evaluated pointwise-exactly on random labelings; exact
arithmetic makes this a sound randomized equality test, so no symbolic
normal forms are needed.  Each check yields the labelings its identity
equates, and is recorded once per run as a program of backend ops, whose
drawn central scalars are inputs beside the labels, and replayed at every
point.  Degenerate sample points (singular matrices, vanishing sums) are
resampled with derived seeds up to a retry budget.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction

from .backends import (AlgebraBackend, TropicalSemiring, _to_max_plus_image, derive_seed,
                       parallel_sum, parse_backend)
from .dynamics import Atom, Dynamics, detect_order
from .errors import GenericityFailure, LabelsTooLarge, NotInvertible
from .poset import Poset, chain_product, parse_poset, random_poset, root_poset_a

DEFAULT_POINTS = 20
DEFAULT_MAX_RETRIES = 5
DEFAULT_MAX_ITER = 64
MAX_ITER_LIMIT = 4096  # 4096 steps on random 10 3: tropical under 0.1 s, PL about 0.3 s
ORBIT_WORK_BUDGET = 100_000  # steps x (elements + covers); at it a tropical orbit takes
# under 0.1 s and a PL orbit up to about 0.35 s (CPython 3.11.7, 2-vCPU host)
SCAN_ELEMENT_BUDGET = 12
MAX_SAMPLES = 1000  # verify --points and scan --seeds; verify --all at it takes about 9 s
DEFAULT_VERIFY_POSETS = ("chain 2x3", "rootA 3")
MODEL_NOTE = "generic-matrix evaluation (randomized identity testing, not symbolic)"


@dataclass(frozen=True)
class CheckSpec:
    theorem: str
    poset_spec: str
    backend_spec: str
    points: int = DEFAULT_POINTS
    seed: int = 0

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("need at least one sample point")


@dataclass
class OrbitReport:
    """Detected order of a map on one labeling, plus degeneracy bookkeeping."""

    map_id: str
    poset: str
    backend: str
    seed: int
    order: int | None
    iterates: int
    failures: int = 0  # degenerate starts that were resampled
    model: str | None = None

    def to_dict(self):
        out = {
            "map": self.map_id,
            "poset": self.poset,
            "backend": self.backend,
            "seed": self.seed,
            "order": self.order if self.order is not None else "exceeded",
            "iterates": self.iterates,
            "returned_to_start": self.order is not None,
            "minimal": self.order is not None,
            "failures": self.failures,
            "statistic_averages": {},
        }
        if self.model:
            out["model"] = self.model
        return out


# -- poset spec strings --------------------------------------------------------


def build_poset(spec):
    """Builders behind the CLI poset strings.

    "chain AxB" | "rootA M" | "random N SEED" | a file path in the poset
    text format.  Keywords and the x are read in any case; a file path keeps its
    own.  A malformed spec raises ValueError quoting the spec.
    """
    words = spec.lower().split()
    try:
        if words and words[0] == "chain" and len(words) == 2 and "x" in words[1]:
            a, b = words[1].split("x", 1)
            return chain_product(int(a), int(b))
        if words and words[0] == "roota" and len(words) == 2:
            return root_poset_a(int(words[1]))
        if words and words[0] == "random" and len(words) == 3:
            return random_poset(int(words[1]), int(words[2]))
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_poset(fh.read())
    except ValueError as exc:
        raise ValueError(f"poset spec {spec!r}: {exc}") from None


# -- theorem registry -----------------------------------------------------------


def _involution_pairs(dyn, g, aux):
    if dyn.backend.is_commutative:
        pairs = [(dyn.order_toggle, dyn.order_toggle),
                 (dyn.antichain_toggle, dyn.antichain_toggle)]
    else:  # NC toggles are not involutions; the analogue is the inverse pair.
        pairs = [(dyn.order_toggle, dyn.order_elggot), (dyn.order_elggot, dyn.order_toggle),
                 (dyn.antichain_toggle, dyn.antichain_elggot),
                 (dyn.antichain_elggot, dyn.antichain_toggle)]
    for v in range(dyn.poset.n):
        for do, undo in pairs:
            yield undo(v, do(v, g)), g


def _commutation_pairs(dyn, g, aux):
    p = dyn.poset
    order, anti = dyn.order_toggle, dyn.antichain_toggle
    for u in range(p.n):
        for v in range(u + 1, p.n):
            if (u, v) not in p.covers and (v, u) not in p.covers:
                yield order(u, order(v, g)), order(v, order(u, g))
            if p.incomparable(u, v):
                yield anti(u, anti(v, g)), anti(v, anti(u, g))


def _extension_independence_pairs(dyn, g, aux):
    p = dyn.poset
    # The dual poset's first linear extension, reversed, places the smallest maximal
    # element last; it equals the default extension only when p is a chain.
    one = p.default_linear_extension
    two = tuple(reversed(Poset(p.n, [(v, u) for u, v in p.covers]).default_linear_extension))
    if one != two:
        yield dyn.antichain_rowmotion(g, one), dyn.antichain_rowmotion(g, two)
        yield dyn.order_rowmotion(g, one), dyn.order_rowmotion(g, two)


def _reciprocity_pairs(dyn, g, aux):
    if not g:  # the empty poset has no labels to sum
        return
    b = dyn.backend
    for k in range(2, max(2, min(5, len(g))) + 1):  # every operand count, on a prefix of g
        xs = list(g[:k])
        par = parallel_sum(b, xs)
        inv_sum = b.sum([b.invert(x) for x in xs])
        yield (b.mul(par, inv_sum),), (b.one(),)
        yield (b.mul(inv_sum, par),), (b.one(),)


def _meteor_gorge_pairs(dyn, g, aux):
    b = dyn.backend
    nd = dyn.inv_down_transfer(g)
    du = dyn.inv_up_transfer(g)
    c = b.constant_c()
    for v in range(dyn.poset.n):
        both = b.invert(b.mul(nd[v], du[v]))
        tog = dyn.antichain_toggle(v, g)[v]
        yield (tog,), (b.mul(b.mul(c, both), g[v]),)
        yield (tog,), (b.product([c, b.invert(du[v]), b.invert(nd[v]), g[v]]),)
        yield (dyn.antichain_elggot(v, g)[v],), (b.product([c, g[v], both]),)


def _bar_transfer_pairs(dyn, g, aux):
    yield dyn.antichain_rowmotion(g), dyn.antichain_rowmotion_via_transfers(g)


def _nor_transfer_pairs(dyn, g, aux):
    yield dyn.order_rowmotion(g), dyn.order_rowmotion_via_transfers(g)


def _bridge_pairs(dyn, g, words):
    """theta o inv-up carries each antichain-side word to its order-side partner:
    per (antichain word, order word), the bridge after the first and the second
    after the bridge."""
    side = dyn.theta(dyn.inv_up_transfer(g))
    for anti, order in words:
        yield dyn.theta(dyn.inv_up_transfer(dyn.apply_word(anti, g))), dyn.apply_word(order, side)


def _t_star_pairs(dyn, g, aux):
    return _bridge_pairs(dyn, g, ((dyn.star_word((Atom(k, v),)), (Atom(k, v),))
                                  for v in range(dyn.poset.n) for k in ("T", "E")))


def _tau_star_pairs(dyn, g, aux):
    return _bridge_pairs(dyn, g, (((Atom(k, v),), dyn.star_word((Atom(k, v),)))
                                  for v in range(dyn.poset.n) for k in ("tau", "eps")))


def _gyration_pairs(dyn, g, aux):
    order = dyn.order_gyration_word()
    # the rank word closes the diagram only over a commutative backend
    anti = dyn.antichain_gyration_word() if dyn.backend.is_commutative else dyn.star_word(order)
    return _bridge_pairs(dyn, g, [(anti, order)])


def _rescale_rank_pairs(dyn, g, aux):
    b = dyn.backend
    scalars = aux(dyn.poset.top_rank + 1)
    inv_total = b.invert(b.product(scalars))
    scaled = dyn.graded_rescale(scalars, g)
    for i in range(dyn.poset.top_rank + 1):
        lhs = dyn.apply_word((Atom("rank_tau", i),), scaled)
        swapped = list(scalars)
        swapped[i] = inv_total
        yield lhs, dyn.graded_rescale(swapped, dyn.apply_word((Atom("rank_tau", i),), g))


def _rescale_bar_pairs(dyn, g, aux):
    b = dyn.backend
    scalars = aux(dyn.poset.top_rank + 1)
    inv_total = b.invert(b.product(scalars))
    lhs = dyn.antichain_rowmotion(dyn.graded_rescale(scalars, g))
    rotated = [inv_total] + scalars[:-1]
    yield lhs, dyn.graded_rescale(rotated, dyn.antichain_rowmotion(g))


@dataclass(frozen=True)
class TheoremCheck:
    """``pairs(dyn, g, aux)`` yields the labelings the theorem equates, in turn;
    ``aux(m)`` gives m central scalars drawn for the point, for a check that draws."""

    pairs: callable
    needs_graded: bool
    default_backends: tuple
    description: str


THEOREMS = {
    "involution": TheoremCheck(
        _involution_pairs, False, ("rational", "tropical"),
        "order and antichain toggles square to the identity "
        "(inverse pairs on noncommutative backends)"),
    "commutation": TheoremCheck(
        _commutation_pairs, False, ("rational", "matrix:2"),
        "toggles at non-covering / incomparable pairs commute"),
    "extension-independence": TheoremCheck(
        _extension_independence_pairs, False, ("rational", "matrix:2"),
        "rowmotion agrees along different linear extensions"),
    "reciprocity": TheoremCheck(
        _reciprocity_pairs, False, ("rational", "matrix:2", "tropical"),
        "parallel sum times the sum of inverses is the identity, both ways"),
    "meteor-gorge": TheoremCheck(
        _meteor_gorge_pairs, False, ("rational", "matrix:2"),
        "antichain toggles factor through the inverse transfer values"),
    "bar-transfer": TheoremCheck(
        _bar_transfer_pairs, False, ("rational", "tropical", "matrix:2"),
        "antichain rowmotion = down-transfer o complement o inverse-up-transfer, "
        "birational (BAR) and noncommutative (NAR)"),
    "nor-transfer": TheoremCheck(
        _nor_transfer_pairs, False, ("rational", "matrix:2"),
        "order rowmotion = complement o inverse-up-transfer o down-transfer"),
    "t-star": TheoremCheck(
        _t_star_pairs, False, ("rational", "matrix:2"),
        "starred antichain words mimic order toggles across the transfer bridge, "
        "birational and noncommutative"),
    "tau-star": TheoremCheck(
        _tau_star_pairs, False, ("rational", "matrix:2"),
        "conjugated order words mimic antichain toggles across the transfer bridge, "
        "birational and noncommutative"),
    "gyration": TheoremCheck(
        _gyration_pairs, True, ("rational", "matrix:2"),
        "gyration commutes with rowmotion's transfer bridge"),
    "rescale-rank": TheoremCheck(
        _rescale_rank_pairs, True, ("rational", "matrix:2"),
        "rank toggles turn graded rescalings into graded rescalings"),
    "rescale-bar": TheoremCheck(
        _rescale_bar_pairs, True, ("rational", "matrix:2"),
        "antichain rowmotion rotates graded rescaling vectors"),
}


def run_check(spec: CheckSpec, poset=None, backend=None):
    """Evaluate one theorem on random labelings; exact equality per point."""
    thm = THEOREMS[spec.theorem]
    p = build_poset(spec.poset_spec) if poset is None else poset
    b = parse_backend(spec.backend_spec) if backend is None else backend
    points = passes = failures = retries = 0
    if thm.needs_graded and not p.is_graded:
        status = "skipped (ungraded)"
    else:
        dyn = Dynamics(p, b)
        replay = _record(thm.pairs, p, b)
        points = spec.points
        for i in range(points):
            def attempt(k):
                g = _point(dyn, derive_seed(spec.seed, i, k))
                # stops at the first unequal pair
                return all(replay(g, _aux(b, spec.seed, i, k)))
            ok, degenerate = _redraw(
                attempt, f"{spec.theorem} on {spec.poset_spec}/{b.describe()}: point {i}")
            retries += degenerate
            if ok:
                passes += 1
            else:
                failures += 1
        status = "pass" if failures == 0 else "fail"
    report = {
        "theorem": spec.theorem, "poset": spec.poset_spec,
        "backend": b.describe(), "seed": spec.seed, "points": points,
        "passes": passes, "failures": failures, "retries": retries, "status": status,
    }
    model_note = _model_note(b)
    if model_note:
        report["model"] = model_note
    return report


# -- recorded checks ---------------------------------------------------------------


class _Node:
    """A label while a check is recorded: the register that holds it on replay,
    and whether its value is known to be central.  It has no value to compare
    or hash, so a branch on a label raises TypeError."""

    __slots__ = ("reg", "central")

    def __init__(self, reg, central=False):
        self.reg = reg
        self.central = central

    def __eq__(self, other):
        raise TypeError("a recorded check compared a label before its pairs")

    __ne__ = __eq__

    def __hash__(self):
        raise TypeError("a recorded check hashed a label")


class _Recorder(AlgebraBackend):
    """A backend that writes a check down as a straight-line program.

    Register k < n holds label k, and each later register one step: an op,
    (name, operand register, second operand register or None), a constant,
    (backend method, *arguments), which a replay fills from the real backend
    once, or a draw, ("draw", its register), which a replay fills from the
    point's ``aux``.  Each distinct step is taken once, in the order it is
    first asked for, and commutative operands are never swapped.  One, C,
    rationals, draws and the ops on central registers alone are central.
    """

    def __init__(self, backend, n):
        self.is_commutative = backend.is_commutative
        self.labels = tuple(_Node(k) for k in range(n))
        self.steps = []
        self.draws = []  # per call of aux, the registers it drew
        self._seen = {}  # step: its node

    def _step(self, central, *step):
        node = self._seen.get(step)
        if node is None:
            node = self._seen[step] = _Node(len(self.labels) + len(self.steps), central)
            self.steps.append(step)
        return node

    def add(self, x, y):
        return self._step(x.central and y.central, "add", x.reg, y.reg)

    def mul(self, x, y):
        return self._step(x.central and y.central, "mul", x.reg, y.reg)

    def invert(self, x):
        return self._step(x.central, "invert", x.reg, None)

    def one(self):
        return self._step(True, "one")

    def constant_c(self):
        return self._step(True, "constant_c")

    def central_from_rational(self, q):
        return self._step(True, "central_from_rational", q)

    def draw(self, m):
        """The recorded check's ``aux(m)``: m new central registers."""
        drawn = [self._step(True, "draw", len(self.labels) + len(self.steps)) for _ in range(m)]
        self.draws.append([x.reg for x in drawn])
        return drawn

    def is_central(self, x):
        if x.central:
            return True
        raise TypeError("a recorded check asked whether a label is central")

    def sample_generic(self, seed):
        raise TypeError("a recorded check cannot draw a label")

    def equals(self, x, y):
        raise TypeError("a recorded check compared a label before its pairs")


def _record(pairs, poset, backend):
    """``pairs`` on ``poset``, recorded once on the current ``Dynamics``, as a
    replay on ``backend``: given a labeling and the point's ``aux``, it yields
    whether each pair is equal, in turn, running only the ops that pair adds.

    So a replay raises the NotInvertible that the direct check would raise
    first, and a caller that stops at an unequal pair runs no later op.  A
    replay calls ``aux`` once per call the check made, before its first op:
    never, for a check that draws nothing.
    """
    rec = _Recorder(backend, poset.n)
    compared = [(len(rec.steps), [x.reg for x in lhs], [x.reg for x in rhs])
                for lhs, rhs in pairs(Dynamics(poset, rec), rec.labels, rec.draw)]
    constants, segments, done = [], [], 0  # registers n, n + 1, ...: the constants filled
    for end, lhs, rhs in compared:
        ops = []
        for reg, (name, *args) in enumerate(rec.steps[done:end], start=poset.n + done):
            if name in ("add", "mul", "invert"):
                ops.append((reg, getattr(backend, name), *args))
                constants.append(None)
            else:  # a draw is filled at each point
                constants.append(None if name == "draw" else getattr(backend, name)(*args))
        segments.append((ops, lhs, rhs))
        done = end
    constants += [None] * (len(rec.steps) - done)  # steps after the last pair, draws among them
    draws = rec.draws

    def replay(g, aux):
        v = [*g, *constants]
        for regs in draws:
            for reg, x in zip(regs, aux(len(regs))):
                v[reg] = x
        for ops, lhs, rhs in segments:
            for k, f, i, j in ops:
                v[k] = f(v[i]) if j is None else f(v[i], v[j])
            yield [v[x] for x in lhs] == [v[x] for x in rhs]
    return replay


def _aux(backend, *seed):
    """The ``aux`` of a sample point: ``aux(m)`` is m central rationals a/b,
    1 <= a, b <= 9, from a generator seeded by ``derive_seed("aux", *seed)``."""
    def aux(m):
        rng = random.Random(derive_seed("aux", *seed))
        return [backend.central_from_rational(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                for _ in range(m)]
    return aux


# Registry points drawn so far, per backend object: {backend: {(n, seed): labeling}}.
_POINTS = weakref.WeakKeyDictionary()


def _point(dyn, seed):
    """The registry point ``dyn.random_labeling(seed)``, drawn once per backend object.

    A labeling depends only on the backend, the element count and the seed, so
    every check that shares a backend object reads one draw per point, redraws
    included, and a matrix's stored inverse with it.  Entries go with their
    backend.  A backend that cannot be weakly keyed draws afresh.
    """
    try:
        drawn = _POINTS.setdefault(dyn.backend, {})
    except TypeError:
        return dyn.random_labeling(seed)
    key = (dyn.poset.n, seed)
    g = drawn.get(key)
    if g is None:
        g = drawn[key] = dyn.random_labeling(seed)
    return g


def _redraw(attempt, what):
    """The first of ``attempt(k)``, k = 0..DEFAULT_MAX_RETRIES, that is not
    degenerate, with the number of degenerate attempts before it.

    Each attempt draws its own sample point from k; GenericityFailure when
    every one raises NotInvertible.
    """
    for k in range(DEFAULT_MAX_RETRIES + 1):
        try:
            return attempt(k), k
        except NotInvertible:
            continue
    raise GenericityFailure(
        f"{what} stayed degenerate through {DEFAULT_MAX_RETRIES} retries")


def _model_note(backend):
    """Matrix rings only approximate a skew field: generic evaluation, not
    symbolic identity.  Flag that caveat on every noncommutative report."""
    if not backend.is_commutative:
        return MODEL_NOTE
    return None


def default_check_specs(poset_specs=DEFAULT_VERIFY_POSETS, points=DEFAULT_POINTS, seed=0, *,
                        theorems=None, backend=None):
    """The plan of `verify`: one CheckSpec per (theorem, poset, backend), in that order.

    ``theorems`` (default: every id, sorted) and ``poset_specs`` run each
    repeat once; ``backend`` replaces each theorem's default backends.  An
    unknown theorem id raises ValueError before any spec is made.
    """
    theorems = sorted(THEOREMS) if not theorems else list(dict.fromkeys(theorems))
    for theorem in theorems:
        if theorem not in THEOREMS:
            raise ValueError(f"unknown theorem {theorem!r}; try --list")
    return [CheckSpec(theorem, ps, bs, points=points, seed=seed)
            for theorem in theorems
            for ps in dict.fromkeys(poset_specs)
            for bs in ((backend,) if backend else THEOREMS[theorem].default_backends)]


# -- orbit scans ------------------------------------------------------------------


_MAP_STEPS = {
    "bar": lambda dyn: dyn.antichain_rowmotion,
    "bor": lambda dyn: dyn.order_rowmotion,
}


def labeling_orbit_report(poset, backend, map_id, seed, poset_name=None,
                          max_iter=DEFAULT_MAX_ITER):
    """Detected order of a rowmotion map from a random labeling.

    Resamples the start with derived seeds when the orbit hits a
    degenerate labeling; raises GenericityFailure past the budget.  The
    order is None ("exceeded") after ``max_iter`` steps, or when
    ``detect_order`` stops on a label that outgrew its bit bound.  Over
    ``TropicalSemiring`` the orbit runs on the integer image of its start,
    L·x with L the least common denominator of the start and C, and stops
    at the same step on the same labels.
    """
    dyn = Dynamics(poset, backend)
    step = _MAP_STEPS[map_id](dyn)

    def attempt(k):
        start = dyn.random_labeling(derive_seed("orbit", seed, k))
        run, denominator = step, 1
        if type(backend) is TropicalSemiring:  # run on the integer image, L·x
            image_backend, start, denominator = _to_max_plus_image(start, backend.constant_c())
            run = _MAP_STEPS[map_id](Dynamics(poset, image_backend))
        try:
            order = detect_order(run, start, operator.eq, max_iter=max_iter,
                                 denominator=denominator)
        except LabelsTooLarge as exc:
            return None, exc.iterates
        return order, order or max_iter
    (order, iterates), failures = _redraw(attempt, f"orbit of {map_id}")
    return OrbitReport(
        map_id=map_id, poset=poset_name or repr(poset), backend=backend.describe(),
        seed=seed, order=order, iterates=iterates, failures=failures,
        model=_model_note(backend))


def scan_conjecture(a_max, b_max, backend_spec, seeds=(0, 1, 2), map_id="bor",
                    max_iter=DEFAULT_MAX_ITER):
    """Observed rowmotion orders on chain products, reported not asserted.

    Chain AxB is chain BxA, so each pair runs once as a <= b, up to the sorted bounds.
    """
    a_max, b_max = sorted((a_max, b_max))
    backend = parse_backend(backend_spec)
    rows = []
    for a in range(1, a_max + 1):
        for b in range(a, b_max + 1):
            expected = a + b
            if a * b > SCAN_ELEMENT_BUDGET:
                rows.append({"a": a, "b": b, "backend": backend.describe(),
                             "observed": "skipped", "expected": expected,
                             "status": "skipped"})
                continue
            p = chain_product(a, b)
            observed = []
            for s in seeds:
                rep = labeling_orbit_report(p, backend, map_id, s,
                                            poset_name=f"chain {a}x{b}",
                                            max_iter=max_iter)
                observed.append(rep.order)
            if any(o is None for o in observed):
                status, shown = "exceeded", "exceeded"
            else:  # a start on a non-generic locus may have a shorter orbit
                status = "consistent" if math.lcm(*observed) == expected else "inconsistent"
                shown = observed[0] if len(set(observed)) == 1 else "/".join(map(str, observed))
            rows.append({"a": a, "b": b, "backend": backend.describe(),
                         "observed": shown, "expected": expected, "status": status})
    return rows


# -- report emission -----------------------------------------------------------------


def emit_report(reports, format="json"):
    """Serialize report rows deterministically; returns bytes."""
    reports = list(reports)
    if format == "json":
        return (json.dumps(reports, indent=2, sort_keys=True, default=str) + "\n").encode()
    if format == "csv":
        buf = io.StringIO()
        if reports and {"a", "b", "backend"} <= set(reports[0]):
            fieldnames = ["a", "b", "backend", "observed", "expected", "status"]
        else:
            fieldnames = sorted({k for r in reports for k in r})
        writer = csv.DictWriter(buf, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        for r in reports:
            writer.writerow(r)
        return buf.getvalue().encode()
    if format == "text":
        if not reports:
            return b"(no reports)\n"
        keys = []
        for r in reports:
            for k in r:
                if k not in keys:
                    keys.append(k)
        widths = {k: max(len(str(k)), *(len(str(r.get(k, ""))) for r in reports))
                  for k in keys}
        lines = ["  ".join(str(k).ljust(widths[k]) for k in keys)]
        for r in reports:
            lines.append("  ".join(str(r.get(k, "")).ljust(widths[k]) for k in keys))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {format!r}")
