"""Per-layer measurement from outside the library: spans, counts and kernel rates.

Tracing wraps each layer's public entry points where their callers look
them up, for the duration of one traced pass, and restores them after:

- backends: a delegating :class:`TracedBackend`, passed through the
  ``backend=`` arguments of ``run_check`` and ``labeling_orbit_report``;
- matrices: ``RationalMatrix`` arithmetic, looked up on the class;
- dynamics: a :class:`Dynamics` subclass installed as ``harness.Dynamics``,
  plus ``harness.detect_order``;
- poset: ``chains_through`` on the workload's posets;
- polytopes, subsets, harness: module attributes.

Every wrapped call records one span (name, start, end, parent span,
operation id).  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import random
import statistics
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

from rowmotion import dynamics, harness, polytopes, subsets
from rowmotion.backends import AlgebraBackend, MatrixRing
from rowmotion.errors import NotInvertible
from rowmotion.matrices import RationalMatrix

BACKEND_KEYS = {"rational": "rational", "tropical": "tropical",
                "matrix:2": "matrix2", "matrix:3": "matrix3"}
MATRIX_DIMS = (2, 3)


class Tracer:
    """Spans kept in memory as parallel arrays, plus per-name aggregates."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._child = []
        self.op_id = -1
        self.calls = []
        self.total_s = []
        self.self_s = []
        self.backend_ops = 0
        self.counters = Counter()

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def call(self, nid, fn, *args, **kwargs):
        stack = self._stack
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        stack.append(idx)
        self._child.append(0.0)
        t0 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.end[idx] = t1
            stack.pop()
            dur = t1 - t0
            self.calls[nid] += 1
            self.total_s[nid] += dur
            self.self_s[nid] += dur - self._child.pop()
            if self._child:
                self._child[-1] += dur

    def stat(self, name, kind):
        """Aggregate ``kind`` ('calls', 'total_s' or 'self_s') of one span name."""
        nid = self._ids.get(name)
        return 0 if nid is None else getattr(self, kind)[nid]

    def stats(self, prefix, kind):
        return sum(getattr(self, kind)[i] for i, n in enumerate(self.names)
                   if n.startswith(prefix))

    def inclusive_by_op(self, name):
        """Inclusive seconds of the spans called ``name``, keyed by operation id."""
        nid = self._ids.get(name)
        out = defaultdict(float)
        for i, n in enumerate(self.name):
            if n == nid:
                out[self.op[i]] += self.end[i] - self.start[i]
        return out

    def write(self, path):
        """Tab-separated spans: id, parent, op, name, start and end in µs."""
        origin = self.start[0] if self.start else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.name[i]]}\t"
                         f"{(self.start[i] - origin) * 1e6:.3f}\t"
                         f"{(self.end[i] - origin) * 1e6:.3f}\n")


class TracedBackend(AlgebraBackend):
    """Delegates to a bare backend and records a span per algebra call.

    ``sum`` and ``product`` are inherited, so they reach ``add``/``mul``
    here and are counted one operation at a time.
    """

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        key = f"backends.{BACKEND_KEYS.get(inner.name, inner.name.replace(':', ''))}"
        self._ids = {op: tracer.name_id(f"{key}.{op}")
                     for op in ("add", "mul", "invert", "equals", "sample")}

    @property
    def is_commutative(self):
        return self.inner.is_commutative

    @property
    def is_tropical(self):
        return self.inner.is_tropical

    def add(self, x, y):
        self.tracer.backend_ops += 1
        return self.tracer.call(self._ids["add"], self.inner.add, x, y)

    def mul(self, x, y):
        self.tracer.backend_ops += 1
        return self.tracer.call(self._ids["mul"], self.inner.mul, x, y)

    def invert(self, x):
        self.tracer.backend_ops += 1
        try:
            return self.tracer.call(self._ids["invert"], self.inner.invert, x)
        except NotInvertible:
            self.tracer.counters["not_invertible"] += 1
            raise

    def equals(self, x, y):
        return self.tracer.call(self._ids["equals"], self.inner.equals, x, y)

    def sample_generic(self, seed):
        return self.tracer.call(self._ids["sample"], self.inner.sample_generic, seed)

    def one(self):
        return self.inner.one()

    def constant_c(self):
        return self.inner.constant_c()

    def is_central(self, x):
        return self.inner.is_central(x)

    def central_from_rational(self, q):
        return self.inner.central_from_rational(q)

    def describe(self):
        return self.inner.describe()


# Dynamics methods recorded as spans; toggles also count the backend
# operations made inside them.
DYNAMICS_SPANS = {
    "antichain_toggle": "dynamics.antichain_toggle",
    "antichain_elggot": "dynamics.antichain_elggot",
    "order_toggle": "dynamics.order_toggle",
    "order_elggot": "dynamics.order_elggot",
    "_chain_sum": "dynamics.chain_sum",  # private: traced only while it exists
    "theta": "dynamics.transfer.theta",
    "down_transfer": "dynamics.transfer.down",
    "up_transfer": "dynamics.transfer.up",
    "inv_down_transfer": "dynamics.transfer.inv_down",
    "inv_up_transfer": "dynamics.transfer.inv_up",
    "antichain_rowmotion": "dynamics.rowmotion.antichain",
    "order_rowmotion": "dynamics.rowmotion.order",
    "antichain_rowmotion_via_transfers": "dynamics.rowmotion.antichain_via_transfers",
    "order_rowmotion_via_transfers": "dynamics.rowmotion.order_via_transfers",
}
TOGGLE_OP_COUNTERS = {"antichain_toggle": "ops_in_antichain_toggle",
                      "order_toggle": "ops_in_order_toggle"}


def _traced_method(tracer, method, span):
    base = getattr(dynamics.Dynamics, method)
    nid = tracer.name_id(span)
    counter = TOGGLE_OP_COUNTERS.get(method)
    if counter is None:
        def traced(self, *args, **kwargs):
            return tracer.call(nid, base, self, *args, **kwargs)
    else:
        def traced(self, *args, **kwargs):
            before = tracer.backend_ops
            try:
                return tracer.call(nid, base, self, *args, **kwargs)
            finally:
                tracer.counters[counter] += tracer.backend_ops - before
    return traced


def traced_dynamics_class(tracer):
    """A Dynamics subclass whose toggle, transfer and rowmotion methods record spans."""
    methods = {m: _traced_method(tracer, m, span) for m, span in DYNAMICS_SPANS.items()
               if hasattr(dynamics.Dynamics, m)}
    return type("TracedDynamics", (dynamics.Dynamics,), methods)


def _wrap(tracer, fn, span):
    nid = tracer.name_id(span)

    def traced(*args, **kwargs):
        return tracer.call(nid, fn, *args, **kwargs)
    return traced


def _matrix_wrapper(tracer, fn, op):
    ids = {d: tracer.name_id(f"matrices.d{d}.{op}") for d in MATRIX_DIMS}

    def traced(self, *args):
        nid = ids.get(self.d)
        if nid is None:
            return fn(self, *args)
        return tracer.call(nid, fn, self, *args)
    return traced


# Module attributes replaced during a traced pass: (module, attribute, span).
MODULE_SPANS = (
    (harness, "run_check", "harness.run_check"),
    (harness, "labeling_orbit_report", "harness.labeling_orbit_report"),
    (harness, "detect_order", "harness.detect_order"),
    (harness, "emit_report", "harness.emit_report"),
    (polytopes, "in_chain_polytope", "polytopes.membership"),
    (polytopes, "in_order_polytope", "polytopes.membership"),
    (polytopes, "in_order_reversing", "polytopes.membership"),
    (polytopes, "pl_antichain_toggle", "polytopes.toggle"),
    (polytopes, "pl_order_toggle", "polytopes.toggle"),
    (polytopes, "random_chain_polytope_point", "polytopes.sample"),
    (polytopes, "random_order_polytope_point", "polytopes.sample"),
    (subsets, "all_ideals", "subsets.enum"),
    (subsets, "all_filters", "subsets.enum"),
    (subsets, "all_antichains", "subsets.enum"),
    (subsets, "rowmotion", "subsets.rowmotion"),
    (subsets, "toggle_ideal", "subsets.toggle"),
    (subsets, "toggle_filter", "subsets.toggle"),
    (subsets, "toggle_antichain", "subsets.toggle"),
    (subsets, "orbit_partition", "subsets.partition"),
    (subsets, "orbit", "subsets.orbit"),
)
POSET_SPANS = (("chains_through", "poset.chains_through"),)
MATRIX_SPANS = (("__add__", "add"), ("__matmul__", "matmul"), ("inverse", "inverse"))


@contextmanager
def traced(tracer, workload):
    """Install every wrapper for the duration of the block; yields traced backends."""
    saved = []
    try:
        saved.append((harness, "Dynamics", harness.Dynamics))
        harness.Dynamics = traced_dynamics_class(tracer)
        for module, attr, span in MODULE_SPANS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, span))
        for attr, op in MATRIX_SPANS:
            fn = getattr(RationalMatrix, attr)
            saved.append((RationalMatrix, attr, fn))
            setattr(RationalMatrix, attr, _matrix_wrapper(tracer, fn, op))
        for p in workload.posets.values():
            for attr, span in POSET_SPANS:
                setattr(p, attr, _wrap(tracer, getattr(p, attr), span))
        yield {bs: TracedBackend(b, tracer) for bs, b in workload.backends.items()}
    finally:
        for p in workload.posets.values():
            for attr, _ in POSET_SPANS:
                p.__dict__.pop(attr, None)
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# -- kernel rates ------------------------------------------------------------------


def matrix_kernel_rates(seed, samples=32, repeats=5):
    """µs per matmul and per inverse on seeded generic matrices, median of repeats."""
    rates = {}
    for d in MATRIX_DIMS:
        ring = MatrixRing(d)
        rng = random.Random(f"kernels:{seed}:{d}")
        xs = [ring.sample_generic(rng.randrange(10**9)) for _ in range(samples)]
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        for op, run in (("matmul", lambda: [x @ y for x, y in pairs]),
                        ("inverse", lambda: [x.inverse() for x in xs])):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                run()
                times.append((time.perf_counter() - t0) / samples * 1e6)
            rates[f"matrices.d{d}.{op}_us"] = statistics.median(times)
    return rates


# -- per-layer metrics ---------------------------------------------------------------


def layer_metrics(tracer, workload, outcomes, report_bytes):
    """Every per-layer metric of one traced pass, by name (units in BENCHMARK.json)."""
    t = tracer
    m = {}
    m["poset.build_s"] = workload.build_s
    m["poset.chain_index_s"] = workload.chain_index_s
    m["poset.maximal_chains"] = sum(len(workload.posets[s].maximal_chains())
                                    for s in workload.chain_posets)
    m["poset.chains_through_calls"] = t.stat("poset.chains_through", "calls")

    for key in BACKEND_KEYS.values():
        for op in ("add", "mul", "invert"):
            m[f"backends.{key}.{op}_calls"] = t.stat(f"backends.{key}.{op}", "calls")
        m[f"backends.{key}.self_s"] = t.stats(f"backends.{key}.", "self_s")
    m["backends.not_invertible"] = t.counters["not_invertible"]
    m["backends.sample_s"] = sum(t.stat(f"backends.{k}.sample", "total_s")
                                 for k in BACKEND_KEYS.values())

    for d in MATRIX_DIMS:
        m[f"matrices.d{d}.matmul_calls"] = t.stat(f"matrices.d{d}.matmul", "calls")
        m[f"matrices.d{d}.inverse_calls"] = t.stat(f"matrices.d{d}.inverse", "calls")
        m[f"matrices.d{d}.self_s"] = t.stats(f"matrices.d{d}.", "self_s")

    at_calls = t.stat("dynamics.antichain_toggle", "calls")
    ot_calls = t.stat("dynamics.order_toggle", "calls")
    m["dynamics.antichain_toggle_calls"] = at_calls
    m["dynamics.antichain_toggle_self_s"] = t.stat("dynamics.antichain_toggle", "self_s")
    m["dynamics.order_toggle_calls"] = ot_calls
    m["dynamics.order_toggle_self_s"] = t.stat("dynamics.order_toggle", "self_s")
    m["dynamics.elggot_calls"] = (t.stat("dynamics.antichain_elggot", "calls")
                                  + t.stat("dynamics.order_elggot", "calls"))
    m["dynamics.transfer_calls"] = t.stats("dynamics.transfer.", "calls")
    m["dynamics.transfer_self_s"] = t.stats("dynamics.transfer.", "self_s")
    m["dynamics.rowmotion_steps"] = t.stats("dynamics.rowmotion.", "calls")
    m["dynamics.chain_sum_calls"] = t.stat("dynamics.chain_sum", "calls")
    m["dynamics.chain_sum_s"] = t.stat("dynamics.chain_sum", "total_s")
    m["dynamics.backend_ops_per_antichain_toggle"] = (
        t.counters["ops_in_antichain_toggle"] / at_calls if at_calls else 0.0)
    m["dynamics.backend_ops_per_order_toggle"] = (
        t.counters["ops_in_order_toggle"] / ot_calls if ot_calls else 0.0)

    m["polytopes.toggle_calls"] = t.stat("polytopes.toggle", "calls")
    m["polytopes.toggle_self_s"] = t.stat("polytopes.toggle", "self_s")
    m["polytopes.membership_calls"] = t.stat("polytopes.membership", "calls")
    m["polytopes.membership_s"] = t.stat("polytopes.membership", "total_s")

    states = sum(o.facts["states"] for o in outcomes
                 if o is not None and o.facts["kind"] == "census")
    enum_s = t.stat("subsets.enum", "total_s")
    m["subsets.enum_s"] = enum_s
    m["subsets.states_enumerated"] = states
    m["subsets.enum_us_per_state"] = enum_s / states * 1e6 if states else 0.0
    m["subsets.rowmotion_calls"] = t.stat("subsets.rowmotion", "calls")
    m["subsets.toggle_calls"] = t.stat("subsets.toggle", "calls")
    m["subsets.rowmotion_s"] = t.stat("subsets.rowmotion", "total_s")
    m["subsets.partition_s"] = t.stat("subsets.partition", "total_s")

    reports = [o.facts["report"] for o in outcomes
               if o is not None and o.facts["kind"] == "check"]
    points = sum(r["points"] for r in reports)
    retries = sum(r["retries"] for r in reports)
    m["harness.checks"] = t.stat("harness.run_check", "calls")
    m["harness.points"] = points
    m["harness.retries"] = retries
    m["harness.retry_ratio"] = retries / (points + retries) if points + retries else 0.0
    m["harness.orbit_failures"] = sum(row.get("failures", 0) for o in outcomes
                                      if o is not None and o.facts["kind"] == "order"
                                      for row in o.rows)
    m["harness.run_check_self_s"] = t.stat("harness.run_check", "self_s")
    m["harness.emit_s"] = t.stat("harness.emit_report", "total_s")
    m["harness.report_bytes"] = report_bytes
    m["trace.spans"] = len(t.start)
    return m


def attribution(tracer, workload, pass_s):
    """Shares of traced time in the layer each workload was chosen to stress."""
    t = tracer
    out = {}
    if workload.name == "verify-registry":
        busy = t.stats("backends.", "self_s") + t.stats("matrices.", "self_s")
        out["backends+matrices self / pass"] = busy / pass_s
    elif workload.name == "orbit-scan":
        op_time = t.inclusive_by_op("op")
        parts = {"chain sums": t.inclusive_by_op("dynamics.chain_sum"),
                 "membership": t.inclusive_by_op("polytopes.membership")}
        for category in ("bar:rational", "bar:tropical", "bar:matrix:2", "bar:matrix:3",
                         "pl-antichain", "pl-order"):
            idx = [i for i, op in enumerate(workload.ops) if op.category == category]
            total = sum(op_time[i] for i in idx)
            for part, by_op in parts.items():
                share = sum(by_op[i] for i in idx) / total if total else 0.0
                if share:
                    out[f"{part} / {category} time"] = share
    elif workload.name == "comb-census":
        out["subsets.enum / pass"] = t.stat("subsets.enum", "total_s") / pass_s
    return out
