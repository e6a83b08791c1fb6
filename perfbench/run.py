"""Benchmark of the rowmotion package: three workloads, run from the checkout root.

    python3 perfbench/run.py --workload verify-registry --seed 1 --seconds 20 --trace 0

One process, one thread, a closed loop: each operation of the workload's
fixed list starts when the previous one has finished, and the list is
repeated ("passes") for at least ``--seconds`` and at least min_passes()
times.  Every answer is checked against known exact values and every
pass's report bytes must be identical.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Their
timings are wall times rescaled to a fixed machine speed (see speed.py);
the raw wall times are printed beside them.  ``pass_s`` is the median pass,
``op_p50_ms`` and ``op_tail_ms`` are quantiles of every operation latency
of the run, and ``setup_s`` is the median of SETUP_REPEATS fresh-interpreter
set-ups (setup_probe.py).  ``--trace 1`` runs untraced
passes for half the time, then one traced pass, and prints the per-layer
metrics, which are raw wall times and counts.  The last line of standard
output is one JSON object; details, the environment stamp and the spans
go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
MIN_PASSES = 4
MIN_SAMPLES = 96   # operation latencies per run, for the tail of a short list
SETUP_REPEATS = 9
OUT_DIR = ".perfbench-out"


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_library(root):
    """Put the checkout's ``src`` first on the path and import from there only."""
    src = root / "src"
    if not (src / "rowmotion" / "__init__.py").is_file():
        raise BenchError(f"no rowmotion package under {src}")
    sys.path.insert(0, str(src))
    import rowmotion
    if Path(rowmotion.__file__).resolve().parent != (src / "rowmotion").resolve():
        raise BenchError(f"imported rowmotion from {rowmotion.__file__}, not from {src}")


def load_spec(root):
    try:
        return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")


def git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment(root, args, why):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": git_commit(root),
            "workload": args.workload, "seed": args.seed, "why": why}


def setup_probes(root, args, repeats):
    """Set-up timings of ``repeats`` fresh interpreters, run one after another."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


@dataclass
class Pass:
    seconds: float          # wall time, without the reference kernel's runs
    latencies: list         # wall seconds per operation
    scaled_seconds: float   # at the reference speed (untraced passes only)
    scaled: list
    outcomes: list
    problems: list
    report: bytes

    @property
    def failed(self):
        return sum(1 for p in self.problems if p)

    @property
    def digest(self):
        return hashlib.sha256(self.report).hexdigest()


def run_pass(workload, backends, tracer=None):
    """One closed-loop pass over the workload's operations, gated and reported.

    Untraced passes run the reference kernel between operations, at least
    speed.INTERVAL_S apart, so each operation's latency is also known at the
    reference speed.
    """
    import workloads
    op_nid = tracer.name_id("op") if tracer else None
    outcomes, latencies, scaled = [], [], []
    refs, pending = [], []  # kernel seconds; latencies waiting for the next one
    last_ref = time.perf_counter()
    if tracer is None:
        refs.append(speed.kernel_seconds())
    for i, op in enumerate(workload.ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run(backends, workload.posets)
            else:
                tracer.op_id = i
                out = tracer.call(op_nid, op.run, backends, workload.posets)
        except Exception:
            print(f"operation {op.label!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
            out = None
        latencies.append(time.perf_counter() - t0)
        outcomes.append(out)
        if tracer is None:
            pending.append(latencies[-1])
            if time.perf_counter() - last_ref >= speed.INTERVAL_S or i == len(workload.ops) - 1:
                refs.append(speed.kernel_seconds())
                last_ref = time.perf_counter()
                scaled.extend(x * speed.scale(refs[-2], refs[-1]) for x in pending)
                pending = []
    if tracer is not None:
        tracer.op_id = -1
    t0 = time.perf_counter()
    problems = workloads.gate(outcomes)
    report = workload.report(outcomes)
    closing = time.perf_counter() - t0
    for op, probs in zip(workload.ops, problems):
        for msg in probs:
            print(f"WRONG {op.label}: {msg}", file=sys.stderr)
    scaled_seconds = sum(scaled) + closing * speed.scale(refs[-1], refs[-1]) if refs else 0.0
    return Pass(sum(latencies) + closing, latencies, scaled_seconds, scaled,
                outcomes, problems, report)


def run_passes(workload, seconds, min_passes):
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, workload.backends))
    return passes


def min_passes(ops_per_pass):
    return max(MIN_PASSES, math.ceil(MIN_SAMPLES / ops_per_pass))


def tail_percentile(ops_per_pass):
    """Highest whole percentile with at least 10 samples beyond it in min_passes() passes.

    Fixed per workload, so a faster program that fits more passes into a
    run is still compared at the same percentile.
    """
    return math.floor(100 * (1 - 10 / (min_passes(ops_per_pass) * ops_per_pass)))


def harrell_davis(values, q, steps=4):
    """Harrell-Davis estimate of the ``q`` quantile (0 < q < 1).

    A weighted mean of the order statistics, with the weights a Beta
    distribution puts on each rank's interval; it varies far less from run
    to run than any single order statistic does.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        # Simpson's rule over ``steps`` (even) pieces of the rank's interval.
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append(h / 3 * (density(lo) + inner + density(lo + steps * h)))
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def emit(spec, section, metrics, correct, attempted, failed):
    """The result line: every metric of ``section``, by name, with its unit."""
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    for name, unit in wanted.items():
        print(f"{name:48s} {metrics[name]!r:>24} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in wanted.items()}}))


def write_out(root, name, payload):
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
                    encoding="utf-8")
    return path


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    try:
        spec = load_spec(root)
        load_library(root)
        import layers
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload, "")
        env = environment(root, args, why)
        print("env " + json.dumps(env, sort_keys=True), flush=True)

        probes = setup_probes(root, args, SETUP_REPEATS)
        workload = workloads.build(args.workload, args.seed)
        ops_per_pass = len(workload.ops)
        print(f"{args.workload}: {ops_per_pass} operations per pass", flush=True)

        if args.trace == 0:
            passes = run_passes(workload, args.seconds, min_passes(ops_per_pass))
            traced_pass = tracer = None
        else:
            passes = run_passes(workload, args.seconds / 2, 1)
            tracer = layers.Tracer()
            with layers.traced(tracer, workload) as traced_backends:
                traced_pass = run_pass(workload, traced_backends, tracer)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    digests = sorted({p.digest for p in passes})
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    consistent = len(digests) == 1
    print(f"passes {len(passes)}: wall pass_s {[round(p.seconds, 3) for p in passes]}")
    print(f"report digest {' '.join(digests)} ({len(passes[0].report)} bytes)")
    if not consistent:
        print("report bytes differ between passes", file=sys.stderr)
    result = {"env": env, "probes": probes, "digests": digests,
              "wall_pass_s": [p.seconds for p in passes], "ops_per_pass": ops_per_pass}

    if tracer is None:
        q = tail_percentile(ops_per_pass)

        def timings(pass_s, op_s, setup_key):
            ms = [x * 1e3 for x in op_s]
            return {"pass_s": statistics.median(pass_s),
                    "op_p50_ms": harrell_davis(ms, 0.5),
                    "op_tail_ms": harrell_davis(ms, q / 100),
                    "setup_s": statistics.median(p[setup_key] for p in probes)}

        wall = timings([p.seconds for p in passes],
                       [x for p in passes for x in p.latencies], "total_s")
        metrics = timings([p.scaled_seconds for p in passes],
                          [x for p in passes for x in p.scaled], "scaled_total_s")
        metrics["peak_rss_mb"] = peak_rss_mb()
        print("wall " + " ".join(f"{k} {v!r}" for k, v in wall.items()))
        print(f"op_tail_ms is p{q} of {attempted} operation latencies; "
              f"fail_ratio {failed / attempted!r} ({failed} of {attempted})")
        result.update(metrics=metrics, wall=wall, tail_percentile=q, samples=attempted,
                      fail_ratio=failed / attempted,
                      op_ms={op.label: {"wall": [p.latencies[i] * 1e3 for p in passes],
                                        "scaled": [p.scaled[i] * 1e3 for p in passes]}
                             for i, op in enumerate(workload.ops)})
        section = "end_to_end"
    else:
        attempted += len(traced_pass.latencies)
        failed += traced_pass.failed
        same = traced_pass.digest == passes[0].digest
        print(f"traced report digest {traced_pass.digest} "
              f"({'equals' if same else 'DIFFERS FROM'} the untraced digest)")
        consistent = consistent and same
        metrics = layers.layer_metrics(tracer, workload, traced_pass.outcomes,
                                       len(traced_pass.report))
        metrics.update(layers.matrix_kernel_rates(args.seed))
        metrics["cli.import_s"] = statistics.median(p["cli_import_s"] for p in probes)
        metrics["trace.pass_s"] = traced_pass.seconds
        metrics["trace.overhead_s"] = (traced_pass.seconds
                                       - statistics.median(p.seconds for p in passes))
        metrics["fail_ratio"] = failed / attempted
        shares = layers.attribution(tracer, workload, traced_pass.seconds)
        for what, share in shares.items():
            print(f"attribution: {what} = {share:.3f}")
        spans = root / OUT_DIR / f"{args.workload}.spans.tsv"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        print(f"{len(tracer.start)} spans written to {spans.relative_to(root)}")
        result.update(metrics=metrics, attribution=shares, traced_digest=traced_pass.digest)
        section = "per_layer"

    path = write_out(root, f"{args.workload}.trace{args.trace}.json", result)
    print(f"details in {path.relative_to(root)}")
    try:
        emit(spec, section, metrics, consistent and failed == 0, attempted, failed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
