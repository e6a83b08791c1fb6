"""Set-up cost of one workload in a fresh interpreter.

Times what every `rowmotion` invocation pays before its first answer:
importing ``rowmotion`` and ``rowmotion.cli``, building the workload's
posets and backends, and the first fill of the maximal-chain index.
Then times the reference kernel (speed.py) in the same process, to give
the set-up time at the reference speed as well.  Prints one JSON object.
Run from the checkout root with ``src`` on ``PYTHONPATH``:

    python3 perfbench/setup_probe.py --workload orbit-scan --seed 1
"""

import sys
import time


def main(argv):
    # Parse by hand: importing argparse or json here would pre-load
    # modules that rowmotion.cli imports and hide their cost.
    opts = dict(zip(argv[::2], argv[1::2]))
    t0 = time.perf_counter()
    import rowmotion  # noqa: F401
    t1 = time.perf_counter()
    import rowmotion.cli  # noqa: F401
    t2 = time.perf_counter()

    import json

    import speed
    import workloads
    w = workloads.build(opts["--workload"], int(opts["--seed"]))
    total = (t2 - t0) + w.build_s + w.chain_index_s
    kernel = speed.kernel_seconds(repeats=5)
    print(json.dumps({
        "import_s": t1 - t0,
        "cli_import_s": t2 - t1,
        "build_s": w.build_s,
        "chain_index_s": w.chain_index_s,
        "total_s": total,
        "kernel_s": kernel,
        "scaled_total_s": total * speed.scale(kernel, kernel),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
