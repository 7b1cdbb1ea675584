"""Check that the traced run measures what each workload is meant to stress.

    python3 perfbench/selfcheck.py [--seed N] [workload ...]

Runs each workload traced and checks perfbench/workloads.py's predictions:
every per-layer metric listed in ZERO_ON reads exactly 0 and every other
one reads > 0. It also prints each workload's share of traced dual_s spent in
its target layer, against the share recorded when the benchmark was
defined. Exits 1 on a failed prediction or a failed answer. (Every run of
run.py already checks that a flipped expected digest is caught.)
"""

import argparse
import sys

import run
from workloads import LAYER_SHARES, WORKLOADS, ZERO_ON


def check(workload, seed):
    result, record = run.run(workload, seed, 0, 1)
    metrics = record["per_layer"]
    problems = []
    if not result["correct"]:
        problems.append("%d failed commands" % result["failed"])
    for name, value in metrics.items():
        if name in ZERO_ON[workload] and value != 0:
            problems.append("%s should read 0, reads %r" % (name, value))
        elif name not in ZERO_ON[workload] and not value > 0:
            problems.append("%s should read > 0, reads %r" % (name, value))
    names, floor = LAYER_SHARES[workload]
    dual_s = record["traced_dual_s"]
    share = sum(metrics[n] for n in names) / dual_s
    print("%s: %.0f%% of traced dual_s (%.2f s) in %s (defined at >= %.0f%%)"
          % (workload, 100 * share, dual_s, " + ".join(names), 100 * floor))
    for p in problems:
        print("  FAIL " + p)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args()
    ok = all([check(w, args.seed) for w in args.workloads])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
