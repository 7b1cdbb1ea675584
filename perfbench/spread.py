"""Run a workload on several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workload shipped --seeds 1-10 [--json out.json]

Runs perfbench/run.py once per seed, one run at a time, for the
run_seconds in BENCHMARK.json, and prints per
metric the median, the quartiles (statistics.quantiles, n=4) and the
quartile distance as a share of the median. With --json, the summary and
every run's result line are written there (perfbench/baseline.json holds
one such summary per workload for the commit that defined the benchmark).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "iqr_share": (q3 - q1) / med if med else None}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--json")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = str(json.load(fh)["run_seconds"])
    results = []
    for seed in args.seeds:
        start = time.monotonic()
        line = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", "0"],
            check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()[-1]
        result = json.loads(line)
        results.append(result)
        print("seed %d: %.1f s, correct=%s, failed=%d/%d" % (
            seed, time.monotonic() - start, result["correct"],
            result["failed"], result["attempted"]), flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        share = "" if s["iqr_share"] is None else "%.3f" % s["iqr_share"]
        print("%-34s %12.4f %-6s q1 %12.4f q3 %12.4f iqr/median %s"
              % (name, s["median"], s["unit"], s["q1"], s["q3"], share))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "seconds": seconds, "summary": summary,
                       "runs": results}, fh, indent=1)


if __name__ == "__main__":
    main()
