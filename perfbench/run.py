"""scheme-forge benchmark: CLI workloads end to end, or traced per layer.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 5 --trace 0

Run from the root of a checkout. The seed only shuffles the order of a
workload's commands. Each workload runs in a fresh child interpreter
(closed loop, one client, one command at a time); a few more children
only import the CLI and parse the configs, to time set-up. The commands
run as whole passes until --seconds have been measured, at least once.
Times are taken from call to exit code and scaled to the host's reference
speed by perfbench/probe.py; the unscaled times are kept in the record.
Every command's exit code, verdict, class counts and answer digest are
checked against perfbench/expected.json, whose d and valencies must in
turn match the closed forms in perfbench/reference.py.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of one extra traced pass with --trace 1. A full record, with run
metadata and (when traced) every span, goes to
.bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import probe  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, config_paths  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_CHILDREN = 9
CHILD_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# -- answers ---------------------------------------------------------------

def _exact(cyclo_json):
    return None if cyclo_json is None else [cyclo_json["order"],
                                            cyclo_json["coeffs"]]


def _exact_matrix(M):
    return None if M is None else [[_exact(c) for c in row] for row in M]


def answer(kind, report):
    """The part of a report that is the answer: no check keys, no sigma,
    no float approximations."""
    if kind == "dual":
        krein = report["krein"]
        return {
            "pass": report["pass"], "mode": report["mode"], "d": report["d"],
            "valencies": report["valencies"],
            "multiplicities": report["multiplicities"],
            "P": _exact_matrix(report["P"]), "Q": _exact_matrix(report["Q"]),
            "krein": None if krein is None else
                [_exact_matrix(plane) for plane in krein],
        }
    check = report.get("check", report)
    return {"status": check["status"], "d": report["d"],
            "valencies": report.get("valencies", report.get("class_sizes")),
            "class_labels": report.get("class_labels"),
            "p_tensor": report.get("p_tensor")}


def digest(ans):
    text = json.dumps(ans, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def observe(record):
    """What one command produced, in the shape of an expected entry."""
    kind = record["cmd"].split()[0]
    seen = {"exit": record["exit"]}
    try:
        with open(record["out"]) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return seen
    ans = answer(kind, report)
    seen["verdict"] = (("pass" if ans["pass"] else "fail") if kind == "dual"
                       else ans["status"])
    if kind == "dual" and record["last_line"] != "duality: %s (%s)" % (
            "PASS" if ans["pass"] else "FAIL", ans["mode"]):
        seen["verdict"] = "stdout disagrees: " + record["last_line"]
    seen["d"] = ans["d"]
    seen["valencies"] = ans["valencies"]
    seen["digest"] = digest(ans)
    return seen


def mismatches(seen, want):
    return [k for k in ("exit", "verdict", "d", "valencies", "digest")
            if seen.get(k) != want[k]]


def grade(observed, expected):
    """List of (command, mismatched keys) over every command run."""
    return [(cmd, bad) for cmd, seen in observed
            if (bad := mismatches(seen, expected[cmd]))]


def check_expected(workload, expected):
    """expected.json must agree with the closed forms for every command."""
    for cmd in WORKLOADS[workload]:
        want = expected.get(cmd)
        if want is None:
            raise BenchError("no expected entry for %r" % cmd)
        if want["valencies"] is None:
            continue
        with open(os.path.join(ROOT, cmd.split()[1])) as fh:
            ref = reference.valencies(json.load(fh))
        if want["valencies"] != ref or want["d"] != len(ref) - 1:
            raise BenchError("expected.json disagrees with the closed form "
                             "for %r: %s vs %s" % (cmd, want["valencies"], ref))


def check_grader(observed, expected):
    """Flipping one expected digest must be caught."""
    cmd = observed[0][0]
    flipped = dict(expected)
    flipped[cmd] = dict(expected[cmd], digest=expected[cmd]["digest"][::-1])
    if not any(c == cmd for c, _ in grade(observed, flipped)):
        raise BenchError("a flipped digest for %r went unnoticed" % cmd)


# -- children --------------------------------------------------------------

def spawn(args, result_path):
    # One BLAS thread keeps the child single-threaded (numpy would start a
    # pool at import). A bytecode cache of the benchmark's own makes
    # set-up independent of any __pycache__ left in the checkout.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               PYTHONPYCACHEPREFIX=os.path.join(BUILD_DIR, "pycache"))
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
         "--t0", repr(t0), "--result", result_path] + args,
        env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("child timed out")
    if code != 0:
        raise BenchError("child exited with %d" % code)
    with open(result_path) as fh:
        result = json.load(fh)
    samples = result["probe"]
    result["setup_raw_s"] = result["setup_end"] - t0
    result["setup_s"] = probe.scaled(t0, result["setup_end"], samples)
    for records in result.get("passes", []) + [result.get("traced_pass", [])]:
        for r in records:
            r["raw_seconds"] = r["end"] - r["start"]
            r["seconds"] = probe.scaled(r["start"], r["end"], samples)
    return result


# -- metrics ---------------------------------------------------------------

def pass_metrics(records, key="seconds"):
    times = [r[key] for r in records]
    builds = [r[key] for r in records if r["cmd"].startswith("build")]
    duals = [r[key] for r in records if r["cmd"].startswith("dual")]
    return {"wall_s": sum(times), "build_s": sum(builds),
            "dual_s": sum(duals), "max_input_s": max(times)}


def end_to_end(run, setup_samples, key="seconds"):
    per_pass = [pass_metrics(p, key) for p in run["passes"]]
    metrics = {name: (statistics.median(m[name] for m in per_pass), "s")
               for name in per_pass[0]}
    metrics["setup_s"] = (statistics.median(setup_samples), "s")
    metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    return metrics


def per_layer(run, untraced_wall):
    scale = {r["cmd"]: r["seconds"] / r["raw_seconds"]
             for r in run["traced_pass"]}
    metrics = tracer.layer_metrics(run["spans"], run["counts"], scale)
    traced_wall = pass_metrics(run["traced_pass"])["wall_s"]
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


# -- metadata --------------------------------------------------------------

def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def src_summary():
    """sha256 and line count of src/scheme_forge/*.py; the line count is
    informational, tracked next to the timings."""
    pkg = os.path.join(ROOT, "src", "scheme_forge")
    h = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                text = fh.read()
            h.update(name.encode() + b"\0" + text)
            lines += text.count(b"\n")
    return h.hexdigest(), lines


# -- main --------------------------------------------------------------------

def run(workload, seed, seconds, trace):
    if not os.path.isdir(os.path.join(ROOT, "src", "scheme_forge")):
        raise BenchError("no src/scheme_forge under %s" % ROOT)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    check_expected(workload, expected)

    order = list(WORKLOADS[workload])
    random.Random(seed).shuffle(order)
    configs = json.dumps(config_paths(workload))
    scratch = os.path.join(BUILD_DIR, "%s-%d-%d" % (workload, seed, trace))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        setup = [spawn(["--configs", configs],
                       os.path.join(scratch, "setup%d.json" % i))
                 for i in range(SETUP_CHILDREN)]
        main_run = spawn(["--configs", configs, "--order", json.dumps(order),
                          "--outdir", scratch, "--seconds", str(seconds),
                          "--trace", str(trace)],
                         os.path.join(scratch, "run.json"))
        setup.append(main_run)
        passes = main_run["passes"] + ([main_run["traced_pass"]]
                                       if trace else [])
        observed = [(r["cmd"], observe(r)) for p in passes for r in p]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = grade(observed, expected)
    check_grader(observed, expected)
    e2e = end_to_end(main_run, [s["setup_s"] for s in setup])
    src_sha, src_lines = src_summary()
    unscaled = end_to_end(main_run, [s["setup_raw_s"] for s in setup],
                          "raw_seconds")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "order": order,
        "meta": {"git_commit": git_commit(), "src_sha256": src_sha,
                 "src_scheme_forge_lines": src_lines,
                 "nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "python": platform.python_version(),
                 "numpy": main_run["numpy"]},
        "attempted": len(observed), "failed": len(failures),
        "failed_ratio": len(failures) / len(observed),
        "failures": failures,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "unscaled_end_to_end": {k: v[0] for k, v in unscaled.items()},
        "setup_samples_s": [s["setup_s"] for s in setup],
        "passes": [[{k: r[k] for k in ("cmd", "exit", "seconds",
                                         "raw_seconds")} for r in p]
                   for p in main_run["passes"]],
    }
    metrics = e2e
    if trace:
        metrics = per_layer(main_run, e2e["wall_s"][0])
        record["per_layer"] = {k: v[0] for k, v in metrics.items()}
        record["traced_dual_s"] = pass_metrics(main_run["traced_pass"])["dual_s"]
        record["spans"] = main_run["spans"]
    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    path = os.path.join(BUILD_DIR, "results",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for cmd, bad in failures:
        sys.stderr.write("FAILED %s: %s\n" % (cmd, ", ".join(bad)))
    result = {"correct": not failures, "attempted": len(observed),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result, _ = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write("benchmark error: %s\n" % exc)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
