"""Time the stretch configs of this folder, one command at a time:

    python tests/stretch/run.py [--src DIR] [--out-dir DIR] [NAME ...]

Each command runs in a fresh interpreter, in process through
scheme_forge.cli.main, and prints its exit code, its seconds and the peak
resident memory of that interpreter (ru_maxrss).  The seconds are those of
cli.main alone, without start-up and imports; the peak includes them.

NAME keeps the commands of the configs so named (bilinear45_f2, ...); with
no NAME every command runs.  --src runs the package of another checkout.
Each report and each stdout go to --out-dir, which is kept, so that two
checkouts can be compared with cmp; without it they go to a temporary
directory that is removed.  A config named custom_NAME is the action of
NAME as a custom action, its generators as point permutations: it is
written to that directory at run time by the package of --src (about
300 KB for hamming8_f3), and is not kept in this folder.  The duals of
central_z32xz32 and central_z64xz64 write certificates of 326 MB and
4.3 GB; the dual of bilinear45_f2 (|X| = 2^20) peaks near 212 MB
resident, its build near 194 MB.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, os.pardir, "src")

# (command, config, flags): a space above the default size bound of 4096
# points needs its own --size-bound.  The two builds at 1024 points, the
# representative verify bound, sweep every representative.  The central
# duals time the report writer on a mid-size and a large certificate.
# The custom action proves constancy by the adjoint lemma, as hamming8_f3
# does.  The weak-Hamming duals take their dual partition from the
# adjoint images, whose orbits differ from G's: built-in (wh10_6_f2) and
# as a custom action (wh8_6_f2, 2^14 points), which orders the same
# classes by least point.
COMMANDS = [
    ("build", "hamming10_f2", []),
    ("build", "central_z32xz32", []),
    ("dual", "central_z32xz32", []),
    ("dual", "hamming8_f3", ["--size-bound", "6561"]),
    ("dual", "custom_hamming8_f3", ["--size-bound", "6561"]),
    ("dual", "alternating6_f2", ["--size-bound", "32768"]),
    ("dual", "wh10_6_f2", ["--size-bound", "65536"]),
    ("dual", "custom_wh8_6_f2", ["--size-bound", "16384"]),
    ("build", "bilinear44_f2", ["--size-bound", "65536"]),
    ("dual", "bilinear44_f2", ["--size-bound", "65536"]),
    ("build", "bilinear45_f2", ["--size-bound", "1048576"]),
    ("dual", "bilinear45_f2", ["--size-bound", "1048576"]),
    ("dual", "central_z64xz64", []),
]


def run_one(src, stdout_path, argv):
    """cli.main(argv) in this interpreter, its stdout to stdout_path;
    prints the exit code, the seconds and ru_maxrss in MB."""
    sys.path.insert(0, src)
    from scheme_forge import cli
    with open(stdout_path, "w") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("%d %.3f %.0f" % (code, seconds, peak))


def write_custom(src, name, path, flags):
    """Write to `path` the config of the action of stretch config `name`
    as a custom action: its space, and its generators as point
    permutations, built by the package in `src` under the --size-bound
    of `flags`."""
    sys.path.insert(0, src)
    from scheme_forge import cli
    with open(os.path.join(HERE, name + ".json")) as fh:
        cfg = json.load(fh)
    bound = int(flags[flags.index("--size-bound") + 1]) \
        if "--size-bound" in flags else 4096
    _, genset = cli.load_action(cfg, bound)
    with open(path, "w") as fh:
        json.dump({"space": cfg["space"], "action": {
            "family": "custom",
            "generators": [g.perm.tolist() for g in genset.generators]}}, fh)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*")
    parser.add_argument("--src", default=SRC)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--one", nargs=argparse.REMAINDER,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    if args.one:
        run_one(src, args.one[0], args.one[1:])
        return
    unknown = set(args.names) - {name for _, name, _ in COMMANDS}
    if unknown:
        parser.error("no stretch config named %s"
                     % ", ".join(sorted(unknown)))
    out_dir = args.out_dir or tempfile.mkdtemp(prefix="stretch-")
    os.makedirs(out_dir, exist_ok=True)
    print("%-6s %-18s %4s %9s %8s" % ("cmd", "config", "exit", "seconds",
                                      "peak_MB"), flush=True)
    try:
        for command, name, flags in COMMANDS:
            if args.names and name not in args.names:
                continue
            stem = os.path.join(out_dir, "%s_%s" % (command, name))
            config = os.path.join(HERE, name + ".json")
            if name.startswith("custom_"):
                config = os.path.join(out_dir, name + ".json")
                write_custom(src, name[len("custom_"):], config, flags)
            argv = [command, config, *flags, "--out", stem + ".json"]
            result = subprocess.run(
                [sys.executable, __file__, "--src", src, "--one",
                 stem + ".stdout", *argv],
                capture_output=True, text=True)
            if result.returncode:
                sys.stderr.write(result.stderr)
                print("%-6s %-18s failed (exit %d)"
                      % (command, name, result.returncode), flush=True)
                continue
            code, seconds, peak = result.stdout.split()
            print("%-6s %-18s %4s %9s %8s" % (command, name, code, seconds,
                                              peak), flush=True)
    finally:
        if args.out_dir is None:
            shutil.rmtree(out_dir)


if __name__ == "__main__":
    main()
