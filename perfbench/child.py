"""One workload in a fresh interpreter: import the CLI from the checkout,
parse the workload's configs, then run its commands one at a time, with
the speed probe sampling throughout.

Started by run.py; not meant to be run by hand. Writes a JSON record to
--result and leaves each command's report in --outdir for run.py to grade.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

from probe import SpeedProbe
from tracer import Tracer


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() in the parent just before spawn")
    ap.add_argument("--configs", required=True, help="JSON list of paths")
    ap.add_argument("--result", required=True)
    ap.add_argument("--order", help="JSON list of command ids")
    ap.add_argument("--outdir")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    return ap.parse_args()


def import_cli(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import scheme_forge.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError("scheme_forge imported from %s, not from %s"
                          % (cli.__file__, src))
    return cli


def run_pass(cli, root, order, outdir, tag, tracer=None):
    """Run every command once; returns one record per command."""
    records = []
    for i, cmd in enumerate(order):
        out = os.path.join(outdir, "%s-%02d.json" % (tag, i))
        argv = [os.path.join(root, tok) if tok.endswith(".json") else tok
                for tok in cmd.split()] + ["--out", out]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            start = time.monotonic()
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.command_span(cmd, lambda: cli.main(argv))
            end = time.monotonic()
        lines = stdout.getvalue().splitlines()
        records.append({"cmd": cmd, "exit": code, "start": start, "end": end,
                        "out": out, "last_line": lines[-1] if lines else ""})
    return records


def main():
    args = parse_args()
    probe = SpeedProbe()
    probe.start()
    cli = import_cli(args.root)
    for path in json.loads(args.configs):
        cli.read_config(os.path.join(args.root, path))
    result = {"setup_end": time.monotonic()}
    if args.order is not None:
        order = json.loads(args.order)
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            passes.append(run_pass(cli, args.root, order, args.outdir,
                                   "p%d" % len(passes)))
        result["passes"] = passes
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        import numpy
        result["numpy"] = numpy.__version__
        if args.trace:
            tracer = Tracer()
            tracer.install()
            result["traced_pass"] = run_pass(cli, args.root, order,
                                             args.outdir, "traced", tracer)
            result["spans"] = tracer.spans
            result["counts"] = tracer.count_values()
    probe.stop()
    result["probe"] = probe.samples
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
