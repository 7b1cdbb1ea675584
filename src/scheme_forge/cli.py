"""Command-line entry point.

Subcommands:
    scheme-forge check <config.json>
    scheme-forge build <config.json> [--out r.json]
    scheme-forge dual <a.json> [<b.json>] [--out c.json]

Exit codes: 0 success, 1 duality/axiom failure, 2 config error,
3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (SchemeForgeError, UsageError, ConfigError,
                     ResourceLimitError, IntegrityError)
from .space import space_from_config, check_keys, DEFAULT_SIZE_BOUND
from .action import (build_action, orbits, check_condition_4,
                     check_condition_6)
from .scheme import TranslationScheme, DEFAULT_MATRIX_BOUND
from .duality import duality_report

APPROX_DIGITS = 6


def read_config(path):
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except ValueError as exc:
        raise ConfigError("malformed JSON in %s: %s" % (path, exc))
    if not isinstance(cfg, dict) or "space" not in cfg or "action" not in cfg:
        raise ConfigError('config must be an object with "space" and "action"')
    return cfg


# Action family -> (required, optional) parameter keys; no other key but
# "family" is accepted.
ACTION_KEYS = {
    "central": ((), ()), "bilinear": ((), ()), "alternating": ((), ()),
    "symmetric": ((), ()), "hermitian": ((), ()), "hamming": ((), ("n",)),
    "cyclotomic": (("d",), ()), "custom": (("generators",), ()),
    "weak_hamming": (("levels",), ()), "weak_hamming_dual": (("levels",), ()),
}


def action_from_config(space, action_cfg):
    if not isinstance(action_cfg, dict) or "family" not in action_cfg:
        raise ConfigError('action must be an object with a "family" key')
    family = action_cfg["family"]
    if not isinstance(family, str) or family not in ACTION_KEYS:
        raise ConfigError("unknown action family %r" % (family,))
    params = {k: v for k, v in action_cfg.items() if k != "family"}
    check_keys(params, *ACTION_KEYS[family], "action " + family)
    return build_action(space, family, **params)


def load_action(cfg, size_bound):
    space = space_from_config(cfg["space"], size_bound=size_bound)
    return space, action_from_config(space, cfg["action"])


def write_report(report, out_path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def render_eigenmatrix(name, M):
    """TSV table: exact cyclotomic entry plus 6-decimal approximation."""
    lines = [name]
    for row in M:
        cells = []
        for c in row:
            val, _ = c.approx()
            cells.append("%s (%.*f)" % (c.render(), APPROX_DIGITS, val.real))
        lines.append("\t".join(cells))
    return "\n".join(lines)


def check_report(space, genset, verify_representatives):
    """Conditions (3)/(4)/(6), orbits, scheme axioms.

    Returns (report, code, scheme): scheme is the checked TranslationScheme,
    which keeps its intersection tensor, or None when the classes are not
    negation-closed."""
    report = {
        "space": space.to_config(),
        "action": genset.label(),
        "size": space.size,
    }
    additive_ok, additive_witness = genset.verify_additive()
    report["condition_3_additive"] = additive_ok
    if not additive_ok:
        report["condition_3_witness"] = list(additive_witness)
    nondeg_ok, nondeg_witness = space.verify_nondegenerate()
    report["pairing_nondegenerate"] = nondeg_ok
    if not nondeg_ok:
        report["pairing_witness"] = space.serialize_point(nondeg_witness)
    partition = orbits(genset)
    report["d"] = partition.d
    report["class_sizes"] = partition.sizes
    ok4, witness = check_condition_4(partition, space)
    report["condition_4"] = ok4
    if not ok4:
        report["condition_4_witness"] = {
            "class": partition.class_of[witness],
            "point": space.serialize_point(witness),
            "negation": space.serialize_point(space.neg(witness)),
        }
        pairing = check_condition_6(partition, space)
        if pairing is not None:
            report["status"] = "commutative_non_symmetric"
            report["condition_6_pairing"] = pairing
            return report, 0, None
        report["status"] = "not_a_scheme"
        return report, 1, None
    scheme = TranslationScheme(space, partition, label=genset.label())
    axioms = scheme.verify_axioms(verify_representatives)
    report["axioms"] = axioms
    report["status"] = "symmetric_scheme"
    all_ok = (report["condition_3_additive"]
              and report["pairing_nondegenerate"] and axioms["all_pass"])
    return report, 0 if all_ok else 1, scheme


def cmd_check(args):
    cfg = read_config(args.config)
    space, genset = load_action(cfg, args.size_bound)
    report, code, _ = check_report(space, genset,
                                   args.verify_representatives)
    write_report(report, args.out)
    return code


def cmd_build(args):
    cfg = read_config(args.config)
    space, genset = load_action(cfg, args.size_bound)
    report, code, scheme = check_report(space, genset,
                                        args.verify_representatives)
    if report["status"] != "symmetric_scheme" or code != 0:
        write_report(report, args.out)
        return code if code else 1
    full = scheme.to_report(genset.family, args.verify_representatives)
    full["check"] = report
    write_report(full, args.out)
    return 0


def cmd_dual(args):
    cfg_a = read_config(args.config)
    space, gens_G = load_action(cfg_a, args.size_bound)
    gens_Gc = None
    if args.config_b:
        cfg_b = read_config(args.config_b)
        if cfg_b["space"] != cfg_a["space"]:
            raise ConfigError("the two configs must describe the same space")
        # built on the shared space object so point indices coincide
        gens_Gc = action_from_config(space, cfg_b["action"])
    cert = duality_report(gens_G, gens_Gc=gens_Gc,
                          matrix_bound=args.matrix_bound,
                          verify_representatives=args.verify_representatives)
    write_report(cert.to_json(), args.out)
    if cert.Q is not None:
        sys.stdout.write(render_eigenmatrix("Q", cert.Q) + "\n")
        sys.stdout.write(render_eigenmatrix("P", cert.P) + "\n")
    sys.stdout.write("duality: %s (%s)\n"
                     % ("PASS" if cert.passed else "FAIL", cert.mode))
    return 0 if cert.passed else 1


def make_parser():
    parser = argparse.ArgumentParser(
        prog="scheme-forge",
        description="translation association schemes from group actions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write JSON report here")
        p.add_argument("--matrix-bound", type=int,
                       default=DEFAULT_MATRIX_BOUND, dest="matrix_bound")
        p.add_argument("--size-bound", type=int,
                       default=DEFAULT_SIZE_BOUND, dest="size_bound")
        p.add_argument("--no-verify-representatives", action="store_false",
                       dest="verify_representatives", default=None)

    p_check = sub.add_parser("check", help="verify scheme preconditions/axioms")
    p_check.add_argument("config")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_build = sub.add_parser("build", help="emit the full scheme report")
    p_build.add_argument("config")
    common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_dual = sub.add_parser("dual", help="emit a duality certificate")
    p_dual.add_argument("config")
    p_dual.add_argument("config_b", nargs="?", default=None)
    common(p_dual)
    p_dual.set_defaults(func=cmd_dual)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write("resource limit: %s\n" % exc)
        return 3
    except (ConfigError, UsageError) as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 2
    except IntegrityError as exc:
        sys.stderr.write("integrity failure: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
