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
import functools
import json
import math
import sys
from collections import defaultdict
from contextlib import nullcontext
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import (UsageError, ConfigError, ResourceLimitError,
                     IntegrityError)
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


# A container whose text stays within about this many characters is
# memoized (a Krein entry with phi(m) = 64 coefficients is 1,096 at its
# depth); a container's pending text is written out once it grows past.
MEMO_CHARS = 1 << 12
# An integer array's text is written in pieces of at most this many
# characters, so a write, with the pending text of at most MEMO_CHARS
# before it, stays within 64 KiB.
ARRAY_CHARS = 1 << 15


def _scalar_text(value):
    """The JSON text of a str, None, bool, int or float (checked in the
    order json checks them); None for any other value."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


def _key_text(key):
    text = key if isinstance(key, str) else _scalar_text(key)
    if text is None:
        raise TypeError("keys must be str, int, float, bool or None, not %s"
                        % type(key).__name__)
    return encode_basestring_ascii(text)


def _array_rows(texts, shape, depth):
    """The texts of the rows (axis-0 entries) of an array of the given
    shape, nested `depth` containers deep, from the flat list of its
    element texts in row-major order: joined level by level, innermost
    first, one str.join per list."""
    for axis in range(len(shape) - 1, 0, -1):
        size = shape[axis]
        if size == 0:
            texts = ["[]"] * math.prod(shape[:axis])
            continue
        inner = "\n" + "  " * (depth + axis + 1)
        pattern = "[" + inner + "%s\n" + "  " * (depth + axis) + "]"
        texts = [pattern % text for text in
                 map(("," + inner).join, zip(*[iter(texts)] * size))]
    return texts


def _array_chunks(A, depth):
    """Yield the text of the integer ndarray A, nested `depth`
    containers deep, as json.dumps(A.tolist(), indent=2) spells it.

    When the values span a range no wider than the array, each value in
    it gets one text, which every entry of that value reuses; otherwise
    each entry is int.__repr__'d.  The array is written a block of rows
    along its first axis at a time, blocks of about ARRAY_CHARS
    characters, each block's text cut into pieces of at most that."""
    if A.ndim == 0:
        yield int.__repr__(int(A))
        return
    if A.shape[0] == 0:
        yield "[]"
        return
    low, high = (int(A.min()), int(A.max())) if A.size else (0, 0)
    if high - low < A.size:
        table = np.array([int.__repr__(v) for v in range(low, high + 1)],
                         dtype=object)

        def texts(block):
            return table[(block - low).ravel()].tolist()
    else:
        def texts(block):
            return list(map(int.__repr__, block.ravel().tolist()))
    # an entry takes its text, a comma and its indentation
    width = max(len(int.__repr__(low)), len(int.__repr__(high)))
    row_chars = max(A[0].size, 1) * (width + 2 * (depth + A.ndim) + 2)
    step = max(1, ARRAY_CHARS // row_chars)
    inner = "\n" + "  " * (depth + 1)
    sep = "," + inner
    text = "[" + inner
    for start in range(0, len(A), step):
        block = A[start:start + step]
        text += sep.join(_array_rows(texts(block), block.shape, depth))
        if start + step >= len(A):
            text += "\n" + "  " * depth + "]"
        for cut in range(0, len(text), ARRAY_CHARS):
            yield text[cut:cut + ARRAY_CHARS]
        text = sep


def _chunks(obj, depth, memo):
    """Yield the text of obj, nested `depth` containers deep, as
    json.dumps(sort_keys=True, indent=2) spells it.

    memo[depth] maps id(container) to the text of a container at that
    depth whose text stayed within MEMO_CHARS; the parent reuses it for
    every later occurrence of the container at that depth, so each
    shared entry is encoded once whatever its size up to that limit.
    A list of plain ints is one str.join.  A list looks all its children
    up in memo[depth + 1] at once, and when every one is there it is
    written with one sep.join per slice of about MEMO_CHARS characters.
    Otherwise the pending text is yielded whenever it passes MEMO_CHARS.
    An integer ndarray is written as its tolist() would be, by
    _array_chunks."""
    text = _scalar_text(obj)
    if text is not None:
        yield text
        return
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "iu":
        yield from _array_chunks(obj, depth)
        return
    inner = "\n" + "  " * (depth + 1)
    sep = "," + inner
    if isinstance(obj, dict):
        items = sorted(obj.items())
        lead = [sep + _key_text(key) + ": " for key, _ in items]
        values = [value for _, value in items]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        lead, values, brackets = None, obj, "[]"
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)
    if not values:
        yield brackets
        return
    close = "\n" + "  " * depth + brackets[1]
    level = memo[depth + 1]
    if lead is None:
        if set(map(type, values)) == {int}:
            yield "[" + inner + sep.join(map(int.__repr__, values)) + close
            return
        texts = list(map(level.get, map(id, values)))
        if None not in texts:
            # every child already encoded: C-level joins of about
            # MEMO_CHARS characters each
            step = max(1, MEMO_CHARS // (max(map(len, texts)) + len(sep)))
            text = "[" + inner + sep.join(texts[:step])
            for start in range(step, len(texts), step):
                yield text
                text = sep + sep.join(texts[start:start + step])
            text += close
            if len(texts) <= step:
                memo[depth][id(obj)] = text
            yield text
            return
        lead = [sep] * len(values)
    lead[0] = brackets[0] + lead[0][1:]  # the bracket, not a comma
    pending, size, whole = [], 0, True
    for head, value in zip(lead, values):
        text = _scalar_text(value)
        if text is None:
            text = level.get(id(value))
        if text is None:
            pending.append(head)
            size += len(head)
            chunks = _chunks(value, depth + 1, memo)
        else:
            chunks = (head + text,)
        for text in chunks:
            pending.append(text)
            size += len(text)
            if size > MEMO_CHARS:
                yield "".join(pending)
                pending, size, whole = [], 0, False
    pending.append(close)
    text = "".join(pending)
    if whole:
        memo[depth][id(obj)] = text
    yield text


def write_report(report, out_path):
    """Write json.dumps(report, sort_keys=True, indent=2) + "\n" to
    out_path, or to stdout, byte for byte, streamed.

    The encoder takes str, int, float, bool and None scalars (ASCII
    escaping, float repr, NaN and Infinity spelled as json spells them)
    and dict, list and tuple containers, dict keys sorted, and integer
    numpy arrays, which it writes as their tolist().  Each shared
    entry is encoded once, whatever its size up to MEMO_CHARS: the text
    of a container that stays within MEMO_CHARS is memoized by depth and
    id, depth because indentation depends on it, identity because the
    report keeps every container alive while it is written (a list of
    plain ints is not memoized: one str.join re-encodes it).  A list
    whose entries are all encoded already is written with C-level joins,
    and a container's pending text is written once it passes MEMO_CHARS,
    so the whole text is never held."""
    with open(out_path, "w") if out_path else nullcontext(sys.stdout) as fh:
        for text in _chunks(report, 0, defaultdict(dict)):
            fh.write(text)
        fh.write("\n")


def render_eigenmatrix(name, M):
    """TSV table: exact cyclotomic entry plus 6-decimal approximation,
    the cell text of each distinct entry built once."""
    cells = {}
    for c in chain.from_iterable(M):
        if c not in cells:
            cells[c] = "%s (%.*f)" % (c.render(), APPROX_DIGITS,
                                      c.approx()[0].real)
    return "\n".join([name] + ["\t".join(map(cells.__getitem__, row))
                               for row in M])


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
            "class": int(partition.class_of[witness]),
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


@functools.cache
def make_parser():
    """The argument parser, built on first use and kept: parse_args
    reads it without changing it, and each call starts from a fresh
    namespace of the defaults."""
    parser = argparse.ArgumentParser(
        prog="scheme-forge",
        description="translation association schemes from group actions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write JSON report here")
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
    p_dual.add_argument("--matrix-bound", type=int,
                        default=DEFAULT_MATRIX_BOUND, dest="matrix_bound")
    p_dual.set_defaults(func=cmd_dual)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
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
