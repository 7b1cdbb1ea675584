"""Command-line entry point.

Subcommands:
    scheme-forge check <config.json>
    scheme-forge build <config.json> [--out r.json]
    scheme-forge dual <a.json> [<b.json>] [--out c.json]

Exit codes: 0 success, 1 duality/axiom failure, 2 config error, an
--out or a stdout that cannot be written or a malformed flag (a
--size-bound below 1, a negative --matrix-bound), 3 resource bound
exceeded.

write_report writes every report as json.dumps(sort_keys=True, indent=2)
spells it, with an encoder of its own: json's indent path is its
pure-Python one.  The integer arrays and the certificate's coded arrays
are written one text per distinct entry, in pieces.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import nullcontext
from itertools import groupby
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import (UsageError, ConfigError, ResourceLimitError,
                     IntegrityError)
from .space import space_from_config, check_keys, DEFAULT_SIZE_BOUND
from .action import (FAMILIES, build_action, orbits, check_condition_4,
                     check_condition_6)
from .scheme import TranslationScheme, DEFAULT_MATRIX_BOUND
from .duality import duality_report, CodedArray

APPROX_DIGITS = 6


def read_config(path):
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the parser's depth
        raise ConfigError("malformed JSON in %s: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise ConfigError('config must be an object with "space" and "action"')
    check_keys(cfg, ("space", "action"), (), "config")
    return cfg


def action_from_config(space, action_cfg):
    if not isinstance(action_cfg, dict) or "family" not in action_cfg:
        raise ConfigError('action must be an object with a "family" key')
    family = action_cfg["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError("unknown action family %r" % (family,))
    params = {k: v for k, v in action_cfg.items() if k != "family"}
    check_keys(params, *FAMILIES[family][1:], "action " + family)
    return build_action(space, family, **params)


def load_action(cfg, size_bound):
    space = space_from_config(cfg["space"], size_bound=size_bound)
    return space, action_from_config(space, cfg["action"])


# The report's text outside its arrays, and each array's, is written in
# pieces of at most this many characters, so a write stays within 64 KiB;
# an --out file is opened with a 256 KiB buffer, about four pieces per
# write(2).
ARRAY_CHARS = 1 << 16


def _array_chunks(A, depth, memo):
    """Yield the text of A, an integer ndarray or a CodedArray of at least
    one axis and no zero-length one, nested `depth` containers deep, as
    json.dumps(A.tolist(), sort_keys=True, indent=2) spells it.  Each
    distinct entry gets one text, which its cells take by one C-level
    take per block: each value of a CodedArray that A holds is encoded
    by _text once per value list, into memo[id(A.values)], and fitted
    to A's depth by one str.replace; integers in a range no wider than
    the array get one text per value in it, others are int.__repr__'d
    cell by cell."""
    codes = A.codes if isinstance(A, CodedArray) else A
    flat, low = codes.ravel(), 0
    if codes is not A:
        encoded = memo.setdefault(id(A.values),
                                  np.empty(len(A.values), dtype=object))
        present = np.bincount(flat, minlength=len(encoded)).nonzero()[0]
        indent = "\n" + "  " * (depth + codes.ndim)
        table = np.empty(len(encoded), dtype=object)
        for code in present.tolist():
            if encoded[code] is None:
                encoded[code] = _text(A.values[code])
            table[code] = encoded[code].replace("\n", indent)
        width = max(map(len, table[present].tolist()))
    else:
        low, high = int(A.min()), int(A.max())
        width = max(len(int.__repr__(low)), len(int.__repr__(high)))
        table = np.fromiter(map(int.__repr__, range(low, high + 1)),
                            dtype=object, count=high - low + 1
                            ) if high - low < A.size else None

    def texts(start, stop):
        if table is None:
            return np.fromiter(map(int.__repr__, flat[start:stop].tolist()),
                               dtype=object, count=stop - start)
        return table[flat[start:stop] - low]
    yield from _array_blocks(codes.shape, depth, width, texts)


@functools.cache
def _list_texts(depth, k):
    """(first, seps, last) of a k-axis array nested `depth` deep: first
    starts the k lists, seps[t] ends t lists (innermost first), writes a
    comma and starts t lists, last ends the k lists."""
    ind = ["\n" + "  " * (depth + a) for a in range(k + 1)]
    ends = [ind[a] + "]" for a in range(k - 1, -1, -1)]
    starts = [ind[a] + "[" for a in range(k)]
    seps = tuple("".join(ends[:t]) + "," + "".join(starts[k - t:]) + ind[k]
                 for t in range(k))
    return "[" + "".join(starts[1:]) + ind[k], seps, "".join(ends)


def _array_blocks(shape, depth, width, texts):
    """Yield the text of an array of the given shape (no zero-length
    axis), nested `depth` containers deep, from texts(start, stop), the
    texts, of at most `width` characters, of its cells start to stop.

    A unit is an entry along the outermost axis whose text fits in
    ARRAY_CHARS (a cell when none does); a block, as many units of one
    entry along the axis above as fit, is its cell texts (or, when no
    cell is longer than the separator between two, its innermost rows or
    its piece of one, each one str.join) interleaved with the separators
    before them, joined once (and cut into pieces when one cell is longer
    than ARRAY_CHARS)."""
    k = len(shape)
    first, seps, last = _list_texts(depth, k)
    # a unit is an entry along axis; chars bounds its text but its head
    axis, unit, chars = k - 1, 1, width
    while axis:
        grown = chars * shape[axis] + len(seps[k - 1 - axis]) * (
            shape[axis] - 1)
        if grown + len(seps[-1]) > ARRAY_CHARS:
            break
        axis, unit, chars = axis - 1, unit * shape[axis], grown
    step = min(shape[axis], max(1, ARRAY_CHARS // (chars + len(seps[-1]))))
    step *= unit
    # a long cell's text is copied once: it is not joined into a row first
    joined = int(width <= len(seps[0]) and shape[-1] > 1)
    levels = ((step // unit,) + shape[axis + 1:])[:k - axis - joined]
    # the separators before a block's rows (cells) but its first
    between = []
    for t, size in enumerate(reversed(levels), joined):
        between += ([seps[t]] + between) * (size - 1)
    out = np.empty(2 * len(between) + 2, dtype=object)
    out[2::2] = between
    # the first starts as many lists as entries along an axis it starts
    entries = [math.prod(shape[a:]) for a in range(1, k)]
    out[0] = first
    for group in range(0, math.prod(shape), shape[axis] * unit):
        end = group + shape[axis] * unit
        for start in range(group, end, step):
            if start:
                out[0] = seps[sum(start % size == 0 for size in entries)]
            n = min(start + step, end) - start
            cells = texts(start, start + n)
            if joined:
                cells = list(map(seps[0].join, cells.reshape(
                    -1, min(n, shape[-1])).tolist()))
            out[1:2 * len(cells):2] = cells
            text = "".join(out[:2 * len(cells)].tolist())
            for cut in range(0, len(text), ARRAY_CHARS):
                yield text[cut:cut + ARRAY_CHARS]
    yield last


# float.__repr__'s spellings that json spells otherwise
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x):
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# json's spelling of a scalar, by its type
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            float: _float_text, bool: ("false", "true").__getitem__,
            type(None): {None: "null"}.__getitem__}


def _key_text(key):
    """A dict key as json writes it: a string, or a number, bool or None
    spelled as the JSON value and quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"%s"' % _text(key)
    raise TypeError("keys must be str, int, float, bool or None, not %s"
                    % type(key).__name__)


def _encode(obj, depth, out):
    """Append to `out` the text json.dumps(obj, sort_keys=True, indent=2)
    gives obj nested `depth` containers deep: strs, and (array, depth)
    for each integer ndarray and CodedArray with a cell, whose text
    _array_chunks writes.  A dict's keys are sorted raw, an empty or 0-d
    array is its tolist(), and a value or key json rejects raises
    TypeError; a container that holds itself recurses until
    RecursionError.  A list or dict of scalars of one type is spelled by
    one map and one str.join."""
    spell = _SCALARS.get(type(obj))
    if spell is not None:
        out.append(spell(obj))
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        heads, values, opening, closing = None, obj, "[", "]"
        if isinstance(obj, dict):
            keys = sorted(obj)
            heads = [key + ": " for key in map(
                encode_basestring_ascii if set(map(type, keys)) == {str}
                else _key_text, keys)]
            values = list(map(obj.__getitem__, keys))
            opening, closing = "{", "}"
        indent = "\n" + "  " * (depth + 1)
        kinds = set(map(type, values))
        spell = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if spell is not None:
            texts = map(spell, values)
            if heads is not None:
                texts = map(str.__add__, heads, texts)
            out.append(opening + indent + ("," + indent).join(texts)
                       + indent[:-2] + closing)
            return
        for i, value in enumerate(values):
            out.append((opening if i == 0 else ",") + indent
                       + ("" if heads is None else heads[i]))
            _encode(value, depth + 1, out)
        out.append(indent[:-2] + closing)
    elif isinstance(obj, (str, int, float)):  # a subclass: as its base
        out.append(_SCALARS[next(t for t in (str, int, float)
                                 if isinstance(obj, t))](obj))
    else:
        codes = obj.codes if isinstance(obj, CodedArray) else obj
        if not (isinstance(codes, np.ndarray) and codes.dtype.kind in "iu"):
            raise TypeError("Object of type %s is not JSON serializable"
                            % type(obj).__name__)
        if codes.ndim and codes.size:
            out.append((obj, depth))
        else:
            _encode(obj.tolist(), depth, out)


def _text(obj):
    """_encode's text of obj nested no container deep, as one str; obj
    holds no array with a cell (TypeError, as json's, if it does)."""
    out = []
    _encode(obj, 0, out)
    if tuple in map(type, out):
        raise TypeError("an array with a cell in a JSON value")
    return "".join(out)


def write_report(report, out_path):
    """Write json.dumps(report, sort_keys=True, indent=2) + "\n" to
    out_path, or to stdout, byte for byte; an OSError from opening,
    writing, flushing or closing raises ConfigError (_stdout_failed's
    for stdout).

    _encode spells the report but for its arrays with a cell; the text
    between two arrays is joined and written in pieces of at most
    ARRAY_CHARS, each array by _array_chunks, as deep as _encode found
    it.  A CodedArray's value texts are kept by the identity of its value
    list, which the report keeps alive."""
    parts, memo = [], {}
    _encode(report, 0, parts)
    parts.append("\n")
    try:
        out = open(out_path, "w", buffering=1 << 18) if out_path \
            else nullcontext(sys.stdout)
        with out as fh:
            for arrays, run in groupby(parts, lambda p: type(p) is tuple):
                if arrays:
                    for A, depth in run:
                        for chunk in _array_chunks(A, depth, memo):
                            fh.write(chunk)
                    continue
                text = "".join(run)
                for cut in range(0, len(text), ARRAY_CHARS):
                    fh.write(text[cut:cut + ARRAY_CHARS])
            fh.flush()
    except OSError as exc:
        if not out_path:
            raise _stdout_failed("report", exc)
        raise ConfigError("cannot write report %s: %s" % (out_path, exc))


def _stdout_failed(what, exc):
    """The ConfigError for `what`, whose write or flush to stdout raised
    exc.  A stdout with a file descriptor is first pointed at os.devnull,
    so that what the failed write left in its buffer goes there at the
    interpreter's exit flush, instead of failing again (exit 120)."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # an in-process caller's text buffer
        pass
    else:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    return ConfigError("cannot write %s to stdout: %s" % (what, exc))


def render_eigenmatrices(cert):
    """The TSV tables of Q and P, each after its name: every entry's exact
    cyclotomic value and its 6-decimal approximation, from
    cert.approximations.  A cell text is built once per distinct element
    of the two."""
    Q, P = cert.codes[:2]
    texts = np.empty(len(cert.elements), dtype=object)
    for code in np.flatnonzero(np.bincount(np.concatenate(
            [Q.ravel(), P.ravel()]))).tolist():
        texts[code] = "%s (%.*f)" % (cert.elements[code].render(),
                                     APPROX_DIGITS,
                                     cert.approximations[code].real)
    lines = []
    for name, codes in (("Q", Q), ("P", P)):
        lines += [name] + list(map("\t".join, texts[codes].tolist()))
    return "\n".join(lines) + "\n"


def check_report(space, genset):
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
        name, x, y = additive_witness
        report["condition_3_witness"] = [name, space.serialize_point(x),
                                         space.serialize_point(y)]
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
    axioms = scheme.verify_axioms()
    report["axioms"] = axioms
    report["status"] = "symmetric_scheme"
    all_ok = (report["condition_3_additive"]
              and report["pairing_nondegenerate"] and axioms["all_pass"])
    return report, 0 if all_ok else 1, scheme


def cmd_check(args):
    cfg = read_config(args.config)
    space, genset = load_action(cfg, args.size_bound)
    report, code, _ = check_report(space, genset)
    write_report(report, args.out)
    return code


def cmd_build(args):
    cfg = read_config(args.config)
    space, genset = load_action(cfg, args.size_bound)
    report, code, scheme = check_report(space, genset)
    if report["status"] != "symmetric_scheme" or code != 0:
        write_report(report, args.out)
        return code if code else 1
    full = scheme.to_report(genset.family)
    full["check"] = report
    write_report(full, args.out)
    return 0


def cmd_dual(args):
    cfg_a = read_config(args.config)
    space, gens_G = load_action(cfg_a, args.size_bound)
    gens_Gc = None
    if args.config_b:
        cfg_b = read_config(args.config_b)
        # built only when its JSON is not a's, then compared as built, so
        # a default spelled out is the same space
        if json.dumps(cfg_b["space"], sort_keys=True) != json.dumps(
                cfg_a["space"], sort_keys=True) and space_from_config(
                cfg_b["space"], args.size_bound).to_config() \
                != space.to_config():
            raise ConfigError("the two configs must describe the same space")
        # built on the shared space object so point indices coincide
        gens_Gc = action_from_config(space, cfg_b["action"])
    cert = duality_report(gens_G, gens_Gc=gens_Gc,
                          matrix_bound=args.matrix_bound)
    write_report(cert.to_json(), args.out)
    try:
        if cert.Q is not None:
            sys.stdout.write(render_eigenmatrices(cert))
        sys.stdout.write("duality: %s (%s)\n"
                         % ("PASS" if cert.passed else "FAIL", cert.mode))
        sys.stdout.flush()
    except OSError as exc:
        raise _stdout_failed("the eigenmatrices and verdict", exc)
    return 0 if cert.passed else 1


def at_least(low):
    """An argparse type: an int of at least `low`, so that an
    out-of-range bound exits 2 with a usage message."""
    def bound(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d"
                                             % (low, value))
        return value
    return bound


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
        p.add_argument("--size-bound", type=at_least(1),
                       default=DEFAULT_SIZE_BOUND, dest="size_bound")

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
    p_dual.add_argument("--matrix-bound", type=at_least(0),
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
