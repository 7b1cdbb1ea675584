"""CLI: exit codes, report shapes, determinism."""

import contextlib
import functools
import gc
import io
import json
import math
import os
import resource
import subprocess
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scheme_forge import cli, duality, scheme
from scheme_forge.action import (build_action, orbits, check_condition_4,
                                 Generator, GeneratorSet)
from scheme_forge.cli import main
from scheme_forge.cyclo import CycloInt
from scheme_forge.duality import CodedArray
from scheme_forge.space import AbelianSpace, CyclicProductSpace, GramSpace

from helpers import plain

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def cfg(name):
    return os.path.join(CONFIGS, name + ".json")


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_symmetric_f5(capsys):
    code, out, _ = run(["check", cfg("symmetric2_f5")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "symmetric_scheme"
    assert report["condition_4"]


def test_check_symmetric_f3_condition6(capsys):
    code, out, _ = run(["check", cfg("symmetric2_f3")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "commutative_non_symmetric"
    assert report["condition_4"] is False
    pairing = report["condition_6_pairing"]
    assert all(pairing[j] == i for i, j in enumerate(pairing))


def test_check_all_acceptance_configs(capsys):
    for name in ("central_z8", "cyclotomic2_f5", "bilinear22_f2",
                 "alternating4_f2", "her2_f4", "hamming2_f2",
                 "wh11_f2", "wh21_f2", "wh12_f2"):
        code, out, _ = run(["check", cfg(name)], capsys)
        assert code == 0, name
        assert json.loads(out)["status"] == "symmetric_scheme"


def test_build_reports(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _, _ = run(["build", cfg("hamming4_f3"), "--out", str(out_file)],
                     capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["d"] == 4
    assert report["valencies"] == [1, 8, 24, 32, 16]

    code, out, _ = run(["build", cfg("bilinear22_f2")], capsys)
    assert code == 0
    assert json.loads(out)["valencies"] == [1, 9, 6]

    code, out, _ = run(["build", cfg("alternating4_f2")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["d"] == 2 and report["valencies"] == [1, 35, 28]


def test_dual_self_modes(capsys, tmp_path):
    for name in ("hamming2_f2", "her2_f4", "central_z8"):
        out_file = tmp_path / (name + ".json")
        code, out, _ = run(["dual", cfg(name), "--out", str(out_file)], capsys)
        assert code == 0, name
        cert = json.loads(out_file.read_text())
        assert cert["pass"] and cert["mode"] == "self"
        assert "PASS" in out


def test_dual_cross_mode(capsys):
    code, out, _ = run(["dual", cfg("wh21_f2"), cfg("wh12_f2")], capsys)
    assert code == 0
    assert "PASS (cross)" in out


def test_dual_failure_exit_code(capsys):
    # symmetric/F_3 cannot produce a symmetric-scheme certificate
    code, _, _ = run(["dual", cfg("symmetric2_f3")], capsys)
    assert code == 1


def test_space_mismatch_exit_2(capsys):
    code, _, err = run(["dual", cfg("hamming2_f2"), cfg("hamming4_f3")],
                       capsys)
    assert code == 2 and "config error" in err


@pytest.mark.parametrize("field, extra, same", [
    ({"e": 1}, {}, True),
    ({}, {"lambda_multiplier": 1}, True),
    ({"e": 1}, {"lambda_multiplier": 1}, True),
    ({"p": 3}, {}, False),
    ({"e": 2}, {}, False),
    ({}, {}, True),
])
def test_dual_pair_compares_the_spaces_as_built(field, extra, same, capsys,
                                                tmp_path, monkeypatch):
    """dual a.json b.json takes b's space as a's when both build the same
    space: wh12's space with a default spelled out ("e": 1 in the field,
    "lambda_multiplier": 1) gives the bytes of the plain wh21 x wh12
    pair; another field still exits 2.  b's space is built only when its
    JSON is not a's: the plain pair builds one space."""
    with open(cfg("wh12_f2")) as fh:
        config = json.load(fh)
    config["space"]["field"].update(field)
    config["space"].update(extra)
    edited = tmp_path / "wh12.json"
    edited.write_text(json.dumps(config))
    plain_out, edited_out = tmp_path / "plain.json", tmp_path / "edited.json"
    assert main(["dual", cfg("wh21_f2"), cfg("wh12_f2"),
                 "--out", str(plain_out)]) == 0
    want = capsys.readouterr().out
    builds = []
    real = cli.space_from_config

    def counted(*args, **kwargs):
        builds.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "space_from_config", counted)
    code, out, err = run(["dual", cfg("wh21_f2"), str(edited),
                          "--out", str(edited_out)], capsys)
    assert len(builds) == (1 if not field and not extra else 2)
    if same:
        assert (code, out, err) == (0, want, "")
        assert edited_out.read_bytes() == plain_out.read_bytes()
    else:
        assert code == 2 and "must describe the same space" in err


def test_bad_cyclotomic_config_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "space": {"kind": "vector", "n": 1, "field": {"p": 5}},
        "action": {"family": "cyclotomic", "d": 3}}))  # 2d does not divide q-1
    code, _, err = run(["check", str(bad)], capsys)
    assert code == 2 and "config error" in err


def test_malformed_config_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(["check", str(bad)], capsys)
    assert code == 2
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    code, _, _ = run(["check", str(empty)], capsys)
    assert code == 2
    # nested past the parser's recursion limit, alone and as the second
    # config of dual
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    for argv in (["check", str(deep)], ["dual", cfg("hamming2_f2"), str(deep)]):
        code, _, err = run(argv, capsys)
        assert code == 2 and "malformed JSON" in err


HAMMING = {"kind": "vector", "n": 2, "field": {"p": 2}}


@pytest.mark.parametrize("space, action, message", [
    ({"kind": "vector", "field": {"p": 2}}, {"family": "hamming"},
     "missing key 'n'"),
    ({"kind": "cyclic_product"}, {"family": "central"},
     "missing key 'moduli'"),
    (HAMMING, {"family": "weak_hamming"}, "missing key 'levels'"),
    (HAMMING, {"family": "cyclotomic"}, "missing key 'd'"),
    ({"kind": "vector", "n": 2, "field": {}}, {"family": "hamming"},
     "missing key 'p'"),
    ({"kind": "vector", "n": "2", "field": {"p": 2}}, {"family": "hamming"},
     "'n' must be an integer"),
    ({"kind": "vector", "n": True, "field": {"p": 2}},
     {"family": "hamming"}, "'n' must be an integer"),
    ({"kind": "cyclic_product", "moduli": 8}, {"family": "central"},
     "'moduli' must be a list of integers"),
    ({"kind": "vector", "n": 2, "field": 2}, {"family": "hamming"},
     "'field' must be an object"),
    (HAMMING, {"family": "weak_hamming", "levels": [1, "1"]},
     "'levels' must be a list of integers"),
    (HAMMING, {"family": "custom", "generators": [0, 1]},
     "'generators' must be a list of integer lists"),
    ({"kind": "vector", "n": 2, "field": {"p": 2}, "bogus": 1},
     {"family": "hamming"}, "unknown key(s) 'bogus'"),
    ({"kind": "vector", "n": 2, "field": {"p": 2, "bogus": 1}},
     {"family": "hamming"}, "unknown key(s) 'bogus'"),
    (HAMMING, {"family": "hamming", "bogus": 1}, "unknown key(s) 'bogus'"),
    ({"kind": ["vector"]}, {"family": "hamming"}, "needs a 'kind' of"),
    (HAMMING, {"family": "nope"}, "unknown action family"),
    ({"kind": "cyclic_product", "moduli": [5]},
     {"family": "custom", "generators": [[1, 2, 3, 4, 0]]},
     "custom generator 0 does not fix 0"),
    ({"kind": "matrix_full", "m": -1, "n": 2, "field": {"p": 2}},
     {"family": "bilinear"}, "m must be >= 1"),
    ({"kind": "matrix_full", "m": 2, "n": 0, "field": {"p": 2}},
     {"family": "bilinear"}, "n must be >= 1"),
    ({"kind": "vector", "n": 0, "field": {"p": 2}}, {"family": "hamming"},
     "n must be >= 1"),
    ({"kind": "matrix_alternating", "m": 0, "field": {"p": 2}},
     {"family": "alternating"}, "m must be >= 1"),
    ({"kind": "matrix_symmetric", "m": -2, "field": {"p": 3}},
     {"family": "symmetric"}, "m must be >= 1"),
    ({"kind": "matrix_hermitian", "m": 0, "field": {"p": 2, "e": 2}},
     {"family": "hermitian"}, "m must be >= 1"),
    ({"kind": "vector", "n": 2, "field": {"p": 2, "modulus": [1, 1, 1]}},
     {"family": "hamming"}, "modulus must be monic of degree e"),
    (HAMMING, {"family": "weak_hamming", "levels": [10 ** 19]},
     "level sizes must sum to the space dimension"),
    ({"kind": "vector", "n": 3, "field": {"p": 2}},
     {"family": "weak_hamming", "levels": [10 ** 19, -10 ** 19 + 3]},
     "levels must be positive integers"),
])
def test_config_schema_errors_exit_2(capsys, tmp_path, space, action,
                                     message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"space": space, "action": action}))
    for command in ("check", "build", "dual"):
        code, _, err = run([command, str(bad)], capsys)
        assert code == 2 and "config error" in err and message in err


# every shipped and perfbench config, the seeds of the config fuzzer
FUZZ_CONFIGS = [os.path.join(folder, name) for folder in (
    CONFIGS, os.path.join(CONFIGS, os.pardir, "perfbench", "configs"))
    for name in sorted(os.listdir(folder)) if name.endswith(".json")]
# values of a wrong type, and integers past every bound or below zero
WRONG_TYPES = st.sampled_from([None, True, 2.5, "2", [], {}, [2], {"p": 2}])
BAD_INTEGERS = st.one_of(st.sampled_from([2 ** 31, 2 ** 63, 10 ** 19,
                                          10 ** 100]),
                         st.integers(-10 ** 20, -1))


def slots(node):
    """Every (container, key) of a JSON tree, each container before its
    children's."""
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    found = []
    for key, child in children:
        found += [(node, key)] + slots(child)
    return found


@st.composite
def mutated_configs(draw):
    """The text of a shipped or perfbench config after one to three
    mutations, each at a random place of its tree: a key or entry
    dropped, or its value replaced by one of a wrong type or by a huge or
    negative integer."""
    with open(draw(st.sampled_from(FUZZ_CONFIGS))) as fh:
        config = json.load(fh)
    for _ in range(draw(st.integers(1, 3))):
        places = slots(config)
        if not places:
            break
        node, key = draw(st.sampled_from(places))
        kind = draw(st.sampled_from(["drop", "type", "integer"]))
        if kind == "drop":
            del node[key]
        else:
            # a copy: a later mutation may change it in place
            node[key] = json.loads(json.dumps(draw(
                WRONG_TYPES if kind == "type" else BAD_INTEGERS)))
    return json.dumps(config)


@settings(max_examples=300, deadline=None, database=None)
@given(mutated_configs(), st.sampled_from(["check", "build", "dual"]))
@example(json.dumps({"space": {"kind": "vector", "n": 2, "field": {"p": 2}},
                     "action": {"family": "weak_hamming",
                                "levels": [10 ** 19]}}), "dual")
@example("[" * 200000, "check")
def test_mutated_configs_end_in_an_exit_code(tmp_path_factory, text,
                                             command):
    """A fuzzed config, run through cli.main by check, build or dual,
    ends in an exit code of 0 to 3, never an escaped exception, and an
    exit of 2 or 3 comes with a message.  Its seeds are the two configs
    that once ended in a traceback: a level of 10^19 and a config nested
    past the JSON parser's depth."""
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), "--out", os.devnull])
    assert code in (0, 1, 2, 3)
    assert code < 2 or err.getvalue().startswith(
        ("config error: ", "resource limit: "))


@pytest.mark.parametrize("argv, message", [
    (["check", cfg("hamming2_f2"), "--size-bound", "0"],
     "argument --size-bound: must be at least 1, got 0"),
    (["build", cfg("hamming2_f2"), "--size-bound", "-5"],
     "argument --size-bound: must be at least 1, got -5"),
    (["dual", cfg("hamming2_f2"), "--size-bound", "-1"],
     "argument --size-bound: must be at least 1, got -1"),
    (["dual", cfg("hamming2_f2"), "--matrix-bound", "-1"],
     "argument --matrix-bound: must be at least 0, got -1"),
    (["dual", cfg("hamming2_f2"), "--matrix-bound", "x"],
     "argument --matrix-bound: invalid int value: 'x'"),
])
def test_out_of_range_bounds_exit_2(argv, message, capsys):
    """A --size-bound below 1 or a negative --matrix-bound exits 2 with a
    message naming the flag."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_least_bounds_accepted(capsys):
    """--size-bound 1 parses (and |X| = 4 exceeds it: exit 3), and
    --matrix-bound 0 parses (and materializes no idempotent)."""
    code, _, err = run(["check", cfg("hamming2_f2"), "--size-bound", "1"],
                       capsys)
    assert code == 3 and "resource limit" in err
    code, out, _ = run(["dual", cfg("hamming2_f2"), "--matrix-bound", "0"],
                       capsys)
    assert code == 0 and "idempotent_detail" not in json.loads(
        out.split("\nQ\n")[0])["checks"]


def test_unknown_config_key_exit_2(capsys, tmp_path):
    """A top-level config key other than "space" and "action" exits 2
    with a message, in either config of dual, as an unknown space or
    action key does."""
    with open(cfg("hamming2_f2")) as fh:
        good = json.load(fh)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(good, extra=1)))
    for argv in (["check", str(bad)], ["build", str(bad)],
                 ["dual", str(bad)], ["dual", cfg("hamming2_f2"), str(bad)]):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert err == "config error: config: unknown key(s) 'extra'\n", argv


# configs past the bounds on q, |X| and d that hung, or ended in a
# traceback, before the bounds were checked ahead of building anything:
# trial division of a prime near 2^61, an |X| of more than 4300 digits
# (past Python's int-to-str limit in the message), per-coordinate blocks
# for 9 million entries, and d = 4095 classes (no generators, so every
# point is its own class), whose 4096^3 intersection tensor is 512 GiB
OVERSIZED = {
    "prime 2^61 - 1": ({"kind": "vector", "n": 1,
                        "field": {"p": 2305843009213693951}},
                       {"family": "hamming"}),
    "vector 2^200000": ({"kind": "vector", "n": 200000, "field": {"p": 2}},
                        {"family": "hamming"}),
    "moduli 2 x 20000": ({"kind": "cyclic_product", "moduli": [2] * 20000},
                         {"family": "central"}),
    "matrix 3000 x 3000": ({"kind": "matrix_full", "m": 3000, "n": 3000,
                            "field": {"p": 2}}, {"family": "bilinear"}),
    "d = 4095": ({"kind": "vector", "n": 12, "field": {"p": 2}},
                 {"family": "custom", "generators": []}),
}

# address space of each child interpreter: room for numpy and the largest
# array a bounded run allocates, so that a regression allocating a huge
# tensor fails at once instead of exhausting the machine.  The children
# run one BLAS thread, as each thread reserves tens of MB of it.
CHILD_ADDRESS_SPACE = 2 << 30


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE,
                                            CHILD_ADDRESS_SPACE))


def test_size_bound_exit_3(capsys, tmp_path):
    """An |X|, q or d past its bound exits 3 with a message naming the
    bound.  Each OVERSIZED case runs in a child interpreter under an
    address-space cap, so that a regression fails on the timeout or the
    cap instead of hanging the suite or exhausting memory."""
    code, _, err = run(["check", cfg("hamming4_f3"), "--size-bound", "10"],
                       capsys)
    assert code == 3 and "resource limit" in err
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    path = tmp_path / "big.json"
    for name, (space, action) in OVERSIZED.items():
        path.write_text(json.dumps({"space": space, "action": action}))
        proc = subprocess.run([sys.executable, "-m", "scheme_forge.cli",
                               "check", str(path)], capture_output=True,
                              text=True, env=env, timeout=60,
                              preexec_fn=limit_address_space)
        assert proc.returncode == 3, (name, proc.stderr)
        assert proc.stderr.startswith("resource limit: "), name
        assert "exceeds" in proc.stderr and "bound" in proc.stderr, name


def test_condition_3_witness_is_in_coordinates():
    """check_report gives a failed additivity witness as the map's name
    and the points x and e_i in coordinates.  On Z_2 x Z_5 the map
    (a, b) -> (a, h(b)) with h swapping 1, 2 and 3, 4 is additive along
    the first digit, not the second: the first failure is at
    x = e_i = (0, 1), as h(2) = 1 and h(1) + h(1) = 4."""
    h = [0, 2, 1, 4, 3]
    space = CyclicProductSpace((2, 5))
    genset = GeneratorSet(space, "custom", {}, [Generator(
        "custom_0", [5 * a + h[b] for a in range(2) for b in range(5)], {})])
    report, _, _ = cli.check_report(space, genset)
    assert report["condition_3_additive"] is False
    assert report["condition_3_witness"] == ["custom_0", [0, 1], [0, 1]]
    assert json.loads(json.dumps(report))["condition_3_witness"] == \
        report["condition_3_witness"]


def test_custom_additivity_error_names_coordinates(capsys, tmp_path):
    """A custom generator of F_3^2 that swaps (0, 1) and (0, 2), points 1
    and 2, and fixes the rest is not additive: x = (0, 1) and e = (1, 0),
    point 3, give g(x + e) = (1, 1) but g(x) + g(e) = (1, 2).  Every
    command exits 2 with the witness as coordinates, not as the point
    indices 1 and 3."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "space": {"kind": "vector", "n": 2, "field": {"p": 3}},
        "action": {"family": "custom",
                   "generators": [[0, 2, 1, 3, 4, 5, 6, 7, 8]]}}))
    for command in ("check", "build", "dual"):
        code, _, err = run([command, str(bad)], capsys)
        assert code == 2 and err == (
            "config error: custom generator violates additivity at "
            "('custom_0', [0, 1], [1, 0])\n"), command


def test_reports_are_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["dual", cfg("hamming2_f2"), "--out", str(a)], capsys)
    run(["dual", cfg("hamming2_f2"), "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_back_to_back_calls_match_fresh_processes(capsys, tmp_path):
    """main builds its parser once per process.  Back-to-back calls with
    different subcommands and flags (--size-bound, --matrix-bound, then
    neither) give the exit code, stdout, stderr and --out bytes of fresh
    processes, so no flag's value leaks into the next call: a leaked
    --size-bound 50 would stop the third call with exit 3, a leaked
    --matrix-bound 1 would drop its idempotent checks."""
    argvs = [["check", cfg("hamming4_f3"), "--size-bound", "50"],
             ["dual", cfg("hamming2_f2"), "--matrix-bound", "1"],
             ["dual", cfg("hamming4_f3")],
             ["build", cfg("hamming2_f2")]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    fresh = [subprocess.Popen(
        [sys.executable, "-m", "scheme_forge.cli", *argv,
         "--out", str(tmp_path / ("fresh%d.json" % i))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for i, argv in enumerate(argvs)]
    for i, (argv, proc) in enumerate(zip(argvs, fresh)):
        out = tmp_path / ("call%d.json" % i)
        code, stdout, stderr = run(argv + ["--out", str(out)], capsys)
        want = proc.communicate(timeout=60)
        assert (code, stdout, stderr) == (proc.returncode,) + want, argv
        if code != 3:
            assert out.read_bytes() == \
                (tmp_path / ("fresh%d.json" % i)).read_bytes(), argv
    assert [proc.returncode for proc in fresh] == [3, 0, 0, 0]
    assert "idempotent_detail" in json.loads(
        (tmp_path / "call2.json").read_text())["checks"]


def recorded_verify_flags(monkeypatch):
    """The verify_representatives argument of every intersection_tensor
    call from here on."""
    flags = []
    real = scheme.intersection_tensor

    def recorded(space, partition, verify_representatives):
        flags.append(verify_representatives)
        return real(space, partition, verify_representatives)

    monkeypatch.setattr(scheme, "intersection_tensor", recorded)
    return flags


def test_each_command_computes_once(capsys, monkeypatch):
    """build and self-mode dual compute the intersection tensor once, with
    representative verification (the idempotent and sigma checks, on at
    the default matrix bound, compute none), build finds the orbits once,
    and a cross dual builds each action once."""
    counts = {"orbits": 0, "build_action": 0}
    tensors = recorded_verify_flags(monkeypatch)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("orbits", "build_action"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))

    def counts_of(argv):
        counts.update(dict.fromkeys(counts, 0))
        tensors.clear()
        assert run(argv, capsys)[0] == 0
        return dict(counts, tensors=list(tensors))

    build = counts_of(["build", cfg("hamming2_f2")])
    assert (build["tensors"], build["orbits"]) == ([True], 1)
    dual = counts_of(["dual", cfg("hamming2_f2")])
    assert dual["tensors"] == [True]
    cross = counts_of(["dual", cfg("wh21_f2"), cfg("wh12_f2")])
    assert cross["build_action"] == 2


@pytest.mark.parametrize("n, flags, verified", [
    (10, [], [True]), (11, ["--size-bound", "2048"], [False])])
def test_representatives_are_verified_up_to_the_bound(n, flags, verified,
                                                      capsys, monkeypatch,
                                                      tmp_path):
    """build of hamming on F_2^n sweeps every representative of each class
    for the intersection numbers while |X| is at most
    REPRESENTATIVE_VERIFY_BOUND (F_2^10), and only the first above it
    (F_2^11)."""
    assert 2 ** 10 == scheme.REPRESENTATIVE_VERIFY_BOUND
    flags_seen = recorded_verify_flags(monkeypatch)
    path = tmp_path / "hamming.json"
    path.write_text(json.dumps({
        "space": {"kind": "vector", "n": n, "field": {"p": 2}},
        "action": {"family": "hamming"}}))
    code, out, _ = run(["build", str(path)] + flags, capsys)
    assert code == 0 and json.loads(out)["axioms"]["all_pass"]
    assert flags_seen == verified


@pytest.mark.parametrize("command", ["check", "build", "dual"])
def test_verify_representatives_flag_is_gone(command, capsys):
    """No flag switches the representative sweep: the old
    --no-verify-representatives is an unrecognized argument."""
    with pytest.raises(SystemExit) as exc:
        main([command, cfg("hamming2_f2"), "--no-verify-representatives"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-verify-representatives" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "dual"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_out_exits_2(command, target, capsys, tmp_path):
    """An --out in a missing directory, or naming a directory, ends in
    exit 2 with a message, not a traceback."""
    out = tmp_path / "missing" / "x.json" if target == "missing" \
        else tmp_path
    code, stdout, err = run([command, cfg("hamming2_f2"), "--out", str(out)],
                            capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("config error: cannot write report %s: " % out)
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("command", ["check", "build", "dual"])
def test_failed_write_exits_2(command, capsys):
    """An --out that opens but takes no bytes (/dev/full: every write, or
    the flush at close, fails with ENOSPC) ends in exit 2 with a message,
    not a traceback, and dual prints no table."""
    code, stdout, err = run([command, cfg("hamming2_f2"), "--out",
                             "/dev/full"], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("config error: cannot write report /dev/full: ")
    assert "No space left on device" in err and "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["build", "hamming2_f2"],
                                  ["dual", "hamming2_f2"],
                                  ["dual", "hamming2_f2", "--out"]],
                         ids=["build", "dual", "dual-out"])
def test_failed_stdout_write_exits_2(argv, unbuffered, tmp_path):
    """A stdout that takes no bytes (/dev/full), block-buffered or
    unbuffered (PYTHONUNBUFFERED), ends in exit 2 with a message: the
    report, or dual's tables and verdict after an --out report, is
    flushed where its error is caught, and nothing is left for the
    interpreter's exit flush (exit 120 and "Exception ignored")."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    args = [argv[0], cfg(argv[1])]
    if argv[2:]:
        args += ["--out", str(tmp_path / "r.json")]
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "scheme_forge.cli",
                               *args], stdout=full, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: cannot write ")
    assert " to stdout: " in proc.stderr
    assert "No space left on device" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    if argv[2:]:
        report = (tmp_path / "r.json").read_text()
        assert json.loads(report)["checks"]


def test_condition_4_is_swept_once_per_partition(capsys, monkeypatch):
    """Condition (4), which the report, TranslationScheme and both
    verify_axioms calls read, sweeps the negation of X once per
    partition: once in build and self-mode dual, once per action in a
    cross dual.  A second space of the same partition sweeps again."""
    negations = []

    def counted(self, x):
        negations.append(self)
        return real(self, x)

    real = AbelianSpace.neg
    monkeypatch.setattr(AbelianSpace, "neg", counted)
    for argv, sweeps in ((["build", cfg("hamming4_f3")], 1),
                         (["dual", cfg("hamming4_f3")], 1),
                         (["dual", cfg("wh21_f2"), cfg("wh12_f2")], 2)):
        negations.clear()
        assert run(argv, capsys)[0] == 0
        assert len(negations) == sweeps, argv
    space = CyclicProductSpace((8,))
    partition = orbits(build_action(space, "central"))
    other = CyclicProductSpace((8,))
    negations.clear()
    for sp in (space, space, other, other):
        assert check_condition_4(partition, sp) == (True, None)
    assert negations == [space, other]


def test_psi_inverse_is_computed_once_per_space(capsys, monkeypatch):
    """AbelianSpace.adjoint_images keeps psi^-1, or the degenerate
    verdict, on the space: the cross pair wh21/wh12 reads the adjoints of
    both actions on one space and computes psi^-1 once, a self dual once,
    and a degenerate pairing gives None from one computation."""
    computed = []
    real = AbelianSpace._psi_inverse.func

    def counted(self):
        computed.append(self)
        return real(self)

    kept = functools.cached_property(counted)
    kept.__set_name__(AbelianSpace, "_psi_inverse")
    monkeypatch.setattr(AbelianSpace, "_psi_inverse", kept)
    for argv in (["dual", cfg("wh21_f2"), cfg("wh12_f2")],
                 ["dual", cfg("wh21_f2")], ["dual", cfg("hamming4_f3")]):
        computed.clear()
        assert run(argv, capsys)[0] == 0
        assert len(computed) == 1, argv
    computed.clear()
    degenerate = GramSpace([((5,), ((1,),)), ((5,), ((5,),))], 5)
    basis = degenerate.basis[None, :]
    assert degenerate.adjoint_images(basis) is None
    assert degenerate.adjoint_images(basis) is None
    assert computed == [degenerate]


@pytest.mark.parametrize("command", ["check", "build"])
def test_matrix_bound_is_a_dual_flag(command, capsys):
    """Only dual reads --matrix-bound; check and build reject it."""
    with pytest.raises(SystemExit) as exc:
        main([command, cfg("hamming2_f2"), "--matrix-bound", "1"])
    assert exc.value.code == 2
    assert "--matrix-bound" in capsys.readouterr().err
    code, out, _ = run(["dual", cfg("hamming2_f2"), "--matrix-bound", "1"],
                       capsys)
    assert code == 0
    assert "idempotent_detail" not in json.loads(out.split("\nQ\n")[0])[
        "checks"]


def test_intersection_integrity_failure_exits_1(capsys, monkeypatch):
    """Intersection numbers that depend on the representative end dual
    with exit 1 and intersection_tensor's message: here the differences
    u - z of the second point of class 1 of hamming(2)/F_2 (points 1 and
    2) are made those of u = 0, whose class pairs differ from u = 1's."""
    real = scheme.difference_rows

    def skewed(space, reps):
        rows = real(space, reps)
        rows[2] = real(space, reps[:1])[0]
        return rows

    monkeypatch.setattr(scheme, "difference_rows", skewed)
    code, _, err = run(["dual", cfg("hamming2_f2")], capsys)
    assert code == 1
    assert err == ("integrity failure: intersection numbers depend on the "
                   "representative of class 1 (u=1 vs u=2)\n")


def test_eigenmatrix_tables_rendered(capsys):
    code, out, _ = run(["dual", cfg("hamming2_f2")], capsys)
    assert code == 0
    assert "\nQ\n" in "\n" + out
    assert "(2.000000)" in out  # exact entry with 6-decimal approximation


@pytest.mark.parametrize("name", ["her2_f4", "cyclotomic2_f5"])
def test_dual_approximates_each_distinct_value_once(name, capsys,
                                                    monkeypatch):
    """After duality_report, dual computes CycloInt.approx() once per
    distinct value of the certificate: the JSON dicts and the Q and P
    tables share it."""
    certs, calls = [], []
    real_report, real_approx = cli.duality_report, CycloInt.approx

    def counted(c):
        calls.append(c)
        return real_approx(c)

    def report(*args, **kwargs):
        certs.append(real_report(*args, **kwargs))
        monkeypatch.setattr(CycloInt, "approx", counted)
        return certs[-1]

    monkeypatch.setattr(cli, "duality_report", report)
    code, out, _ = run(["dual", cfg(name)], capsys)
    assert code == 0 and "\nP\n" in out
    elements = certs[0].elements.tolist()
    assert len(elements) > 2
    assert sorted(map(id, calls)) == sorted(map(id, elements))


@pytest.mark.parametrize("array_chars", [3, 1 << 16])
def test_write_report_streams_the_dumps_bytes(array_chars, capsys, tmp_path,
                                              monkeypatch):
    """The report, to a file and to stdout, is byte for byte
    json.dumps(report, sort_keys=True, indent=2) + "\\n", both when its
    text passes ARRAY_CHARS and is written in pieces and when it stays
    within it and is written at once."""
    monkeypatch.setattr(cli, "ARRAY_CHARS", array_chars)
    report = {"b": [1, {"z": None, "a": [0.5, "xé"]}], "a": {},
              "c": [[True, False]] * 5, "d": "end"}
    want = json.dumps(report, sort_keys=True, indent=2) + "\n"
    path = tmp_path / "r.json"
    cli.write_report(report, str(path))
    assert path.read_bytes() == want.encode()
    cli.write_report(report, None)
    assert capsys.readouterr().out == want
    out = WriteRecorder()
    with contextlib.redirect_stdout(out):
        cli.write_report(report, None)
    assert out.getvalue() == want
    assert max(out.sizes) <= array_chars
    assert (len(out.sizes) > 2) == (len(want) > array_chars)


def encoded(obj):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.write_report(obj, None)
    return out.getvalue()


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2 ** 63, -2 ** 63 - 1, 3 ** 90]),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.text(), st.sampled_from(["\x00\x1f\x7f", "é\u2028\U0001f600",
                                "\ud800", '"\\/\n\t']))

# one key type per dict: json sorts the raw keys, which need not compare
KEYS = [st.text(), st.integers(), st.floats(), st.booleans(), st.none()]

TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in KEYS)),
    max_leaves=10)

# the piece size of a drawn write: small enough that small trees and
# arrays are written in many pieces and blocks, half the real one, or the
# real one
PIECE_CHARS = st.sampled_from([24, 1 << 15, 1 << 16])


@st.composite
def shared_trees(draw):
    """A tree holding one container at two depths and twice at one depth,
    and, as it grows, container texts above a small piece size."""
    shared = draw(st.lists(TREES, min_size=1, max_size=3))
    other = draw(TREES)
    long = [shared] * draw(st.integers(0, 8))
    return {"a": shared, "b": [other, [shared, shared], {"c": shared}],
            "d": long, "e": other}


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(TREES, shared_trees()), PIECE_CHARS)
def test_write_report_matches_json_dumps(obj, chars):
    """The encoder gives json.dumps(obj, sort_keys=True, indent=2) exactly,
    on random trees of every JSON type, NaN and infinities included, with
    ARRAY_CHARS set to `chars`."""
    with mock.patch.object(cli, "ARRAY_CHARS", chars):
        assert encoded(obj) == \
            json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_write_report_rejects_what_json_rejects():
    for bad in ({"a": {1, 2}}, [object()], {(1, 2): 0}, {"a": 1, 2: 0}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            encoded(bad)


class WriteRecorder(io.StringIO):
    """A text file that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def assert_written_as_json_dumps(obj):
    """write_report gives json.dumps's text of obj, in writes of at most
    64 KiB."""
    recorder = WriteRecorder()
    with contextlib.redirect_stdout(recorder):
        cli.write_report(obj, None)
    assert recorder.getvalue() == \
        json.dumps(plain(obj), sort_keys=True, indent=2) + "\n"
    assert max(recorder.sizes) <= 64 * 1024


def test_write_report_streams_a_large_certificate(monkeypatch):
    """The dual certificate of the central action on Z16 x Z8 (7.6 MB of
    text) is written in pieces of at most 64 KiB whose bytes are
    json.dumps's: the encoder never holds the whole text.  The pieces
    are fewer than 32 KiB pieces would be: most are near 64 KiB."""
    config = os.path.join(CONFIGS, os.pardir, "perfbench", "configs",
                          "central_z16xz8.json")
    _, genset = cli.load_action(cli.read_config(config), 4096)
    cert = duality.duality_report(genset, matrix_bound=64).to_json()
    recorder = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    cli.write_report(cert, None)
    want = json.dumps(plain(cert), sort_keys=True, indent=2) + "\n"
    assert recorder.getvalue() == want
    assert len(want) > 7 * 10 ** 6
    assert max(recorder.sizes) <= 64 * 1024
    assert len(recorder.sizes) < len(want) // (32 * 1024)


def large_entry():
    """A dict whose text is 1-4 KiB at depths 2 and 3, shaped like a Krein
    entry: an order, a coefficient list and a float pair."""
    entry = {"order": 128, "coeffs": list(range(-90, 90)),
             "approx": [0.1, -2.5]}
    for depth in (2, 3):
        text = json.dumps(entry, indent=2).replace("\n", "\n" + "  " * depth)
        assert 1024 < len(text) <= 4096
    return entry


def shared_report(entry):
    """entry 2,000 times in one list, then at the same depth among new
    siblings (scalars, fresh dicts and lists), and one level deeper."""
    mixed = []
    for i in range(40):
        mixed += [entry, entry, {"new": i}, i, entry, [entry, "x"], entry]
    return {"a": [entry] * 2000, "b": mixed, "c": [[entry] * 3] * 50}


def test_write_report_streams_shared_large_entries(monkeypatch):
    """A 1-4 KiB entry repeated in long lists, alone and among new
    siblings, gives json.dumps's bytes in writes of at most 64 KiB."""
    report = shared_report(large_entry())
    recorder = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    cli.write_report(report, None)
    assert recorder.getvalue() == \
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert max(recorder.sizes) <= 64 * 1024


def counted_encodings(monkeypatch):
    """Replace write_report's encoder, cli._encode, by a wrapper that
    counts its calls per first argument, by identity; return the
    counts."""
    calls, real = {}, cli._encode

    def counted(obj, *args, **kwargs):
        calls[id(obj)] = calls.get(id(obj), 0) + 1
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(cli, "_encode", counted)
    return calls


def test_write_report_encodes_an_entry_shared_by_two_arrays_once(
        monkeypatch):
    """One dict shared by two coded arrays at the same depth, as the
    certificate's P and Q share a value, and by a third array one level
    deeper, is encoded once: each array fits that text to its own
    indentation.  A value that no array holds is never encoded."""
    entry = large_entry()
    other = {"order": 1, "coeffs": [2]}
    absent = {"order": 3, "coeffs": [4]}
    pool = [entry, other, absent]
    codes = np.random.default_rng(2).integers(0, 2, size=(4, 4))
    codes[0, 0], codes[0, 1] = 0, 1
    report = {"P": CodedArray(codes, pool),
              "Q": CodedArray(codes.T, pool),
              "deeper": [CodedArray(codes, pool)]}
    want = json.dumps(plain(report), sort_keys=True, indent=2) + "\n"
    calls = counted_encodings(monkeypatch)
    assert encoded(report) == want
    assert (calls[id(entry)], calls[id(other)]) == (1, 1)
    assert id(absent) not in calls


def test_write_report_keeps_no_array_alive():
    """A report's arrays are freed with the report, without waiting for
    the cyclic collector: the reference cycle that json's pure-Python
    encoder leaves behind holds no array."""
    A = np.arange(12).reshape(3, 4)
    ref = weakref.ref(A)
    gc.disable()
    try:
        encoded({"a": A, "b": [CodedArray(A % 2, [{"x": 1}, [2]])]})
        del A
        assert ref() is None
    finally:
        gc.enable()


def test_write_report_writes_placeholder_lookalikes_verbatim():
    """Strings and keys shaped like quoted random tokens, next to integer
    and coded arrays, in the arrays' values and as keys, are written as
    json.dumps writes them: nothing in the text stands for an array."""
    token = "0123456789abcdef" * 2
    A = np.arange(6).reshape(2, 3)
    pool = [{"order": 2, "coeffs": [token]}, token]
    report = {token: A, "a": [token, A, '"%s"' % token, A],
              "b": {"0" * len(token): CodedArray(A % 2, pool), "c": token},
              "d": [CodedArray(A.T % 2, pool), token + "1", '"' + token]}
    assert encoded(report) == \
        json.dumps(plain(report), sort_keys=True, indent=2) + "\n"


@functools.cache
def shipped_certificate():
    """her2_f4's dual certificate, as to_json gives it, and its
    json.dumps text."""
    _, genset = cli.load_action(cli.read_config(cfg("her2_f4")), 4096)
    cert = duality.duality_report(genset).to_json()
    return cert, json.dumps(plain(cert), sort_keys=True, indent=2) + "\n"


def forbidden(*args, **kwargs):
    raise AssertionError("a function the writer must not call was called")


@settings(max_examples=50, deadline=None, database=None)
@given(TREES)
def test_write_report_calls_neither_json_dumps_nor_urandom(tree):
    """A shipped dual certificate and a drawn tree of every JSON type are
    written as json.dumps writes them with json.dumps and os.urandom made
    to raise: the writer calls neither."""
    cert, want = shipped_certificate()
    tree_want = json.dumps(tree, sort_keys=True, indent=2) + "\n"
    with mock.patch.object(json, "dumps", forbidden), \
            mock.patch.object(os, "urandom", forbidden):
        assert encoded(cert) == want
        assert encoded(tree) == tree_want


@pytest.mark.parametrize("values", [list(range(4000)),
                                    [3 ** 90, -2 ** 63] * 2000])
def test_write_report_cuts_a_long_int_list(values):
    """A list of plain ints, whose text is one str.join, six containers
    deep: the json.dumps bytes, in writes of at most 64 KiB."""
    report = {"a": [[[[[values]]]]], "b": values}
    recorder = WriteRecorder()
    with contextlib.redirect_stdout(recorder):
        cli.write_report(report, None)
    want = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert recorder.getvalue() == want
    assert max(recorder.sizes) <= 64 * 1024
    assert len(want) > 64 * 1024


# array shapes of 1-4 dimensions, zero-length axes among them, and the
# seeds of the numpy generators that fill them: an array is built by numpy
# from one drawn shape and seed, not drawn element by element, which took
# most of these tests' time; hypothesis shrinks the shape and the seed, no
# longer each element
SHAPES = hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3)
SEEDS = st.integers(0, 2 ** 32 - 1)
# the ranges of int64 entries: small, negative, near -2^63 and 2^63 - 1,
# and anywhere
INT64_RANGES = [(-3, 3), (-2 ** 63, -2 ** 63 + 3), (2 ** 63 - 4, 2 ** 63 - 1),
                (-2 ** 63, 2 ** 63 - 1)]


@st.composite
def int_arrays(draw):
    """An int64 array of a drawn shape, each entry from a range of
    INT64_RANGES picked at random, by a generator of a drawn seed."""
    shape, rng = draw(SHAPES), np.random.default_rng(draw(SEEDS))
    return np.choose(rng.integers(len(INT64_RANGES), size=shape), [
        rng.integers(low, high, shape, dtype=np.int64, endpoint=True)
        for low, high in INT64_RANGES])


INT_ARRAYS = int_arrays()


@st.composite
def array_trees(draw):
    """Integer arrays in dicts and lists, at several depths, next to a
    shared entry."""
    arrays = draw(st.lists(INT_ARRAYS, min_size=1, max_size=3))
    shared = draw(st.sampled_from([{"order": 5, "coeffs": [1, -2, 0, 3]},
                                   large_entry()]))
    return {"a": arrays[0], "b": [shared, arrays[-1], shared, 7],
            "c": [[shared, arrays], {"d": arrays[0], "e": shared}],
            "f": [shared] * 3}


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(INT_ARRAYS, array_trees()), PIECE_CHARS)
def test_write_report_writes_integer_arrays_as_json_dumps(obj, chars):
    """An integer ndarray, alone or nested among shared entries, is
    written as json.dumps writes its tolist(), in writes of at most
    64 KiB, with ARRAY_CHARS set to `chars`."""
    with mock.patch.object(cli, "ARRAY_CHARS", chars):
        assert_written_as_json_dumps(obj)


@pytest.mark.parametrize("A", [
    np.arange(500), np.array([], dtype=np.int64), np.array([-7]),
    np.random.default_rng(1).integers(-2 ** 63, 2 ** 63, 40, dtype=np.int64),
    np.arange(-20000, 20000, 3),
    np.random.default_rng(2).integers(-2 ** 40, 2 ** 40, 4000),
], ids=["500", "empty", "one", "wide", "long", "long-wide"])
def test_write_report_writes_one_dimensional_integer_arrays(A):
    """A 1-d integer array, alone and nested, short, empty, of one cell,
    of values too far apart for a text table and with a text longer than
    ARRAY_CHARS, is written as json.dumps writes its tolist(), its own
    pieces at most ARRAY_CHARS long and never cut in a number."""
    for obj in (A, {"a": A}, [[A, {"b": [A, 1]}], A]):
        assert encoded(obj) == \
            json.dumps(plain(obj), sort_keys=True, indent=2) + "\n"
    if A.size:
        pieces = list(cli._array_chunks(A, 2, {}))
        assert max(map(len, pieces)) <= cli.ARRAY_CHARS
        assert all(text[-1].isdigit() for text in pieces[:-1])
        if A.size > 1000:
            assert len(pieces) > 2


@pytest.mark.parametrize("low, high", [(0, 99), (-2 ** 63, 2 ** 63 - 1)])
def test_write_report_streams_a_large_integer_array(low, high):
    """A 60^3 array, with a value range narrower than the array (one text
    per value) and wider (int.__repr__ per entry), inside a report: the
    json.dumps bytes, in many writes of at most 64 KiB.  The array's own
    pieces are whole blocks of at most ARRAY_CHARS, none cut in a cell."""
    A = np.random.default_rng(60).integers(low, high, size=(60, 60, 60),
                                           endpoint=True)
    report = {"p_tensor": A, "rest": [A[0], {"x": 1}]}
    recorder = WriteRecorder()
    with contextlib.redirect_stdout(recorder):
        cli.write_report(report, None)
    want = json.dumps(plain(report), sort_keys=True, indent=2) + "\n"
    assert recorder.getvalue() == want
    assert max(recorder.sizes) <= 64 * 1024
    assert len(recorder.sizes) > len(want) // (64 * 1024)
    pieces = list(cli._array_chunks(A, 1, {}))
    assert max(map(len, pieces)) <= cli.ARRAY_CHARS
    assert not [i for i, text in enumerate(pieces[:-1])
                if not text[-1].isdigit()]


def array_pieces(A, depth):
    """The pieces _array_chunks writes A in, nested `depth` deep."""
    return list(cli._array_chunks(A, depth, {}))


def test_array_blocks_join_rows_of_short_cells():
    """Cells no longer than the separator between two are joined into
    rows first, and a one-column array's are not: the text is
    json.dumps's."""
    for A, depth in ((np.arange(24).reshape(2, 3, 4) % 7, 2),
                     (np.arange(6).reshape(6, 1), 1)):
        assert len(str(A.max())) <= len(cli._list_texts(depth, A.ndim)[1][0])
        assert_written_as_json_dumps({"a": [A] if depth == 2 else A})


def test_array_blocks_cut_a_cell_longer_than_a_piece(monkeypatch):
    """With ARRAY_CHARS = 64, each cell of a coded array of two 200-odd
    character values is cut into pieces of at most 64: more pieces than
    cells, and the text is json.dumps's."""
    monkeypatch.setattr(cli, "ARRAY_CHARS", 64)
    pool = [list(range(40)), {"k": "x" * 200}]
    A = CodedArray(np.array([[0, 1, 1], [1, 0, 0]]), pool)
    pieces = array_pieces(A, 1)
    assert min(len(json.dumps(v, indent=2)) for v in pool) > 64
    assert len(pieces) > A.codes.size and max(map(len, pieces)) <= 64
    assert_written_as_json_dumps({"a": A, "b": [A]})


def test_array_blocks_write_many_blocks_of_whole_cells(monkeypatch):
    """With ARRAY_CHARS = 64, a 4 x 5 x 6 array of 1-3 digit values is
    written in many blocks, each at most 64 characters and ending in a
    whole cell."""
    monkeypatch.setattr(cli, "ARRAY_CHARS", 64)
    A = np.random.default_rng(4).integers(-99, 999, size=(4, 5, 6))
    pieces = array_pieces(A, 2)
    assert len(pieces) > 10 and max(map(len, pieces)) <= 64
    assert all(text[-1].isdigit() for text in pieces[:-1])
    assert_written_as_json_dumps({"p": {"q": A}})


def test_array_blocks_write_an_array_at_depth_0():
    """An integer and a coded array that are the whole report, nested no
    container deep."""
    A = np.arange(-5, 7).reshape(3, 4)
    assert_written_as_json_dumps(A)
    assert_written_as_json_dumps(CodedArray(A % 2, [{"a": [1, 2]}, "b"]))


# JSON values a coded array holds: containers, shared by several entries
ENTRIES = st.one_of(st.lists(SCALARS, max_size=4),
                    st.dictionaries(st.text(max_size=3), SCALARS, max_size=3),
                    TREES)


def coded_array_tree(A, ints):
    """A in a tree next to an integer array, to a second array of its
    values at the same depth and to its own values at the values' depth
    and elsewhere."""
    # A's entries are A.codes.ndim + 2 containers deep in "a"
    nested = A.values
    for _ in range(A.codes.ndim):
        nested = [nested]
    return {"a": [A, ints], "b": nested, "c": [A.values, A],
            "d": A, "e": CodedArray(A.codes[::-1], A.values)}


@st.composite
def coded_array_trees(draw):
    """Coded arrays of 1-4 dimensions, zero-length axes among them,
    whose entries, drawn from a pool of dicts, lists and scalars, repeat,
    each in a coded_array_tree."""
    pool = draw(st.lists(ENTRIES, min_size=1, max_size=5))
    codes = np.random.default_rng(draw(SEEDS)).integers(
        len(pool), size=draw(SHAPES)).astype(np.intp)
    return coded_array_tree(CodedArray(codes, pool), draw(INT_ARRAYS))


@settings(max_examples=75, deadline=None, database=None)
@given(st.one_of(coded_array_trees(),
                 coded_array_trees().map(lambda tree: tree["d"])),
       PIECE_CHARS)
def test_write_report_writes_coded_arrays_as_json_dumps(obj, chars):
    """A coded array of JSON values, alone or in a tree among integer
    arrays, another coded array of its values and copies of its entries,
    is written as json.dumps writes its tolist(), in writes of at most
    64 KiB, with ARRAY_CHARS set to `chars`."""
    with mock.patch.object(cli, "ARRAY_CHARS", chars):
        assert_written_as_json_dumps(obj)


@pytest.mark.parametrize("size", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(2, 12), (1, 3, 12), (2, 2, 1, 10)])
def test_write_report_writes_large_coded_entries_as_json_dumps(shape, size):
    """A pool of `size` of: two 1-4 KiB entries and lists of strings and
    of ints longer than ARRAY_CHARS, every one held by a coded array
    whose leading row is longer than ARRAY_CHARS, alone and in a
    coded_array_tree: json.dumps's text, in writes of at most 64 KiB."""
    big = large_entry()
    pool = [big, dict(big, order=7), ["x"] * 4000, list(range(4000))][:size]
    rng = np.random.default_rng(size * 10 + len(shape))
    codes = rng.integers(0, size, size=shape)
    codes.flat[:size] = range(size)
    ints = rng.integers(-2 ** 63, 2 ** 63, size=(3, 4), dtype=np.int64)
    tree = coded_array_tree(CodedArray(codes, pool), ints)
    for obj in (tree, tree["d"]):
        assert_written_as_json_dumps(obj)


def test_write_report_encodes_each_distinct_array_entry_once(monkeypatch):
    """A 30^3 coded array holding five Krein-like dicts: the writer
    encodes each dict once, although the array's rows are each longer
    than ARRAY_CHARS, and the array is written in blocks of whole cells
    of at most ARRAY_CHARS each, no text cut; the text is json.dumps's."""
    pool = [{"order": 16, "coeffs": [k] * 8, "approx": [k / 3, 0.0]}
            for k in range(5)]
    codes = np.random.default_rng(30).integers(0, 5, size=(30, 30, 30))
    report = {"krein": CodedArray(codes, pool)}
    want = json.dumps(plain(report), sort_keys=True, indent=2) + "\n"
    pieces, real_array = [], cli._array_chunks

    def recorded(A, depth, memo):
        for text in real_array(A, depth, memo):
            pieces.append(text)
            yield text

    monkeypatch.setattr(cli, "_array_chunks", recorded)
    calls = counted_encodings(monkeypatch)
    assert encoded(report) == want
    assert [calls[id(entry)] for entry in pool] == [1] * 5
    assert max(map(len, pieces)) <= cli.ARRAY_CHARS
    assert not [i for i, text in enumerate(pieces[:-1])
                if not text.endswith("}")]
    assert len(pieces) > 27000 * 150 // cli.ARRAY_CHARS


def test_coded_arrays_are_not_json_values():
    """json.dumps raises on a CodedArray, as on an ndarray, and takes
    its tolist(): the nested lists of its values, one object per value."""
    pool = [{"a": 1}, [2]]
    A = CodedArray(np.array([[0, 1, 0]]), pool)
    with pytest.raises(TypeError):
        json.dumps({"Q": A})
    cells = A.tolist()
    assert cells == [[{"a": 1}, [2], {"a": 1}]]
    assert cells[0][0] is cells[0][2] is pool[0]


def test_write_report_rejects_non_integer_arrays():
    """Float, bool, str and object ndarrays raise, as in json.dumps; JSON
    values in an array come as a CodedArray."""
    for bad in (np.zeros(2), np.array([True]), np.array(["a"]),
                np.array([{"a": 1}, 2], dtype=object)):
        with pytest.raises(TypeError):
            json.dumps(bad)
        with pytest.raises(TypeError):
            encoded({"a": bad})
