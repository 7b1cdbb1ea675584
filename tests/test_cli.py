"""CLI: exit codes, report shapes, determinism."""

import contextlib
import gc
import io
import json
import math
import os
import resource
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scheme_forge import cli, duality, scheme
from scheme_forge.action import build_action, orbits, check_condition_4
from scheme_forge.cli import main
from scheme_forge.duality import CodedArray
from scheme_forge.space import AbelianSpace, CyclicProductSpace

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
])
def test_dual_pair_compares_the_spaces_as_built(field, extra, same, capsys,
                                                tmp_path):
    """dual a.json b.json takes b's space as a's when both build the same
    space: wh12's space with a default spelled out ("e": 1 in the field,
    "lambda_multiplier": 1) gives the bytes of the plain wh21 x wh12
    pair; another field still exits 2."""
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
    code, out, err = run(["dual", cfg("wh21_f2"), str(edited),
                          "--out", str(edited_out)], capsys)
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
])
def test_config_schema_errors_exit_2(capsys, tmp_path, space, action,
                                     message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"space": space, "action": action}))
    for command in ("check", "build", "dual"):
        code, _, err = run([command, str(bad)], capsys)
        assert code == 2 and "config error" in err and message in err


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


def test_krein_integrity_failure_exits_1(capsys, monkeypatch):
    """An inexact Krein division ends dual with exit 1 and a message: here
    krein_parameters is handed |X| + 1 = 5, which divides none of the sums
    4 q_ij^k with q_ij^k != 0 mod 5."""
    real = duality.krein_parameters
    monkeypatch.setattr(duality, "krein_parameters",
                        lambda P, Q, size, *bound: real(P, Q, size + 1,
                                                        *bound))
    code, _, err = run(["dual", cfg("hamming2_f2")], capsys)
    assert code == 1
    assert err.startswith("integrity failure: Krein parameter")


def test_eigenmatrix_tables_rendered(capsys):
    code, out, _ = run(["dual", cfg("hamming2_f2")], capsys)
    assert code == 0
    assert "\nQ\n" in "\n" + out
    assert "(2.000000)" in out  # exact entry with 6-decimal approximation


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
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        *(st.dictionaries(keys, children, max_size=6) for keys in KEYS)),
    max_leaves=20)


@st.composite
def shared_trees(draw):
    """A tree holding one container at two depths and twice at one depth,
    and, as it grows, container texts above the flush size."""
    shared = draw(st.lists(TREES, min_size=1, max_size=3))
    other = draw(TREES)
    long = [shared] * draw(st.integers(0, 20))
    return {"a": shared, "b": [other, [shared, shared], {"c": shared}],
            "d": long, "e": other}


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(TREES, shared_trees()))
def test_write_report_matches_json_dumps(obj):
    """The encoder gives json.dumps(obj, sort_keys=True, indent=2) exactly,
    on random trees of every JSON type, NaN and infinities included."""
    assert encoded(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def test_write_report_streams_a_large_certificate(monkeypatch):
    """The dual certificate of the central action on Z16 x Z8 (7.6 MB of
    text) is written in pieces of at most 64 KiB whose bytes are
    json.dumps's: the encoder never holds the whole text."""
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


def counted_dumps(monkeypatch):
    """Replace json.dumps by a wrapper that counts its calls per first
    argument, by identity; return the counts."""
    calls, real = {}, json.dumps

    def counted(obj, *args, **kwargs):
        calls[id(obj)] = calls.get(id(obj), 0) + 1
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    return calls


def test_write_report_encodes_an_entry_shared_by_two_arrays_once(
        monkeypatch):
    """One dict shared by two coded arrays at the same depth, as the
    certificate's P and Q share a value, and by a third array one level
    deeper, is encoded by json.dumps once: each array fits that text to
    its own indentation.  A value that no array holds is never
    encoded."""
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
    calls = counted_dumps(monkeypatch)
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


def test_write_report_writes_placeholder_lookalikes_verbatim(monkeypatch):
    """Strings and keys shaped like write_report's placeholders, the
    token of an earlier write among them, next to integer and coded
    arrays, are written as json.dumps writes them: each write draws its
    own token."""
    tokens, real = [], os.urandom

    def recorded(n):
        tokens.append(real(n).hex())
        return bytes.fromhex(tokens[-1])

    monkeypatch.setattr(os, "urandom", recorded)
    A = np.arange(6).reshape(2, 3)
    encoded({"a": A})
    old, = tokens
    pool = [{"order": 2, "coeffs": [old]}, old]
    report = {old: A, "a": [old, A, '"%s"' % old, A],
              "b": {"0" * len(old): CodedArray(A % 2, pool), "c": old},
              "d": [CodedArray(A.T % 2, pool), old + "1", '"' + old]}
    assert encoded(report) == \
        json.dumps(plain(report), sort_keys=True, indent=2) + "\n"
    assert len(tokens) == 2 and tokens[1] != old


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


# int64 entries: small, negative, near -2^63 and 2^63 - 1, and anywhere
INT64 = st.one_of(st.integers(-3, 3), st.integers(-2 ** 63, -2 ** 63 + 3),
                  st.integers(2 ** 63 - 4, 2 ** 63 - 1),
                  st.integers(-2 ** 63, 2 ** 63 - 1))
INT_ARRAYS = hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=4,
                                                   min_side=0, max_side=6),
                        elements=INT64)


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
@given(st.one_of(INT_ARRAYS, array_trees()))
def test_write_report_writes_integer_arrays_as_json_dumps(obj):
    """An integer ndarray, alone or nested among shared entries, is
    written as json.dumps writes its tolist(), in writes of at most
    64 KiB."""
    recorder = WriteRecorder()
    with contextlib.redirect_stdout(recorder):
        cli.write_report(obj, None)
    assert recorder.getvalue() == \
        json.dumps(plain(obj), sort_keys=True, indent=2) + "\n"
    assert max(recorder.sizes) <= 64 * 1024


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
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=0,
                                  max_side=5))
    codes = draw(hnp.arrays(np.intp, shape,
                            elements=st.integers(0, len(pool) - 1)))
    return coded_array_tree(CodedArray(codes, pool), draw(INT_ARRAYS))


def assert_written_as_json_dumps(obj):
    """write_report gives json.dumps's text of obj, in writes of at most
    64 KiB."""
    recorder = WriteRecorder()
    with contextlib.redirect_stdout(recorder):
        cli.write_report(obj, None)
    assert recorder.getvalue() == \
        json.dumps(plain(obj), sort_keys=True, indent=2) + "\n"
    assert max(recorder.sizes) <= 64 * 1024


@settings(max_examples=75, deadline=None, database=None)
@given(st.one_of(coded_array_trees(),
                 coded_array_trees().map(lambda tree: tree["d"])))
def test_write_report_writes_coded_arrays_as_json_dumps(obj):
    """A coded array of JSON values, alone or in a tree among integer
    arrays, another coded array of its values and copies of its entries,
    is written as json.dumps writes its tolist(), in writes of at most
    64 KiB."""
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
    """A 30^3 coded array holding five Krein-like dicts: json.dumps
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
    calls = counted_dumps(monkeypatch)
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
