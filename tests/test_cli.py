"""CLI: exit codes, report shapes, determinism."""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scheme_forge import cli, duality, scheme
from scheme_forge.cli import main

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
])
def test_config_schema_errors_exit_2(capsys, tmp_path, space, action,
                                     message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"space": space, "action": action}))
    for command in ("check", "build", "dual"):
        code, _, err = run([command, str(bad)], capsys)
        assert code == 2 and "config error" in err and message in err


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
    different subcommands and flags (--size-bound, --matrix-bound and
    --no-verify-representatives, then none of them) give the exit code,
    stdout, stderr and --out bytes of fresh processes, so no flag's value
    leaks into the next call: a leaked --size-bound 50 would stop the
    third call with exit 3, a leaked --matrix-bound 1 would drop its
    idempotent checks."""
    argvs = [["check", cfg("hamming4_f3"), "--size-bound", "50"],
             ["dual", cfg("hamming2_f2"), "--matrix-bound", "1",
              "--no-verify-representatives"],
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


def test_each_command_computes_once(capsys, monkeypatch):
    """build and self-mode dual compute the intersection tensor once, with
    representative verification (the idempotent and sigma checks, on at
    the default matrix bound, compute none), build finds the orbits once,
    and a cross dual builds each action once."""
    counts = {"orbits": 0, "build_action": 0}
    tensors = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(space, partition, verify_representatives):
        tensors.append(verify_representatives)
        return real(space, partition, verify_representatives)

    real = scheme.intersection_tensor
    monkeypatch.setattr(scheme, "intersection_tensor", recorded)
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


@pytest.mark.parametrize("memo_chars", [3, 1 << 16])
def test_write_report_streams_the_dumps_bytes(memo_chars, capsys, tmp_path,
                                              monkeypatch):
    """The streamed report, to a file and to stdout, is byte for byte
    json.dumps(report, sort_keys=True, indent=2) + "\\n", both when every
    container passes MEMO_CHARS and is written in pieces and when the
    whole report stays within it and is memoized."""
    monkeypatch.setattr(cli, "MEMO_CHARS", memo_chars)
    report = {"b": [1, {"z": None, "a": [0.5, "xé"]}], "a": {},
              "c": [[True, False]] * 5, "d": "end"}
    want = json.dumps(report, sort_keys=True, indent=2) + "\n"
    path = tmp_path / "r.json"
    cli.write_report(report, str(path))
    assert path.read_bytes() == want.encode()
    cli.write_report(report, None)
    assert capsys.readouterr().out == want


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
    and, as it grows, container texts above the memo and flush size."""
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
    want = json.dumps(cert, sort_keys=True, indent=2) + "\n"
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


def test_write_report_encodes_a_shared_entry_once_per_depth(monkeypatch):
    """Every occurrence of a 1-4 KiB entry after the first at its depth
    reuses the first's text: _chunks runs on it once at depth 2 and once
    at depth 3, not once per occurrence."""
    entry = large_entry()
    calls = {}
    real = cli._chunks

    def counted(obj, depth, memo):
        calls[id(obj), depth] = calls.get((id(obj), depth), 0) + 1
        return real(obj, depth, memo)

    monkeypatch.setattr(cli, "_chunks", counted)
    encoded(shared_report(entry))
    assert (calls[id(entry), 2], calls[id(entry), 3]) == (1, 1)


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
    shared entry whose text is memoized at its depth."""
    arrays = draw(st.lists(INT_ARRAYS, min_size=1, max_size=3))
    shared = draw(st.sampled_from([{"order": 5, "coeffs": [1, -2, 0, 3]},
                                   large_entry()]))
    return {"a": arrays[0], "b": [shared, arrays[-1], shared, 7],
            "c": [[shared, arrays], {"d": arrays[0], "e": shared}],
            "f": [shared] * 3}


def plain(obj):
    """obj with every array as its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    return obj


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(INT_ARRAYS, array_trees()))
def test_write_report_writes_integer_arrays_as_json_dumps(obj):
    """An integer ndarray, alone or nested among memoized entries, is
    written as json.dumps writes its tolist(), in writes of at most
    64 KiB."""
    recorder = WriteRecorder()
    with contextlib.redirect_stdout(recorder):
        cli.write_report(obj, None)
    assert recorder.getvalue() == \
        json.dumps(plain(obj), sort_keys=True, indent=2) + "\n"
    assert max(recorder.sizes) <= 64 * 1024


@pytest.mark.parametrize("low, high", [(0, 99), (-2 ** 63, 2 ** 63 - 1)])
def test_write_report_streams_a_large_integer_array(low, high):
    """A 60^3 array, with a value range narrower than the array (one text
    per value) and wider (int.__repr__ per entry), inside a report: the
    json.dumps bytes, in many writes of at most 64 KiB."""
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


def test_write_report_rejects_non_integer_arrays():
    for bad in (np.zeros(2), np.array([True]), np.array(["a"])):
        with pytest.raises(TypeError):
            json.dumps(bad)
        with pytest.raises(TypeError):
            encoded({"a": bad})
