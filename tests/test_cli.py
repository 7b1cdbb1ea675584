"""CLI: exit codes, report shapes, determinism."""

import json
import os

import pytest

from scheme_forge import cli
from scheme_forge.cli import main
from scheme_forge.space import AbelianSpace

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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
])
def test_config_schema_errors_exit_2(capsys, tmp_path, space, action,
                                     message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"space": space, "action": action}))
    for command in ("check", "build", "dual"):
        code, _, err = run([command, str(bad)], capsys)
        assert code == 2 and "config error" in err and message in err


def test_size_bound_exit_3(capsys):
    code, _, err = run(["check", cfg("hamming4_f3"), "--size-bound", "10"],
                       capsys)
    assert code == 3 and "resource limit" in err


def test_reports_are_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["dual", cfg("hamming2_f2"), "--out", str(a)], capsys)
    run(["dual", cfg("hamming2_f2"), "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_each_command_computes_once(capsys, monkeypatch):
    """build and self-mode dual sweep the representative-verified
    intersection tensor once (|X|^2 subtractions on hamming(2)/F_2; the
    idempotent and sigma checks, on at the default matrix bound, subtract
    no points), build finds the orbits once, and a cross dual builds each
    action once."""
    counts = {"sub": 0, "orbits": 0, "build_action": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(AbelianSpace, "sub", counted("sub", AbelianSpace.sub))
    for name in ("orbits", "build_action"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))

    def counts_of(argv):
        counts.update(dict.fromkeys(counts, 0))
        assert run(argv, capsys)[0] == 0
        return dict(counts)

    build = counts_of(["build", cfg("hamming2_f2")])
    assert (build["sub"], build["orbits"]) == (16, 1)
    dual = counts_of(["dual", cfg("hamming2_f2")])
    assert dual["sub"] == 16
    cross = counts_of(["dual", cfg("wh21_f2"), cfg("wh12_f2")])
    assert cross["build_action"] == 2


def test_eigenmatrix_tables_rendered(capsys):
    code, out, _ = run(["dual", cfg("hamming2_f2")], capsys)
    assert code == 0
    assert "\nQ\n" in "\n" + out
    assert "(2.000000)" in out  # exact entry with 6-decimal approximation
