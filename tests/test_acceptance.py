"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact (zero tolerance) except the floating lower bound
on Krein parameters, which uses -1e-9.  Expensive pipeline runs are shared
through module-scoped fixtures so the suite stays fast.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest

from scheme_forge import duality, oracles
from scheme_forge.cyclo import CycloInt
from scheme_forge.gf import FieldSpec
from scheme_forge.space import (VectorSpace, FullMatrixSpace,
                                AlternatingMatrixSpace, SymmetricMatrixSpace,
                                HermitianMatrixSpace, CyclicProductSpace,
                                GramSpace, BLOCK_CELLS, DEFAULT_SIZE_BOUND)
from scheme_forge.action import (build_action, orbits, check_condition_4,
                                 check_condition_6, adjoint_map,
                                 verify_adjoint, AdjointMap, Generator)
from scheme_forge.scheme import TranslationScheme
from scheme_forge.duality import (duality_report, pairing_table,
                                  character_profile, constancy_test)
from scheme_forge.cli import (check_report, load_action, main, read_config,
                              write_report)

from helpers import plain
from test_cli import WriteRecorder
from test_duality import spectrum
from test_space import DEGENERATE_GRAMS, index_of_entries

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# the ten families of criterion 1; builders are zero-argument callables so
# each space is fresh (pairing caches are per-space)
FAMILIES = [
    ("central/Z_8",
     lambda: build_action(CyclicProductSpace((8,)), "central")),
    ("cyclotomic(d=2)/F_5",
     lambda: build_action(VectorSpace(1, FieldSpec(5)), "cyclotomic", d=2)),
    ("bilinear(2,2)/F_2",
     lambda: build_action(FullMatrixSpace(2, 2, FieldSpec(2)), "bilinear")),
    ("alternating(4)/F_2",
     lambda: build_action(AlternatingMatrixSpace(4, FieldSpec(2)),
                          "alternating")),
    ("hermitian(2)/F_4",
     lambda: build_action(HermitianMatrixSpace(2, FieldSpec(2, 2)),
                          "hermitian")),
    ("symmetric(2)/F_5",
     lambda: build_action(SymmetricMatrixSpace(2, FieldSpec(5)), "symmetric")),
    ("hamming(2)/F_2",
     lambda: build_action(VectorSpace(2, FieldSpec(2)), "hamming")),
    ("hamming(4)/F_3",
     lambda: build_action(VectorSpace(4, FieldSpec(3)), "hamming")),
    ("weak_hamming(1,1)/F_2",
     lambda: build_action(VectorSpace(2, FieldSpec(2)), "weak_hamming",
                          levels=[1, 1])),
    ("weak_hamming(2,1)/F_2",
     lambda: build_action(VectorSpace(3, FieldSpec(2)), "weak_hamming",
                          levels=[2, 1])),
]

# sha256 of json.dumps(cert.to_json(), sort_keys=True) for each family's
# self-mode certificate, recorded before the integer-digit core replaced
# the per-space FieldElement group law and pairing.  tests/regen_golden.py
# prints this table, GOLDEN_REPORTS and GOLDEN_DUAL_STDOUT from the
# current code.
GOLDEN_CERTIFICATES = {
    "central/Z_8":
        "306aa580fb01e1fc632a7f65c2aa0900512767db5ce04cefc06c81bb8c14b77b",
    "cyclotomic(d=2)/F_5":
        "e77f9932830f09e72d4d3d0f0aa1ea3cb269f5109b4df4b75499140a72c3f11d",
    "bilinear(2,2)/F_2":
        "3a4765c995900779abbe31ab792c034187085075d45d3a9249ab0b9435306c98",
    "alternating(4)/F_2":
        "e7d7fa4cfea3465ff922fa96d128cc0e2edf7f04a39607f8dc23b0552bb5dc61",
    "hermitian(2)/F_4":
        "d72e3660cefef1fd522445e84348027e340417c7a7a3da2db61ac6cc60bf8976",
    "symmetric(2)/F_5":
        "79f2c0edcea6c8b0658c303f96eafa4cd0eec62dbbc8754ba4d4bc5a1ac71940",
    "hamming(2)/F_2":
        "4577dc4ea5bf3d4b0fdea5145451bd064c70de2dd0b4a9cc02d5d47df5339e83",
    "hamming(4)/F_3":
        "1d7a879b04283c3c80558b167db9d83539548da0a2e90d759b7640ecd22b1c4b",
    "weak_hamming(1,1)/F_2":
        "7a2cd9d39dbe629d6cc708f4946c7f625b89a2f577c839bdca8dfce8700364f2",
    "weak_hamming(2,1)/F_2":
        "4ab68c57d7aa0f3780ba9593f5e276398a40a2b1b67c094cc4c18a1da844ae6a",
}

# weak_hamming(2,1) has non-palindromic levels: its certificate is the
# cross-duality of criterion 4, not a self-duality
SELF_DUAL = [name for name, _ in FAMILIES if name != "weak_hamming(2,1)/F_2"]


@pytest.fixture(scope="module")
def gensets():
    return {name: make() for name, make in FAMILIES}


@pytest.fixture(scope="module")
def certificates(gensets):
    return {name: duality_report(genset)
            for name, genset in gensets.items()}


def report_line(criterion, ok, detail):
    print("criterion %d: %s - %s" % (criterion, "PASS" if ok else "FAIL",
                                     detail))
    assert ok, detail


def test_criterion_1_axiom_suite(gensets):
    failures = []
    for name, genset in gensets.items():
        report, code, _ = check_report(genset.space, genset)
        if code != 0 or report["status"] != "symmetric_scheme":
            failures.append(name)
    report_line(1, not failures,
                "axiom suite over %d families%s" % (
                    len(gensets),
                    "" if not failures else "; failed: %s" % failures))


def test_criterion_2_self_duality(certificates, gensets):
    failures = []
    for name in SELF_DUAL:
        cert = certificates[name]
        ok = (cert.passed and cert.mode == "self"
              and cert.P == cert.Q
              and cert.valencies == cert.multiplicities
              and cert.checks["krein_equals_dual_intersection"])
        if not ok:
            failures.append(name)
    report_line(2, not failures,
                "P = Q, v = m, p-tensor = Krein tensor for %d families%s" % (
                    len(SELF_DUAL),
                    "" if not failures else "; failed: %s" % failures))


def test_criterion_3_concrete_eigenmatrices(certificates):
    cert = certificates["hamming(2)/F_2"]
    m = cert.Q[0][0].order
    want = [[1, 2, 1], [1, 0, -1], [1, -2, 1]]
    ok = all(cert.Q[i][j] == CycloInt.integer(m, want[i][j])
             and cert.P[i][j] == CycloInt.integer(m, want[i][j])
             for i in range(3) for j in range(3))
    cyc = certificates["cyclotomic(d=2)/F_5"]
    z = lambda k: CycloInt.root_of_unity(5, k)
    ok = ok and cyc.Q[1][1] == z(1) + z(4) and cyc.Q[1][2] == z(2) + z(3)
    report_line(3, ok, "hamming(2)/F_2 P=Q matrix and cyclotomic(2)/F_5 "
                       "Gauss-period entries exact")


def test_criterion_4_cross_duality():
    space = VectorSpace(3, FieldSpec(2))
    gens_G = build_action(space, "weak_hamming", levels=[2, 1])
    gens_Gc = build_action(space, "weak_hamming_dual", levels=[2, 1])
    cert = duality_report(gens_G, gens_Gc)
    n = space.size
    PQ = spectrum(cert.P, cert.Q)
    d = len(cert.Q) - 1
    pq_ok = all(PQ[i][j] == CycloInt.integer(2, n if i == j else 0)
                for i in range(d + 1) for j in range(d + 1))
    scheme_Gc = TranslationScheme(space, orbits(gens_Gc))
    ok = (cert.passed and cert.mode == "cross"
          and cert.checks["constancy_G"] and cert.checks["constancy_G_check"]
          and pq_ok
          and cert.checks["krein_equals_dual_intersection"]
          and cert.valencies == [len(c) for c in orbits(gens_G).classes]
          and cert.multiplicities == scheme_Gc.valencies)
    report_line(4, ok, "weak_hamming(2,1) x weak_hamming(1,2) cross "
                       "certificate, PQ = 8I exact")


def test_criterion_5_adjoint_soundness(gensets, certificates):
    ok = True
    detail = []
    for name, genset in gensets.items():
        adj = adjoint_map(genset)
        passed, witness = verify_adjoint(adj)
        if not passed:
            ok = False
            detail.append("%s: %s" % (name, witness))
        # adjoint-pass must imply constancy-pass in every tested case
        cert = certificates[name]
        if passed and cert.Q is None:
            ok = False
            detail.append("%s: adjoint passed but constancy did not" % name)
    # negative control: corrupt one adjoint image
    genset = gensets["hamming(2)/F_2"]
    adj = adjoint_map(genset)
    perm = list(adj.images[0].perm)
    perm[1], perm[2] = perm[2], perm[1]
    bad = AdjointMap(genset, [Generator("bad", perm, {})])
    failed, witness = verify_adjoint(bad)
    if failed or witness is None:
        ok = False
        detail.append("corrupted adjoint was not caught")
    report_line(5, ok, "verify_adjoint on all families, "
                       "corrupted map caught with witness"
                       + ("" if ok else "; " + "; ".join(detail)))


def test_criterion_6_condition_6_branch():
    space = SymmetricMatrixSpace(2, FieldSpec(3))
    genset = build_action(space, "symmetric")
    part = orbits(genset)
    ok4, _ = check_condition_4(part, space)
    field = space.field
    zero, one, two = field.zero(), field.one(), field.element(2)
    d10 = index_of_entries(space, [[one, zero], [zero, zero]])
    d20 = index_of_entries(space, [[two, zero], [zero, zero]])
    witness_ok = (part.class_of[d10] != part.class_of[d20]
                  and space.neg(d10) == d20)
    pairing = check_condition_6(part, space)
    cert = duality_report(genset)
    report, code, _ = check_report(space, genset)
    ok = (not ok4 and witness_ok and pairing is not None
          and not cert.passed and cert.Q is None
          and code == 0 and report["status"] == "commutative_non_symmetric")
    report_line(6, ok, "symmetric(2)/F_3: condition (4) fails with witness "
                       "diag(1,0)/diag(2,0), condition (6) pairing found, "
                       "no symmetric certificate emitted")


def test_criterion_7_idempotent_suite(certificates):
    ok = True
    detail = []
    for name in ("hamming(2)/F_2", "bilinear(2,2)/F_2"):
        cert = certificates[name]
        idem = cert.checks.get("idempotent_detail", {})
        wanted = ("E0_is_J", "sum_is_identity", "bose_mesner_membership",
                  "orthogonal_idempotents", "dense_products")
        if not all(idem.get(k) for k in wanted):
            ok = False
            detail.append("%s: %s" % (name, idem))
        if not cert.checks.get("sigma_identity"):
            ok = False
            detail.append("%s: sigma != identity" % name)
    report_line(7, ok, "idempotent identities and sigma = id exact for "
                       "hamming(2)/F_2 and bilinear(2,2)/F_2"
                       + ("" if ok else "; " + "; ".join(detail)))


def test_criterion_8_oracle_cross_checks(gensets):
    ok = True
    detail = []
    rank_cases = [("bilinear(2,2)/F_2", 1), ("alternating(4)/F_2", 2),
                  ("hermitian(2)/F_4", 1)]
    for name, divisor in rank_cases:
        genset = gensets[name]
        space = genset.space
        part = orbits(genset)
        for x in range(space.size):
            r = oracles.matrix_rank(space.materialize(x), space.field)
            if part.class_of[x] != r // divisor:
                ok = False
                detail.append("%s: class/rank mismatch at %d" % (name, x))
                break
    for name in ("weak_hamming(1,1)/F_2", "weak_hamming(2,1)/F_2"):
        genset = gensets[name]
        space = genset.space
        part = orbits(genset)
        scheme = TranslationScheme(space, part)
        for x in range(space.size):
            w = genset.poset.weight(space.materialize(x))
            if part.class_of[x] != w:
                ok = False
                detail.append("%s: class/weight mismatch at %d" % (name, x))
                break
        # wreath relation: (x, y) in R_i iff w_P(y - x) = i, every pair
        for x in range(space.size):
            for y in range(space.size):
                w = genset.poset.weight(
                    space.materialize(space.sub(y, x)))
                if scheme.relation(x, y) != w:
                    ok = False
                    detail.append("%s: relation mismatch" % name)
                    break
    report_line(8, ok, "rank-oracle classes (every point) and poset-weight "
                       "spheres/relations (every pair) match orbits"
                       + ("" if ok else "; " + "; ".join(detail)))


def test_criterion_9_krein_flags(certificates):
    failures = []
    for name in SELF_DUAL:
        cert = certificates[name]
        if not (cert.krein_flags and cert.krein_flags["real"]
                and cert.krein_flags["nonnegative"]):
            failures.append(name)
    # the non-palindromic weak-Hamming pair, via its cross certificate
    space = VectorSpace(3, FieldSpec(2))
    cert = duality_report(build_action(space, "weak_hamming", levels=[2, 1]),
                          build_action(space, "weak_hamming_dual",
                                       levels=[2, 1]))
    if not (cert.krein_flags["real"] and cert.krein_flags["nonnegative"]):
        failures.append("weak_hamming(2,1)/F_2")
    report_line(9, not failures,
                "Krein parameters conjugation-invariant exactly and "
                ">= -1e-9 in floating approximation for all families"
                + ("" if not failures else "; failed: %s" % failures))


def certificate_digest(cert):
    """The GOLDEN_CERTIFICATES digest of a certificate."""
    text = json.dumps(plain(cert.to_json()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def command_digests(command, out_path):
    """(exit code, sha256 of the --out bytes, sha256 of stdout) of a
    command of GOLDEN_REPORTS, run with --out out_path; stdout and stderr
    are captured."""
    argv = [os.path.join(ROOT, tok) if tok.endswith(".json") else tok
            for tok in command.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", str(out_path)])
    with open(out_path, "rb") as fh:
        report = hashlib.sha256(fh.read()).hexdigest()
    return code, report, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_certificates_match_golden_digests(certificates):
    changed = [name for name, cert in certificates.items()
               if certificate_digest(cert) != GOLDEN_CERTIFICATES[name]]
    assert not changed, "certificates changed: %s" % changed


# The dual commands of GOLDEN_REPORTS whose constancy fails: the adjoints
# of wh21_f2, verified, do not keep its own classes, as a built-in action
# against itself or as a custom action (its generators as point
# permutations) in self mode, so by the converse of the adjoint lemma
# constancy_G fails (exit 1) with keeps_classes' witness, and no
# character profile is computed.
FAILED_PREMISE_DUALS = [
    "dual tests/configs/custom_wh21_f2.json",
    "dual configs/wh21_f2.json configs/wh21_f2.json",
]

# (exit code, sha256 of the --out JSON bytes) of each CLI command on the
# shipped configs, the cross pair and the perfbench stretch configs (the
# same argv as perfbench/workloads.py), recorded before generator and
# adjoint materialization moved from FieldElement loops to index tables;
# those of FAILED_PREMISE_DUALS since the adjoint lemma's witness fails
# their constancy; those of the three custom commands since custom
# actions read their adjoints off the pairing
GOLDEN_REPORTS = {
    "check configs/alternating4_f2.json":
        (0, "5cedc148a72c6335238e22d1483650c52b3e49666ea9e8fe2413a05ea8e10fd1"),
    "build configs/alternating4_f2.json":
        (0, "25404ac7cbbf10bdc7c8ed276e56ec759f2f8f30eac1faa5dfc73209c80c17d0"),
    "dual configs/alternating4_f2.json":
        (0, "d4e15d8eee2488eaf4350cec7823280d0c18685660e5e416059948e6976e5b6b"),
    "check configs/bilinear22_f2.json":
        (0, "8691d52b3730b810a6589c1d1a4f9d53b56e0d9c4fff4ff22729b2b292103c2d"),
    "build configs/bilinear22_f2.json":
        (0, "f6b0e8b4a4ed72b817ffc107ec2dcae0886a7669743cb8c2e63cdf6c089f2788"),
    "dual configs/bilinear22_f2.json":
        (0, "f03b508f7c375b4f24aadce20f401f3d9e703d2a7f0b75dd8944a91bab1a45b9"),
    "check configs/central_z8.json":
        (0, "3406b49869ba277d01e057378a9126349ac9d5b4f852efe3e3c9f13ece6a55b2"),
    "build configs/central_z8.json":
        (0, "2f125ef7fbc4243727089c5c98ef8d3f2ed58fefde6941abb745204ffad8f9bd"),
    "dual configs/central_z8.json":
        (0, "cdbf7df8747308d7eed32628e06f050cf1f0f8469c50be606d5ce8a3b4831f6a"),
    "check configs/cyclotomic2_f5.json":
        (0, "b32552cd9c641210764688870b7f1abdc70d8d4599a684d417c6b7bed3a83c4e"),
    "build configs/cyclotomic2_f5.json":
        (0, "4dade8c148da0688fb7d6319974822e4de5071d8d2f11b7b93110813126151bc"),
    "dual configs/cyclotomic2_f5.json":
        (0, "546d1d775dbd63cb3cceb90d920bcc6e7caa323f36a1ace100fee156f227a9a5"),
    "check configs/hamming2_f2.json":
        (0, "835e42a5bfa4e068e80da55ecd8029143c7bc1c6ffdc7afdebb5d0f4426aae4f"),
    "build configs/hamming2_f2.json":
        (0, "5081211038eaa9a838319e76fbbc5491f544d8af5e60d6448b0a70560ef513e3"),
    "dual configs/hamming2_f2.json":
        (0, "e38099dd68f1515140f910b3ac596b762380637a1122cb1dcd86fc2dc026c142"),
    "check configs/hamming4_f3.json":
        (0, "756967c6e94724429e183e947db589b91814a6262fcae0913e7c6a31b5098d3b"),
    "build configs/hamming4_f3.json":
        (0, "7345c121569cd893375c8ded25e1626db8c1205c8d09eb83961dda5502e927a2"),
    "dual configs/hamming4_f3.json":
        (0, "c5a1cf7780695a873cba6ddba9a72f0bb074994a339f0f16b48e5d8ecafb7dfa"),
    "check configs/her2_f4.json":
        (0, "f2723eaf8d6e75aef03255fb57abdefab9842155b3320cb01e7a9610ac497e3b"),
    "build configs/her2_f4.json":
        (0, "f5024cb3c898029574194ddeefb2fee7012c294b777621f9effdd305bc143569"),
    "dual configs/her2_f4.json":
        (0, "2f15ad28fab15c88150700d838cf0dfec933d0d7d4867db58d4c8b31d4291206"),
    "check configs/symmetric2_f3.json":
        (0, "57676b7e609998831a6e2165a3206d1dac5a72bb332dd71d7a0ccd6ab3cbf6fc"),
    "build configs/symmetric2_f3.json":
        (1, "57676b7e609998831a6e2165a3206d1dac5a72bb332dd71d7a0ccd6ab3cbf6fc"),
    "dual configs/symmetric2_f3.json":
        (1, "8e4a1f4480039940f7bb73e95e72eb7891d372e1059b7bac7cd583056837db81"),
    "check configs/symmetric2_f5.json":
        (0, "b9b92e69c1f5fd4081284bb970d801e0ea6a24881a20df95e109bd7ecb4be03f"),
    "build configs/symmetric2_f5.json":
        (0, "f3adb98534e565d9cb3109a9d215f5022c0e5a50d92ecd72f86a60f61dc48dce"),
    "dual configs/symmetric2_f5.json":
        (0, "82ef66124a15ea9bfc87a91219031b5af1b3adff87332b990e52b122c97cfcb7"),
    "check configs/wh11_f2.json":
        (0, "2a5ba0e9501b5a185b5c17437599f68740a517bb5885e9756d5dfe4405ef691c"),
    "build configs/wh11_f2.json":
        (0, "12f660f0335d25d8bd88c85fe7313638a9372faacff405906d1c145dc15afec1"),
    "dual configs/wh11_f2.json":
        (0, "60f8e885e478444b37f368af95a0f00e35da48bd0a166a24818444a9237fcd8f"),
    "check configs/wh12_f2.json":
        (0, "54698e5760bc62e9f0a22ffaf58a72a9f8e58f961d40fbe74b1ec6beae362e46"),
    "build configs/wh12_f2.json":
        (0, "ef9616fc7514f2d58bb33bbc55065f5d5d2ac11fce5cdeab229ee2201eb92b3f"),
    "dual configs/wh12_f2.json":
        (0, "d937109b243a73afb762a319f6cd435b11f2cea1e6e6aa27168f1e4ad160c829"),
    "check configs/wh21_f2.json":
        (0, "62513bcf2476da3625db70c96269fdccfda3f6cc8b31309c6836f3b4f1dad297"),
    "build configs/wh21_f2.json":
        (0, "e9192a03fc99c0147cc5ebd972970e4991cc32a5264e068348d2129ec1c438cd"),
    "dual configs/wh21_f2.json":
        (0, "5b4e4938755bed145c3247eb436eced118076e1f27ab65f9494d67c62cb50f9e"),
    "dual configs/wh21_f2.json configs/wh12_f2.json":
        (0, "3225d0fe9b574220dbd7e6221c1906005405d130edcdcb80aa970dd84f5be8d8"),
    "dual tests/configs/custom_hamming4_f3.json":
        (0, "c5a1cf7780695a873cba6ddba9a72f0bb074994a339f0f16b48e5d8ecafb7dfa"),
    "dual tests/configs/custom_wh21_f2.json tests/configs/custom_wh12_f2.json":
        (0, "40a018b6affccb31a65e693c0aa32c2a465c7d94af233c60192168bc22b066d8"),
    "dual tests/configs/custom_wh21_f2.json":
        (1, "820c5004bcbb27340b710967c12d6f7048a30dd0c3ddb29aa9098c62699cf1d0"),
    "dual configs/wh21_f2.json configs/wh21_f2.json":
        (1, "3d52de032b711718b595e548e547702797e7a93c45fe6f16bf0fd4cbf3c33c79"),
    "build perfbench/configs/bilinear24_f2.json":
        (0, "2991631e4a6a9e36a0ac5203f2383bfd29c35e0390c97c3cf5d83257c0976e85"),
    "dual perfbench/configs/hamming5_f3.json --matrix-bound 64":
        (0, "75155da9224d488c4d71702568d1b57f1dc81e7a353d6c6e9a6087352728ed18"),
    "dual perfbench/configs/central_z16xz8.json --matrix-bound 64":
        (0, "fe8f99490329c1e5da0ffa5dea8d8b443802c9c691fdda11f70890f51ee9b726"),
    "build perfbench/configs/central_z16xz8.json":
        (0, "b03f47f0afea5061fc30d8558a53f90e29ddc79fd355b10d52d965f89539d0b5"),
    "build perfbench/configs/central_z15xz15.json":
        (0, "2bc7df963d19b3e123aa7d75bf0766b5c519be40141b0eddd84a9aa6121b0af1"),
}


@pytest.mark.parametrize("command", GOLDEN_REPORTS)
def test_reports_match_golden_digests(command, tmp_path):
    code, digest, _ = command_digests(command, tmp_path / "report.json")
    assert (code, digest) == GOLDEN_REPORTS[command]

# sha256 of the stdout of each dual command of GOLDEN_REPORTS (run with
# --out, so the eigenmatrix tables and the PASS/FAIL line), recorded before
# render_eigenmatrix built each distinct cell text once
GOLDEN_DUAL_STDOUT = {
    "dual configs/alternating4_f2.json":
        "b8b79003c2076aea6798c8d949cc9a19c4ba08386eff020342055bb02b723d86",
    "dual configs/bilinear22_f2.json":
        "0461a10a3c068e5d014e8657795f9acd7ab0dfda6695baead0bf08382756bea4",
    "dual configs/central_z8.json":
        "83ab4188e67817b5fe95fc52ad013b5c077608bce953e471dd900f95ea3cc9ef",
    "dual configs/cyclotomic2_f5.json":
        "e4a1776ba310dedc70b24cc9767a3e5a1f34ff578fca2670e25a5bde4c69f00f",
    "dual configs/hamming2_f2.json":
        "9a6b469e47f4dafd8943d4f3234383190b0988c2dc3463af8b2d0f4001004bc2",
    "dual configs/hamming4_f3.json":
        "860f8281a07df9ce5f444449c99e6450cca93d8119f565a00258680cab31d8aa",
    "dual configs/her2_f4.json":
        "f159dacdd62e04d43110c684d3fa1c77ef40ca90606447da9ad6b80d04c62ec1",
    "dual configs/symmetric2_f3.json":
        "060e1c7a9ea1f6296fd19fd86bbea2814442f4cfee15b31081d3e65f5e6ec53c",
    "dual configs/symmetric2_f5.json":
        "d789cabc709cb2d7939d04eecb6eaf80c1b70538f5f6903328b3d74de415d71f",
    "dual configs/wh11_f2.json":
        "ffa26ad8c68b779b15509aabc62dbd51ff1906ddb782cf830ee42dab292a76aa",
    "dual configs/wh12_f2.json":
        "99850eea83ef3cd6ce6869abb107edb6304f40e2c42a04a47357f0e4c529bb9c",
    "dual configs/wh21_f2.json":
        "37ed8a15f245bf4a3280990077edcede345e74a44aaf23ef38d2fa0edeaeb777",
    "dual configs/wh21_f2.json configs/wh12_f2.json":
        "37ed8a15f245bf4a3280990077edcede345e74a44aaf23ef38d2fa0edeaeb777",
    "dual tests/configs/custom_hamming4_f3.json":
        "860f8281a07df9ce5f444449c99e6450cca93d8119f565a00258680cab31d8aa",
    "dual tests/configs/custom_wh21_f2.json tests/configs/custom_wh12_f2.json":
        "8596d066356c25cec2027205c0eae28390f48eeef875e403960bc6bd97da77cd",
    "dual tests/configs/custom_wh21_f2.json":
        "060e1c7a9ea1f6296fd19fd86bbea2814442f4cfee15b31081d3e65f5e6ec53c",
    "dual configs/wh21_f2.json configs/wh21_f2.json":
        "8d55331d4b93a8d868268b53af8c7c6f3b35f7bbeafacc0ae87c4d6d1d89bea6",
    "dual perfbench/configs/hamming5_f3.json --matrix-bound 64":
        "006573b12fcb147a90e8d4de7ee9d62b3562c65c080427a7ae8950797c085cb0",
    "dual perfbench/configs/central_z16xz8.json --matrix-bound 64":
        "a3347b3728ea7cc042bdc00a5ab6e556857ed8cc9d5909162631f448c30f0d0d",
}


@pytest.mark.parametrize("command", GOLDEN_DUAL_STDOUT)
def test_dual_stdout_matches_golden_digests(command, tmp_path):
    assert command_digests(command, tmp_path / "report.json")[2] == \
        GOLDEN_DUAL_STDOUT[command]


def test_dual_of_built_in_actions_needs_no_pairing_table(tmp_path,
                                                         monkeypatch):
    """Every action of a dual command of GOLDEN_REPORTS, built-in or
    custom (adjoints read off the pairing), has a verified adjoint, and
    the adjoint lemma decides constancy both ways, from the character
    profile of the class representatives alone: with
    duality.constancy_test, the exhaustive test, made to raise, each
    gives its golden exit code, --out bytes and stdout.  Those of
    FAILED_PREMISE_DUALS fail constancy_G with keeps_classes' witness,
    which names an adjoint image first."""
    def refuse(part, profile):
        raise AssertionError("constancy_test called")

    report = tmp_path / "report.json"
    monkeypatch.setattr(duality, "constancy_test", refuse)
    for command in GOLDEN_REPORTS:
        if command.startswith("dual "):
            code, digest, out = command_digests(command, report)
            assert (code, digest) == GOLDEN_REPORTS[command], command
            assert out == GOLDEN_DUAL_STDOUT[command], command
            if command in FAILED_PREMISE_DUALS:
                (witness,) = json.loads(report.read_text())["witnesses"]
                assert witness["check"] == "constancy_G", command
                assert witness["witness"][0].startswith("adj_"), command


def test_no_dual_builds_the_pairing_table(tmp_path, monkeypatch):
    """No dual command of GOLDEN_REPORTS calls pairing_table: with it
    made to raise, each command gives its golden exit code, --out bytes
    and stdout.  character_profile asks pairing_rows for one block of
    points at a time, at most BLOCK_CELLS // max(|X|, (d + 1) m) and at
    least one, and on every golden config its points, the d + 1 class
    representatives, are one block: one pairing_rows call of all of
    them.  Through the Python API, a degenerate pairing has no adjoint,
    so duality_report profiles no point at all."""
    def refuse(space):
        raise AssertionError("pairing_table called")

    calls = []
    real_profile, real_rows = duality.character_profile, duality.pairing_rows

    def profile(space, dual, points):
        width = len(dual.classes)
        calls.append((len(points), space.size, max(1, BLOCK_CELLS // max(
            space.size, width * space.character_order)), []))
        return real_profile(space, dual, points)

    def rows(space, points):
        calls[-1][3].append(len(points))
        return real_rows(space, points)

    monkeypatch.setattr(duality, "pairing_table", refuse)
    monkeypatch.setattr(duality, "character_profile", profile)
    monkeypatch.setattr(duality, "pairing_rows", rows)
    report = tmp_path / "report.json"
    for command in GOLDEN_REPORTS:
        if command.startswith("dual "):
            assert command_digests(command, report) == (
                *GOLDEN_REPORTS[command], GOLDEN_DUAL_STDOUT[command]), command
    assert calls and all(points < size for points, size, _, _ in calls)
    for points, _, block, blocks in calls:
        assert points <= block and blocks == [points]
    profiled = len(calls)
    space = GramSpace(*DEGENERATE_GRAMS[0][:2])
    cert = duality_report(build_action(space, "custom", generators=[
        space.neg(np.arange(space.size)).tolist()]))
    assert cert.checks["constancy_G"] is False and len(calls) == profiled


def test_phi_64_certificate_matches_golden_digests(tmp_path, capsys,
                                                   monkeypatch):
    """The dual certificate of the central action on Z_128 (d = 7,
    phi(128) = 64, 0.69 MB): each Krein entry is 1,096 characters at its
    depth.  Its --out bytes and stdout match digests recorded before the
    encoder memoized entries that long, its text is json.dumps's, and it
    is written in pieces of at most 64 KiB."""
    config = tmp_path / "central_z128.json"
    config.write_text(json.dumps({
        "space": {"kind": "cyclic_product", "moduli": [128]},
        "action": {"family": "central"}}))
    path = tmp_path / "report.json"
    code = main(["dual", str(config), "--out", str(path)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(out.encode()).hexdigest()) == (
        0, "5a06700cb66c55d3490a45dae541d3e6c2cbfaf772e98fe684a98e8d4d022abb",
        "c55d032f44c600fa967ac7beda1fd2e1c5a9d68d186b668807f352eace3b9202")
    report = json.loads(path.read_text())
    assert len(json.dumps(report["krein"][1][1][1], sort_keys=True,
                          indent=2).replace("\n", "\n" + "  " * 4)) == 1096
    _, genset = load_action(read_config(str(config)), DEFAULT_SIZE_BOUND)
    recorder = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    write_report(duality_report(genset).to_json(), None)
    assert recorder.getvalue() == path.read_text() == \
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert max(recorder.sizes) <= 64 * 1024
