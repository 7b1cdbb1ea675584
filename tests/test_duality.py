"""Duality machinery: constancy, eigenmatrices, idempotents, Krein."""

import json
import os

import pytest

from scheme_forge import cli
from scheme_forge.cyclo import CycloInt
from scheme_forge.errors import UsageError
from scheme_forge.gf import FieldSpec
from scheme_forge.space import VectorSpace, FullMatrixSpace, GramSpace
from scheme_forge.action import build_action, orbits, OrbitPartition
from scheme_forge.scheme import TranslationScheme
from scheme_forge.duality import (pairing_table, character_profile,
                                  constancy_test, verify_eigen_identities,
                                  verify_idempotents, sigma_permutation,
                                  krein_parameters, krein_equals_intersection,
                                  duality_report, _cyclo_matmul,
                                  DENSE_IDEMPOTENT_BOUND)

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


# -- point-level sweep oracles ------------------------------------------------
#
# Reference oracles for the spectral checks in duality.py: O(d^2 |X|^2)
# products in Z[zeta_m] that multiply the scaled idempotents and apply them
# to characters point by point, with no appeal to the spectrum.

def idempotent_matrices(space, profile):
    """The scaled idempotents |X|*E_j as dense CycloInt matrices,
    entry (a, b) = f_j(a - b)."""
    n = space.size
    diff = [[space.sub(a, b) for b in range(n)] for a in range(n)]
    return [[[f[diff[a][b]] for b in range(n)] for a in range(n)]
            for f in profile]


def sweep_verify_idempotents(space, scheme, profile):
    """verify_idempotents by sweeps: products on row 0 (every matrix
    involved is constant on point differences, so row 0 determines the
    product) and, below DENSE_IDEMPOTENT_BOUND vertices, dense products."""
    n = space.size
    m = space.character_order
    d = len(profile) - 1
    report = {}

    one = CycloInt.integer(m, 1)
    report["E0_is_J"] = all(profile[0][y] == one for y in range(n))
    sums_ok = True
    for y in range(n):
        acc = CycloInt.zero(m)
        for j in range(d + 1):
            acc = acc + profile[j][y]
        if acc != CycloInt.integer(m, n if y == 0 else 0):
            sums_ok = False
    report["sum_is_identity"] = sums_ok

    ok, _, witness = constancy_test(scheme.partition, profile)
    report["bose_mesner_membership"] = ok
    if not ok:
        report["bose_mesner_witness"] = witness

    # (N_i N_j)[0][b] = sum_c f_i(-c) f_j(c-b)
    prod_ok = True
    neg = [space.neg(c) for c in range(n)]
    for i in range(d + 1):
        fi = profile[i]
        for j in range(d + 1):
            fj = profile[j]
            for b in range(n):
                acc = CycloInt.zero(m)
                for c in range(n):
                    acc = acc + fi[neg[c]] * fj[space.sub(c, b)]
                want = (n * fi[neg[b]]) if i == j else CycloInt.zero(m)
                if acc != want:
                    prod_ok = False
    report["orthogonal_idempotents"] = prod_ok

    if n <= DENSE_IDEMPOTENT_BOUND:
        mats = idempotent_matrices(space, profile)
        dense_ok = True
        for i in range(d + 1):
            for j in range(d + 1):
                PQ = _cyclo_matmul(mats[i], mats[j])
                for a in range(n):
                    for b in range(n):
                        want = (n * mats[i][a][b]) if i == j \
                            else CycloInt.zero(m)
                        if PQ[a][b] != want:
                            dense_ok = False
        report["dense_products"] = dense_ok

    report["all_pass"] = all(v for k, v in report.items()
                             if isinstance(v, bool))
    return report


def sweep_sigma_permutation(space, dual_partition, profile, table):
    """sigma_permutation by applying N_i to the character <., x> of the
    first point x of each dual class j, point by point."""
    n = space.size
    m = space.character_order
    d = dual_partition.d
    sigma = [0] * (d + 1)
    for j in range(d + 1):
        x = dual_partition.classes[j][0]
        chi = [CycloInt.root_of_unity(m, table[b][x]) for b in range(n)]
        hits = []
        for i in range(d + 1):
            fi = profile[i]
            match_eigen = True
            match_zero = True
            for a in range(n):
                acc = CycloInt.zero(m)
                for b in range(n):
                    acc = acc + fi[space.sub(a, b)] * chi[b]
                if acc != n * chi[a]:
                    match_eigen = False
                if not acc.is_zero():
                    match_zero = False
                if not match_eigen and not match_zero:
                    break
            if match_eigen:
                hits.append(i)
            elif not match_zero:
                return None, False, ("nonzero non-eigen", i, j)
        if len(hits) != 1:
            return None, False, ("non-unique eigenspace", j, hits)
        sigma[j] = hits[0]
    if sorted(sigma) != list(range(d + 1)):
        return sigma, False, ("sigma not bijective", sigma)
    return sigma, True, None


def dual_action(genset, gens_Gc=None):
    """The action whose orbits duality_report takes as dual classes."""
    if gens_Gc is None and genset.poset is not None:
        partner = {"weak_hamming": "weak_hamming_dual",
                   "weak_hamming_dual": "weak_hamming"}[genset.family]
        return build_action(genset.space, partner, **genset.params)
    return genset if gens_Gc is None else gens_Gc


def sweep_certificate(gens_G, gens_Gc=None):
    """(idempotent detail, sigma, sigma witness) of the sweep oracles on
    the inputs duality_report builds."""
    space = gens_G.space
    part_G = orbits(gens_G)
    part_Gc = orbits(dual_action(gens_G, gens_Gc))
    table = pairing_table(space)
    profile = character_profile(space, part_Gc.classes, table)
    idem = sweep_verify_idempotents(space, TranslationScheme(space, part_G),
                                    profile)
    sigma, _, witness = sweep_sigma_permutation(space, part_Gc, profile,
                                                table)
    return idem, sigma, witness


def assert_matches_sweeps(cert, gens_G, gens_Gc=None):
    idem, sigma, witness = sweep_certificate(gens_G, gens_Gc)
    assert cert.checks["idempotent_detail"] == idem
    assert cert.sigma == sigma
    sigma_witnesses = [w["witness"] for w in cert.witnesses
                       if w["check"] == "sigma"]
    assert sigma_witnesses == ([] if witness is None else [witness])


def spectral_parts(space, part_G, part_Gc, table):
    """(profile, constancy_G result, spectrum P Q) as duality_report
    computes them; both constancy tests must pass."""
    profile_Q = character_profile(space, part_Gc.classes, table)
    constancy = constancy_test(part_G, profile_Q)
    profile_P = character_profile(space, part_G.classes, table)
    ok, P, _ = constancy_test(part_Gc, profile_P)
    assert constancy[0] and ok
    return profile_Q, constancy, _cyclo_matmul(P, constancy[1])


def ints(M):
    return [[c.as_rational_integer() for c in row] for row in M]


@pytest.fixture(scope="module")
def hamming22():
    sp = VectorSpace(2, FieldSpec(2))
    genset = build_action(sp, "hamming")
    part = orbits(genset)
    table = pairing_table(sp)
    profile = character_profile(sp, part.classes, table)
    return sp, genset, part, table, profile


def test_constancy_and_F_hamming22(hamming22):
    sp, genset, part, table, profile = hamming22
    ok, F, witness = constancy_test(part, profile)
    assert ok and witness is None
    assert ints(F) == [[1, 2, 1], [1, 0, -1], [1, -2, 1]]


def test_constancy_witness_on_split_class(hamming22):
    """Splitting the weight-1 class of H(2,2) breaks constancy."""
    sp, genset, part, table, profile = hamming22
    bad = OrbitPartition([0, 1, 2, 3], [[0], [1], [2], [3]])
    bad_profile = character_profile(sp, bad.classes, table)
    ok, F, witness = constancy_test(part, bad_profile)
    assert not ok
    i, j, y0, y1 = witness
    assert part.class_of[y0] == i == part.class_of[y1]


def test_weak_hamming_11_F_matrix():
    """Frozen: F = [[1,1,2],[1,1,-2],[1,-1,0]] against the dual poset."""
    sp = VectorSpace(2, FieldSpec(2))
    part = orbits(build_action(sp, "weak_hamming", levels=[1, 1]))
    dual = orbits(build_action(sp, "weak_hamming_dual", levels=[1, 1]))
    table = pairing_table(sp)
    profile = character_profile(sp, dual.classes, table)
    ok, F, _ = constancy_test(part, profile)
    assert ok
    assert ints(F) == [[1, 1, 2], [1, 1, -2], [1, -1, 0]]


def test_eigen_identities(hamming22):
    sp, genset, part, table, profile = hamming22
    _, F, _ = constancy_test(part, profile)
    rep = verify_eigen_identities(F, F, _cyclo_matmul(F, F), part.sizes,
                                  part.sizes, sp.size)
    assert rep["all_pass"]
    # corrupt one entry: identities must fail
    bad = [row[:] for row in F]
    bad[1][1] = CycloInt.integer(2, 5)
    rep = verify_eigen_identities(bad, F, _cyclo_matmul(bad, F), part.sizes,
                                  part.sizes, sp.size)
    assert not rep["all_pass"]


def test_idempotents_hamming22(hamming22):
    sp, genset, part, table, profile = hamming22
    sch = TranslationScheme(sp, part)
    _, constancy, spectrum = spectral_parts(sp, part, part, table)
    rep = verify_idempotents(sp, profile, constancy, spectrum)
    assert rep["all_pass"]
    assert rep["dense_products"]  # |X| = 4 is under the dense bound
    assert rep == sweep_verify_idempotents(sp, sch, profile)
    mats = idempotent_matrices(sp, profile)
    n = sp.size
    # N_0 = J and sum N_j = |X| I, directly on the dense matrices
    assert all(mats[0][a][b] == CycloInt.integer(2, 1)
               for a in range(n) for b in range(n))
    for a in range(n):
        for b in range(n):
            acc = CycloInt.zero(2)
            for j in range(part.d + 1):
                acc = acc + mats[j][a][b]
            assert acc == CycloInt.integer(2, n if a == b else 0)


def test_idempotents_fail_on_split_partition(hamming22):
    """Bose-Mesner membership fails when the dual partition is not dual.

    The spectrum depends on the dual classes only: lambda_i(x) sums f_i
    against a character, whatever partition f_i is constant on.  Here it is
    taken against the singleton partition, on which every profile is
    constant (and every class of F_2^2 negation-closed)."""
    sp, genset, part, table, profile = hamming22
    sch = TranslationScheme(sp, part)
    bad = OrbitPartition([0, 1, 2, 3], [[0], [1], [2], [3]])
    bad_profile = character_profile(sp, bad.classes, table)
    _, _, spectrum = spectral_parts(sp, bad, bad, table)
    rep = verify_idempotents(sp, bad_profile,
                             constancy_test(part, bad_profile), spectrum)
    assert not rep["bose_mesner_membership"]
    assert not rep["all_pass"]
    assert rep == sweep_verify_idempotents(sp, sch, bad_profile)
    assert sigma_permutation(spectrum, sp.size) == \
        sweep_sigma_permutation(sp, bad, bad_profile, table)


def test_sigma_identity(hamming22):
    sp, genset, part, table, profile = hamming22
    _, _, spectrum = spectral_parts(sp, part, part, table)
    sigma, ok, witness = sigma_permutation(spectrum, sp.size)
    assert ok and sigma == [0, 1, 2] and witness is None
    assert (sigma, ok, witness) == \
        sweep_sigma_permutation(sp, part, profile, table)


def test_sigma_witnesses():
    """Each failing shape of the spectrum yields the sweep's witness."""
    z, n = CycloInt.zero(2), CycloInt.integer(2, 4)
    one = CycloInt.integer(2, 1)
    assert sigma_permutation([[n, z], [z, one]], 4) == \
        (None, False, ("nonzero non-eigen", 1, 1))
    assert sigma_permutation([[n, n], [z, n]], 4) == \
        (None, False, ("non-unique eigenspace", 0, [0, 1]))
    assert sigma_permutation([[n, z], [n, z]], 4) == \
        ([0, 0], False, ("sigma not bijective", [0, 0]))


SHIPPED_SMALL = ["alternating4_f2", "bilinear22_f2", "central_z8",
                 "cyclotomic2_f5", "hamming2_f2", "hamming4_f3", "her2_f4",
                 "symmetric2_f3", "wh11_f2", "wh12_f2", "wh21_f2"]


@pytest.mark.parametrize("name", SHIPPED_SMALL)
def test_spectral_checks_match_sweeps(name):
    """Every shipped config with |X| <= 81: the spectral idempotent detail,
    sigma and sigma witness equal the point-level sweeps'."""
    with open(os.path.join(CONFIGS, name + ".json")) as fh:
        cfg = json.load(fh)
    space, genset = cli.load_action(cfg, 4096)
    assert space.size <= 81
    cert = duality_report(genset)
    if cert.Q is None:
        # condition (4) fails (symmetric(2)/F_3): no path reaches the
        # idempotents, the sweeps did not either
        assert not cert.checks["condition_4_G"]
        assert "idempotent_detail" not in cert.checks
        return
    assert_matches_sweeps(cert, genset)


def test_spectral_checks_match_sweeps_cross_pair():
    sp = VectorSpace(3, FieldSpec(2))
    gG = build_action(sp, "weak_hamming", levels=[2, 1])
    gD = build_action(sp, "weak_hamming_dual", levels=[2, 1])
    cert = duality_report(gG, gD)
    assert cert.passed and cert.mode == "cross"
    assert_matches_sweeps(cert, gG, gD)


def degenerate_space():
    """Z_3 x Z_3 with B = diag(1, 0): the point (0, 1) pairs trivially with
    everything."""
    return GramSpace([((3,), ((1,),)), ((3,), ((0,),))], 3)


def test_degenerate_pairing_fails_duality_report():
    sp = degenerate_space()
    genset = build_action(sp, "central")
    cert = duality_report(genset)
    assert not cert.passed
    idem = cert.checks["idempotent_detail"]
    assert not idem["orthogonal_idempotents"]
    assert idem["degenerate_witness"] == [0, 1]
    # the sweeps agree: orthogonality of the N_i needs nondegeneracy
    idem.pop("degenerate_witness")
    assert_matches_sweeps(cert, genset)


def test_gram_matrix_must_be_symmetric():
    with pytest.raises(UsageError):
        GramSpace([((3, 3), ((1, 1), (0, 1)))], 3)


def test_krein_equals_intersection_hamming22(hamming22):
    sp, genset, part, table, profile = hamming22
    _, F, _ = constancy_test(part, profile)
    krein, flags = krein_parameters(F, F, sp.size)
    assert flags["real"] and flags["nonnegative"]
    sch = TranslationScheme(sp, part)
    ok, witness = krein_equals_intersection(
        krein, sch.intersection_numbers())
    assert ok, witness
    # q_ij^0 = delta_ij m_i
    for i in range(part.d + 1):
        for j in range(part.d + 1):
            want = part.sizes[i] if i == j else 0
            assert krein[i][j][0] == CycloInt.integer(2, want)


def test_krein_sign_exact_for_integer_entries(monkeypatch):
    """Rational-integer q_ij^k get an exact sign; with d = 0 and |X| = 1
    the single Krein parameter is P[0][0].  Only irrational entries use
    the float bound."""
    m = 5
    one = CycloInt.integer(m, 1)
    monkeypatch.setattr(CycloInt, "approx", None)  # any float use fails
    for value, nonnegative in ((-1, False), (0, True), (1, True)):
        tensor, flags = krein_parameters([[CycloInt.integer(m, value)]],
                                         [[one]], 1)
        assert tensor == [[[CycloInt.integer(m, value)]]]
        assert flags["real"] and flags["nonnegative"] is nonnegative
        assert flags.get("worst_value") == (None if nonnegative else -1.0)
    monkeypatch.undo()
    z = lambda k: CycloInt.root_of_unity(m, k)
    _, flags = krein_parameters([[z(2) + z(3)]], [[one]], 1)  # -1.618...
    assert not flags["nonnegative"] and flags["worst_value"] < -1.6
    _, flags = krein_parameters([[z(1) + z(4)]], [[one]], 1)  # 0.618...
    assert flags["nonnegative"]


def test_cyclotomic_f5_Q_entries():
    """Frozen: Q[1][1] = z5 + z5^4, Q[1][2] = z5^2 + z5^3."""
    sp = VectorSpace(1, FieldSpec(5))
    cert = duality_report(build_action(sp, "cyclotomic", d=2))
    assert cert.passed
    z = lambda k: CycloInt.root_of_unity(5, k)
    assert cert.Q[1][1] == z(1) + z(4)
    assert cert.Q[1][2] == z(2) + z(3)
    assert cert.P == cert.Q


def test_duality_report_self_bilinear():
    sp = FullMatrixSpace(2, 2, FieldSpec(2))
    cert = duality_report(build_action(sp, "bilinear"))
    assert cert.passed and cert.mode == "self"
    assert cert.checks["P_equals_Q"]
    assert cert.checks["valencies_equal_multiplicities"]
    assert cert.sigma == [0, 1, 2]
    j = cert.to_json()
    assert j["pass"] and j["mode"] == "self"
    assert j["valencies"] == [1, 9, 6]


def test_duality_report_cross_weak_hamming():
    sp = VectorSpace(3, FieldSpec(2))
    gG = build_action(sp, "weak_hamming", levels=[2, 1])
    gD = build_action(sp, "weak_hamming_dual", levels=[2, 1])
    cert = duality_report(gG, gD)
    assert cert.passed and cert.mode == "cross"
    PQ = _cyclo_matmul(cert.P, cert.Q)
    n = sp.size
    for i in range(len(cert.Q)):
        for j in range(len(cert.Q)):
            assert PQ[i][j] == CycloInt.integer(2, n if i == j else 0)


def test_duality_report_failure_on_non_dual_pair():
    """weak_hamming(2,1) against itself is not a dual pair."""
    sp = VectorSpace(3, FieldSpec(2))
    gG = build_action(sp, "weak_hamming", levels=[2, 1])
    gG2 = build_action(sp, "weak_hamming", levels=[2, 1])
    cert = duality_report(gG, gG2)
    assert not cert.passed
    assert not cert.checks["constancy_G"]
    assert cert.witnesses  # carries the offending (i, j, y, y') quadruple


def test_condition_4_failure_reported_not_thrown():
    from scheme_forge.space import SymmetricMatrixSpace
    sp = SymmetricMatrixSpace(2, FieldSpec(3))
    cert = duality_report(build_action(sp, "symmetric"))
    assert not cert.passed
    assert cert.checks["condition_4_G"] is False
    assert cert.Q is None  # no certificate beyond the precondition report
