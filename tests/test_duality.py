"""Duality machinery: constancy, eigenmatrices, idempotents, Krein."""

import functools
import json
import math
import os
import random
import re
import tracemalloc

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scheme_forge import cli
from scheme_forge import cyclo, duality
from scheme_forge.cyclo import CycloInt, contract, conjugate_array, sliced
from scheme_forge.errors import UsageError, IntegrityError
from scheme_forge.gf import FieldSpec
from scheme_forge.space import (VectorSpace, FullMatrixSpace, GramSpace,
                                CyclicProductSpace)
from scheme_forge.action import (build_action, orbits, OrbitPartition,
                                 adjoint_map, verify_adjoint, AdjointMap,
                                 Generator, FAMILIES)
from scheme_forge.scheme import TranslationScheme, intersection_tensor
from scheme_forge.duality import (pairing_table, character_profile,
                                  constancy_test, verify_eigen_identities,
                                  verify_idempotents, sigma_permutation,
                                  krein_parameters, krein_equals_intersection,
                                  duality_report,
                                  KREIN_FLOAT_FLOOR, DENSE_IDEMPOTENT_BOUND)

from helpers import (all_digits, coeff_array, cyclo_entries, plain,
                     poset_partner)
from test_space import DEGENERATE_GRAMS, DEGENERATE_IDS
from test_cyclo import (as_rational_integer, divide_exact, is_real,
                        from_exponent_counts, full_width, unsliced_contract,
                        unsliced_conjugate)

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


# -- scalar CycloInt oracles ---------------------------------------------------
#
# Reference oracles for the coefficient-array contractions in duality.py:
# the same sums as loops of scalar CycloInt products.

def _cyclo_matmul(A, B):
    n, r, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for k in range(1, r):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


def spectrum(P, Q):
    """The product P Q of two matrices of CycloInt through
    cyclo.contract, as nested CycloInt."""
    m = Q[0][0].order
    PQ = contract("ik,kj->ij", sliced(coeff_array(P)), sliced(coeff_array(Q)),
                  m)
    return cyclo_entries(full_width(PQ, m), m)


def loop_eigen_identities(P, Q, PQ, valencies, multiplicities, size):
    """verify_eigen_identities with entrywise conjugates and a triple loop
    for row orthogonality."""
    d = len(Q) - 1
    m = Q[0][0].order
    report = {}
    report["PQ_is_nI"] = all(
        PQ[i][j] == CycloInt.integer(m, size if i == j else 0)
        for i in range(d + 1) for j in range(d + 1))
    one = CycloInt.integer(m, 1)
    report["Q_col0_ones"] = all(Q[i][0] == one for i in range(d + 1))
    report["Q_row0_multiplicities"] = all(
        Q[0][j] == CycloInt.integer(m, multiplicities[j]) for j in range(d + 1))
    report["P_row0_valencies"] = all(
        P[0][j] == CycloInt.integer(m, valencies[j]) for j in range(d + 1))
    report["entries_real"] = all(
        is_real(Q[i][j]) and is_real(P[i][j])
        for i in range(d + 1) for j in range(d + 1))
    ortho = True
    for j in range(d + 1):
        for j2 in range(d + 1):
            acc = CycloInt.zero(m)
            for i in range(d + 1):
                acc = acc + valencies[i] * (Q[i][j] * Q[i][j2].conjugate())
            want = size * multiplicities[j] if j == j2 else 0
            if acc != CycloInt.integer(m, want):
                ortho = False
    report["row_orthogonality"] = ortho
    report["all_pass"] = all(v for k, v in report.items() if k != "all_pass")
    return report


def loop_krein_parameters(P, Q, size):
    """krein_parameters as (d+1)^4 scalar products."""
    d = len(Q) - 1
    m = Q[0][0].order
    tensor = [[[None] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    real_ok = True
    nonneg_ok = True
    worst = 0.0
    for i in range(d + 1):
        for j in range(d + 1):
            for k in range(d + 1):
                acc = CycloInt.zero(m)
                for l in range(d + 1):
                    acc = acc + P[k][l] * Q[l][i] * Q[l][j]
                q = divide_exact(acc, size)
                tensor[i][j][k] = q
                if not is_real(q):
                    real_ok = False
                low = as_rational_integer(q)
                if low is not None:  # a rational integer: exact sign
                    negative = low < 0
                else:
                    val, err = q.approx()
                    low = val.real - err
                    negative = low < KREIN_FLOAT_FLOOR
                if negative:
                    nonneg_ok = False
                    worst = min(worst, float(low))
    flags = {"real": real_ok, "nonnegative": nonneg_ok}
    if not nonneg_ok:
        flags["worst_value"] = worst
    return tensor, flags


def assert_contractions_match_loops(P, Q, size, valencies, multiplicities):
    """The spectrum, eigen_detail and Krein tensor and flags (floats
    included) of the array contractions of the CycloInt matrices P and Q
    equal the loop oracles'; returns the oracles' (eigen_detail,
    (tensor, flags))."""
    m = Q[0][0].order
    PQ = _cyclo_matmul(P, Q)
    assert spectrum(P, Q) == PQ
    Pa, Qa = sliced(coeff_array(P)), sliced(coeff_array(Q))
    PQa = contract("ik,kj->ij", Pa, Qa, m)
    eigen = loop_eigen_identities(P, Q, PQ, valencies, multiplicities, size)
    assert verify_eigen_identities(Pa, Qa, PQa, valencies, multiplicities,
                                   size, m) == eigen
    krein = loop_krein_parameters(P, Q, size)
    tensor, flags = krein_parameters(Pa, Qa, size, m)
    assert (cyclo_entries(full_width(tensor, m), m), flags) == krein
    return eigen, krein


# -- point-level sweep oracles ------------------------------------------------
#
# Reference oracles for the spectral checks in duality.py: O(d^2 |X|^2)
# products in Z[zeta_m] that multiply the scaled idempotents and apply them
# to characters point by point, with no appeal to the spectrum.  Their
# character profile is nested CycloInt, one list per dual class,
# profile[j][y] = f_j(y).

def cyclo_profile(space, profile):
    """The point-major coefficient-array profile of character_profile,
    as the oracles' nested CycloInt profile[j][y]."""
    return cyclo_entries(profile.transpose(1, 0, 2), space.character_order)


def loop_character_profile(space, dual_classes, table):
    """The oracles' profile[j][y] from whole columns of the table, one
    CycloInt exponent histogram per (dual class, point)."""
    m = space.character_order
    return [[from_exponent_counts(m, np.bincount(table[cls, y], minlength=m))
             for y in range(space.size)] for cls in dual_classes]


def loop_constancy_test(partition_G, profile):
    """constancy_test as a loop over the CycloInt profile: returns
    (ok, F, witness), F[i][j] the common value of f_j on X_i, the witness
    (i, j, y0, y) the first f_j(y) != f_j(y0) in the order j, i, y."""
    d = partition_G.d
    F = [[None] * len(profile) for _ in range(d + 1)]
    for j, f in enumerate(profile):
        for i, cls in enumerate(partition_G.classes):
            y0 = cls[0]
            v0 = f[y0]
            for y in cls[1:]:
                if f[y] != v0:
                    return False, None, (i, j, y0, y)
            F[i][j] = v0
    return True, F, None


def assert_constancy_matches_loop(space, partition_G, profile):
    """constancy_test on the array profile equals the loop oracle on the
    CycloInt one (F as CycloInt); returns constancy_test's result."""
    ok, F, witness = result = constancy_test(partition_G, profile)
    want_ok, want_F, want_witness = loop_constancy_test(
        partition_G, cyclo_profile(space, profile))
    assert (ok, witness) == (want_ok, want_witness)
    if ok:
        assert cyclo_entries(F, space.character_order) == want_F
    return result

def differences(space):
    """diff[a][b] = a - b as nested lists, from one array call."""
    points = np.arange(space.size)
    return space.sub(points[:, None], points).tolist()


def idempotent_matrices(space, profile):
    """The scaled idempotents |X|*E_j as dense CycloInt matrices,
    entry (a, b) = f_j(a - b)."""
    n = space.size
    diff = differences(space)
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

    ok, _, witness = loop_constancy_test(scheme.partition, profile)
    report["bose_mesner_membership"] = ok
    if not ok:
        report["bose_mesner_witness"] = witness

    # (N_i N_j)[0][b] = sum_c f_i(-c) f_j(c-b)
    prod_ok = True
    diff = differences(space)
    neg = diff[0]
    for i in range(d + 1):
        fi = profile[i]
        for j in range(d + 1):
            fj = profile[j]
            for b in range(n):
                acc = CycloInt.zero(m)
                for c in range(n):
                    acc = acc + fi[neg[c]] * fj[diff[c][b]]
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
    diff = differences(space)
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
                    acc = acc + fi[diff[a][b]] * chi[b]
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
        return poset_partner(genset)
    return genset if gens_Gc is None else gens_Gc


def sweep_certificate(gens_G, gens_Gc=None):
    """(idempotent detail, sigma, sigma witness) of the sweep oracles on
    the inputs duality_report builds."""
    space = gens_G.space
    part_G = orbits(gens_G)
    part_Gc = orbits(dual_action(gens_G, gens_Gc))
    table = pairing_table(space)
    profile = cyclo_profile(space, character_profile(
        space, part_Gc, np.arange(space.size)))
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


def spectral_parts(space, part_G, part_Gc):
    """(profile, constancy_G result, spectrum P Q) as duality_report
    computes them, as coefficient arrays; both constancy tests must
    pass."""
    points = np.arange(space.size)
    profile_Q = character_profile(space, part_Gc, points)
    constancy = constancy_test(part_G, profile_Q)
    profile_P = character_profile(space, part_G, points)
    ok, P, _ = constancy_test(part_Gc, profile_P)
    assert constancy[0] and ok
    return profile_Q, constancy, contract(
        "ik,kj->ij", sliced(P), sliced(constancy[1]),
        space.character_order)[0]


def ints(F):
    """A coefficient array of rational integers as nested int lists."""
    assert not F[..., 1:].any()
    return F[..., 0].tolist()


@pytest.fixture(scope="module")
def hamming22():
    sp = VectorSpace(2, FieldSpec(2))
    genset = build_action(sp, "hamming")
    part = orbits(genset)
    table = pairing_table(sp)
    profile = character_profile(sp, part, np.arange(sp.size))
    return sp, genset, part, table, profile


def test_constancy_and_F_hamming22(hamming22):
    sp, genset, part, table, profile = hamming22
    ok, F, witness = assert_constancy_matches_loop(sp, part, profile)
    assert ok and witness is None
    assert ints(F) == [[1, 2, 1], [1, 0, -1], [1, -2, 1]]


@pytest.mark.parametrize("block_rows", [1, 3, 128])
@pytest.mark.parametrize("name", ["hamming4_f3", "cyclotomic2_f5", "her2_f4",
                                  "central_z8", "wh21_f2"])
def test_character_profile_matches_loop(name, block_rows, monkeypatch):
    """The blocked exponent histograms of every point, reduced by one
    matrix, equal one CycloInt per (point, dual class) from whole columns
    of the pairing table, whatever the block size (BLOCK_CELLS set to
    that many points' cells); the profile of some points, repeats
    included, is the profile's rows at those points."""
    with open(os.path.join(CONFIGS, name + ".json")) as fh:
        space, genset = cli.load_action(json.load(fh), 4096)
    dual = orbits(genset)
    monkeypatch.setattr(duality, "BLOCK_CELLS", block_rows * max(
        space.size, len(dual.classes) * space.character_order))
    profile = character_profile(space, dual, np.arange(space.size))
    assert profile.shape == (space.size, len(dual.classes),
                             len(CycloInt.zero(space.character_order).coeffs))
    assert cyclo_profile(space, profile) == \
        loop_character_profile(space, dual.classes, pairing_table(space))
    points = np.array([0, space.size - 1, 1, space.size - 1])
    assert np.array_equal(character_profile(space, dual, points),
                          profile[points])


@pytest.mark.parametrize("rows_per_block", [0, 1, 3])
@pytest.mark.parametrize("name", ["hamming4_f3", "central_z8", "wh21_f2"])
def test_character_profile_blocks_hold_the_cell_bound(name, rows_per_block,
                                                      monkeypatch):
    """With BLOCK_CELLS set to that many points' cells, the larger of
    |X| (a pairing row) and (d + 1) m (its histograms), or 0 (fewer than
    one point, which still takes one point per block), every block of
    character_profile holds at most that many points, at least one: one
    pairing_rows call and one bincount each, and the profile equals the
    one-block profile."""
    with open(os.path.join(CONFIGS, name + ".json")) as fh:
        space, genset = cli.load_action(json.load(fh), 4096)
    dual = orbits(genset)
    points = np.arange(space.size)
    want = character_profile(space, dual, points)
    hist_cells = len(dual.classes) * space.character_order
    monkeypatch.setattr(duality, "BLOCK_CELLS",
                        rows_per_block * max(space.size, hist_cells))
    cells, rows = [], []
    real, real_rows = np.bincount, duality.pairing_rows

    def counted(keys, minlength):
        cells.append(minlength)
        return real(keys, minlength=minlength)

    def counted_rows(space, block):
        rows.append(len(block))
        return real_rows(space, block)

    monkeypatch.setattr(np, "bincount", counted)
    monkeypatch.setattr(duality, "pairing_rows", counted_rows)
    got = character_profile(space, dual, points)
    monkeypatch.undo()
    assert np.array_equal(got, want)
    step = max(rows_per_block, 1)
    assert len(cells) == len(rows) == -(-space.size // step)
    assert max(rows) == step and sum(rows) == space.size
    assert max(cells) == step * hist_cells


@pytest.mark.parametrize("seed", range(12))
def test_constancy_witness_matches_loop(seed):
    """Random profiles constant on random classes, with a few entries
    changed: constancy_test reports the loop's verdict, F and first
    witness (i, j, y0, y).  Seeds 0-11 give 5 passes and 7 failures."""
    rng = random.Random(seed)
    n = 12
    sp = CyclicProductSpace((n,))  # m = 12, phi(m) = 4
    points = list(range(1, n))
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, n - 1), 3))
    classes = [[0]] + [sorted(points[a:b]) for a, b in
                       zip([0] + cuts, cuts + [n - 1])]
    class_of = [0] * n
    for i, cls in enumerate(classes):
        for y in cls:
            class_of[y] = i
    part = OrbitPartition(class_of, classes)
    values = np.array([[[rng.randint(-2, 2) for _ in range(4)]
                        for _ in classes] for _ in range(3)])
    profile = values[:, class_of].transpose(1, 0, 2).copy()
    for _ in range(rng.randint(0, 3)):
        j, y, c = rng.randrange(3), rng.randrange(n), rng.randrange(4)
        profile[y, j, c] += 1
    assert_constancy_matches_loop(sp, part, profile)


def test_constancy_witness_on_split_class(hamming22):
    """Splitting the weight-1 class of H(2,2) breaks constancy."""
    sp, genset, part, table, profile = hamming22
    bad = OrbitPartition([0, 1, 2, 3], [[0], [1], [2], [3]])
    bad_profile = character_profile(sp, bad, np.arange(sp.size))
    ok, F, witness = assert_constancy_matches_loop(sp, part, bad_profile)
    assert not ok
    i, j, y0, y1 = witness
    assert part.class_of[y0] == i == part.class_of[y1]


def test_weak_hamming_11_F_matrix():
    """Frozen: F = [[1,1,2],[1,1,-2],[1,-1,0]] against the dual poset."""
    sp = VectorSpace(2, FieldSpec(2))
    part = orbits(build_action(sp, "weak_hamming", levels=[1, 1]))
    dual = orbits(build_action(sp, "weak_hamming_dual", levels=[1, 1]))
    profile = character_profile(sp, dual, np.arange(sp.size))
    ok, F, _ = assert_constancy_matches_loop(sp, part, profile)
    assert ok
    assert ints(F) == [[1, 1, 2], [1, 1, -2], [1, -1, 0]]


def test_eigen_identities(hamming22):
    sp, genset, part, table, profile = hamming22
    _, F, _ = constancy_test(part, profile)
    F = sliced(F)
    rep = verify_eigen_identities(F, F, contract("ik,kj->ij", F, F, 2),
                                  part.sizes, part.sizes, sp.size, 2)
    assert rep["all_pass"]
    # corrupt one entry: identities must fail
    bad = F[0].copy(), F[1]
    bad[0][1, 1] = [5]
    rep = verify_eigen_identities(bad, F, contract("ik,kj->ij", bad, F, 2),
                                  part.sizes, part.sizes, sp.size, 2)
    assert not rep["all_pass"]


def idempotents(space, part, Q, spectrum):
    """verify_idempotents as duality_report runs it: E0_is_J is the
    Q_col0_ones verdict of verify_eigen_identities on the same Q (given
    as P too; Q_col0_ones reads Q only)."""
    m = space.character_order
    eigen = verify_eigen_identities(Q, Q, contract("ik,kj->ij", Q, Q, m),
                                    part.sizes, part.sizes, space.size, m)
    return verify_idempotents(space, Q, spectrum, eigen["Q_col0_ones"])


def test_idempotents_hamming22(hamming22):
    sp, genset, part, table, profile = hamming22
    sch = TranslationScheme(sp, part)
    _, constancy, spectrum = spectral_parts(sp, part, part)
    rep = idempotents(sp, part, sliced(constancy[1]), spectrum)
    assert rep["all_pass"]
    assert rep["dense_products"]  # |X| = 4 is under the dense bound
    assert rep == sweep_verify_idempotents(sp, sch, cyclo_profile(sp, profile))
    mats = idempotent_matrices(sp, cyclo_profile(sp, profile))
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
    # f_0 raised by 1 on the class X_1, in Q and on every point of X_1 in
    # the profile: N_0 != J and the sums miss |X| I, in both readings
    F = constancy[1]
    bad_Q = F.copy()
    bad_Q[1, 0] += 1
    bad_profile = profile.copy()
    bad_profile[part.classes[1], 0] += 1
    bad_spectrum = contract("ik,kj->ij", sliced(F), sliced(bad_Q), 2)[0]
    rep = idempotents(sp, part, sliced(bad_Q), bad_spectrum)
    assert not (rep["E0_is_J"] or rep["sum_is_identity"])
    assert rep == sweep_verify_idempotents(sp, sch,
                                           cyclo_profile(sp, bad_profile))


def test_idempotents_fail_on_split_partition(hamming22):
    """Bose-Mesner membership fails when the dual partition is not dual:
    the constancy test that guards verify_idempotents in the pipeline
    fails, as the sweep oracle's membership check does.

    The spectrum depends on the dual classes only: lambda_i(x) sums f_i
    against a character, whatever partition f_i is constant on.  Here it is
    taken against the singleton partition, on which every profile is
    constant (and every class of F_2^2 negation-closed)."""
    sp, genset, part, table, profile = hamming22
    sch = TranslationScheme(sp, part)
    bad = OrbitPartition([0, 1, 2, 3], [[0], [1], [2], [3]])
    bad_profile = character_profile(sp, bad, np.arange(sp.size))
    _, _, spectrum = spectral_parts(sp, bad, bad)
    ok, _, witness = constancy_test(part, bad_profile)
    bad_profile = cyclo_profile(sp, bad_profile)
    sweep = sweep_verify_idempotents(sp, sch, bad_profile)
    assert not ok and not sweep["bose_mesner_membership"]
    assert witness == sweep["bose_mesner_witness"]
    assert not sweep["all_pass"]
    assert sigma_permutation(spectrum, sp.size) == \
        sweep_sigma_permutation(sp, bad, bad_profile, table)


def test_sigma_identity(hamming22):
    sp, genset, part, table, profile = hamming22
    _, _, spectrum = spectral_parts(sp, part, part)
    sigma, ok, witness = sigma_permutation(spectrum, sp.size)
    assert ok and sigma == [0, 1, 2] and witness is None
    assert (sigma, ok, witness) == \
        sweep_sigma_permutation(sp, part, cyclo_profile(sp, profile), table)


def test_sigma_witnesses():
    """Each failing shape of the spectrum yields the sweep's witness, the
    first failing row deciding."""
    z, n = CycloInt.zero(5), CycloInt.integer(5, 4)
    one, w = CycloInt.integer(5, 1), CycloInt.root_of_unity(5, 1)

    def sigma(rows):
        return sigma_permutation(coeff_array(rows), 4)
    assert sigma([[n, z], [z, one]]) == \
        (None, False, ("nonzero non-eigen", 1, 1))
    assert sigma([[n, z], [w, n]]) == \
        (None, False, ("nonzero non-eigen", 0, 1))
    assert sigma([[n, n], [z, n]]) == \
        (None, False, ("non-unique eigenspace", 0, [0, 1]))
    assert sigma([[n, n], [w, z]]) == \
        (None, False, ("non-unique eigenspace", 0, [0, 1]))
    assert sigma([[z, z], [n, z]]) == \
        (None, False, ("non-unique eigenspace", 0, []))
    assert sigma([[n, z], [n, z]]) == \
        ([0, 0], False, ("sigma not bijective", [0, 0]))
    assert sigma([[z, n], [n, z]]) == ([1, 0], True, None)


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


def test_duality_report_needs_one_space():
    """The two actions must act on one space, compared as built: Z_4 and
    F_2^2 have the same size but are different spaces."""
    with pytest.raises(UsageError, match="must share the vertex space"):
        duality_report(build_action(CyclicProductSpace((4,)), "central"),
                       build_action(VectorSpace(2, FieldSpec(2)), "hamming"))


def test_equal_spaces_give_the_shared_space_certificate():
    """Actions on two equal but distinct space objects give the
    certificate of the same actions on one shared space object."""
    sp, other = VectorSpace(3, FieldSpec(2)), VectorSpace(3, FieldSpec(2))
    gG = build_action(sp, "weak_hamming", levels=[2, 1])
    shared = duality_report(gG, build_action(sp, "weak_hamming_dual",
                                             levels=[2, 1]))
    apart = duality_report(gG, build_action(other, "weak_hamming_dual",
                                            levels=[2, 1]))
    assert shared.passed and plain(apart.to_json()) == plain(shared.to_json())


def degenerate_space():
    """Z_3 x Z_3 with B = diag(1, 0): the point (0, 1) pairs trivially with
    everything."""
    return GramSpace([((3,), ((1,),)), ((3,), ((0,),))], 3)


def degenerate_Q():
    """(space, central action, Q) on degenerate_space(): Q the nested
    CycloInt of the exhaustive oracle's F, which finds every f_j constant
    on each class though no adjoint exists."""
    sp = degenerate_space()
    genset = build_action(sp, "central")
    part = orbits(genset)
    ok, F, _ = exhaustive_F(sp, part, part)
    assert ok
    return sp, genset, cyclo_entries(F, sp.character_order)


def test_degenerate_pairing_fails_duality_report():
    """A degenerate pairing has no adjoint, the adjoint lemma's premise:
    the adjoint key and constancy_G fail with the least degenerate
    point, and the pipeline stops there, though the exhaustive oracle
    would find constancy.  On that oracle's Q, sigma and its witness are
    the sweeps'."""
    sp, genset, Q = degenerate_Q()
    cert = duality_report(genset)
    want = ("degenerate pairing", [0, 1])
    assert not cert.passed and cert.Q is None
    assert cert.checks["adjoint"] is False
    assert cert.checks["constancy_G"] is False
    assert cert.witnesses == [{"check": "adjoint", "witness": want},
                              {"check": "constancy_G", "witness": want}]
    assert "idempotent_detail" not in cert.checks
    Qa = sliced(coeff_array(Q))
    PQ = contract("ik,kj->ij", Qa, Qa, sp.character_order)
    _, sigma, witness = sweep_certificate(genset)
    got_sigma, _, got_witness = sigma_permutation(PQ[0], sp.size)
    assert (got_sigma, got_witness) == (sigma, witness)


@pytest.mark.parametrize("blocks, m, witness", DEGENERATE_GRAMS,
                         ids=DEGENERATE_IDS)
def test_degenerate_pairing_reads_off_no_adjoint(blocks, m, witness,
                                                 monkeypatch):
    """On a degenerate Gram matrix psi is no permutation, and the space
    reads off no adjoint: adjoint_images gives None, never a gather
    through a hole of psi^-1.  For a custom action (x -> -x),
    adjoint_map gives no images and verify_adjoint the verdict False and
    the least degenerate point, in coordinates, as does a hand-built
    adjoint map of the true adjoint, -x, which passes every basis pair;
    duality_report fails the adjoint key and constancy_G with that
    witness and computes no character profile."""
    space = GramSpace(blocks, m)
    assert space.adjoint_images(space.basis) is None
    genset = build_action(space, "custom", generators=[
        space.neg(np.arange(space.size)).tolist()])
    want = ("degenerate pairing", space.serialize_point(witness))
    adjoint = adjoint_map(genset)
    assert adjoint.images is None
    assert verify_adjoint(adjoint) == (False, want)
    assert verify_adjoint(AdjointMap(genset, genset.generators)) == (
        False, want)
    monkeypatch.setattr(duality, "character_profile", None)
    cert = duality_report(genset)
    assert cert.checks["adjoint"] is False and not cert.passed
    assert cert.witnesses == [{"check": "adjoint", "witness": want},
                              {"check": "constancy_G", "witness": want}]


def test_gram_matrix_must_be_symmetric():
    with pytest.raises(UsageError):
        GramSpace([((3, 3), ((1, 1), (0, 1)))], 3)


def test_krein_equals_intersection_hamming22(hamming22):
    sp, genset, part, table, profile = hamming22
    _, F, _ = constancy_test(part, profile)
    krein, flags = krein_parameters(sliced(F), sliced(F), sp.size, 2)
    assert flags["real"] and flags["nonnegative"]
    sch = TranslationScheme(sp, part)
    ok, witness = krein_equals_intersection(
        krein, sch.intersection_numbers())
    assert ok, witness
    # q_ij^0 = delta_ij m_i
    for i in range(part.d + 1):
        for j in range(part.d + 1):
            want = part.sizes[i] if i == j else 0
            assert full_width(krein, 2)[i, j, 0].tolist() == [want]


def test_krein_sign_exact_for_integer_entries(monkeypatch):
    """Rational-integer q_ij^k get an exact sign; with d = 0 and |X| = 1
    the single Krein parameter is P[0][0].  Only irrational entries use
    the float bound."""
    m = 5
    one = CycloInt.integer(m, 1)
    monkeypatch.setattr(CycloInt, "approx", None)  # any float use fails
    for value, nonnegative in ((-1, False), (0, True), (1, True)):
        tensor, flags = krein_parameters(
            sliced(coeff_array([[CycloInt.integer(m, value)]])),
            sliced(coeff_array([[one]])), 1, m)
        assert cyclo_entries(full_width(tensor, m), m) == \
            [[[CycloInt.integer(m, value)]]]
        assert flags["real"] and flags["nonnegative"] is nonnegative
        assert flags.get("worst_value") == (None if nonnegative else -1.0)
    monkeypatch.undo()
    z = lambda k: CycloInt.root_of_unity(m, k)
    Q = sliced(coeff_array([[one]]))
    _, flags = krein_parameters(sliced(coeff_array([[z(2) + z(3)]])), Q, 1,
                                m)  # -1.618...
    assert not flags["nonnegative"] and flags["worst_value"] < -1.6
    _, flags = krein_parameters(sliced(coeff_array([[z(1) + z(4)]])), Q, 1,
                                m)  # 0.618...
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


# -- coefficient-array contractions against the loop oracles -----------------

SHIPPED = sorted(f[:-5] for f in os.listdir(CONFIGS) if f.endswith(".json"))


def assert_certificate_matches_loops(cert):
    if cert.Q is None:
        # condition (4) fails (symmetric(2)/F_3): no eigenmatrices
        assert not cert.checks["condition_4_G"]
        return
    eigen, krein = assert_contractions_match_loops(
        cert.P, cert.Q, cert.space.size, cert.valencies, cert.multiplicities)
    assert cert.checks["eigen_detail"] == eigen
    m = cert.space.character_order
    assert (cyclo_entries(full_width(cert.krein, m), m),
            cert.krein_flags) == krein


@pytest.mark.parametrize("name", SHIPPED)
def test_contractions_match_loops(name):
    """Every shipped config: spectrum, eigen_detail, Krein tensor and flags
    equal the scalar loops'."""
    with open(os.path.join(CONFIGS, name + ".json")) as fh:
        cfg = json.load(fh)
    _, genset = cli.load_action(cfg, 4096)
    assert_certificate_matches_loops(duality_report(genset))


CROSS_PAIR = "cross wh21_f2 wh12_f2"


@pytest.mark.parametrize("name", SHIPPED + [CROSS_PAIR])
def test_eigenmatrices_hold_one_cycloint_per_value(name):
    """cert.P and cert.Q, on every shipped config and the cross pair, equal
    the nested CycloInt of the full-width F that constancy_test gives on
    the character profiles, and every entry of a value, in P or Q, is one
    shared CycloInt object."""
    configs = name.split()[1:] if name == CROSS_PAIR else [name]
    space, genset = None, []
    for config in configs:
        with open(os.path.join(CONFIGS, config + ".json")) as fh:
            cfg = json.load(fh)
        if space is None:
            space, gens = cli.load_action(cfg, 4096)
        else:
            gens = cli.action_from_config(space, cfg["action"])
        genset.append(gens)
    cert = duality_report(*genset)
    if cert.Q is None:
        assert not cert.checks["condition_4_G"]
        return
    m = space.character_order
    part_G, part_Gc = orbits(genset[0]), orbits(dual_action(*genset))
    for M, part, dual in ((cert.Q, part_G, part_Gc),
                          (cert.P, part_Gc, part_G)):
        profile = character_profile(space, dual, np.arange(space.size))
        ok, F, _ = constancy_test(part, profile)
        assert ok and M == cyclo_entries(F, m)
    objects = {}
    for c in (c for M in (cert.P, cert.Q) for row in M for c in row):
        objects.setdefault(c, set()).add(id(c))
    assert all(len(ids) == 1 for ids in objects.values())


def distinct_case(kind, m):
    """Support-width arrays over Z[zeta_m] for distinct_elements: random
    rows, with repeats, drawn from a small pool, whose columns differ
    between the arrays."""
    rng = np.random.default_rng([m, len(kind)])
    n = cyclo.euler_phi(m)
    if kind == "one row":
        return [sliced(np.array([[-3] + [0] * (n - 2) + [5]]))]
    if kind == "all equal":
        return [sliced(np.full((4, 3, n), -2)), sliced(np.full((2, n), -2))]
    if kind == "small":
        pool = rng.integers(-4, 4, size=(9, n), endpoint=True)
    elif kind == "spans past 2^63":
        # every column spans about 2^40: their product passes 2^63
        pool = rng.integers(-2 ** 39, 2 ** 39, size=(9, n))
    elif kind == "object rows":
        # Python integers past 2^63, with negative ones
        pool = rng.integers(-9, 9, size=(9, n), endpoint=True).astype(object)
        pool *= 2 ** 70
        pool += rng.integers(-3, 3, size=(9, n))
    else:
        # "object rows, narrow spans": every entry near 2^70, so the
        # spans, with no zero, multiply to less than 2^63
        pool = 2 ** 70 + rng.integers(-3, 3, size=(9, n)).astype(object)
    narrow = kind.endswith("narrow spans")
    if not narrow:
        pool[rng.integers(0, 9, size=n), np.arange(n)] = 0
    arrays = []
    for shape, zero in (((3, 4), [1]), ((5,), []), ((2, 2, 3), [0, n - 1])):
        A = pool[rng.integers(0, 9, size=shape)]
        A[..., [] if narrow else zero] = 0
        arrays.append(sliced(A))
    return arrays


DISTINCT_KINDS = ["small", "spans past 2^63", "object rows",
                  "object rows, narrow spans", "one row", "all equal"]


@pytest.mark.parametrize("m", [5, 8, 12])
@pytest.mark.parametrize("kind", DISTINCT_KINDS)
def test_distinct_elements_match_a_row_dict_oracle(kind, m):
    """Against a dict keyed by each entry's full-width coefficient tuple:
    two codes, in one array or two, are equal exactly when their rows
    are, each code's element is its row widened to phi(m), and the
    elements come sorted by their coefficients read from the last."""
    arrays = distinct_case(kind, m)
    elements, codes = duality.distinct_elements(arrays, m)
    oracle = {}
    rows = [tuple(row) for X in arrays
            for row in full_width(X, m).reshape(-1, cyclo.euler_phi(m))
            .tolist()]
    flat = np.concatenate([c.ravel() for c in codes]).tolist()
    assert [c.shape for c in codes] == [A.shape[:-1] for A, _ in arrays]
    for row, code in zip(rows, flat):
        assert oracle.setdefault(row, code) == code
        assert elements[code] == CycloInt(m, row, reduce=False)
    assert len(set(oracle.values())) == len(oracle) == len(elements)
    order = [tuple(reversed(e.coeffs)) for e in elements]
    assert order == sorted(order)
    assert all(type(c) is int for e in elements for c in e.coeffs)


@pytest.mark.parametrize("kind", DISTINCT_KINDS)
def test_distinct_elements_in_blocks_match_one_block(kind, monkeypatch):
    """With BLOCK_CELLS at 7, so that each array is keyed in blocks of
    one to three entries along its first axis, and its transposed view
    (not contiguous), the elements and codes are those of one block."""
    arrays = distinct_case(kind, 12)
    arrays += [(A.swapaxes(0, 1), k) for A, k in arrays if A.ndim > 2]
    whole = duality.distinct_elements(arrays, 12)
    monkeypatch.setattr(duality, "BLOCK_CELLS", 7)
    elements, codes = duality.distinct_elements(arrays, 12)
    assert elements.tolist() == whole[0].tolist()
    assert all(np.array_equal(a, b) for a, b in zip(codes, whole[1]))


def test_distinct_elements_allocate_the_codes_and_blocks_only():
    """A Krein-like 128^3 tensor one coefficient wide, as a transposed
    view, with a small Q: the allocations of distinct_elements peak below
    twice the tensor's codes (16 MB).  The rows are keyed in place, a
    block at a time, with no copy of the tensor, whole or of its keys."""
    rng = np.random.default_rng(7)
    T = rng.integers(-3, 3, size=(128, 128, 128, 1)).transpose(2, 1, 0, 3)
    Q = rng.integers(-3, 3, size=(128, 128, 2))
    tracemalloc.start()
    try:
        elements, codes = duality.distinct_elements(
            [(Q, np.array([0, 3])), (T, np.array([0]))], 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes[1].shape == T.shape[:-1] and len(elements) <= 36
    assert peak < 2 * codes[1].nbytes


@pytest.mark.parametrize("name", ["hamming4_f3", "cyclotomic2_f5",
                                  "her2_f4", "wh21_f2"])
def test_one_distinct_table_per_duality_report(name, monkeypatch):
    """duality_report groups distinct values once, over Q, P and the Krein
    tensor together, and to_json codes all three into that one table:
    the three coded arrays share one value list, every cell of a value,
    in Q, P or krein, is one shared dict object, and some value sits in
    all three.  With no second action P is Q, so Q's rows are grouped
    once, with the Krein tensor's, and P takes Q's codes; a weak-Hamming
    P comes from the dual-poset partner, an array of its own."""
    calls = []
    real = duality.distinct_elements

    def counted(arrays, m):
        calls.append(len(arrays))
        return real(arrays, m)

    monkeypatch.setattr(duality, "distinct_elements", counted)
    with open(os.path.join(CONFIGS, name + ".json")) as fh:
        _, genset = cli.load_action(json.load(fh), 4096)
    cert = duality_report(genset)
    grouped = [3] if genset.poset is not None else [2]
    assert cert.passed and calls == grouped
    assert (cert.codes[1] is cert.codes[0]) == (grouped == [2])
    j = cert.to_json()
    assert calls == grouped
    assert j["Q"].values is j["P"].values is j["krein"].values
    ids, places = {}, {}
    for key in ("Q", "P", "krein"):
        for cell in np.array(j[key].tolist(), dtype=object).ravel():
            text = json.dumps(cell, sort_keys=True)
            ids.setdefault(text, set()).add(id(cell))
            places.setdefault(text, set()).add(key)
    assert all(len(group) == 1 for group in ids.values())
    assert {"Q", "P", "krein"} in places.values()


PERFBENCH_CONFIGS = os.path.join(CONFIGS, os.pardir, "perfbench", "configs")
TEST_CONFIGS = os.path.join(os.path.dirname(__file__), "configs")


def load_actions(names):
    """The actions of the configs `names`, all on the first one's space: a
    shipped config, "perfbench/<config>" or "tests/<config>" (of
    tests/configs); a name "custom:<config>" gives that config's action
    as a custom action of the same point permutations."""
    space, gensets = None, []
    for name in names:
        custom = name.startswith("custom:")
        name = name.split(":")[-1]
        folder = {"perfbench": PERFBENCH_CONFIGS, "tests": TEST_CONFIGS}.get(
            name.split("/")[0], CONFIGS)
        with open(os.path.join(folder, name.split("/")[-1] + ".json")) as fh:
            cfg = json.load(fh)
        if space is None:
            space = cli.load_action(cfg, 4096)[0]
        genset = cli.action_from_config(space, cfg["action"])
        if custom:
            genset = build_action(space, "custom", generators=[
                g.perm.tolist() for g in genset.generators])
        gensets.append(genset)
    return space, gensets


def counted_constancy_tests(monkeypatch):
    """The partitions that duality.constancy_test, the exhaustive test,
    is run on from here on."""
    calls = []
    real = duality.constancy_test

    def counted(part, profile):
        calls.append(part)
        return real(part, profile)

    monkeypatch.setattr(duality, "constancy_test", counted)
    return calls


@pytest.mark.parametrize("names, tests", [
    (("hamming4_f3",), 0),
    (("wh11_f2",), 0),
    (("wh21_f2", "wh12_f2"), 0),
    (("wh12_f2", "wh21_f2"), 0),
    (("custom:hamming4_f3",), 0),
    (("custom:wh21_f2", "custom:wh12_f2"), 0),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v))
def test_constancy_is_tested_once_per_distinct_test(names, tests,
                                                    monkeypatch):
    """Actions prove constancy by the adjoint lemma and run no
    exhaustive test: with no second action (hamming4_f3), for the
    weak-Hamming dual poset (wh11) and for the cross pair in both orders,
    built-in or custom (adjoints read off the pairing).  Either way both
    keys are filled, in their order.  (test_converse_of_the_adjoint_lemma
    checks the lemma's verdict against the exhaustive test.)"""
    calls = counted_constancy_tests(monkeypatch)
    _, gensets = load_actions(names)
    cert = duality_report(*gensets)
    assert cert.passed and len(calls) == tests
    keys = [key for key in cert.checks if key.startswith("constancy_")]
    assert keys == ["constancy_G", "constancy_G_check"]
    assert cert.checks["constancy_G"] is cert.checks["constancy_G_check"]


@pytest.mark.parametrize("names, rows", [
    (("hamming4_f3",), [5]),
    (("wh21_f2", "wh12_f2"), [4, 4]),
    (("custom:hamming4_f3",), [5]),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v))
def test_every_eigenmatrix_comes_from_character_profile(names, rows,
                                                        monkeypatch):
    """duality_report reads Q, and P when it is not Q, off
    character_profile, once per eigenmatrix: an action with no second
    action, built-in or custom, makes one call, on the d + 1 class
    representatives; the cross pair makes two.  (The lemma's failed
    verdict makes none: test_failed_premise_fails_constancy_with_the_
    lemma_witness, as does an adjoint that fails verify_adjoint:
    test_adjoint_failing_verification_is_no_premise.)"""
    calls = []
    real = duality.character_profile

    def recorded(space, dual, points):
        profile = real(space, dual, points)
        calls.append((len(points), profile))
        return profile

    monkeypatch.setattr(duality, "character_profile", recorded)
    space, gensets = load_actions(names)
    cert = duality_report(*gensets)
    assert cert.passed and [n for n, _ in calls] == rows
    parts = (orbits(gensets[0]), orbits(dual_action(*gensets)))
    for (n, profile), M, part in zip(calls, (cert.Q, cert.P), parts):
        reps = [cls[0] for cls in part.classes]
        F = profile if n == len(reps) else profile[reps]
        assert M == cyclo_entries(F, space.character_order)


def exhaustive_F(space, part, dual):
    """constancy_test's (ok, F, witness) on the character profile of the
    dual classes at every point of X."""
    return constancy_test(part, character_profile(space, dual,
                                                  np.arange(space.size)))


LEMMA_CASES = [(name,) for name in SHIPPED] + [
    ("perfbench/" + f[:-5],) for f in sorted(os.listdir(PERFBENCH_CONFIGS))
    if f.endswith(".json")] + [("wh21_f2", "wh12_f2"), ("wh12_f2", "wh21_f2")]


@pytest.mark.parametrize("names", LEMMA_CASES, ids="-".join)
def test_lemma_eigenmatrices_match_exhaustive_test(names):
    """On every shipped and perfbench config and the cross pair in both
    orders, the premise of the adjoint lemma holds for each side's action
    against the other's classes, and the lemma's Q and P, the character
    profile of the representatives alone, equal the F of the exhaustive
    constancy test of the profile of every point."""
    space, gensets = load_actions(names)
    gens_G, gens_Gc = gensets[0], dual_action(*gensets)
    part_G, part_Gc = orbits(gens_G), orbits(gens_Gc)
    for gens, part, dual in ((gens_G, part_G, part_Gc),
                             (gens_Gc, part_Gc, part_G)):
        adjoint = adjoint_map(gens)
        assert verify_adjoint(adjoint) == (True, None)
        assert duality.keeps_classes(adjoint, dual) is None
        ok, F, _ = exhaustive_F(space, part, dual)
        reps = [cls[0] for cls in part.classes]
        assert ok and np.array_equal(character_profile(space, dual, reps), F)


@pytest.mark.parametrize("names", LEMMA_CASES, ids="-".join)
def test_bannai_ito_intersection_numbers_match_the_tensor(names):
    """Bannai-Ito's p_ij^k = (1/(|X| k_k)) sum_l m_l P_li P_lj conj(P_lk),
    contracted over Z[zeta_m] from the certified P (rows the dual
    classes, columns the classes of G), equals intersection_tensor on
    every shipped and perfbench config and the cross pair.  A config with
    no certified P (classes not closed under negation) has condition (4)
    failing instead."""
    space, gensets = load_actions(names)
    cert = duality_report(*gensets)
    if cert.P is None:
        assert not cert.checks["condition_4_G"]
        return
    m = space.character_order
    P = sliced(coeff_array(cert.P))
    weighted = contract("l,li->li", cyclo.integer_array(cert.multiplicities),
                        P, m)
    products = contract("li,lj->lij", weighted, P, m)
    T, _ = contract("lij,lk->ijk", products, conjugate_array(P, m), m)
    tensor = intersection_tensor(space, orbits(gensets[0]), False)
    assert cyclo.equals_integers(
        T, space.size * np.array(cert.valencies) * tensor).all()


def random_automorphism(draw, space):
    """A random additive automorphism phi of X, as an index array: a
    composition of elementary maps on the digits, each additive and
    invertible: a unit times digit k, t d_l(x) added to digit k (t r_l =
    0 mod r_k, k != l), a swap of two digits of one radix."""
    D = all_digits(space)
    radices = space.radices
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["scale", "shear", "swap"]))
        k, l = (draw(st.integers(0, len(radices) - 1)) for _ in range(2))
        r = radices[k]
        if kind == "scale":
            D[:, k] = D[:, k] * draw(st.sampled_from(
                [u for u in range(1, r) if math.gcd(u, r) == 1])) % r
        elif kind == "shear" and k != l:
            t = draw(st.integers(1, r)) * (r // math.gcd(r, radices[l]))
            D[:, k] = (D[:, k] + t * D[:, l]) % r
        elif kind == "swap" and r == radices[l]:
            D[:, [k, l]] = D[:, [l, k]]
    return D @ space.place


def table_adjoint(space, phi):
    """iota(phi) from the whole pairing table, the oracle of the adjoint
    read off the pairing: iota(phi)(x) is the point z whose column of
    the table, y -> <y, z>, is y -> <phi(y), x>."""
    columns = np.ascontiguousarray(pairing_table(space).T)
    point = {row.tobytes(): z for z, row in enumerate(columns)}
    return np.array([point[columns[x][phi].tobytes()]
                     for x in range(space.size)])


def inverse_of(perm):
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    return inverse


def coded(cert, key):
    """The array `key` of a certificate's JSON as an object array of the
    JSON dicts of its entries."""
    return np.array(plain(cert.to_json())[key], dtype=object)


METAMORPHIC_CASES = [(name,) for name in SHIPPED] + [
    ("perfbench/" + f[:-5],) for f in sorted(os.listdir(PERFBENCH_CONFIGS))
    if f.endswith(".json")]


@settings(max_examples=20, deadline=None, database=None)
@given(st.data())
def test_conjugated_custom_actions_give_the_same_certificate(data):
    """Relabelling X by a random additive automorphism phi changes no
    scheme.  A shipped or perfbench action G, conjugated to phi G phi^-1
    and passed as a custom action, with its dual action H conjugated to
    psi^-1 H psi, psi = iota(phi) (so that the characters of the dual
    classes psi^-1(Y_j) are those of Y_j, moved by phi), gives the
    valencies, multiplicities, P, Q and Krein tensor of the certificate
    of G, with class i of G relabelled to the class of phi(X_i) and dual
    class j to that of psi^-1(Y_j).  Its adjoints, read off the pairing,
    keep the moved classes, so it runs no exhaustive test."""
    names = data.draw(st.sampled_from(METAMORPHIC_CASES), label="config")
    space, (genset,) = load_actions(names)
    phi = random_automorphism(data.draw, space)
    psi = table_adjoint(space, phi)
    phi_inv, psi_inv = inverse_of(phi), inverse_of(psi)
    dual = dual_action(genset)
    moved = build_action(space, "custom", generators=[
        phi[g.perm[phi_inv]].tolist() for g in genset.generators])
    moved_dual = build_action(space, "custom", generators=[
        psi_inv[h.perm[psi]].tolist() for h in dual.generators])
    want = duality_report(genset)

    def refuse(part, profile):
        raise AssertionError("constancy_test called")

    with mock.patch.object(duality, "constancy_test", refuse):
        got = duality_report(moved, moved_dual)
    assert got.passed == want.passed
    if want.P is None:
        assert not got.checks["condition_4_G"]
        return
    assert got.checks["adjoint"] is True
    parts = [orbits(gens) for gens in (genset, dual, moved, moved_dual)]
    pi = parts[2].class_of[phi[[cls[0] for cls in parts[0].classes]]]
    sigma = parts[3].class_of[psi_inv[[cls[0] for cls in parts[1].classes]]]
    assert [got.valencies[i] for i in pi] == want.valencies
    assert [got.multiplicities[j] for j in sigma] == want.multiplicities
    assert (coded(got, "Q")[np.ix_(pi, sigma)] == coded(want, "Q")).all()
    assert (coded(got, "P")[np.ix_(sigma, pi)] == coded(want, "P")).all()
    assert (coded(got, "krein")[np.ix_(sigma, sigma, sigma)]
            == coded(want, "krein")).all()


def test_failed_premise_fails_constancy_with_the_lemma_witness(
        monkeypatch):
    """weak_hamming(2, 1) against itself is not a dual pair: its adjoints
    are verified but do not keep its own classes, so constancy_G fails
    with keeps_classes' witness, and no exhaustive test runs.  A verified
    adjoint with one image that moves a point out of a dual class is a
    premise that the converse takes at its word: that image's witness
    fails constancy_G, though the exhaustive test would pass."""
    calls = counted_constancy_tests(monkeypatch)
    space, (gens, again) = load_actions(("wh21_f2", "wh21_f2"))
    adjoint = adjoint_map(gens)
    assert verify_adjoint(adjoint) == (True, None)
    witness = duality.keeps_classes(adjoint, orbits(again))
    assert witness is not None
    assert not exhaustive_F(space, orbits(gens), orbits(again))[0]
    cert = duality_report(gens, again)
    assert not calls and not cert.checks["constancy_G"]
    assert cert.witnesses == [{"check": "constancy_G", "witness": witness}]
    assert cert.Q is None

    space, (genset,) = load_actions(("hamming4_f3",))
    part = orbits(genset)
    assert exhaustive_F(space, part, part)[0]
    real = duality.adjoint_map
    a, b = 1, int(np.flatnonzero(part.class_of != part.class_of[1])[1])

    def moved(gens):
        """The adjoint map with its first image followed by a swap of
        the points a and b, of different classes."""
        adjoint = real(gens)
        perm = adjoint.images[0].perm.copy()
        perm[[a, b]] = perm[[b, a]]
        adjoint.images[0] = Generator("moved", perm, {})
        return adjoint

    monkeypatch.setattr(duality, "adjoint_map", moved)
    monkeypatch.setattr(duality, "verify_adjoint", lambda adj: (True, None))
    cert = duality_report(genset)
    perm = moved(genset).images[0].perm
    x = min(y for y in range(space.size)
            if part.class_of[perm[y]] != part.class_of[y])
    assert not calls and not cert.checks["constancy_G"]
    assert cert.witnesses == [{"check": "constancy_G", "witness": (
        "moved", int(part.class_of[x]), space.serialize_point(x),
        space.serialize_point(perm[x]))}]


@pytest.mark.parametrize("names", [("hamming4_f3",),
                                   ("wh21_f2", "wh12_f2")], ids="-".join)
def test_adjoint_failing_verification_is_no_premise(names, monkeypatch):
    """An adjoint map whose first image is the identity keeps every class
    and is a permutation, but fails verify_adjoint, so it is no premise,
    though the exhaustive oracle finds constancy.  On the last action's
    side (G's with no second action, else the second action's) the
    constancy key fails with verify_adjoint's witness and the pipeline
    stops; the adjoint key is G's own verdict."""
    real = duality.adjoint_map
    space, gensets = load_actions(names)

    def identity_first(gens):
        adjoint = real(gens)
        if gens is gensets[-1]:
            adjoint.images[0] = Generator(
                "identity", np.arange(gens.space.size), {})
        return adjoint

    monkeypatch.setattr(duality, "adjoint_map", identity_first)
    verdict, witness = verify_adjoint(identity_first(gensets[-1]))
    assert verdict is False
    key = "constancy_G" if len(names) == 1 else "constancy_G_check"
    assert exhaustive_F(space, orbits(gensets[-1]), orbits(gensets[0]))[0]
    cert = duality_report(*gensets)
    assert cert.checks["adjoint"] is (len(names) > 1) and not cert.passed
    assert cert.checks[key] is False and cert.Q is None
    assert cert.witnesses[-1] == {"check": key, "witness": witness}
    assert len(cert.witnesses) == (2 if len(names) == 1 else 1)


class DualPartitionBuilt(Exception):
    """Cuts duality_report short once its second partition is built."""


def self_dual_partition(genset):
    """(partner, partition): the generator set whose orbits
    duality_report takes as the dual partition of `genset` in self mode,
    and those orbits, the argument and the result of its second orbits
    call; the report stops there."""
    calls = []
    real = duality.orbits

    def spy(gens):
        calls.append((gens, real(gens)))
        if len(calls) == 2:
            raise DualPartitionBuilt
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(duality, "orbits", spy)
        with pytest.raises(DualPartitionBuilt):
            duality_report(genset)
    return calls[1]


def compositions(n):
    """Every list of positive integers that sums to n."""
    if n == 0:
        return [[]]
    return [[k] + rest for k in range(1, n + 1)
            for rest in compositions(n - k)]


@pytest.mark.parametrize("p, e, lam", [(2, 1, 1), (2, 2, 1), (3, 1, 1),
                                       (3, 1, 2), (5, 1, 1), (5, 1, 2)])
def test_partner_orbits_match_the_dual_family(p, e, lam):
    """On both weak-Hamming families over every level vector of F_q^n,
    n <= 4, for q = 2, 3, 4, 5 and the multipliers 1 and 2 where 2 is a
    unit (the shipped weak-Hamming configs among them), the self-mode
    partner is the adjoint images, and its orbits are, label for label,
    those of the family on the dual poset built by name
    (helpers.poset_partner)."""
    for n in range(1, 5):
        space = VectorSpace(n, FieldSpec(p, e), lambda_multiplier=lam)
        for levels in compositions(n):
            for family in ("weak_hamming", "weak_hamming_dual"):
                genset = build_action(space, family, levels=levels)
                partner, part = self_dual_partition(genset)
                assert [g.perm.tolist() for g in partner.generators] == [
                    ig.perm.tolist() for ig in adjoint_map(genset).images]
                assert np.array_equal(part.class_of,
                                      orbits(poset_partner(genset)).class_of)


@pytest.mark.parametrize("name", ["wh11_f2", "wh12_f2", "wh21_f2"])
def test_weak_hamming_self_dual_reads_one_adjoint_map(name, monkeypatch):
    """A weak-Hamming dual in self mode builds no second action and reads
    one adjoint map, G's: the partner's generators are its images, and
    their adjoints are G's generators."""
    _, (genset,) = load_actions((name,))
    adjoints, builds = [], []
    real = duality.adjoint_map

    def counted_adjoint(gens):
        adjoints.append(gens)
        return real(gens)

    def counted_build(build):
        def counted(space, family, params):
            builds.append(family)
            return build(space, family, params)
        return counted

    monkeypatch.setattr(duality, "adjoint_map", counted_adjoint)
    for family, (build, required, optional) in list(FAMILIES.items()):
        monkeypatch.setitem(FAMILIES, family,
                            (counted_build(build), required, optional))
    cert = duality_report(genset)
    assert cert.passed and adjoints == [genset] and builds == []


def test_partner_premise_needs_the_verified_adjoint(monkeypatch):
    """The partner's adjoints, G's generators, are a premise only through
    G's verified identity, which is verified once: a weak-Hamming self
    dual calls verify_adjoint on G's adjoint map alone, and with it
    failing, the adjoint key and constancy_G fail with its witness and
    the pipeline stops before the partner's key."""
    verified = []

    def forced(adjoint):
        verified.append(adjoint.source)
        return False, ("forced", [0], [0])

    _, (genset,) = load_actions(("wh21_f2",))
    monkeypatch.setattr(duality, "verify_adjoint", forced)
    cert = duality_report(genset)
    assert verified == [genset]
    assert cert.checks["adjoint"] is False and not cert.passed
    assert cert.checks["constancy_G"] is False
    assert "constancy_G_check" not in cert.checks
    assert cert.witnesses[-1] == {"check": "constancy_G",
                                  "witness": ("forced", [0], [0])}


def test_keeps_classes_needs_permutations_that_keep_every_class(
        monkeypatch):
    """keeps_classes gives None for the adjoint map of hamming(4)/F_3
    against its classes, and for an image that moves points to another
    class the witness of the least, in coordinates.  An image that keeps
    each class but is no permutation (every point to the least point of
    its class) fails verify_adjoint, as a verified adjoint is a
    permutation (duality module docstring): the adjoint key and
    constancy_G fail with its witness, which names that image."""
    space, (genset,) = load_actions(("hamming4_f3",))
    part = orbits(genset)
    adjoint = adjoint_map(genset)
    assert duality.keeps_classes(adjoint, part) is None
    outside = (adjoint.images[0].perm + 1) % space.size
    moved = np.flatnonzero(part.class_of[outside] != part.class_of)
    x = int(moved[0])
    assert duality.keeps_classes(AdjointMap(genset, [
        Generator("bad", outside, {})] + adjoint.images[1:]), part) == (
        "bad", int(part.class_of[x]), space.serialize_point(x),
        space.serialize_point(outside[x]))

    least = np.array([cls[0] for cls in part.classes])[part.class_of]
    real = duality.adjoint_map

    def collapsed(gens):
        adjoint = real(gens)
        adjoint.images[0] = Generator("least", least, {})
        return adjoint

    assert duality.keeps_classes(collapsed(genset), part) is None
    ok, witness = verify_adjoint(collapsed(genset))
    assert not ok and witness[0] == "least"
    monkeypatch.setattr(duality, "adjoint_map", collapsed)
    cert = duality_report(genset)
    assert not cert.passed and cert.Q is None
    assert cert.witnesses == [{"check": "adjoint", "witness": witness},
                              {"check": "constancy_G", "witness": witness}]


def assert_lemma_decides(space, adjoint, part, dual):
    """The converse of the adjoint lemma (duality module docstring): for
    a verified adjoint of the action of `part`, keeps_classes gives None
    against the partition `dual` exactly when the exhaustive test finds
    every f_j constant on each class of `part`; its witness's x lies in
    Y_j and the image's iota(g) x does not."""
    witness = duality.keeps_classes(adjoint, dual)
    assert (witness is None) == exhaustive_F(space, part, dual)[0]
    if witness is not None:
        name, j, x, image = witness
        x, image = space.index_of(x), space.index_of(image)
        (ig,) = [ig for ig in adjoint.images if ig.name == name]
        assert ig.perm[x] == image
        assert dual.class_of[x] == j != dual.class_of[image]


@functools.cache
def space_text(name):
    """The JSON of the space that config `name` builds (load_actions)."""
    return json.dumps(load_actions((name,))[0].to_config(), sort_keys=True)


CONVERSE_ACTIONS = [name for (name,) in METAMORPHIC_CASES] + [
    "tests/" + f[:-5] for f in sorted(os.listdir(TEST_CONFIGS))]


@pytest.mark.parametrize("name", CONVERSE_ACTIONS)
def test_converse_of_the_adjoint_lemma(name):
    """The adjoint lemma decides constancy both ways on every shipped,
    perfbench and tests/configs action: against its own orbits, the
    orbits of every other of these actions on an equal space, and its
    poset partner's (assert_lemma_decides)."""
    others = [other for other in CONVERSE_ACTIONS if other != name
              and space_text(other) == space_text(name)]
    space, (genset, *rest) = load_actions([name] + others)
    adjoint = adjoint_map(genset)
    assert verify_adjoint(adjoint) == (True, None)
    part = orbits(genset)
    partner = [poset_partner(genset)] if genset.poset is not None else []
    for dual in [genset] + rest + partner:
        assert_lemma_decides(space, adjoint, part, orbits(dual))


CONVERSE_SPACES = [
    lambda: CyclicProductSpace((2, 4)),
    lambda: CyclicProductSpace((4, 6), lambda_multiplier=5),
    lambda: CyclicProductSpace((3, 9)),
    lambda: CyclicProductSpace((2, 2, 4)),
    lambda: VectorSpace(2, FieldSpec(3), lambda_multiplier=2),
    lambda: VectorSpace(2, FieldSpec(5), lambda_multiplier=3),
]


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_converse_of_the_adjoint_lemma_on_random_automorphisms(data):
    """The adjoint lemma decides constancy both ways for custom actions
    G and H of random additive automorphisms (random_automorphism) on
    mixed-radix cyclic products and field spaces with lambda != 1: H
    random, G itself, G's adjoint images, or those and random maps
    (assert_lemma_decides).  Every image of G's and of H's adjoint map,
    which pass verify_adjoint, is a permutation of X, the premise's own
    consequence (duality module docstring)."""
    space = data.draw(st.sampled_from(CONVERSE_SPACES), label="space")()

    def maps(label):
        return [random_automorphism(data.draw, space) for _ in
                range(data.draw(st.integers(1, 3), label=label))]

    genset = build_action(space, "custom", generators=[
        phi.tolist() for phi in maps("G")])
    adjoint = adjoint_map(genset)
    assert verify_adjoint(adjoint) == (True, None)
    kind = data.draw(st.sampled_from(
        ["random", "G", "adjoints", "adjoints and random"]), label="H")
    images = [ig.perm for ig in adjoint.images]
    H = {"random": [], "G": [g.perm for g in genset.generators],
         "adjoints": images, "adjoints and random": images}[kind]
    if kind.endswith("random"):
        H = H + maps("H")
    dual = build_action(space, "custom", generators=[h.tolist() for h in H])
    assert_lemma_decides(space, adjoint, orbits(genset), orbits(dual))
    adjoint_H = adjoint_map(dual)
    assert verify_adjoint(adjoint_H) == (True, None)
    for ig in adjoint.images + adjoint_H.images:
        assert np.array_equal(np.sort(ig.perm), np.arange(space.size))


@settings(max_examples=20, deadline=None, database=None)
@given(st.data())
def test_no_adjoint_map_is_a_premise_on_a_degenerate_pairing(data):
    """On degenerate_space() any hand-built adjoint map of a custom
    action of x -> -x and random additive automorphisms (classes closed
    under negation), its images the generators themselves or random
    automorphisms, fails verify_adjoint with the least degenerate point;
    dual fails the adjoint key and constancy_G with that witness and
    profiles no point."""
    space = degenerate_space()
    G = [space.neg(np.arange(space.size))] + [
        random_automorphism(data.draw, space)
        for _ in range(data.draw(st.integers(0, 2), label="G"))]
    genset = build_action(space, "custom", generators=[g.tolist() for g in G])
    own = data.draw(st.booleans(), label="own images")
    images = [Generator("adj_%d" % k, g if own else
                        random_automorphism(data.draw, space), {}, True)
              for k, g in enumerate(G)]
    adjoint = AdjointMap(genset, images)
    want = ("degenerate pairing", [0, 1])
    assert verify_adjoint(adjoint) == (False, want)
    with mock.patch.object(duality, "adjoint_map", lambda gens: adjoint), \
            mock.patch.object(duality, "character_profile", None):
        cert = duality_report(genset)
    assert cert.checks["adjoint"] is False and not cert.passed
    assert cert.witnesses == [{"check": "adjoint", "witness": want},
                              {"check": "constancy_G", "witness": want}]


@pytest.mark.parametrize("names, one", [
    (("hamming4_f3",), True),
    (("central_z8",), True),
    (("wh11_f2",), False),
    (("wh21_f2", "wh12_f2"), False),
])
def test_self_mode_P_is_Q(names, one, monkeypatch):
    """With no second action, P and Q are one array, which
    verify_eigen_identities conjugates once for entries_real; the dual
    poset of wh11 and a cross pair have two.  The report and the P_equals_Q
    key are those of two copies of the array."""
    seen = []
    real = duality.verify_eigen_identities

    def recorded(P, Q, *rest):
        conjugated = []

        def counted(A, m):
            conjugated.append(A)
            return conjugate_array(A, m)

        monkeypatch.setattr(duality, "conjugate_array", counted)
        report = real(P, Q, *rest)
        monkeypatch.setattr(duality, "conjugate_array", conjugate_array)
        copy = (P[0].copy(), P[1].copy())
        assert report == real(copy, Q, *rest)
        seen.append((P is Q, len(conjugated)))
        return report

    monkeypatch.setattr(duality, "verify_eigen_identities", recorded)
    configs = []
    for name in names:
        with open(os.path.join(CONFIGS, name + ".json")) as fh:
            configs.append(json.load(fh))
    space, genset = cli.load_action(configs[0], 4096)
    cert = duality_report(genset, *(cli.action_from_config(space, c["action"])
                                    for c in configs[1:]))
    assert cert.passed
    assert seen == [(one, 1 if one else 2)]
    assert cert.checks.get("P_equals_Q", True)


def test_contractions_match_loops_cross_and_degenerate():
    sp = VectorSpace(3, FieldSpec(2))
    assert_certificate_matches_loops(duality_report(
        build_action(sp, "weak_hamming", levels=[2, 1]),
        build_action(sp, "weak_hamming_dual", levels=[2, 1])))
    # PQ != |X| I and failed row orthogonality, on the exhaustive
    # oracle's Q of a degenerate pairing, where dual stops at constancy
    sp, genset, Q = degenerate_Q()
    sizes = orbits(genset).sizes
    eigen, _ = assert_contractions_match_loops(Q, Q, sp.size, sizes, sizes)
    assert not eigen["PQ_is_nI"] and not eigen["row_orthogonality"]


def random_cyclo(rng, m, real, bound=3):
    x = CycloInt(m, [rng.randint(-bound, bound) for _ in range(m)])
    return x + x.conjugate() if real else x


@pytest.mark.parametrize("m,real", [(5, True), (5, False), (8, True),
                                    (12, False)])
def test_contractions_match_loops_irrational(m, real):
    """Scheme eigenmatrices give rational-integer Krein parameters (they
    are dual intersection numbers), so irrational entries, complex entries
    and the float sign bound are exercised on random P and Q; P is scaled
    by |X| = 3 so the division is exact."""
    rng = random.Random(m)
    d = 3
    Q = [[random_cyclo(rng, m, real) for _ in range(d + 1)]
         for _ in range(d + 1)]
    P = [[3 * random_cyclo(rng, m, real) for _ in range(d + 1)]
         for _ in range(d + 1)]
    valencies = [rng.randint(1, 9) for _ in range(d + 1)]
    multiplicities = [rng.randint(1, 9) for _ in range(d + 1)]
    _, (tensor, flags) = assert_contractions_match_loops(
        P, Q, 3, valencies, multiplicities)
    assert any(as_rational_integer(q) is None
               for plane in tensor for row in plane for q in row)
    assert flags["real"] is real
    assert not flags["nonnegative"] and flags["worst_value"] < 0


def test_krein_parameters_names_the_first_sum_not_divisible():
    """For each size, krein_parameters divides every Krein sum exactly or
    raises IntegrityError naming the first (i, j, k), in row-major order,
    whose sum the size does not divide: checked against the scalar sums
    of random complex P and Q over Z[zeta_12], whose coefficients are of
    both signs.  P is 6 times a random matrix but for P[2][1], and Q[1][0]
    is a multiple of 6, so 2, 3 and 6 divide every sum but some with k = 2
    and i, j >= 1."""
    rng = random.Random(12)
    m, d = 12, 3
    Q = [[random_cyclo(rng, m, False) for _ in range(d + 1)]
         for _ in range(d + 1)]
    P = [[6 * random_cyclo(rng, m, False) for _ in range(d + 1)]
         for _ in range(d + 1)]
    P[2][1] = P[2][1] + CycloInt.integer(m, 1)
    Q[1][0] = 6 * Q[1][0]
    sums, _ = loop_krein_parameters(P, Q, 1)
    Pa, Qa = sliced(coeff_array(P)), sliced(coeff_array(Q))
    outcomes = set()
    for size in range(1, 13):
        bad = [(i, j, k) for i in range(d + 1) for j in range(d + 1)
               for k in range(d + 1)
               if any(c % size for c in sums[i][j][k].coeffs)]
        if not bad:
            tensor, flags = krein_parameters(Pa, Qa, size, m)
            assert (cyclo_entries(full_width(tensor, m), m), flags) == \
                loop_krein_parameters(P, Q, size)
        else:
            with pytest.raises(IntegrityError) as exc:
                krein_parameters(Pa, Qa, size, m)
            assert str(exc.value) == (
                "Krein parameter q_ij^k at (i, j, k) = %s: sum not "
                "divisible by |X| = %d" % (bad[0], size))
        outcomes.add(bad[0] if bad else None)
    assert outcomes == {None, (0, 0, 0), (1, 1, 2)}


# -- support-width arrays against the full-width einsum ------------------------

def full_width_oracle(P, Q, valencies, size, m):
    """From the full-width coefficient arrays P and Q, through the
    unsliced einsum over all phi(m) coefficients: P Q, the Gram matrix
    of row orthogonality, the Krein sums before the division by |X|, and
    the Krein tensor with its `real` flag, or, when |X| does not divide
    every sum, the (i, j, k) of the first that it does not."""
    einsum = functools.partial(unsliced_contract, m=m, dtype=np.float64)
    weights = np.zeros(Q.shape[1:], dtype=np.int64)
    weights[:, 0] = valencies
    gram = einsum("ij,ik->jk", einsum("i,ij->ij", weights, Q),
                  unsliced_conjugate(Q, m, dtype=np.float64))
    sums = einsum("kl,lij->ijk", P, einsum("li,lj->lij", Q, Q))
    inexact = np.argwhere((sums % size != 0).any(axis=-1))
    if len(inexact):
        return einsum("ik,kj->ij", P, Q), gram, tuple(inexact[0]), None
    krein = sums // size
    real = np.array_equal(unsliced_conjugate(krein, m, dtype=np.float64),
                          krein)
    return einsum("ik,kj->ij", P, Q), gram, krein, real


def assert_support_width_matches_full_width(P, Q, valencies,
                                            multiplicities, size, m):
    """P Q, row orthogonality, the Krein tensor, its `real` flag and the
    integrity failure of an |X| + 1 that divides no sum, computed on
    support-width arrays, equal the full-width oracle's; returns the
    widths of P and Q."""
    Ps, Qs = sliced(P), sliced(Q)
    PQ, gram, krein, real = full_width_oracle(P, Q, valencies, size, m)
    PQs = contract("ik,kj->ij", Ps, Qs, m)
    assert np.array_equal(full_width(PQs, m), PQ)
    weighted = contract("i,ij->ij", cyclo.integer_array(valencies), Qs, m)
    grams = contract("ij,ik->jk", weighted, conjugate_array(Qs, m), m)
    assert np.array_equal(full_width(grams, m), gram)
    want = np.zeros_like(gram)
    want[..., 0] = np.diag([size * k for k in multiplicities])
    eigen = verify_eigen_identities(Ps, Qs, PQs, valencies, multiplicities,
                                    size, m)
    assert eigen["row_orthogonality"] is np.array_equal(gram, want)
    tensor, flags = krein_parameters(Ps, Qs, size, m)
    assert np.array_equal(full_width(tensor, m), krein)
    assert flags["real"] is real
    _, _, first, _ = full_width_oracle(P, Q, valencies, size + 1, m)
    with pytest.raises(IntegrityError, match=re.escape(
            "(i, j, k) = %s:" % (tuple(map(int, first)),))):
        krein_parameters(Ps, Qs, size + 1, m)
    return Ps[0].shape[-1], Qs[0].shape[-1]


def central_16x20():
    return build_action(CyclicProductSpace((16, 20)), "central"), None


def config_actions(*names):
    def actions():
        return tuple(cli.load_action(cli.read_config(os.path.join(
            CONFIGS, name + ".json")), 4096)[1] for name in names)
    return actions


SUPPORT_CASES = dict(
    [(name, config_actions(name)) for name in SHIPPED
     if name != "symmetric2_f3"]
    + [("wh21_f2 x wh12_f2", config_actions("wh21_f2", "wh12_f2")),
       ("wh12_f2 x wh21_f2", config_actions("wh12_f2", "wh21_f2")),
       ("central Z16 x Z20", central_16x20)])


@pytest.mark.parametrize("case", SUPPORT_CASES)
def test_support_width_matches_full_width(case):
    """Every shipped config with eigenmatrices (symmetric(2)/F_3 fails
    condition (4) first), both weak-Hamming cross orders and central
    Z16 x Z20 (phi(m) = 32, one column): the support-width computation
    equals the full-width einsum.  cyclotomic(2)/F_5 and symmetric(2)/F_5
    carry three of the four columns of Z[zeta_5]; her(2)/F_4 pairs into
    Z[zeta_2], one column."""
    actions = SUPPORT_CASES[case]()
    cert = duality_report(*actions)
    assert cert.passed
    m = cert.space.character_order
    widths = assert_support_width_matches_full_width(
        coeff_array(cert.P), coeff_array(cert.Q), cert.valencies,
        cert.multiplicities, cert.space.size, m)
    wide = {"cyclotomic2_f5": (3, 3), "symmetric2_f5": (3, 3)}
    assert widths == wide.get(case, (1, 1))


@pytest.mark.parametrize("m", [5, 12])
def test_support_width_matches_full_width_complex(m):
    """Random complex P and Q (P scaled by |X| = 3): a `real` flag that
    is false, irrational Krein parameters, and the integrity failure
    with |X| = 4."""
    rng = random.Random(m)
    Q = [[random_cyclo(rng, m, False) for _ in range(4)] for _ in range(4)]
    P = [[3 * random_cyclo(rng, m, False) for _ in range(4)]
         for _ in range(4)]
    Pa, Qa = coeff_array(P), coeff_array(Q)
    _, _, krein, real = full_width_oracle(Pa, Qa, [1, 2, 3, 4], 3, m)
    assert real is False and krein[..., 1:].any()
    assert assert_support_width_matches_full_width(
        Pa, Qa, [1, 2, 3, 4], [4, 3, 2, 1], 3, m) > (1, 1)


def test_contract_object_branch_is_exact():
    """Coefficients near 2^40 put the proven bound past 2^63: the
    contraction runs on Python integers and equals the scalar oracle,
    whose coefficients int64 could not hold."""
    m = 5
    rng = random.Random(40)

    def big():
        coeffs = [rng.choice((1, -1)) * rng.randint(2 ** 39, 2 ** 40)
                  for _ in range(4)]
        return CycloInt(m, tuple(coeffs), reduce=False)

    P = [[big() for _ in range(3)] for _ in range(3)]
    Q = [[big() for _ in range(3)] for _ in range(3)]
    A, B = sliced(coeff_array(P)), sliced(coeff_array(Q))
    assert A[0].dtype == np.int64
    out = contract("ik,kj->ij", A, B, m)
    assert out[0].dtype == object
    assert full_width(out, m).tolist() == \
        coeff_array(_cyclo_matmul(P, Q)).tolist()
    tensor, flags = krein_parameters(A, B, 1, m)
    want = loop_krein_parameters(P, Q, 1)
    assert (cyclo_entries(full_width(tensor, m), m), flags) == want
    assert max(abs(c) for c in tensor[0].ravel().tolist()) >= 2 ** 63


@pytest.mark.parametrize("e", range(28, 34))
def test_int64_only_below_the_bound(e):
    """Z[zeta_1] = Z (phi = 1, M = [[[1]]]): the square of the 2x2 matrix
    with every entry -2^e has 2 * 2^e * 2^e = 2^(2e+1) as its bound, which
    its entries attain; int64 exactly when that is below 2^63."""
    A = np.full((2, 2, 1), -2 ** e, dtype=object)
    out, cols = contract("ik,kj->ij", sliced(A), sliced(A), 1)
    assert (out.dtype == np.int64) is (2 * e + 1 < 63)
    assert cols.tolist() == [0]
    assert out.tolist() == np.full((2, 2, 1), 2 ** (2 * e + 1)).tolist()
    assert conjugate_array(sliced(A), 1)[0].tolist() == A.tolist()


def test_krein_inexact_division_raises_integrity_error():
    """P = Q = [[1]] with |X| = 2: q_00^0 = 1/2 is not an algebraic
    integer; the error names (i, j, k)."""
    one = sliced(coeff_array([[CycloInt.integer(5, 1)]]))
    with pytest.raises(IntegrityError, match=r"\(0, 0, 0\)"):
        krein_parameters(one, one, 2, 5)


# -- the array pipeline at many classes over a large cyclotomic field ----------

def element_axes_only(shapes, d):
    """Whether every axis of the given exact_matmul shapes has length 1
    or a power of d + 1.  contract and conjugate_array give each
    coefficient axis an axis of its own in some operand or result, and
    no coefficient axis is longer than phi(m) < d + 1, so this holds
    only when every coefficient axis has length 1."""
    powers = {(d + 1) ** k for k in range(4)}
    return all(n in powers for shape in shapes for n in shape)


def test_central_16x20_contracts_one_coefficient(monkeypatch):
    """Central Z16 x Z20 (|X| = 320, d = 35, m = 80, phi(m) = 32) has
    rational-integer P and Q (Ramanujan sums): every exact_matmul that
    contract and conjugate_array run in its duality_report, two per
    contraction and one per conjugate (of Q, which P is in self mode,
    and of the Krein tensor), has operands and a result one coefficient
    wide, and every contraction and conjugate equals the unsliced einsum
    over all 32 coefficients."""
    real_matmul = cyclo.exact_matmul
    kernel = []

    def one_coefficient(A, B, bound):
        out = real_matmul(A, B, bound)
        shapes = [np.shape(X) for X in (A, B, out)]
        assert element_axes_only(shapes, 35), shapes
        kernel.append(shapes)
        return out

    contracts, conjugates = [], []

    def recorded(calls, fn):
        def wrapper(*args):
            out = fn(*args)
            # a copy: krein_parameters divides its tensor in place
            calls.append((args, (out[0].copy(), out[1])))
            return out
        return wrapper

    monkeypatch.setattr(cyclo, "exact_matmul", one_coefficient)
    monkeypatch.setattr(duality, "contract",
                        recorded(contracts, duality.contract))
    monkeypatch.setattr(duality, "conjugate_array",
                        recorded(conjugates, duality.conjugate_array))
    cert = duality_report(build_action(CyclicProductSpace((16, 20)),
                                       "central"))
    assert cert.passed and len(cert.Q) == 36
    assert [args[0] for args, _ in contracts] == [
        "ik,kj->ij", "i,ij->ij", "ij,ik->jk", "li,lj->lij", "kl,lij->ijk"]
    for (spec, X, Y, m), out in contracts:
        assert [k.tolist() for k in (X[1], Y[1], out[1])] == [[0]] * 3
        assert np.array_equal(full_width(out, m), unsliced_contract(
            spec, full_width(X, m), full_width(Y, m), m, dtype=np.float64))
    assert len(conjugates) == 2 and len(kernel) == 2 * 5 + 2
    for (X, m), out in conjugates:
        assert out[1].tolist() == [0]
        assert np.array_equal(full_width(out, m), unsliced_conjugate(
            full_width(X, m), m, dtype=np.float64))


def test_central_krein_parameters_stay_one_coefficient_wide(monkeypatch):
    """Central Z16 x Z20 (d = 35, phi(m) = 32): every array that
    krein_parameters contracts, conjugates, divides or returns is one
    coefficient wide, and its allocations peak below the size of one
    (d + 1)^3 int64 tensor 8 coefficients wide, a quarter of a single
    phi(m)-wide one."""
    genset = build_action(CyclicProductSpace((16, 20)), "central")
    cert = duality_report(genset)
    P, Q = (sliced(coeff_array(M)) for M in (cert.P, cert.Q))
    assert P[0].shape == Q[0].shape == (36, 36, 1)
    shapes = []
    real_matmul = cyclo.exact_matmul

    def recorded(A, B, bound):
        out = real_matmul(A, B, bound)
        shapes.extend(np.shape(X) for X in (A, B, out))
        return out

    monkeypatch.setattr(cyclo, "exact_matmul", recorded)
    tracemalloc.start()
    try:
        (T, cols), flags = krein_parameters(P, Q, 320, 80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.shape == (36, 36, 36, 1) and cols.tolist() == [0]
    assert len(shapes) == 3 * (2 * 2 + 1) and element_axes_only(shapes, 35)
    assert flags == cert.krein_flags and np.array_equal(T, cert.krein[0])
    assert peak < 8 * 36 ** 3 * T.itemsize


def test_duality_report_builds_cycloints_only_for_P_and_Q(monkeypatch):
    """The pipeline runs on coefficient arrays: of central Z16 x Z8
    (d = 29), duality_report constructs at most the 2 (d + 1)^2 CycloInt
    entries of the certificate's P and Q."""
    genset = build_action(CyclicProductSpace((16, 8)), "central")
    built = []
    real_init = CycloInt.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CycloInt, "__init__", counted)
    cert = duality_report(genset)
    d = len(cert.valencies) - 1
    assert cert.passed and d == 29
    assert len(built) <= 2 * (d + 1) ** 2


def test_cross_pair_swapped_swaps_P_and_Q(tmp_path, capsys):
    """dual wh21 wh12 and dual wh12 wh21 give the same verdict and check
    keys, with P and Q (and valencies and multiplicities) swapped."""
    reports = []
    for a, b in (("wh21_f2", "wh12_f2"), ("wh12_f2", "wh21_f2")):
        path = tmp_path / ("%s_%s.json" % (a, b))
        code = cli.main(["dual", os.path.join(CONFIGS, a + ".json"),
                         os.path.join(CONFIGS, b + ".json"),
                         "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        reports.append(json.loads(path.read_text()))
    ab, ba = reports
    assert ab["pass"] is ba["pass"] is True
    assert ab["mode"] == ba["mode"] == "cross"
    assert ab["checks"].keys() == ba["checks"].keys()
    for key in ("eigen_detail", "idempotent_detail"):
        assert ab["checks"][key].keys() == ba["checks"][key].keys()
    assert (ab["P"], ab["Q"]) == (ba["Q"], ba["P"])
    assert (ab["valencies"], ab["multiplicities"]) == \
        (ba["multiplicities"], ba["valencies"])
