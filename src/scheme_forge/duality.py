"""Duality certificates: character-sum eigenmatrices, idempotents, the
sigma permutation, Krein parameters, and the full self/cross pipeline.

All identities are checked exactly in Z[zeta_m]; the only floating-point
use is the advisory lower bound on Krein parameters.  Character sums are
accumulated as exponent histograms and reduced once, so a sum over a class
costs one table lookup per point plus a single cyclotomic reduction.
"""

from __future__ import annotations

from .cyclo import CycloInt
from .errors import UsageError, IntegrityError, ResourceLimitError
from .action import (orbits, check_condition_4, adjoint_map, verify_adjoint,
                     build_action)
from .scheme import TranslationScheme, DEFAULT_MATRIX_BOUND

KREIN_FLOAT_FLOOR = -1e-9
DENSE_IDEMPOTENT_BOUND = 32


def pairing_table(space):
    """|X| x |X| table of pairing exponents (lambda multiplier applied)."""
    n = space.size
    m = space.character_order
    mult = space.lambda_multiplier
    return [[(space.pairing_exponent(y, x) * mult) % m for x in range(n)]
            for y in range(n)]


def character_profile(space, dual_classes, table):
    """profile[j][y] = sum over x in dual class j of <y, x>, exact."""
    m = space.character_order
    profile = []
    for cls in dual_classes:
        row = []
        for y in range(space.size):
            counts = [0] * m
            ty = table[y]
            for x in cls:
                counts[ty[x]] += 1
            row.append(CycloInt.from_exponent_counts(m, counts))
        profile.append(row)
    return profile


def constancy_test(partition_G, profile):
    """Theorem check: each f_j constant on each class X_i.

    Returns (ok, F, witness); on pass F[i][j] is the common value, on fail
    the witness is (i, j, y, y2) with f_j(y) != f_j(y2)."""
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


# -- matrix utilities over CycloInt ------------------------------------------

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


def verify_eigen_identities(P, Q, valencies, multiplicities, size):
    """Exact checks tying P and Q together; returns a report dict."""
    d = len(Q) - 1
    report = {}
    PQ = _cyclo_matmul(P, Q)
    report["PQ_is_nI"] = all(
        PQ[i][j] == CycloInt.integer(Q[0][0].order, size if i == j else 0)
        for i in range(d + 1) for j in range(d + 1))
    m = Q[0][0].order
    one = CycloInt.integer(m, 1)
    report["Q_col0_ones"] = all(Q[i][0] == one for i in range(d + 1))
    report["Q_row0_multiplicities"] = all(
        Q[0][j] == CycloInt.integer(m, multiplicities[j]) for j in range(d + 1))
    report["P_row0_valencies"] = all(
        P[0][j] == CycloInt.integer(m, valencies[j]) for j in range(d + 1))
    report["entries_real"] = all(
        Q[i][j].is_real() and P[i][j].is_real()
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


# -- idempotents ---------------------------------------------------------------

def idempotent_matrices(space, profile, matrix_bound=DEFAULT_MATRIX_BOUND):
    """The scaled idempotents |X|*E_j as dense CycloInt matrices,
    entry (a, b) = f_j(a - b)."""
    n = space.size
    if n > matrix_bound:
        raise ResourceLimitError(
            "|X| = %d exceeds idempotent matrix bound %d" % (n, matrix_bound))
    diff = [[space.sub(a, b) for b in range(n)] for a in range(n)]
    return [[[f[diff[a][b]] for b in range(n)] for a in range(n)]
            for f in profile]


def verify_idempotents(space, scheme, profile):
    """Exact checks of the idempotent properties, in the scaled form
    N_j = |X| E_j with N_j[a][b] = f_j(a-b).

    Products are verified on row 0; every matrix involved is constant on
    point differences by construction, so row 0 determines the product
    exactly.  Below DENSE_IDEMPOTENT_BOUND vertices the full dense product
    is checked as well.
    """
    n = space.size
    m = space.character_order
    d = len(profile) - 1
    report = {}

    # N_0 = J and sum_j N_j = |X| I
    one = CycloInt.integer(m, 1)
    report["E0_is_J"] = all(profile[0][y] == one for y in range(n))
    sums_ok = True
    for y in range(n):
        acc = CycloInt.zero(m)
        for j in range(d + 1):
            acc = acc + profile[j][y]
        want = CycloInt.integer(m, n if y == 0 else 0)
        if acc != want:
            sums_ok = False
    report["sum_is_identity"] = sums_ok

    # Bose-Mesner membership: f_j constant on every relation class
    ok, _, witness = constancy_test(scheme.partition, profile)
    report["bose_mesner_membership"] = ok
    if not ok:
        report["bose_mesner_witness"] = witness

    # N_i N_j = delta_ij * n * N_i, via row 0:
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
        mats = idempotent_matrices(space, profile, matrix_bound=n)
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


def sigma_permutation(space, dual_partition, profile, table):
    """Find sigma via the eigenvector relation: for x in dual class j,
    N_i <.,x> = |X| <.,x> for exactly one i (and 0 for the others).

    Returns (sigma, ok, witness); under this labeling sigma is expected to
    be the identity, which is verified rather than assumed."""
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


# -- Krein parameters ------------------------------------------------------------

def krein_parameters(P, Q, size):
    """q_ij^k = (1/|X|) sum_l P[k][l] Q[l][i] Q[l][j], exact.

    This solves the Hadamard-product expansion of E_i o E_j in the
    idempotent basis, using PQ = |X| I in place of a linear solve.
    Returns (tensor of CycloInt, flags dict)."""
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
                q = acc.divide_exact(size)
                tensor[i][j][k] = q
                if not q.is_real():
                    real_ok = False
                val, err = q.approx()
                low = val.real - err
                if low < KREIN_FLOAT_FLOOR:
                    nonneg_ok = False
                    worst = min(worst, low)
    flags = {"real": real_ok, "nonnegative": nonneg_ok}
    if not nonneg_ok:
        flags["worst_value"] = worst
    return tensor, flags


def krein_equals_intersection(krein, p_tensor):
    """Exact tensor equality q_ij^k == p_ij^k (dual intersection numbers)."""
    d = len(p_tensor) - 1
    m = krein[0][0][0].order
    for i in range(d + 1):
        for j in range(d + 1):
            for k in range(d + 1):
                if krein[i][j][k] != CycloInt.integer(m, p_tensor[i][j][k]):
                    return False, (i, j, k)
    return True, None


# -- the full pipeline -------------------------------------------------------------


class DualityCertificate:
    def __init__(self, mode, space):
        self.mode = mode
        self.space = space
        self.passed = False
        self.checks = {}
        self.witnesses = []
        self.Q = None
        self.P = None
        self.sigma = None
        self.valencies = None
        self.multiplicities = None
        self.krein = None
        self.krein_flags = None
        self.notes = []

    def fail(self, check, witness=None):
        self.checks[check] = False
        if witness is not None:
            self.witnesses.append({"check": check, "witness": witness})

    def to_json(self):
        def cyclo_matrix(M):
            return None if M is None else [[c.to_json() for c in row] for row in M]
        return {
            "mode": self.mode,
            "pass": self.passed,
            "d": None if self.valencies is None else len(self.valencies) - 1,
            "size": self.space.size,
            "valencies": self.valencies,
            "multiplicities": self.multiplicities,
            "Q": cyclo_matrix(self.Q),
            "P": cyclo_matrix(self.P),
            "sigma": self.sigma,
            "krein": None if self.krein is None else
                [[[q.to_json() for q in row] for row in plane]
                 for plane in self.krein],
            "krein_flags": self.krein_flags,
            "checks": self.checks,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }


def duality_report(gens_G, gens_Gc=None, matrix_bound=DEFAULT_MATRIX_BOUND,
                   verify_representatives=None):
    """Run the full duality pipeline and assemble the certificate.

    gens_Gc = None means self mode (the dual partition is G's own)."""
    space = gens_G.space
    mode = "self" if gens_Gc is None else "cross"
    auto_partner = False
    if gens_Gc is None and gens_G.poset is not None:
        # the dual partition of a weak-Hamming scheme lives on the dual
        # poset; palindromic level vectors keep this a self-duality
        partner = {"weak_hamming": "weak_hamming_dual",
                   "weak_hamming_dual": "weak_hamming"}[gens_G.family]
        gens_Gc = build_action(space, partner, **gens_G.params)
        levels = gens_G.poset.levels
        mode = "self" if tuple(levels) == tuple(reversed(levels)) else "cross"
        auto_partner = True
    cert = DualityCertificate(mode, space)
    if auto_partner:
        cert.notes.append("dual partition taken from the dual poset")
    if gens_Gc is not None and gens_Gc.space is not space \
            and gens_Gc.space.size != space.size:
        raise UsageError("the two actions must share the vertex space")

    part_G = orbits(gens_G)
    part_Gc = part_G if gens_Gc is None else orbits(gens_Gc)

    for name, part in (("G", part_G), ("G_check", part_Gc)):
        ok, witness = check_condition_4(part, space)
        cert.checks["condition_4_" + name] = ok
        if not ok:
            cert.fail("condition_4_" + name, witness)
    if not (cert.checks["condition_4_G"] and cert.checks["condition_4_G_check"]):
        cert.notes.append("condition (4) failed; no symmetric scheme exists")
        return cert
    if part_G.d != part_Gc.d:
        cert.fail("class_counts_match", (part_G.d, part_Gc.d))
        return cert
    cert.checks["class_counts_match"] = True

    scheme_G = TranslationScheme(space, part_G, label=gens_G.label())
    scheme_Gc = scheme_G if gens_Gc is None else \
        TranslationScheme(space, part_Gc, label=gens_Gc.label())
    cert.valencies = scheme_G.valencies
    cert.multiplicities = part_Gc.sizes

    # adjoint witness (sufficient for constancy, verified independently)
    try:
        adj = adjoint_map(gens_G)
        ok, witness = verify_adjoint(adj)
        cert.checks["adjoint"] = ok
        if not ok:
            cert.fail("adjoint", witness)
    except UsageError as exc:
        cert.checks["adjoint"] = None
        cert.notes.append("no adjoint witness: %s" % exc)

    table = pairing_table(space)
    profile_Q = character_profile(space, part_Gc.classes, table)
    ok, F_Q, witness = constancy_test(part_G, profile_Q)
    cert.checks["constancy_G"] = ok
    if not ok:
        cert.fail("constancy_G", witness)
        return cert
    profile_P = profile_Q if gens_Gc is None else \
        character_profile(space, part_G.classes, table)
    ok, F_P, witness = constancy_test(part_Gc, profile_P)
    cert.checks["constancy_G_check"] = ok
    if not ok:
        cert.fail("constancy_G_check", witness)
        return cert

    cert.Q = F_Q
    cert.P = F_P

    eig = verify_eigen_identities(cert.P, cert.Q, scheme_G.valencies,
                                  cert.multiplicities, space.size)
    cert.checks["eigen_identities"] = eig["all_pass"]
    cert.checks["eigen_detail"] = eig

    if mode == "self":
        cert.checks["P_equals_Q"] = cert.P == cert.Q
        cert.checks["valencies_equal_multiplicities"] = \
            scheme_G.valencies == cert.multiplicities

    if space.size <= matrix_bound:
        idem = verify_idempotents(space, scheme_G, profile_Q)
        cert.checks["idempotents"] = idem["all_pass"]
        cert.checks["idempotent_detail"] = idem
        sigma, ok, witness = sigma_permutation(space, part_Gc, profile_Q, table)
        cert.sigma = sigma
        cert.checks["sigma_identity"] = ok and sigma == list(range(part_G.d + 1))
        if not ok:
            cert.fail("sigma", witness)
    else:
        cert.notes.append("idempotents not materialized (|X| above matrix "
                          "bound); certificate rests on constancy + PQ = |X|I")

    krein, flags = krein_parameters(cert.P, cert.Q, space.size)
    cert.krein = krein
    cert.krein_flags = flags
    cert.checks["krein_real"] = flags["real"]
    cert.checks["krein_nonnegative"] = flags["nonnegative"]
    p_dual = scheme_Gc.intersection_numbers(verify_representatives)
    ok, witness = krein_equals_intersection(krein, p_dual)
    cert.checks["krein_equals_dual_intersection"] = ok
    if not ok:
        cert.fail("krein_equals_dual_intersection", witness)

    # intersection numbers with representative verification (axiom iv)
    axioms = scheme_G.verify_axioms(verify_representatives)
    cert.checks["axioms_G"] = axioms["all_pass"]

    required = [v for k, v in cert.checks.items()
                if isinstance(v, bool)]
    cert.passed = all(required)
    if cert.checks.get("adjoint") is None and cert.passed:
        cert.notes.append("dual (no adjoint witness)")
    return cert
