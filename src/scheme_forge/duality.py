"""Duality certificates: character-sum eigenmatrices, idempotents, the
sigma permutation, Krein parameters, and the full self/cross pipeline.

All identities are checked exactly in Z[zeta_m]; the only floating-point
use is the advisory lower bound on Krein parameters that are not rational
integers.  Character sums are accumulated as exponent histograms and
reduced once, so a sum over a class costs one table lookup per point plus
a single cyclotomic reduction.

Sigma and the idempotent products are read off the spectrum P Q.  The
scaled idempotent N_i (entries f_i(a - b), f_i(y) = sum of <y, x> over the
dual class Y_i) commutes with translations, so each character
chi_x = <., x> is an eigenvector: N_i chi_x = lambda_i(x) chi_x with
lambda_i(x) = sum_c f_i(c) conj<c, x>.  As f_i is Q[k][i] on the class X_k
(constancy_G), X_k = -X_k (condition (4)) and the pairing is symmetric
(GramSpace: B = B^T), for x in Y_j

    lambda_i(x) = sum_k Q[k][i] sum_{c in X_k} <x, c> = (P Q)[j][i],

the inner sum being P[j][k] (constancy_G_check).  So:

  * sigma: N_i chi_x is |X| chi_x or 0 iff (P Q)[j][i] is |X| or 0.
  * orthogonality: for a nondegenerate pairing the |X| characters are
    distinct and orthogonal, a basis diagonalising every N_i, so
    N_i N_i' = delta_ii' |X| N_i iff lambda_i lambda_i' = delta_ii' |X|
    lambda_i at every x; as Z[zeta_m] has no zero divisors, iff each row
    of P Q has entries in {0, |X|} and at most one |X|.

Nondegeneracy, the premise of the basis, is checked by
AbelianSpace.verify_nondegenerate: every y != 0 pairs nontrivially with
some x, which by biadditivity may be taken from the digit basis.

The spectrum P Q, row orthogonality and the Krein tensor are contractions
of coefficient arrays (cyclo.contract), each one exact einsum through the
structure constants of Z[zeta_m] rather than a loop of scalar products:

  * P Q is "ik,kj->ij";
  * row orthogonality weights the rows of Q by the valencies ("i,ij->ij")
    and contracts them with conj Q ("ij,ik->jk"), conjugation being a
    fixed phi(m) x phi(m) integer matrix on the power basis;
  * the Krein tensor is T[i][j][k] = sum_l P[k][l] Q[l][i] Q[l][j]:
    "li,lj->lij", then "kl,lij->ijk", then an exact division by |X|.
"""

from __future__ import annotations

import numpy as np

from .cyclo import (CycloInt, coeff_array, cyclo_entries, integer_array,
                    contract, conjugate_array)
from .errors import UsageError, IntegrityError
from .action import (orbits, check_condition_4, adjoint_map, verify_adjoint,
                     build_action)
from .space import pairing_table
from .scheme import TranslationScheme, DEFAULT_MATRIX_BOUND

KREIN_FLOAT_FLOOR = -1e-9
# |X| up to which the idempotent report also carries `dense_products`
DENSE_IDEMPOTENT_BOUND = 32


def character_profile(space, dual_classes, table):
    """profile[j][y] = sum over x in dual class j of <y, x>, exact: per
    class, one bincount of the exponents T[x][y] = T[y][x] (offset by m y)
    gives the exponent histogram of every y, reduced once into a CycloInt.
    The pairing is symmetric, so the class is a gather of whole rows of T,
    in the index dtype of the space (see AbelianSpace.__init__)."""
    m = space.character_order
    offsets = np.arange(space.size, dtype=space.place.dtype) * m
    profile = []
    for cls in dual_classes:
        counts = np.bincount((table[cls] + offsets).ravel(),
                             minlength=space.size * m)
        profile.append([CycloInt.from_exponent_counts(m, row) for row in
                        counts.reshape(space.size, m).tolist()])
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


# -- contractions over Z[zeta_m] ----------------------------------------------

def spectrum(P, Q):
    """The product P Q of two matrices of CycloInt, exact."""
    m = Q[0][0].order
    return cyclo_entries(contract("ik,kj->ij", coeff_array(P),
                                  coeff_array(Q), m), m)


def verify_eigen_identities(P, Q, PQ, valencies, multiplicities, size):
    """Exact checks tying P and Q (and their product PQ) together; returns
    a report dict."""
    d = len(Q) - 1
    report = {}
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
    Pa, Qa = coeff_array(P), coeff_array(Q)
    Qc = conjugate_array(Qa, m)
    report["entries_real"] = (np.array_equal(Qc, Qa)
                              and np.array_equal(conjugate_array(Pa, m), Pa))
    # sum_i v_i Q[i][j] conj Q[i][j'] = delta_jj' |X| m_j
    weighted = contract("i,ij->ij", integer_array(valencies, m), Qa, m)
    gram = contract("ij,ik->jk", weighted, Qc, m)
    want = [[size * k if j == j2 else 0 for j2 in range(d + 1)]
            for j, k in enumerate(multiplicities)]
    report["row_orthogonality"] = np.array_equal(gram,
                                                 integer_array(want, m))
    report["all_pass"] = all(v for k, v in report.items() if k != "all_pass")
    return report


# -- idempotents and sigma, from the spectrum ---------------------------------

def verify_idempotents(space, profile, constancy, spectrum):
    """Exact checks of the idempotent properties, in the scaled form
    N_j = |X| E_j with N_j[a][b] = f_j(a-b).

    N_0 = J and sum_j N_j = |X| I are checked point by point; Bose-Mesner
    membership is `constancy`, the result of constancy_test(G partition,
    profile); the products N_i N_j = delta_ij |X| N_i are read off the
    spectrum P Q when the pairing is nondegenerate (module docstring), and
    fail with a `degenerate_witness` point otherwise.  `dense_products`
    repeats that verdict for |X| <= DENSE_IDEMPOTENT_BOUND.
    """
    n = space.size
    m = space.character_order
    report = {}

    one = CycloInt.integer(m, 1)
    report["E0_is_J"] = all(v == one for v in profile[0])
    report["sum_is_identity"] = all(
        sum(col[1:], col[0]) == CycloInt.integer(m, n if y == 0 else 0)
        for y, col in enumerate(zip(*profile)))

    ok, _, witness = constancy
    report["bose_mesner_membership"] = ok
    if not ok:
        report["bose_mesner_witness"] = witness

    full, zero = CycloInt.integer(m, n), CycloInt.zero(m)
    nondegenerate, degenerate = space.verify_nondegenerate()
    report["orthogonal_idempotents"] = nondegenerate and all(
        all(lam == full or lam == zero for lam in row)
        and row.count(full) <= 1 for row in spectrum)
    if not nondegenerate:
        report["degenerate_witness"] = space.serialize_point(degenerate)
    if n <= DENSE_IDEMPOTENT_BOUND:
        report["dense_products"] = report["orthogonal_idempotents"]

    report["all_pass"] = all(v for k, v in report.items()
                             if isinstance(v, bool))
    return report


def sigma_permutation(spectrum, size):
    """Find sigma via the eigenvector relation: for x in dual class j,
    N_i chi_x = |X| chi_x for exactly one i (and 0 for the others), read
    off row j of the spectrum P Q (module docstring).

    Returns (sigma, ok, witness); under this labeling sigma is expected to
    be the identity, which is verified rather than assumed."""
    m = spectrum[0][0].order
    full, zero = CycloInt.integer(m, size), CycloInt.zero(m)
    sigma = []
    for j, row in enumerate(spectrum):
        hits = []
        for i, lam in enumerate(row):
            if lam == full:
                hits.append(i)
            elif lam != zero:
                return None, False, ("nonzero non-eigen", i, j)
        if len(hits) != 1:
            return None, False, ("non-unique eigenspace", j, hits)
        sigma.append(hits[0])
    if sorted(sigma) != list(range(len(spectrum))):
        return sigma, False, ("sigma not bijective", sigma)
    return sigma, True, None


# -- Krein parameters ------------------------------------------------------------

def krein_parameters(P, Q, size):
    """q_ij^k = (1/|X|) sum_l P[k][l] Q[l][i] Q[l][j], exact.

    This solves the Hadamard-product expansion of E_i o E_j in the
    idempotent basis, using PQ = |X| I in place of a linear solve.  The
    tensor is two contractions of coefficient arrays (cyclo.contract); a
    sum that |X| does not divide raises IntegrityError.  Nonnegativity is
    decided exactly for rational-integer entries and by the rigorous float
    lower bound (>= KREIN_FLOAT_FLOOR) for the others.
    Returns (tensor of CycloInt, flags dict)."""
    m = Q[0][0].order
    Pa, Qa = coeff_array(P), coeff_array(Q)
    T = contract("kl,lij->ijk", Pa, contract("li,lj->lij", Qa, Qa, m), m)
    inexact = np.argwhere((T % size != 0).any(axis=-1))
    if len(inexact):
        raise IntegrityError("Krein parameter q_ij^k at (i, j, k) = %s: "
                             "sum not divisible by |X| = %d"
                             % (tuple(map(int, inexact[0])), size))
    T = T // size
    tensor = cyclo_entries(T, m)
    rational = ~(T[..., 1:] != 0).any(axis=-1)
    ints = T[..., 0][rational]
    lows = [float(v) for v in ints[ints < 0]]
    for i, j, k in np.argwhere(~rational):
        val, err = tensor[i][j][k].approx()
        if val.real - err < KREIN_FLOAT_FLOOR:
            lows.append(val.real - err)
    flags = {"real": np.array_equal(conjugate_array(T, m), T),
             "nonnegative": not lows}
    if lows:
        flags["worst_value"] = min(lows)
    return tensor, flags


def krein_equals_intersection(krein, p_tensor):
    """Exact tensor equality q_ij^k == p_ij^k (dual intersection numbers)."""
    K = coeff_array(krein)
    m = krein[0][0][0].order
    differ = np.argwhere((K != integer_array(p_tensor, m)).any(axis=-1))
    if len(differ):
        return False, tuple(map(int, differ[0]))
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
        """The certificate as JSON-ready dicts and lists.  Each distinct
        CycloInt becomes JSON once: equal entries of P, Q and the Krein
        tensor share one dict, so CycloInt.approx() runs once per value
        and cli.write_report encodes each shared dict once."""
        entries = {}

        def entry(c):
            out = entries.get(c)
            if out is None:
                out = entries[c] = c.to_json()
            return out

        def cyclo_matrix(M):
            return None if M is None else [[entry(c) for c in row] for row in M]
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
                [cyclo_matrix(plane) for plane in self.krein],
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
    constancy_G = constancy_test(part_G, profile_Q)
    ok, F_Q, witness = constancy_G
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
    PQ = spectrum(cert.P, cert.Q)

    eig = verify_eigen_identities(cert.P, cert.Q, PQ,
                                  scheme_G.valencies, cert.multiplicities,
                                  space.size)
    cert.checks["eigen_identities"] = eig["all_pass"]
    cert.checks["eigen_detail"] = eig

    if mode == "self":
        cert.checks["P_equals_Q"] = cert.P == cert.Q
        cert.checks["valencies_equal_multiplicities"] = \
            scheme_G.valencies == cert.multiplicities

    if space.size <= matrix_bound:
        idem = verify_idempotents(space, profile_Q, constancy_G, PQ)
        cert.checks["idempotents"] = idem["all_pass"]
        cert.checks["idempotent_detail"] = idem
        sigma, ok, witness = sigma_permutation(PQ, space.size)
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
