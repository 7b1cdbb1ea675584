"""Duality certificates: character-sum eigenmatrices, idempotents, the
sigma permutation, Krein parameters, and the full self/cross pipeline.

All identities are checked exactly in Z[zeta_m]; the only floating-point
use is the advisory lower bound on Krein parameters that are not rational
integers.  Every quantity of the pipeline is an integer array of
power-basis coefficients (cyclo.py):

  * F = Q or P, full width (d + 1, d + 1, phi(m)): F[i][j] = f_j at
    the first point of class X_i (character_profile, below); from here
    on each is a support-width array, cut to its nonzero columns (and
    the constant column 0), one column for a central action;
  * the spectrum P Q and the Krein tensor, support-width arrays of shape
    (d + 1, d + 1[, d + 1], columns), the columns the products of P and
    Q can reach.

Every check is an array comparison of these.

F is only the eigenmatrix once f_j(y) = sum of <y, x> over the dual
class Y_j is constant on each class X_i (constancy_G for Q, and
constancy_G_check, with the roles of the partitions swapped, for P).
The paper's adjoint lemma proves it.  Let every generator g of G have an
adjoint iota(g), <gy, x> = <y, iota(g) x> for all x and y
(verify_adjoint), that is a permutation of X mapping each Y_j into, so
onto, itself (keeps_classes).  Then

    f_j(gy) = sum_{x in Y_j} <y, iota(g) x> = sum_{x' in Y_j} <y, x'>
            = f_j(y),

so f_j is constant on each orbit of the group the generators make, and
F[i][j] is f_j at one point of X_i.  With a second action, or the dual
poset's partner of a weak-Hamming action, constancy_G_check is proved
the same way from that action's adjoints against G's classes.  When the
premise fails (a custom action has no adjoint map; an adjoint fails
verify_adjoint or moves a point to another dual class), the exhaustive
test runs: constancy_test compares f_j across each class at every point
of X, and its witness names the first point where f_j differs.

One kernel, character_profile, computes f_j for both: given pairing-table
rows, point-major, it returns f_j at each row's point, shape (rows, dual
classes, phi(m)), as one exponent histogram per (row, dual class) from
one bincount, reduced by one m x phi(m) matrix.  The lemma gives it the
d + 1 rows of the class representatives (pairing_rows), O(d |X|) work,
and its profile is F; the exhaustive test gives it the whole |X| x |X|
pairing table.

Once the constancy tests hold, dual keeps only P, Q, P Q, the Krein
tensor and, at its end, one table of their distinct values
(distinct_elements): one CycloInt per value, the only entries widened
to phi(m), and a code array per quantity.  DualityCertificate.P and .Q
index it as nested lists, so every entry of a value is one object;
to_json gives Q, P and the Krein tensor as CodedArrays, the code arrays
and one shared list of JSON dicts, one per value, which
cli.write_report encodes once each.

N_0 = J and sum N_j = |X| I are read off Q (verify_idempotents); sigma
and the idempotent products are read off the spectrum P Q.  The
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
of support-width arrays (cyclo.contract), each two exact matrix products
(cyclo.exact_matmul), over the element indices and then through the
structure constants of Z[zeta_m], over the carried columns only:

  * P Q is "ik,kj->ij";
  * row orthogonality weights the rows of Q by the valencies ("i,ij->ij")
    and contracts them with conj Q ("ij,ik->jk"), conjugation being a
    fixed phi(m) x phi(m) integer matrix on the power basis;
  * the Krein tensor is T[i][j][k] = sum_l P[k][l] Q[l][i] Q[l][j]:
    "li,lj->lij", then "kl,lij->ijk", then an exact division by |X|.
"""

from __future__ import annotations

import numpy as np

from .cyclo import (CycloInt, integer_array,
                    equals_integers, nonzero, reduction_matrix, euler_phi,
                    sliced, widen, equal, union_columns, contract,
                    conjugate_array, exact_matmul, max_abs)
from .errors import UsageError, IntegrityError
from .action import (orbits, check_condition_4, adjoint_map, verify_adjoint,
                     build_action, DUAL_FAMILY, _is_permutation)
from .space import (pairing_table, pairing_rows, check_tensor_size,
                    PAIRING_BLOCK_ROWS, DEFAULT_SIZE_BOUND)
from .scheme import TranslationScheme, DEFAULT_MATRIX_BOUND

KREIN_FLOAT_FLOOR = -1e-9
# |X| up to which the idempotent report also carries `dense_products`
DENSE_IDEMPOTENT_BOUND = 32


def character_profile(space, dual, rows):
    """profile[r, j] = coefficients of f_j(y) = sum of <y, x> over the
    class Y_j of the partition `dual`, y the point of the pairing-table
    row rows[r] (pairing_rows or pairing_table): an int64 array of shape
    (len(rows), dual classes, phi(m)).

    PAIRING_BLOCK_ROWS rows at a time, one bincount keyed by (row, dual
    class, exponent) gives every exponent histogram of the block, and the
    reduction matrix R, R[k] = coefficients of zeta^k, turns them into
    coefficients through cyclo.exact_matmul: each histogram sums to its
    class size, so the largest class times max|R| bounds every entry's
    products."""
    m = space.character_order
    R = reduction_matrix(m)
    bound = max(dual.sizes) * max_abs(R)
    width = dual.d + 1
    profile = np.empty((len(rows), width, R.shape[1]), dtype=np.int64)
    keys = (np.arange(min(len(rows), PAIRING_BLOCK_ROWS))[:, None] * width
            + dual.class_of) * m
    for start in range(0, len(rows), PAIRING_BLOCK_ROWS):
        block = rows[start:start + PAIRING_BLOCK_ROWS]
        counts = np.bincount((keys[:len(block)] + block).ravel(),
                             minlength=len(block) * width * m)
        profile[start:start + len(block)] = exact_matmul(
            counts.reshape(-1, m), R, bound).reshape(len(block), width, -1)
    return profile


def constancy_test(partition_G, profile):
    """Theorem check: each f_j constant on each class X_i, one array
    comparison per class against its first point, on the character
    profile of every point of X.

    Returns (ok, F, witness); on pass F[i, j] is the common value, a
    coefficient array of shape (d + 1, dual classes, phi(m)); on fail the
    witness is (i, j, y0, y) with f_j(y0) != f_j(y), y0 the first point
    of X_i: the first failure in the order j, then i, then y along X_i."""
    witness = None
    for i, cls in enumerate(partition_G.classes):
        values = profile[cls]
        differs = (values != values[:1]).any(axis=-1)
        cols = np.flatnonzero(differs.any(axis=0))
        if len(cols) and (witness is None or cols[0] < witness[1]):
            j = int(cols[0])
            witness = (i, j, int(cls[0]), int(cls[np.argmax(differs[:, j])]))
    if witness is not None:
        return False, None, witness
    return True, profile[[cls[0] for cls in partition_G.classes]], None


def verified_adjoint(genset):
    """(adjoint, verdict, detail): the adjoint map of `genset` with
    verify_adjoint's verdict True and detail None; None, False and the
    witness of verify_adjoint when it fails; None, None and the reason
    when the action carries no adjoint map (a custom action)."""
    try:
        adjoint = adjoint_map(genset)
    except UsageError as exc:
        return None, None, str(exc)
    ok, witness = verify_adjoint(adjoint)
    return (adjoint if ok else None), ok, witness


def keeps_classes(adjoint, dual):
    """The rest of the adjoint lemma's premise (module docstring): every
    image iota(g) is a permutation of X that maps each class of the
    partition `dual` onto itself."""
    class_of = dual.class_of
    return all(_is_permutation(ig.perm, len(class_of))
               and (class_of[ig.perm] == class_of).all()
               for ig in adjoint.images)


# -- contractions over Z[zeta_m] ----------------------------------------------

def verify_eigen_identities(P, Q, PQ, valencies, multiplicities, size, m):
    """Exact checks tying the support-width arrays P and Q (and their
    product PQ) over Z[zeta_m] together; returns a report dict."""
    report = {}
    report["PQ_is_nI"] = bool(equals_integers(
        PQ[0], size * np.eye(len(Q[0]), dtype=np.int64)).all())
    report["Q_col0_ones"] = bool(equals_integers(Q[0][:, 0], 1).all())
    report["Q_row0_multiplicities"] = bool(
        equals_integers(Q[0][0], multiplicities).all())
    report["P_row0_valencies"] = bool(
        equals_integers(P[0][0], valencies).all())
    Qc = conjugate_array(Q, m)
    report["entries_real"] = (equal(Qc, Q) and equal(
        Qc if P is Q else conjugate_array(P, m), P))
    # sum_i v_i Q[i][j] conj Q[i][j'] = delta_jj' |X| m_j
    weighted = contract("i,ij->ij", integer_array(valencies), Q, m)
    gram, _ = contract("ij,ik->jk", weighted, Qc, m)
    report["row_orthogonality"] = bool(equals_integers(
        gram, np.diag([size * k for k in multiplicities])).all())
    report["all_pass"] = all(v for k, v in report.items() if k != "all_pass")
    return report


# -- idempotents and sigma, from the spectrum ---------------------------------

def verify_idempotents(space, Q, spectrum, Q_col0_ones):
    """Exact checks of the idempotent properties, in the scaled form
    N_j = |X| E_j with N_j[a][b] = f_j(a-b), from the support-width Q.

    The pipeline reaches this check only once constancy_G holds: f_j is
    then Q[k][j] on all of the class X_k, the classes cover X, and
    X_0 = {0} (orbits).  So N_0 = J (f_0 = 1) iff Q's first column is all
    1 (Q_col0_ones of verify_eigen_identities); sum_j N_j = |X| I
    (sum_j f_j(y) = |X| at y = 0, else 0) iff Q's row sums are |X|, 0,
    ..., 0; and Bose-Mesner membership holds, as N_j = sum_k Q[k][j] A_k.
    The products N_i N_j = delta_ij |X| N_i are read off the spectrum
    P Q when the pairing is nondegenerate (module docstring), and fail
    with a `degenerate_witness` point otherwise.  `dense_products`
    repeats that verdict for |X| <= DENSE_IDEMPOTENT_BOUND.
    """
    n = space.size
    report = {}

    report["E0_is_J"] = Q_col0_ones
    report["sum_is_identity"] = bool(equals_integers(
        Q[0].sum(axis=1), n * (np.arange(len(Q[0])) == 0)).all())
    report["bose_mesner_membership"] = True

    full = equals_integers(spectrum, n)
    nondegenerate, degenerate = space.verify_nondegenerate()
    report["orthogonal_idempotents"] = bool(
        nondegenerate and (full | ~nonzero(spectrum)).all()
        and (full.sum(axis=1) <= 1).all())
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
    off row j of the spectrum P Q (module docstring), a coefficient
    array.

    Returns (sigma, ok, witness); under this labeling sigma is expected to
    be the identity, which is verified rather than assumed.  The witness
    is that of the first failing row j: an entry that is neither |X| nor
    0, else the count of |X| entries."""
    full = equals_integers(spectrum, size)
    other = ~full & nonzero(spectrum)
    failing = other.any(axis=1) | (full.sum(axis=1) != 1)
    if failing.any():
        j = int(np.argmax(failing))
        if other[j].any():
            return None, False, ("nonzero non-eigen",
                                 int(np.argmax(other[j])), j)
        return None, False, ("non-unique eigenspace", j,
                             np.flatnonzero(full[j]).tolist())
    sigma = np.argmax(full, axis=1).tolist()
    if sorted(sigma) != list(range(len(spectrum))):
        return sigma, False, ("sigma not bijective", sigma)
    return sigma, True, None


# -- Krein parameters ------------------------------------------------------------

def krein_parameters(P, Q, size, m, size_bound=DEFAULT_SIZE_BOUND):
    """q_ij^k = (1/|X|) sum_l P[k][l] Q[l][i] Q[l][j], exact, for the
    support-width arrays P and Q over Z[zeta_m].

    This solves the Hadamard-product expansion of E_i o E_j in the
    idempotent basis, using PQ = |X| I in place of a linear solve.  The
    tensor is two contractions of support-width arrays (cyclo.contract),
    and stays at their width; a (d + 1)^3 tensor past the bound
    check_tensor_size derives from `size_bound` raises ResourceLimitError
    before any is allocated, and a sum that |X| does not divide raises
    IntegrityError.  Nonnegativity is decided exactly for rational-integer
    entries and by the rigorous float lower bound (>= KREIN_FLOAT_FLOOR)
    of CycloInt.approx for the others, the only entries widened to phi(m)
    coefficients.  Returns (support-width array T[i, j, k], flags dict)."""
    check_tensor_size(len(Q[0]) - 1, size_bound)
    T, cols = contract("kl,lij->ijk", P, contract("li,lj->lij", Q, Q, m), m)
    # one floor division; the quotient times |X| gives back every sum
    # that |X| divides (numpy's int64 remainder is several times slower)
    quotient = T // size
    inexact = (quotient * size != T).any(axis=-1)
    if inexact.any():
        raise IntegrityError("Krein parameter q_ij^k at (i, j, k) = %s: "
                             "sum not divisible by |X| = %d"
                             % (tuple(map(int, np.argwhere(inexact)[0])),
                                size))
    T = quotient
    irrational = nonzero(T[..., 1:])
    lows = [float(v) for v in T[..., 0][~irrational & (T[..., 0] < 0)]]
    for coeffs in widen(T[irrational], cols,
                        np.arange(euler_phi(m))).tolist():
        val, err = CycloInt(m, tuple(coeffs), reduce=False).approx()
        if val.real - err < KREIN_FLOAT_FLOOR:
            lows.append(val.real - err)
    flags = {"real": equal(conjugate_array((T, cols), m), (T, cols)),
             "nonnegative": not lows}
    if lows:
        flags["worst_value"] = min(lows)
    return (T, cols), flags


def krein_equals_intersection(krein, p_tensor):
    """Exact tensor equality q_ij^k == p_ij^k (dual intersection numbers)
    of the support-width Krein array and the integer array p_tensor."""
    differ = ~equals_integers(krein[0], p_tensor)
    if differ.any():
        return False, tuple(map(int, np.argwhere(differ)[0]))
    return True, None


# -- the full pipeline -------------------------------------------------------------


def distinct_elements(arrays, m):
    """The distinct elements of support-width arrays over Z[zeta_m]:
    (elements, codes), elements a 1-d object array of CycloInt, one per
    distinct element across all the arrays, and for each array an intp
    array of its shape without the coefficient axis, the index of each
    entry's element.  The coefficient rows, at the union of the arrays'
    columns, are grouped by a lexsort and a diff of the sorted rows; only
    the distinct rows are widened to phi(m) coefficients."""
    cols = union_columns(*(k for _, k in arrays))
    rows = np.concatenate([widen(A, k, cols).reshape(-1, len(cols))
                           for A, k in arrays])
    order = np.lexsort(rows.T)
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    distinct = widen(ranked[first], cols, np.arange(euler_phi(m))).tolist()
    elements = np.fromiter((CycloInt(m, tuple(coeffs), reduce=False)
                            for coeffs in distinct), dtype=object,
                           count=len(distinct))
    codes, start = [], 0
    for A, _ in arrays:
        stop = start + A[..., 0].size
        codes.append(group[start:stop].reshape(A.shape[:-1]))
        start = stop
    return elements, codes


class CodedArray:
    """An array of JSON values: an int code array into a list of values,
    which the certificate's arrays share.  As with an ndarray, json.dumps
    takes only its tolist(), nested lists in which every cell of a value
    is one object; cli.write_report writes it from the codes."""

    def __init__(self, codes, values):
        self.codes, self.values = codes, values

    def tolist(self):
        table = np.fromiter(self.values, dtype=object, count=len(self.values))
        return table[self.codes].tolist()


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
        # one CycloInt per distinct value of Q, P and the Krein tensor, and
        # the three code arrays into it (distinct_elements)
        self.elements = None
        self.codes = None
        self.notes = []

    def fail(self, check, witness=None):
        self.checks[check] = False
        if witness is not None:
            self.witnesses.append({"check": check, "witness": witness})

    def to_json(self):
        """The certificate as JSON-ready dicts, lists and arrays.  Q, P
        and the Krein tensor are CodedArrays of the certificate's code
        arrays into one shared list of CycloInt.to_json() dicts, one per
        distinct element, so CycloInt.approx() runs once per value.
        json.dumps needs the arrays' tolist()."""
        Q = P = krein = None
        if self.elements is not None:
            entries = [c.to_json() for c in self.elements]
            Q, P, krein = (CodedArray(code, entries) for code in self.codes)
        return {
            "mode": self.mode,
            "pass": self.passed,
            "d": None if self.valencies is None else len(self.valencies) - 1,
            "size": self.space.size,
            "valencies": self.valencies,
            "multiplicities": self.multiplicities,
            "Q": Q,
            "P": P,
            "sigma": self.sigma,
            "krein": krein,
            "krein_flags": self.krein_flags,
            "checks": self.checks,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }


def duality_report(gens_G, gens_Gc=None, matrix_bound=DEFAULT_MATRIX_BOUND):
    """Run the full duality pipeline and assemble the certificate.

    gens_Gc = None means self mode (the dual partition is G's own).  A
    class count d past the tensor bound of the space's size bound raises
    ResourceLimitError (space.check_tensor_size)."""
    space = gens_G.space
    mode = "self" if gens_Gc is None else "cross"
    auto_partner = False
    if gens_Gc is None and gens_G.poset is not None:
        # the dual partition of a weak-Hamming scheme lives on the dual
        # poset; palindromic level vectors keep this a self-duality
        gens_Gc = build_action(space, DUAL_FAMILY[gens_G.family],
                               **gens_G.params)
        levels = gens_G.poset.levels
        mode = "self" if tuple(levels) == tuple(reversed(levels)) else "cross"
        auto_partner = True
    cert = DualityCertificate(mode, space)
    if auto_partner:
        cert.notes.append("dual partition taken from the dual poset")
    # compared as built: equal configs index their points alike
    if gens_Gc is not None and gens_Gc.space is not space \
            and gens_Gc.space.to_config() != space.to_config():
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
    # every stage from P and Q on is (d + 1)^2 CycloInts or (d + 1)^3
    # work: past the tensor bound, stop before any of it
    check_tensor_size(part_G.d, space.size_bound)

    scheme_G = TranslationScheme(space, part_G, label=gens_G.label())
    scheme_Gc = scheme_G if gens_Gc is None else \
        TranslationScheme(space, part_Gc, label=gens_Gc.label())
    cert.valencies = scheme_G.valencies
    cert.multiplicities = part_Gc.sizes

    # the adjoint witness, verified independently: once its images keep
    # the dual classes, it proves constancy_G (the adjoint lemma)
    adjoint_G, verdict, detail = verified_adjoint(gens_G)
    cert.checks["adjoint"] = verdict
    if verdict is None:
        cert.notes.append("no adjoint witness: %s" % detail)
    elif not verdict:
        cert.fail("adjoint", detail)

    # Q from f_j over the dual classes, P from f_j over G's: each by the
    # adjoint lemma (for P, the second action's adjoints against G's
    # classes) from the pairing rows of the representatives when its
    # premise holds, else by the exhaustive test of the character profile
    # of the whole pairing table; with no second action both tests are
    # one test, run once, and P is Q, one array
    table, eigenmatrices = None, []
    for name, part, dual in (("G", part_G, part_Gc),
                             ("G_check", part_Gc, part_G)):
        if not eigenmatrices or gens_Gc is not None:
            adj = adjoint_G if name == "G" else verified_adjoint(gens_Gc)[0]
            if adj is not None and keeps_classes(adj, dual):
                reps = [cls[0] for cls in part.classes]
                ok, F = True, character_profile(space, dual,
                                                pairing_rows(space, reps))
            else:
                if table is None:
                    table = pairing_table(space)
                ok, F, witness = constancy_test(
                    part, character_profile(space, dual, table))
            eigenmatrix = sliced(F) if ok else None
        cert.checks["constancy_" + name] = ok
        if not ok:
            cert.fail("constancy_" + name, witness)
            return cert
        eigenmatrices.append(eigenmatrix)
    # from here on every check reads P, Q and their products: the
    # |X| x |X| table, when the exhaustive test built one, is freed, so
    # it does not add to the peak that the (d + 1)^3 Krein contraction
    # sets at large d
    del table, F
    Q, P = eigenmatrices
    m = space.character_order
    PQ = contract("ik,kj->ij", P, Q, m)

    eig = verify_eigen_identities(P, Q, PQ,
                                  scheme_G.valencies, cert.multiplicities,
                                  space.size, m)
    cert.checks["eigen_identities"] = eig["all_pass"]
    cert.checks["eigen_detail"] = eig

    if mode == "self":
        cert.checks["P_equals_Q"] = equal(P, Q)
        cert.checks["valencies_equal_multiplicities"] = \
            scheme_G.valencies == cert.multiplicities

    if space.size <= matrix_bound:
        idem = verify_idempotents(space, Q, PQ[0], eig["Q_col0_ones"])
        cert.checks["idempotents"] = idem["all_pass"]
        cert.checks["idempotent_detail"] = idem
        sigma, ok, witness = sigma_permutation(PQ[0], space.size)
        cert.sigma = sigma
        cert.checks["sigma_identity"] = ok and sigma == list(range(part_G.d + 1))
        if not ok:
            cert.fail("sigma", witness)
    else:
        cert.notes.append("idempotents not materialized (|X| above matrix "
                          "bound); certificate rests on constancy + PQ = |X|I")

    krein, flags = krein_parameters(P, Q, space.size, m, space.size_bound)
    cert.krein = krein
    cert.krein_flags = flags
    cert.checks["krein_real"] = flags["real"]
    cert.checks["krein_nonnegative"] = flags["nonnegative"]
    p_dual = scheme_Gc.intersection_numbers()
    ok, witness = krein_equals_intersection(krein, p_dual)
    cert.checks["krein_equals_dual_intersection"] = ok
    if not ok:
        cert.fail("krein_equals_dual_intersection", witness)

    # the axioms, intersection numbers (iv) included
    axioms = scheme_G.verify_axioms()
    cert.checks["axioms_G"] = axioms["all_pass"]

    # the schemes and their (d + 1)^3 intersection tensors are done with:
    # freed, they do not add to the peak of the distinct-value grouping
    del scheme_G, scheme_Gc, p_dual
    # in self mode P is Q: its rows are grouped once and share Q's codes
    cert.elements, cert.codes = distinct_elements(
        [Q, krein] if P is Q else [Q, P, krein], m)
    if P is Q:
        cert.codes.insert(1, cert.codes[0])
    cert.Q, cert.P = (cert.elements[code].tolist() for code in cert.codes[:2])

    required = [v for k, v in cert.checks.items()
                if isinstance(v, bool)]
    cert.passed = all(required)
    if cert.checks.get("adjoint") is None and cert.passed:
        cert.notes.append("dual (no adjoint witness)")
    return cert
