"""Helpers shared by the test modules."""

import numpy as np

from scheme_forge.action import build_action
from scheme_forge.cyclo import (CycloInt, contract, conjugate_array, equal,
                                euler_phi, nonzero, widen)
from scheme_forge.duality import CodedArray
from scheme_forge.errors import IntegrityError, UsageError

# the advisory float lower bound of krein_contraction's irrational entries
KREIN_FLOAT_FLOOR = -1e-9

# each weak-Hamming family and the family on its dual poset
DUAL_FAMILY = {"weak_hamming": "weak_hamming_dual",
               "weak_hamming_dual": "weak_hamming"}


def poset_partner(genset):
    """The weak-Hamming family on the dual poset of `genset`'s, built by
    name: the oracle of the dual partition that duality_report reads off
    the adjoint images of a weak-Hamming action in self mode."""
    return build_action(genset.space, DUAL_FAMILY[genset.family],
                        **genset.params)


def all_digits(space):
    """The |X| x N array D of the digits of every point, row x = d(x), in
    the space's index dtype: the oracle of the space's digit decoder, from
    np.indices over its radices (first digit most significant)."""
    radices = space.radices
    return np.indices(radices, space.place.dtype).reshape(len(radices), -1).T


# -- FieldElement oracles of the field's index tables (gf) ------------------

def conj(space, a):
    """conj(a) = a^q of a Hermitian space over F_{q^2}, on FieldElements."""
    return a ** space.base_q


def subfield(space):
    """The base subfield F_q of a Hermitian space over F_{q^2}, as
    FieldElements in index order: diagonal coordinate k stands for
    subfield(space)[k]."""
    return tuple(a for a in space.field.elements() if conj(space, a) == a)


def subfield_trace(a, f):
    """Tr_{F_{p^f}/F_p}(a) = a + a^p + ... + a^(p^(f-1)), an integer in
    [0, p), for a FieldElement a of the subfield F_{p^f}; UsageError for
    any other a or f."""
    spec = a.spec
    if spec.e % f != 0:
        raise UsageError("F_{p^%d} is not a subfield of F_{p^%d}"
                         % (f, spec.e))
    if a ** (spec.p ** f) != a:
        raise UsageError("element does not lie in the declared subfield")
    acc = x = a
    for _ in range(f - 1):
        x = x.frobenius()
        acc = acc + x
    assert not any(acc.coeffs[1:]), "subfield trace landed outside F_p"
    return acc.coeffs[0]


def multiplicative_order(a):
    """The least n >= 1 with a^n = 1, for a nonzero FieldElement a."""
    if a.is_zero():
        raise UsageError("zero has no multiplicative order")
    x, n = a, 1
    while x != a.spec.one():
        x, n = x * a, n + 1
    return n


def least_nonsquare(field):
    """The least (index order) nonsquare FieldElement of F_q, q odd."""
    if field.q % 2 == 0:
        raise UsageError("every element of a characteristic-2 field is a "
                         "square")
    squares = {(a * a).index for a in field.elements()}
    return next(a for a in field.elements() if a.index not in squares)


def is_irreducible(modulus, p):
    """Whether the monic modulus (constant term first) is irreducible over
    F_p: trial division by every monic polynomial of degree 1..e//2."""
    e = len(modulus) - 1
    for deg in range(1, e // 2 + 1):
        for idx in range(p ** deg):
            div = [idx // p ** k % p for k in range(deg)] + [1]
            # long division remainder of modulus by div
            rem = list(modulus)
            for i in range(len(rem) - 1, deg - 1, -1):
                c = rem[i]
                if c:
                    for j in range(deg + 1):
                        rem[i - deg + j] = (rem[i - deg + j]
                                            - c * div[j]) % p
            if not any(rem[:deg]):
                return False
    return True


def plain(obj):
    """obj with every array, ndarray or CodedArray, as its tolist(): what
    json.dumps takes of a report or certificate that holds arrays."""
    if isinstance(obj, (np.ndarray, CodedArray)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    return obj


def coeff_array(entries):
    """Nested lists of CycloInt -> integer array of their coefficients,
    shape (..., phi(m)); int64 when every coefficient fits, else Python
    integers (the inverse of cyclo_entries)."""
    def coeffs(e):
        return e.coeffs if isinstance(e, CycloInt) else [coeffs(x) for x in e]
    nested = coeffs(entries)
    try:
        return np.array(nested, dtype=np.int64)
    except OverflowError:
        return np.array(nested, dtype=object)


def cyclo_entries(A, m):
    """Inverse of coeff_array for ndim >= 2: nested lists of CycloInt of
    order m, one object per entry (the oracle for the shared objects of
    duality.distinct_elements)."""
    n = A.shape[-1]
    flat = A.reshape(-1).tolist()
    entries = [CycloInt(m, tuple(flat[i:i + n]), reduce=False)
               for i in range(0, len(flat), n)]
    for size in reversed(A.shape[1:-1]):
        entries = [entries[i:i + size] for i in range(0, len(entries), size)]
    return entries


def krein_contraction(P, Q, size, m):
    """The Krein parameters q_ij^k = (1/|X|) sum_l P[k][l] Q[l][i] Q[l][j]
    of support-width arrays P and Q over Z[zeta_m], by contraction: the
    oracle of duality.krein_parameters, which reads them off the dual
    intersection numbers (duality module docstring).

    Two contractions (cyclo.contract), "li,lj->lij" then "kl,lij->ijk",
    then an exact division by |X|: a sum that |X| does not divide raises
    IntegrityError naming the first (i, j, k).  Nonnegativity is decided
    exactly for rational-integer entries and by the rigorous float lower
    bound (>= KREIN_FLOAT_FLOOR) of CycloInt.approx for the others.
    Returns (support-width array T[i, j, k], flags dict), the flags with
    "worst_value", the least lower bound, when one is negative."""
    T, cols = contract("kl,lij->ijk", P, contract("li,lj->lij", Q, Q, m), m)
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
