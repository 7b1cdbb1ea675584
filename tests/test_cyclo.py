"""Exact cyclotomic integer arithmetic."""

import cmath
import math
import random

import numpy as np
import pytest
import sympy

from scheme_forge import cyclo
from scheme_forge.cyclo import (CycloInt, cyclotomic_polynomial, euler_phi,
                                coeff_array, cyclo_entries, contract,
                                conjugate_array, reduction_matrix,
                                structure_constants, conjugation_matrix,
                                sliced, widen, equal)

ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 12]


def from_exponent_counts(m, counts):
    """Sum of counts[k] * zeta_m^k; counts is a length-m sequence."""
    return CycloInt(m, list(counts))


def full_width(X, m):
    """A support-width array (A, cols) as a full-width array."""
    A, cols = X
    return widen(A, cols, np.arange(euler_phi(m)))


def unsliced_contract(spec, A, B, m, dtype=object):
    """cyclo.contract without support slicing: one three-operand einsum
    over all phi(m) coefficients, contracting A with the structure
    constants first.  dtype=object is exact; dtype=np.float64 (BLAS) is
    exact while every partial sum stays below 2^53, which is asserted
    from the same bound as contract's."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    M = structure_constants(m)
    if dtype is not object:
        sizes = dict(zip(sa + sb, A.shape[:-1] + B.shape[:-1]))
        terms = math.prod(n for c, n in sizes.items() if c not in out)
        assert (terms * M.shape[0] ** 2 * int(abs(A).max(initial=1))
                * int(abs(B).max(initial=1)) * int(abs(M).max()) < 2 ** 53)
    R = np.einsum("%sX,%sY,XYZ->%sZ" % (sa, sb, out),
                  *(np.asarray(X, dtype=dtype) for X in (A, B, M)),
                  optimize=["einsum_path", (0, 2), (0, 1)])
    return R.astype(object if dtype is object else np.int64)


def unsliced_conjugate(A, m, dtype=object):
    """cyclo.conjugate_array without support slicing; exact on Python
    integers, and in float64 while the bound on partial sums, asserted,
    stays below 2^53."""
    C = conjugation_matrix(m)
    if dtype is not object:
        assert (C.shape[0] * int(abs(A).max(initial=1))
                * int(abs(C).max()) < 2 ** 53)
    R = np.einsum("...X,XZ->...Z", np.asarray(A, dtype=dtype),
                  C.astype(dtype))
    return R.astype(object if dtype is object else np.int64)


def divide_exact(c, n):
    """c / n for an integer n; every coefficient must be divisible."""
    if any(a % n for a in c.coeffs):
        raise ArithmeticError("inexact division of %r by %d" % (c, n))
    return CycloInt(c.order, tuple(a // n for a in c.coeffs), reduce=False)


def as_rational_integer(c):
    """The integer n if c == n*1, else None."""
    return None if any(c.coeffs[1:]) else c.coeffs[0]


def is_real(c):
    return c.conjugate() == c


def test_cyclotomic_polynomials_frozen():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)   # frozen oracle
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)


def test_euler_phi():
    for m in ORDERS:
        assert euler_phi(m) == sum(1 for k in range(1, m + 1)
                                   if math.gcd(k, m) == 1)


@pytest.mark.parametrize("m", ORDERS)
def test_roots_of_unity_multiply(m):
    for a in range(m):
        for b in range(m):
            lhs = CycloInt.root_of_unity(m, a) * CycloInt.root_of_unity(m, b)
            assert lhs == CycloInt.root_of_unity(m, a + b)


def test_zeta5_fourth_power_reduction():
    # frozen: z^4 = -1 - z - z^2 - z^3 in the power basis mod Phi_5
    assert CycloInt.root_of_unity(5, 4).coeffs == (-1, -1, -1, -1)


@pytest.mark.parametrize("m", ORDERS)
def test_geometric_sum_vanishes(m):
    total = CycloInt.zero(m)
    for k in range(m):
        total = total + CycloInt.root_of_unity(m, k)
    if m == 1:
        assert total == CycloInt.integer(1, 1)
    else:
        assert total.is_zero()


def test_from_exponent_counts():
    """An exponent histogram reduces through the reduction matrix as
    through CycloInt's reduction."""
    counts = [0] * 8
    counts[1] = 3
    counts[5] = 2
    v = from_exponent_counts(8, counts)
    expect = 3 * CycloInt.root_of_unity(8, 1) + 2 * CycloInt.root_of_unity(8, 5)
    assert v == expect
    assert tuple((np.array(counts) @ reduction_matrix(8)).tolist()) == \
        expect.coeffs


def test_conjugate_and_real():
    z = CycloInt.root_of_unity(5, 1)
    assert z.conjugate() == CycloInt.root_of_unity(5, 4)
    r = z + z.conjugate()
    assert is_real(r)
    assert not is_real(z)
    assert (z * z.conjugate()) == CycloInt.integer(5, 1)


def test_divide_exact():
    v = CycloInt.integer(5, 10) + 15 * CycloInt.root_of_unity(5, 2)
    w = divide_exact(v, 5)
    assert w == CycloInt.integer(5, 2) + 3 * CycloInt.root_of_unity(5, 2)
    with pytest.raises(ArithmeticError):
        divide_exact(v, 4)


def test_as_rational_integer():
    assert as_rational_integer(CycloInt.integer(12, -7)) == -7
    assert as_rational_integer(CycloInt.root_of_unity(12, 1)) is None


@pytest.mark.parametrize("m", ORDERS)
def test_approx_matches_complex_embedding(m):
    for k in range(m):
        v, err = CycloInt.root_of_unity(m, k).approx()
        assert abs(v - cmath.exp(2j * math.pi * k / m)) < 1e-9 + err


def test_render():
    v = CycloInt.integer(5, 2) - 3 * CycloInt.root_of_unity(5, 2)
    assert v.render() == "2 - 3*z^2"
    assert CycloInt.zero(5).render() == "0"


def test_json_round_shape():
    j = CycloInt.root_of_unity(4, 1).to_json()
    assert j["order"] == 4 and j["coeffs"] == [0, 1]
    assert j["approx"] == [0.0, 1.0]


@pytest.mark.parametrize("m", ORDERS)
def test_contract_matches_scalar_products(m):
    """A 2x3 by 3x2 product and an entrywise conjugate of coefficient
    arrays equal the CycloInt loops."""
    rng = random.Random(m)

    def rand():
        return CycloInt(m, [rng.randint(-4, 4) for _ in range(m)])

    A = [[rand() for _ in range(3)] for _ in range(2)]
    B = [[rand() for _ in range(2)] for _ in range(3)]
    AB = contract("ik,kj->ij", sliced(coeff_array(A)), sliced(coeff_array(B)),
                  m)
    assert cyclo_entries(full_width(AB, m), m) == [
        [sum((A[i][k] * B[k][j] for k in range(3)), CycloInt.zero(m))
         for j in range(2)] for i in range(2)]
    conj = conjugate_array(sliced(coeff_array(A)), m)
    assert cyclo_entries(full_width(conj, m), m) == \
        [[a.conjugate() for a in row] for row in A]


# -- independent oracle: sympy's cyclotomic polynomials ---------------------


@pytest.mark.parametrize("m", ORDERS + [16, 80])
def test_tables_match_sympy(m):
    """R[k] (k < m), M[a, b] and C[a] are the coefficients of
    rem(x^k, Phi_m), rem(x^(a+b), Phi_m) and rem(x^(m-a), Phi_m), with
    Phi_m and the remainders from sympy."""
    x = sympy.Symbol("x")
    phi_m = sympy.cyclotomic_poly(m, x)
    n = euler_phi(m)

    def power(k):
        coeffs = sympy.Poly(sympy.rem(x ** k, phi_m, x), x).all_coeffs()
        coeffs = [int(c) for c in reversed(coeffs)]
        return coeffs + [0] * (n - len(coeffs))
    powers = [power(k) for k in range(max(m, 2 * n - 1))]
    assert reduction_matrix(m).tolist() == powers[:m]
    assert structure_constants(m).tolist() == [
        [powers[a + b] for b in range(n)] for a in range(n)]
    assert conjugation_matrix(m).tolist() == [powers[-a % m]
                                              for a in range(n)]


# -- support slicing against the unsliced einsum -----------------------------

def random_coeffs(rng, shape, n, zero_columns, low=-9, high=9):
    A = rng.integers(low, high, size=shape + (n,), endpoint=True)
    A[..., zero_columns] = 0
    return A


SLICING_CASES = [(m, seed) for m in (5, 8, 12, 16) for seed in range(4)]


@pytest.mark.parametrize("m,seed", SLICING_CASES)
def test_sliced_contract_matches_unsliced(m, seed):
    """Random operands with random zero coefficient columns: contract
    and conjugate_array of their support-width arrays equal the unsliced
    einsum on every spec the pipeline uses, and hold only columns that
    z^a z^b (or z^-a) can reach, and column 0."""
    rng = np.random.default_rng(seed)
    n = euler_phi(m)

    def operand(shape):
        zero = rng.choice(n, size=rng.integers(0, n, endpoint=True),
                          replace=False)
        return random_coeffs(rng, shape, n, zero)
    for spec, sa, sb in (("ik,kj->ij", (3, 4), (4, 2)),
                         ("i,ij->ij", (3,), (3, 3)),
                         ("ij,ik->jk", (3, 2), (3, 4)),
                         ("li,lj->lij", (3, 2), (3, 2)),
                         ("kl,lij->ijk", (2, 3), (3, 2, 2))):
        A, B = operand(sa), operand(sb)
        (X, ka), (Y, kb) = sliced(A), sliced(B)
        assert ka[0] == kb[0] == 0 and not A[..., np.setdiff1d(range(n), ka)
                                           ].any()
        out, kz = contract(spec, (X, ka), (Y, kb), m)
        assert out.dtype == np.int64 and out.shape[-1] == len(kz)
        reach = structure_constants(m)[np.ix_(ka, kb)].any(axis=(0, 1))
        assert kz.tolist() == sorted(set(np.flatnonzero(reach)) | {0})
        assert full_width((out, kz), m).tolist() == \
            unsliced_contract(spec, A, B, m).tolist()
        assert full_width(conjugate_array((X, ka), m), m).tolist() == \
            unsliced_conjugate(A, m).tolist()


@pytest.mark.parametrize("m", [5, 8, 12])
def test_contract_all_zero_operand(m):
    """An operand with no nonzero column is sliced to column 0 alone:
    the result is all zeros, as unsliced."""
    n = euler_phi(m)
    rng = np.random.default_rng(m)
    A = np.zeros((3, 3, n), dtype=np.int64)
    B = random_coeffs(rng, (3, 3), n, [])
    assert sliced(A)[1].tolist() == [0]
    for X, Y in ((A, B), (B, A), (A, A)):
        out = full_width(contract("ik,kj->ij", sliced(X), sliced(Y), m), m)
        assert out.shape == (3, 3, n) and not out.any()
        assert out.tolist() == unsliced_contract("ik,kj->ij", X, Y, m).tolist()
    assert full_width(conjugate_array(sliced(A), m), m).tolist() == \
        A.tolist()


@pytest.mark.parametrize("m", [5, 8, 12, 16])
def test_contract_lone_power_columns(m):
    """Operands holding only z^a and z^b: the product has the support of
    z^(a+b) reduced, and every (a, b) matches the unsliced einsum."""
    n = euler_phi(m)
    rng = np.random.default_rng(m)
    for a in range(n):
        for b in range(n):
            A = random_coeffs(rng, (2, 3), n, [k for k in range(n) if k != a])
            B = random_coeffs(rng, (3, 2), n, [k for k in range(n) if k != b])
            out = full_width(contract("ik,kj->ij", sliced(A), sliced(B), m),
                             m)
            assert out.tolist() == unsliced_contract("ik,kj->ij", A, B,
                                                     m).tolist()
            assert not out[..., ~structure_constants(m)[a, b].astype(bool)
                           ].any()
        assert full_width(conjugate_array(sliced(A), m), m).tolist() == \
            unsliced_conjugate(A, m).tolist()


@pytest.mark.parametrize("m", [5, 12])
def test_contract_object_branch_after_slicing(m):
    """Coefficients near 2^40 in two columns only: the bound on the
    sliced operands is still past 2^63, so the contraction runs on Python
    integers, equal to the unsliced einsum and beyond int64."""
    n = euler_phi(m)
    rng = random.Random(m)
    keep = [1, n - 1]

    def big(shape):
        A = np.zeros(shape + (n,), dtype=object)
        for idx in np.ndindex(*shape):
            for k in keep:
                A[idx + (k,)] = rng.choice((1, -1)) * rng.randint(2 ** 39,
                                                                  2 ** 40)
        return A
    A, B = big((3, 3)), big((3, 3))
    out = contract("ik,kj->ij", sliced(A), sliced(B), m)
    assert out[0].dtype == object
    out = full_width(out, m)
    assert out.tolist() == unsliced_contract("ik,kj->ij", A, B, m).tolist()
    assert max(abs(c) for c in out.ravel().tolist()) >= 2 ** 63
    conj = conjugate_array(sliced(out), m)
    assert conj[0].dtype == object
    assert full_width(conj, m).tolist() == unsliced_conjugate(out, m).tolist()


# -- the exact kernel's dtype tiers against Python integers ------------------

PIPELINE_SPECS = [("ik,kj->ij", (2, 3), (3, 2)), ("i,ij->ij", (3,), (3, 2)),
                  ("ij,ik->jk", (3, 2), (3, 2)),
                  ("li,lj->lij", (2, 3), (2, 3)),
                  ("kl,lij->ijk", (2, 3), (3, 2, 2))]


def tier(bound):
    """The dtype exact_matmul computes in for a bound: 0 for float64,
    1 for int64, 2 for Python integers."""
    return (bound >= 2 ** 53) + (bound >= 2 ** 63)


def odd_near(edge, k, above):
    """The odd a with k a^2 nearest below (or above) edge, a power of 2."""
    a = math.isqrt(edge // k) + above
    return a + (1 if above else -1) if a % 2 == 0 else a


def operand(shape, value):
    return np.full(shape + (1,), value,
                   dtype=np.int64 if abs(value) < 2 ** 63 else object)


@pytest.mark.parametrize("edge", [2 ** 53, 2 ** 63])
@pytest.mark.parametrize("above", [False, True])
def test_exact_matmul_tiers_match_python_integers(edge, above, monkeypatch):
    """Over Z (m = 1, M = [[[1]]]), every spec the pipeline contracts
    with every entry of A equal to -a and every entry of B to a, a odd:
    each result entry is -K a^2, K the contracted size (1 or 3), as large
    as contract's bound, which a puts just below or just above 2^53 or
    2^63; conjugate_array likewise with entries -(edge -+ 1).
    Every result equals the Python-integer einsum.  Above 2^53 these odd
    entries are not float64 numbers and above 2^63 not int64 ones, so a
    tier used past its edge fails; the spy asserts that each bound
    reaches the tier on its side of the edge."""
    bounds = []
    real = cyclo.exact_matmul

    def spy(A, B, bound):
        bounds.append(bound)
        return real(A, B, bound)

    monkeypatch.setattr(cyclo, "exact_matmul", spy)
    want = tier(edge) - (not above)
    for spec, sa, sb in PIPELINE_SPECS:
        ins, out = spec.split("->")
        k = 3 if set(ins) - {","} - set(out) else 1
        a = odd_near(edge, k, above)
        A, B = operand(sa, -a), operand(sb, a)
        bounds.clear()
        got, cols = contract(spec, sliced(A), sliced(B), 1)
        assert cols.tolist() == [0]
        assert got.tolist() == unsliced_contract(spec, A, B, 1).tolist()
        assert abs(got.ravel()[0]) == k * a * a
        assert [tier(b) for b in bounds] == [want, want], spec
        assert got.dtype == (object if want == 2 else np.int64)
    A = operand((2, 3), -(edge + 1 if above else edge - 1))
    bounds.clear()
    got, cols = conjugate_array(sliced(A), 1)
    assert got.tolist() == unsliced_conjugate(A, 1).tolist()
    assert [tier(b) for b in bounds] == [want]


@pytest.mark.parametrize("m", [5, 8, 12])
def test_equal_aligns_columns(m):
    """Two support-width arrays are equal exactly when their full-width
    arrays are, whatever columns each carries."""
    n = euler_phi(m)
    rng = np.random.default_rng(m)
    A = random_coeffs(rng, (3, 2), n, range(1, n, 2))
    wide = (A, np.arange(n))
    assert equal(sliced(A), wide) and equal(wide, sliced(A))
    B = A.copy()
    B[1, 1, n - 1] += 1
    assert not equal(sliced(A), sliced(B)) and not equal(sliced(B), wide)
    assert equal(sliced(np.zeros_like(A)), (np.zeros((3, 2, 1), int),
                                            np.zeros(1, int)))
