"""Exact cyclotomic integer arithmetic."""

import cmath
import math
import random

import pytest

from scheme_forge.cyclo import (CycloInt, cyclotomic_polynomial, euler_phi,
                                coeff_array, cyclo_entries, contract,
                                conjugate_array)

ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 12]


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
    counts = [0] * 8
    counts[1] = 3
    counts[5] = 2
    v = CycloInt.from_exponent_counts(8, counts)
    expect = 3 * CycloInt.root_of_unity(8, 1) + 2 * CycloInt.root_of_unity(8, 5)
    assert v == expect


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
    AB = contract("ik,kj->ij", coeff_array(A), coeff_array(B), m)
    assert cyclo_entries(AB, m) == [
        [sum((A[i][k] * B[k][j] for k in range(3)), CycloInt.zero(m))
         for j in range(2)] for i in range(2)]
    assert cyclo_entries(conjugate_array(coeff_array(A), m), m) == \
        [[a.conjugate() for a in row] for row in A]
