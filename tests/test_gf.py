"""Finite field arithmetic, checked exhaustively at desk scale."""

import numpy as np
import pytest

from scheme_forge.errors import UsageError
from scheme_forge.gf import FieldSpec, BUILTIN_MODULI


FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 4), (3, 2), (5, 2)]


@pytest.mark.parametrize("p,e", FIELDS)
def test_field_axioms_exhaustive(p, e):
    F = FieldSpec(p, e)
    els = F.elements()
    assert len(els) == p ** e
    zero, one = F.zero(), F.one()
    for a in els:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * a.inv() == one
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) * c == a * c + b * c


@pytest.mark.parametrize("p,e", FIELDS)
def test_index_roundtrip(p, e):
    F = FieldSpec(p, e)
    for i in range(F.q):
        assert F.from_index(i).index == i


def test_builtin_moduli_are_irreducible():
    for (p, e), mod in BUILTIN_MODULI.items():
        F = FieldSpec(p, e, modulus=mod)  # constructor verifies irreducibility
        assert F.modulus == mod


def test_reducible_modulus_rejected():
    # t^2 - 1 = (t-1)(t+1) over F_5
    with pytest.raises(UsageError):
        FieldSpec(5, 2, modulus=(4, 0, 1))


def test_primitive_element_orders():
    # frozen oracle values: least primitive roots
    assert FieldSpec(5).primitive_element().index == 2   # 2 has order 4 mod 5
    assert FieldSpec(7).primitive_element().index == 3   # 3 has order 6 mod 7
    for p, e in FIELDS:
        F = FieldSpec(p, e)
        w = F.primitive_element()
        assert w.multiplicative_order() == F.q - 1


def test_trace_f4():
    # frozen: tr(t) = t + t^2 = t + (t+1) = 1 in F_4 with t^2 = t + 1
    F = FieldSpec(2, 2)
    t = F.element((0, 1))
    assert t.trace() == 1
    assert F.one().trace() == 0  # 1 + 1 = 0
    # trace is F_p-linear and onto
    for p, e in FIELDS:
        F = FieldSpec(p, e)
        traces = {a.trace() for a in F.elements()}
        assert traces == set(range(p))
        for a in F.elements():
            for b in F.elements():
                assert (a + b).trace() == (a.trace() + b.trace()) % p


def test_subfield_trace_f4_over_f2():
    F = FieldSpec(2, 4)
    f = 2
    sub = [a for a in F.elements() if (a ** (2 ** f)).coeffs == a.coeffs]
    assert len(sub) == 4
    for a in sub:
        # tr_{F_4/F_2}(a) = a + a^2 on the subfield copy
        expect = a + a.frobenius(1)
        assert not any(expect.coeffs[1:])
        assert a.subfield_trace(f) == expect.coeffs[0]
    outside = next(a for a in F.elements() if (a ** 4).coeffs != a.coeffs)
    with pytest.raises(UsageError):
        outside.subfield_trace(f)


def test_frobenius_is_additive_automorphism():
    F = FieldSpec(3, 2)
    for a in F.elements():
        for b in F.elements():
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(UsageError):
        FieldSpec(2).one() + FieldSpec(3).one()


@pytest.mark.parametrize("p,e", FIELDS + [(2, 3), (3, 3)])
def test_index_tables_match_field_arithmetic(p, e):
    """add, mul and neg on element indices are FieldElement +, * and
    unary -, on every element (pair)."""
    F = FieldSpec(p, e)
    els = F.elements()
    add, mul, neg = F.tables()
    assert add.tolist() == [[(a + b).index for b in els] for a in els]
    assert mul.tolist() == [[(a * b).index for b in els] for a in els]
    assert neg.tolist() == [(-a).index for a in els]
    assert F.tables() is F.tables()


def test_matmul_matches_field_arithmetic():
    """matmul over F_9, stacked and broadcast, against the sum of
    FieldElement products entry by entry."""
    F = FieldSpec(3, 2)
    els = F.elements()
    rng = np.random.default_rng(0)
    A = rng.integers(0, 9, size=(5, 2, 3))
    B = rng.integers(0, 9, size=(3, 4))
    want = [[[sum((els[a[i][k]] * els[B[k][j]] for k in range(3)),
                  F.zero()).index for j in range(4)] for i in range(2)]
            for a in A.tolist()]
    assert F.matmul(A, B).tolist() == want
