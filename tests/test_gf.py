"""Finite field arithmetic, checked exhaustively at desk scale."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scheme_forge import oracles
from scheme_forge.errors import UsageError
from scheme_forge.gf import FieldSpec, BUILTIN_MODULI, is_prime

from helpers import (is_irreducible, least_nonsquare, multiplicative_order,
                     subfield_trace)


FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 4), (3, 2), (5, 2)]

# every prime field F_p, p < 64, the built-in extension fields, and F_256
# with the modulus t^8 + t^4 + t^3 + t^2 + 1: (p, e, modulus)
F256 = (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))
TABLE_FIELDS = ([(p, 1, None) for p in range(2, 64) if is_prime(p)]
                + [(p, e, None) for p, e in BUILTIN_MODULI] + [F256])
TABLE_IDS = ["%d-%d" % (p, e) for p, e, _ in TABLE_FIELDS]


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
    assert FieldSpec(5).primitive == 2   # 2 has order 4 mod 5
    assert FieldSpec(7).primitive == 3   # 3 has order 6 mod 7
    for p, e in FIELDS:
        F = FieldSpec(p, e)
        w = F.from_index(F.primitive)
        assert multiplicative_order(w) == F.q - 1


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
        assert subfield_trace(a, f) == expect.coeffs[0]
        assert F.trace(f)[a.index] == expect.coeffs[0]
    outside = next(a for a in F.elements() if (a ** 4).coeffs != a.coeffs)
    with pytest.raises(UsageError):
        subfield_trace(outside, f)


def test_frobenius_is_additive_automorphism():
    F = FieldSpec(3, 2)
    for a in F.elements():
        for b in F.elements():
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(UsageError):
        FieldSpec(2).one() + FieldSpec(3).one()


@pytest.mark.parametrize("p,e,modulus", TABLE_FIELDS, ids=TABLE_IDS)
def test_index_tables_match_field_arithmetic(p, e, modulus):
    """add, mul and neg on element indices are FieldElement +, * and
    unary -, on every element and every pair of elements, or on 4096
    random pairs where every pair would take longer than 0.5 s (F_256)."""
    F = FieldSpec(p, e, modulus)
    els = F.elements()
    add, mul, neg = F.tables()
    if F.q <= 64:
        pairs = list(itertools.product(range(F.q), repeat=2))
    else:
        pairs = np.random.default_rng(0).integers(0, F.q, (4096, 2)).tolist()
    assert [add[a, b] for a, b in pairs] == [(els[a] + els[b]).index
                                             for a, b in pairs]
    assert [mul[a, b] for a, b in pairs] == [(els[a] * els[b]).index
                                             for a, b in pairs]
    assert neg.tolist() == [(-a).index for a in els]
    assert F.tables() is F.tables()


@pytest.mark.parametrize("p,e,modulus", TABLE_FIELDS, ids=TABLE_IDS)
def test_derived_tables_match_field_elements(p, e, modulus):
    """inverse, the Frobenius powers x -> x^(p^k), power, trace, the
    primitive element and the least nonsquare agree with FieldElement
    arithmetic on every element."""
    F = FieldSpec(p, e, modulus)
    els, every = F.elements(), np.arange(F.q)
    assert F.inverse[0] == 0
    assert F.inverse[1:].tolist() == [a.inv().index for a in els[1:]]
    for k in range(1, e + 1):
        assert F.power(every, p ** k).tolist() == [a.frobenius(k).index
                                                   for a in els]
    for n in (0, 1, 2, F.q - 2, F.q - 1):
        assert F.power(every, n).tolist() == [(a ** n).index for a in els]
    assert F.trace().tolist() == [a.trace() for a in els]
    assert F.primitive == next(a.index for a in els[1:]
                               if multiplicative_order(a) == F.q - 1)
    if p == 2:
        with pytest.raises(UsageError):
            F.least_nonsquare()
    else:
        assert F.least_nonsquare() == least_nonsquare(F).index


# every monic modulus of degree 2-4 over F_2 and F_3, and of degree 2 over
# F_5 and F_7: (p, modulus, constant term first)
MODULI = [(p, tuple(low) + (1,)) for p, degrees in
          ((2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2,)), (7, (2,)))
          for e in degrees for low in itertools.product(range(p), repeat=e)]


@pytest.mark.parametrize("p,modulus", MODULI)
def test_zero_divisor_verdict_matches_trial_division(p, modulus):
    """FieldSpec accepts a modulus iff its products have no zero divisor,
    which is iff trial division finds no factor of it."""
    e = len(modulus) - 1
    if is_irreducible(modulus, p):
        assert FieldSpec(p, e, modulus).modulus == modulus
    else:
        with pytest.raises(UsageError, match="reducible"):
            FieldSpec(p, e, modulus)


RANK_FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2), FieldSpec(3, 2)]


@st.composite
def matrix_stacks(draw):
    """A field of RANK_FIELDS and a stack of matrices over it, each of
    the same shape up to 4 x 5, with a zero matrix and one of full rank
    among them."""
    F = draw(st.sampled_from(RANK_FIELDS))
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cells = st.lists(st.integers(0, F.q - 1), min_size=r * c,
                     max_size=r * c)
    stack = draw(st.lists(cells, max_size=5))
    full = np.eye(r, c, dtype=np.intp)
    full[np.nonzero(full)] = draw(st.integers(1, F.q - 1))
    return F, np.concatenate([np.array(stack, np.intp).reshape(-1, r, c),
                              np.zeros((1, r, c), dtype=np.intp), [full]])


@settings(max_examples=200, deadline=None)
@given(matrix_stacks())
def test_stacked_ranks_match_gaussian_elimination(case):
    """FieldSpec.ranks, one row reduction of a whole stack, agrees with
    oracles.matrix_rank on FieldElements matrix by matrix."""
    F, A = case
    els = F.elements()
    want = [oracles.matrix_rank([[els[a] for a in row] for row in M], F)
            for M in A.tolist()]
    assert F.ranks(A).tolist() == want
    assert want[-2:] == [0, min(A.shape[1:])]
    assert F.ranks(A[0]) == want[0]


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
