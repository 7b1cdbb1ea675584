"""Vertex spaces: group structure, indexing, and pairing axioms."""

import functools
import itertools
import json
import math
import os
import tracemalloc
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scheme_forge.cyclo import CycloInt
from scheme_forge.errors import UsageError, ResourceLimitError
from scheme_forge.gf import FieldSpec
from scheme_forge import space as space_module
from scheme_forge.space import (VectorSpace, FullMatrixSpace,
                                AlternatingMatrixSpace, SymmetricMatrixSpace,
                                HermitianMatrixSpace, CyclicProductSpace,
                                GramSpace, pairing_rows, pairing_table,
                                space_from_config)

from helpers import all_digits, conj, subfield, subfield_trace

SPACES = [
    VectorSpace(2, FieldSpec(2)),
    VectorSpace(1, FieldSpec(5)),
    VectorSpace(2, FieldSpec(3)),
    VectorSpace(2, FieldSpec(2, 2)),
    FullMatrixSpace(2, 2, FieldSpec(2)),
    AlternatingMatrixSpace(3, FieldSpec(2)),
    SymmetricMatrixSpace(2, FieldSpec(3)),
    HermitianMatrixSpace(2, FieldSpec(2, 2)),
    CyclicProductSpace((8,)),
    CyclicProductSpace((2, 4)),
]

# extension fields of odd characteristic, and a Hermitian space whose
# diagonal runs over the proper subfield F_4 of F_16
ORACLE_SPACES = SPACES + [
    VectorSpace(2, FieldSpec(3, 2)),
    SymmetricMatrixSpace(2, FieldSpec(3, 2)),
    HermitianMatrixSpace(2, FieldSpec(3, 2)),
    HermitianMatrixSpace(2, FieldSpec(2, 4)),
]


# -- oracle: the per-kind FieldElement formulas the digit core replaced ------

def oracle_add_tables(space):
    """Per free coordinate, table[a][b] = index of the sum of the values
    that indices a and b stand for: addition mod m_i on a cyclic factor,
    FieldElement addition otherwise."""
    if space.kind == "cyclic_product":
        return [[[(a + b) % m for b in range(m)] for a in range(m)]
                for m in space.moduli]
    values = [space.field.elements()] * len(space.coords_of(0))
    if space.kind == "matrix_hermitian":
        values[:space.m] = [subfield(space)] * space.m
    tables = []
    for vals in values:
        index = {v: k for k, v in enumerate(vals)}
        tables.append([[index[a + b] for b in vals] for a in vals])
    return tables


def oracle_pairing(space):
    """pairing(x, y) by the per-kind formula: a sum of entry products in F_q
    followed by the trace (Hermitian: sum_ij A_ij B_ji and the trace of
    the base subfield), or sum (m/m_i) x_i y_i mod m for cyclic products.
    F_q addition and multiplication are tabulated from FieldElement
    arithmetic on element indices."""
    if space.kind == "cyclic_product":
        m = space.character_order
        return lambda x, y: sum(
            (m // mi) * a * b for mi, a, b in
            zip(space.moduli, space.coords_of(x), space.coords_of(y))) % m
    els = space.field.elements()
    add = [[(a + b).index for b in els] for a in els]
    mul = [[(a * b).index for b in els] for a in els]
    final = {a.index: a.trace() for a in els}
    entries = []  # row-major entry indices of each materialized point
    for x in range(space.size):
        A = space.materialize(x)
        flat = A if space.kind == "vector" else [v for row in A for v in row]
        entries.append([v.index for v in flat])
    m = getattr(space, "m", None)
    if space.kind == "matrix_alternating":
        terms = [(i * m + j, i * m + j)
                 for i, j in zip(space._rows, space._cols)]
    elif space.kind == "matrix_hermitian":
        terms = [(i * m + j, j * m + i) for i in range(m) for j in range(m)]
        final = {a.index: subfield_trace(a, space.base_f)
                 for a in subfield(space)}
    else:  # vector, full and symmetric (sum_ij A_ij B_ij = tr(AB))
        terms = [(k, k) for k in range(len(entries[0]))]

    def pairing(x, y):
        ex, ey = entries[x], entries[y]
        acc = 0  # index of the zero element
        for s, t in terms:
            acc = add[acc][mul[ex[s]][ey[t]]]
        return final[acc]
    return pairing


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=lambda s: repr(s))
def test_digit_core_matches_field_oracle(space):
    """add and pairing_exponent agree with coordinatewise FieldElement
    addition and the per-kind trace formulas on every pair of points."""
    tables = oracle_add_tables(space)
    pairing = oracle_pairing(space)
    coords = [space.coords_of(x) for x in range(space.size)]
    points = np.arange(space.size)
    for x in range(space.size):
        cx = coords[x]
        want_add = [space.index_of(tuple(t[a][b] for t, a, b
                                         in zip(tables, cx, coords[y])))
                    for y in range(space.size)]
        assert space.add(x, points).tolist() == want_add
        assert (space.pairing_exponent(x, points).tolist()
                == [pairing(x, y) for y in range(space.size)])


def index_of_entries(space, A):
    """The point whose materialized vector or matrix of FieldElements is A,
    read from its free coordinates one entry at a time (the per-point
    encoder that the array encoder `points_of` replaced).  A Hermitian
    diagonal entry outside the subfield raises ValueError."""
    if space.kind == "vector":
        coords = [a.index for a in A]
    elif space.kind == "matrix_full":
        coords = [a.index for row in A for a in row]
    else:
        coords = [A[i][j].index for i, j in zip(space._rows, space._cols)]
        if space.kind == "matrix_hermitian":
            coords[:space.m] = [subfield(space).index(A[i][i])
                                for i in range(space.m)]
    return space.index_of(tuple(coords))


# -- oracle: the tuple-of-digits group law and pairing the array core replaced

class TupleDigits:
    """The group law and pairing of `space` on Python tuples of digits, one
    point at a time, with B read back from `space.gram`."""

    def __init__(self, space):
        self.radices = space.radices
        self.place = [math.prod(self.radices[i + 1:])
                      for i in range(len(self.radices))]
        self.digits = list(itertools.product(*(range(r)
                                               for r in self.radices)))
        self.m = space.character_order
        self.lam = space.lambda_multiplier
        cols = list(zip(*space.gram.tolist()))
        self.gram_rows = [tuple(sum(map(mul, d, col)) % self.m
                                for col in cols) for d in self.digits]

    def index_of_digits(self, digits):
        return sum(d % r * w for d, r, w in zip(digits, self.radices,
                                                 self.place))

    def add(self, x, y):
        return self.index_of_digits(map(int.__add__, self.digits[x],
                                        self.digits[y]))

    def neg(self, x):
        return self.index_of_digits(map(int.__neg__, self.digits[x]))

    def sub(self, x, y):
        return self.index_of_digits(map(int.__sub__, self.digits[x],
                                        self.digits[y]))

    def scalar_mul(self, x, u):
        return self.index_of_digits(u * d for d in self.digits[x])

    def pairing_exponent(self, x, y):
        return sum(map(mul, self.gram_rows[x], self.digits[y])) % self.m

    def pairing_table(self):
        n = len(self.digits)
        return [[self.pairing_exponent(x, y) * self.lam % self.m
                 for y in range(n)] for x in range(n)]

    def verify_nondegenerate(self):
        """The exhaustive scan over all pairs."""
        n = len(self.digits)
        for x in range(1, n):
            if all(self.pairing_exponent(x, y) * self.lam % self.m == 0
                   for y in range(n)):
                return False, x
        return True, None


def assert_matches_tuple_oracle(space, units=(0, 1, 2, 3, -1, -5, 1000,
                                              10 ** 30, -10 ** 30 - 7)):
    """The array group law (index and index-array calls), pairing_exponent,
    pairing_table and verify_nondegenerate equal the tuple oracle's on
    every point and every pair of points; scalar_mul does at the `units`,
    beyond 2^63 among them, and at multiples of the group exponent, off
    by one or not."""
    exponent = math.lcm(*space.radices)
    units += tuple(k * exponent + s for k in (1, -2, 10 ** 20)
                   for s in (0, 1, -1))
    oracle = TupleDigits(space)
    n = space.size
    points = np.arange(n)
    col, row = points[:, None], points[None, :]
    for name in ("add", "sub", "pairing_exponent"):
        want = [[getattr(oracle, name)(x, y) for y in range(n)]
                for x in range(n)]
        got = getattr(space, name)(col, row)
        assert got.shape == (n, n) and got.tolist() == want, name
        assert [getattr(space, name)(x, y) for x, y in
                ((0, n - 1), (n - 1, n // 2))] == [want[0][n - 1],
                                                   want[n - 1][n // 2]]
    want = [oracle.neg(x) for x in range(n)]
    assert space.neg(points).tolist() == want
    assert [space.neg(x) for x in range(n)] == want
    for u in units:
        want = [oracle.scalar_mul(x, u) for x in range(n)]
        assert space.scalar_mul(points, u).tolist() == want, u
        assert space.scalar_mul(n - 1, u) == want[n - 1]
    assert type(space.add(0, 0)) is int
    assert type(space.pairing_exponent(0, 0)) is int
    table = pairing_table(space)
    assert table.tolist() == oracle.pairing_table()
    assert table.dtype == np.min_scalar_type(space.character_order - 1)
    assert space.verify_nondegenerate() == oracle.verify_nondegenerate()


@pytest.mark.parametrize("space", SPACES + [
    VectorSpace(1, FieldSpec(5), lambda_multiplier=2),
    CyclicProductSpace((3, 5, 2), lambda_multiplier=7),
    GramSpace([((3,), ((1,),)), ((3,), ((0,),))], 3),  # degenerate
    AlternatingMatrixSpace(1, FieldSpec(2)),  # the trivial group
], ids=lambda s: repr(s))
def test_array_core_matches_tuple_oracle(space):
    assert_matches_tuple_oracle(space)


# the table group law: every field-space kind, a single Z_4096 digit (an
# 8191-entry sum table) and F_2^13, whose law needs two blocks
LAW_SPACES = [s for s in ORACLE_SPACES if s.kind != "cyclic_product"] + [
    CyclicProductSpace((4096,)),
    VectorSpace(13, FieldSpec(2), size_bound=2 ** 13),
]


@functools.cache
def law_oracle(space):
    return TupleDigits(space)


@st.composite
def law_cases(draw):
    """A space (one of LAW_SPACES, or a random cyclic product of up to
    4096 points, mixed radices among them) and two index arrays of one
    integer dtype and broadcastable shapes, 0-d among them."""
    space = draw(st.one_of(st.sampled_from(LAW_SPACES), st.one_of(
        st.lists(st.integers(2, 16), min_size=1, max_size=3),
        st.tuples(st.integers(2, 4096)),
        st.tuples(st.integers(2, 64), st.integers(2, 64)),
    ).map(CyclicProductSpace)))
    shapes = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=2, max_dims=3, max_side=4)).input_shapes
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    x, y = (draw(hnp.arrays(dtype, shape,
                            elements=st.integers(0, space.size - 1)))
            for shape in shapes)
    return space, x, y


@settings(max_examples=100, deadline=None, database=None)
@given(law_cases())
def test_table_law_matches_tuple_oracle(case):
    """add, sub and neg equal the digit-by-digit tuple oracle's on random
    points in broadcast shapes."""
    space, x, y = case
    oracle = law_oracle(space) if space in LAW_SPACES else TupleDigits(space)
    bx, by = np.broadcast_arrays(x, y)
    pairs = list(zip(bx.ravel().tolist(), by.ravel().tolist()))
    for name in ("add", "sub"):
        got = getattr(space, name)(x, y)
        assert np.shape(got) == bx.shape
        assert np.ravel(got).tolist() == [getattr(oracle, name)(a, b)
                                          for a, b in pairs], name
    got = space.neg(x)
    assert np.shape(got) == x.shape
    assert np.ravel(got).tolist() == [oracle.neg(a) for a in
                                      x.ravel().tolist()]


# space -> (constructor, blocks of its law, or None)
LINEAR_SIZE_SPACES = {
    "trivial": (lambda: AlternatingMatrixSpace(1, FieldSpec(2)), 1),
    "Z4096": (lambda: CyclicProductSpace((4096,)), 1),
    "Z2^12": (lambda: CyclicProductSpace((2,) * 12), 2),
    "F2^13": (lambda: VectorSpace(13, FieldSpec(2), size_bound=2 ** 13), 2),
    "Z3xZ5xZ7xZ11xZ13": (lambda: CyclicProductSpace(
        (3, 5, 7, 11, 13), size_bound=15015), 2),
    "Z2xZ4096xZ2": (lambda: CyclicProductSpace((2, 4096, 2),
                                               size_bound=2 ** 14), 2),
    "F2^4x4": (lambda: FullMatrixSpace(4, 4, FieldSpec(2),
                                       size_bound=2 ** 16), 2),
    **{"oracle%d" % i: (lambda s=s: s, None)
       for i, s in enumerate(ORACLE_SPACES)},
}


@pytest.mark.parametrize("make, blocks", LINEAR_SIZE_SPACES.values(),
                         ids=LINEAR_SIZE_SPACES)
def test_table_law_has_linear_size(make, blocks):
    """The law's tables (a sum table and a spread table per block, and
    the negation table) hold at most 16 |X| + 16384 entries, up to
    |X| = 2^16; the blocks are as many as their bound allows."""
    space = make()
    entries = space._neg.size + sum(table.size for block in space._blocks
                                    for table in block)
    assert entries <= 16 * space.size + 16384
    if blocks is not None:
        assert len(space._blocks) == blocks


# Z_215 x Z_217 with lambda = m - 1: m = 46655, so lambda times a Gram
# row entry, below m^2, passes 2^31, while every other product of the
# space fits int32
LAMBDA_SPACE = CyclicProductSpace((215, 217), lambda_multiplier=46654,
                                  size_bound=46655)


@pytest.mark.parametrize("space, dtype", [
    (VectorSpace(2, FieldSpec(3)), np.int32),
    (LAMBDA_SPACE, np.int64),
], ids=["int32", "int64"])
def test_table_law_keeps_the_index_dtype(space, dtype):
    """Index arrays of any integer dtype give arrays in the dtype of
    `place`; scalar points, Python or numpy, give ints."""
    assert space.place.dtype == dtype
    n = space.size
    for index_dtype in (np.int32, np.int64, np.intp):
        x = np.arange(n, dtype=index_dtype)
        for got in (space.add(x, x[::-1]), space.sub(x[:, None], x[:3]),
                    space.neg(x)):
            assert got.dtype == dtype
    for a, b in ((1, n - 1), (np.int64(1), np.int32(n - 1))):
        assert type(space.add(a, b)) is int
        assert type(space.sub(a, b)) is int
        assert type(space.neg(a)) is int
    assert space.add(n - 1, space.neg(n - 1)) == 0 == space.sub(1, 1)


def test_index_dtype_holds_the_lambda_product():
    """The m^2 term alone makes LAMBDA_SPACE int64, and its pairing rows
    equal the int64 product (D . B mod m) lambda mod m . D^T mod m: in
    int32 the lambda product would wrap."""
    space, m, r = LAMBDA_SPACE, LAMBDA_SPACE.character_order, 217
    assert max(8 * space.size, 2 * m * r, r * r) < 2 ** 31 <= m * m
    assert space.place.dtype == np.int64
    points = np.array([1, 217, 12345, space.size - 1])
    D = all_digits(space).astype(np.int64)
    want = (D[points] @ space.gram % m * space.lambda_multiplier % m
            @ D.T % m)
    assert np.array_equal(pairing_rows(space, points), want)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_sub_calls_neither_add_nor_neg(space, monkeypatch):
    """sub runs the private law, so the tracer's add and neg counters
    count only their own callers: with both public methods raising, sub
    on scalars and on arrays still equals the tuple oracle's."""
    def refuse(*args):
        raise AssertionError("sub called a public group operation")
    monkeypatch.setattr(space_module.AbelianSpace, "add", refuse)
    monkeypatch.setattr(space_module.AbelianSpace, "neg", refuse)
    oracle = TupleDigits(space)
    points = np.arange(space.size)
    want = [[oracle.sub(x, y) for y in range(space.size)]
            for x in range(space.size)]
    assert space.sub(points[:, None], points).tolist() == want
    assert [space.sub(x, y) for x, y in ((0, space.size - 1), (1, 1))] \
        == [want[0][-1], want[1][1]]


def test_index_of_rejects_out_of_range_coordinates():
    sp = VectorSpace(2, FieldSpec(3))
    with pytest.raises(UsageError):
        sp.index_of((0, 3))
    with pytest.raises(UsageError):
        sp.index_of((-1, 0))
    with pytest.raises(UsageError):
        sp.coords_of(sp.size)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_group_axioms_exhaustive(space):
    n = space.size
    assert not any(space.coords_of(0))
    for x in range(n):
        assert space.index_of(space.coords_of(x)) == x
        assert space.add(x, 0) == x
        assert space.add(x, space.neg(x)) == 0
        assert space.scalar_mul(x, 3) == space.add(space.add(x, x), x)
        assert space.scalar_mul(x, -1) == space.neg(x)
    for x in range(n):
        for y in range(n):
            assert space.add(x, y) == space.add(y, x)
            assert space.sub(space.add(x, y), y) == x


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_pairing_axioms_exhaustive(space):
    """Symmetry, biadditivity (as exponents mod m), and nondegeneracy."""
    n, m = space.size, space.character_order
    for x in range(n):
        for y in range(n):
            assert space.pairing_exponent(x, y) == space.pairing_exponent(y, x)
            for z in range(n):
                assert (space.pairing_exponent(space.add(x, z), y)
                        - space.pairing_exponent(x, y)
                        - space.pairing_exponent(z, y)) % m == 0
    ok, witness = space.verify_nondegenerate()
    assert ok, witness


def inner_product(space, x, y):
    """<x, y> as a CycloInt: zeta_m to the lambda-scaled pairing
    exponent of x and y."""
    k = space.pairing_exponent(x, y) * space.lambda_multiplier
    return CycloInt.root_of_unity(space.character_order, k)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_inner_product_is_root_of_unity(space):
    """Each pairing row holds, at every y, the power of zeta_m that is
    <x, y>."""
    m = space.character_order
    rows = pairing_rows(space, np.arange(space.size)).tolist()
    assert [[CycloInt.root_of_unity(m, k) for k in row] for row in rows] \
        == [[inner_product(space, x, y) for y in range(space.size)]
            for x in range(space.size)]


def test_vector_pairing_against_hand_values():
    # F_2^2 with the dot product: <e1,e1> = 1 means exponent 1 (zeta_2 = -1)
    sp = VectorSpace(2, FieldSpec(2))
    e1, e2 = sp.basis.tolist()
    assert sp.pairing_exponent(e1, e1) == 1
    assert sp.pairing_exponent(e1, e2) == 0


def test_hermitian_space_structure():
    sp = HermitianMatrixSpace(2, FieldSpec(2, 2))
    assert sp.size == 2 * 2 * 4  # two F_2 diagonal entries, one F_4 upper
    assert sp.character_order == 2
    for x in range(sp.size):
        A = sp.materialize(x)
        for i in range(2):
            for j in range(2):
                assert conj(sp, A[i][j]) == A[j][i]
        assert index_of_entries(sp, A) == x


def test_alternating_space_structure():
    sp = AlternatingMatrixSpace(3, FieldSpec(3))
    assert sp.size == 27
    for x in range(sp.size):
        A = sp.materialize(x)
        for i in range(3):
            assert A[i][i].is_zero()
            for j in range(3):
                assert A[j][i] == -A[i][j]


def test_symmetric_space_rejects_char2():
    with pytest.raises(UsageError):
        SymmetricMatrixSpace(2, FieldSpec(2))


def test_cyclic_product_pairing():
    sp = CyclicProductSpace((2, 4))
    assert sp.character_order == 4
    # <(1,0),(1,0)> = zeta_4^(4/2 * 1 * 1) = zeta_4^2
    x = sp.index_of((1, 0))
    assert sp.pairing_exponent(x, x) == 2


def test_lambda_multiplier():
    """pairing_rows, where the pipeline applies the multiplier, scales
    every exponent by it; pairing_exponent leaves it out."""
    sp = VectorSpace(1, FieldSpec(5), lambda_multiplier=2)
    base = VectorSpace(1, FieldSpec(5))
    for x in range(5):
        assert pairing_rows(sp, [x])[0].tolist() == [
            2 * base.pairing_exponent(x, y) % 5 for y in range(5)]
        assert [sp.pairing_exponent(x, y) for y in range(5)] == \
            [base.pairing_exponent(x, y) for y in range(5)]
    with pytest.raises(UsageError):
        VectorSpace(1, FieldSpec(5), lambda_multiplier=5)


def test_size_bound_enforced():
    with pytest.raises(ResourceLimitError):
        VectorSpace(8, FieldSpec(5), size_bound=4096)


def test_space_from_config_round_trip():
    for space in SPACES:
        rebuilt = space_from_config(space.to_config())
        assert rebuilt.size == space.size
        assert rebuilt.kind == space.kind
        for x in range(space.size):
            for y in range(space.size):
                assert (rebuilt.pairing_exponent(x, y)
                        == space.pairing_exponent(x, y))


def test_to_config_keeps_lambda_multiplier():
    """to_config names a lambda multiplier other than 1, so the space
    rebuilt from it has the same scaled pairing; lambda = 1 stays
    implicit, as in the shipped reports."""
    cfg = {"kind": "vector", "n": 1, "field": {"p": 5},
           "lambda_multiplier": 2}
    space = space_from_config(cfg)
    assert space.to_config() == {"kind": "vector", "n": 1,
                                 "field": {"p": 5, "e": 1},
                                 "lambda_multiplier": 2}
    rebuilt = space_from_config(space.to_config())
    assert rebuilt.lambda_multiplier == 2
    assert np.array_equal(pairing_table(rebuilt), pairing_table(space))
    assert "lambda_multiplier" not in space_from_config(
        dict(cfg, lambda_multiplier=1)).to_config()


# lopsided splits of X: Z_4096, one digit, where A = {0}, and Z_4 paired
# mod 2, whose pairing exponents psi reads in Z_4
LOPSIDED_SPACES = [CyclicProductSpace((4096,)),
                   GramSpace([((4,), ((1,),))], 2)]


@pytest.mark.parametrize("space", ORACLE_SPACES + LOPSIDED_SPACES,
                         ids=lambda s: repr(s))
def test_pairing_table_matches_int64_product(space, monkeypatch):
    """The table, summed over the split of X, in blocks of the default
    cell count and in blocks of 3 rows (a ragged last block included),
    equals the int64 product (D . B mod m) lambda mod m . D^T mod m, as
    do the Gram rows read off psi, d(psi(x)) m / r, in that product.
    The products are compared 256 rows at a time: Z_4096 has 2^24."""
    m = space.character_order
    D = all_digits(space).astype(np.int64)
    rows = D @ space.gram % m * (space.lambda_multiplier % m) % m
    psi_rows = gram_rows(space) * (space.lambda_multiplier % m) % m
    tables = []
    for cells in (space_module.BLOCK_CELLS, 3 * space.size):
        monkeypatch.setattr(space_module, "BLOCK_CELLS", cells)
        tables.append(pairing_table(space))
        assert tables[-1].dtype == np.min_scalar_type(m - 1)
    for start in range(0, space.size, 256):
        want = rows[start:start + 256] @ D.T % m
        assert np.array_equal(psi_rows[start:start + 256] @ D.T % m, want)
        for table in tables:
            assert np.array_equal(table[start:start + 256], want)


# -- oracle: the pairing-form broadcast that the kernel of psi replaced ------

def pairing_form_nondegenerate(space):
    """verify_nondegenerate by the pairing form: the exponent of every
    x != 0 with every digit basis vector through pairing_exponent, one
    (|X|, N, N) broadcast; (ok, the least degenerate x or None)."""
    points = np.arange(1, space.size)
    k = space.pairing_exponent(points[:, None], space.basis)
    degenerate = np.flatnonzero(~k.any(axis=1))
    if len(degenerate):
        return False, int(points[degenerate[0]])
    return True, None


CONFIG_FOLDERS = [os.path.join(os.path.dirname(__file__), os.pardir, folder)
                  for folder in ("configs", os.path.join("perfbench",
                                                         "configs"))]
CONFIG_PATHS = [os.path.join(folder, f) for folder in CONFIG_FOLDERS
                for f in sorted(os.listdir(folder)) if f.endswith(".json")]


def config_space(path):
    with open(path) as fh:
        return space_from_config(json.load(fh)["space"])


def gram_rows(space):
    """The Gram rows d(x) . B mod m of every x, read off psi:
    d(psi(x)) m / r."""
    return space._gram_row(np.arange(space.size))


def assert_gram_rows_match_oracles(space):
    """verify_nondegenerate equals the pairing-form oracle, verdict and
    witness, and the Gram rows read off psi, built over the split of X,
    equal the int64 product D . B mod m in the space's index dtype."""
    assert space.verify_nondegenerate() == pairing_form_nondegenerate(space)
    want = all_digits(space) @ space.gram % space.character_order
    assert space._psi.dtype == gram_rows(space).dtype == want.dtype
    assert np.array_equal(gram_rows(space), want)


@pytest.mark.parametrize("space", SPACES + LOPSIDED_SPACES,
                         ids=lambda s: repr(s))
def test_gram_rows_match_oracles_on_spaces(space):
    assert_gram_rows_match_oracles(space)


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=os.path.basename)
def test_gram_rows_match_oracles_on_configs(path):
    assert_gram_rows_match_oracles(config_space(path))


# (GramSpace blocks, m, the least degenerate point) of degenerate pairings
DEGENERATE_GRAMS = [
    # a block that is 0 mod m: x = (0, 1), the least point
    ([((5,), ((1,),)), ((5,), ((5,),))], 5, 1),
    # the Z_2 digit pairs to 0 mod 4: x = (1, 0), after nondegenerate x
    ([((2,), ((0,),)), ((4,), ((1,),))], 4, 4),
    # a nonzero singular block over F_2: x = (1, 1)
    ([((2, 2), ((1, 1), (1, 1)))], 2, 3),
    # a zero block between two others: x = (0, 1, 0)
    ([((3,), ((1,),)), ((3,), ((0,),)), ((3,), ((2,),))], 3, 3),
    # Z_4 paired mod 2, where psi's digit, <x, e> read in Z_4, is 0 or 2:
    # x = 2 pairs to 1 with every point
    ([((4,), ((1,),))], 2, 2),
]
DEGENERATE_IDS = ["zero-block", "late-witness", "singular-block",
                  "middle-block", "radix-above-m"]


@pytest.mark.parametrize("blocks, m, witness", DEGENERATE_GRAMS,
                         ids=DEGENERATE_IDS)
def test_degenerate_gram_matrix_gives_the_least_witness(blocks, m, witness):
    """On a degenerate Gram matrix verify_nondegenerate fails with the
    least nonzero point of the kernel of psi, the least degenerate point
    of the pairing-form oracle and of the exhaustive scan of every pair."""
    space = GramSpace(blocks, m)
    assert space.verify_nondegenerate() == (False, witness)
    assert pairing_form_nondegenerate(space) == (False, witness)
    assert TupleDigits(space).verify_nondegenerate() == (False, witness)


@pytest.mark.parametrize("blocks, m", [
    ([((2,), ((1,),)), ((4,), ((1,),))], 4),  # 2 B_00 = 2 mod 4
    ([((3,), ((1,),))], 2),  # 3 B_00 = 1 mod 2
], ids=["Z2xZ4-mod-4", "Z3-mod-2"])
def test_gram_matrix_must_be_well_defined_on_the_digits(blocks, m):
    """d(x) . B . d(y) mod m depends on the digits only mod r_i when
    r_i B_ij = 0 mod m; psi rests on it, so GramSpace rejects any other
    Gram matrix, as it does an asymmetric one."""
    with pytest.raises(UsageError, match="well defined"):
        GramSpace(blocks, m)


# the spaces of two or more digits, where |X| N entries outgrow |X|
WIDE_SPACES = [s for s in ORACLE_SPACES if len(s.radices) > 1] + [
    s for s in map(config_space, CONFIG_PATHS) if len(s.radices) > 1]


@pytest.mark.parametrize("space", WIDE_SPACES, ids=lambda s: repr(s))
def test_space_stores_the_pairing_as_psi(space):
    """The pairing is stored once, as psi, one index per point: once its
    adjoints are read, a space keeps no array of |X| N entries or more,
    the digits of its points included."""
    space.adjoint_images(space.basis)
    wide = [name for name, value in vars(space).items()
            if isinstance(value, np.ndarray)
            and value.size >= space.size * len(space.radices)]
    assert wide == []


# the decoder's spaces: one digit or more, int32 and int64 (LAMBDA_SPACE)
DECODER_SPACES = ORACLE_SPACES + [s for s in WIDE_SPACES
                                  if s not in ORACLE_SPACES] + [LAMBDA_SPACE]


@pytest.mark.parametrize("space", DECODER_SPACES, ids=lambda s: repr(s))
def test_digits_of_matches_the_indices_oracle(space):
    """digits_of, the space's one mixed-radix decoder, equals all_digits
    at a scalar point (Python or numpy), at every point and on a 2-d
    index array, one row of digits per point, in the space's index dtype
    for int32, int64 and intp input."""
    D, dtype = all_digits(space), space.place.dtype
    for x in (0, space.size - 1, np.int32(space.size // 2)):
        got = space.digits_of(x)
        assert got.dtype == dtype and np.array_equal(got, D[x])
    for index_dtype in (np.int32, np.int64, np.intp):
        points = np.arange(space.size, dtype=index_dtype)
        grid = np.add.outer(points[:6], points[-4:]) % space.size
        for x in (points, grid):
            got = space.digits_of(x)
            assert got.dtype == dtype and np.array_equal(got, D[x])


def kept_bytes(space):
    """The bytes of the arrays a space keeps, its law's tables and
    spreads included, each buffer counted once."""
    arrays = [v for v in vars(space).values() if isinstance(v, np.ndarray)]
    arrays += [a for block in space._blocks for a in block]
    owners = {id(a if a.base is None else a.base):
              (a if a.base is None else a.base).nbytes for a in arrays}
    return sum(owners.values())


def test_space_allocates_little_beyond_what_it_keeps(monkeypatch):
    """With BLOCK_CELLS at 2^10, a space of 2^16 points and 16 digits
    takes psi and negation by linear extension over A x B, |A| = |B| =
    256, in calls of the law on 4 rows of A (1024 points) each: it
    keeps under 32 bytes per point (about 1.8 MB: psi, negation, the
    law's tables and spreads, and no digits of all points), and its
    allocations peak within 0.25 MB of that, with no |X| x N array."""
    monkeypatch.setattr(space_module, "BLOCK_CELLS", 1 << 10)
    field = FieldSpec(2)
    tracemalloc.start()
    try:
        space = FullMatrixSpace(4, 4, field, size_bound=1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept_bytes(space) < 32 * space.size
    assert peak < kept_bytes(space) + 250_000


def test_pairing_rows_allocate_little_beyond_their_result():
    """The pairing row of one point of a space of 2^16 points and 16
    digits is one broadcast sum of its exponents with A and with B, 256
    points each, in uint8: it peaks below 16 bytes per cell of the row,
    with no copy of the digits of all points."""
    space = FullMatrixSpace(4, 4, FieldSpec(2), size_bound=1 << 16)
    tracemalloc.start()
    try:
        row = pairing_rows(space, np.array([0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.shape == (1, space.size)
    assert peak < 16 * row.size


@st.composite
def mixed_radix_grams(draw):
    """(radices, m, Gram block) of Z_{r_1} x ... x Z_{r_N}: m a radix,
    their lcm or twice it, and B symmetric and well defined on the
    digits, B_ij a multiple of lcm(c_i, c_j), c_i = m / gcd(m, r_i); some
    c_i differ.  The lcm is drawn twice as often, and a diagonal multiple
    is not 0, so that about a third of the pairings are nondegenerate."""
    radices = tuple(draw(st.lists(st.sampled_from([2, 3, 4, 6, 8]),
                                  min_size=2, max_size=3)))
    L = math.lcm(*radices)
    m = draw(st.sampled_from([L, L, 2 * L, *radices]))
    steps = [m // math.gcd(m, r) for r in radices]
    assume(len(set(steps)) > 1)
    B = [[0] * len(radices) for _ in radices]
    for i, j in itertools.combinations_with_replacement(range(len(radices)),
                                                          2):
        B[i][j] = B[j][i] = (draw(st.integers(i == j, 3))
                             * math.lcm(steps[i], steps[j]) % m)
    return radices, m, B


@settings(max_examples=100, deadline=None, database=None)
@given(mixed_radix_grams(), st.data())
def test_psi_matches_brute_force_on_mixed_radices(gram, data):
    """On mixed radices, where the c_k differ: the pairing read off psi
    is the int64 table D . B . D^T mod m, verify_nondegenerate equals
    the pairing-form oracle and the exhaustive scan of that table, and,
    for a nondegenerate pairing, adjoint_images gives, for additive maps
    g drawn by their basis images, the h with <g x, e_k> = <x, h> for
    every x, found by a search of the table."""
    radices, m, B = gram
    space = GramSpace([(radices, B)], m)
    D = all_digits(space).astype(np.int64)
    table = D @ np.array(B) @ D.T % m
    points = np.arange(space.size)
    assert np.array_equal(space.pairing_exponent(points[:, None], points),
                          table)
    zero = np.flatnonzero(~table[1:].any(axis=1))
    scan = (False, int(zero[0]) + 1) if len(zero) else (True, None)
    assert space.verify_nondegenerate() == pairing_form_nondegenerate(
        space) == scan
    if not scan[0]:
        assert space.adjoint_images(space.basis) is None
        return
    # g(e_j) has digit l a multiple of r_l / gcd(r_j, r_l), so r_j g(e_j)
    # = 0 and g extends additively
    r, n = np.array(radices), 2 * len(radices) ** 2
    units = data.draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    images = (np.reshape(units, (2, len(r), len(r)))
              * (r // np.gcd(r[:, None], r)) % r @ space.place)
    for g, got in zip(images, space.adjoint_images(images)):
        gx = D @ D[g] % r @ space.place
        for k, e_k in enumerate(space.basis):
            h = np.flatnonzero((table == table[gx, e_k][:, None]).all(axis=0))
            assert h.tolist() == [got[k]]


def test_bad_configs_rejected():
    with pytest.raises(UsageError):
        space_from_config({"kind": "nope"})
    with pytest.raises(UsageError):
        space_from_config({"kind": "vector", "n": 2})
