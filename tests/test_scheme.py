"""Translation schemes: axioms, intersection numbers, labels."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scheme_forge.errors import IntegrityError, ResourceLimitError
from scheme_forge.gf import FieldSpec
from scheme_forge.space import (VectorSpace, FullMatrixSpace,
                                AlternatingMatrixSpace, SymmetricMatrixSpace,
                                CyclicProductSpace, pairing_table)
from scheme_forge import cli
from scheme_forge.action import (build_action, orbits, OrbitPartition,
                                 check_condition_4)
from scheme_forge.scheme import (TranslationScheme, intersection_tensor,
                                 difference_rows, DEFAULT_MATRIX_BOUND)

from test_action import SHIPPED, CONFIGS, natural_actions
from test_space import SPACES, TupleDigits, assert_matches_tuple_oracle


def adjacency_matrix(sch, i, matrix_bound=DEFAULT_MATRIX_BOUND):
    """The 0/1 matrix of relation i: entry [x][y] is 1 iff y - x lies in
    class i."""
    n = sch.space.size
    if n > matrix_bound:
        raise ResourceLimitError(
            "|X| = %d exceeds the matrix bound %d" % (n, matrix_bound))
    points = np.arange(n)
    diff = sch.space.sub(points, points[:, None])  # [x][y] = y - x
    return (sch.partition.class_of[diff] == i).astype(np.int64)


def make_scheme(space, family, **params):
    genset = build_action(space, family, **params)
    return TranslationScheme(space, orbits(genset), label=genset.label())


def test_hamming2_f2_intersection_numbers():
    sch = make_scheme(VectorSpace(2, FieldSpec(2)), "hamming")
    p = sch.intersection_numbers()
    # frozen: classic Hamming H(2,2) parameters
    assert p[1][1][0] == 2
    assert p[1][1][2] == 2
    assert p[1][1][1] == 0
    assert p[1][2][1] == 1
    for i in range(3):
        for j in range(3):
            assert p[i][j][0] == (sch.valencies[i] if i == j else 0)


def test_intersection_tensor_consistency():
    """Row sums: sum_k p_ij^k * v_k = v_i v_j; and p symmetric in (i,j)."""
    cases = [
        (CyclicProductSpace((8,)), "central", {}),
        (VectorSpace(1, FieldSpec(5)), "cyclotomic", {"d": 2}),
        (FullMatrixSpace(2, 2, FieldSpec(2)), "bilinear", {}),
        (VectorSpace(4, FieldSpec(3)), "hamming", {}),
    ]
    for sp, family, params in cases:
        sch = make_scheme(sp, family, **params)
        p = sch.intersection_numbers()
        d, v = sch.d, sch.valencies
        for i in range(d + 1):
            for j in range(d + 1):
                assert sum(p[i][j][k] * v[k] for k in range(d + 1)) == v[i] * v[j]
                for k in range(d + 1):
                    assert p[i][j][k] == p[j][i][k]  # symmetric scheme
                    # triangle identity v_k p_ij^k = v_j p_ik^j
                    assert v[k] * p[i][j][k] == v[j] * p[i][k][j]


def test_adjacency_matrices_realize_tensor():
    sch = make_scheme(VectorSpace(2, FieldSpec(3)), "hamming")
    p = sch.intersection_numbers()
    A = [adjacency_matrix(sch, i) for i in range(sch.d + 1)]
    n = sch.space.size
    assert (sum(A) == np.ones((n, n), dtype=np.int64)).all()
    assert (A[0] == np.eye(n, dtype=np.int64)).all()
    for i in range(sch.d + 1):
        assert (A[i] == A[i].T).all()
        prod = A[i] @ A[1]
        expect = sum(p[i][1][k] * A[k] for k in range(sch.d + 1))
        assert (prod == expect).all()


def test_matrix_bound():
    sch = make_scheme(VectorSpace(4, FieldSpec(3)), "hamming")
    with pytest.raises(ResourceLimitError):
        adjacency_matrix(sch, 1, matrix_bound=10)


def test_non_symmetric_partition_rejected():
    sp = SymmetricMatrixSpace(2, FieldSpec(3))
    part = orbits(build_action(sp, "symmetric"))
    with pytest.raises(IntegrityError):
        TranslationScheme(sp, part)


def bad_z8_partition():
    """A negation-closed partition of Z_8 that is not a scheme: the class
    {2,4,6} gives different counts at u = 2 and u = 4."""
    class_of = [0, 1, 2, 3, 2, 3, 2, 1]
    classes = [[0], [1, 7], [2, 4, 6], [3, 5]]
    return CyclicProductSpace((8,)), OrbitPartition(class_of, classes)


def test_representative_verification_catches_bad_partition():
    sp, part = bad_z8_partition()
    sch = TranslationScheme(sp, part)
    with pytest.raises(IntegrityError):
        sch.intersection_numbers()


def test_class_labels():
    sch = make_scheme(VectorSpace(4, FieldSpec(3)), "hamming")
    assert sch.class_labels("hamming") == [
        "0", "weight_1", "weight_2", "weight_3", "weight_4"]
    sch = make_scheme(FullMatrixSpace(2, 2, FieldSpec(2)), "bilinear")
    assert sch.class_labels("bilinear") == ["0", "rank_1", "rank_2"]
    sch = make_scheme(SymmetricMatrixSpace(2, FieldSpec(5)), "symmetric")
    labels = sch.class_labels("symmetric")
    assert sorted(labels) == sorted(["0", "(1,+)", "(1,-)", "(2,+)", "(2,-)"])


def test_verify_axioms_report():
    sch = make_scheme(CyclicProductSpace((8,)), "central")
    report = sch.verify_axioms()
    assert report["all_pass"]
    assert report["partition"] and report["diagonal"] and report["symmetry"]


def test_to_report_shape():
    sch = make_scheme(VectorSpace(2, FieldSpec(2)), "hamming")
    rep = sch.to_report("hamming")
    assert rep["d"] == 2
    assert rep["valencies"] == [1, 2, 1]
    assert rep["size"] == 4
    assert len(rep["p_tensor"]) == 3
    assert rep["axioms"]["all_pass"]


# -- oracle: the per-representative sweep that the array sweep replaced --------

def sweep_intersection_numbers(space, partition, verify_representatives):
    """p[i][j][k] by one loop over X per representative u of X_k, with
    u - z from the tuple-of-digits oracle."""
    oracle = TupleDigits(space)
    d = partition.d
    class_of = partition.class_of
    tensor = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for k in range(d + 1):
        reps = (partition.classes[k] if verify_representatives
                else [partition.classes[k][0]])
        first = None
        for u in reps:
            counts = [[0] * (d + 1) for _ in range(d + 1)]
            for z in range(space.size):
                counts[class_of[oracle.sub(u, z)]][class_of[z]] += 1
            if first is None:
                first = counts
            elif counts != first:
                raise IntegrityError(
                    "intersection numbers depend on the representative "
                    "of class %d (u=%d vs u=%d)" % (k, reps[0], u))
        for i in range(d + 1):
            for j in range(d + 1):
                tensor[i][j][k] = first[i][j]
    return tensor


def outcome(fn, *args):
    try:
        return fn(*args)
    except IntegrityError as exc:
        return str(exc)


def assert_tensor_matches_sweep(space, partition):
    for verify in (True, False):
        want = outcome(sweep_intersection_numbers, space, partition, verify)
        got = outcome(intersection_tensor, space, partition, verify)
        if not isinstance(got, str):
            assert got.dtype == np.int64
            got = got.tolist()
        assert got == want


def assert_scheme_matches_loops(space, partition):
    """The intersection tensor (both verification modes) and the adjacency
    matrices equal the loops'."""
    assert_tensor_matches_sweep(space, partition)
    oracle = TupleDigits(space)
    sch = TranslationScheme(space, partition)
    n = space.size
    for i in range(partition.d + 1):
        want = [[int(partition.class_of[oracle.sub(y, x)] == i)
                 for y in range(n)] for x in range(n)]
        assert adjacency_matrix(sch, i).tolist() == want


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_intersection_tensor_matches_sweep_on_spaces(space):
    for family, params in natural_actions(space):
        part = orbits(build_action(space, family, **params))
        if check_condition_4(part, space)[0]:
            assert_scheme_matches_loops(space, part)


@pytest.mark.parametrize("name", SHIPPED)
def test_intersection_tensor_matches_sweep_on_shipped_configs(name):
    with open(os.path.join(CONFIGS, name + ".json")) as fh:
        cfg = json.load(fh)
    space, genset = cli.load_action(cfg, 4096)
    part = orbits(genset)
    if check_condition_4(part, space)[0]:
        assert_scheme_matches_loops(space, part)
    else:
        assert_tensor_matches_sweep(space, part)


def test_intersection_tensor_matches_sweep_on_bad_partition():
    """Same message, naming the same u, as the sweep.  With the class
    listed as [2, 6, 4], u = 6 = -2 agrees with u = 2 and the first
    differing representative is the third one."""
    sp, part = bad_z8_partition()
    want = "intersection numbers depend on the representative of class 2 " \
           "(u=2 vs u=4)"
    for classes in (part.classes, [[0], [1, 7], [2, 6, 4], [3, 5]]):
        part = OrbitPartition(part.class_of, classes)
        assert outcome(sweep_intersection_numbers, sp, part, True) == want
        assert_tensor_matches_sweep(sp, part)
    sp = VectorSpace(4, FieldSpec(3))
    assert_tensor_matches_sweep(sp, orbits(build_action(sp, "hamming")))


def test_intersection_tensor_names_the_first_u_of_the_first_bad_class():
    """A partition of Z_18 whose classes 2, 3 and 4 all depend on u: the
    error names the oracle's u, the third of class 2 (row 5 of the pass),
    although classes 3 and 4 differ already at their second u."""
    sp = CyclicProductSpace((18,))
    classes = [[0], [3, 15], [14, 4, 1, 17], [12, 7, 6, 11, 9],
               [2, 10, 8, 16, 13, 5]]
    class_of = np.zeros(18, dtype=int)
    for k, cls in enumerate(classes):
        class_of[cls] = k
    part = OrbitPartition(class_of, classes)
    want = "intersection numbers depend on the representative of class 2 " \
           "(u=14 vs u=1)"
    assert outcome(sweep_intersection_numbers, sp, part, True) == want
    assert_tensor_matches_sweep(sp, part)


DIFFERENCE_SPACES = SPACES + [
    CyclicProductSpace((12, 18)),
    CyclicProductSpace((2, 3, 5, 7)),
    AlternatingMatrixSpace(1, FieldSpec(2)),  # the trivial group
    VectorSpace(3, FieldSpec(2, 2)),
]


@pytest.mark.parametrize("space", DIFFERENCE_SPACES, ids=repr)
def test_difference_rows_match_the_law(space):
    """Every row u - z, u in X in a shuffled order, equals one call of the
    law on every pair: split into leading and trailing digits, or not."""
    points = np.arange(space.size)
    reps = np.random.default_rng(space.size).permutation(space.size)
    assert np.array_equal(difference_rows(space, reps),
                          space.sub(reps[:, None], points))


def test_difference_rows_of_one_digit():
    """Z_4096, one digit, so that its split has A = {0} and B = X, at
    the first points of the central classes, as intersection_tensor
    takes them above the verify bound."""
    space = CyclicProductSpace((4096,))
    reps = np.array([cls[0] for cls in
                     orbits(build_action(space, "central")).classes])
    assert np.array_equal(difference_rows(space, reps),
                          space.sub(reps[:, None], np.arange(4096)))


def test_intersection_tensor_of_many_classes_codes_pairs_in_int64():
    """The singleton partition of Z_257: (d + 1)^2 = 257^2 pair codes do
    not fit uint16 (they would wrap), so they are int64, and p_ij^k is 1
    iff i + j = k mod 257.  The tensor holds |X|^2 ones in all, so it is
    1 at those (i, j, k) and 0 elsewhere."""
    n = 257
    assert n * n > 1 << 16
    space = CyclicProductSpace((n,), size_bound=n * n)
    part = OrbitPartition(np.arange(n))
    i, j = np.indices((n, n))
    for verify in (True, False):
        tensor = intersection_tensor(space, part, verify)
        assert tensor.dtype == np.int64 and tensor.flags.c_contiguous
        assert tensor.sum() == n * n
        assert (tensor[i, j, (i + j) % n] == 1).all()
        del tensor  # 136 MB


@st.composite
def cyclic_products(draw):
    """Z_{m_1} x ... x Z_{m_k} with |X| <= 64 and a unit lambda mod m."""
    moduli = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3)
                  .filter(lambda ms: math.prod(ms) <= 64))
    m = math.lcm(*moduli)
    lam = draw(st.sampled_from([u for u in range(1, m)
                                if math.gcd(u, m) == 1]))
    return CyclicProductSpace(moduli, lambda_multiplier=lam)


@settings(max_examples=30, deadline=None, database=None)
@given(cyclic_products())
def test_central_cyclic_products_match_oracles(space):
    """The array group law, the pairing table and the intersection tensor
    of the central action equal the scalar oracles; the table also equals
    sum (m/m_i) x_i y_i lambda mod m on coordinates."""
    assert_matches_tuple_oracle(space)
    m, lam = space.character_order, space.lambda_multiplier
    coords = [space.coords_of(x) for x in range(space.size)]
    assert pairing_table(space).tolist() == [
        [sum(m // mi * a * b for mi, a, b in zip(space.moduli, cx, cy))
         * lam % m for cy in coords] for cx in coords]
    part = orbits(build_action(space, "central"))
    assert check_condition_4(part, space)[0]
    assert_tensor_matches_sweep(space, part)
