"""Actions, orbits, conditions (3)/(4)/(6), and adjoint maps."""

import functools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scheme_forge import cli, oracles
from scheme_forge import action as action_module
from scheme_forge import space as space_module
from scheme_forge.errors import UsageError, IntegrityError
from scheme_forge.gf import FieldSpec, FieldElement
from scheme_forge.space import (VectorSpace, FullMatrixSpace,
                                AlternatingMatrixSpace, SymmetricMatrixSpace,
                                HermitianMatrixSpace, CyclicProductSpace,
                                GramSpace)
from scheme_forge.duality import duality_report
from scheme_forge.action import (build_action, orbits, check_condition_4,
                                 check_condition_6, adjoint_map,
                                 verify_adjoint, AdjointMap, Generator,
                                 GeneratorSet, gl_generators,
                                 _field_map, orbit_labels)

from helpers import all_digits, conj, poset_partner
from test_space import SPACES, ORACLE_SPACES, TupleDigits, index_of_entries
from test_poset import sphere_sizes

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED = sorted(f[:-5] for f in os.listdir(CONFIGS) if f.endswith(".json"))
PERFBENCH_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir,
                                 "perfbench", "configs")
CUSTOM_CONFIGS = os.path.join(os.path.dirname(__file__), "configs")


def classes_as_sets(partition):
    return {frozenset(c) for c in partition.classes}


# -- oracles: generator matrices as FieldElements, for the per-point loops

def mat_identity(k, field):
    z, o = field.zero(), field.one()
    return tuple(tuple(o if i == j else z for j in range(k)) for i in range(k))


def mat_transpose(A):
    return tuple(zip(*A))


def mat_conj_transpose(A, space):
    return tuple(tuple(conj(space, A[j][i]) for j in range(len(A)))
                 for i in range(len(A[0])))


def index_matrix(A):
    """A matrix of FieldElements as an array of element indices."""
    return np.array([[a.index for a in row] for row in A])


def element_matrix(field, A):
    """An array of element indices as a matrix of FieldElements."""
    els = field.elements()
    return tuple(tuple(els[a] for a in row) for row in A)


def test_central_z8_orbits():
    sp = CyclicProductSpace((8,))
    part = orbits(build_action(sp, "central"))
    # units 3 and 5 (and so 7) acting on Z_8: orbits split by gcd with 8
    assert classes_as_sets(part) == {frozenset({0}), frozenset({4}),
                                     frozenset({2, 6}),
                                     frozenset({1, 3, 5, 7})}


@pytest.mark.parametrize("moduli, units", [
    ((15, 15), [2, 7]), ((16, 8), [3, 5]), ((64, 64), [3, 5]), ((2,), []),
    ((12, 18), [5, 7])])
def test_central_generators_are_greedy_units(moduli, units):
    genset = build_action(CyclicProductSpace(moduli), "central")
    assert [g.data["unit"] for g in genset.generators] == units
    assert [g.name for g in genset.generators] == ["mul_%d" % u
                                                   for u in units]


def test_central_unit_generators_give_the_orbits_of_all_units():
    """For nu in 2..64 the orbits of the greedy units on Z_nu, and on
    Z_nu x Z_2 when nu is even, are those of every unit.  The orbit of 1
    in Z_nu is the group the units generate, so that group is the whole
    unit group."""
    for nu in range(2, 65):
        units = [u for u in range(1, nu) if math.gcd(u, nu) == 1]
        for sp in [CyclicProductSpace((nu,))] + (
                [CyclicProductSpace((nu, 2))] if nu % 2 == 0 else []):
            points = np.arange(sp.size)
            every = orbit_labels([sp.scalar_mul(points, u) for u in units],
                                 sp.size)
            gens = build_action(sp, "central").generators
            assert np.array_equal(
                orbit_labels([g.perm for g in gens], sp.size), every), nu


def test_cyclotomic_f5_orbits():
    sp = VectorSpace(1, FieldSpec(5))
    part = orbits(build_action(sp, "cyclotomic", d=2))
    # squares mod 5 = {1, 4}, nonsquares = {2, 3}
    assert classes_as_sets(part) == {frozenset({0}), frozenset({1, 4}),
                                     frozenset({2, 3})}


def test_cyclotomic_constraint_rejected():
    sp = VectorSpace(1, FieldSpec(5))
    with pytest.raises(UsageError):
        build_action(sp, "cyclotomic", d=3)  # 6 does not divide 4
    with pytest.raises(UsageError):
        build_action(VectorSpace(1, FieldSpec(2)), "cyclotomic", d=1)


def test_all_generators_are_additive():
    cases = [
        (CyclicProductSpace((8,)), "central", {}),
        (VectorSpace(1, FieldSpec(5)), "cyclotomic", {"d": 2}),
        (FullMatrixSpace(2, 2, FieldSpec(2)), "bilinear", {}),
        (AlternatingMatrixSpace(3, FieldSpec(2)), "alternating", {}),
        (HermitianMatrixSpace(2, FieldSpec(2, 2)), "hermitian", {}),
        (SymmetricMatrixSpace(2, FieldSpec(3)), "symmetric", {}),
        (VectorSpace(2, FieldSpec(3)), "hamming", {}),
        (VectorSpace(3, FieldSpec(2)), "weak_hamming", {"levels": [2, 1]}),
        (VectorSpace(3, FieldSpec(2)), "weak_hamming_dual", {"levels": [2, 1]}),
    ]
    for sp, family, params in cases:
        genset = build_action(sp, family, **params)
        ok, witness = genset.verify_additive()
        assert ok, (family, witness)


def test_gl_generators_are_invertible():
    for q, e in ((2, 1), (3, 1), (2, 2)):
        field = FieldSpec(q, e)
        for k in (2, 3):
            for name, M in gl_generators(k, field):
                assert oracles.matrix_rank(element_matrix(field, M),
                                           field) == k, name


def test_bilinear_rank_classes():
    sp = FullMatrixSpace(2, 2, FieldSpec(2))
    part = orbits(build_action(sp, "bilinear"))
    assert part.sizes == [1, 9, 6]
    for x in range(sp.size):
        r = oracles.matrix_rank(sp.materialize(x), sp.field)
        assert part.class_of[x] == r


def test_alternating_rank_classes():
    sp = AlternatingMatrixSpace(4, FieldSpec(2))
    part = orbits(build_action(sp, "alternating"))
    assert part.sizes == [1, 35, 28]
    for x in range(sp.size):
        r = oracles.matrix_rank(sp.materialize(x), sp.field)
        assert r % 2 == 0
        assert part.class_of[x] == r // 2


def test_hermitian_rank_classes():
    sp = HermitianMatrixSpace(2, FieldSpec(2, 2))
    part = orbits(build_action(sp, "hermitian"))
    for x in range(sp.size):
        r = oracles.matrix_rank(sp.materialize(x), sp.field)
        assert part.class_of[x] == r


def test_weak_hamming_weight_classes():
    for levels in ((1, 1), (2, 1), (1, 2), (1, 1, 1)):
        n = sum(levels)
        sp = VectorSpace(n, FieldSpec(2))
        for family in ("weak_hamming", "weak_hamming_dual"):
            genset = build_action(sp, family, levels=list(levels))
            part = orbits(genset)
            for x in range(sp.size):
                w = genset.poset.weight(sp.coords_of(x))
                assert part.class_of[x] == w
            assert part.sizes == sphere_sizes(genset.poset, 2)


def test_condition_4_and_6_symmetric_f3():
    """q = 3 mod 4: -1 is a nonsquare, classes are not negation-closed."""
    sp = SymmetricMatrixSpace(2, FieldSpec(3))
    part = orbits(build_action(sp, "symmetric"))
    ok, witness = check_condition_4(part, sp)
    assert not ok
    one, two = sp.field.one(), sp.field.element(2)
    zero = sp.field.zero()
    d10 = index_of_entries(sp, [[one, zero], [zero, zero]])
    d20 = index_of_entries(sp, [[two, zero], [zero, zero]])
    assert sp.neg(d10) == d20
    assert part.class_of[d10] != part.class_of[d20]
    pairing = check_condition_6(part, sp)
    assert pairing is not None
    assert pairing[part.class_of[d10]] == part.class_of[d20]
    assert all(pairing[pairing[i]] == i for i in range(part.d + 1))


def test_condition_4_symmetric_f5():
    """q = 1 mod 4: -1 is a square, classes negation-closed."""
    sp = SymmetricMatrixSpace(2, FieldSpec(5))
    part = orbits(build_action(sp, "symmetric"))
    ok, _ = check_condition_4(part, sp)
    assert ok


ADJOINT_CASES = [
    (CyclicProductSpace((8,)), "central", {}),
    (VectorSpace(1, FieldSpec(5)), "cyclotomic", {"d": 2}),
    (FullMatrixSpace(2, 2, FieldSpec(2)), "bilinear", {}),
    (AlternatingMatrixSpace(4, FieldSpec(2)), "alternating", {}),
    (HermitianMatrixSpace(2, FieldSpec(2, 2)), "hermitian", {}),
    (SymmetricMatrixSpace(2, FieldSpec(5)), "symmetric", {}),
    (VectorSpace(4, FieldSpec(3)), "hamming", {}),
    (VectorSpace(3, FieldSpec(2)), "weak_hamming", {"levels": [2, 1]}),
]


def test_adjoint_verifies_for_all_families():
    """The honest adjoint of every family passes on digit basis pairs, on
    every kind of space (before, only vector spaces had a basis path)."""
    cases = ADJOINT_CASES + [
        (CyclicProductSpace((4, 6)), "central", {}),
        (VectorSpace(3, FieldSpec(2)), "weak_hamming_dual",
         {"levels": [2, 1]}),
        (VectorSpace(2, FieldSpec(2, 2)), "hamming", {}),
    ]
    for sp, family, params in cases:
        adj = adjoint_map(build_action(sp, family, **params))
        ok, witness = verify_adjoint(adj)
        assert ok, (family, witness)


def counted_sweeps(monkeypatch):
    """The permutation arrays that the additivity sweep,
    action._additivity_witness, runs on from here on."""
    swept = []
    real = action_module._additivity_witness

    def counted(space, perm):
        swept.append(perm)
        return real(space, perm)

    monkeypatch.setattr(action_module, "_additivity_witness", counted)
    return swept


def test_adjoint_sharing_its_map_is_checked_for_additivity_once(
        monkeypatch):
    """verify_adjoint sweeps only the maps not marked additive, each
    array once.  A built-in family sweeps none: the central images reuse
    their generators' arrays, the bilinear ones are new arrays, and all
    of them are additive by construction.  Unmarked generators on
    Z_2 x Z_2 are swept once when the image reuses the generator's array
    (the self-adjoint swap) and twice when it is a new array."""
    swept = counted_sweeps(monkeypatch)
    for sp, family in ((CyclicProductSpace((16, 8)), "central"),
                       (FullMatrixSpace(2, 2, FieldSpec(2)), "bilinear")):
        adj = adjoint_map(build_action(sp, family))
        swept.clear()
        assert verify_adjoint(adj) == (True, None)
        assert swept == []
    swap, identity = [0, 2, 1, 3], [0, 1, 2, 3]
    genset = GeneratorSet(CyclicProductSpace((2, 2)), "custom", {},
                          [Generator("swap", swap, {}),
                           Generator("id", identity, {})])
    adj = AdjointMap(genset, [
        Generator("adj_swap", genset.generators[0].perm, {}),
        Generator("adj_id", identity, {})])
    swept.clear()
    assert verify_adjoint(adj) == (True, None)
    assert [perm.tolist() for perm in swept] == [swap, identity, identity]


def assert_adjoint_witness_violates(adjoint, witness):
    """A verify_adjoint witness (name, x, y), x and y in coordinates, is
    real: either the named map is not additive at (x, y), or the named
    generator g breaks <gx, y> = <x, iota(g) y> there."""
    space = adjoint.source.space
    name, x, y = witness
    x, y = space.index_of(x), space.index_of(y)
    for g, ig in zip(adjoint.source.generators, adjoint.images):
        for h in (g, ig):
            if (h.name == name and h.perm[space.add(x, y)]
                    != space.add(h.perm[x], h.perm[y])):
                return
        if (g.name == name and space.pairing_exponent(g.perm[x], y)
                != space.pairing_exponent(x, ig.perm[y])):
            return
    raise AssertionError("witness %r violates nothing" % (witness,))


def test_basis_pairs_catch_extension_field_adjoint():
    """Over F_4 the F_q-basis pairs compare traces only; the digit basis
    pairs catch an adjoint corrupted to M^T + I, as the pair-by-pair loop
    does."""
    sp = VectorSpace(2, FieldSpec(2, 2))
    genset = build_action(sp, "hamming")
    adj = adjoint_map(genset)
    g = genset.generators[0]
    M = mat_transpose(element_matrix(sp.field, g.data["matrix"]))
    one = sp.field.one()
    bad = tuple(tuple(a + one if i == j else a for j, a in enumerate(row))
                for i, row in enumerate(M))
    images = [Generator(adj.images[0].name, loop_matvec(sp, bad),
                        {"matrix": index_matrix(bad)})] + adj.images[1:]
    corrupted = AdjointMap(genset, images)
    assert g.name == "swap_1_2"
    assert loop_verify_adjoint(corrupted) == (False, ("swap_1_2", 1, 2))
    ok, (name, x, y) = verify_adjoint(corrupted)
    assert not ok and name == "swap_1_2"
    x, y = sp.index_of(x), sp.index_of(y)
    assert {x, y} <= set(sp.basis.tolist())
    assert (sp.pairing_exponent(g.perm[x], y)
            != sp.pairing_exponent(x, images[0].perm[y]))


def test_adjoint_mismatch_on_a_later_basis_vector():
    """On Z_2 x Z_2 an additive adjoint (a, b) -> (a, a + b) of the
    identity agrees with it against the first basis vector (1, 0) and
    differs against (0, 1); the witness is the loop's, in coordinates."""
    sp = CyclicProductSpace((2, 2))
    genset = GeneratorSet(sp, "custom", {},
                          [Generator("id", [0, 1, 2, 3], {})])
    bad = AdjointMap(genset, [Generator("bad", [0, 1, 3, 2], {})])
    assert sp.basis.tolist() == [2, 1]
    assert verify_adjoint(bad) == (False, ("id", [0, 1], [1, 0]))
    assert loop_verify_adjoint(bad) == (False, ("id", 1, 2))


def test_basis_pairs_require_additive_adjoint():
    """A non-additive adjoint image fails with its additivity witness;
    the pair-by-pair loop fails too."""
    sp = CyclicProductSpace((5,))
    genset = build_action(sp, "central")
    adj = adjoint_map(genset)
    images = [Generator("adj_bad", [0, 2, 1, 4, 3], {})] + adj.images[1:]
    bad = AdjointMap(genset, images)
    ok, (name, x, y) = verify_adjoint(bad)
    assert not ok and name == "adj_bad"
    x, y = sp.index_of(x), sp.index_of(y)
    perm = images[0].perm
    assert perm[sp.add(x, y)] != sp.add(perm[x], perm[y])
    assert not loop_verify_adjoint(bad)[0]


@pytest.mark.parametrize("family", ["nope", ["hamming"], None])
def test_build_action_rejects_unknown_family(family):
    """A family that is not a key of FAMILIES, or not a string, raises
    UsageError naming it."""
    with pytest.raises(UsageError, match="unknown action family"):
        build_action(VectorSpace(2, FieldSpec(2)), family)


def test_weak_hamming_adjoint_lands_in_dual():
    """Every adjoint image of weak_hamming(2, 1) keeps the weight of the
    dual poset, point by point, while some image moves a point to
    another weight of the action's own poset: the adjoints act on the
    dual poset."""
    sp = VectorSpace(3, FieldSpec(2))
    genset = build_action(sp, "weak_hamming", levels=[2, 1])
    adj = adjoint_map(genset)

    def weights(poset):
        return np.array([poset.weight(sp.coords_of(x))
                         for x in range(sp.size)])

    dual, own = weights(genset.poset.dual()), weights(genset.poset)
    assert all((dual[ig.perm] == dual).all() for ig in adj.images)
    assert any((own[ig.perm] != own).any() for ig in adj.images)


def test_adjoint_off_the_dual_poset_fails_verification(monkeypatch):
    """The adjoint lemma's premise has one proof, verify_adjoint and
    keeps_classes: with g(e_i) in place of the basis images read off the
    pairing (A in place of A^T), the adjoints of weak_hamming(2, 1) move
    points off the dual poset's weights, and adjoint_map returns them
    unchecked; dual records adjoint false with verify_adjoint's witness,
    and constancy_G fails with it, as a side with no verified adjoint has
    no premise."""
    monkeypatch.setattr(GramSpace, "adjoint_images",
                        lambda space, images: images)
    sp = VectorSpace(3, FieldSpec(2))
    genset = build_action(sp, "weak_hamming", levels=[2, 1])
    adj = adjoint_map(genset)
    weights = np.array([genset.poset.dual().weight(sp.coords_of(x))
                        for x in range(sp.size)])
    assert any((weights[ig.perm] != weights).any() for ig in adj.images)
    ok, witness = verify_adjoint(adj)
    assert not ok
    cert = duality_report(genset)
    assert cert.checks["adjoint"] is False and not cert.passed
    assert cert.witnesses == [{"check": "adjoint", "witness": witness},
                              {"check": "constancy_G", "witness": witness}]


def test_corrupted_adjoint_fails_with_witness():
    sp = VectorSpace(2, FieldSpec(2))
    genset = build_action(sp, "hamming")
    adj = adjoint_map(genset)
    g = genset.generators[0]
    # swap the adjoint's action on two nonzero points
    perm = list(adj.images[0].perm)
    perm[1], perm[2] = perm[2], perm[1]
    bad = AdjointMap(genset, [Generator("bad", perm, {})])
    ok, witness = verify_adjoint(bad)
    assert not ok
    assert witness[0] == g.name and len(witness) == 3


def test_custom_family():
    sp = CyclicProductSpace((5,))
    neg = [sp.neg(x) for x in range(5)]
    genset = build_action(sp, "custom", generators=[neg])
    part = orbits(genset)
    assert classes_as_sets(part) == {frozenset({0}), frozenset({1, 4}),
                                     frozenset({2, 3})}
    # -x is its own adjoint, read off the pairing like any other map's
    adj = adjoint_map(genset)
    assert adj.images[0].perm is genset.generators[0].perm
    assert verify_adjoint(adj) == (True, None)
    with pytest.raises(UsageError):
        build_action(sp, "custom", generators=[[0, 1, 1, 3, 4]])
    shift = [(x + 1) % 5 for x in range(5)]  # not additive, moves 0
    with pytest.raises((UsageError, IntegrityError)):
        build_action(sp, "custom", generators=[shift])


def test_non_additive_custom_rejected():
    sp = CyclicProductSpace((5,))
    # the permutation fixing 0 that swaps 1,2 and 3,4 is not additive
    perm = [0, 2, 1, 4, 3]
    with pytest.raises(UsageError):
        build_action(sp, "custom", generators=[perm])


# -- oracles: the point-pair loops that the array sweeps replaced --------------
#
# The group law and the pairing come from the tuple-of-digits oracle, so the
# loops share no code with the array paths.

def loop_verify_additive(genset):
    """Exhaustive check of g(x + y) = gx + gy over all |X|^2/2 pairs."""
    space = TupleDigits(genset.space)
    n = genset.space.size
    for g in genset.generators:
        for x in range(n):
            for y in range(x, n):
                if g.perm[space.add(x, y)] != space.add(g.perm[x], g.perm[y]):
                    return False, (g.name, x, y)
    return True, None


def loop_verify_adjoint(adjoint):
    """<gx, y> = <x, iota(g) y> pair by pair over X x X."""
    genset = adjoint.source
    space = TupleDigits(genset.space)
    n = genset.space.size
    for g, ig in zip(genset.generators, adjoint.images):
        for x in range(n):
            for y in range(n):
                if (space.pairing_exponent(g.perm[x], y)
                        != space.pairing_exponent(x, ig.perm[y])):
                    return False, (g.name, x, y)
    return True, None


def loop_condition_4(partition, space):
    oracle = TupleDigits(space)
    for x in range(space.size):
        if partition.class_of[x] != partition.class_of[oracle.neg(x)]:
            return False, x
    return True, None


def loop_condition_6(partition, space):
    oracle = TupleDigits(space)
    pairing = [None] * (partition.d + 1)
    for x in range(space.size):
        i = partition.class_of[x]
        j = partition.class_of[oracle.neg(x)]
        if pairing[i] is None:
            pairing[i] = j
        elif pairing[i] != j:
            return None
    for i, j in enumerate(pairing):
        if pairing[j] != i:
            return None
    return pairing


def bfs_orbits(genset):
    """The orbit partition by breadth-first search from each unseen
    point, classes sorted by the key of `orbits` on their least point."""
    space = genset.space
    n = space.size
    seen = [False] * n
    raw = []
    perms = [g.perm.tolist() for g in genset.generators]
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for perm in perms:
                    y = perm[x]
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        nxt.append(y)
            frontier = nxt
        raw.append(sorted(comp))
    if genset.poset is not None:
        raw.sort(key=lambda c: (genset.poset.weight(space.coords_of(c[0])),
                                c[0]))
    elif space.kind in ("matrix_full", "matrix_alternating",
                        "matrix_symmetric", "matrix_hermitian"):
        raw.sort(key=lambda c: (oracles.matrix_rank(
            space.materialize(c[0]), space.field), c[0]))
    else:
        raw.sort(key=lambda c: c[0])
    class_of = [0] * n
    for ci, comp in enumerate(raw):
        for x in comp:
            class_of[x] = ci
    return class_of, raw


def assert_orbits_match_bfs(genset):
    """orbits gives the BFS oracle's class labels and classes."""
    part = orbits(genset)
    class_of, classes = bfs_orbits(genset)
    assert part.class_of.tolist() == class_of
    assert [c.tolist() for c in part.classes] == classes
    return part


def natural_actions(space):
    """The built-in actions that live on `space`, with their parameters."""
    kind = space.kind
    if kind == "vector":
        acts = [("hamming", {}), ("central", {}),
                ("weak_hamming", {"levels": [1] * space.n})]
        if space.n == 1 and space.field.q % 4 == 1:
            acts.append(("cyclotomic", {"d": 2}))
        return acts
    family = {"matrix_full": "bilinear", "matrix_alternating": "alternating",
              "matrix_symmetric": "symmetric",
              "matrix_hermitian": "hermitian",
              "cyclic_product": "central"}[kind]
    return [(family, {})]


def assert_sweeps_match_loops(genset):
    """verify_additive, conditions (4) and (6) and verify_adjoint give the
    loop oracles' verdicts and orbits the BFS oracle's partition;
    condition witnesses are equal, and additivity and adjoint witnesses,
    which may name another pair than the loops', must be real
    violations."""
    space = genset.space
    ok, witness = genset.verify_additive()
    assert ok == loop_verify_additive(genset)[0]
    if not ok:
        name, x, y = witness
        x, y = space.index_of(x), space.index_of(y)
        perm = {g.name: g.perm for g in genset.generators}[name]
        assert perm[space.add(x, y)] != space.add(perm[x], perm[y])
    part = assert_orbits_match_bfs(genset)
    assert check_condition_4(part, space) == loop_condition_4(part, space)
    assert check_condition_6(part, space) == loop_condition_6(part, space)
    adj = adjoint_map(genset)
    ok, witness = verify_adjoint(adj)
    assert ok == loop_verify_adjoint(adj)[0]
    if not ok:
        assert_adjoint_witness_violates(adj, witness)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_sweeps_match_loops_on_spaces(space):
    for family, params in natural_actions(space):
        assert_sweeps_match_loops(build_action(space, family, **params))


@pytest.mark.parametrize("name", SHIPPED)
def test_sweeps_match_loops_on_shipped_configs(name):
    with open(os.path.join(CONFIGS, name + ".json")) as fh:
        cfg = json.load(fh)
    _, genset = cli.load_action(cfg, 4096)
    assert_sweeps_match_loops(genset)


def test_sweeps_match_loops_on_failing_fixtures():
    """Non-additive custom generators, a corrupted adjoint and the
    non-symmetric classes of symmetric(2)/F_3.  On Z_2 x Z_5 the generator
    (a, b) -> (a, h(b)) is additive along the first digit and not along
    the second."""
    h = [0, 2, 1, 4, 3]
    for moduli, perm in (((5,), h),
                         ((2, 5), [5 * a + h[b] for a in range(2)
                                   for b in range(5)])):
        genset = GeneratorSet(CyclicProductSpace(moduli), "custom", {},
                              [Generator("custom_0", perm, {})])
        assert not genset.verify_additive()[0]
        assert_sweeps_match_loops(genset)
    sp = VectorSpace(2, FieldSpec(2))
    genset = build_action(sp, "hamming")
    adj = adjoint_map(genset)
    perm = list(adj.images[0].perm)
    perm[1], perm[2] = perm[2], perm[1]
    bad = AdjointMap(genset, [Generator("bad", perm, {})])
    ok, witness = verify_adjoint(bad)
    assert not ok and not loop_verify_adjoint(bad)[0]
    assert_adjoint_witness_violates(bad, witness)
    sp = SymmetricMatrixSpace(2, FieldSpec(3))
    genset = build_action(sp, "symmetric")
    assert not check_condition_4(orbits(genset), sp)[0]
    assert_sweeps_match_loops(genset)


# -- oracle: the per-point FieldElement loops the index-table sweeps replaced
#
# Each point is materialized to FieldElements, multiplied entry by entry and
# encoded back one free coordinate at a time, so the loops share neither
# the field tables nor the array decoder and encoder with the action code.

def mat_mul(A, B, field):
    return tuple(tuple(sum((A[i][k] * B[k][j] for k in range(len(B))),
                           field.zero())
                       for j in range(len(B[0])))
                 for i in range(len(A)))


@functools.cache
def materialized(space):
    """Every point of `space` as FieldElements (materialize), built once
    per space for every loop over it in this module."""
    return [space.materialize(x) for x in range(space.size)]


def loop_matvec(space, M):
    """v -> M v, point by point."""
    field = space.field
    return [index_of_entries(space, tuple(
        sum((a * b for a, b in zip(row, v)), field.zero()) for row in M))
        for v in materialized(space)]


def loop_congruence(space, left, right):
    """A -> left A right, point by point."""
    field = space.field
    return [index_of_entries(space, mat_mul(mat_mul(left, A, field), right,
                                            field))
            for A in materialized(space)]


def loop_perm(space, family, data):
    """The permutation of a generator or adjoint image, from its data
    (element-index arrays, read as FieldElements) by the family's
    formula: v -> M v, or A -> alpha^T A beta (alpha* A alpha for
    Hermitian forms, beta = alpha for every forms family)."""
    data = {key: element_matrix(space.field, A) for key, A in data.items()}
    if "matrix" in data:
        return loop_matvec(space, data["matrix"])
    alpha = data["alpha"]
    if family == "hermitian":
        left = mat_conj_transpose(alpha, space)
    else:
        left = mat_transpose(alpha)
    return loop_congruence(space, left, data.get("beta", alpha))


def family_adjoint(space, family, data):
    """The data of iota(g) by the rule of g's family, the oracle of the
    adjoint read off the pairing: a central unit is its own adjoint
    (<ux, y> = <x, uy>), and every other matrix A of g goes to A^T, or
    for Hermitian forms to the conjugate transpose conj_index[A^T]."""
    if family == "central":
        return dict(data)
    return {key: space.conj_index[A.T] if family == "hermitian" else A.T
            for key, A in data.items()}


def formula_perm(space, family, data):
    """The permutation of a map of a family from its data, the formula
    evaluated on every point of X at once (through the field's index
    tables; a central unit by scalar_mul): the oracle of _field_map,
    which evaluates it on the digit basis only and extends linearly."""
    points = np.arange(space.size)
    if family == "central":
        return space.scalar_mul(points, data["unit"])
    field = space.field
    X = space.entries(points)
    if "matrix" in data:
        images = field.matmul(data["matrix"], X[..., None])[..., 0]
    else:
        alpha = data["alpha"]
        left = family_adjoint(space, family, {"alpha": alpha})["alpha"]
        images = field.matmul(field.matmul(left, X),
                              data.get("beta", alpha))
    return space.points_of(images, "oracle", points)


def assert_adjoints_follow_the_family_rule(genset, same_data=True):
    """adjoint_map's image of every generator g, read off the pairing,
    equals on every point the map of family_adjoint's data, in g's dtype,
    and reuses g's array exactly when that map is g; with same_data, as
    on every built-in generating set, exactly when family_adjoint gives
    g's own data, as the family rule reused it."""
    space = genset.space
    for g, ig in zip(genset.generators, adjoint_map(genset).images):
        data = family_adjoint(space, genset.family, g.data)
        want = formula_perm(space, genset.family, data)
        assert np.array_equal(ig.perm, want), g.name
        assert ig.perm.dtype == g.perm.dtype and ig.additive, g.name
        reused = np.array_equal(want, g.perm)
        if same_data:
            assert reused == all(np.array_equal(A, g.data[key])
                                 for key, A in data.items()), g.name
        assert (ig.perm is g.perm) == reused, g.name


def assert_perms_match_loops(genset):
    """Every generator, the linear extension of its digit-basis images,
    equals both oracles on every point: the per-point loop and the
    all-points formula; every adjoint image follows the family rule.
    Central maps are scalar multiplications, with no field formula."""
    assert_adjoints_follow_the_family_rule(genset)
    if genset.family == "central":
        return
    space = genset.space
    for g in genset.generators:
        assert list(g.perm) == loop_perm(space, genset.family, g.data), \
            g.name
        assert np.array_equal(
            g.perm, formula_perm(space, genset.family, g.data)), g.name
        data = family_adjoint(space, genset.family, g.data)
        assert formula_perm(space, genset.family, data).tolist() == \
            loop_perm(space, genset.family, data), g.name


# more extension-field kinds, beside those of ORACLE_SPACES
EXTENSION_SPACES = [
    VectorSpace(2, FieldSpec(2, 4)),
    FullMatrixSpace(1, 2, FieldSpec(3, 2)),
    AlternatingMatrixSpace(3, FieldSpec(2, 2)),
]


@pytest.mark.parametrize("space", ORACLE_SPACES + EXTENSION_SPACES,
                         ids=lambda s: repr(s))
def test_array_perms_match_loops_on_spaces(space):
    for family, params in natural_actions(space):
        assert_perms_match_loops(build_action(space, family, **params))


@pytest.mark.parametrize("path", [
    os.path.join(CONFIGS, name + ".json") for name in SHIPPED] + [
    os.path.join(PERFBENCH_CONFIGS, name + ".json")
    for name in ("bilinear24_f2", "hamming5_f3", "central_z15xz15",
                 "central_z16xz8")],
    ids=os.path.basename)
def test_array_perms_match_loops_on_configs(path):
    """Every shipped config and every perfbench config, and a
    weak-Hamming action's dual-poset partner (central actions check
    their adjoints only: every unit is its own adjoint)."""
    for genset in config_actions(path):
        assert_perms_match_loops(genset)


def shear(space, k, l, t):
    """The additive automorphism that adds t d_l(x) to digit k (k != l)
    of a cyclic product, t r_l = 0 mod r_k, as a permutation list."""
    D = all_digits(space)
    D[:, k] = (D[:, k] + t * D[:, l]) % space.radices[k]
    return (D @ space.place).tolist()


# (moduli, lambda, shears (k, l, t)): on Z_2 x Z_4, B = diag(2, 1), the
# adjoint of (a, b) -> (a + b, b) is (a, b) -> (a, b + 2a)
SHEARS = [
    ((2, 4), 1, [(0, 1, 1), (1, 0, 2)]),
    ((2, 4), 3, [(0, 1, 1), (1, 0, 2)]),
    ((12, 18), 5, [(0, 1, 2), (1, 0, 3), (0, 1, 4)]),
    ((4, 8, 2), 1, [(0, 1, 1), (1, 2, 4), (2, 0, 1), (1, 0, 2)]),
]


@pytest.mark.parametrize("moduli, lam, shears", SHEARS,
                         ids=lambda v: str(v).replace(" ", ""))
def test_custom_shears_of_mixed_radices_have_gram_adjoints(moduli, lam,
                                                           shears):
    """A custom action of shears of mixed radices has adjoints read off
    the pairing that pass verify_adjoint and the pair-by-pair loop, whose
    images pass the additivity sweep (their `additive` mark is proved,
    not swept), and whose adjoints are the shears again: iota(iota(g)) =
    g.  Some adjoint is not its shear, so an image is materialized."""
    space = CyclicProductSpace(moduli, lambda_multiplier=lam)
    genset = build_action(space, "custom", generators=[
        shear(space, *s) for s in shears])
    adj = adjoint_map(genset)
    assert verify_adjoint(adj) == (True, None)
    assert loop_verify_adjoint(adj) == (True, None)
    for ig in adj.images:
        assert ig.additive
        assert action_module._additivity_witness(space, ig.perm) is None
    assert any(ig.perm is not g.perm
               for g, ig in zip(genset.generators, adj.images))
    twice = adjoint_map(GeneratorSet(space, "custom", {}, adj.images))
    for g, iig in zip(genset.generators, twice.images):
        assert np.array_equal(iig.perm, g.perm), g.name


@pytest.mark.parametrize("p", [2, 3])
def test_maps_of_the_trivial_group_extend_linearly(p, tmp_path, capsys):
    """Alternating 1 x 1 matrices are the trivial group, whose one digit
    has radix 1 and no basis vector, so a linear extension reads no
    digit column.  Every map and adjoint is [0], and check, build and
    dual pass, over F_3 with the one generator diag(w) of
    gl_generators."""
    space = AlternatingMatrixSpace(1, FieldSpec(p))
    genset = build_action(space, "alternating")
    assert len(genset.generators) == (p > 2)
    for g in genset.generators + adjoint_map(genset).images:
        assert g.perm.tolist() == [0]
    path = tmp_path / "alternating1.json"
    path.write_text(json.dumps({
        "space": {"kind": "matrix_alternating", "m": 1, "field": {"p": p}},
        "action": {"family": "alternating"}}))
    for command in ("check", "build", "dual"):
        assert cli.main([command, str(path)]) == 0, command
    capsys.readouterr()


def config_paths():
    """Every shipped config and every perfbench config."""
    return [os.path.join(CONFIGS, name + ".json") for name in SHIPPED] + [
        os.path.join(PERFBENCH_CONFIGS, f)
        for f in sorted(os.listdir(PERFBENCH_CONFIGS)) if f.endswith(".json")]


def config_actions(path):
    """The action of a config and, for a weak-Hamming action, its
    dual-poset partner."""
    with open(path) as fh:
        cfg = json.load(fh)
    _, genset = cli.load_action(cfg, 4096)
    if genset.poset is None:
        return [genset]
    return [genset, poset_partner(genset)]


def assert_built_in_maps_are_additive(genset):
    """Every generator and adjoint image of a built-in action is marked
    additive, and the additivity sweep, the oracle of that construction,
    finds no violation on any of them."""
    for h in genset.generators + adjoint_map(genset).images:
        assert h.additive, h.name
        assert action_module._additivity_witness(genset.space,
                                                 h.perm) is None, h.name


@pytest.mark.parametrize("path", config_paths(), ids=os.path.basename)
def test_built_in_maps_pass_the_sweep_on_configs(path):
    for genset in config_actions(path):
        assert_built_in_maps_are_additive(genset)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_built_in_maps_pass_the_sweep_on_spaces(space):
    for family, params in natural_actions(space):
        assert_built_in_maps_are_additive(build_action(space, family,
                                                       **params))


def extension_arrays(case):
    """The space of a config (its path, or the dict) and the arrays it
    and its action take by linear extension: psi, negation, and every
    generator's and adjoint's permutation; for a tuple of GramSpace
    arguments, the psi and negation of that space, which has no action."""
    if isinstance(case, tuple):
        space, maps = GramSpace(*case), []
    else:
        if isinstance(case, str):
            with open(case) as fh:
                case = json.load(fh)
        space, genset = cli.load_action(case, 4096)
        maps = genset.generators + adjoint_map(genset).images
    return space, [space._psi, space._neg] + [h.perm for h in maps]


# lopsided splits of X: Z_4096, one digit, where A = {0}, and Z_4 paired
# mod 2, whose pairing exponents psi reads in Z_4
LOPSIDED_EXTENSIONS = [
    pytest.param({"space": {"kind": "cyclic_product", "moduli": [4096]},
                  "action": {"family": "central"}}, id="Z4096-central"),
    pytest.param(([((4,), ((1,),))], 2), id="radix-above-m"),
]


@pytest.mark.parametrize("case", config_paths() + [
    os.path.join(CUSTOM_CONFIGS, f) for f in sorted(os.listdir(
        CUSTOM_CONFIGS)) if f.endswith(".json")] + LOPSIDED_EXTENSIONS,
    ids=os.path.basename)
def test_linear_extensions_in_blocks_match_one_block(case, monkeypatch):
    """With BLOCK_CELLS at 7, below |B| on every space of more than 4
    points, so that linear_extension calls the law once per row of A,
    psi, negation and every map equal the arrays built at the default
    BLOCK_CELLS and the whole-array oracles:
    (D . B mod m) r / m . place for psi and D . D[images] mod r . place
    for each map (images its own basis images), -D mod r . place for
    negation."""
    _, whole = extension_arrays(case)
    monkeypatch.setattr(space_module, "BLOCK_CELLS", 7)
    space, blocked = extension_arrays(case)
    assert len(blocked) == len(whole)
    for a, b in zip(blocked, whole):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    D = all_digits(space).astype(np.int64)
    radices = np.array(space.radices)
    m = space.character_order
    psi = D @ space.gram % m * radices // m
    assert np.array_equal(blocked[0], psi @ space.place)
    assert np.array_equal(blocked[1], -D % radices @ space.place)
    for perm in blocked[2:]:
        assert np.array_equal(perm, D @ D[perm[space.basis]] % radices
                              @ space.place)


def test_bilinear_action_allocates_little_beyond_its_maps(monkeypatch):
    """With BLOCK_CELLS at 2^10, the four bilinear generators of a space
    of 2^16 points and 16 digits extend over A x B, |A| = |B| = 256, in
    calls of the law on 4 rows of A (1024 points) each: building
    them peaks within 1.5 MB of their permutations (1 MB), with no
    |X| x N product."""
    monkeypatch.setattr(space_module, "BLOCK_CELLS", 1 << 10)
    space = FullMatrixSpace(4, 4, FieldSpec(2), size_bound=1 << 16)
    tracemalloc.start()
    try:
        genset = build_action(space, "bilinear")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(genset.generators) == 4
    assert peak < sum(g.perm.nbytes for g in genset.generators) + 1_500_000


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_commands_sweep_no_map(name, monkeypatch, capsys):
    """check, build and dual of a shipped config run the additivity sweep
    on no map: every generator and adjoint image is additive by
    construction."""
    swept = counted_sweeps(monkeypatch)
    for command in ("check", "build", "dual"):
        assert cli.main([command, os.path.join(CONFIGS, name + ".json")]) \
            in (0, 1)
    capsys.readouterr()
    assert swept == []


@pytest.mark.parametrize("name", sorted(
    f[:-5] for f in os.listdir(CUSTOM_CONFIGS) if f.endswith(".json")))
def test_custom_commands_sweep_each_generator(name, monkeypatch, capsys):
    """A custom action is swept generator by generator, in order, once,
    when it is built: the sweep marks each generator additive, so
    check_report (check and build) and verify_adjoint (dual) sweep it no
    more."""
    path = os.path.join(CUSTOM_CONFIGS, name + ".json")
    with open(path) as fh:
        generators = json.load(fh)["action"]["generators"]
    swept = counted_sweeps(monkeypatch)
    for command in ("check", "build", "dual"):
        swept.clear()
        assert cli.main([command, path]) in (0, 1)
        assert [perm.tolist() for perm in swept] == generators
    capsys.readouterr()


# a space of each family with self-adjoint generators
REUSE_CASES = [
    (VectorSpace(2, FieldSpec(3)), "hamming", {}),
    (VectorSpace(1, FieldSpec(5)), "cyclotomic", {"d": 2}),
    (FullMatrixSpace(2, 2, FieldSpec(3)), "bilinear", {}),
    (AlternatingMatrixSpace(2, FieldSpec(3)), "alternating", {}),
    (SymmetricMatrixSpace(2, FieldSpec(3)), "symmetric", {}),
    (HermitianMatrixSpace(2, FieldSpec(2, 2)), "hermitian", {}),
    (VectorSpace(3, FieldSpec(2)), "weak_hamming", {"levels": [2, 1]}),
    (VectorSpace(3, FieldSpec(2)), "weak_hamming_dual", {"levels": [2, 1]}),
    (CyclicProductSpace((4, 6)), "central", {}),
]


@pytest.mark.parametrize("space, family, params", REUSE_CASES,
                         ids=[case[1] for case in REUSE_CASES])
def test_reused_adjoint_arrays_equal_their_recomputation(space, family,
                                                         params):
    """adjoint_map reuses g's array exactly when iota(g) is g, and the
    array equals, value for value and in dtype, the map built afresh from
    the family rule's data (family_adjoint): _field_map, or scalar_mul
    for a central unit.  Every family here reuses at least one array.
    Equal maps need not have equal data: on alternating(2)/F_3 the
    transvection T is the identity map (T^T A T = det(T) A), so its
    adjoint, of data T^T, reuses its array."""
    genset = build_action(space, family, **params)
    adj = adjoint_map(genset)
    reused = 0
    for g, ig in zip(genset.generators, adj.images):
        data = family_adjoint(space, family, g.data)
        fresh = (space.scalar_mul(np.arange(space.size), data["unit"])
                 if family == "central"
                 else _field_map(space, family, ig.name, data).perm)
        assert np.array_equal(ig.perm, fresh) and ig.perm.dtype == fresh.dtype
        same = np.array_equal(fresh, g.perm)
        assert (ig.perm is g.perm) == same, g.name
        reused += same
    assert reused


def is_form(space, A):
    """A (FieldElements) is alternating, symmetric or Hermitian, as the
    space's kind asks, checked entry by entry."""
    m = space.m
    if space.kind == "matrix_alternating":
        return all(A[i][i].is_zero() for i in range(m)) and all(
            A[j][i] == -A[i][j] for i in range(m) for j in range(m))
    if space.kind == "matrix_symmetric":
        return all(A[j][i] == A[i][j] for i in range(m) for j in range(m))
    return all(A[j][i] == conj(space, A[i][j])
               for i in range(m) for j in range(m))


@pytest.mark.parametrize("space, alpha, beta", [
    # alternating(3)/F_2: A -> A T, T a transvection
    (AlternatingMatrixSpace(3, FieldSpec(2)), "identity", "transvection"),
    # symmetric(2)/F_3: A -> A diag(w, 1)
    (SymmetricMatrixSpace(2, FieldSpec(3)), "identity", "diag_primitive"),
    # hermitian(2)/F_4: A -> alpha^T A alpha (not alpha* A alpha) with
    # alpha = diag(w, 1), whose diagonal w^2 a leaves the subfield F_2
    (HermitianMatrixSpace(2, FieldSpec(2, 2)), "diag_primitive",
     "diag_primitive"),
], ids=["alternating", "symmetric", "hermitian"])
def test_image_outside_forms_space_raises(space, alpha, beta):
    """A -> alpha^T A beta, not a congruence of the space's forms, raises
    IntegrityError naming the map and the first digit-basis point whose
    image is not a form, every earlier basis point's image a form, where
    the per-point encoders projected to the upper triangle or raised
    KeyError.  The formula runs on the basis only: X is a group, so the
    basis images decide whether every image is a form."""
    gens = {name: element_matrix(space.field, M)
            for name, M in gl_generators(space.m, space.field)}
    gens["identity"] = mat_identity(space.m, space.field)
    a, b = gens[alpha], gens[beta]
    with pytest.raises(IntegrityError) as info:
        _field_map(space, "bilinear", "bad_map",
                   {"alpha": index_matrix(a), "beta": index_matrix(b)})
    message = str(info.value)
    assert message.startswith("bad_map maps point ")
    assert message.endswith("is not %s" % space.form)
    x = int(message.split()[3])
    basis = space.basis.tolist()
    assert x in basis
    k = basis.index(x)
    images = [mat_mul(mat_mul(mat_transpose(a), space.materialize(y),
                              space.field), b, space.field)
              for y in basis[:k + 1]]
    assert [is_form(space, A) for A in images] == [True] * k + [False]


@pytest.mark.parametrize("config, size", [("bilinear24_f2", 256),
                                          ("hamming5_f3", 243)])
def test_build_makes_fewer_field_products_than_points(config, size,
                                                      monkeypatch, capsys):
    """Generators, adjoints, trace forms and class ranks come from the
    index tables: a build makes no FieldElement product, so per-point
    field arithmetic shows here if it comes back."""
    calls = [0]
    mul = FieldElement.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    path = os.path.join(PERFBENCH_CONFIGS, config + ".json")
    assert cli.main(["build", path]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == size
    assert calls[0] == 0


# small spaces over F_2, F_3, F_4 and F_9 for the property test: every
# kind each field allows
PROPERTY_SPACES = [
    VectorSpace(3, FieldSpec(2)), FullMatrixSpace(2, 3, FieldSpec(2)),
    AlternatingMatrixSpace(4, FieldSpec(2)),
    VectorSpace(3, FieldSpec(3)), FullMatrixSpace(2, 2, FieldSpec(3)),
    AlternatingMatrixSpace(3, FieldSpec(3)),
    SymmetricMatrixSpace(2, FieldSpec(3)),
    VectorSpace(2, FieldSpec(2, 2)), FullMatrixSpace(2, 2, FieldSpec(2, 2)),
    AlternatingMatrixSpace(3, FieldSpec(2, 2)),
    HermitianMatrixSpace(2, FieldSpec(2, 2)),
    VectorSpace(2, FieldSpec(3, 2)), FullMatrixSpace(1, 2, FieldSpec(3, 2)),
    AlternatingMatrixSpace(2, FieldSpec(3, 2)),
    SymmetricMatrixSpace(2, FieldSpec(3, 2)),
    HermitianMatrixSpace(2, FieldSpec(3, 2)),
]


@st.composite
def invertible(draw, field, k):
    """A random invertible k x k matrix of FieldElements."""
    els = field.elements()
    M = draw(st.lists(st.lists(st.sampled_from(els), min_size=k,
                               max_size=k), min_size=k, max_size=k)
             .filter(lambda M: oracles.matrix_rank(M, field) == k))
    return tuple(map(tuple, M))


@st.composite
def random_maps(draw):
    """A space and the data of a random map of its family, as
    element-index arrays: a matrix for vector spaces, alpha and beta for
    full matrices, alpha for forms."""
    space = draw(st.sampled_from(PROPERTY_SPACES))
    if space.kind == "vector":
        data = {"matrix": draw(invertible(space.field, space.n))}
    else:
        data = {"alpha": draw(invertible(space.field, space.m))}
    if space.kind == "matrix_full":
        data["beta"] = draw(invertible(space.field, space.n))
    return space, {key: index_matrix(M) for key, M in data.items()}


@settings(max_examples=60, deadline=None, database=None)
@given(random_maps())
def test_array_perm_matches_loop_on_random_maps(case):
    """For random invertible matrices over F_2, F_3, F_4 and F_9, the
    array permutation of v -> M v, A -> alpha^T A beta and the congruences
    equals the per-point oracle loop's, and its adjoint, read off the
    pairing, is the map of the family rule's data (which may differ from
    g's and give g's map: a Hermitian scalar of norm 1)."""
    space, data = case
    family = {"matrix_hermitian": "hermitian"}.get(space.kind, space.kind)
    g = _field_map(space, family, "g", data)
    assert list(g.perm) == loop_perm(space, family, data)
    assert_adjoints_follow_the_family_rule(
        GeneratorSet(space, family, {}, [g]), same_data=False)


@pytest.mark.parametrize("name", sorted(
    f[:-5] for f in os.listdir(PERFBENCH_CONFIGS) if f.endswith(".json")))
def test_orbits_match_bfs_on_perfbench_configs(name):
    with open(os.path.join(PERFBENCH_CONFIGS, name + ".json")) as fh:
        cfg = json.load(fh)
    _, genset = cli.load_action(cfg, 4096)
    assert_orbits_match_bfs(genset)


@st.composite
def generator_subsets(draw):
    """A built-in action on a small space with a random subset of its
    generators and adjoint images as the generating set."""
    space = draw(st.sampled_from(PROPERTY_SPACES + [
        CyclicProductSpace((4, 6)), CyclicProductSpace((2, 2, 8))]))
    family, params = draw(st.sampled_from(natural_actions(space)))
    genset = build_action(space, family, **params)
    pool = genset.generators + adjoint_map(genset).images
    chosen = draw(st.lists(st.sampled_from(pool), max_size=4) if pool
                  else st.just([]))
    return GeneratorSet(space, family, params, chosen, poset=genset.poset)


@settings(max_examples=40, deadline=None, database=None)
@given(generator_subsets())
def test_orbits_match_bfs_on_random_generator_subsets(genset):
    """The array closure of orbits equals the breadth-first oracle on
    generating sets that need not generate the family's group."""
    assert_orbits_match_bfs(genset)


@st.composite
def weak_orders(draw):
    """Level sizes of a weak order on F_2^n (n <= 6) or F_3^n (n <= 4),
    and which of the two weak-Hamming families acts."""
    q = draw(st.sampled_from([2, 3]))
    levels = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)
                  .filter(lambda ls: q ** sum(ls) <= 81))
    family = draw(st.sampled_from(["weak_hamming", "weak_hamming_dual"]))
    return q, levels, family


@settings(max_examples=25, deadline=None, database=None)
@given(weak_orders())
def test_weak_hamming_on_random_levels(case):
    """For random weak-order levels over F_2 and F_3: orbits equals the
    breadth-first oracle, the valencies are the poset's sphere sizes, the
    duality certificate passes, and it is a self-duality exactly when the
    levels read the same reversed."""
    q, levels, family = case
    space = VectorSpace(sum(levels), FieldSpec(q))
    genset = build_action(space, family, levels=levels)
    part = assert_orbits_match_bfs(genset)
    assert part.sizes == sphere_sizes(genset.poset, q)
    cert = duality_report(genset)
    assert cert.passed, cert.checks
    assert cert.valencies == part.sizes
    assert (cert.mode == "self") == (levels == levels[::-1])
