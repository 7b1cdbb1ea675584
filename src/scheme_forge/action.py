"""Group actions given by generating sets of additive automorphisms of X.

Each built-in family materializes a small generating set as point
permutations; orbits are computed by breadth-first closure (the full group
is never stored).  Adjoint images iota(g) are defined generator-by-generator
following the family's structural rule and verified against the pairing.

A field family's map (v -> M v, or A -> left A right) runs on the entry
arrays of all points at once through the field's index tables
(FieldSpec.matmul).  Each permutation comes from the formula on every
point, never from basis images and linearity, so verify_additive stays a
real test of condition (3).
"""

from __future__ import annotations

import math

import numpy as np

from . import oracles
from .errors import UsageError, IntegrityError
from .poset import WeakOrderPoset
from .space import (AbelianSpace, VectorSpace, FullMatrixSpace,
                    FormsSpace, AlternatingMatrixSpace, SymmetricMatrixSpace,
                    HermitianMatrixSpace)

VECTOR_MATRIX_FAMILIES = ("cyclotomic", "hamming", "weak_hamming",
                          "weak_hamming_dual")


# -- small matrix helpers over a FieldSpec ---------------------------------

def mat_identity(k, field):
    z, o = field.zero(), field.one()
    return tuple(tuple(o if i == j else z for j in range(k)) for i in range(k))

def mat_transpose(A):
    return tuple(zip(*A))

def mat_conj_transpose(A, space):
    return tuple(tuple(space.conj(A[j][i]) for j in range(len(A)))
                 for i in range(len(A[0])))

def index_matrix(A):
    """A matrix of FieldElements as an array of element indices."""
    return np.array([[a.index for a in row] for row in A])


def gl_generators(k, field):
    """A classical generating set of GL(k, q): the k-cycle permutation
    matrix, one elementary transvection, and diag(w, 1, ..., 1) for a
    primitive w (omitted when q = 2 or k admits no such map)."""
    z, o = field.zero(), field.one()
    gens = []
    if k >= 2:
        cycle = tuple(tuple(o if i == (j + 1) % k else z for j in range(k))
                      for i in range(k))
        gens.append(("cycle", cycle))
        transvection = tuple(tuple(
            o if i == j else (o if (i, j) == (0, 1) else z)
            for j in range(k)) for i in range(k))
        gens.append(("transvection", transvection))
    if field.q > 2:
        w = field.primitive_element()
        diag = tuple(tuple(
            (w if i == 0 else o) if i == j else z for j in range(k))
            for i in range(k))
        gens.append(("diag_primitive", diag))
    return gens


class Generator:
    """One generating automorphism: a materialized point permutation plus
    the structured data its adjoint rule needs."""

    __slots__ = ("name", "perm", "data")

    def __init__(self, name, perm, data):
        self.name = name
        self.perm = tuple(perm)
        self.data = data

    def __repr__(self):
        return "Generator(%s)" % self.name


class GeneratorSet:
    def __init__(self, space, family, params, generators, poset=None):
        self.space = space
        self.family = family
        self.params = dict(params)
        self.generators = list(generators)
        self.poset = poset
        for g in self.generators:
            if g.perm[0] != 0:
                raise IntegrityError("generator %s does not fix 0" % g.name)
            if len(set(g.perm)) != space.size:
                raise IntegrityError("generator %s is not a bijection" % g.name)

    def verify_additive(self):
        """Check g(x + e_i) = g(x) + g(e_i) for every generator g, every
        point x and every digit basis vector e_i, O(N |X|) per generator.
        The e_i generate X, so induction on the length of y as a word in
        them gives g(x + y) = g(x) + g(y) for all x and y.  Returns (ok,
        witness), the witness a violating (g.name, x, y)."""
        for g in self.generators:
            witness = _additivity_witness(self.space, g.perm)
            if witness is not None:
                return False, (g.name,) + witness
        return True, None

    def label(self):
        items = ",".join("%s=%s" % (k, v) for k, v in sorted(self.params.items()))
        return "%s(%s)" % (self.family, items)


class OrbitPartition:
    """Classes of the orbit partition, class 0 = {0}, the rest ordered by
    minimal point index."""

    def __init__(self, class_of, classes):
        self.class_of = class_of
        self.classes = classes
        self.d = len(classes) - 1

    @property
    def sizes(self):
        return [len(c) for c in self.classes]


def orbits(genset: GeneratorSet) -> OrbitPartition:
    space = genset.space
    n = space.size
    seen = [False] * n
    raw = []
    perms = [g.perm for g in genset.generators]
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
        # weak-Hamming classes are weight spheres; label by poset weight so
        # class j of the action and of its dual-poset partner correspond
        raw.sort(key=lambda c: (genset.poset.weight(space.coords_of(c[0])),
                                c[0]))
    elif isinstance(space, (FullMatrixSpace, FormsSpace)):
        # forms schemes label classes by rank (alternating: rank/2, which
        # sorts the same way); ties broken by minimal point index
        raw.sort(key=lambda c: (oracles.matrix_rank(
            space.materialize(c[0]), space.field), c[0]))
    else:
        raw.sort(key=lambda c: c[0])
    if raw[0] != [0]:
        raise IntegrityError("orbit of 0 is not {0}")
    class_of = [0] * n
    for ci, comp in enumerate(raw):
        for x in comp:
            class_of[x] = ci
    return OrbitPartition(class_of, raw)


def check_condition_4(partition: OrbitPartition, space: AbelianSpace):
    """Negation-closure of every class; returns (ok, witness), the witness
    the least point whose negation lies in another class."""
    class_of = np.asarray(partition.class_of)
    moved = np.flatnonzero(class_of[space.neg(np.arange(space.size))]
                           != class_of)
    if len(moved):
        return False, int(moved[0])
    return True, None


def check_condition_6(partition: OrbitPartition, space: AbelianSpace):
    """The involution j(i) with -O_i = O_{j(i)}, verified exhaustively.
    Returns the pairing list, or None if negation is not class-coherent."""
    class_of = np.asarray(partition.class_of)
    negated = class_of[space.neg(np.arange(space.size))]
    pairing = negated[[cls[0] for cls in partition.classes]]
    if (pairing[class_of] != negated).any() \
            or (pairing[pairing] != np.arange(len(pairing))).any():
        return None
    return pairing.tolist()


def _additivity_witness(space, perm):
    """The first (x, e_i) in row-major order with perm(x + e_i) !=
    perm(x) + perm(e_i), e_i running over the digit basis; None if there
    is none."""
    perm = np.asarray(perm)
    points = np.arange(space.size)[:, None]
    basis = space.basis
    bad = perm[space.add(points, basis)] != space.add(perm[points],
                                                      perm[basis])
    if not bad.any():
        return None
    x, i = divmod(int(bad.argmax()), len(basis))
    return x, int(basis[i])


# -- family constructors -----------------------------------------------------


def _field_map(space, family, name, data):
    """The Generator `name` with `data`, its permutation the family's
    formula evaluated on every point of X at once: {"matrix": M} is
    v -> M v, {"alpha": a, "beta": b} is A -> a^T A b, and b = a when
    there is no "beta" (A -> a* A a for Hermitian forms).  Raises
    IntegrityError when an image is not in X."""
    field = space.field
    X = space.entries(np.arange(space.size))
    if "matrix" in data:
        images = field.matmul(index_matrix(data["matrix"]), X[..., None])
        images = images[..., 0]
    else:
        alpha = data["alpha"]
        left = (mat_conj_transpose(alpha, space) if family == "hermitian"
                else mat_transpose(alpha))
        images = field.matmul(field.matmul(index_matrix(left), X),
                              index_matrix(data.get("beta", alpha)))
    return Generator(name, space.points_of(images, name).tolist(), data)


def build_action(space: AbelianSpace, family, **params) -> GeneratorSet:
    """Materialize the generating set of a built-in family on `space`."""
    if family == "central":
        return _build_central(space, params)
    if family == "cyclotomic":
        return _build_cyclotomic(space, params)
    if family == "bilinear":
        return _build_bilinear(space, params)
    if family in ("alternating", "symmetric", "hermitian"):
        return _build_congruence(space, family, params)
    if family == "hamming":
        return _build_hamming(space, params)
    if family in ("weak_hamming", "weak_hamming_dual"):
        return _build_weak_hamming(space, family, params)
    if family == "custom":
        return _build_custom(space, params)
    raise UsageError("unknown action family %r" % family)


def _build_central(space, params):
    nu = space.character_order
    gens = []
    for u in range(2, nu):
        if math.gcd(u, nu) != 1:
            continue
        perm = space.scalar_mul(np.arange(space.size), u).tolist()
        gens.append(Generator("mul_%d" % u, perm, {"unit": u}))
    return GeneratorSet(space, "central", {"nu": nu, **params}, gens)


def _build_cyclotomic(space, params):
    if not isinstance(space, VectorSpace) or space.n != 1:
        raise UsageError("cyclotomic actions live on X = (F_q, +)")
    d = int(params["d"])
    q = space.field.q
    if q % 2 == 0 or d < 1 or (q - 1) % (2 * d) != 0:
        raise UsageError("cyclotomic classes need odd q with 2d | q-1")
    w = space.field.primitive_element()
    gen = _field_map(space, "cyclotomic", "mul_w^%d" % d,
                     {"matrix": ((w ** d,),)})
    return GeneratorSet(space, "cyclotomic", {"d": d}, [gen])


def _build_bilinear(space, params):
    if not isinstance(space, FullMatrixSpace):
        raise UsageError("bilinear actions live on full matrix spaces")
    field = space.field
    m, n = space.m, space.n
    Im, In = mat_identity(m, field), mat_identity(n, field)
    gens = [_field_map(space, "bilinear", "left_" + name,
                       {"alpha": alpha, "beta": In})
            for name, alpha in gl_generators(m, field)]
    gens += [_field_map(space, "bilinear", "right_" + name,
                        {"alpha": Im, "beta": beta})
             for name, beta in gl_generators(n, field)]
    return GeneratorSet(space, "bilinear", {"m": m, "n": n}, gens)


def _build_congruence(space, family, params):
    expected = {"alternating": AlternatingMatrixSpace,
                "symmetric": SymmetricMatrixSpace,
                "hermitian": HermitianMatrixSpace}[family]
    if not isinstance(space, expected):
        raise UsageError("%s actions need a %s space"
                         % (family, expected.kind))
    field = space.field
    gens = [_field_map(space, family, name, {"alpha": alpha})
            for name, alpha in gl_generators(space.m, field)]
    extra = {}
    if family == "symmetric":
        extra["q_mod_4"] = field.q % 4
    return GeneratorSet(space, family, {"m": space.m, **extra}, gens)


def _hamming_block_generators(space, block, tag):
    """Monomial generators of the Hamming group on the given coordinate
    block (1-based coords): adjacent transpositions plus one primitive
    scaling, returned as n x n matrices."""
    field = space.field
    n = space.n
    z, o = field.zero(), field.one()
    gens = []
    for a, b in zip(block, block[1:]):
        M = [[o if i == j else z for j in range(n)] for i in range(n)]
        i0, j0 = a - 1, b - 1
        M[i0][i0] = M[j0][j0] = z
        M[i0][j0] = M[j0][i0] = o
        gens.append(("%sswap_%d_%d" % (tag, a, b), tuple(map(tuple, M))))
    if field.q > 2:
        w = field.primitive_element()
        i0 = block[0] - 1
        M = [[o if i == j else z for j in range(n)] for i in range(n)]
        M[i0][i0] = w
        gens.append(("%sscale_%d" % (tag, block[0]), tuple(map(tuple, M))))
    return gens


def _build_hamming(space, params):
    if not isinstance(space, VectorSpace):
        raise UsageError("hamming actions live on vector spaces")
    n = int(params.get("n", space.n))
    if n != space.n:
        raise UsageError("hamming n mismatch with space dimension")
    gens = [_field_map(space, "hamming", name, {"matrix": M}) for name, M
            in _hamming_block_generators(space, list(range(1, n + 1)), "")]
    return GeneratorSet(space, "hamming", {"n": n}, gens)


def _build_weak_hamming(space, family, params):
    if not isinstance(space, VectorSpace):
        raise UsageError("weak_hamming actions live on vector spaces")
    levels = tuple(int(v) for v in params["levels"])
    poset = WeakOrderPoset(levels)
    if family == "weak_hamming_dual":
        poset = poset.dual()
    if poset.n != space.n:
        raise UsageError("level sizes must sum to the space dimension")
    field = space.field
    z, o = field.zero(), field.one()
    mats = []
    for s in range(1, poset.t + 1):
        mats.extend(_hamming_block_generators(space, poset.block(s),
                                              "lvl%d_" % s))
    for s in range(1, poset.t + 1):
        for s2 in range(1, s):
            i = poset.block(s)[0]
            l = poset.block(s2)[0]
            M = [[o if a == b else z for b in range(space.n)]
                 for a in range(space.n)]
            M[l - 1][i - 1] = o  # e_i -> e_i + e_l, a level-s -> level-s2 bleed
            mats.append(("bleed_%d_to_%d" % (i, l), tuple(map(tuple, M))))
    gens = [_field_map(space, family, name, {"matrix": M})
            for name, M in mats]
    return GeneratorSet(space, family, {"levels": levels}, gens, poset=poset)


def _build_custom(space, params):
    perms = params["generators"]
    gens = []
    for k, perm in enumerate(perms):
        if sorted(perm) != list(range(space.size)):
            raise UsageError("custom generator %d is not a permutation of X" % k)
        gens.append(Generator("custom_%d" % k, perm, {}))
    gs = GeneratorSet(space, "custom", {}, gens)
    ok, witness = gs.verify_additive()
    if not ok:
        raise UsageError("custom generator violates additivity at %s" % (witness,))
    return gs


# -- adjoints ---------------------------------------------------------------


class AdjointMap:
    """Per-generator adjoint images, aligned with the source generators."""

    def __init__(self, source: GeneratorSet, images, codomain_family):
        self.source = source
        self.images = list(images)
        self.codomain_family = codomain_family


def adjoint_map(genset: GeneratorSet) -> AdjointMap:
    space = genset.space
    family = genset.family
    if family == "custom":
        raise UsageError("custom actions carry no built-in adjoint map")
    images = []
    codomain = family
    if family == "central":
        images = [Generator("adj_" + g.name, g.perm, dict(g.data))
                  for g in genset.generators]
    elif family in VECTOR_MATRIX_FAMILIES:
        if family == "weak_hamming":
            codomain = "weak_hamming_dual"
        elif family == "weak_hamming_dual":
            codomain = "weak_hamming"
        dual_poset = genset.poset.dual() if genset.poset is not None else None
        for g in genset.generators:
            ig = _field_map(space, family, "adj_" + g.name,
                            {"matrix": mat_transpose(g.data["matrix"])})
            if dual_poset is not None:
                _assert_preserves_weight(space, ig.perm, dual_poset, g.name)
            images.append(ig)
    elif family == "bilinear":
        images = [_field_map(space, family, "adj_" + g.name,
                             {"alpha": mat_transpose(g.data["alpha"]),
                              "beta": mat_transpose(g.data["beta"])})
                  for g in genset.generators]
    elif family in ("alternating", "symmetric", "hermitian"):
        for g in genset.generators:
            alpha = g.data["alpha"]
            a2 = (mat_conj_transpose(alpha, space) if family == "hermitian"
                  else mat_transpose(alpha))
            images.append(_field_map(space, family, "adj_" + g.name,
                                     {"alpha": a2}))
    else:
        raise UsageError("no adjoint rule for family %r" % family)
    return AdjointMap(genset, images, codomain)


def _assert_preserves_weight(space, perm, poset, name):
    """Raise IntegrityError unless w(perm(x)) = w(x) for every point x,
    the poset weights read off the nonzero entries of all points."""
    weights = poset.weights(space.entries(np.arange(space.size)) != 0)
    if (weights[list(perm)] != weights).any():
        raise IntegrityError(
            "adjoint of %s does not preserve the dual poset weight" % name)


def verify_adjoint(adjoint: AdjointMap):
    """Check <gx, y> = <x, iota(g) y> for every generator.

    g and iota(g) must first pass the digit-basis additivity check of
    verify_additive (a failure returns its witness, named after the map
    that failed).  Then both sides are biadditive in (x, y), so the pairs
    of digit basis vectors decide the identity for all of X x X, one
    array comparison per generator; lambda is a unit, so it is left out.
    The witness is (g.name, x, y) at the first mismatching basis pair in
    row-major order."""
    genset = adjoint.source
    space = genset.space
    basis = space.basis
    for g, ig in zip(genset.generators, adjoint.images):
        for h in (g, ig):
            witness = _additivity_witness(space, h.perm)
            if witness is not None:
                return False, (h.name,) + witness
        perm, iperm = np.asarray(g.perm), np.asarray(ig.perm)
        bad = (space.pairing_exponent(perm[basis][:, None], basis)
               != space.pairing_exponent(basis[:, None], iperm[basis]))
        if bad.any():
            x, y = divmod(int(bad.argmax()), len(basis))
            return False, (g.name, int(basis[x]), int(basis[y]))
    return True, None
