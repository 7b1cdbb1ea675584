"""Group actions given by generating sets of additive automorphisms of X.

Each built-in family materializes a small generating set as point
permutations; orbits are an array closure over them (the full group is
never stored).  Every generator's adjoint iota(g), custom ones included,
has one rule: its digit basis images are read off the pairing
(AbelianSpace.adjoint_images), and verify_adjoint checks them; their
orbits give a self dual its dual partition (duality_report).

Maps and partitions are numpy index arrays: a generator's F_q matrices
(`data`) hold element indices (gf), `Generator.perm[x]` is g(x), and
`OrbitPartition.class_of[x]` the class of x, each class an ascending
array of points.  A field family's formula runs on the entry arrays of
the digit basis points through the field's index tables (FieldSpec:
matmul, primitive, power).  A built-in map and an adjoint are the linear
extensions of their basis images (_linear_map: one call of the law over
the space's split), additive by construction and marked so, as is a
custom generator once _build_custom has swept it: verify_additive and
verify_adjoint sweep hand-built maps.
"""

from __future__ import annotations

import collections
import math

import numpy as np

from .errors import UsageError, IntegrityError
from .poset import WeakOrderPoset
from .space import (AbelianSpace, VectorSpace, FullMatrixSpace,
                    FormsSpace, AlternatingMatrixSpace, SymmetricMatrixSpace,
                    HermitianMatrixSpace)


def gl_generators(k, field):
    """A classical generating set of GL(k, q), as element-index arrays
    (0 and 1 are the indices of zero and one): the k-cycle permutation
    matrix, one elementary transvection, and diag(w, 1, ..., 1) for a
    primitive w (omitted when q = 2 or k admits no such map)."""
    eye = np.eye(k, dtype=np.intp)
    gens = []
    if k >= 2:
        gens.append(("cycle", np.roll(eye, 1, axis=0)))
        transvection = eye.copy()
        transvection[0, 1] = 1
        gens.append(("transvection", transvection))
    if field.q > 2:
        diag = eye.copy()
        diag[0, 0] = field.primitive
        gens.append(("diag_primitive", diag))
    return gens


class Generator:
    """One generating automorphism: a materialized point permutation (an
    index array, perm[x] = g(x)) plus the data of its family's formula.
    `additive` is set by _linear_map and by _build_custom's sweep, and
    kept by an adjoint that reuses g's array; any other map is swept."""

    __slots__ = ("name", "perm", "data", "additive")

    def __init__(self, name, perm, data, additive=False):
        self.name = name
        self.perm = np.asarray(perm)
        self.data = data
        self.additive = additive

    def __repr__(self):
        return "Generator(%s)" % self.name


def _is_permutation(perm, size):
    """perm lists every point of range(size) once (a sort, not np.unique,
    whose first call imports numpy.ma)."""
    return len(perm) == size and np.array_equal(np.sort(perm),
                                                np.arange(size))


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
            if not _is_permutation(g.perm, space.size):
                raise IntegrityError("generator %s is not a bijection" % g.name)

    def verify_additive(self):
        """Condition (3), g(x + y) = g(x) + g(y) for all generators g and
        points x, y: by its mark for a map marked `additive` (_linear_map,
        _build_custom), else by a sweep of g(x + e_i) = g(x) + g(e_i) over
        every point x and digit basis vector e_i, O(N |X|) (the e_i
        generate X: induct on y as a word in them).  Returns (ok,
        witness), the witness a violating (g.name, x, y) in coordinates."""
        for g in self.generators:
            witness = None if g.additive else _additivity_witness(self.space,
                                                                  g.perm)
            if witness is not None:
                return False, (g.name, *witness)
        return True, None

    def label(self):
        items = ",".join("%s=%s" % (k, v) for k, v in sorted(self.params.items()))
        return "%s(%s)" % (self.family, items)


class OrbitPartition:
    """Classes of the orbit partition, class 0 = {0}: `class_of` holds
    int32 labels (intersection_tensor codes label pairs in uint16 or
    int64), and `classes[i]` the points of class i, by default read off
    class_of in ascending order, so that classes[i][0] is the least
    point.  `ranks[i]` is the matrix rank of class i on a matrix space
    (orbits), else ranks is None."""

    def __init__(self, class_of, classes=None, ranks=None):
        self.class_of = np.asarray(class_of, dtype=np.int32)
        self.ranks = ranks
        if classes is None:
            sizes = np.bincount(self.class_of)
            order = np.argsort(self.class_of, kind="stable")
            classes = np.split(order, np.cumsum(sizes)[:-1])
        self.classes = [np.asarray(cls) for cls in classes]
        self.d = len(self.classes) - 1
        # (space, check_condition_4's result on it), once it has run
        self._condition_4 = (None, None)

    @property
    def sizes(self):
        return [len(c) for c in self.classes]


def orbit_labels(perms, size):
    """The least point of the orbit of every point under the group that
    the permutations generate, as an index array.

    Each round lowers every label to the least label over the point and
    its images under each permutation and its inverse, then jumps
    pointers (label = label[label]).  Labels only fall, and label[x] is
    always a point of the orbit of x with label[y] <= y for every y, so
    the least point c of an orbit keeps label c.  At the fixed point each
    label is at most its neighbours', hence constant on the orbit, hence
    c throughout."""
    label = np.arange(size)
    maps = []
    for perm in perms:
        inverse = np.empty_like(label)
        inverse[perm] = label
        # in intp, which numpy need not convert again at every gather
        maps += [perm.astype(np.intp, copy=False), inverse]
    while True:
        lowered = label.copy()
        for perm in maps:
            np.minimum(lowered, label[perm], out=lowered)
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            return label
        label = lowered


def orbits(genset: GeneratorSet) -> OrbitPartition:
    """The orbit partition, classes ordered by poset weight (weak-Hamming
    families), by rank (matrix spaces) or by least point, ties broken by
    least point; the orbit of 0 must be {0}."""
    space = genset.space
    label = orbit_labels([g.perm for g in genset.generators], space.size)
    # the least points, ascending: a stable sort by key breaks ties by them
    least = key = np.flatnonzero(label == np.arange(space.size))
    ranks = None
    if genset.poset is not None:
        # weak-Hamming classes are weight spheres; label by poset weight so
        # class j of the action and of its dual-poset partner correspond
        key = genset.poset.weights(space.entries(least) != 0)
    elif isinstance(space, (FullMatrixSpace, FormsSpace)):
        # forms schemes label classes by rank (alternating: rank/2, which
        # sorts the same way), one row reduction of every representative
        key = ranks = space.field.ranks(space.entries(least))
    order = np.argsort(key, kind="stable")
    least = least[order]
    position = np.empty(space.size, dtype=np.intp)
    position[least] = np.arange(len(least))
    partition = OrbitPartition(position[label], ranks=None if ranks is None
                               else ranks[order].tolist())
    if least[0] != 0 or len(partition.classes[0]) != 1:
        raise IntegrityError("orbit of 0 is not {0}")
    return partition


def check_condition_4(partition: OrbitPartition, space: AbelianSpace):
    """Negation-closure of every class; returns (ok, witness), the witness
    the least point whose negation lies in another class.  The result is
    kept on the partition, so each (partition, space) is swept once."""
    if partition._condition_4[0] is not space:
        class_of = partition.class_of
        moved = np.flatnonzero(class_of[space.neg(np.arange(space.size))]
                               != class_of)
        partition._condition_4 = space, ((False, int(moved[0])) if len(moved)
                                         else (True, None))
    return partition._condition_4[1]


def check_condition_6(partition: OrbitPartition, space: AbelianSpace):
    """The involution j(i) with -O_i = O_{j(i)}, verified exhaustively.
    Returns the pairing list, or None if negation is not class-coherent."""
    class_of = partition.class_of
    negated = class_of[space.neg(np.arange(space.size))]
    pairing = negated[[cls[0] for cls in partition.classes]]
    if (pairing[class_of] != negated).any() \
            or (pairing[pairing] != np.arange(len(pairing))).any():
        return None
    return pairing.tolist()


def _additivity_witness(space, perm):
    """The first (x, e_i) in row-major order with perm(x + e_i) !=
    perm(x) + perm(e_i), e_i running over the digit basis, as
    coordinates; None if there is none."""
    points = np.arange(space.size)[:, None]
    basis = space.basis
    bad = perm[space.add(points, basis)] != space.add(perm[points],
                                                      perm[basis])
    if not bad.any():
        return None
    x, i = divmod(int(bad.argmax()), len(basis))
    return space.serialize_point(x), space.serialize_point(int(basis[i]))


# -- family constructors -----------------------------------------------------


def _linear_map(space, name, images, data):
    """The Generator `name` with `data` mapping x = sum_j d_j(x) e_j to
    sum_j d_j(x) images[j], as f(a) + f(b) over X = A x B, each of digits
    sum_j d_j d(images[j]) mod r (AbelianSpace.linear_extension).  The
    one constructor that marks a map `additive`, as each caller proves
    r_j images[j] = 0 (a carry out of digit j drops it): a field radix
    is p; a central image is u e_j; r_j times an adjoint image pairs with
    each e_i as <g(e_i), r_j e_j> = 1, so is 0 by nondegeneracy
    (adjoint_images).  The adjoint identity needs g additive:
    verify_adjoint sweeps it."""
    perm = space.linear_extension(space.digits_of(images))
    return Generator(name, perm, data, additive=True)


def _field_map(space, family, name, data):
    """The Generator `name` with `data`: {"matrix": M} is v -> M v,
    {"alpha": a, "beta": b} is A -> a^T A b, b = a without "beta" (a* A a,
    a* the conjugate transpose, for Hermitian forms).  The formula runs on
    the digit basis only, raising IntegrityError for an image outside X,
    and the map is their linear extension (_linear_map)."""
    field = space.field
    basis = space.basis
    X = space.entries(basis)
    if "matrix" in data:
        images = field.matmul(data["matrix"], X[..., None])[..., 0]
    else:
        alpha = data["alpha"]
        left = space.conj_index[alpha.T] if family == "hermitian" else alpha.T
        images = field.matmul(field.matmul(left, X), data.get("beta", alpha))
    return _linear_map(space, name, space.points_of(images, name, basis),
                       data)


def _build_central(space, family, params):
    """x -> ux for units u of Z_nu, nu the character order: a unit joins,
    in increasing order, only when the group of the units before it lacks
    it, so the generators are few (2 and 7 for nu = 15, 3 and 5 for
    nu = 16 and 64) and generate every unit, with the same orbits."""
    nu = space.character_order
    units, group = [], {1}
    for u in range(2, nu):
        if math.gcd(u, nu) == 1 and u not in group:
            units.append(u)
            while not group.issuperset(more := {g * u % nu for g in group}):
                group |= more
    gens = [_linear_map(space, "mul_%d" % u, space.scalar_mul(space.basis, u),
                        {"unit": u}) for u in units]
    return GeneratorSet(space, "central", {"nu": nu, **params}, gens)


def _build_cyclotomic(space, family, params):
    if not isinstance(space, VectorSpace) or space.n != 1:
        raise UsageError("cyclotomic actions live on X = (F_q, +)")
    d = int(params["d"])
    q = space.field.q
    if q % 2 == 0 or d < 1 or (q - 1) % (2 * d) != 0:
        raise UsageError("cyclotomic classes need odd q with 2d | q-1")
    w_d = space.field.power(space.field.primitive, d)
    gen = _field_map(space, "cyclotomic", "mul_w^%d" % d,
                     {"matrix": np.array([[w_d]])})
    return GeneratorSet(space, "cyclotomic", {"d": d}, [gen])


def _build_bilinear(space, family, params):
    if not isinstance(space, FullMatrixSpace):
        raise UsageError("bilinear actions live on full matrix spaces")
    field = space.field
    m, n = space.m, space.n
    Im, In = np.eye(m, dtype=np.intp), np.eye(n, dtype=np.intp)
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
    scaling, returned as n x n element-index arrays."""
    field = space.field
    eye = np.eye(space.n, dtype=np.intp)
    gens = []
    for a, b in zip(block, block[1:]):
        swap = eye.copy()
        swap[[a - 1, b - 1]] = swap[[b - 1, a - 1]]
        gens.append(("%sswap_%d_%d" % (tag, a, b), swap))
    if field.q > 2:
        scale = eye.copy()
        scale[block[0] - 1, block[0] - 1] = field.primitive
        gens.append(("%sscale_%d" % (tag, block[0]), scale))
    return gens


def _build_hamming(space, family, params):
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
    # before the poset lists a level per coordinate
    if sum(levels) != space.n:
        raise UsageError("level sizes must sum to the space dimension")
    poset = WeakOrderPoset(levels)
    if family == "weak_hamming_dual":
        poset = poset.dual()
    mats = []
    for s in range(1, poset.t + 1):
        mats.extend(_hamming_block_generators(space, poset.block(s),
                                              "lvl%d_" % s))
    for s in range(1, poset.t + 1):
        for s2 in range(1, s):
            i = poset.block(s)[0]
            l = poset.block(s2)[0]
            M = np.eye(space.n, dtype=np.intp)
            M[l - 1, i - 1] = 1  # e_i -> e_i + e_l, a level-s -> level-s2 bleed
            mats.append(("bleed_%d_to_%d" % (i, l), M))
    gens = [_field_map(space, family, name, {"matrix": M})
            for name, M in mats]
    return GeneratorSet(space, family, {"levels": levels}, gens, poset=poset)


def _build_custom(space, family, params):
    gens = []
    for k, perm in enumerate(params["generators"]):
        perm = np.array(perm)
        if not _is_permutation(perm, space.size):
            raise UsageError("custom generator %d is not a permutation of X" % k)
        if perm[0] != 0:
            raise UsageError("custom generator %d does not fix 0" % k)
        gens.append(Generator("custom_%d" % k, perm, {}))
    gs = GeneratorSet(space, "custom", {}, gens)
    ok, witness = gs.verify_additive()
    if not ok:
        raise UsageError("custom generator violates additivity at %s" % (witness,))
    for g in gens:
        g.additive = True
    return gs


# Action family -> (constructor, required parameter keys, optional ones);
# a config's action accepts no other key but "family".  Each constructor
# takes (space, family, params).
FAMILIES = {
    "central": (_build_central, (), ()),
    "cyclotomic": (_build_cyclotomic, ("d",), ()),
    "bilinear": (_build_bilinear, (), ()),
    "alternating": (_build_congruence, (), ()),
    "symmetric": (_build_congruence, (), ()),
    "hermitian": (_build_congruence, (), ()),
    "hamming": (_build_hamming, (), ("n",)),
    "weak_hamming": (_build_weak_hamming, ("levels",), ()),
    "weak_hamming_dual": (_build_weak_hamming, ("levels",), ()),
    "custom": (_build_custom, ("generators",), ()),
}


def build_action(space: AbelianSpace, family, **params) -> GeneratorSet:
    """Materialize the generating set of a family of FAMILIES on `space`."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise UsageError("unknown action family %r" % family)
    return FAMILIES[family][0](space, family, params)


# -- adjoints ---------------------------------------------------------------

# iota of each generator of `source`, or None for a degenerate pairing
AdjointMap = collections.namedtuple("AdjointMap", "source images")


def adjoint_map(genset: GeneratorSet) -> AdjointMap:
    """iota(g) for every generator g, of any family: the linear extension
    (_linear_map) of the basis images read off the pairing from g's
    (AbelianSpace.adjoint_images).  When they are g's own, iota(g) is g
    and reuses g's array and mark: every central unit, the Hamming swaps
    and scalings, the cyclotomic map, the symmetric matrices of
    gl_generators.  A degenerate pairing gives no images."""
    space, gens = genset.space, genset.generators
    forward = np.array([g.perm[space.basis] for g in gens], dtype=np.intp
                       ).reshape(len(gens), len(space.basis))
    backward = space.adjoint_images(forward)
    if backward is None:
        return AdjointMap(genset, None)
    images = [Generator("adj_" + g.name, g.perm, {}, g.additive) if same
              else _linear_map(space, "adj_" + g.name, b, {}) for g, same, b
              in zip(gens, (forward == backward).all(axis=1), backward)]
    return AdjointMap(genset, images)


def verify_adjoint(adjoint: AdjointMap):
    """Check <gx, y> = <x, iota(g) y> for every generator, over a
    nondegenerate pairing: the adjoint lemma's premise (duality).

    g and iota(g) must first be additive: a map marked `additive` is so
    (Generator), and any other gets GeneratorSet.verify_additive's
    sweep (a failure returns its witness, named after the map that
    failed; iota(g) is skipped when it reuses g's array).  Then both
    sides are biadditive, so the digit basis pairs decide the identity on
    X x X, one array comparison per generator; lambda, a unit, is left
    out.  The witness is (g.name, x, y) at the first mismatching basis
    pair in row-major order; on a degenerate pairing, where adjoint_map
    reads off no images, ("degenerate pairing", x), x that of
    AbelianSpace.verify_nondegenerate.  Points are coordinates."""
    genset = adjoint.source
    space = genset.space
    basis = space.basis
    nondegenerate, x = space.verify_nondegenerate()
    if not nondegenerate:
        return False, ("degenerate pairing", x)
    for g, ig in zip(genset.generators, adjoint.images):
        for h in (g,) if ig.perm is g.perm else (g, ig):
            witness = None if h.additive else _additivity_witness(space,
                                                                  h.perm)
            if witness is not None:
                return False, (h.name, *witness)
        bad = (space.pairing_exponent(g.perm[basis][:, None], basis)
               != space.pairing_exponent(basis[:, None], ig.perm[basis]))
        if bad.any():
            x, y = divmod(int(bad.argmax()), len(basis))
            return False, (g.name, space.serialize_point(int(basis[x])),
                           space.serialize_point(int(basis[y])))
    return True, None
