"""Finite abelian vertex groups X and their pairings, on integer digits.

Every built-in space is the group Z_{r_1} x ... x Z_{r_N}: a point is a
digit vector d(x) with 0 <= d_i < r_i, and its index is the plain
mixed-radix number of its digits (first digit most significant, zero
element at index 0).  Each F_p coefficient of a field coordinate is one
digit of radix p, highest-degree coefficient first (the order of
FieldElement.index); each factor Z_{m_i} of a cyclic product is one digit
of radix m_i.

With the radices r_i and the place weights w_i = r_{i+1} ... r_N, a point
is x = sum_i d_i(x) w_i, and `digits_of` decodes its digits on demand,
d_i(x) = x // w_i mod r_i: no array holds those of all points.  The group
law is table gathers, with no carry: the digits fall into blocks of
consecutive digits, each while prod (2 r_i - 1) <= max(4 |X|, 4096), so
every table has O(|X|) entries.  In a block, the spread S(x) = sum_i d_i(x)
W_i, W_i the product of 2 r_j - 1 over the later digits j of the block,
keeps each digit sum of S(x) + S(y) whole, and a sum table T maps it to
sum_i (d_i(x) + d_i(y) mod r_i) w_i, the block's share of x + y.  `add`
sums T[S(x) + S(y)] over the blocks, `sub` is that law on x and -y, `neg`
is one gather and `scalar_mul` u times the decoded digits.  They take a
point index or integer index arrays, which broadcast against each other, so
a sweep over X (or over X x X) is one call; index arrays are int32 whenever
every product the space forms fits (AbelianSpace.__init__), else int64.

X splits once as A x B (AbelianSpace.split), A the points of the k
leading digits and B of the others, k the least with |A| + |B| least.
An additive f is f(a) + f(b) on it: one call of the law on f(A) x f(B),
read off one product of the digits of A and B, O(sqrt|X| N) cells
(`linear_extension`: psi, negation and every map); so are the pairing
rows, in Z_m.

The pairing is one bilinear form: <x,y> = zeta_m^k with

    k = d(x) . B . d(y) mod m,

where the N x N Gram matrix B is built once per space.  For field spaces B
is block diagonal, one block per free coordinate, holding an F_p-bilinear
trace form on that coordinate's digit basis; for cyclic products it is
diag(m/m_i).  B is stored once, as one point psi(x) per point x
(AbelianSpace): <x, e_k> is an r_k-th root of unity, as r_k e_k = 0, and
digit k of psi(x) is its exponent over zeta_{r_k}, so the Gram row
d(x) . B mod m is d(psi(x)) m / r, digit by digit.  `pairing_exponent`
returns k before the lambda multiplier, for indices or index arrays;
`pairing_rows` is the rows of the table (d(x) . B . d(y)) lambda mod m at
some points, and `pairing_table` all of it: biadditivity lets a check
over all y use the digit basis vectors e_i (the points w_i) instead.

Coordinates (`coords_of`, `coords_array`, `index_of`, `serialize_point`)
group the digits of one field coordinate back into a field-element index.
The field spaces decode index arrays of points to arrays of the element
indices of their vector or matrix entries (`entries`) and encode such
arrays back to points (`points_of`, which raises IntegrityError for a
matrix outside X); the action families evaluate their formulas on these
arrays, at the digit basis, through the field's index tables.
`materialize` gives one point as FieldElements, for rank labels.  No
FieldElement arithmetic runs in the group law, the pairing or the
actions.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import (UsageError, ConfigError, ResourceLimitError,
                     IntegrityError)
from .gf import FieldSpec

DEFAULT_SIZE_BOUND = 4096


def check_size(kw, *factors):
    """|X|, the product of base ** exponent over the (base, exponent)
    `factors`; raises ResourceLimitError once a partial product passes
    the size bound in the constructor keywords `kw`, before the space
    builds anything, naming the bound: |X| may be too long to print."""
    bound, size = kw.get("size_bound", DEFAULT_SIZE_BOUND), 1
    for base, exponent in factors:
        for _ in range(exponent):
            size *= base
            if size > bound:
                raise ResourceLimitError("|X| exceeds size bound %d" % bound)
    return size


def check_tensor_size(d, size_bound):
    """Raise ResourceLimitError, naming the bound, when a (d + 1)^3
    tensor (intersection numbers, Krein parameters) would have more than
    size_bound^2 entries: the bound on |X| bounds how many classes a
    tensor over them may have, before one is allocated."""
    entries, bound = (d + 1) ** 3, size_bound ** 2
    if entries > bound:
        raise ResourceLimitError(
            "a (d + 1)^3 tensor of %d entries (d = %d) exceeds the tensor "
            "bound %d, the size bound %d squared"
            % (entries, d, bound, size_bound))


def check_dimensions(**dims):
    """Raise UsageError naming the first dimension below 1."""
    for name, value in dims.items():
        if value < 1:
            raise UsageError("%s must be >= 1" % name)


def _decode(points, place, radices):
    """points // place % radices, one row per point, in place's dtype."""
    return np.asarray(points, place.dtype)[..., None] // place % radices


def _law_blocks(radices, place, limit):
    """The blocks of the group law (module docstring), each while prod
    (2 r_i - 1) <= limit: (T, S), S read off the index grid of T."""
    spans, blocks, start = [2 * r - 1 for r in radices], [], 0
    while start < len(radices):
        stop = start + 1
        while stop < len(spans) and math.prod(spans[start:stop + 1]) <= limit:
            stop += 1
        # T at digits u_i < 2 r_i - 1 is the outer sum of (u_i mod r_i) w_i
        # over the block; S(x) is the index in T of x's block digits
        rs, ss = radices[start:stop], spans[start:stop]
        grid = np.arange(math.prod(ss), dtype=place.dtype).reshape(ss)
        spread = np.broadcast_to(grid[tuple(map(slice, rs))][..., None], (
            math.prod(radices[:start]), *rs, place[stop - 1]))
        table = functools.reduce(np.add.outer, [
            np.arange(s, dtype=place.dtype) % r * w
            for s, r, w in zip(ss, rs, place[start:stop])])
        blocks.append((table.ravel(), spread.ravel()))
        start = stop
    return blocks


class AbelianSpace:
    """X = Z_{r_1} x ... x Z_{r_N} on digit vectors.

    `coord_radices` lists, per free coordinate, the radices of its digits.
    `radices` are the r_i and `place` the place weights; `digits_of`
    decodes points to their digits d(x), so x = d(x) . place.  `basis`
    lists the digit basis vectors e_i (the points place[i], r_i > 1),
    which generate X.  `split` is (the basis digits of the points of A and
    then of B, |A|), X = A x B.  Subclasses define `pairing_exponent` and
    `_psi`, which maps x to the point psi(x) of digits <x, e_k> r_k / m
    (GramSpace), the form X -> X^ of the pairing.
    """

    kind = None

    def __init__(self, coord_radices, character_order, lambda_multiplier=1,
                 size_bound=DEFAULT_SIZE_BOUND):
        # the trivial group gets one digit of radix 1: the law needs a block
        radices = tuple(r for digits in coord_radices for r in digits) or (1,)
        size = check_size({"size_bound": size_bound},
                          *((r, 1) for r in radices))
        if math.gcd(lambda_multiplier, character_order) != 1:
            raise UsageError("lambda multiplier must be a unit mod %d"
                             % character_order)
        # int32 holds each product made in the index dtype: spread sums
        # (below the block limit), digits times Gram rows, digit rows or
        # units (below N max(m, r_i) max r_i), lambda products (below m^2)
        m, r = character_order, max(radices)
        bound = max(8 * max(size, 1024), len(radices) * max(m, r) * r, m * m)
        dtype = np.int32 if bound < 2 ** 31 else np.int64
        self.radices = radices
        self._coord_radices = np.array([*map(math.prod, coord_radices)], dtype)
        self._coord_place = np.array(
            [math.prod(self._coord_radices[i + 1:])
             for i in range(len(self._coord_radices))], dtype=dtype)
        self.place = np.array([math.prod(radices[i + 1:])
                               for i in range(len(radices))], dtype=dtype)
        self._radices = np.array(radices, dtype=dtype)
        self._blocks = _law_blocks(radices, self.place, max(4 * size, 4096))
        self.size = size
        self._live = self._radices > 1
        self.basis = self.place[self._live]
        lead = min(range(len(radices) + 1), key=lambda k: math.prod(
            radices[:k]) + math.prod(radices[k:]))
        trail = math.prod(radices[lead:])
        points = np.concatenate([np.arange(0, size, trail), np.arange(trail)])
        self.split = (self.digits_of(points)[:, self._live], size // trail)
        # -d(x) = (r - 1) d(x) mod r, digit by digit
        self._neg = self.linear_extension(
            np.diag(self._radices - 1)[self._live])
        self.size_bound = size_bound
        self.character_order = character_order
        self.lambda_multiplier = lambda_multiplier

    def linear_extension(self, rows):
        """f at every x, in index order, for the additive f: X -> X with
        d(f(basis[i])) = rows[i]: f(a + b) = f(a) + f(b) on X = A x B, one
        call of the law per BLOCK_CELLS cells (a chunk of A's rows)."""
        digits, lead = self.split
        f = digits @ rows % self._radices @ self.place
        f_a, f_b = f[:lead, None], f[lead:]
        out = np.empty((lead, len(f_b)), dtype=self.place.dtype)
        step = max(1, BLOCK_CELLS // len(f_b))
        for start in range(0, lead, step):
            out[start:start + step] = self._law(f_a[start:start + step], f_b)
        return out.ravel()

    # -- indexing ----------------------------------------------------------

    def coords_of(self, index):
        if not 0 <= index < self.size:
            raise UsageError("point index out of range")
        return tuple(self.coords_array(index).tolist())

    def coords_array(self, points):
        """coords_of for an index array: one row of coordinates per point."""
        return _decode(points, self._coord_place, self._coord_radices)

    def digits_of(self, points):
        """d(x) at a point or index array x: one row of digits per point."""
        return _decode(points, self.place, self._radices)

    def index_of(self, coords):
        index = 0
        for c, r in zip(coords, self._coord_radices.tolist()):
            if not 0 <= c < r:
                raise UsageError("coordinate %r out of range [0, %d)" % (c, r))
            index = index * r + c
        return index

    # -- group structure ----------------------------------------------------
    #
    # Each operation takes point indices or integer index arrays (which
    # broadcast against each other) and returns an index or an index array.

    def _law(self, x, y):
        """x + y: the sum over the blocks of T[S(x) + S(y)]."""
        out = functools.reduce(operator.iadd, (
            table[spread[x] + spread[y]] for table, spread in self._blocks))
        return out if np.ndim(out) else int(out)

    add = _law

    def neg(self, x):
        out = self._neg[x]
        return out if np.ndim(out) else int(out)

    def sub(self, x, y):
        """x - y, the law on x and -y (not add: a tracer counts its calls)."""
        return self._law(x, self._neg[y])

    def scalar_mul(self, x, u):
        """u * x for an integer u, reduced mod each radix first."""
        units = np.array([u % r for r in self.radices], dtype=self.place.dtype)
        out = self.digits_of(x) * units % self._radices @ self.place
        return out if np.ndim(out) else int(out)

    # -- pairing (subclasses define pairing_exponent and psi) ---------------

    def verify_nondegenerate(self):
        """Inner product axiom (iii): x != 0 implies <x,y> != 1 for some y.
        The pairing exponent is biadditive, so y ranges over the digit
        basis, and lambda is a unit, so it is left out: x is degenerate
        iff every <x, e_k> is 1, that is iff psi(x) = 0.  Returns (ok,
        witness_or_None), the witness the least degenerate x."""
        degenerate = np.flatnonzero(self._psi[1:] == 0)
        if len(degenerate):
            return False, int(degenerate[0]) + 1
        return True, None

    @functools.cached_property
    def _psi_inverse(self):
        """psi^-1 of adjoint_images, computed once per space and kept, or
        None for a degenerate pairing.  Digit k of psi, <x, e_k> r_k / m,
        is additive mod r_k, so psi is additive, and on a nondegenerate
        pairing its kernel is {0} (verify_nondegenerate): it is a
        permutation of the finite X."""
        if not self.verify_nondegenerate()[0]:
            return None
        inverse = np.empty_like(self._psi)
        inverse[self._psi] = np.arange(self.size, dtype=self._psi.dtype)
        return inverse

    def _gram_row(self, x):
        """d(x) . B mod m at a point or index array x: d(psi(x)) m / r."""
        return (self.digits_of(self._psi[x]) * self.character_order
                // self._radices)

    def adjoint_images(self, images):
        """iota(e_k) at images[..., k] for the adjoints iota of additive
        maps g with g(e_j) = images[..., j]; None for a degenerate pairing
        (lambda, a unit, is left out).  iota(e_k) is the h with <e_j, h> =
        <g(e_j), e_k> for all j: B is symmetric, so psi(h) has digit j
        <g(e_j), e_k> r_j / m, whole as r_j g(e_j) = 0 (r_k would not do:
        the two differ on mixed radices such as Z_2 x Z_4)."""
        inverse = self._psi_inverse
        if inverse is None:
            return None
        live = self._live
        exponents = np.swapaxes(self._gram_row(images)[..., live], -1, -2)
        return inverse[exponents * self._radices[live]
                       // self.character_order @ self.basis]

    # -- misc ---------------------------------------------------------------

    def serialize_point(self, x):
        return list(self.coords_of(x))

    def to_config(self):
        """The config fragment space_from_config builds this space from;
        lambda_multiplier appears only when it is not 1."""
        cfg = {"kind": self.kind}
        for key in SPACE_KINDS[self.kind][1]:
            value = getattr(self, key)
            cfg[key] = (value.to_config() if key == "field"
                        else list(value) if key == "moduli" else value)
        if self.lambda_multiplier != 1:
            cfg["lambda_multiplier"] = self.lambda_multiplier
        return cfg

    def __repr__(self):
        return "%s(size=%d)" % (type(self).__name__, self.size)


class GramSpace(AbelianSpace):
    """A space whose pairing exponent is d(x) . B . d(y) mod m.

    `blocks` lists, per free coordinate, its digit radices and the block of
    B on those digits; B is block diagonal in the coordinates.  The pairing
    is symmetric (<x,y> = <y,x>), so B must equal its transpose mod m.
    """

    def __init__(self, blocks, character_order, **kw):
        super().__init__([radices for radices, _ in blocks], character_order,
                         **kw)
        m, at = character_order, 0
        gram = np.zeros((len(self.radices),) * 2, dtype=self.place.dtype)
        for radices, block in blocks:
            gram[at:at + len(radices), at:at + len(radices)] = np.mod(block, m)
            at += len(radices)
        if ((gram - gram.T) % m).any():
            raise UsageError("the Gram matrix must be symmetric mod %d" % m)
        if (self._radices[:, None] * gram % m).any():
            raise UsageError("the Gram matrix must be well defined on the "
                             "digits: r_i B_ij = 0 mod %d" % m)
        self.gram = gram
        # digit k of psi(x) is d(x) . B_.k r_k / m mod r_k, each term whole
        # as r_k B_jk = 0 mod m: psi is a map into X itself (Z_4 mod 2 too)
        self._psi = self.linear_extension(
            (gram * self._radices // m)[self._live])

    def pairing_exponent(self, x, y):
        """k with <x,y> = zeta_m^k (before the lambda multiplier)."""
        k = ((self._gram_row(x) * self.digits_of(y)).sum(axis=-1)
             % self.character_order)
        return k if np.ndim(k) else int(k)


# cells of one block: of one call of the law in linear_extension, of
# pairing_rows, of character_profile's histograms, of distinct_elements keys
BLOCK_CELLS = 1 << 19


def pairing_rows(space, points):
    """The rows T[x] of the pairing table (pairing_table) at the index
    array `points`: the lambda-scaled pairing exponents of each of them
    with every point of X, an array (len(points), |X|) in the smallest
    integer dtype holding m - 1.

    On X = A x B (AbelianSpace.split) the exponent of y with a + b is
    e_A(a) + e_B(b), each a product of y's Gram row with digits in the
    index dtype, mod m.  Their sum, below 2m, is one broadcast in the
    least unsigned dtype holding 2m - 2 and one subtraction of m where it
    is reached, BLOCK_CELLS // |X| rows at a time, at least one: on one
    digit (A = {0}) the exponents e_B are as wide as X."""
    m = space.character_order
    rows = (space._gram_row(points)[..., space._live]
            * (space.lambda_multiplier % m) % m)
    digits, lead = space.split
    dtype = np.min_scalar_type(2 * m - 2)
    table = np.empty((len(rows), space.size), np.min_scalar_type(m - 1))
    step = max(1, BLOCK_CELLS // space.size)
    for start in range(0, len(rows), step):
        e = (rows[start:start + step] @ digits.T % m).astype(dtype)
        sums = (e[:, :lead, None] + e[:, None, lead:]).reshape(len(e), -1)
        # an unsigned t < m wraps past t in t - m
        table[start:start + step] = np.minimum(sums, sums - m)
    return table


def pairing_table(space):
    """The |X| x |X| table T[x][y] of lambda-scaled pairing exponents,
    (d(x) . B . d(y)) lambda mod m: pairing_rows at every point.  Public API
    and the tests' oracle: no command builds it."""
    return pairing_rows(space, np.arange(space.size))


def _trace_block(elements, p, f, form):
    """Digit radices and Gram block of one field coordinate whose index k
    stands for elements[k], k < p^f.  Both built-in orders (a field, or a
    subfield listed in index order) make elements[k] F_p-linear in the
    base-p digits of k, so digit l, counted from the least significant, is
    the coefficient of the basis element elements[p^l].  Entry (i, j) is
    form(b_i, b_j) mod p over that basis, most significant digit first."""
    basis = [elements[p ** l] for l in reversed(range(f))]
    return (p,) * f, tuple(tuple(form(a, b) % p for b in basis)
                           for a in basis)


def _trace(a, b):
    return (a * b).trace()


def _trace_twice(a, b):
    return 2 * (a * b).trace()


class FieldSpace(GramSpace):
    """F_q vectors or matrices of the given `shape`, one free coordinate
    (an element index) per entry, row-major.  `entries(points)` decodes
    an index array of points to element-index arrays of shape
    points.shape + shape; `points_of(entries, name, sources)` encodes
    them back."""

    def __init__(self, shape, field: FieldSpec, blocks, **kw):
        self.shape = shape
        self.field = field
        self._field_elements = field.elements()
        super().__init__(blocks, field.p, **kw)

    def entries(self, points):
        return self.coords_array(points).reshape(np.shape(points)
                                                 + self.shape)

    def points_of(self, entries, name, sources):
        """The points with these entries; `name` names the map that made
        them and sources[k] the point whose image row k is, for the error
        of a subclass that finds one outside X."""
        coords = entries.reshape(entries.shape[:-len(self.shape)] + (-1,))
        return coords @ self._coord_place

    def materialize(self, x):
        """Point x as a tuple of FieldElements, or of rows of them."""
        els = self._field_elements
        E = self.entries(x)
        if E.ndim == 1:
            return tuple(els[a] for a in E)
        return tuple(tuple(els[a] for a in row) for row in E)


class VectorSpace(FieldSpace):
    """X = (F_q^n, +) with <x,y> = lambda(sum x_i y_i)."""

    kind = "vector"

    def __init__(self, n, field: FieldSpec, **kw):
        check_dimensions(n=n)
        check_size(kw, (field.q, n))
        self.n = n
        block = _trace_block(field.elements(), field.p, field.e, _trace)
        super().__init__((n,), field, [block] * n, **kw)


class FullMatrixSpace(FieldSpace):
    """X = (F_q^{m x n}, +), <A,B> = lambda(sum_ij A_ij B_ij)."""

    kind = "matrix_full"

    def __init__(self, m, n, field: FieldSpec, **kw):
        check_dimensions(m=m, n=n)
        check_size(kw, (field.q, m * n))
        self.m = m
        self.n = n
        block = _trace_block(field.elements(), field.p, field.e, _trace)
        super().__init__((m, n), field, [block] * (m * n), **kw)


class FormsSpace(FieldSpace):
    """m x m forms A_ji = mirror[A_ij] (a table on element indices), free
    at `positions` (i <= j), zero at every other upper entry.  Subclasses
    may map coordinate values to entries."""

    form = None

    def __init__(self, m, field: FieldSpec, positions, blocks, mirror,
                 **kw):
        self.m = m
        self._mirror = mirror
        self._rows = np.array([i for i, _ in positions], dtype=np.intp)
        self._cols = np.array([j for _, j in positions], dtype=np.intp)
        super().__init__((m, m), field, blocks, **kw)

    def _to_entries(self, coords):
        return coords

    def _to_coords(self, values):
        return values

    def _form(self, values):
        """The forms whose free entries are `values` (one row per form)."""
        E = np.zeros(values.shape[:-1] + self.shape, dtype=values.dtype)
        E[..., self._rows, self._cols] = values
        E[..., self._cols, self._rows] = self._mirror[values]
        return E

    def entries(self, points):
        return self._form(self._to_entries(self.coords_array(points)))

    def points_of(self, entries, name, sources):
        """As FieldSpace.points_of, for a stack of matrices (row k the
        image of point sources[k]).  Raises IntegrityError, naming the
        source of the first row that is not a form of this space, unless
        every matrix is rebuilt exactly from its free entries."""
        values = entries[..., self._rows, self._cols]
        bad = (self._form(values) != entries).any(axis=(-2, -1))
        if bad.any():
            x = int(sources[bad.argmax()])
            raise IntegrityError(
                "%s maps point %d %s to a matrix that is not %s"
                % (name, x, self.serialize_point(x), self.form))
        return self._to_coords(values) @ self._coord_place


class AlternatingMatrixSpace(FormsSpace):
    """Alternating m x m matrices (zero diagonal, A_ji = -A_ij); the free
    coordinates are the strict upper triangle, row-major, and
    <A,B> = lambda(sum_{i<j} A_ij B_ij)."""

    kind = "matrix_alternating"
    form = "alternating"

    def __init__(self, m, field: FieldSpec, **kw):
        check_dimensions(m=m)
        check_size(kw, (field.q, m * (m - 1) // 2))
        positions = [(i, j) for i in range(m) for j in range(i + 1, m)]
        block = _trace_block(field.elements(), field.p, field.e, _trace)
        super().__init__(m, field, positions, [block] * len(positions),
                         field.tables()[2], **kw)


class SymmetricMatrixSpace(FormsSpace):
    """Symmetric m x m matrices over F_q, q odd; free coordinates are the
    upper triangle including the diagonal.  <A,B> = lambda(tr(AB)), so an
    off-diagonal coordinate carries twice the trace form."""

    kind = "matrix_symmetric"
    form = "symmetric"

    def __init__(self, m, field: FieldSpec, **kw):
        if field.p == 2:
            raise UsageError("symmetric forms spaces require odd q")
        check_dimensions(m=m)
        check_size(kw, (field.q, m * (m + 1) // 2))
        positions = [(i, j) for i in range(m) for j in range(i, m)]
        els, p = field.elements(), field.p
        blocks = [_trace_block(els, p, field.e,
                               _trace if i == j else _trace_twice)
                  for i, j in positions]
        super().__init__(m, field, positions, blocks, np.arange(field.q),
                         **kw)


class HermitianMatrixSpace(FormsSpace):
    """Hermitian m x m matrices over F_{q^2} (conjugation a -> a^q).

    Free coordinates: the diagonal runs over the base subfield F_q, the
    strict upper triangle over all of F_{q^2}; lower entries are forced by
    *A = A.  The pairing tr(AB) lands in F_q and is fed to the base-field
    trace, keeping the character order at p: a diagonal coordinate carries
    Tr_{F_q/F_p}(ab), an upper one Tr_{F_q^2/F_p}(a conj(b)).  A diagonal
    coordinate k stands for the entry _subfield[k]; conj_index[a] is
    the index of conj(a).
    """

    kind = "matrix_hermitian"
    form = "Hermitian"

    def __init__(self, m, field: FieldSpec, **kw):
        if field.e % 2 != 0:
            raise UsageError("Hermitian spaces need an even-degree field F_{q^2}")
        check_dimensions(m=m)
        self.base_f = field.e // 2
        self.base_q = field.p ** self.base_f
        check_size(kw, (self.base_q, m), (field.q, m * (m - 1) // 2))
        els = field.elements()
        self._subfield = tuple(
            a for a in els if (a ** self.base_q).coeffs == a.coeffs)
        if len(self._subfield) != self.base_q:
            raise IntegrityError("F_%d has %d elements fixed by a -> a^%d"
                                 % (field.q, len(self._subfield), self.base_q))
        # subfield coordinate -> entry, and entry -> coordinate (-1 off it)
        self._sub_to_field = np.array([a.index for a in self._subfield])
        self._field_to_sub = np.full(field.q, -1)
        self._field_to_sub[self._sub_to_field] = np.arange(self.base_q)
        upper = [(i, j) for i in range(m) for j in range(i + 1, m)]
        p = field.p
        diag = _trace_block(self._subfield, p, self.base_f,
                            lambda a, b: (a * b).subfield_trace(self.base_f))
        upper_block = _trace_block(els, p, field.e,
                                   lambda a, b: (a * self.conj(b)).trace())
        self.conj_index = np.array([self.conj(a).index for a in els])
        super().__init__(m, field, [(i, i) for i in range(m)] + upper,
                         [diag] * m + [upper_block] * len(upper),
                         self.conj_index, **kw)

    def conj(self, a):
        return a ** self.base_q

    def _to_entries(self, coords):
        values = coords.copy()
        values[..., :self.m] = self._sub_to_field[coords[..., :self.m]]
        return values

    def _to_coords(self, values):
        coords = values.copy()
        coords[..., :self.m] = self._field_to_sub[values[..., :self.m]]
        return coords


class CyclicProductSpace(GramSpace):
    """X = Z_{m_1} x ... x Z_{m_k} with <x,y> = prod zeta_{m_i}^{x_i y_i},
    valued in Z[zeta_m] for m = lcm(m_1, ..., m_k): B = diag(m/m_i)."""

    kind = "cyclic_product"

    def __init__(self, moduli, **kw):
        moduli = tuple(int(m) for m in moduli)
        if not moduli or any(m < 2 for m in moduli):
            raise UsageError("cyclic_product needs moduli >= 2")
        check_size(kw, *((mi, 1) for mi in moduli))
        self.moduli = moduli
        m = math.lcm(*moduli)
        super().__init__([((mi,), ((m // mi,),)) for mi in moduli], m, **kw)


# -- config schema ------------------------------------------------------------

def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v):
    return isinstance(v, list) and all(map(_is_int, v))


# The type of each config key, wherever it appears: (description, test).
# "kind" and "family" are checked on their own, before the other keys.
KEY_TYPES = {
    "space": ("an object", lambda v: isinstance(v, dict)),
    "action": ("an object", lambda v: isinstance(v, dict)),
    "field": ("an object", lambda v: isinstance(v, dict)),
    "n": ("an integer", _is_int), "m": ("an integer", _is_int),
    "p": ("an integer", _is_int), "e": ("an integer", _is_int),
    "d": ("an integer", _is_int),
    "lambda_multiplier": ("an integer", _is_int),
    "moduli": ("a list of integers", _is_int_list),
    "modulus": ("a list of integers", _is_int_list),
    "levels": ("a list of integers", _is_int_list),
    "generators": ("a list of integer lists", lambda v: isinstance(v, list)
                   and all(map(_is_int_list, v))),
}

# Space kind -> (class, required keys in constructor order); every kind
# also takes an optional "lambda_multiplier", and nothing else.
SPACE_KINDS = {
    "vector": (VectorSpace, ("n", "field")),
    "matrix_full": (FullMatrixSpace, ("m", "n", "field")),
    "matrix_alternating": (AlternatingMatrixSpace, ("m", "field")),
    "matrix_symmetric": (SymmetricMatrixSpace, ("m", "field")),
    "matrix_hermitian": (HermitianMatrixSpace, ("m", "field")),
    "cyclic_product": (CyclicProductSpace, ("moduli",)),
}


def check_keys(cfg, required, optional, where):
    """Raise ConfigError unless the dict `cfg` has every required key, no
    key outside required + optional, and each value of its KEY_TYPES
    type."""
    for key in required:
        if key not in cfg:
            raise ConfigError("%s: missing key %r" % (where, key))
    unknown = sorted(set(cfg) - set(required) - set(optional))
    if unknown:
        raise ConfigError("%s: unknown key(s) %s"
                          % (where, ", ".join(map(repr, unknown))))
    for key, value in cfg.items():
        what, valid = KEY_TYPES[key]
        if not valid(value):
            raise ConfigError("%s: %r must be %s, got %r"
                              % (where, key, what, value))


def space_from_config(cfg, size_bound=DEFAULT_SIZE_BOUND):
    """Build an AbelianSpace from a config fragment."""
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if not isinstance(kind, str) or kind not in SPACE_KINDS:
        raise ConfigError("space config needs a 'kind' of %s, got %r"
                          % ("/".join(SPACE_KINDS), kind))
    cls, keys = SPACE_KINDS[kind]
    check_keys({k: v for k, v in cfg.items() if k != "kind"}, keys,
               ("lambda_multiplier",), "space " + kind)
    args = [cfg[k] for k in keys]
    if keys[-1] == "field":
        check_keys(cfg["field"], ("p",), ("e", "modulus"), "space field")
        args[-1] = FieldSpec(**cfg["field"])
    return cls(*args, size_bound=size_bound,
               lambda_multiplier=cfg.get("lambda_multiplier", 1))
