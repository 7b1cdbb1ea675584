"""Finite abelian vertex groups X and their pairings, on integer digits.

Every built-in space is the group Z_{r_1} x ... x Z_{r_N}: a point is a
digit vector d(x) with 0 <= d_i < r_i, and its index is the plain
mixed-radix number of its digits (first digit most significant, zero
element at index 0).  Each F_p coefficient of a field coordinate is one
digit of radix p, highest-degree coefficient first (the order of
FieldElement.index); each factor Z_{m_i} of a cyclic product is one digit
of radix m_i.  So `add`, `neg` and `sub` work digit by digit.

The pairing is one bilinear form: <x,y> = zeta_m^k with

    k = d(x) . B . d(y) mod m,

where the N x N Gram matrix B is built once per space.  For field spaces B
is block diagonal, one block per free coordinate, holding an F_p-bilinear
trace form on that coordinate's digit basis; for cyclic products it is
diag(m/m_i).  `pairing_exponent` returns k before the lambda multiplier;
`inner_product` wraps it in a CycloInt.

Coordinates (`coords_of`, `index_of`, `serialize_point`) group the digits
of one field coordinate back into a field-element index.  The field-space
classes decode points to FieldElement vectors or matrices (`materialize`)
and encode them back (`index_of_vector`, `index_of_matrix`) for the action
families and rank labels; no FieldElement arithmetic runs in the group law
or the pairing.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from .cyclo import CycloInt
from .errors import (UsageError, ConfigError, ResourceLimitError,
                     IntegrityError)
from .gf import FieldSpec

DEFAULT_SIZE_BOUND = 4096


class AbelianSpace:
    """X = Z_{r_1} x ... x Z_{r_N} on digit vectors.

    `coord_radices` lists, per free coordinate, the radices of its digits.
    Subclasses define `pairing_exponent`.
    """

    kind = None

    def __init__(self, coord_radices, character_order, lambda_multiplier=1,
                 size_bound=DEFAULT_SIZE_BOUND):
        radices = tuple(r for digits in coord_radices for r in digits)
        size = math.prod(radices)
        if size > size_bound:
            raise ResourceLimitError(
                "|X| = %d exceeds size bound %d" % (size, size_bound))
        if math.gcd(lambda_multiplier, character_order) != 1:
            raise UsageError("lambda multiplier must be a unit mod %d"
                             % character_order)
        self.radices = radices
        self._coord_radices = tuple(math.prod(d) for d in coord_radices)
        self._place = tuple(math.prod(radices[i + 1:])
                            for i in range(len(radices)))
        self._digits = list(itertools.product(*(range(r) for r in radices)))
        self.size = size
        self.character_order = character_order
        self.lambda_multiplier = lambda_multiplier
        self._mat_cache = {}

    # -- indexing ----------------------------------------------------------

    def coords_of(self, index):
        if not 0 <= index < self.size:
            raise UsageError("point index out of range")
        coords = []
        for r in reversed(self._coord_radices):
            index, c = divmod(index, r)
            coords.append(c)
        coords.reverse()
        return tuple(coords)

    def index_of(self, coords):
        index = 0
        for c, r in zip(coords, self._coord_radices):
            if not 0 <= c < r:
                raise UsageError("coordinate %r out of range [0, %d)" % (c, r))
            index = index * r + c
        return index

    def _index_of_digits(self, digits):
        """Index of a digit vector, each digit reduced mod its radix."""
        return sum(d % r * w for d, r, w in zip(digits, self.radices,
                                                 self._place))

    # -- group structure ----------------------------------------------------

    def add(self, x, y):
        return self._index_of_digits(map(int.__add__, self._digits[x],
                                         self._digits[y]))

    def neg(self, x):
        return self._index_of_digits(map(int.__neg__, self._digits[x]))

    def sub(self, x, y):
        """x - y as a point index."""
        return self._index_of_digits(map(int.__sub__, self._digits[x],
                                         self._digits[y]))

    def scalar_mul(self, x, u):
        """u * x for an integer u."""
        return self._index_of_digits(u * d for d in self._digits[x])

    # -- pairing (subclasses define pairing_exponent) -------------------------

    def inner_product(self, x, y):
        k = self.pairing_exponent(x, y) * self.lambda_multiplier
        return CycloInt.root_of_unity(self.character_order, k)

    def verify_nondegenerate(self):
        """Exhaustive check of inner product axiom (iii): x != 0 implies
        <x,y> != 1 for some y. Returns (ok, witness_or_None)."""
        m = self.character_order
        for x in range(1, self.size):
            if all((self.pairing_exponent(x, y) * self.lambda_multiplier) % m == 0
                   for y in range(self.size)):
                return False, x
        return True, None

    # -- misc ---------------------------------------------------------------

    def serialize_point(self, x):
        return list(self.coords_of(x))

    def materialize_cached(self, x):
        """`materialize(x)` (field spaces), kept per point."""
        v = self._mat_cache.get(x)
        if v is None:
            v = self.materialize(x)
            self._mat_cache[x] = v
        return v

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
        n = len(self.radices)
        m = character_order
        gram = [[0] * n for _ in range(n)]
        at = 0
        for radices, block in blocks:
            for i, row in enumerate(block):
                gram[at + i][at:at + len(row)] = row
            at += len(radices)
        if any((gram[i][j] - gram[j][i]) % m
               for i in range(n) for j in range(i)):
            raise UsageError("the Gram matrix must be symmetric mod %d" % m)
        self.gram = tuple(map(tuple, gram))
        cols = list(zip(*self.gram))
        # row x of the table is d(x) . B, so a pairing is one dot product
        self._gram_rows = [tuple(sum(map(mul, d, col)) % m for col in cols)
                           for d in self._digits]

    def pairing_exponent(self, x, y):
        """k with <x,y> = zeta_m^k (before the lambda multiplier)."""
        return (sum(map(mul, self._gram_rows[x], self._digits[y]))
                % self.character_order)


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


class VectorSpace(GramSpace):
    """X = (F_q^n, +) with <x,y> = lambda(sum x_i y_i)."""

    kind = "vector"

    def __init__(self, n, field: FieldSpec, **kw):
        if n < 1:
            raise UsageError("n must be >= 1")
        self.n = n
        self.field = field
        self._field_elements = field.elements()
        block = _trace_block(self._field_elements, field.p, field.e,
                             _trace)
        super().__init__([block] * n, field.p, **kw)

    def materialize(self, x):
        return tuple(self._field_elements[c] for c in self.coords_of(x))

    def index_of_vector(self, vec):
        return self.index_of(tuple(a.index for a in vec))

    def basis_index(self, i):
        """Index of the standard basis vector e_i (1-based i)."""
        vec = [self.field.zero()] * self.n
        vec[i - 1] = self.field.one()
        return self.index_of_vector(vec)

    def to_config(self):
        return {"kind": "vector", "n": self.n, "field": self.field.to_config()}


class FullMatrixSpace(GramSpace):
    """X = (F_q^{m x n}, +), <A,B> = lambda(sum_ij A_ij B_ij)."""

    kind = "matrix_full"

    def __init__(self, m, n, field: FieldSpec, **kw):
        self.m = m
        self.n = n
        self.field = field
        self._field_elements = field.elements()
        block = _trace_block(self._field_elements, field.p, field.e,
                             _trace)
        super().__init__([block] * (m * n), field.p, **kw)

    def materialize(self, x):
        els = self._field_elements
        c = self.coords_of(x)
        return tuple(tuple(els[c[i * self.n + j]] for j in range(self.n))
                     for i in range(self.m))

    def index_of_matrix(self, mat):
        return self.index_of(tuple(mat[i][j].index
                                   for i in range(self.m)
                                   for j in range(self.n)))

    def to_config(self):
        return {"kind": "matrix_full", "m": self.m, "n": self.n,
                "field": self.field.to_config()}


class AlternatingMatrixSpace(GramSpace):
    """Alternating m x m matrices (zero diagonal, A_ji = -A_ij); the free
    coordinates are the strict upper triangle, row-major, and
    <A,B> = lambda(sum_{i<j} A_ij B_ij)."""

    kind = "matrix_alternating"

    def __init__(self, m, field: FieldSpec, **kw):
        self.m = m
        self.field = field
        self._field_elements = field.elements()
        self._positions = [(i, j) for i in range(m) for j in range(i + 1, m)]
        block = _trace_block(self._field_elements, field.p, field.e,
                             _trace)
        super().__init__([block] * len(self._positions), field.p, **kw)

    def materialize(self, x):
        els = self._field_elements
        zero = self.field.zero()
        c = self.coords_of(x)
        mat = [[zero] * self.m for _ in range(self.m)]
        for (i, j), v in zip(self._positions, c):
            mat[i][j] = els[v]
            mat[j][i] = -els[v]
        return tuple(tuple(row) for row in mat)

    def index_of_matrix(self, mat):
        return self.index_of(tuple(mat[i][j].index for i, j in self._positions))

    def to_config(self):
        return {"kind": "matrix_alternating", "m": self.m,
                "field": self.field.to_config()}


class SymmetricMatrixSpace(GramSpace):
    """Symmetric m x m matrices over F_q, q odd; free coordinates are the
    upper triangle including the diagonal.  <A,B> = lambda(tr(AB)), so an
    off-diagonal coordinate carries twice the trace form."""

    kind = "matrix_symmetric"

    def __init__(self, m, field: FieldSpec, **kw):
        if field.p == 2:
            raise UsageError("symmetric forms spaces require odd q")
        self.m = m
        self.field = field
        self._field_elements = field.elements()
        self._positions = [(i, j) for i in range(m) for j in range(i, m)]
        els, p = self._field_elements, field.p
        blocks = [_trace_block(els, p, field.e,
                               _trace if i == j else _trace_twice)
                  for i, j in self._positions]
        super().__init__(blocks, p, **kw)

    def materialize(self, x):
        els = self._field_elements
        zero = self.field.zero()
        c = self.coords_of(x)
        mat = [[zero] * self.m for _ in range(self.m)]
        for (i, j), v in zip(self._positions, c):
            mat[i][j] = els[v]
            mat[j][i] = els[v]
        return tuple(tuple(row) for row in mat)

    def index_of_matrix(self, mat):
        return self.index_of(tuple(mat[i][j].index for i, j in self._positions))

    def to_config(self):
        return {"kind": "matrix_symmetric", "m": self.m,
                "field": self.field.to_config()}


class HermitianMatrixSpace(GramSpace):
    """Hermitian m x m matrices over F_{q^2} (conjugation a -> a^q).

    Free coordinates: the diagonal runs over the base subfield F_q, the
    strict upper triangle over all of F_{q^2}; lower entries are forced by
    *A = A.  The pairing tr(AB) lands in F_q and is fed to the base-field
    trace, keeping the character order at p: a diagonal coordinate carries
    Tr_{F_q/F_p}(ab), an upper one Tr_{F_q^2/F_p}(a conj(b)).
    """

    kind = "matrix_hermitian"

    def __init__(self, m, field: FieldSpec, **kw):
        if field.e % 2 != 0:
            raise UsageError("Hermitian spaces need an even-degree field F_{q^2}")
        self.m = m
        self.field = field
        self.base_f = field.e // 2
        self.base_q = field.p ** self.base_f
        self._field_elements = field.elements()
        self._subfield = tuple(
            a for a in self._field_elements
            if (a ** self.base_q).coeffs == a.coeffs)
        if len(self._subfield) != self.base_q:
            raise IntegrityError("F_%d has %d elements fixed by a -> a^%d"
                                 % (field.q, len(self._subfield), self.base_q))
        self._sub_index = {a.index: k for k, a in enumerate(self._subfield)}
        self._upper = [(i, j) for i in range(m) for j in range(i + 1, m)]
        p = field.p
        diag = _trace_block(self._subfield, p, self.base_f,
                            lambda a, b: (a * b).subfield_trace(self.base_f))
        upper = _trace_block(self._field_elements, p, field.e,
                             lambda a, b: (a * self.conj(b)).trace())
        super().__init__([diag] * m + [upper] * len(self._upper), p, **kw)

    def conj(self, a):
        return a ** self.base_q

    def materialize(self, x):
        els = self._field_elements
        zero = self.field.zero()
        c = self.coords_of(x)
        mat = [[zero] * self.m for _ in range(self.m)]
        for i in range(self.m):
            mat[i][i] = self._subfield[c[i]]
        for k, (i, j) in enumerate(self._upper):
            v = els[c[self.m + k]]
            mat[i][j] = v
            mat[j][i] = self.conj(v)
        return tuple(tuple(row) for row in mat)

    def index_of_matrix(self, mat):
        coords = []
        for i in range(self.m):
            coords.append(self._sub_index[mat[i][i].index])
        for i, j in self._upper:
            coords.append(mat[i][j].index)
        return self.index_of(tuple(coords))

    def to_config(self):
        return {"kind": "matrix_hermitian", "m": self.m,
                "field": self.field.to_config()}


class CyclicProductSpace(GramSpace):
    """X = Z_{m_1} x ... x Z_{m_k} with <x,y> = prod zeta_{m_i}^{x_i y_i},
    valued in Z[zeta_m] for m = lcm(m_1, ..., m_k): B = diag(m/m_i)."""

    kind = "cyclic_product"

    def __init__(self, moduli, **kw):
        moduli = tuple(int(m) for m in moduli)
        if not moduli or any(m < 2 for m in moduli):
            raise UsageError("cyclic_product needs moduli >= 2")
        self.moduli = moduli
        m = math.lcm(*moduli)
        self.exponent = m
        super().__init__([((mi,), ((m // mi,),)) for mi in moduli], m, **kw)

    def to_config(self):
        return {"kind": "cyclic_product", "moduli": list(self.moduli)}


# -- config schema ------------------------------------------------------------

def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v):
    return isinstance(v, list) and all(map(_is_int, v))


# The type of each config key, wherever it appears: (description, test).
# "kind" and "family" are checked on their own, before the other keys.
KEY_TYPES = {
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
