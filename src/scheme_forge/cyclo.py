"""Exact arithmetic in the cyclotomic integers Z[zeta_m].

Elements are stored in the power basis 1, z, ..., z^(phi(m)-1) reduced mod
the m-th cyclotomic polynomial, with plain Python integers as coefficients,
so every ring identity in the package is checked with zero tolerance.

Matrices and tensors of elements are contracted as integer arrays of
power-basis coefficients (`contract`): a product of two
elements is bilinear in their coefficients, through the structure
constants M[a, b, :] = coefficients of z^a z^b, so a whole contraction
is a product over the element indices for each pair of coefficient
columns, followed by one product with M.  Every such table is read off
the reduction matrix R[k, :] = coefficients of z^k, k < m
(`reduction_matrix`).

A full-width array has all phi(m) coefficients on its last axis.  A
support-width array is a pair (A, cols): A[..., c] holds the coefficient
of z^cols[c], and every coefficient outside the sorted index array cols
is zero.  cols always starts with 0, the constant term, so A[..., 0] is
the rational-integer part and `nonzero` and `equals_integers` read A as
they read a full-width array (which is the pair with cols = 0..phi-1).
`sliced` cuts a full-width array to its support; `widen` puts the
columns back, only where CycloInt objects or JSON entries are built.

`contract` and `conjugate_array` take and return support-width arrays.
A contraction runs only over the columns of its operands, with M cut to
those rows and to its nonzero output columns, which are the result's
columns; nothing is scattered back into phi(m) columns.  Central actions,
whose eigenmatrices are rational integers, contract one column instead
of phi(m) from start to end.  A dropped column holds only zeros, so it
adds only zero products: the sliced contraction has the same sums, and
the count of its products times the largest absolute entries of the
sliced A, B and M bounds every partial sum, in any summation order.
Both steps, A with B over the element indices for every pair of columns
and then the result with M, are one batched matmul each, `exact_matmul`,
which picks its dtype from that bound, computed in Python integers:
float64 (BLAS) below 2^53, int64 below 2^63, Python integers
(dtype=object) otherwise, so it is exact in every case.  A rank-1
product, inner dimension 1, is the broadcast product of its operands,
int64 below 2^63 and Python integers otherwise, with no float64 round
trip: the outer product "li,lj->lij", the product with M when ka and kb
are one column each, and the conjugation of a one-column array.  The
character profile (duality.py) takes its histograms through it too.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import UsageError, IntegrityError


def _poly_divmod(num, den):
    """Exact division of integer coefficient lists (constant term first).

    den must be monic (or have leading coefficient +-1); raises if any
    division step is inexact.
    """
    num = list(num)
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    lead = den[-1]
    q = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("inexact polynomial division")
        c //= lead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


@functools.cache
def cyclotomic_polynomial(m):
    """Coefficients of Phi_m, constant term first."""
    if m < 1:
        raise UsageError("m must be positive")
    # x^m - 1 divided by Phi_d for all proper divisors d
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            if rem:
                raise IntegrityError("inexact division of x^%d - 1 by Phi_%d"
                                     % (m, d))
    return tuple(num)


@functools.cache
def euler_phi(m):
    return len(cyclotomic_polynomial(m)) - 1


def _reduce(coeffs, m):
    """Reduce an integer coefficient list mod Phi_m to the power basis."""
    phi_m = cyclotomic_polynomial(m)
    deg = len(phi_m) - 1
    out = list(coeffs)
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for k in range(deg):
                out[i - deg + k] -= c * phi_m[k]
    del out[deg:]
    while len(out) < deg:
        out.append(0)
    return tuple(out)


class CycloInt:
    """An element of Z[zeta_m] in canonical (fully reduced) form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs, reduce=True):
        if reduce:
            coeffs = _reduce(coeffs, order)
        self.order = order
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(m):
        return CycloInt(m, (0,) * euler_phi(m), reduce=False)

    @staticmethod
    def integer(m, n):
        return CycloInt(m, (n,) + (0,) * (euler_phi(m) - 1), reduce=False)

    @staticmethod
    def root_of_unity(m, k):
        k %= m
        return CycloInt(m, [0] * k + [1])

    # -- ring operations -------------------------------------------------

    def _check(self, other):
        if not isinstance(other, CycloInt):
            raise UsageError("expected CycloInt, got %r" % (other,))
        if other.order != self.order:
            raise UsageError("mixed cyclotomic orders %d vs %d"
                             % (self.order, other.order))

    def __add__(self, other):
        self._check(other)
        return CycloInt(self.order,
                        tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                        reduce=False)

    def __sub__(self, other):
        self._check(other)
        return CycloInt(self.order,
                        tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
                        reduce=False)

    def __neg__(self):
        return CycloInt(self.order, tuple(-a for a in self.coeffs), reduce=False)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.order, tuple(a * other for a in self.coeffs),
                            reduce=False)
        self._check(other)
        n = len(self.coeffs)
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CycloInt(self.order, prod)

    __rmul__ = __mul__

    def conjugate(self):
        """Image under zeta -> zeta^(-1)."""
        m = self.order
        out = [0] * m
        for k, c in enumerate(self.coeffs):
            out[(-k) % m] += c
        return CycloInt(m, out)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not any(self.coeffs)

    def approx(self):
        """(complex value, rigorous roundoff bound) of the embedding
        zeta_m -> exp(2*pi*i/m)."""
        m = self.order
        val = 0j
        for k, c in enumerate(self.coeffs):
            if c:
                val += c * cmath.exp(2j * math.pi * k / m)
        maxc = max((abs(c) for c in self.coeffs), default=0)
        bound = len(self.coeffs) * maxc * 4 * 2.0 ** -52
        return val, bound

    def __eq__(self, other):
        return (isinstance(other, CycloInt) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return "CycloInt(m=%d, %s)" % (self.order, list(self.coeffs))

    def render(self):
        """Human-readable 'c0 + c1*z + ...' form."""
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                z = "z" if k == 1 else "z^%d" % k
                if c == 1:
                    terms.append(z)
                elif c == -1:
                    terms.append("-" + z)
                else:
                    terms.append("%d*%s" % (c, z))
        if not terms:
            return "0"
        s = terms[0]
        for t in terms[1:]:
            s += " - " + t[1:] if t.startswith("-") else " + " + t
        return s

    def to_json(self, val=None):
        """The element as JSON: order, coefficients and approx()'s value,
        rounded; val is that value when the caller has it already."""
        if val is None:
            val, _ = self.approx()
        return {"order": self.order, "coeffs": list(self.coeffs),
                "approx": [round(val.real, 12), round(val.imag, 12)]}


# -- exact contractions of coefficient arrays ----------------------------------

@functools.cache
def reduction_matrix(m):
    """R[k, :] = power-basis coefficients of z^k, k < m: each row is the
    one before shifted up one power, with the carried coefficient c of
    z^phi(m) replaced by -c times the lower coefficients of Phi_m."""
    n = euler_phi(m)
    low = np.array(cyclotomic_polynomial(m)[:n], dtype=np.int64)
    R = np.zeros((m, n), dtype=np.int64)
    R[0, 0] = 1
    for k in range(1, m):
        R[k, 1:] = R[k - 1, :-1]
        R[k] -= R[k - 1, -1] * low
    R.setflags(write=False)
    return R


@functools.cache
def structure_constants(m):
    """M[a, b, :] = power-basis coefficients of z^a z^b, a, b < phi(m)."""
    a = np.arange(euler_phi(m))
    M = reduction_matrix(m)[(a[:, None] + a) % m]
    M.setflags(write=False)
    return M


@functools.cache
def conjugation_matrix(m):
    """C[a, :] = power-basis coefficients of z^(-a), a < phi(m)."""
    C = reduction_matrix(m)[-np.arange(euler_phi(m)) % m]
    C.setflags(write=False)
    return C


def integer_array(values):
    """Support-width array of an array of rational integers: the one
    column of constant terms."""
    values = np.asarray(values)
    return values[..., None], np.zeros(1, dtype=np.intp)


def nonzero(A):
    """Entrywise test that the elements of a coefficient array are not 0
    (a bool array, also for dtype=object)."""
    return (A != 0).any(axis=-1)


def equals_integers(A, values):
    """Entrywise test that the elements of a coefficient array are the
    rational integers `values` (broadcast against A without its
    coefficient axis)."""
    return (A[..., 0] == values) & ~nonzero(A[..., 1:])


def _columns(nonzero_columns):
    """Sorted indices of the True entries of a column mask, with the
    constant column 0 always among them."""
    nonzero_columns[0] = True
    return np.flatnonzero(nonzero_columns)


def sliced(A):
    """A full-width coefficient array as a support-width array: cut to
    the columns that hold a nonzero entry, and column 0."""
    cols = _columns(nonzero(A.reshape(-1, A.shape[-1]).T))
    return A[..., cols], cols


def widen(A, cols, target):
    """The support-width array (A, cols) at the columns `target`, a
    sorted superset of cols (np.arange(phi(m)) for full width): zero in
    every column not in cols; A itself when cols is all of target."""
    if len(cols) == len(target):
        return A
    out = np.zeros(A.shape[:-1] + (len(target),), dtype=A.dtype)
    out[..., np.searchsorted(target, cols)] = A
    return out


def union_columns(*cols):
    """The sorted union of column index arrays (a bincount: np.union1d
    would import numpy.ma, a megabyte of resident memory)."""
    return np.flatnonzero(np.bincount(np.concatenate(cols)))


def equal(X, Y):
    """Whether two support-width arrays hold the same elements."""
    (A, ka), (B, kb) = X, Y
    if not np.array_equal(ka, kb):
        cols = union_columns(ka, kb)
        A, B = widen(A, ka, cols), widen(B, kb, cols)
    return np.array_equal(A, B)


def max_abs(A):
    """The largest absolute entry of an integer array, as a Python int
    (at least 1, so that it can scale a bound)."""
    return max(int(A.max(initial=0)), -int(A.min(initial=0)), 1)


def exact_matmul(A, B, bound):
    """A @ B of integer arrays (np.matmul, stacks broadcast), exact.

    `bound` must be at least the sum of the absolute values of the
    products that any one entry of the result expands to; it then bounds
    every partial sum, in any summation order and any blocking.  When
    both operands are at least 2-d and the inner dimension is 1, the
    product is the broadcast A * B, which has no sums: int64 below 2^63,
    Python integers otherwise.  Else, below 2^53 the product runs in
    float64, which numpy hands to BLAS: every product and partial sum is
    an integer that float64 holds exactly, an FMA included.  Below 2^63
    it runs in int64, and on Python integers (dtype=object) otherwise.
    The result is int64, or Python integers past 2^63."""
    rank_1 = (np.ndim(A) >= 2 and np.ndim(B) >= 2
              and np.shape(A)[-1] == np.shape(B)[-2] == 1)
    if bound < 2 ** 53 and not rank_1:
        A, B = np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64)
        R = A @ B
        # free the float64 operands (and integer ones passed in by a
        # nested call) before the int64 result is made
        del A, B
        return R.astype(np.int64)
    dtype = np.int64 if bound < 2 ** 63 else object
    A, B = np.asarray(A, dtype=dtype), np.asarray(B, dtype=dtype)
    return A * B if rank_1 else A @ B


def _stack(A, letters, *groups):
    """A coefficient array whose element axes are named by `letters` as
    a coefficient-major stack of matrices: shape (columns, *groups), each
    group of letters flattened to one axis, in that order."""
    A = A.transpose([A.ndim - 1] + [letters.index(c)
                                    for group in groups for c in group])
    shape, axis = [A.shape[0]], 1
    for group in groups:
        shape.append(math.prod(A.shape[axis:axis + len(group)]))
        axis += len(group)
    return A.reshape(shape)


@functools.cache
def _cut_constants(m, ka, kb):
    """The structure constants of Z[zeta_m] cut to the rows ka, kb (tuples
    of column indices) and to their nonzero output columns kz, with kz
    and max|M|."""
    M = structure_constants(m)[np.ix_(ka, kb)]
    kz = _columns(M.any(axis=(0, 1)))
    M = M[..., kz]
    M.setflags(write=False)
    kz.setflags(write=False)
    return M, kz, max_abs(M)


def contract(spec, X, Y, m):
    """Exact contraction over Z[zeta_m] of two support-width arrays.

    `spec` is an einsum specification over element indices in lowercase
    letters, e.g. "ik,kj->ij" for a matrix product, in which every letter
    occurs once in each operand that has it, and in the output or in
    both operands; the coefficient arrays of X = (A, ka) and Y = (B, kb)
    carry one more trailing axis, their columns, and so does the result,
    a support-width array whose columns are those z^a z^b can reach for
    a in ka, b in kb (module docstring)."""
    (A, ka), (B, kb) = X, Y
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    M, kz, max_m = _cut_constants(m, tuple(ka.tolist()), tuple(kb.tolist()))
    sizes = dict(zip(sa + sb, A.shape[:-1] + B.shape[:-1]))
    terms = math.prod(n for c, n in sizes.items() if c not in out) \
        * len(ka) * len(kb)
    bound = terms * max_abs(A) * max_abs(B) * max_m
    batch = [c for c in out if c in sa and c in sb]
    inner = [c for c in sa if c in sb and c not in out]
    rows = [c for c in out if c in sa and c not in sb]
    cols = [c for c in out if c in sb and c not in sa]
    lhs = _stack(A, sa, batch, rows, inner)[:, None]
    rhs = _stack(B, sb, batch, inner, cols)[None]
    # the products for every pair of columns, (ka, kb, batch, rows,
    # cols), go straight into the product with M, which frees them once
    # it has converted them
    Z = exact_matmul(M.reshape(-1, len(kz)).T,
                     exact_matmul(lhs, rhs, bound).reshape(
                         len(ka) * len(kb), -1), bound)
    order = batch + rows + cols
    Z = Z.reshape((len(kz),) + tuple(sizes[c] for c in order))
    return Z.transpose([1 + order.index(c) for c in out] + [0]), kz


def conjugate_array(X, m):
    """Entrywise image of a support-width array under zeta -> zeta^(-1),
    a support-width array (module docstring): A @ C, C the conjugation
    matrix cut to the rows ka and its nonzero columns."""
    A, ka = X
    C = conjugation_matrix(m)[ka]
    kz = _columns(C.any(axis=0))
    C = C[:, kz]
    bound = len(ka) * max_abs(A) * max_abs(C)
    return exact_matmul(A, C, bound), kz
