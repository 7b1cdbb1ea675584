"""Exact arithmetic in F_q (q = p^e), polynomial-basis representation.

An element is a coefficient vector (constant term first) reduced mod a
monic irreducible modulus of degree e over F_p, and its index is
sum_i d_i(a) p^i over its coefficients d_i(a).  q is capped at
DEFAULT_Q_BOUND (256), so a FieldSpec is a set of integer tables on
element indices, built once: add and neg act on coefficients mod p, and
mul[a, b] = sum_i d_i(a) (t^i b) is one product of the q x e coefficient
array with the table of t^i b, each row t times the row before (a shift
and one subtraction of the modulus).  The modulus is irreducible iff mul
has no zero divisor.  Inverses, powers (the Frobenius map among them),
traces, the primitive element, the least nonsquare and the ranks of
stacked matrices (`ranks`, one row reduction of all) are read off these
tables.  FieldElement, one element as an object, is the tests' reference
arithmetic: no command builds one.
"""

from __future__ import annotations

import functools

import numpy as np

from .cyclo import exact_matmul
from .errors import UsageError, ResourceLimitError, IntegrityError

DEFAULT_Q_BOUND = 256

# Monic irreducible moduli shipped for the prime powers the built-in
# families use; coefficient lists are constant term first.
BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),        # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),     # t^3 + t + 1
    (2, 4): (1, 1, 0, 0, 1),  # t^4 + t + 1
    (3, 2): (1, 0, 1),        # t^2 + 1
    (3, 3): (1, 2, 0, 1),     # t^3 + 2t + 1
    (5, 2): (2, 0, 1),        # t^2 + 2
}


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mod(coeffs, modulus, p):
    """Reduce a coefficient list mod a monic modulus over F_p."""
    out = [c % p for c in coeffs]
    e = len(modulus) - 1
    for i in range(len(out) - 1, e - 1, -1):
        c = out[i]
        if c:
            for k in range(e + 1):
                out[i - e + k] = (out[i - e + k] - c * modulus[k]) % p
    del out[e:]
    while len(out) < e:
        out.append(0)
    return tuple(out)


class FieldSpec:
    """A finite field F_{p^e} with a fixed polynomial basis, as index
    tables."""

    def __init__(self, p, e=1, modulus=None):
        # the bound first: no trial division of a large p, and p ** e only
        # for e within the bound's bit length (2^e > the bound past it)
        if p <= DEFAULT_Q_BOUND and not is_prime(p):
            raise UsageError("p = %r is not prime" % (p,))
        if e < 1:
            raise UsageError("extension degree must be >= 1")
        if (p > DEFAULT_Q_BOUND or e > DEFAULT_Q_BOUND.bit_length()
                or p ** e > DEFAULT_Q_BOUND):
            raise ResourceLimitError("q = %d^%d exceeds bound %d"
                                     % (p, e, DEFAULT_Q_BOUND))
        q = p ** e
        self.p = p
        self.e = e
        self.q = q
        if modulus is not None:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise UsageError("modulus must be monic of degree e")
        if e == 1:
            modulus = (0, 1)  # t, unused: F_p needs no shift
        elif modulus is None:
            modulus = BUILTIN_MODULI.get((p, e))
            if modulus is None:
                raise UsageError(
                    "no built-in modulus for q = %d^%d; supply one" % (p, e))
        self.modulus = modulus
        place = p ** np.arange(e)
        coeffs = np.arange(q)[:, None] // place % p
        # shifts[i, b] holds the coefficients of t^i b: t c is c moved up
        # one degree, less its t^e coefficient times the modulus
        shifts = [coeffs]
        for _ in range(e - 1):
            up = np.roll(shifts[-1], 1, axis=1)
            up[:, 0] = 0
            shifts.append((up - shifts[-1][:, -1:] * modulus[:e]) % p)
        # each coefficient of ab is a sum of e products below p^2
        mul = (exact_matmul(coeffs, np.stack(shifts).reshape(e, q * e),
                            e * p * p) % p).reshape(q, q, e) @ place
        if (mul[1:, 1:] == 0).any():
            raise UsageError("modulus %r is reducible over F_%d"
                             % (modulus, p))
        # a + b: the sum of the spreads of a and b, in base 2p - 1, has no
        # carry, and a table reduces each of its digits mod p
        spread = coeffs @ (2 * p - 1) ** np.arange(e)
        digit_mod = functools.reduce(np.add.outer, [
            np.arange(2 * p - 1) % p * w for w in place[::-1]]).ravel()
        self._tables = (digit_mod[spread[:, None] + spread], mul,
                        -coeffs % p @ place)
        self._elements = None

    # -- element constructors (FieldElement: the tests' reference) -----------

    def element(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) > self.e:
            coeffs = _poly_mod(coeffs, self.modulus, self.p)
        else:
            coeffs = coeffs + (0,) * (self.e - len(coeffs))
        return FieldElement(self, coeffs)

    def zero(self):
        return self.element(())

    def one(self):
        return self.element((1,))

    def from_index(self, idx):
        """Element whose coefficient vector is idx written base p."""
        if not 0 <= idx < self.q:
            raise UsageError("index out of range")
        coeffs = []
        for _ in range(self.e):
            coeffs.append(idx % self.p)
            idx //= self.p
        return FieldElement(self, tuple(coeffs))

    def elements(self):
        if self._elements is None:
            self._elements = tuple(self.from_index(i) for i in range(self.q))
        return self._elements

    # -- index tables -----------------------------------------------------

    def tables(self):
        """(add, mul, neg) on element indices: add[a, b] = a + b, mul[a,
        b] = ab and neg[a] = -a, built with the FieldSpec."""
        return self._tables

    @functools.cached_property
    def inverse(self):
        """inverse[a] = a^-1 at every element index a, and inverse[0] = 0."""
        return (self._tables[1] == 1).argmax(axis=1)

    def power(self, a, n):
        """a^n (n >= 0) at an element index or index array a, by
        squaring; power(np.arange(q), p) is the Frobenius map."""
        mul = self._tables[1]
        out, a = np.ones_like(a), np.asarray(a)
        while n:
            if n & 1:
                out = mul[out, a]
            a = mul[a, a]
            n >>= 1
        return out

    def trace(self, f=None):
        """Tr_{F_{p^f}/F_p}(a) = a + a^p + ... + a^(p^(f-1)) at every
        element index a (by default f = e, the absolute trace).  Raises
        IntegrityError unless it lies in F_p (index < p) on the subfield
        F_{p^f}, the a with a^(p^f) = a."""
        add, every = self._tables[0], np.arange(self.q)
        frobenius = self.power(every, self.p)
        acc = x = every
        for _ in range((f or self.e) - 1):
            x = frobenius[x]
            acc = add[acc, x]
        if (acc[frobenius[x] == every] >= self.p).any():
            raise IntegrityError("trace landed outside F_p")
        return acc

    @functools.cached_property
    def primitive(self):
        """The index of the least element of order q - 1: the least a != 0
        with a^((q-1)/r) != 1 for every prime r dividing q - 1."""
        a, q = np.arange(1, self.q), self.q
        order_q1 = np.ones(q - 1, dtype=bool)
        for r in filter(is_prime, range(2, q)):
            if (q - 1) % r == 0:
                order_q1 &= self.power(a, (q - 1) // r) != 1
        return int(a[order_q1.argmax()])

    def least_nonsquare(self):
        """The least (index order) nonsquare in F_q, q odd."""
        if self.p == 2:
            raise UsageError("every element of F_%d is a square" % self.q)
        square = np.zeros(self.q, dtype=bool)
        square[self._tables[1].diagonal()] = True
        return int(square.argmin())

    def ranks(self, A):
        """The rank of every matrix of the stack A (..., r, c) of element
        indices, an array of shape A.shape[:-2], by one row reduction of
        them all along the shorter side (rank A = rank A^T): a row still
        nonzero once the rows before it are cleared from it counts one,
        and is cleared from the rows after it at its first nonzero
        column."""
        add, mul, neg = self._tables
        A = np.asarray(A)
        if A.shape[-2] > A.shape[-1]:
            A = np.swapaxes(A, -1, -2)
        shape = A.shape
        A = A.reshape((-1,) + shape[-2:])
        stack, rank = np.arange(len(A)), 0
        for _ in range(shape[-2]):
            row, A = A[:, 0], A[:, 1:]
            nonzero = row != 0
            col = nonzero.argmax(axis=1)
            rank = rank + nonzero.any(axis=1)
            # -A[k, col] / row[col] for each row k after it; 0 if row is 0
            coef = mul[A[stack, :, col],
                       neg[self.inverse[row[stack, col]]][:, None]]
            A = add[A, mul[coef[:, :, None], row[:, None]]]
        return np.reshape(rank, shape[:-2])

    def matmul(self, A, B):
        """The matrix product A B over F_q on arrays of element indices,
        stacked over any leading axes that broadcast: A is (..., r, k), B
        (..., k, c).  Each product is one lookup in the mul table and the
        k terms of each entry fold through the add table."""
        add, mul, _ = self._tables
        terms = mul[A[..., :, :, None], B[..., None, :, :]]
        acc = terms[..., 0, :]
        for j in range(1, terms.shape[-2]):
            acc = add[acc, terms[..., j, :]]
        return acc

    def __eq__(self, other):
        return (isinstance(other, FieldSpec) and self.p == other.p
                and self.e == other.e and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return "FieldSpec(p=%d, e=%d)" % (self.p, self.e)

    def to_config(self):
        cfg = {"p": self.p, "e": self.e}
        if self.e > 1:
            cfg["modulus"] = list(self.modulus)
        return cfg


class FieldElement:
    """Immutable element of a FieldSpec, polynomial basis."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        self.spec = spec
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.spec != self.spec:
            raise UsageError("mixed-field arithmetic: %r vs %r" % (self, other))

    def __add__(self, other):
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple(
            (a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple(
            (a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        prod = [0] * (2 * spec.e - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        if spec.e == 1:
            return FieldElement(spec, (prod[0] % spec.p,))
        return FieldElement(spec, _poly_mod(prod, spec.modulus, spec.p))

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        result = self.spec.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inv(self):
        if self.is_zero():
            raise UsageError("zero is not invertible")
        return self ** (self.spec.q - 2)

    def frobenius(self, k=1):
        """x -> x^(p^k)."""
        return self ** (self.spec.p ** k)

    def trace(self):
        """Absolute trace tr_{F_q/F_p}, returned as an integer in [0, p)."""
        spec = self.spec
        acc = self
        x = self
        for _ in range(spec.e - 1):
            x = x.frobenius()
            acc = acc + x
        if any(acc.coeffs[1:]):
            raise IntegrityError("trace landed outside F_p")
        return acc.coeffs[0]

    def is_zero(self):
        return not any(self.coeffs)

    @property
    def index(self):
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.spec.p + c
        return idx

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec.p, self.spec.e, self.coeffs))

    def __repr__(self):
        return "F%d%s" % (self.spec.q, list(self.coeffs))
