"""Exact arithmetic in F_q (q = p^e), polynomial-basis representation.

Elements are coefficient tuples (constant term first) reduced mod a monic
irreducible modulus of degree e over F_p.  Everything is immutable and
desk-scale: q is capped (default 256) and the irreducibility of the modulus
is verified by exhaustive trial division.  For array work a FieldSpec
tabulates its addition, multiplication (through discrete logarithms)
and negation on element indices once (`tables`, `matmul`).
"""

from __future__ import annotations

import numpy as np

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
    """A finite field F_{p^e} with a fixed polynomial basis."""

    def __init__(self, p, e=1, modulus=None, q_bound=DEFAULT_Q_BOUND):
        # q_bound first: no trial division of a large p, and p ** e only
        # for e within q_bound's bit length (2^e > q_bound past it)
        if p <= q_bound and not is_prime(p):
            raise UsageError("p = %r is not prime" % (p,))
        if e < 1:
            raise UsageError("extension degree must be >= 1")
        if p > q_bound or e > q_bound.bit_length() or p ** e > q_bound:
            raise ResourceLimitError("q = %d^%d exceeds bound %d"
                                     % (p, e, q_bound))
        q = p ** e
        self.p = p
        self.e = e
        self.q = q
        if modulus is not None:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise UsageError("modulus must be monic of degree e")
        if e == 1:
            self.modulus = (0, 1)  # unused; t - 0 placeholder
        else:
            if modulus is None:
                modulus = BUILTIN_MODULI.get((p, e))
                if modulus is None:
                    raise UsageError(
                        "no built-in modulus for q = %d^%d; supply one" % (p, e))
            if not self._is_irreducible(modulus, p):
                raise UsageError("modulus %r is reducible over F_%d" % (modulus, p))
            self.modulus = modulus
        self._elements = None
        self._primitive = None
        self._tables = None

    @staticmethod
    def _is_irreducible(modulus, p):
        # trial division by every monic polynomial of degree 1..e//2
        e = len(modulus) - 1
        for deg in range(1, e // 2 + 1):
            for idx in range(p ** deg):
                div = []
                k = idx
                for _ in range(deg):
                    div.append(k % p)
                    k //= p
                div.append(1)
                # long division remainder of modulus by div
                rem = list(modulus)
                for i in range(len(rem) - 1, deg - 1, -1):
                    c = rem[i]
                    if c:
                        for j in range(deg + 1):
                            rem[i - deg + j] = (rem[i - deg + j] - c * div[j]) % p
                if not any(rem[:deg]):
                    return False
        return True

    # -- element constructors ------------------------------------------------

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

    def primitive_element(self):
        """Least element (coefficient-lex = index order) of order q-1."""
        if self._primitive is None:
            if self.q == 2:
                self._primitive = self.one()
            else:
                for a in self.elements():
                    if a.is_zero():
                        continue
                    if a.multiplicative_order() == self.q - 1:
                        self._primitive = a
                        break
        return self._primitive

    # -- index tables -----------------------------------------------------

    def tables(self):
        """(add, mul, neg) on element indices, built once: add[a, b] adds
        coefficient vectors mod p, mul[a, b] = w^(log a + log b) from the
        FieldElement powers of the primitive element w, neg[a] = -a."""
        if self._tables is None:
            q, els = self.q, self.elements()
            coeffs = np.array([a.coeffs for a in els])
            place = self.p ** np.arange(self.e)
            add = (coeffs[:, None] + coeffs) % self.p @ place
            power = [self.one()]
            for _ in range(q - 2):
                power.append(power[-1] * self.primitive_element())
            exp = np.array([a.index for a in power])
            log = np.zeros(q, dtype=np.intp)
            log[exp] = np.arange(q - 1)
            mul = exp[(log[:, None] + log) % (q - 1)]
            mul[0] = mul[:, 0] = 0
            neg = np.array([(-a).index for a in els])
            self._tables = add, mul, neg
        return self._tables

    def matmul(self, A, B):
        """The matrix product A B over F_q on arrays of element indices,
        stacked over any leading axes that broadcast: A is (..., r, k), B
        (..., k, c).  Each product is one lookup in the mul table and the
        k terms of each entry fold through the add table."""
        add, mul, _ = self.tables()
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

    def subfield_trace(self, f):
        """Trace to F_p of an element known to lie in the subfield F_{p^f}.

        Computes sum of a^(p^i) for i < f and checks the result (and the
        element itself) is where it should be.
        """
        spec = self.spec
        if spec.e % f != 0:
            raise UsageError("F_{p^%d} is not a subfield of F_{p^%d}" % (f, spec.e))
        if (self ** (spec.p ** f)).coeffs != self.coeffs:
            raise UsageError("element does not lie in the declared subfield")
        acc = self
        x = self
        for _ in range(f - 1):
            x = x.frobenius()
            acc = acc + x
        if any(acc.coeffs[1:]):
            raise IntegrityError("subfield trace landed outside F_p")
        return acc.coeffs[0]

    def multiplicative_order(self):
        if self.is_zero():
            raise UsageError("zero has no multiplicative order")
        one = self.spec.one()
        x = self
        n = 1
        while x != one:
            x = x * self
            n += 1
        return n

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
