"""Exact arithmetic in the cyclotomic integers Z[zeta_m].

Elements are stored in the power basis 1, z, ..., z^(phi(m)-1) reduced mod
the m-th cyclotomic polynomial, with plain Python integers as coefficients,
so every ring identity in the package is checked with zero tolerance.
"""

from __future__ import annotations

import cmath
import functools
import math

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

    @staticmethod
    def from_exponent_counts(m, counts):
        """Sum of counts[k] * zeta_m^k; counts is a length-m sequence."""
        return CycloInt(m, list(counts))

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

    def divide_exact(self, n):
        """Divide by the integer n; every coefficient must be divisible."""
        if any(c % n for c in self.coeffs):
            raise ArithmeticError("inexact division of %r by %d" % (self, n))
        return CycloInt(self.order, tuple(c // n for c in self.coeffs),
                        reduce=False)

    # -- queries -----------------------------------------------------------

    def as_rational_integer(self):
        """The integer n if self == n*1, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def is_zero(self):
        return not any(self.coeffs)

    def is_real(self):
        return self.conjugate() == self

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

    def to_json(self):
        val, _ = self.approx()
        return {"order": self.order, "coeffs": list(self.coeffs),
                "approx": [round(val.real, 12), round(val.imag, 12)]}
