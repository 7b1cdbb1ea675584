"""Class counts d and valencies from closed forms or short counts, written
without scheme_forge, as the reference the expected answers are checked
against.

Valencies are listed in the program's class order: by Hamming or poset
weight, by rank (ties by least point index), or by least point index. Point
indices follow the documented encoding: mixed radix over the free
coordinates, first coordinate most significant; a prime-field element's
index is its value.
"""

import itertools
import math


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def hamming(n, q):
    return [math.comb(n, k) * (q - 1) ** k for k in range(n + 1)]


def weak_hamming(levels, q):
    """Sphere sizes of the weak order with antichains `levels`, bottom
    first: weight = size of the levels below the top support level plus
    the support inside it."""
    sizes = [1]
    below = 0
    for size in levels:
        for t in range(1, size + 1):
            sizes.append(math.comb(size, t) * (q - 1) ** t * q ** below)
        below += size
    return sizes


def bilinear(m, n, q):
    """m x n matrices over F_q by rank r."""
    out = []
    for r in range(min(m, n) + 1):
        num = 1
        for i in range(r):
            num *= (q ** m - q ** i) * (q ** n - q ** i) // (q ** r - q ** i)
        out.append(num)
    return out


def alternating(m, q):
    """Alternating m x m matrices over F_q by rank 2r."""
    out = []
    for r in range(m // 2 + 1):
        num = q ** (r * (r - 1))
        for i in range(2 * r):
            num *= q ** (m - i) - 1
        for i in range(1, r + 1):
            num //= q ** (2 * i) - 1
        out.append(num)
    return out


def hermitian2(q):
    """2 x 2 Hermitian matrices over F_{q^2} by rank: det = ac - N(b) with
    a, c in F_q and the norm N onto F_q hitting each unit q + 1 times."""
    singular = (2 * q - 1) + (q * q - 1) * (q - 1)
    return [1, singular - 1, q ** 4 - singular]


def cyclotomic(q, d):
    return [1] + [(q - 1) // d] * d


def symmetric2(q):
    """2 x 2 symmetric matrices (a, b; b, c) over prime F_q, q odd, by
    congruence class: rank and the square class of c (rank 1) or of the
    determinant (rank 2). Classes of one rank are ordered by least index
    a q^2 + b q + c."""
    squares = {x * x % q for x in range(1, q)}
    first = {}
    sizes = {}
    for a, b, c in itertools.product(range(q), repeat=3):
        det = (a * c - b * b) % q
        if det:
            key = (2, det in squares)
        elif a or b or c:
            lead = a if a else c
            key = (1, lead in squares)
        else:
            key = (0, True)
        first.setdefault(key, a * q * q + b * q + c)
        sizes[key] = sizes.get(key, 0) + 1
    order = sorted(sizes, key=lambda k: (k[0], first[k]))
    return [sizes[k] for k in order]


def central_cyclic(moduli):
    """Units act by scalar multiplication, so the classes are the
    generators of each cyclic subgroup, ordered by least index; a class's
    size is phi(order)."""
    points = list(itertools.product(*[range(m) for m in moduli]))
    seen = {}
    sizes = []
    for x in points:
        order = 1
        for xi, mi in zip(x, moduli):
            order = order * (mi // math.gcd(xi, mi)) // math.gcd(
                order, mi // math.gcd(xi, mi))
        subgroup = frozenset(tuple(k * xi % mi for xi, mi in zip(x, moduli))
                             for k in range(order))
        if subgroup not in seen:
            seen[subgroup] = len(sizes)
            sizes.append(_phi(order))
    return sizes


def valencies(cfg):
    """Valencies of the scheme a config describes, in class order."""
    space, action = cfg["space"], cfg["action"]
    family = action["family"]
    q = space.get("field", {}).get("p", 0) ** space.get("field", {}).get("e", 1)
    if family == "hamming":
        return hamming(space["n"], q)
    if family == "weak_hamming":
        return weak_hamming(action["levels"], q)
    if family == "weak_hamming_dual":
        return weak_hamming(list(reversed(action["levels"])), q)
    if family == "bilinear":
        return bilinear(space["m"], space["n"], q)
    if family == "alternating":
        return alternating(space["m"], q)
    if family == "hermitian" and space["m"] == 2:
        return hermitian2(math.isqrt(q))
    if family == "cyclotomic":
        return cyclotomic(q, action["d"])
    if family == "symmetric" and space["m"] == 2:
        return symmetric2(q)
    if family == "central" and space["kind"] == "cyclic_product":
        return central_cyclic(space["moduli"])
    raise ValueError("no reference count for %s on %s" % (family, space))
