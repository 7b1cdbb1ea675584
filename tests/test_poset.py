"""Weak order posets and P-weights."""

import itertools

import numpy as np
import pytest

from scheme_forge.errors import UsageError
from scheme_forge.poset import WeakOrderPoset


def sphere_sizes(poset, q):
    """|S_P(i)| for i = 0..n by exhaustive weight evaluation over F_q^n."""
    nonzero = np.indices((q,) * poset.n).reshape(poset.n, -1).T != 0
    return np.bincount(poset.weights(nonzero),
                       minlength=poset.n + 1).tolist()


def test_level_layout():
    P = WeakOrderPoset((2, 1))
    assert P.level_of == (1, 1, 2)
    assert P.block(1) == [1, 2]
    assert P.block(2) == [3]


def test_dual_preserves_coordinates():
    P = WeakOrderPoset((2, 1))
    D = P.dual()
    assert D.levels == (1, 2)
    assert D.level_of == (2, 2, 1)  # coordinate 3 drops to the bottom
    assert D.dual() == P


def test_weights_by_hand():
    # levels (2,1): w = |support ∩ {1,2}| if x3 = 0, else 3
    P = WeakOrderPoset((2, 1))
    assert P.weight((0, 0, 0)) == 0
    assert P.weight((1, 0, 0)) == 1
    assert P.weight((1, 1, 0)) == 2
    assert P.weight((0, 0, 1)) == 3
    assert P.weight((1, 0, 1)) == 3
    D = P.dual()
    assert D.weight((0, 0, 1)) == 1
    assert D.weight((1, 0, 0)) == 2
    assert D.weight((1, 0, 1)) == 2
    assert D.weight((1, 1, 0)) == 3


def test_single_level_is_hamming_weight():
    P = WeakOrderPoset((4,))
    total = 0
    for idx in range(2 ** 4):
        coords = [(idx >> k) & 1 for k in range(4)]
        assert P.weight(coords) == sum(coords)
        total += 1
    assert total == 16


def test_sphere_sizes():
    assert sphere_sizes(WeakOrderPoset((1, 1)), 2) == [1, 1, 2]
    assert sphere_sizes(WeakOrderPoset((2, 1)), 2) == [1, 2, 1, 4]
    assert sphere_sizes(WeakOrderPoset((2, 1)).dual(), 2) == [1, 1, 4, 2]
    # all spheres of the chain 1+1+1: q^(i-1)(q-1) points at weight i
    assert sphere_sizes(WeakOrderPoset((1, 1, 1)), 3) == [1, 2, 6, 18]


def test_validation():
    with pytest.raises(UsageError):
        WeakOrderPoset(())
    with pytest.raises(UsageError):
        WeakOrderPoset((1, 0))
    with pytest.raises(UsageError):
        WeakOrderPoset((1, 1)).weight((0,))


def ideal_weight(P, coords):
    """|<supp(v)>|: the order ideal generated by the support, k below j
    iff level(k) < level(j)."""
    support = [k for k in range(1, P.n + 1) if coords[k - 1]]
    return len({k for k in range(1, P.n + 1)
                if any(k == j or P.level_of[k - 1] < P.level_of[j - 1]
                       for j in support)})


def block_weight(P, coords):
    """Partial level sums below the top nonempty level plus the Hamming
    weight of that level."""
    support = [k for k in range(1, P.n + 1) if coords[k - 1]]
    if not support:
        return 0
    s = max(P.level_of[k - 1] for k in support)
    return (sum(1 for v in P.level_of if v < s)
            + sum(1 for k in support if P.level_of[k - 1] == s))


@pytest.mark.parametrize("levels", [(1,), (3,), (1, 1), (2, 1), (1, 2),
                                    (1, 1, 1), (2, 1, 2), (1, 3, 1)])
def test_weights_match_ideal_and_block_formulas(levels):
    """The array weights equal the order-ideal definition and the block
    formula on every 0/1 vector, for the poset and its dual."""
    for P in (WeakOrderPoset(levels), WeakOrderPoset(levels).dual()):
        vectors = list(itertools.product((0, 1), repeat=P.n))
        got = P.weights(np.array(vectors, dtype=bool)).tolist()
        assert got == [ideal_weight(P, v) for v in vectors]
        assert got == [block_weight(P, v) for v in vectors]
        assert [P.weight(v) for v in vectors] == got
