"""Weak order posets and poset weights.

A weak order poset is an ordinal sum of antichains; coordinates keep their
identity under dualization (only the order relation flips), which is what
makes the dual-poset automorphism group act on the same vertex space.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError


class WeakOrderPoset:
    """Ordinal sum of antichains of sizes `levels` on [n].

    level_of maps coordinate (1-based) to its level (1-based, bottom = 1);
    by default the blocks are laid out left to right, but a dualized poset
    carries a reversed level_of while keeping coordinates in place.
    """

    def __init__(self, levels, level_of=None):
        levels = tuple(int(v) for v in levels)
        if not levels or any(v < 1 for v in levels):
            raise UsageError("levels must be positive integers")
        self.levels = levels
        self.t = len(levels)
        self.n = sum(levels)
        if level_of is None:
            level_of = []
            for s, size in enumerate(levels, start=1):
                level_of.extend([s] * size)
        self.level_of = tuple(level_of)
        if len(self.level_of) != self.n:
            raise UsageError("level_of length mismatch")
        for s, size in enumerate(levels, start=1):
            if sum(1 for v in self.level_of if v == s) != size:
                raise UsageError("level_of does not match level sizes")

    def block(self, s):
        """Coordinates (1-based) at level s."""
        return [k for k in range(1, self.n + 1) if self.level_of[k - 1] == s]

    def dual(self):
        """Order relation reversed, coordinates preserved."""
        t = self.t
        return WeakOrderPoset(tuple(reversed(self.levels)),
                              tuple(t + 1 - v for v in self.level_of))

    def weight(self, coords):
        """P-weight of a coordinate vector of element indices or residues
        (only zero-ness is consulted)."""
        if len(coords) != self.n:
            raise UsageError("vector dimension != poset size")
        return int(self.weights(np.not_equal(coords, 0)))

    def weights(self, nonzero):
        """P-weights of a stack of vectors given by their nonzero masks
        (last axis the n coordinates): the size of the order ideal of the
        support, which is the support plus every coordinate below its top
        level."""
        level = np.array(self.level_of)
        top = np.where(nonzero, level, 0).max(axis=-1, initial=0)
        return (nonzero | (level < top[..., None])).sum(axis=-1)

    def __eq__(self, other):
        return (isinstance(other, WeakOrderPoset)
                and self.level_of == other.level_of)

    def __repr__(self):
        return "WeakOrderPoset(levels=%s, level_of=%s)" % (
            list(self.levels), list(self.level_of))
