"""Translation association schemes: relations, valencies, intersection
numbers, adjacency matrices, and the axiom verification report.

The relation rule is (x, y) in R_i iff y - x lies in class i of the orbit
partition; intersection numbers use the translated form
p_ij^k = #{z : z in X_j, u - z in X_i} for a representative u of X_k, with
optional re-computation over every representative as an integrity check.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrityError, ResourceLimitError
from .action import OrbitPartition, check_condition_4
from .space import (AbelianSpace, VectorSpace, FullMatrixSpace,
                    AlternatingMatrixSpace, SymmetricMatrixSpace,
                    HermitianMatrixSpace)
from . import oracles

DEFAULT_MATRIX_BOUND = 512
REPRESENTATIVE_VERIFY_BOUND = 1024


class TranslationScheme:
    def __init__(self, space: AbelianSpace, partition: OrbitPartition,
                 label=""):
        ok, witness = check_condition_4(partition, space)
        if not ok:
            raise IntegrityError(
                "classes are not negation-closed (witness point %d); "
                "the relations would not be symmetric" % witness)
        self.space = space
        self.partition = partition
        self.d = partition.d
        self.valencies = partition.sizes
        self.label = label
        self._p_tensor = None
        self._p_verified = False

    def relation(self, x, y):
        """Class index of (x, y), i.e. class of y - x."""
        return self.partition.class_of[self.space.sub(y, x)]

    def class_points(self, i):
        return self.partition.classes[i]

    def representative(self, i):
        return self.partition.classes[i][0]

    # -- intersection numbers ------------------------------------------------

    def intersection_numbers(self, verify_representatives=None):
        """(d+1)^3 tensor p[i][j][k], computed by one sweep over X per
        representative; with verification on, every u in X_k must give the
        same counts.  The tensor is kept, so a later call reuses it unless
        it asks for a verification the kept tensor did not have."""
        if verify_representatives is None:
            verify_representatives = self.space.size <= REPRESENTATIVE_VERIFY_BOUND
        if self._p_tensor is not None and (self._p_verified
                                           or not verify_representatives):
            return self._p_tensor
        d = self.d
        space = self.space
        class_of = self.partition.class_of
        tensor = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
        for k in range(d + 1):
            reps = (self.partition.classes[k] if verify_representatives
                    else [self.representative(k)])
            first = None
            for u in reps:
                counts = [[0] * (d + 1) for _ in range(d + 1)]
                for z in range(space.size):
                    counts[class_of[space.sub(u, z)]][class_of[z]] += 1
                if first is None:
                    first = counts
                elif counts != first:
                    raise IntegrityError(
                        "intersection numbers depend on the representative "
                        "of class %d (u=%d vs u=%d)"
                        % (k, reps[0], u))
            for i in range(d + 1):
                for j in range(d + 1):
                    tensor[i][j][k] = first[i][j]
        self._p_tensor = tensor
        self._p_verified = verify_representatives
        return tensor

    # -- adjacency matrices ---------------------------------------------------

    def adjacency_matrix(self, i, matrix_bound=DEFAULT_MATRIX_BOUND):
        n = self.space.size
        if n > matrix_bound:
            raise ResourceLimitError(
                "|X| = %d exceeds the matrix bound %d" % (n, matrix_bound))
        A = np.zeros((n, n), dtype=np.int64)
        for x in range(n):
            for y in range(n):
                if self.relation(x, y) == i:
                    A[x, y] = 1
        return A

    # -- verification -----------------------------------------------------------

    def verify_axioms(self, verify_representatives=None):
        """Report on the association scheme axioms (i)-(iv)."""
        space = self.space
        report = {}
        sizes = self.partition.sizes
        report["partition"] = (sum(sizes) == space.size
                               and all(s > 0 for s in sizes))
        report["diagonal"] = self.partition.classes[0] == [0]
        ok, witness = check_condition_4(self.partition, space)
        report["symmetry"] = ok
        if not ok:
            report["symmetry_witness"] = witness
        try:
            self.intersection_numbers(verify_representatives)
            report["intersection_numbers"] = True
        except IntegrityError as exc:
            report["intersection_numbers"] = False
            report["intersection_witness"] = str(exc)
        report["all_pass"] = all(report[k] for k in
                                 ("partition", "diagonal", "symmetry",
                                  "intersection_numbers"))
        return report

    # -- semantic class labels ----------------------------------------------

    def class_labels(self, family=None):
        """Human-readable labels per class where the family defines them:
        Hamming weight, matrix rank, or (rank, type) for symmetric forms."""
        space = self.space
        labels = ["0"] + ["class_%d" % i for i in range(1, self.d + 1)]
        if family in ("hamming", "weak_hamming", "weak_hamming_dual"):
            for i in range(1, self.d + 1):
                labels[i] = "weight_%d" % i
        elif family in ("bilinear", "hermitian") or (
                family is None and isinstance(space, (FullMatrixSpace,
                                                      HermitianMatrixSpace))):
            for i in range(1, self.d + 1):
                r = oracles.matrix_rank(space.materialize_cached(
                    self.representative(i)), space.field)
                labels[i] = "rank_%d" % r
        elif family == "alternating" or (
                family is None and isinstance(space, AlternatingMatrixSpace)):
            for i in range(1, self.d + 1):
                r = oracles.matrix_rank(space.materialize_cached(
                    self.representative(i)), space.field)
                labels[i] = "rank_%d" % r
        elif family == "symmetric" or (
                family is None and isinstance(space, SymmetricMatrixSpace)):
            labels = self._symmetric_labels(labels)
        return labels

    def _symmetric_labels(self, labels):
        space = self.space
        field = space.field
        eps = oracles.least_nonsquare(field)
        for r in range(1, space.m + 1):
            plus = _diag_rep(space, [field.one()] * r)
            minus = _diag_rep(space, [eps] + [field.one()] * (r - 1))
            labels[self.partition.class_of[plus]] = "(%d,+)" % r
            cm = self.partition.class_of[minus]
            if labels[cm].startswith("class_") or minus == plus:
                labels[cm] = "(%d,-)" % r
        return labels

    def to_report(self, family=None, verify_representatives=None):
        tensor = self.intersection_numbers(verify_representatives)
        return {
            "label": self.label,
            "size": self.space.size,
            "d": self.d,
            "valencies": self.valencies,
            "class_labels": self.class_labels(family),
            "p_tensor": tensor,
            "axioms": self.verify_axioms(verify_representatives=False),
        }


def _diag_rep(space, entries):
    field = space.field
    zero = field.zero()
    mat = [[zero] * space.m for _ in range(space.m)]
    for i, v in enumerate(entries):
        mat[i][i] = v
    return space.index_of_matrix(mat)
