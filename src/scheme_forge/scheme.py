"""Translation association schemes: relations, valencies, intersection
numbers, and the axiom verification report.

The relation rule is (x, y) in R_i iff y - x lies in class i of the orbit
partition; intersection numbers use the translated form
p_ij^k = #{z : z in X_j, u - z in X_i} for a representative u of X_k.
The classes are orbits of additive automorphisms, so the counts do not
depend on u: up to REPRESENTATIVE_VERIFY_BOUND points every u is swept
to check it, above it only the first.  Each class is an array sweep over
the differences u - z.  The tensor is one int64 array from the sweep to
the Krein comparison and the build report, which cli.write_report
writes as JSON directly.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrityError
from .action import OrbitPartition, check_condition_4
from .space import AbelianSpace, check_tensor_size
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

    def relation(self, x, y):
        """Class index of (x, y), i.e. class of y - x."""
        return self.partition.class_of[self.space.sub(y, x)]

    # -- intersection numbers ------------------------------------------------

    def intersection_numbers(self):
        """(d+1)^3 int64 array p[i, j, k], computed once and kept, from
        every u in X_k up to REPRESENTATIVE_VERIFY_BOUND points
        (`intersection_tensor`)."""
        if self._p_tensor is None:
            self._p_tensor = intersection_tensor(
                self.space, self.partition,
                self.space.size <= REPRESENTATIVE_VERIFY_BOUND)
        return self._p_tensor

    # -- verification -----------------------------------------------------------

    def verify_axioms(self):
        """Report on the association scheme axioms (i)-(iv)."""
        space = self.space
        report = {}
        sizes = self.partition.sizes
        report["partition"] = (sum(sizes) == space.size
                               and all(s > 0 for s in sizes))
        report["diagonal"] = self.partition.classes[0].tolist() == [0]
        ok, witness = check_condition_4(self.partition, space)
        report["symmetry"] = ok
        if not ok:
            report["symmetry_witness"] = witness
        try:
            self.intersection_numbers()
            report["intersection_numbers"] = True
        except IntegrityError as exc:
            report["intersection_numbers"] = False
            report["intersection_witness"] = str(exc)
        report["all_pass"] = all(report[k] for k in
                                 ("partition", "diagonal", "symmetry",
                                  "intersection_numbers"))
        return report

    # -- semantic class labels ----------------------------------------------

    def class_labels(self, family):
        """Human-readable labels per class where the action family defines
        them: Hamming weight, matrix rank, or (rank, type) for symmetric
        forms."""
        space = self.space
        labels = ["0"] + ["class_%d" % i for i in range(1, self.d + 1)]
        if family in ("hamming", "weak_hamming", "weak_hamming_dual"):
            for i in range(1, self.d + 1):
                labels[i] = "weight_%d" % i
        elif family in ("bilinear", "hermitian", "alternating"):
            for i, cls in enumerate(self.partition.classes[1:], 1):
                r = oracles.matrix_rank(space.materialize(int(cls[0])),
                                        space.field)
                labels[i] = "rank_%d" % r
        elif family == "symmetric":
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

    def to_report(self, family):
        return {
            "label": self.label,
            "size": self.space.size,
            "d": self.d,
            "valencies": self.valencies,
            "class_labels": self.class_labels(family),
            "p_tensor": self.intersection_numbers(),
            "axioms": self.verify_axioms(),
        }


def _diag_rep(space, entries):
    """The point diag(entries, 0, ..., 0) of a symmetric space."""
    mat = np.zeros((1, space.m, space.m), dtype=np.intp)
    for i, v in enumerate(entries):
        mat[0, i, i] = v.index
    return int(space.points_of(mat, "diag", [0])[0])


def intersection_tensor(space, partition, verify_representatives):
    """p[i, j, k] = #{z : z in X_j, u - z in X_i} for u in X_k, an int64
    array, for the representatives u of each class k (all of X_k when
    verifying, else its first point).  A (d + 1)^3 array past the tensor
    bound of the space's size bound (check_tensor_size) raises
    ResourceLimitError before it is allocated.

    For the representatives of class k, the points u - z, for every z,
    form one index array of table gathers (in the index dtype of the
    space, see AbelianSpace.__init__), and the class pairs (i, j) of
    (u - z, z) one int32 array.  Two representatives give the same counts
    iff their sorted rows of pairs are equal, and one bincount of the
    first row gives the counts.  Raises IntegrityError, naming the first u
    whose counts differ from the first representative's, when the counts
    depend on u."""
    d = partition.d
    check_tensor_size(d, space.size_bound)
    class_of = partition.class_of
    points = np.arange(space.size)
    tensor = np.empty((d + 1,) * 3, dtype=np.int64)
    for k, cls in enumerate(partition.classes):
        reps = cls if verify_representatives else cls[:1]
        pairs = class_of[space.sub(reps[:, None], points)]
        pairs *= d + 1
        pairs += class_of
        pairs.sort(axis=1)
        differ = np.flatnonzero((pairs != pairs[0]).any(axis=1))
        if len(differ):
            raise IntegrityError(
                "intersection numbers depend on the representative "
                "of class %d (u=%d vs u=%d)" % (k, reps[0], reps[differ[0]]))
        tensor[:, :, k] = np.bincount(pairs[0], minlength=(d + 1) ** 2
                                      ).reshape(d + 1, d + 1)
    return tensor
