"""Translation association schemes: relations, valencies, intersection
numbers, and the axiom verification report.

The relation rule is (x, y) in R_i iff y - x lies in class i of the orbit
partition; intersection numbers use the translated form
p_ij^k = #{z : z in X_j, u - z in X_i} for a representative u of X_k.
The classes are orbits of additive automorphisms, so the counts do not
depend on u: up to REPRESENTATIVE_VERIFY_BOUND points every u is swept
to check it, above it only the first.  One array pass covers the
differences u - z of every representative of every class.  The tensor
is one int64 array from the sweep to the Krein comparison and the build
report, which cli.write_report writes as JSON directly.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrityError
from .action import OrbitPartition, check_condition_4
from .space import AbelianSpace, check_tensor_size

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
        report["symmetry"] = check_condition_4(self.partition, space)[0]
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
        them: Hamming weight, matrix rank (kept on the partition by
        orbits), or (rank, type) for symmetric forms."""
        space = self.space
        labels = ["0"] + ["class_%d" % i for i in range(1, self.d + 1)]
        if family in ("hamming", "weak_hamming", "weak_hamming_dual"):
            for i in range(1, self.d + 1):
                labels[i] = "weight_%d" % i
        elif family in ("bilinear", "hermitian", "alternating"):
            for i in range(1, self.d + 1):
                labels[i] = "rank_%d" % self.partition.ranks[i]
        elif family == "symmetric":
            labels = self._symmetric_labels(labels)
        return labels

    def _symmetric_labels(self, labels):
        space = self.space
        eps = space.field.least_nonsquare()
        for r in range(1, space.m + 1):
            plus = _diag_rep(space, [1] * r)
            minus = _diag_rep(space, [eps] + [1] * (r - 1))
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
    """The point diag(entries, 0, ..., 0), entries element indices."""
    mat = np.zeros((1, space.m, space.m), dtype=np.intp)
    diag = np.arange(len(entries))
    mat[0, diag, diag] = entries
    return int(space.points_of(mat, "diag", [0])[0])


def difference_rows(space, reps):
    """u - z for every u of the index array `reps` (rows) and every z in
    X (columns, in index order), an index array (len(reps), |X|).

    On X = A x B (AbelianSpace.split), with z = a + b and u = u_A + u_B
    so split, u - z = (u_A - a) + (u_B - b), and the two differences have
    no digit in common: the rows are one broadcast sum of two calls of
    the law, of shapes (len(reps), |A|) and (len(reps), |B|), each no
    larger than the output."""
    size, trail = space.size, space.size // space.split[1]
    low = reps % trail
    rows_a = space.sub((reps - low)[:, None], np.arange(0, size, trail))
    rows_b = space.sub(low[:, None], np.arange(trail))
    # the sum in intp, which take reads without a converted copy
    return (rows_a.astype(np.intp)[:, :, None] + rows_b[:, None, :]
            ).reshape(len(reps), size)


def intersection_tensor(space, partition, verify_representatives):
    """p[i, j, k] = #{z : z in X_j, u - z in X_i} for u in X_k, a
    C-ordered int64 array, for the representatives u of each class k (all
    of X_k when verifying, else its first point).  A (d + 1)^3 array past
    the tensor bound of the space's size bound (check_tensor_size) raises
    ResourceLimitError before it is allocated.

    One pass over every representative of every class, in listed order:
    the points u - z (difference_rows) give the class pair (i, j) of
    (u - z, z), coded i (d + 1) + j by one take of the class labels, in
    uint16 when (d + 1)^2 codes fit, else int64.  Two representatives
    give the same counts iff their sorted rows of codes are equal; every
    sorted row is compared with its class's first, and one bincount of
    the first rows, with k as the last digit of the code, gives the
    tensor.  Raises IntegrityError, naming the first u (in the first
    class, in listed order) whose counts differ from its class's first
    representative's, when the counts depend on u."""
    d = partition.d
    check_tensor_size(d, space.size_bound)
    n = d + 1
    reps = [cls if verify_representatives else cls[:1]
            for cls in partition.classes]
    counts = [len(r) for r in reps]
    reps = np.concatenate(reps)
    labels = partition.class_of.astype(np.uint16 if n * n <= 1 << 16
                                       else np.int64)
    # every difference is a point: "clip" only skips the bounds check
    pairs = (labels * n).take(difference_rows(space, reps), mode="clip")
    pairs += labels
    pairs.sort(axis=1)
    starts = np.cumsum([0] + counts[:-1])
    first = pairs[starts]
    differ = np.flatnonzero(
        (pairs != np.repeat(first, counts, axis=0)).any(axis=1))
    if len(differ):
        k = int(np.searchsorted(starts, differ[0], side="right")) - 1
        raise IntegrityError(
            "intersection numbers depend on the representative "
            "of class %d (u=%d vs u=%d)"
            % (k, reps[starts[k]], reps[differ[0]]))
    codes = first.astype(np.int64) * n + np.arange(n)[:, None]
    return np.bincount(codes.ravel(), minlength=n ** 3).reshape(n, n, n)
