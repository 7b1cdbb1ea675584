"""Workload definitions: the CLI commands each workload runs, why each
input is there, and which traced spans each workload is meant to exercise.

A command is identified by its argv string (paths relative to the checkout
root); the same string keys `expected.json`.
"""

SHIPPED = [
    "alternating4_f2", "bilinear22_f2", "central_z8", "cyclotomic2_f5",
    "hamming2_f2", "hamming4_f3", "her2_f4", "symmetric2_f3",
    "symmetric2_f5", "wh11_f2", "wh12_f2", "wh21_f2",
]


def _shipped():
    cmds = []
    for name in SHIPPED:
        path = "configs/%s.json" % name
        cmds.append("build " + path)
        cmds.append("dual " + path)
    cmds.append("dual configs/wh21_f2.json configs/wh12_f2.json")
    return cmds


# Why each stretch input (perfbench/configs) is in the benchmark.
INPUT_REASONS = {
    "perfbench/configs/hamming5_f3.json":
        "vector space, |X| = 243 above the matrix bound: dual time goes to "
        "point-level verify_adjoint through VectorSpace.pairing_exponent",
    "perfbench/configs/bilinear24_f2.json":
        "matrix_full space, |X| = 256: build time goes to point-level "
        "verify_additive, orbits with rank sorting and intersection numbers",
    "perfbench/configs/central_z16xz8.json":
        "cyclic_product with d = 29 and m = 16: krein_parameters is "
        "O(d^4) exact products in Z[zeta_16], certificate is 7.6 MB",
    "perfbench/configs/central_z15xz15.json":
        "cyclic_product with d = 34 and m = 15: the largest intersection "
        "tensor; built only, since its 16 s dual does not fit the run budget",
}

WORKLOADS = {
    "shipped": _shipped(),
    "large-space": [
        "build perfbench/configs/bilinear24_f2.json",
        "dual perfbench/configs/hamming5_f3.json --matrix-bound 64",
    ],
    "many-classes": [
        "dual perfbench/configs/central_z16xz8.json --matrix-bound 64",
        "build perfbench/configs/central_z16xz8.json",
        "build perfbench/configs/central_z15xz15.json",
    ],
}

WHY = {
    "shipped": "build and dual on all 12 shipped configs: the real traffic, "
               "dual time in the O(d^2 |X|^2) sigma and idempotent sweeps",
    "large-space": "|X| of 243 and 256 above the matrix bound: sweeps "
                   "skipped, time in point-level space and gf operations",
    "many-classes": "central action on Z16xZ8 and Z15xZ15: large d, "
                    "krein_parameters dominates, multi-MB certificate",
}


def config_paths(workload):
    """Distinct config files the workload's commands read, in first-use
    order."""
    paths = []
    for cmd in WORKLOADS[workload]:
        for tok in cmd.split()[1:]:
            if tok.endswith(".json") and tok not in paths:
                paths.append(tok)
    return paths


# Traced-run predictions: the per-layer metrics that must read exactly 0
# on each workload. Every other per-layer metric must read > 0, so a
# renamed or bypassed stage shows instead of silently reading 0;
# perfbench/selfcheck.py enforces both.
ZERO_ON = {
    "shipped": [],
    "large-space": ["duality.sigma_permutation_s",
                    "duality.verify_idempotents_s"],
    "many-classes": ["duality.sigma_permutation_s",
                     "duality.verify_idempotents_s", "gf.field_ops",
                     "oracles.matrix_rank_s"],
}

# Acceptance shares on the commit that defined the benchmark: the named
# per-layer self times over the traced dual_s. Recorded, not gated in a
# run, because a later change may legitimately move them.
LAYER_SHARES = {
    "shipped": (["duality.sigma_permutation_s",
                 "duality.verify_idempotents_s"], 0.6),
    "large-space": (["action.verify_adjoint_s"], 0.6),
    "many-classes": (["duality.krein_parameters_s"], 0.6),
}
