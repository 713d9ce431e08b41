"""The benchmark's workloads: which fracstoch jobs make up one pass.

A pass is every job of a workload at one seed.  Experiment jobs are flag
dictionaries for ``fracstoch.config.parse_config``; the ``caputo_l1`` job
is a direct call on a series the benchmark generates from the seed.
Each workload puts most of its time in different layers, so a later
change shows on the workload that exercises its mechanism and must read
unchanged on the others.
"""

from __future__ import annotations

CAPUTO_STEPS = 65536
CAPUTO_ALPHA = 0.5

WORKLOADS = {
    # Bulk counter-RNG draws and stochastic mollification; almost no
    # kernels, lattice or solver.  Target of the RNG and dissipation cuts.
    "monte_carlo": [
        {"experiment": "dissipation"},
        {"experiment": "variance_scaling", "replicates": 20000, "n_list": "4,8,16,32"},
        {"experiment": "mse", "replicates": 5000},
    ],
    # The deterministic path: Gagliardo seminorm, kernel evaluators,
    # lattice expectations.  Draws no counter-RNG variate.
    "rates": [
        {"experiment": "kernel"},
        {"experiment": "caputo"},
        {"experiment": "kantorovich_rates"},
        {"experiment": "voronovskaya"},
        {"experiment": "l2"},
        {"experiment": "mollifier_rates", "n_list": "8,16,32,64,128", "points": 16384},
    ],
    # Caputo memory: the solver's O(steps^2 P) history sum with many
    # 4-variate forcing draws, then an O(m^2) offline L1 derivative.
    "memory": [
        {"experiment": "burgers", "steps": 8192},
        {"caputo_l1": CAPUTO_STEPS},
    ],
}

# Monte-Carlo tolerance checks: a miss is a statistical event, not a failure.
MC_CHECK_PREFIXES = ("variance_identity_", "additivity_")
