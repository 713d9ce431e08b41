"""fracstoch: noise-perturbed smoothing operators and fractional calculus.

Subpackages map to the lab's components: symmetrized kernels
(:mod:`~fracstoch.kernels`), lattice Kantorovich operators
(:mod:`~fracstoch.lattice`), mollifier smoothing (:mod:`~fracstoch.mollify`),
Caputo/spectral fractional calculus (:mod:`~fracstoch.fractional`), the
fractional Burgers proxy (:mod:`~fracstoch.turbulence`) and the experiment
harness (:mod:`~fracstoch.experiments`, :mod:`~fracstoch.cli`).
"""

from .config import EXPERIMENTS, ConfigError, RunConfig, parse_config
from .fields import Field, PeriodicGrid, sample_on_grid
from .fractional import (
    TimeGrid,
    caputo_l1,
    frac_laplacian,
    gagliardo_seminorm,
    mittag_leffler,
)
from .kernels import (
    KernelParams,
    eval_g,
    eval_M,
    eval_Phi,
    eval_Z,
    partition_sum,
)
from .lattice import (
    apply_expectation,
    kernel_moment,
    sample,
    variance_closed_form,
    voronovskaya_remainder,
)
from .mollify import ScaledKernel, c_phi, mse_decomposition
from .report import ExperimentReport, fit_slope
from .rng import NoiseModel
from .turbulence import (
    FracFlowParams,
    dissipation_convergence,
    energy_dissipation,
    frac_burgers_solve,
    l2_convergence,
    synth_velocity,
)

__version__ = "0.1.0"
