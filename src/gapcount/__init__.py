"""Numerical toolkit for eigenvalue counting in the spectral gap of a
fourth-order 2D Dirac-type operator with an attractive potential."""

import os

# numpy and scipy each bundle an OpenBLAS pool, and each pool reads
# OPENBLAS_THREAD_TIMEOUT once, when its library loads: an idle worker
# busy-waits 2^k cycles before it sleeps, k = 28 by default, after the load
# and after every threaded call.  So the value is set here, before the first
# import below loads numpy; a value already in the environment is kept.
# Measured on 2 vCPUs, fresh processes: after `import numpy, scipy.linalg,
# scipy.fft` and a 0.6 s sleep each pool worker had used 6 clock ticks at the
# default and 0 at k = 16 or 20.  A Krylov count above
# spectra._KRYLOV_SINGLE_THREAD_LIMIT runs threaded; on the n = 96 Weyl
# count (dimension 18432) k = 16 kept the wall time and cut the CPU time
# most: medians of 20 alternating runs, wall 1.07, 1.06 and 1.09 s and CPU
# 2.02, 1.45 and 1.62 s at k = 28, 16 and 20.
_BLAS_THREAD_TIMEOUT = "16"
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", _BLAS_THREAD_TIMEOUT)

from .asymptotic import (
    AsymptoticPrediction,
    NonIntegrableError,
    box_coefficient,
    j_integral,
    phase_space_volume,
    weyl_coefficient,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config_text
from .flow import (
    CrossingResult,
    DegenerateThresholdWarning,
    FlowTrace,
    branch_trace,
    crossing_count_detailed,
)
from .harness import (
    CountingReport,
    emit_outputs,
    oracle_lines,
    report_csv_text,
    run_study,
)
from .lattice import GridSpec, build_grid
from .operators import (
    BoxSpec,
    DenseCapExceededError,
    LinearOperatorHandle,
    LocalizationSpec,
    assemble_dense,
    birman_schwinger,
    free_operator,
    resolvent,
    restricted_block,
    zone_masks,
)
from .potential import (
    DiskBump,
    Gaussian,
    PowerDecay,
    eval_potential,
    psi_profile,
    sqrt_potential,
)
from .spectra import (
    CountResult,
    InertiaResult,
    hermitian_eigenvalues,
    inertia,
    iterative_count_above,
)
from .symbol import (
    ModelParams,
    dirac_symbol,
    resolvent_symbol,
    symbol_eigenvalues,
)

__version__ = "0.1.0"
