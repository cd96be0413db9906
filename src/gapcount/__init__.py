"""Numerical toolkit for eigenvalue counting in the spectral gap of a
fourth-order 2D Dirac-type operator with an attractive potential."""

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
