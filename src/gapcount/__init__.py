"""Numerical toolkit for eigenvalue counting in the spectral gap of a
fourth-order 2D Dirac-type operator with an attractive potential."""

from .asymptotic import (
    AsymptoticPrediction,
    NonIntegrableError,
    box_coefficient,
    box_symbol_region_area,
    chi_momentum_integral,
    g_matrix,
    j_integral,
    phase_space_count,
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
    parse_report_csv,
    report_csv_text,
    run_box_study,
    run_crossterm_study,
    run_flow_trace_study,
    run_theorem2_study,
    run_weyl_study,
)
from .lattice import GridSpec, build_grid
from .operators import (
    BoxSpec,
    DenseCapExceededError,
    LinearOperatorHandle,
    LocalizationSpec,
    assemble_dense,
    birman_schwinger,
    box_localized_resolvent,
    free_operator,
    localized_piece,
    perturbed_operator,
    resolvent,
    restricted_block,
    zone_masks,
)
from .potential import (
    BracketDivergenceError,
    BracketNorm,
    DiskBump,
    Gaussian,
    PowerDecay,
    bracket_norm,
    eval_potential,
    psi_profile,
    sqrt_potential,
)
from .spectra import (
    CountResult,
    InertiaResult,
    SpectrumResult,
    count_above,
    hermitian_eigenvalues,
    inertia,
    iterative_count_above,
    power_iteration_norm,
    sigma_p_seminorm,
    singular_values,
)
from .symbol import (
    ModelParams,
    bounded_factor,
    bounded_factor_sup,
    dirac_symbol,
    resolvent_norm_bound,
    resolvent_symbol,
    symbol_eigenvalues,
)

__version__ = "0.1.0"
