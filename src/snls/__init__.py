"""Spectral simulator and verification harness for the stochastic
Gross-Pitaevskii equation with additive trace-class noise on a periodic box."""

from .errors import BlowUpError, ConfigurationError, FormatError, SnlsError, UsageError
from .lattice import (
    ComplexField,
    GridSpec,
    SpacetimeInterval,
    apply_schrodinger_group,
    lebesgue_norm,
    make_grid,
    sobolev_norm,
    spacetime_norm,
    x1_norm,
)
from .noise import (
    NoisePath,
    NoiseSpec,
    hs_norm,
    multiplier_noise,
    sample_wiener_increment,
    step_stochastic_convolution,
    zero_noise,
)
from .dynamics import (
    SolverConfig,
    Trajectory,
    dpd_nonlinearity,
    duhamel_residual,
    gauge_transform,
    gp_nonlinearity,
    nonlinear_phase_substep,
    solve,
    strang_step_dpd,
)
from .diagnostics import (
    EnergyLedger,
    IntervalPartition,
    energy,
    ito_ledger,
    partition_intervals,
    strichartz_report,
)
from .harness import (
    EnsembleReport,
    RunConfig,
    convergence_study,
    emit_csv,
    parse_config,
    run_ensemble,
)

__version__ = "0.1.0"
