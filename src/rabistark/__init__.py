"""Dissipative anisotropic quantum Rabi-Stark model simulator.

Builds and diagonalizes the model Hamiltonian, solves the dressed master
equation for steady states, and computes photon correlation functions,
quadrature squeezing, and first-order phase-transition critical points over
parameter sweeps.
"""

from .dissipation import (
    BathParams,
    SteadyState,
    TransitionTable,
    bose_occupation,
    steady_populations,
    transition_rates,
)
from .errors import (
    ConfigError,
    InvalidInputError,
    InvalidParameterError,
    MultipleSteadyStateError,
    NumericFailureError,
    RabiStarkError,
    ZeroFluxError,
)
from .observables import (
    DetectionOperator,
    ObservableReport,
    approx_g2,
    approx_g3,
    correlation_g_n,
    detection_operator,
    field_moments,
    flux_proxy,
    squeezing_factor,
)
from .spectrum import (
    CriticalPoints,
    EigenSystem,
    ModelParams,
    eigensystem,
    find_crossings,
    gc_analytic,
)
from .sweep import (
    AxisSpec,
    PointResult,
    SweepResult,
    SweepSpec,
    evaluate_group,
    evaluate_point,
    run_sweep,
)

__version__ = "0.1.0"
