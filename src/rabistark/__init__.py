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
    evolve_density,
    gibbs_state,
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
    StepSizeError,
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
from .operators import (
    ModelParams,
    assemble_hamiltonian,
    build_field_ops,
    composite_annihilation,
    composite_position,
    field_position,
    parity_operator,
)
from .spectrum import (
    CriticalPoints,
    EigenSystem,
    diagonalize,
    eigensystem,
    find_crossings,
    gaps,
    gc_analytic,
)
from .sweep import (
    AxisSpec,
    PointResult,
    SweepResult,
    SweepSpec,
    evaluate_point,
    run_sweep,
    sign_transitions,
)

__version__ = "0.1.0"
