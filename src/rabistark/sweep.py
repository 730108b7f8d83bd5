"""Full-pipeline evaluation over 1-D and 2-D parameter grids.

Each grid point runs assemble -> diagonalize -> rates -> steady state ->
observables independently; failing points are recorded with an error code
instead of aborting the sweep.  Results land in preallocated row-major slots,
so the output is identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .dissipation import (
    DEFAULT_N_LEVELS,
    BathParams,
    MultipleSteadyStateError,
    steady_populations,
    transition_rates,
)
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    NumericFailureError,
    RabiStarkError,
    ZeroFluxError,
)
from .observables import (
    ObservableReport,
    approx_g2,
    approx_g3,
    correlation_g_n,
    detection_operator,
    field_moments,
    flux_proxy,
    squeezing_factor,
)
from .operators import ModelParams, _is_finite, composite_annihilation, composite_position
from .spectrum import eigensystem

AXIS_NAMES = ("g", "r", "u", "kt")
OBSERVABLE_NAMES = ("g2", "g3", "g2_approx", "g3_approx", "xi_b2", "n_photon", "flux_proxy")
NEAR_DEGENERACY_FRACTION = 1e-4
CONVERGENCE_DELTA_NTR = 40
CONVERGENCE_TOL = 1e-6

ERR_OK = 0
ERR_ZERO_FLUX = 1
ERR_NO_STEADY_STATE = 2
ERR_NUMERIC = 3
ERR_INVALID_PARAMS = 4

ERROR_NAMES = {
    ERR_OK: "ok",
    ERR_ZERO_FLUX: "zero-flux",
    ERR_NO_STEADY_STATE: "no-steady-state",
    ERR_NUMERIC: "numeric-failure",
    ERR_INVALID_PARAMS: "invalid-params",
}

# Exceptions a point's pipeline may raise, and the error code each maps to.
_ERROR_CODES = {
    ZeroFluxError: ERR_ZERO_FLUX,
    MultipleSteadyStateError: ERR_NO_STEADY_STATE,
    InvalidParameterError: ERR_INVALID_PARAMS,
    NumericFailureError: ERR_NUMERIC,
    InvalidInputError: ERR_NUMERIC,
    np.linalg.LinAlgError: ERR_NUMERIC,
}


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: uniform linear grid from min to max."""

    name: str
    min: float
    max: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise InvalidParameterError(
                f"axis parameter must be one of {AXIS_NAMES}, got {self.name!r}"
            )
        if self.count < 2:
            raise InvalidParameterError(f"axis count must be >= 2, got {self.count}")
        if not (_is_finite(self.min) and _is_finite(self.max) and _is_finite(self.max - self.min)):
            raise InvalidParameterError(
                f"axis bounds and span must be finite, got [{self.min}, {self.max}]"
            )
        if not self.min < self.max:
            raise InvalidParameterError(
                f"axis needs min < max, got [{self.min}, {self.max}]"
            )

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: base parameters plus one or two swept axes."""

    model: ModelParams
    bath: BathParams
    axis1: AxisSpec
    axis2: Optional[AxisSpec] = None
    observables: tuple = OBSERVABLE_NAMES
    n_levels: int = DEFAULT_N_LEVELS
    check_convergence: bool = True

    def __post_init__(self):
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise InvalidParameterError(
                f"axis parameters must be distinct, both are {self.axis1.name!r}"
            )
        unknown = [o for o in self.observables if o not in OBSERVABLE_NAMES]
        if unknown:
            raise InvalidParameterError(f"unknown observables: {unknown}")

    @property
    def shape(self) -> tuple:
        return (self.axis1.count, self.axis2.count if self.axis2 else 1)

    def point_params(self, i: int, j: int) -> tuple[ModelParams, BathParams]:
        """Model/bath parameters at grid slot (i, j), overriding the base."""
        overrides = {self.axis1.name: float(self.axis1.values()[i])}
        if self.axis2 is not None:
            overrides[self.axis2.name] = float(self.axis2.values()[j])
        model, bath = self.model, self.bath
        model_kw = {k: v for k, v in overrides.items() if k in ("g", "r", "u")}
        if model_kw:
            model = replace(model, **model_kw)
        if "kt" in overrides:
            bath = replace(bath, kt_q=overrides["kt"], kt_c=overrides["kt"])
        return model, bath


@dataclass
class PointResult:
    """Outcome of the pipeline at one grid point.

    model and bath are None for a grid point whose parameters are invalid.
    """

    model: Optional[ModelParams]
    bath: Optional[BathParams]
    report: Optional[ObservableReport]
    converged: bool
    near_degenerate: bool
    error_code: int
    error_message: str = ""


@dataclass
class SweepResult:
    """Row-major table of per-point results for a SweepSpec."""

    spec: SweepSpec
    axis1_values: np.ndarray
    axis2_values: Optional[np.ndarray]
    points: list = field(default_factory=list)

    def __getitem__(self, idx: tuple[int, int]) -> PointResult:
        i, j = idx
        cols = self.axis2_values.shape[0] if self.axis2_values is not None else 1
        return self.points[i * cols + j]

    @property
    def is_2d(self) -> bool:
        return self.axis2_values is not None

    def column(self, name: str) -> np.ndarray:
        """Observable column over all points, NaN where errored/missing."""
        out = np.full(len(self.points), np.nan)
        for idx, pt in enumerate(self.points):
            if pt.report is not None:
                out[idx] = getattr(pt.report, name)
        return out


def _steady(eigs, model: ModelParams, bath: BathParams, n_levels: int):
    """Rates and steady state over the lowest n_levels eigenstates of eigs."""
    return steady_populations(transition_rates(eigs, model, bath, n_levels=n_levels))


def _n_photon_at(model: ModelParams, bath: BathParams, n_levels: int) -> float:
    eigs = eigensystem(model)
    ss = _steady(eigs, model, bath, n_levels)
    _, n_photon, _ = field_moments(ss, eigs, composite_annihilation(model.n_tr))
    return n_photon


def evaluate_point(
    model: ModelParams,
    bath: BathParams,
    n_levels: int = DEFAULT_N_LEVELS,
    check_convergence: bool = True,
    delta_ntr: int = CONVERGENCE_DELTA_NTR,
) -> PointResult:
    """Run the full single-point pipeline and package every observable.

    Zero-flux and no-steady-state conditions are reported through the error
    code with an empty report, never raised.  The convergence flag compares
    the photon number against a truncation enlarged by delta_ntr: relative
    agreement within CONVERGENCE_TOL, or absolute agreement when both values
    are below 1e-6.
    """
    near_degenerate = False
    try:
        eigs = eigensystem(model)
        near_degenerate = (
            eigs.energies[1] - eigs.energies[0] < NEAR_DEGENERACY_FRACTION * model.omega0
        )
        ss = _steady(eigs, model, bath, n_levels)

        a = composite_annihilation(model.n_tr)
        x = detection_operator(eigs, composite_position(model.n_tr), n_levels=ss.n_levels)
        moments = field_moments(ss, eigs, a)
        a_mean, n_photon, a_sq = moments

        flux = flux_proxy(x, ss)
        g2 = correlation_g_n(x, ss, eigs, 2)
        g3 = correlation_g_n(x, ss, eigs, 3)
        g2_a, eta1, eta2 = approx_g2(eigs, x, ss)
        kt_eff = bath.kt_c if bath.kt_c > 0 else bath.kt_q
        g3_a, eta3 = approx_g3(eigs, x, kt_eff)
        xi_b2, _, _ = squeezing_factor(ss, eigs, a, moments=moments)

        report = ObservableReport(
            g2=g2, g3=g3, g2_approx=g2_a, g3_approx=g3_a, xi_b2=xi_b2,
            n_photon=n_photon, a_mean=a_mean, a_sq=a_sq, flux_proxy=flux,
            eta1=eta1, eta2=eta2, eta3=eta3,
        )
    except tuple(_ERROR_CODES) as exc:
        code = next(c for kind, c in _ERROR_CODES.items() if isinstance(exc, kind))
        return PointResult(model, bath, None, False, near_degenerate, code, str(exc))

    converged = False
    if check_convergence:
        try:
            bigger = _n_photon_at(model.with_n_tr(model.n_tr + delta_ntr), bath, n_levels)
            scale = max(abs(n_photon), abs(bigger))
            if scale < 1e-6:
                converged = abs(bigger - n_photon) < CONVERGENCE_TOL
            else:
                converged = abs(bigger - n_photon) / scale < CONVERGENCE_TOL
        except RabiStarkError:
            converged = False
    return PointResult(model, bath, report, converged, near_degenerate, ERR_OK)


def _evaluate_slot(args) -> tuple[int, PointResult]:
    spec, i, j, flat = args
    try:
        model, bath = spec.point_params(i, j)
    except InvalidParameterError as exc:
        # Grid point itself is unphysical (e.g. |u| >= omega0).
        return flat, PointResult(None, None, None, False, False, ERR_INVALID_PARAMS, str(exc))
    return flat, evaluate_point(
        model, bath, n_levels=spec.n_levels, check_convergence=spec.check_convergence,
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the pipeline over the grid; output is worker-count independent."""
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    rows, cols = spec.shape
    tasks = []
    for i in range(rows):
        for j in range(cols):
            tasks.append((spec, i, j, i * cols + j))

    slots: list = [None] * len(tasks)
    if workers == 1:
        for task in tasks:
            flat, result = _evaluate_slot(task)
            slots[flat] = result
    else:
        chunk = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for flat, result in pool.map(_evaluate_slot, tasks, chunksize=chunk):
                slots[flat] = result

    return SweepResult(
        spec=spec,
        axis1_values=spec.axis1.values(),
        axis2_values=spec.axis2.values() if spec.axis2 else None,
        points=slots,
    )


def sign_transitions(
    result: SweepResult, column: str, threshold: float
) -> tuple[int, list[float]]:
    """Count strict sign changes of (column - threshold) along a 1-D sweep.

    Error-coded rows and rows sitting exactly on the threshold are skipped.
    Returns the count and the axis values at the right edge of each change.
    """
    if result.is_2d:
        raise InvalidInputError("sign_transitions requires a 1-D sweep result")
    if column not in OBSERVABLE_NAMES:
        raise InvalidInputError(f"unknown observable column {column!r}")
    values = result.column(column)
    axis = result.axis1_values

    count = 0
    locations: list[float] = []
    prev_sign = 0
    for v, x in zip(values, axis):
        if not math.isfinite(v):
            continue
        sign = 1 if v > threshold else (-1 if v < threshold else 0)
        if sign == 0:
            continue
        if prev_sign != 0 and sign != prev_sign:
            count += 1
            locations.append(float(x))
        prev_sign = sign
    return count, locations
