"""Full-pipeline evaluation over 1-D and 2-D parameter grids.

Each grid point runs spectrum -> rates -> steady state -> observables;
failing points are recorded with an error code instead of aborting the
sweep.  The bath enters only through the rates, so grid points that share
(g, r, u, n_tr) share one spectrum and what is built from it alone:
run_sweep groups them and packs runs of groups into tasks of up to
STACK_BATHS baths.  A task solves each spectrum once, all its groups' baths
as one stacked GTH elimination, each group's observables in one pass over
its rows, and the baths that miss the truncation certificate again, as one
more stack.  Results land in row-major slots, the same for any worker count.
"""

from __future__ import annotations

import itertools
from functools import partial
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .dissipation import (
    BathParams,
    SteadyState,
    TransitionTable,
    steady_populations,
    transition_rates,
)
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    MultipleSteadyStateError,
    NumericFailureError,
    ZeroFluxError,
)
from .observables import (
    ZERO_FLUX_THRESHOLD,
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
    EigenSystem,
    ModelParams,
    _is_finite,
    _is_int,
    edge_residuals,
    eigensystem,
    keeps_lowest_levels,
)

AXIS_NAMES = ("g", "r", "u", "kt")
OBSERVABLE_NAMES = ("g2", "g3", "g2_approx", "g3_approx", "xi_b2", "n_photon", "flux_proxy")
NEAR_DEGENERACY_FRACTION = 1e-4
CONVERGENCE_DELTA_NTR = 40
CONVERGENCE_TOL = 1e-6
CERTIFY_TOL = 1e-4 * CONVERGENCE_TOL
STACK_BATHS = 32   # baths per stacked solve and per sweep task (see README)
DEFAULT_N_LEVELS = 40   # dressed levels L of the master equation (eigensystem)

ERR_OK = 0
ERR_ZERO_FLUX = 1
ERR_NO_STEADY_STATE = 2
ERR_NUMERIC = 3
ERR_INVALID_PARAMS = 4

# Exceptions a point's pipeline may raise, and the error code each maps to.
_ERROR_CODES = {
    ZeroFluxError: ERR_ZERO_FLUX,
    MultipleSteadyStateError: ERR_NO_STEADY_STATE,
    InvalidParameterError: ERR_INVALID_PARAMS,
    NumericFailureError: ERR_NUMERIC,
    InvalidInputError: ERR_NUMERIC,
}


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: uniform linear grid from min to max, stored as floats."""

    name: str
    min: float
    max: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise InvalidParameterError(
                f"axis parameter must be one of {AXIS_NAMES}, got {self.name!r}"
            )
        if not _is_int(self.count) or self.count < 2:
            raise InvalidParameterError(f"axis count must be an integer >= 2, got {self.count}")
        if not (_is_finite(self.min) and _is_finite(self.max) and _is_finite(self.max - self.min)):
            raise InvalidParameterError(
                f"axis bounds and span must be finite, got [{self.min}, {self.max}]"
            )
        if not self.min < self.max:
            raise InvalidParameterError(
                f"axis needs min < max, got [{self.min}, {self.max}]"
            )
        object.__setattr__(self, "min", float(self.min))
        object.__setattr__(self, "max", float(self.max))

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
        if not self.observables:
            raise InvalidParameterError(f"observables must name one or more of {OBSERVABLE_NAMES}")
        if not _is_int(self.n_levels) or self.n_levels < 4:
            raise InvalidParameterError(
                f"n_levels must be an integer >= 4 for approx_g2/approx_g3, got {self.n_levels}")
        if self.n_levels > self.model.dim:
            raise InvalidParameterError(f"n_levels {self.n_levels} is beyond the "
                                        f"{self.model.dim} levels at n_tr={self.model.n_tr}")

    @property
    def shape(self) -> tuple:
        return (self.axis1.count, self.axis2.count if self.axis2 else 1)

    def point_params(self, i: int, j: int) -> tuple[ModelParams, BathParams]:
        """Model/bath parameters at grid slot (i, j), overriding the base."""
        return self._params(self.axis1.values()[i],
                            self.axis2.values()[j] if self.axis2 else None, {})

    def _params(self, v1: float, v2: Optional[float], made: dict) -> tuple[ModelParams, BathParams]:
        """Model/bath parameters with axis1 at v1 and axis2 (if any) at v2.
        made, kept by the caller across slots, holds each valid model (by
        its overrides) and bath (by its kT) already built."""
        overrides = {self.axis1.name: float(v1)}
        if self.axis2 is not None:
            overrides[self.axis2.name] = float(v2)
        model_kw = tuple((k, v) for k, v in overrides.items() if k != "kt")
        kt = overrides.get("kt")
        if model_kw not in made:
            made[model_kw] = replace(self.model, **dict(model_kw)) if model_kw else self.model
        if kt not in made:
            made[kt] = self.bath if kt is None else replace(self.bath, kt_q=kt, kt_c=kt)
        return made[model_kw], made[kt]


@dataclass
class PointResult:
    """Outcome of the pipeline at one grid point.

    model and bath are None for a grid point whose parameters are invalid;
    converged is None when the convergence check did not run.
    """

    model: Optional[ModelParams]
    bath: Optional[BathParams]
    report: Optional[ObservableReport]
    converged: Optional[bool]
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
        return self.points[np.ravel_multi_index(idx, self.spec.shape)]

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


def _failure(model, bath, exc, near_degenerate: bool, check_convergence: bool) -> PointResult:
    code = next(c for kind, c in _ERROR_CODES.items() if isinstance(exc, kind))
    converged = False if check_convergence else None
    return PointResult(model, bath, None, converged, near_degenerate, code, str(exc))


def _report(eigs: EigenSystem, x: DetectionOperator, ss: SteadyState, baths: Sequence,
            flux: np.ndarray) -> list:
    """Every observable of each bath of baths, row b of the stack ss and flux
    flux[b] for baths[b], with x over their levels: one ObservableReport per bath."""
    a_mean, n_photon, a_sq = moments = field_moments(ss, eigs)
    g2 = correlation_g_n(x, ss, 2)
    g3 = correlation_g_n(x, ss, 3)
    g2_a, eta1, eta2 = approx_g2(eigs, x, ss)
    g3_a, eta3 = approx_g3(eigs, x, [b.kt_c if b.kt_c > 0 else b.kt_q for b in baths])
    xi_b2 = squeezing_factor(ss, eigs, moments=moments)
    # The fields in ObservableReport's order; tolist() gives the per-bath floats.
    return [ObservableReport(*row, eta1, eta2, eta3) for row in zip(
        g2.tolist(), g3.tolist(), g2_a, g3_a, xi_b2.tolist(), n_photon.tolist(),
        [a_mean] * len(baths), a_sq.tolist(), flux.tolist())]


def _solve_stage(groups: Sequence, n_levels: int) -> tuple[list, list]:
    """The solve stage of a sweep task on (model, baths) groups sharing n_tr:
    each group's spectrum over n_levels levels, then the baths of the groups
    whose spectrum solved as one stack, STACK_BATHS rows at a time; a row's
    bits do not depend on its stack.  Returns two lists: (k, eigs, states)
    for each group k that solved, (k, error) for each whose eigensolve raised."""
    spectra, failed = {}, []
    for k, (model, _) in enumerate(groups):
        try:
            spectra[k] = eigensystem(model, n_levels)
        except tuple(_ERROR_CODES) as exc:
            failed.append((k, exc))
    rows = [(k, b) for k in spectra for b in groups[k][1]]
    got = {k: [] for k in spectra}
    for at in range(0, len(rows), STACK_BATHS):
        tables, owners = [], []
        for k, run in itertools.groupby(rows[at:at + STACK_BATHS], key=lambda row: row[0]):
            tables.append(transition_rates(spectra[k], groups[k][0], [b for _, b in run]))
            owners += [k] * tables[-1].kt_q.size
        state = steady_populations(TransitionTable(*(
            np.concatenate([getattr(t, f) for t in tables]) for f in ("rate", "kt_q", "kt_c"))))
        for k, p, err in zip(owners, state.populations, state.errors):
            got[k].append((p, err))
    return [(k, eigs, SteadyState(np.array([p for p, _ in got[k]]), tuple(e for _, e in got[k])))
            for k, eigs in spectra.items()], failed


def _n_photon_at(groups: Sequence, n_levels: int) -> list:
    """The task's re-solve, the solve stage's second pass: per (model, baths)
    group, each bath's steady-state photon number, NaN for a bath with no
    steady state (its populations are NaN) or whose spectrum failed."""
    n_photon = [[np.nan] * len(baths) for _, baths in groups]
    for k, eigs, states in _solve_stage(groups, n_levels)[0]:
        n_photon[k] = field_moments(states, eigs)[1].tolist()
    return n_photon


def _agrees(n_photon: float, bigger: float) -> bool:
    """Photon numbers equal within CONVERGENCE_TOL, relative, or absolute
    when both are below 1e-6; NaN agrees with nothing."""
    scale = max(abs(n_photon), abs(bigger))
    if scale < 1e-6:
        return abs(bigger - n_photon) < CONVERGENCE_TOL
    return abs(bigger - n_photon) / scale < CONVERGENCE_TOL


def evaluate_group(
    model: ModelParams,
    baths: Sequence[BathParams],
    n_levels: int = DEFAULT_N_LEVELS,
    check_convergence: bool = True,
) -> list:
    """Run the full pipeline for one model against each bath of baths.

    Returns one PointResult per bath, in order: a sweep task of one group.
    The spectrum is solved once, keeping the n_levels levels every later
    stage reads; the baths' rate tables and steady states as stacks of up
    to STACK_BATHS (transition_rates, steady_populations), and, when some
    bath has a steady state, the detection operator once and the observables
    of the emitting baths in one pass over their rows (_report).  Errors
    stay per bath: zero flux and no steady state become that bath's error
    code with an empty report, never raised.  A level count that is not an
    integer >= 4 is every bath's error code 4, a failed spectrum every
    bath's error, and a failure in the observables pass every emitting bath's.

    The convergence flag says the photon number is stable under n_tr ->
    n_tr + CONVERGENCE_DELTA_NTR; it is None when check_convergence is off.
    It is True without a re-solve when the edge certificate w = sum_k p_k
    (n_tr+1) |h v_k[m'-1]| (see edge_residuals) is at most CERTIFY_TOL and
    the longer chains add no level below the ones in use
    (keeps_lowest_levels, run once for the group if some bath passes the
    edge test).  The baths that miss it are re-solved together on the
    enlarged truncation, over the same number of levels, and their photon
    numbers must agree within CONVERGENCE_TOL, relative, or absolute when
    both are below 1e-6.
    """
    return _evaluate_groups([(model, baths)], n_levels, check_convergence) if baths else []


def _evaluate_groups(groups: Sequence, n_levels: int, check_convergence: bool) -> list:
    """A sweep task: evaluate_group of each (model, baths) group sharing
    n_tr, the results in one list.  The level count is checked once, by
    SweepSpec's rule; the solve stage runs on the groups (_solve_stage),
    then each group's observables and certificate on its own rows, then the
    stage again on the baths of every group that missed the certificate."""
    if not _is_int(n_levels) or n_levels < 4:
        exc = InvalidParameterError(f"n_levels must be an integer >= 4, got {n_levels}")
        return [_failure(model, bath, exc, False, check_convergence)
                for model, baths in groups for bath in baths]
    solved, failed = _solve_stage(groups, n_levels)
    results = {k: [_failure(groups[k][0], bath, exc, False, check_convergence)
                   for bath in groups[k][1]] for k, exc in failed}
    resolve = []   # the results of each group's uncertified baths
    for k, eigs, states in solved:
        model, baths = groups[k]
        near = eigs.energies[1] - eigs.energies[0] < NEAR_DEGENERACY_FRACTION * model.omega0
        errors, reports = list(states.errors), {}
        if None in errors:
            x = detection_operator(eigs)
            flux = flux_proxy(x, states)
            for b in np.flatnonzero(flux < ZERO_FLUX_THRESHOLD):   # a failed bath's flux is NaN
                errors[b] = ZeroFluxError(flux[b], ZERO_FLUX_THRESHOLD)
            emitting = [b for b, err in enumerate(errors) if err is None]
            try:
                if emitting:
                    reports = dict(zip(emitting, _report(eigs, x, SteadyState(
                        states.populations[emitting]), [baths[b] for b in emitting],
                        flux[emitting])))
            except tuple(_ERROR_CODES) as exc:
                errors = [exc if err is None else err for err in errors]
        results[k] = [PointResult(model, bath, reports[b], None, near, ERR_OK) if err is None
                      else _failure(model, bath, err, near, check_convergence)
                      for b, (bath, err) in enumerate(zip(baths, errors))]
        ok = [b for b, pt in enumerate(results[k]) if check_convergence and pt.error_code == ERR_OK]
        resid = edge_residuals(model, eigs) if ok else None
        # A NaN or inf certificate fails the test and falls through to the re-solve.
        certified = [b for b in ok
                     if (model.n_tr + 1) * float(states.populations[b] @ resid) <= CERTIFY_TOL]
        if certified and keeps_lowest_levels(model, eigs, CONVERGENCE_DELTA_NTR):
            for b in certified:
                results[k][b].converged = True
        pending = [results[k][b] for b in ok if results[k][b].converged is None]
        if pending:
            resolve.append(pending)
    if resolve:   # every spectrum of the task keeps eigs.n_levels levels, and so does the re-solve
        bigger = _n_photon_at([(pts[0].model.with_n_tr(pts[0].model.n_tr + CONVERGENCE_DELTA_NTR),
                                [pt.bath for pt in pts]) for pts in resolve], eigs.n_levels)
        for pt, n_photon in zip(itertools.chain(*resolve), itertools.chain(*bigger)):
            pt.converged = _agrees(pt.report.n_photon, n_photon)
    return [pt for k in range(len(groups)) for pt in results[k]]


def evaluate_point(
    model: ModelParams,
    bath: BathParams,
    n_levels: int = DEFAULT_N_LEVELS,
    check_convergence: bool = True,
) -> PointResult:
    """Run the full single-point pipeline: evaluate_group with one bath."""
    return evaluate_group(model, [bath], n_levels=n_levels,
                          check_convergence=check_convergence)[0]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the pipeline over the grid; output is worker-count independent.

    The bath enters only through the rates, so slots that share a model
    (g, r, u, n_tr) are grouped.  Each distinct model and bath is built
    once; slots whose parameters are invalid get error code 4 before
    grouping.  When there are fewer groups than workers, each group is split
    into contiguous pieces so every worker gets work; a piece is a group of
    its own.  A task is a run of consecutive groups (_evaluate_groups)
    holding at most STACK_BATHS baths, and at most an even share of them per
    worker; a larger group is a task of its own.
    """
    if not _is_int(workers) or workers < 1:
        raise InvalidParameterError(f"workers must be an integer >= 1, got {workers}")
    axis1 = spec.axis1.values()
    axis2 = spec.axis2.values() if spec.axis2 else None
    slots: list = [None] * (spec.shape[0] * spec.shape[1])
    groups, made = {}, {}
    for flat, (v1, v2) in enumerate(itertools.product(axis1, [None] if axis2 is None else axis2)):
        try:
            model, bath = spec._params(v1, v2, made)
        except InvalidParameterError as exc:
            # Grid point itself is unphysical (e.g. |u| >= omega0).
            slots[flat] = _failure(None, None, exc, False, spec.check_convergence)
            continue
        groups.setdefault(model, []).append((flat, bath))

    pieces = -(-workers // max(len(groups), 1))
    cap = min(STACK_BATHS, -(-sum(map(len, groups.values())) // workers))
    tasks = []
    for model, members in groups.items():
        size = -(-len(members) // pieces)
        for k in range(0, len(members), size):
            piece = [bath for _, bath in members[k:k + size]]
            if not tasks or sum(len(baths) for _, baths in tasks[-1]) + len(piece) > cap:
                tasks.append([])
            tasks[-1].append((model, piece))
    run = partial(_evaluate_groups, n_levels=spec.n_levels,
                  check_convergence=spec.check_convergence)
    # Under the fork start method the pool starts all of its workers at the
    # first submit: start no more than there are tasks.
    workers = min(workers, len(tasks))
    if workers <= 1:
        done = [run(groups) for groups in tasks]
    else:
        # Imported here, so a serial run skips its ~20 ms of imports.
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run, tasks, chunksize=chunk))
    # Results come in the order of the groups and their slots.
    for (flat, _), result in zip(itertools.chain.from_iterable(groups.values()),
                                 itertools.chain.from_iterable(done)):
        slots[flat] = result

    return SweepResult(spec=spec, axis1_values=axis1, axis2_values=axis2, points=slots)
