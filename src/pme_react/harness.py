"""Experiment harness: residual sweeps, comparison runs, amplitude scans.

The pieces here connect the closed-form comparison functions from
:mod:`pme_react.barrier` with the finite-volume scheme in
:mod:`pme_react.solver`:

* :func:`residual_sweep` evaluates the analytic residual
  ``w_t - (1/rho) lap(w^m) - w^p`` on a deterministic (t, r) interior
  grid, ten time rows at a time, and checks it has the sign the comparison
  role demands (nonnegative for the decaying and spreading upper bounds,
  nonpositive for the blow-up lower bound); a nan margin fails.
* :func:`derivative_crosscheck` validates the closed-form derivatives
  against central differences at interior points drawn from Python's
  ``random.Random(seed)``, which spares every command ``numpy.random``.
* :func:`comparison_experiment` runs the scheme from barrier-compatible
  initial data and verifies the predicted ordering, support inclusion and
  blow-up window on the computed snapshots, and reports how close the run
  came to the barrier (``headroom``).  The positive GE1 barriers are their
  own boundary datum on the backward-Euler path, checked by a rerun at
  half the step; the compact barriers run the explicit scheme.
* :func:`blowup_scan` reruns the blow-up comparison with the initial data
  scaled by a list of factors, one run after another, and records which
  amplitudes still blow up.

Each takes a barrier, which carries its regime, constants and weight, so
no density is passed beside it.
Everything returns plain report records (named tuples); the command line
writes their fields as JSON keys.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .barrier import BlowupSubsolution, GE1Barrier, GE2Barrier
from .density import E, Checked, inverse_rho
from .solver import TERM_BLOWUP, TERM_STALLED, TERM_STEP_LIMIT, RadialGrid, RunResult, SolverConfig
from .solver import reaction_time_scale, run, support_radius_numeric

Barrier = Union[GE1Barrier, GE2Barrier, BlowupSubsolution]

INIT_EQUALS_BARRIER = "equals_barrier"
INIT_SCALED_BARRIER = "scaled_barrier"
INIT_CONSTANT = "constant"
INIT_CSV = "csv"
INIT_KINDS = (INIT_EQUALS_BARRIER, INIT_SCALED_BARRIER, INIT_CONSTANT, INIT_CSV)

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INCONCLUSIVE = "inconclusive"


class InitialData(
    Checked, namedtuple("InitialData", "kind factor value path", defaults=(INIT_EQUALS_BARRIER, 1.0, 0.0, ""))
):
    """How a comparison run builds its starting profile.

    ``equals_barrier`` samples the barrier at t=0, ``scaled_barrier``
    multiplies that by a positive ``factor``, ``constant`` fills with a
    nonnegative ``value`` and ``csv`` reads one value per cell from ``path``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in INIT_KINDS:
            raise ValueError(f"initial data kind must be one of {INIT_KINDS}, got {self.kind!r}")
        if self.kind == INIT_SCALED_BARRIER and not self.factor > 0.0:
            raise ValueError(f"scale factor must be positive, got {self.factor}")
        if self.kind == INIT_CONSTANT and not self.value >= 0.0:
            raise ValueError(f"constant value must be nonnegative, got {self.value}")
        if self.kind == INIT_CSV and not self.path:
            raise ValueError("csv initial data needs a path")
        return self


def build_initial(init: InitialData, grid: RadialGrid, barrier: Optional[Barrier] = None) -> np.ndarray:
    """Cell values of ``init`` on ``grid``; the barrier kinds need ``barrier``."""
    if init.kind == INIT_CONSTANT:
        return np.full(grid.cells, float(init.value))
    if init.kind == INIT_CSV:
        u0 = np.loadtxt(init.path, delimiter=",", dtype=float).ravel()
        if u0.shape != (grid.cells,):
            raise ValueError(
                f"csv initial data has {u0.shape[0]} values, grid has {grid.cells} cells"
            )
        return u0
    u0 = barrier.eval(grid.centers, 0.0)
    if init.kind == INIT_SCALED_BARRIER:
        u0 = init.factor * u0
    return u0


# ---------------------------------------------------------------------------
# residual sign sweeps


class SweepReport(NamedTuple):
    """Worst signed relative residual of a barrier over an (r, t) grid, and where it lies."""

    regime: str
    role: str  # "supersolution" or "subsolution"
    grid: Tuple[int, int]  # (n_r, n_t)
    rel_tol: float
    min_margin: float  # signed so that >= -rel_tol means pass
    worst_r: float
    worst_t: float
    passed: bool


def _relative_margins(resid: np.ndarray, scale: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(
            scale > 0.0,
            resid / np.where(scale > 0.0, scale, 1.0),
            np.where(resid == 0.0, 0.0, np.sign(resid) * np.inf),
        )
    return rel


# time rows the sweep evaluates at once: the whole 50 x 200 grid held about
# 1 MB of temporaries, which set the resident peak of ``barrier-check``
_SWEEP_ROWS = 10


def _block_margins(bar: Barrier, r: np.ndarray, t: np.ndarray, sub: bool) -> np.ndarray:
    d = bar.eval_derivatives(r, t)
    wp = bar.eval(r, t) ** bar.constants.p
    resid = d.w_t - inverse_rho(bar.density, r) * d.lap_wm - wp
    return _relative_margins(-resid if sub else resid, np.abs(wp) + np.abs(d.w_t))


def _sweep_grid(bar: Barrier, t_grid: np.ndarray, n_r: int) -> np.ndarray:
    """Interior radius samples, one row of ``n_r`` per time in ``t_grid``,
    away from r=0 and kinks.  GE1 radii reach ``max(1e6, 1e3 r0)``: its
    residual binds at tens of ``r0``."""
    if isinstance(bar, GE1Barrier):
        return np.tile(np.geomspace(1.0e-3, max(1.0e6, 1.0e3 * bar.r0), n_r), (t_grid.size, 1))
    r_star = bar.support_radius(t_grid)
    if isinstance(bar, GE2Barrier):
        return np.linspace(0.005, 0.995, n_r) * r_star[:, None]
    r = np.linspace(0.0, 0.995 * r_star, n_r, axis=1)
    near_kink = np.abs(r - E) < 1.0e-6
    return np.where(near_kink, r + 2.0e-6, r)


def residual_sweep(
    bar: Barrier,
    n_r: int = 200,
    n_t: int = 50,
    rel_tol: float = 1.0e-10,
    t_end: Optional[float] = None,
) -> SweepReport:
    """Check the residual sign on an ``n_r`` x ``n_t`` interior grid.

    A supersolution is swept over ``0 <= t <= max(10 T, t_end)``, every
    time a comparison up to ``t_end`` checks; the blow-up subsolution over
    ``0 <= t <= T (1 - 1e-3)``, before it blows up.

    The margin is the residual relative to the local scale
    ``|w^p| + |w_t|``, with the sign flipped for the blow-up lower bound so
    a uniform ``min_margin >= -rel_tol`` is the pass condition in all
    regimes.  The worst point is the first minimum in (t, r) order, or the
    first nan margin, which fails the sweep.
    """
    sub = isinstance(bar, BlowupSubsolution)
    t_max = bar.T * (1.0 - 1.0e-3) if sub else max(10.0 * bar.T, t_end or 0.0)
    t_grid = np.linspace(0.0, t_max, n_t)
    # a non-finite margin fails the sweep at its point, so overflow is not warned about
    with np.errstate(all="ignore"):
        r = _sweep_grid(bar, t_grid, n_r)
        rel = np.concatenate([
            _block_margins(bar, r[i:i + _SWEEP_ROWS], t_grid[i:i + _SWEEP_ROWS, None], sub)
            for i in range(0, n_t, _SWEEP_ROWS)
        ])
    it, ir = np.unravel_index(np.argmin(rel), rel.shape)
    min_margin = float(rel[it, ir])
    return SweepReport(
        regime=bar.regime,
        role="subsolution" if sub else "supersolution",
        grid=(n_r, n_t),
        rel_tol=rel_tol,
        min_margin=min_margin,
        worst_r=float(r[it, ir]),
        worst_t=float(t_grid[it]),
        passed=bool(min_margin >= -rel_tol),
    )


# ---------------------------------------------------------------------------
# derivative cross-check


class CrosscheckReport(NamedTuple):
    """Largest relative error of the closed-form derivatives against finite differences."""

    n_points: int
    h: float
    rel_tol: float
    max_err: Dict[str, float]
    passed: bool


def _uniform(rng: random.Random, lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (hi - lo) * np.array([rng.random() for _ in range(n)])


def _crosscheck_points(bar: Barrier, n: int, rng: random.Random, h: float) -> Tuple[np.ndarray, np.ndarray]:
    if isinstance(bar, GE1Barrier):
        return _uniform(rng, 0.1, 50.0, n), _uniform(rng, 0.1, 3.0 * bar.T, n)
    ge2 = isinstance(bar, GE2Barrier)
    t = _uniform(rng, 0.1, 2.0 * bar.T, n) if ge2 else _uniform(rng, 0.0, 0.5 * bar.T, n)
    r = _uniform(rng, 0.05, 0.9, n) * bar.support_radius(t)
    if ge2:
        return np.maximum(r, 0.1), t
    guard = 100.0 * h
    return np.where(np.abs(r - E) < guard, r + 2.0 * guard, r), t


def derivative_crosscheck(
    bar: Barrier,
    n_points: int = 1000,
    h: float = 1.0e-5,
    seed: int = 0,
    rel_tol: float = 1.0e-6,
) -> CrosscheckReport:
    """Central-difference validation of the closed-form derivatives.

    ``w_t`` and ``w^m`` first derivatives difference :meth:`eval`; the
    second radial derivative differences the analytic first derivative so
    the check is not dominated by double-differencing roundoff.  Relative
    errors use a floor of ``1e-3`` times the batch maximum so near-zero
    samples do not inflate the quotient.  A nan error fails the check.
    """
    if seed < 0:  # random.Random(-s) draws what random.Random(s) draws
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = random.Random(seed)
    r, t = _crosscheck_points(bar, n_points, rng, h)
    m = bar.constants.m

    max_err: Dict[str, float] = {}
    # a non-finite error fails the check, so overflow is not warned about
    with np.errstate(all="ignore"):
        d = bar.eval_derivatives(r, t)
        w_t_fd = (bar.eval(r, t + h) - bar.eval(r, t - h)) / (2.0 * h)
        wm_r_fd = (bar.eval(r + h, t) ** m - bar.eval(r - h, t) ** m) / (2.0 * h)
        wm_rr_fd = (
            bar.eval_derivatives(r + h, t).wm_r - bar.eval_derivatives(r - h, t).wm_r
        ) / (2.0 * h)
        for name, exact, fd in (
            ("w_t", d.w_t, w_t_fd),
            ("wm_r", d.wm_r, wm_r_fd),
            ("wm_rr", d.wm_rr, wm_rr_fd),
        ):
            floor = 1.0e-3 * max(float(np.max(np.abs(exact))), 1.0e-300)
            denom = np.maximum(np.maximum(np.abs(exact), np.abs(fd)), floor)
            max_err[name] = float(np.max(np.abs(exact - fd) / denom))
    passed = all(err <= rel_tol for err in max_err.values())
    return CrosscheckReport(n_points=n_points, h=h, rel_tol=rel_tol, max_err=max_err, passed=passed)


# ---------------------------------------------------------------------------
# comparison experiments


class HalfStepCheck(NamedTuple):
    """The implicit comparison rerun with every step at most ``max_dt``,
    half the first run's largest step, judged the same way."""

    max_dt: float
    steps: int
    newton_iterations: int
    max_violation: float
    headroom: float
    verdict: str


class ComparisonResult(NamedTuple):
    """Verdict of one barrier comparison, the evidence it rests on, and the run itself."""

    verdict: str
    regime: str
    checked_times: List[float]
    max_violation: float
    worst_time: float
    headroom: float
    headroom_time: float
    headroom_radius: float
    support_ok: Optional[bool]
    support_worst_cells: float
    blowup_window_ok: Optional[bool]
    notes: List[str]
    half_dt: Optional[HalfStepCheck]
    run: RunResult


def comparison_tolerance(u_num: np.ndarray, u_bar: np.ndarray) -> np.ndarray:
    """Pointwise allowance for scheme error: ``1e-8 + 1e-3 max(|u|,|bar|)``."""
    return 1.0e-8 + 1.0e-3 * np.maximum(np.abs(u_num), np.abs(u_bar))


def _grid(bar: Barrier, solver: SolverConfig) -> RadialGrid:
    return RadialGrid(N=bar.constants.N, R=solver.R, cells=solver.cells)


def _refuse_at_threshold(data: str, sup: float, solver: SolverConfig) -> None:
    """Raise ``ValueError`` for ``data`` whose sup reaches the threshold:
    their run would end at t = 0 with no step, and decide nothing."""
    if sup >= solver.blowup_threshold:
        raise ValueError(
            f"{data} reach sup {sup:.6g} >= blowup_threshold = {solver.blowup_threshold:g}: "
            "the run would blow up before its first step; raise [solver] blowup_threshold"
        )


def comparison_experiment(
    bar: Barrier, solver: SolverConfig, initial: InitialData = InitialData()
) -> ComparisonResult:
    """Run the scheme and test the ordering the barrier predicts.

    Upper-bound regimes must complete without blow-up and stay at or below
    the barrier at every output time (within :func:`comparison_tolerance`);
    the spreading regime additionally keeps its numerical support inside
    the barrier support to within one cell.  The blow-up regime must reach
    the threshold inside the comparison window, stay above the barrier and
    cover its support until ``0.95`` of the numerical blow-up time.  A run
    that stops early for numerical reasons (stall, step budget) yields an
    ``inconclusive`` verdict rather than a fail, and so does a run that
    leaves no output time to check (before ``0.95 s_num`` for blow-up)
    unless it has already failed.  Data on the wrong side of the barrier
    at t = 0 (by more than ``1e-12 max(max|W(., 0)|, 1)``) and data whose
    sup reaches ``blowup_threshold`` are a ``ValueError``: against them
    the run decides nothing.

    GE1 barriers are positive everywhere, so a zero wall at R would drain
    the run far below them.  Their runs take the barrier itself as the
    boundary datum, ``W(R + dr/2, t)`` in the cell past R, on the
    backward-Euler path (:func:`~pme_react.implicit.run_implicit`); the
    configured ``boundary`` does not apply.  That run is repeated with every
    step at most half the first run's largest, and the verdict is
    ``inconclusive`` when the two disagree.  The compact barriers run the
    explicit scheme as configured.

    ``headroom`` is the largest ``(u - W)/W`` (``(W - u)/W`` for the
    blow-up regime) over the checked times t > 0 and the cells with W > 0,
    with its time and cell radius: how near the run came to the barrier.
    A nan ratio is passed over; where none is a number, all three are nan.
    """
    grid = _grid(bar, solver)
    u0 = build_initial(initial, grid, bar)
    bar0 = bar.eval(grid.centers, 0.0)
    tol = 1.0e-12 * max(float(np.max(np.abs(bar0))), 1.0)
    excess = (bar0 - u0 if isinstance(bar, BlowupSubsolution) else u0 - bar0) - tol
    n_bad = int(np.sum(excess > 0.0))
    if n_bad:
        raise ValueError(
            f"initial data is on the wrong side of the barrier in {n_bad} cells "
            f"(worst excess {float(np.max(excess)):.3e}); comparison would be vacuous"
        )
    del bar0, excess  # kept through the run, they raised its peak memory
    _refuse_at_threshold("initial data", float(u0.max()), solver)
    if isinstance(bar, GE1Barrier):
        # imported here, so that only these runs compile the module; with no
        # bytecode cache, compiling it in every command cost start-up time
        from .implicit import run_implicit

        r_ghost = grid.R + 0.5 * grid.dr

        def ghost(t: float) -> float:
            return float(bar.eval(r_ghost, t))

        res = run_implicit(u0, grid, bar.density, bar.constants, solver, ghost)
        judged = _judge(bar, grid, res)
        max_dt = 0.5 * res.implicit.dt_largest
        if max_dt > 0.0:
            half = run_implicit(u0, grid, bar.density, bar.constants, solver, ghost, max_dt=max_dt)
            checked = _judge(bar, grid, half)
            judged = judged._replace(half_dt=HalfStepCheck(
                max_dt, half.steps, half.implicit.newton_iterations, checked.max_violation, checked.headroom,
                checked.verdict,
            ))
            if checked.verdict != judged.verdict:
                note = f"the rerun with dt <= {max_dt:.6g} gives {checked.verdict}, not {judged.verdict}"
                judged = judged._replace(verdict=VERDICT_INCONCLUSIVE, notes=judged.notes + [note])
        return judged
    return _judge(bar, grid, run(u0, grid, bar.density, bar.constants, solver))


def _judge(bar: Barrier, grid: RadialGrid, res: RunResult) -> ComparisonResult:
    """The verdict of one run against ``bar`` and the numbers behind it, with no rerun."""
    sub = isinstance(bar, BlowupSubsolution)
    nan = math.nan
    # a verdict that no snapshot decides reports no number: nothing was compared
    untested = ComparisonResult(
        VERDICT_INCONCLUSIVE, bar.regime, [], nan, nan, nan, nan, nan, None, nan, None, [], None, res
    )
    if res.termination in (TERM_STALLED, TERM_STEP_LIMIT):
        note = f"run terminated early ({res.termination}) at t={res.final_state.t:.6g}"
        return untested._replace(notes=[note])
    if sub and res.termination != TERM_BLOWUP:
        note = "expected blow-up but the run completed"
        return untested._replace(verdict=VERDICT_FAIL, blowup_window_ok=False, notes=[note])
    notes: List[str] = []
    if sub:
        lo = 0.95 * res.tau0 if res.tau0 is not None else 0.0
        hi = 1.05 * bar.T
        run_ok = blow_ok = bool(lo <= res.s_num <= hi)
        if not blow_ok:
            notes.append(f"s_num={res.s_num:.6g} outside [{lo:.6g}, {hi:.6g}]")
        snapshots = [(t, u) for t, u in res.snapshots if t <= 0.95 * res.s_num and t < bar.T]
    else:
        run_ok, blow_ok = res.termination != TERM_BLOWUP, None
        if not run_ok:
            notes.append("unexpected numerical blow-up in an upper-bound regime")
        snapshots = res.snapshots
    if not snapshots:
        # a pass would claim an ordering never seen
        cut = f" before 0.95 s_num = {0.95 * res.s_num:.6g}" if sub else ""
        notes.append(f"no output time{cut} to check: ordering and support untested")
        verdict = VERDICT_INCONCLUSIVE if run_ok else VERDICT_FAIL
        return untested._replace(verdict=verdict, blowup_window_ok=blow_ok, notes=notes)

    # per snapshot: the worst violation, the best headroom over t > 0 and
    # W > 0, and the compact barriers' support excess in cell widths
    # (positive where the inclusion fails beyond the one-cell allowance);
    # a nan violation, and a -inf one, is passed over
    checked_times, violations, headrooms, excesses = [], [], [], []
    for t, u in snapshots:
        checked_times.append(float(t))
        w = bar.eval(grid.centers, t)
        gap = w - u if sub else u - w
        vmax = float(np.max(gap - comparison_tolerance(u, w)))
        if vmax > -math.inf:
            violations.append((vmax, float(t)))
        inside = np.flatnonzero(w > 0.0)
        if t > 0.0 and inside.size:
            rel = gap[inside] / w[inside]
            k = int(np.argmax(rel))
            headrooms.append((float(rel[k]), float(t), float(grid.centers[inside[k]])))
        if not isinstance(bar, GE1Barrier):
            r_num, r_bar = support_radius_numeric(u, grid), float(bar.support_radius(t))
            excesses.append(((r_bar - r_num) if sub else (r_num - r_bar)) / grid.dr - 1.0)
    # the first largest in time order names the time; a nan headroom is
    # passed over, and with no number left there is no place either
    first = itemgetter(0)
    max_violation, worst_time = max(violations, key=first, default=(nan, nan))
    headroom, headroom_time, headroom_radius = max(
        [h for h in headrooms if not math.isnan(h[0])], key=first, default=(nan, nan, nan)
    )
    support_worst = max(excesses, default=nan)
    support_ok = bool(support_worst <= 0.0) if excesses else None
    passed = run_ok and not max_violation > 0.0 and support_ok is not False
    return untested._replace(
        verdict=VERDICT_PASS if passed else VERDICT_FAIL, checked_times=checked_times,
        max_violation=max_violation, worst_time=worst_time,
        headroom=headroom, headroom_time=headroom_time, headroom_radius=headroom_radius,
        support_ok=support_ok, support_worst_cells=support_worst, blowup_window_ok=blow_ok, notes=notes,
    )


# ---------------------------------------------------------------------------
# amplitude scan around the blow-up comparison


class ScanRow(NamedTuple):
    """One run of the amplitude scan: its data factor and whether, and when, it blew up."""

    factor: float
    blew_up: bool
    s_num: Optional[float]
    tau0: Optional[float]
    termination: str


def blowup_scan(
    bar: Barrier,
    solver: SolverConfig,
    initial: InitialData = InitialData(),
    factors: Sequence[float] = (0.25, 0.5, 0.75, 1.0, 1.25),
) -> List[ScanRow]:
    """Scale the comparison's initial data and record who still blows up.

    The time horizon of each row is stretched to at least three reaction
    times of its own scaled data, so smaller amplitudes get a fair window
    instead of inheriting the horizon tuned to the unscaled run.  A factor
    that scales the data to ``blowup_threshold`` or above is a
    ``ValueError``, raised before the first run.
    """
    if not isinstance(bar, BlowupSubsolution):
        raise ValueError("the amplitude scan is defined for the blow-up regime")
    if any(not f > 0.0 for f in factors):
        raise ValueError("scan factors must be positive")
    grid = _grid(bar, solver)
    u0 = build_initial(initial, grid, bar)
    sup0 = float(u0.max())
    if sup0 <= 0.0:
        raise ValueError("scan needs nonzero initial data")
    for f in factors:
        _refuse_at_threshold(f"initial data scaled by {f:g}", f * sup0, solver)
    rows = []
    for f in factors:
        tau_f = reaction_time_scale(bar.constants.p, f * sup0)
        t_end = max(solver.t_end, 3.0 * tau_f)
        cfg = solver._replace(t_end=t_end, output_times=())
        res = run(f * u0, grid, bar.density, bar.constants, cfg)
        rows.append(
            ScanRow(
                factor=float(f),
                blew_up=res.termination == TERM_BLOWUP,
                s_num=res.s_num,
                tau0=res.tau0,
                termination=res.termination,
            )
        )
    return rows
