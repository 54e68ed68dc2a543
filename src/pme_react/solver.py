"""Finite-volume scheme for the weighted reaction-diffusion flow: explicit
steps (:func:`run`) and, against a boundary datum, backward-Euler steps
(:func:`pme_react.implicit.run_implicit`).

Discretization.  Radial domain [0, R] split into equal cells; faces sit at
``i Δr`` and carry the area factor ``r^(N-1)``, cell volumes are
``(r_out^N - r_in^N)/N`` (the N-sphere measure divided by the unit sphere
area).  The diffusive flux through an interior face is the two-point
difference of ``u^m``; the origin face has zero area and the outer face is
either a homogeneous Dirichlet ghost cell at distance Δr or a zero-flux
Neumann face (on the backward-Euler path, a ghost cell holding a given
value).  The update is explicit Euler on
``u_i += dt/(rho_i V_i) (F_{i+1/2} - F_{i-1/2}) + dt u_i^p``.

Time step.  Write ``w = u^m`` and ``A_{i±1/2} = r^(N-1)`` for the face
areas.  One step is

    u_i' = u_i + dt/(rho_i V_i Δr) (A_{i+1/2} (w_{i+1} - w_i)
                                    - A_{i-1/2} (w_i - w_{i-1})) + dt u_i^p.

The neighbours enter with nonnegative weights and ``u^p`` grows with
``u_i``.  For two states ``lo <= hi`` the mean value theorem gives
``hi_i^m - lo_i^m = m xi^(m-1) (hi_i - lo_i)`` with ``xi <= hi_i``, so the
coefficient of ``hi_i - lo_i`` in ``hi_i' - lo_i'`` is at least
``1 - dt m u_nbhd^(m-1) (A_{i-1/2} + A_{i+1/2}) / (rho_i V_i Δr)``, where
``u_nbhd`` is the max of ``hi`` over the cell and its neighbours.  So the
step maps ordered pairs to ordered pairs (and nonnegative data to
nonnegative data) as long as

    dt <= cfl_safety * min_i rho_i V_i Δr / (m u_nbhd^(m-1) (A_{i-1/2} + A_{i+1/2}))

with ``cfl_safety <= 1``; ``cfl_safety = 1`` is the monotone limit.  The
origin face has zero area.  The outer face counts with its full area under
both boundaries: the Dirichlet ghost cell sits at distance Δr, and the
Neumann face carries no flux, so counting it there only shortens the step.
Against the origin-cell rule ``rho_i Δr^2 / (2 N m u_nbhd^(m-1))`` the
per-cell bound is larger by ``2 N V_i / (Δr (A_{i-1/2} + A_{i+1/2}))``:
2 at the origin cell, tending to N in the interior.  When the reaction is
on, dt is also capped by ``REACTION_DT_CAP * (sup u)^(1-p)``, and always by
the remaining time to ``t_end`` (which also covers an identically zero
state, whose diffusion limit is infinite).  The kernel divides each cell's
smallest coefficient over itself and its neighbours by its own
``u^(m-1)``, bit for bit the same minimum (see :mod:`pme_react._kernels`).

Backward Euler.  :func:`pme_react.implicit.run_implicit` takes the same
fluxes and reaction at the step's end: the new state ``v`` solves
``F(v) = 0`` with

    F_i(v) = rho_i V_i (v_i - u_i) - dt (A_{i+1/2} (w_{i+1} - w_i)
                                         - A_{i-1/2} (w_i - w_{i-1})) / Δr
             - dt rho_i V_i v_i^p,

``w = v^m``, and ``w_n = G^m`` for a given value ``G`` in the cell past R.
Newton's method solves it, each iteration a tridiagonal solve.  The
Jacobian has off-diagonal entries ``-dt A m v_k^(m-1) / Δr <= 0``: a
Z-matrix.  Each face's coefficient appears in the column of its cell twice,
once on the diagonal and once off it, with opposite signs, so the diagonal
exceeds the column's off-diagonal sum by ``rho_j V_j (1 - dt p v_j^(p-1))``
(and by the outer face's term in the last column).  While
``dt p v^(p-1) < 1`` the Jacobian is column diagonally dominant, hence an
M-matrix with a nonnegative inverse.  Take two accepted steps ``lo`` and
``hi`` of one dt from data ``lo^0 <= hi^0`` and boundary values ``G_lo <=
G_hi``.  The mean value theorem gives ``M (hi - lo) = rho V (hi^0 - lo^0)
+ (a nonnegative boundary term)``, with ``M`` the Jacobian at points
between ``lo`` and ``hi``, where the bound holds too; so ``hi >= lo``.  The
step preserves order, and nonnegative data stay nonnegative, at any
diffusion dt.  Only the reaction bounds the step: it starts at ``dt p
sup^(p-1) <= IMPLICIT_DT_CAP = 1/2`` and is halved while Newton does not
converge in ``NEWTON_MAX_ITER`` iterations, or its result is negative
somewhere or has ``dt p sup^(p-1) >= 1``.  Powers at m, p in {2, 3} are
products and the tridiagonal solve is a loop over Python floats, so a run
is the same on every machine.

Blow-up bookkeeping.  The run stops when the sup norm reaches
``blowup_threshold`` (the numerical blow-up time is linearly interpolated
inside the crossing step) or leaves the finite range (flag ``overflow``).
A run whose reaction cap on dt falls below half an ulp of ``t`` before the
threshold is reached also counts as blow-up, at ``s_num = t`` (flag
``time_resolution``); a stall with the reaction off stays ``stalled``.
Negative undershoots are clamped to zero with the clamped weighted mass
accumulated, and ``tau0 = 1/((p-1) sup(u0)^(p-1))`` is recorded for runs
with reaction.  The kernel takes the sup, and at m = 2 the clamp, only when
the next step's diffusion limit cannot rule out a stop or a binding
reaction cap, and always before it returns (see :mod:`pme_react._kernels`);
every stop, cap and clamp still falls on the step where a check after every
step puts it.

Output.  Series values (sup norm and support radius) and full snapshots are
taken at the configured output times from the cellwise linear interpolant
between the two bracketing steps, so the series always agrees with the
stored snapshots by construction.  The support radius counts cells above
``SUPPORT_THRESHOLD``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _kernels
from .density import DensityParams, ProblemConstants, rho as density_rho

if TYPE_CHECKING:
    from .implicit import ImplicitStats

BOUNDARY_DIRICHLET = "dirichlet0"
BOUNDARY_NEUMANN = "neumann0"
BOUNDARIES = (BOUNDARY_DIRICHLET, BOUNDARY_NEUMANN)

TERM_COMPLETED = "completed"
TERM_BLOWUP = "blowup"
TERM_STALLED = "stalled"
TERM_STEP_LIMIT = "step_limit"

FLAG_THRESHOLD = "threshold"
FLAG_OVERFLOW = "overflow"
FLAG_TIME_RESOLUTION = "time_resolution"

SUPPORT_THRESHOLD = 1.0e-12
REACTION_DT_CAP = 0.1


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid; derived arrays are computed once at build."""

    N: int
    R: float
    cells: int
    faces: np.ndarray = field(init=False, repr=False)
    centers: np.ndarray = field(init=False, repr=False)
    volumes: np.ndarray = field(init=False, repr=False)
    dr: float = field(init=False)

    def __post_init__(self) -> None:
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"R must be positive and finite, got {self.R}")
        if int(self.cells) != self.cells or self.cells < 2:
            raise ValueError(f"cells must be an integer >= 2, got {self.cells}")
        faces = np.linspace(0.0, self.R, self.cells + 1)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "centers", 0.5 * (faces[:-1] + faces[1:]))
        object.__setattr__(self, "volumes", (faces[1:] ** self.N - faces[:-1] ** self.N) / self.N)
        object.__setattr__(self, "dr", float(faces[1] - faces[0]))


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    R: float
    cells: int
    cfl_safety: float = 0.9
    blowup_threshold: float = 1.0e6
    boundary: str = BOUNDARY_DIRICHLET
    reaction: bool = True
    output_times: Tuple[float, ...] = ()
    max_steps: int = 10**9

    def __post_init__(self) -> None:
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"R must be positive and finite, got {self.R}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if not self.blowup_threshold > 0.0:
            raise ValueError(f"blowup_threshold must be positive, got {self.blowup_threshold}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        times = tuple(float(t) for t in self.output_times)
        if not all(0.0 <= t <= self.t_end for t in times):
            raise ValueError("output_times must lie within [0, t_end]")
        if list(times) != sorted(set(times)):
            raise ValueError("output_times must be strictly increasing")
        object.__setattr__(self, "output_times", times if times else (self.t_end,))


@dataclass
class State:
    t: float
    u: np.ndarray


@dataclass(frozen=True)
class BlowupRecord:
    s_num: float
    flag: str
    final_sup: float


@dataclass
class RunResult:
    grid: RadialGrid
    config: SolverConfig
    rho_values: np.ndarray
    times: np.ndarray
    sup_series: np.ndarray
    support_series: np.ndarray
    snapshots: List[Tuple[float, np.ndarray]]
    termination: str
    blowup: Optional[BlowupRecord]
    tau0: Optional[float]
    steps: int
    clamp_total: float
    final_state: State
    implicit: Optional[ImplicitStats] = None


def reaction_time_scale(p: float, sup_u0: float) -> float:
    """Reaction comparison time ``1/((p-1) sup^{p-1})``; inf for zero data."""
    if sup_u0 <= 0.0:
        return math.inf
    return 1.0 / ((p - 1.0) * sup_u0 ** (p - 1.0))


def support_radius_numeric(u: np.ndarray, grid: RadialGrid, threshold: float = SUPPORT_THRESHOLD) -> float:
    """Outer face radius of the last cell with ``u > threshold`` (0 if none).

    Monotone in the threshold: raising it never grows the radius.
    """
    idx = np.flatnonzero(np.asarray(u) > threshold)
    if idx.size == 0:
        return 0.0
    return float(grid.faces[idx[-1] + 1])


def _rho_values(rho: Union[DensityParams, np.ndarray, Sequence[float]], grid: RadialGrid) -> np.ndarray:
    vals = density_rho(rho, grid.centers) if isinstance(rho, DensityParams) else np.asarray(rho, dtype=float)
    if vals.shape != (grid.cells,):
        raise ValueError(f"density values have shape {vals.shape}, expected ({grid.cells},)")
    if not np.all(vals > 0.0):
        raise ValueError("density must be strictly positive on every cell")
    return vals


def _start(u0: Union[np.ndarray, State], grid: RadialGrid, constants: ProblemConstants) -> Tuple[float, np.ndarray]:
    """Start time and a validated copy of the initial cell values."""
    if grid.N != constants.N:
        raise ValueError(f"grid dimension N={grid.N} does not match constants N={constants.N}")
    if isinstance(u0, State):
        t = float(u0.t)
        u = np.array(u0.u, dtype=float, copy=True)
    else:
        t = 0.0
        u = np.array(u0, dtype=float, copy=True)
    if u.shape != (grid.cells,):
        raise ValueError(f"initial data has shape {u.shape}, expected ({grid.cells},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("initial data must be finite")
    if np.any(u < 0.0):
        raise ValueError("initial data must be nonnegative")
    return t, u


class _Outputs:
    """The output times a run has still to reach, and the series values and
    snapshots taken at the ones it has passed.  Those already reached at the
    start time (typically t = 0) take the initial state itself."""

    def __init__(self, grid: RadialGrid, times: Sequence[float], t: float, u: np.ndarray) -> None:
        self.grid = grid
        self.pending = [tt for tt in times if tt >= t]
        self.times: List[float] = []
        self.sup: List[float] = []
        self.support: List[float] = []
        self.snapshots: List[Tuple[float, np.ndarray]] = []
        while self.pending and self.pending[0] <= t:
            self.emit(self.pending.pop(0), u)

    def emit(self, t_out: float, u_out: np.ndarray) -> None:
        self.times.append(t_out)
        self.sup.append(float(u_out.max()))
        self.support.append(support_radius_numeric(u_out, self.grid))
        self.snapshots.append((t_out, u_out.copy()))

    def fields(self) -> dict:
        """The output fields of a :class:`RunResult`."""
        return dict(
            times=np.asarray(self.times),
            sup_series=np.asarray(self.sup),
            support_series=np.asarray(self.support),
            snapshots=self.snapshots,
        )


def run(
    u0: Union[np.ndarray, State],
    grid: RadialGrid,
    rho,
    constants: ProblemConstants,
    config: SolverConfig,
) -> RunResult:
    """Advance initial data to ``t_end`` or numerical blow-up.

    ``rho`` is a :class:`~pme_react.density.DensityParams` (canonical
    member evaluated at cell centers) or a per-cell array.  ``u0`` must be
    finite and nonnegative and is copied; a :class:`State` supplies a
    nonzero start time.
    """
    t, u = _start(u0, grid, constants)
    rho_vals = _rho_values(rho, grid)
    vol = grid.volumes
    rho_vol = rho_vals * vol
    inv_rho_vol = 1.0 / rho_vol
    area_over_dr = grid.faces ** (grid.N - 1) / grid.dr
    cfl_coef = config.cfl_safety * rho_vol / (constants.m * (area_over_dr[:-1] + area_over_dr[1:]))
    dirichlet = config.boundary == BOUNDARY_DIRICHLET

    u_prev = np.empty_like(u)

    tau0 = reaction_time_scale(constants.p, float(u.max())) if config.reaction else None

    outputs = _Outputs(grid, config.output_times, t, u)
    pending = outputs.pending

    termination = TERM_COMPLETED
    blowup: Optional[BlowupRecord] = None
    total_steps = 0
    clamp_total = 0.0

    while t < config.t_end:
        t_stop = pending[0] if pending else config.t_end
        budget = config.max_steps - total_steps
        if budget <= 0:
            termination = TERM_STEP_LIMIT
            break
        t_prev, t, status, nsub, clamp_added, sup_prev, sup_new = _kernels.advance(
            u,
            u_prev,
            rho_vol,
            inv_rho_vol,
            area_over_dr,
            cfl_coef,
            float(constants.m),
            float(constants.p),
            bool(config.reaction),
            bool(dirichlet),
            float(config.blowup_threshold),
            REACTION_DT_CAP,
            float(t),
            float(config.t_end),
            float(t_stop),
            budget,
        )
        total_steps += nsub
        clamp_total += clamp_added

        # interpolate output times crossed by the last step; all pending
        # times <= t lie in (t_prev, t] because the kernel stops at t_stop
        while pending and pending[0] <= t:
            t_out = pending.pop(0)
            frac = 1.0 if t == t_prev else (t_out - t_prev) / (t - t_prev)
            outputs.emit(t_out, u_prev + frac * (u - u_prev))

        if status == _kernels.STATUS_BLOWUP:
            s_num = t_prev + (t - t_prev) * (config.blowup_threshold - sup_prev) / (sup_new - sup_prev)
            blowup = BlowupRecord(s_num=s_num, flag=FLAG_THRESHOLD, final_sup=sup_new)
            termination = TERM_BLOWUP
            break
        if status == _kernels.STATUS_OVERFLOW:
            blowup = BlowupRecord(s_num=t, flag=FLAG_OVERFLOW, final_sup=math.inf)
            termination = TERM_BLOWUP
            break
        if status == _kernels.STATUS_STALLED:
            if config.reaction and t + _kernels.reaction_cap(REACTION_DT_CAP, sup_new, constants.p) == t:
                # the reaction cap fell below half an ulp of t: the solution
                # blows up faster than t can resolve, so t is the blow-up time
                blowup = BlowupRecord(s_num=t, flag=FLAG_TIME_RESOLUTION, final_sup=sup_new)
                termination = TERM_BLOWUP
            else:
                termination = TERM_STALLED
            break
        if total_steps >= config.max_steps and t < config.t_end:
            termination = TERM_STEP_LIMIT
            break

    return RunResult(
        grid=grid,
        config=config,
        rho_values=rho_vals,
        **outputs.fields(),
        termination=termination,
        blowup=blowup,
        tau0=tau0,
        steps=total_steps,
        clamp_total=clamp_total,
        final_state=State(t=t, u=u.copy()),
    )

