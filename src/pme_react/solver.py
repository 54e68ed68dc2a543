"""Finite-volume scheme for the weighted reaction-diffusion flow: explicit
steps (:func:`run`) and, against a boundary datum, backward-Euler steps
(:func:`pme_react.implicit.run_implicit`).  One driver, ``_drive``, runs
the steps of both schemes and records their runs: output snapshots, the
termination, the blow-up time and flag, ``max_steps``, ``tau0``, the
clamped mass and, for backward Euler, its step statistics.

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

Blow-up bookkeeping, the same for both schemes.  The run stops when the
sup norm reaches ``blowup_threshold`` (``blowup_flag`` ``threshold``; the
numerical blow-up time ``s_num`` is linearly interpolated inside the
crossing step, and data already at the threshold end the run at its start
time, with no step) or leaves the finite range (flag ``overflow``, ``s_num``
the time that step reached).  A run that stalls, its step no longer
advancing ``t``, while ``REACTION_DT_CAP * sup^(1-p)`` is below half an
ulp of ``t`` also counts as blow-up, at ``s_num = t`` (flag
``time_resolution``); any other stall, and every stall with the reaction
off, stays ``stalled``.
Negative undershoots are clamped to zero with the clamped weighted mass
accumulated, and ``tau0 = 1/((p-1) sup(u0)^(p-1))`` is recorded for runs
with reaction.  The kernel takes the sup, and at m = 2 the clamp, only when
the next step's diffusion limit cannot rule out a stop or a binding
reaction cap, and always before it returns (see :mod:`pme_react._kernels`);
every stop, cap and clamp still falls on the step where a check after every
step puts it.

Output.  Full snapshots are taken at the configured output times: an
output time a step lands on takes the state itself, any other the cellwise
linear interpolant between the two bracketing steps.  So backward-Euler
snapshots, whose steps end on the output times, are the stepped states,
and a snapshot at ``t_end`` is the final state.  A run records its
snapshots and nothing derived from them: the command line reads each
series row (time, sup norm and :func:`support_radius_numeric`, which counts
cells above ``SUPPORT_THRESHOLD``) off its snapshot, so the two output
files agree by construction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import _kernels
from .density import Checked, DensityParams, ProblemConstants, power_or_inf, rho as density_rho

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


def _check_setting(key: str, value, t_end: float = math.inf):
    """``value``, or a ``ValueError`` where the run setting ``key`` breaks its
    rule; ``output_times`` must increase strictly within [0, ``t_end``]."""
    if key == "output_times":
        if not all(0.0 <= t <= t_end for t in value):
            raise ValueError("output_times must lie within [0, t_end]")
        if list(value) != sorted(set(value)):
            raise ValueError("output_times must be strictly increasing")
        return value
    if key in ("t_end", "blowup_threshold"):
        ok, rule = value > 0.0, "must be positive"
    elif key == "R":
        ok, rule = 0.0 < value < math.inf, "must be positive and finite"
    elif key == "cells":
        ok, rule = int(value) == value and value >= 2, "must be an integer >= 2"
    else:
        ok, rule = 0.0 < value <= 1.0, "must lie in (0, 1]"  # cfl_safety
    if not ok:
        raise ValueError(f"{key} {rule}, got {value}")
    return value


class RadialGrid(Checked, namedtuple("RadialGrid", "N R cells faces centers volumes dr", defaults=(None,) * 4)):
    """Uniform radial grid of ``cells`` cells on [0, R] in dimension ``N``;
    the arrays ``faces``, ``centers``, ``volumes`` and the width ``dr`` are
    derived, computed once at every build."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        _check_setting("R", self.R)
        _check_setting("cells", self.cells)
        faces = np.linspace(0.0, self.R, self.cells + 1)
        # r^N underflows to 0 for a tiny R and overflows to inf - inf = nan
        # for a huge one; either way the scheme divides by nonsense
        with np.errstate(over="ignore", invalid="ignore"):
            volumes = (faces[1:] ** self.N - faces[:-1] ** self.N) / self.N
            areas = faces[1:] ** (self.N - 1)
        if not all(np.all((x > 0.0) & (x < math.inf)) for x in (volumes, areas)):
            raise ValueError(
                f"R = {self.R!r} with N = {self.N} and cells = {self.cells} gives cell volumes or face areas "
                "that are zero or not finite in double precision"
            )
        centers = 0.5 * (faces[:-1] + faces[1:])
        return tuple.__new__(cls, (self.N, self.R, self.cells, faces, centers, volumes, float(faces[1] - faces[0])))


class SolverConfig(
    Checked,
    namedtuple(
        "SolverConfig",
        "t_end R cells cfl_safety blowup_threshold boundary reaction output_times max_steps",
        defaults=(0.9, 1.0e6, BOUNDARY_DIRICHLET, True, (), 10**9),
    ),
):
    """Run settings: horizon, grid, step safety, blow-up threshold, boundary,
    reaction, output times (``()`` gives ``(t_end,)``) and step budget."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for key in ("t_end", "R", "cells", "cfl_safety", "blowup_threshold"):
            _check_setting(key, getattr(self, key))
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        times = tuple(float(t) for t in self.output_times)
        _check_setting("output_times", times, self.t_end)
        *settings, _, max_steps = self
        return tuple.__new__(cls, (*settings, times if times else (self.t_end,), max_steps))


class State(NamedTuple):
    """The cell values ``u`` at time ``t``."""

    t: float
    u: np.ndarray


class RunResult(NamedTuple):
    """What one run produced: snapshots, termination, blow-up time and flag
    (both ``None`` unless it blew up), step count, clamped mass and, for a
    backward-Euler run, its :class:`~pme_react.implicit.ImplicitStats`."""

    grid: RadialGrid
    snapshots: List[Tuple[float, np.ndarray]]
    termination: str
    s_num: Optional[float]
    blowup_flag: Optional[str]
    tau0: Optional[float]
    steps: int
    clamp_total: float
    final_state: State
    implicit: Optional[ImplicitStats]


def reaction_time_scale(p: float, sup_u0: float) -> float:
    """Reaction comparison time ``1/((p-1) sup^{p-1})``; inf for zero data,
    0 where ``sup^{p-1}`` passes the float range."""
    if sup_u0 <= 0.0:
        return math.inf
    return 1.0 / ((p - 1.0) * power_or_inf(sup_u0, p - 1.0))


def support_radius_numeric(u: np.ndarray, grid: RadialGrid, threshold: float = SUPPORT_THRESHOLD) -> float:
    """Outer face radius of the last cell with ``u > threshold`` (0 if none).

    Monotone in the threshold: raising it never grows the radius.
    """
    idx = np.flatnonzero(np.asarray(u) > threshold)
    if idx.size == 0:
        return 0.0
    return float(grid.faces[idx[-1] + 1])


def run(
    u0: Union[np.ndarray, State],
    grid: RadialGrid,
    rho,
    constants: ProblemConstants,
    config: SolverConfig,
) -> RunResult:
    """Advance initial data to ``t_end`` or numerical blow-up by explicit steps.

    ``rho`` is a :class:`~pme_react.density.DensityParams` (canonical
    member evaluated at cell centers) or a per-cell array.  ``u0`` must be
    finite and nonnegative and is copied; a :class:`State` supplies a
    nonzero start time.
    """
    m, p = float(constants.m), float(constants.p)
    dirichlet = config.boundary == BOUNDARY_DIRICHLET

    def explicit(rho_vol, area_over_dr):
        inv_rho_vol = 1.0 / rho_vol
        cfl_coef = config.cfl_safety * rho_vol / (constants.m * (area_over_dr[:-1] + area_over_dr[1:]))

        def step(u, u_prev, t, t_stop, budget):
            return _kernels.advance(
                u, u_prev, rho_vol, inv_rho_vol, area_over_dr, cfl_coef, m, p, bool(config.reaction), dirichlet,
                float(config.blowup_threshold), REACTION_DT_CAP, float(t), float(config.t_end), float(t_stop), budget,
            )

        return step

    return _drive(u0, grid, rho, constants, config, explicit)


def _drive(u0, grid: RadialGrid, rho, constants: ProblemConstants, config: SolverConfig, scheme,
           stats: Optional[Callable[[], ImplicitStats]] = None) -> RunResult:
    """The run loop of both schemes, and the one place that records a run.

    ``scheme(rho_vol, area_over_dr)`` returns the step function, called as
    ``step(u, u_prev, t, t_stop, budget)`` with the contract of
    :func:`pme_react._kernels.advance`: step ``u`` in place toward
    ``t_stop`` within ``budget`` steps, leave the state before the last step
    in ``u_prev`` and return its 5-tuple and status codes.  The driver
    validates the data, takes the output snapshots, reads the sups off
    ``u_prev`` and ``u``, classifies the termination (module docstring) and
    counts steps against ``max_steps``.  ``stats``, given for a
    backward-Euler run, is called once the steps are done, and its result
    is recorded as ``implicit``.
    """
    if grid.N != constants.N:
        raise ValueError(f"grid dimension N={grid.N} does not match constants N={constants.N}")
    t, u = (float(u0.t), u0.u) if isinstance(u0, State) else (0.0, u0)
    u = np.array(u, dtype=float, copy=True)
    if u.shape != (grid.cells,):
        raise ValueError(f"initial data has shape {u.shape}, expected ({grid.cells},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("initial data must be finite")
    if np.any(u < 0.0):
        raise ValueError("initial data must be nonnegative")
    rho_vals = density_rho(rho, grid.centers) if isinstance(rho, DensityParams) else np.asarray(rho, dtype=float)
    if rho_vals.shape != (grid.cells,):
        raise ValueError(f"density values have shape {rho_vals.shape}, expected ({grid.cells},)")
    if not np.all(rho_vals > 0.0):
        raise ValueError("density must be strictly positive on every cell")

    step = scheme(rho_vals * grid.volumes, grid.faces ** (grid.N - 1) / grid.dr)
    u_prev = np.empty_like(u)
    tau0 = reaction_time_scale(constants.p, float(u.max())) if config.reaction else None
    # output times already reached at the start (typically t = 0) take the
    # initial state; earlier ones are skipped
    pending = [tt for tt in config.output_times if tt >= t]
    snapshots: List[Tuple[float, np.ndarray]] = []
    while pending and pending[0] <= t:
        snapshots.append((pending.pop(0), u.copy()))

    termination = TERM_COMPLETED
    # data at the threshold blew up before the first step
    s_num, flag = (t, FLAG_THRESHOLD) if u.max() >= config.blowup_threshold else (None, None)
    steps = 0
    clamp_total = 0.0
    while flag is None and t < config.t_end:
        # also where the last call used up the budget short of t_end
        budget = config.max_steps - steps
        if budget <= 0:
            termination = TERM_STEP_LIMIT
            break
        t_stop = pending[0] if pending else config.t_end
        t_prev, t, status, nsub, clamp_added = step(u, u_prev, t, t_stop, budget)
        steps += nsub
        clamp_total += clamp_added

        # the output times the last step crossed lie in (t_prev, t], since
        # the step function stops at t_stop: one the step lands on takes the
        # state itself, the others the cellwise linear interpolant
        while pending and pending[0] <= t:
            t_out = pending.pop(0)
            snap = u.copy() if t_out == t else u_prev + (t_out - t_prev) / (t - t_prev) * (u - u_prev)
            snapshots.append((t_out, snap))

        if status == _kernels.STATUS_BLOWUP:
            sup_prev, sup = float(u_prev.max()), float(u.max())
            s_num = t_prev + (t - t_prev) * (config.blowup_threshold - sup_prev) / (sup - sup_prev)
            flag = FLAG_THRESHOLD
        elif status == _kernels.STATUS_OVERFLOW:
            s_num, flag = t, FLAG_OVERFLOW
        elif status == _kernels.STATUS_STALLED:
            if config.reaction and t + _kernels.reaction_cap(REACTION_DT_CAP, float(u.max()), constants.p) == t:
                # the reaction cap fell below half an ulp of t: the solution
                # blows up faster than t can resolve, so t is the blow-up time
                s_num, flag = t, FLAG_TIME_RESOLUTION
            else:
                termination = TERM_STALLED
        else:
            continue
        break

    return RunResult(
        grid=grid,
        snapshots=snapshots,
        termination=TERM_BLOWUP if flag is not None else termination,
        s_num=s_num,
        blowup_flag=flag,
        tau0=tau0,
        steps=steps,
        clamp_total=clamp_total,
        final_state=State(t=t, u=u.copy()),
        implicit=stats() if stats is not None else None,
    )
