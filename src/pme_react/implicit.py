"""Backward-Euler steps of the finite-volume scheme against a boundary datum.

:func:`run_implicit` takes the operator and the reaction of
:mod:`pme_react.solver` at each step's end, with a given value in the cell
past R; the ``solver`` docstring derives why such a step keeps ordered data
ordered at any diffusion dt.  Its steps keep the contract of
:func:`pme_react._kernels.advance`: the driver of :mod:`pme_react.solver`
runs them, reads the sups off the states and records the run.
``compare`` runs the GE1 barriers, which are positive everywhere, here with
the barrier itself as the boundary datum.  It imports this module only for
those runs, so no other command compiles it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Union

import numpy as np

from . import _kernels
from .density import ProblemConstants
from .solver import RadialGrid, RunResult, SolverConfig, State, _drive

# backward Euler: dt p sup^(p-1) <= IMPLICIT_DT_CAP at a step's start
IMPLICIT_DT_CAP = 0.5
NEWTON_MAX_ITER = 8
NEWTON_RTOL = 1.0e-12


class ImplicitStats(NamedTuple):
    """Why a :func:`run_implicit` run took the steps it took.

    ``dt_bound`` counts the accepted steps by the bound that set their first
    try: ``output`` (the next output time or ``t_end``), ``positivity``
    (``IMPLICIT_DT_CAP``) or ``max_dt``.  ``halvings`` counts the tries that
    were halved; ``dt_smallest`` and ``dt_largest`` are over accepted steps
    (nan when none was taken)."""

    newton_iterations: int
    halvings: int
    dt_bound: Dict[str, int]
    dt_smallest: float
    dt_largest: float


def _power(x, e: float):
    """``x^e``; a product at e in {1, 2, 3}, where ``x*x*x`` is ``(x*x)*x``,
    so that no SIMD ``np.power`` loop rounds a digit that decides a verdict."""
    if e == 1.0:
        return x
    if e == 2.0:
        return x * x
    if e == 3.0:
        return x * x * x
    return np.power(x, e)


def _thomas(sub: List[float], diag: List[float], sup: List[float], rhs: List[float]) -> List[float]:
    """Solve the tridiagonal system with ``sub[i] = J[i+1, i]``, ``diag[i] =
    J[i, i]`` and ``sup[i] = J[i, i+1]`` by elimination without pivoting.

    A plain loop over Python floats, so the solution is the same on every
    machine; no pivoting is needed for the column diagonally dominant
    Jacobians of :func:`run_implicit`."""
    n = len(diag)
    x = [0.0] * n
    c = [0.0] * (n - 1)
    pivot = diag[0]
    x[0] = rhs[0] / pivot
    for i in range(1, n):
        c[i - 1] = sup[i - 1] / pivot
        pivot = diag[i] - sub[i - 1] * c[i - 1]
        x[i] = (rhs[i] - sub[i - 1] * x[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return x


def _backward_euler(u, dt, ghost_m, rho_vol, area_over_dr, m, p, reaction):
    """Newton's method for one backward-Euler step from ``u``, the cell past
    R holding ``ghost_m = ghost^m``.  Returns the new state, or None when
    ``NEWTON_MAX_ITER`` iterations do not converge or an iterate is not
    finite, and the iterations made."""
    a_in = area_over_dr[1:-1]
    off = -dt * a_in
    dt_a_sum = dt * (area_over_dr[:-1] + area_over_dr[1:])
    dt_rho_vol = dt * rho_vol
    flux = np.zeros(u.shape[0] + 1)
    v = u
    for it in range(1, NEWTON_MAX_ITER + 1):
        w = _power(v, m)
        dw = m * _power(v, m - 1.0)
        flux[1:-1] = a_in * (w[1:] - w[:-1])
        flux[-1] = area_over_dr[-1] * (ghost_m - w[-1])
        # minus F(v) = dt (div flux + rho V v^p) - rho V (v - u), and the
        # Jacobian of F
        rhs = dt * (flux[1:] - flux[:-1]) - rho_vol * (v - u)
        diag = rho_vol + dt_a_sum * dw
        if reaction:
            rhs += dt_rho_vol * _power(v, p)
            diag -= p * dt_rho_vol * _power(v, p - 1.0)
        delta = np.array(_thomas((off * dw[:-1]).tolist(), diag.tolist(), (off * dw[1:]).tolist(), rhs.tolist()))
        v = v + delta
        # nan and inf propagate into the two maxima
        step, top = float(np.abs(delta).max()), float(v.max())
        if not math.isfinite(step + top):
            return None, it
        if step <= NEWTON_RTOL * top:
            return v, it
    return None, NEWTON_MAX_ITER


def run_implicit(
    u0: Union[np.ndarray, State],
    grid: RadialGrid,
    rho,
    constants: ProblemConstants,
    config: SolverConfig,
    ghost: Callable[[float], float],
    max_dt: float = math.inf,
) -> RunResult:
    """Advance initial data to ``t_end`` by backward Euler, with the cell
    past R at ``ghost(t)`` at each step's end time ``t``.

    The finite-volume operator and the reaction are those of
    :func:`~pme_react.solver.run`; the boundary datum replaces
    ``config.boundary``, and ``cfl_safety`` has no role.  Each step goes to
    the next output time, unless the positivity cap ``dt p sup^(p-1) <=
    IMPLICIT_DT_CAP`` or ``max_dt`` is smaller, so the snapshots are the
    states themselves.  A try whose Newton iteration does not converge, or
    whose new state is negative somewhere or has ``dt p sup^(p-1) >= 1``,
    is halved (``solver`` docstring), and the run stalls where a halved dt
    no longer advances t.  One driver records the runs of both schemes:
    this one is recorded as :func:`~pme_react.solver.run`'s is, with the
    same output, threshold, ``max_steps`` and stall rules (a stall with the
    reaction on can be a ``time_resolution`` blow-up).  The result carries
    :class:`ImplicitStats` as ``implicit``."""
    m, p, reaction = float(constants.m), float(constants.p), bool(config.reaction)
    iterations = halvings = 0
    dt_bound = {"output": 0, "positivity": 0, "max_dt": 0}
    dts: List[float] = []

    def scheme(rho_vol, area_over_dr):
        def step(u, u_prev, t, t_stop, budget):
            nonlocal iterations, halvings
            t_prev, nsub = t, 0
            sup = float(u.max())
            while t < t_stop and nsub < budget:
                cap = _kernels.reaction_cap(IMPLICIT_DT_CAP / p, sup, p) if reaction else math.inf
                # the first of equal bounds names the step
                dt, bound = min((t_stop - t, "output"), (cap, "positivity"), (max_dt, "max_dt"), key=lambda b: b[0])
                while True:
                    t_new = t_stop if dt == t_stop - t else t + dt
                    if t_new == t:
                        return t_prev, t, _kernels.STATUS_STALLED, nsub, 0.0
                    ghost_m = _power(float(ghost(t_new)), m)
                    v, its = _backward_euler(u, dt, ghost_m, rho_vol, area_over_dr, m, p, reaction)
                    iterations += its
                    if v is not None and float(v.min()) >= 0.0:
                        if not reaction or dt < _kernels.reaction_cap(1.0 / p, float(v.max()), p):
                            break
                    dt *= 0.5
                    halvings += 1
                u_prev[:] = u
                u[:] = v
                t_prev, t = t, t_new
                nsub += 1
                dt_bound[bound] += 1
                dts.append(dt)
                sup = float(u.max())
                if sup >= config.blowup_threshold:
                    return t_prev, t, _kernels.STATUS_BLOWUP, nsub, 0.0
            return t_prev, t, _kernels.STATUS_REACHED_TSTOP, nsub, 0.0

        return step

    def stats():
        return ImplicitStats(
            newton_iterations=iterations,
            halvings=halvings,
            dt_bound=dt_bound,
            dt_smallest=min(dts, default=math.nan),
            dt_largest=max(dts, default=math.nan),
        )

    return _drive(u0, grid, rho, constants, config, scheme, stats)
