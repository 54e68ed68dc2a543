import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pme_react import _kernels
from pme_react.density import DensityParams, ProblemConstants
from pme_react.density import rho as density_rho
from pme_react.implicit import IMPLICIT_DT_CAP, NEWTON_MAX_ITER, _thomas, run_implicit
from pme_react.solver import (
    BOUNDARIES,
    BOUNDARY_DIRICHLET,
    BOUNDARY_NEUMANN,
    FLAG_OVERFLOW,
    FLAG_THRESHOLD,
    FLAG_TIME_RESOLUTION,
    REACTION_DT_CAP,
    TERM_BLOWUP,
    TERM_COMPLETED,
    TERM_STALLED,
    TERM_STEP_LIMIT,
    RadialGrid,
    SolverConfig,
    State,
    reaction_time_scale,
    run,
    support_radius_numeric,
)

CC23 = ProblemConstants(m=2.0, p=3.0, N=3)
H2S_8 = DensityParams(family="H2Smooth", alpha=2.0, r0=8.0)


def weighted_mass(u, grid, rho_values):
    """Discrete weighted mass ``sum_i rho_i V_i u_i`` (conserved by pure
    Neumann diffusion up to clamping)."""
    return float(np.sum(np.asarray(rho_values) * grid.volumes * np.asarray(u)))


def step(u, t, grid, rho, constants, config):
    """Single explicit step from ``(t, u)``; returns the new state."""
    res = run(State(t=t, u=u), grid, rho, constants, config._replace(max_steps=1))
    return res.final_state.u, res.final_state.t


# -- grid and config --------------------------------------------------------


def test_grid_volumes_telescope():
    for N, R, cells in ((3, 10.0, 64), (4, 2.5, 7), (5, 1.0, 33)):
        g = RadialGrid(N=N, R=R, cells=cells)
        assert np.sum(g.volumes) == pytest.approx(R**N / N, rel=1e-13)
        assert g.dr == pytest.approx(R / cells, rel=1e-15)
        assert g.faces.shape == (cells + 1,)
        assert np.all(np.diff(g.centers) > 0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(N=0, R=1.0, cells=8)
    with pytest.raises(ValueError):
        RadialGrid(N=3, R=-1.0, cells=8)
    with pytest.raises(ValueError):
        RadialGrid(N=3, R=1.0, cells=1)


def test_config_validation():
    base = dict(t_end=1.0, R=1.0, cells=8)
    with pytest.raises(ValueError):
        SolverConfig(**{**base, "t_end": 0.0})
    with pytest.raises(ValueError):
        SolverConfig(**{**base, "cfl_safety": 1.5})
    with pytest.raises(ValueError):
        SolverConfig(**{**base, "boundary": "absorbing"})
    with pytest.raises(ValueError):
        SolverConfig(**{**base, "output_times": (0.5, 0.4)})
    with pytest.raises(ValueError):
        SolverConfig(**{**base, "output_times": (0.5, 1.5)})
    for cells in (1, 0, 2.5):
        with pytest.raises(ValueError, match=f"cells must be an integer >= 2, got {cells}"):
            SolverConfig(**{**base, "cells": cells})
    assert SolverConfig(**{**base, "cells": 2}).cells == 2
    assert SolverConfig(**base).output_times == (1.0,)
    assert SolverConfig(**base, output_times=(0.25, 1.0)).output_times == (0.25, 1.0)


def test_reaction_time_scale_values():
    assert reaction_time_scale(3.0, 2.0) == pytest.approx(0.125, rel=1e-15)
    assert reaction_time_scale(2.0, 4.0) == pytest.approx(0.25, rel=1e-15)
    assert reaction_time_scale(3.0, 0.0) == math.inf


def test_support_radius_numeric():
    g = RadialGrid(N=3, R=8.0, cells=8)
    u = np.zeros(8)
    assert support_radius_numeric(u, g) == 0.0
    u[0] = 1.0
    u[1] = 0.5
    assert support_radius_numeric(u, g) == 2.0
    u[5] = 1e-13  # below the default threshold
    assert support_radius_numeric(u, g) == 2.0
    assert support_radius_numeric(u, g, threshold=1e-14) == 6.0


# -- run() input validation -------------------------------------------------


def test_run_validation():
    g = RadialGrid(N=3, R=1.0, cells=8)
    cfg = SolverConfig(t_end=0.01, R=1.0, cells=8)
    with pytest.raises(ValueError):
        run(-np.ones(8), g, np.ones(g.cells), CC23, cfg)
    with pytest.raises(ValueError):
        run(np.ones(5), g, np.ones(g.cells), CC23, cfg)
    with pytest.raises(ValueError):
        run(np.ones(8), g, np.zeros(8), CC23, cfg)  # density must be positive
    with pytest.raises(ValueError):
        run(np.ones(8), g, np.ones(g.cells), ProblemConstants(m=2.0, p=3.0, N=4), cfg)
    with pytest.raises(TypeError):
        run(np.ones(8), g, lambda r: np.ones_like(r), CC23, cfg)  # a density is never a callable


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_rejects_non_finite_initial_data(bad):
    g = RadialGrid(N=3, R=1.0, cells=8)
    cfg = SolverConfig(t_end=0.01, R=1.0, cells=8)
    u0 = np.ones(8)
    u0[3] = bad
    with pytest.raises(ValueError, match="finite"):
        run(u0, g, np.ones(g.cells), CC23, cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solver_config_rejects_non_finite_R_and_output_times(bad):
    with pytest.raises(ValueError, match="R must be positive and finite"):
        SolverConfig(t_end=1.0, R=bad, cells=8)
    with pytest.raises(ValueError, match="output_times must lie within"):
        SolverConfig(t_end=1.0, R=1.0, cells=8, output_times=(0.0, bad))


# -- conservation and invariance --------------------------------------------


def diffusion_setup(cells=128, boundary=BOUNDARY_NEUMANN, t_end=0.5):
    g = RadialGrid(N=3, R=10.0, cells=cells)
    u0 = np.exp(-((g.centers / 2.0) ** 2))
    cfg = SolverConfig(t_end=t_end, R=10.0, cells=cells, boundary=boundary, reaction=False)
    return g, u0, cfg


def test_neumann_diffusion_conserves_mass():
    g, u0, cfg = diffusion_setup()
    res = run(u0, g, np.ones(g.cells), CC23, cfg)
    assert res.termination == TERM_COMPLETED
    assert res.clamp_total == 0.0
    assert res.tau0 is None
    m0 = weighted_mass(u0, g, np.ones(g.cells))
    m1 = weighted_mass(res.final_state.u, g, np.ones(g.cells))
    assert m1 == pytest.approx(m0, rel=1e-10)
    # diffusion flattens the bump
    assert res.final_state.u.max() < u0.max()


def test_dirichlet_boundary_drains_mass():
    cells = 64
    g = RadialGrid(N=3, R=2.0, cells=cells)
    u0 = np.ones(cells)
    cfg = SolverConfig(t_end=0.2, R=2.0, cells=cells, boundary=BOUNDARY_DIRICHLET, reaction=False)
    res = run(u0, g, np.ones(g.cells), CC23, cfg)
    m0 = weighted_mass(u0, g, np.ones(g.cells))
    m1 = weighted_mass(res.final_state.u, g, np.ones(g.cells))
    assert m1 < 0.95 * m0


def test_uniform_neumann_state_is_steady():
    cells = 32
    g = RadialGrid(N=3, R=1.0, cells=cells)
    u0 = np.full(cells, 0.7)
    cfg = SolverConfig(t_end=0.05, R=1.0, cells=cells, boundary=BOUNDARY_NEUMANN, reaction=False)
    res = run(u0, g, np.ones(g.cells), CC23, cfg)
    assert np.array_equal(res.final_state.u, u0)


# -- reaction ODE limit ------------------------------------------------------


def test_uniform_reaction_matches_ode():
    """With Neumann walls and flat data the PDE reduces to u' = u^p, whose
    solution from u(0)=1 (p=3) is (1 - 2t)^(-1/2)."""
    cells = 32
    g = RadialGrid(N=3, R=1.0, cells=cells)
    cfg = SolverConfig(
        t_end=0.4, R=1.0, cells=cells, boundary=BOUNDARY_NEUMANN,
        output_times=(0.2, 0.4),
    )
    res = run(np.ones(cells), g, np.ones(g.cells), CC23, cfg)
    assert res.termination == TERM_COMPLETED
    assert res.tau0 == pytest.approx(0.5, rel=1e-15)
    for t_out, snap in res.snapshots:
        assert snap.max() == pytest.approx((1.0 - 2.0 * t_out) ** -0.5, rel=2e-3)


def test_uniform_reaction_blows_up_at_tau0():
    cells = 8
    g = RadialGrid(N=3, R=1.0, cells=cells)
    cfg = SolverConfig(t_end=0.7, R=1.0, cells=cells, boundary=BOUNDARY_NEUMANN)
    res = run(np.ones(cells), g, np.ones(g.cells), CC23, cfg)
    assert res.termination == TERM_BLOWUP
    assert res.blowup_flag == FLAG_THRESHOLD
    assert res.s_num == pytest.approx(res.tau0, rel=0.05)
    assert res.s_num < 0.7


def test_overflow_below_the_threshold_is_blowup():
    """From flat 1e120 at p = 3 the first step's reaction term u^p leaves
    the float range while the threshold 1e300 is still above sup: the run
    blows up with the overflow flag at the time that step reached."""
    cells = 8
    g = RadialGrid(N=3, R=1.0, cells=cells)
    cfg = SolverConfig(t_end=1.0, R=1.0, cells=cells, boundary=BOUNDARY_NEUMANN, blowup_threshold=1.0e300)
    res = run(np.full(cells, 1.0e120), g, np.ones(g.cells), CC23, cfg)
    assert res.termination == TERM_BLOWUP
    assert res.blowup_flag == FLAG_OVERFLOW
    assert res.s_num == res.final_state.t > 0.0
    assert res.steps == 1 and not np.isfinite(res.final_state.u).all()


def test_blowup_past_the_time_resolution_is_not_a_stall():
    """From flat 0.5 at p = 3.5 the reaction cap on dt drops below half an
    ulp of t before sup reaches the threshold; the kernel stalls there, and
    the run reports blow-up at that t with the time-resolution flag."""
    cells = 16
    cc = ProblemConstants(m=2.0, p=3.5, N=3)
    g = RadialGrid(N=3, R=1.0, cells=cells)
    cfg = SolverConfig(t_end=10.0, R=1.0, cells=cells, boundary=BOUNDARY_NEUMANN)
    res = run(np.full(cells, 0.5), g, np.ones(g.cells), cc, cfg)
    assert res.termination == TERM_BLOWUP
    assert res.blowup_flag == FLAG_TIME_RESOLUTION
    assert res.s_num == res.final_state.t
    assert res.final_state.u.max() < cfg.blowup_threshold
    assert res.s_num == pytest.approx(res.tau0, rel=1e-3)


def test_diffusion_only_stall_stays_stalled():
    g, u0, _ = diffusion_setup(cells=48)
    cfg = SolverConfig(t_end=2.0e20, R=10.0, cells=48, boundary=BOUNDARY_NEUMANN, reaction=False)
    res = run(State(t=1.0e20, u=u0), g, np.ones(g.cells), CC23, cfg)
    assert res.termination == TERM_STALLED
    assert res.s_num is None and res.blowup_flag is None
    assert res.steps == 0 and res.final_state.t == 1.0e20


@pytest.mark.parametrize("implicit", [False, True], ids=["run", "run_implicit"])
def test_data_at_the_threshold_blow_up_at_their_start(implicit):
    """Data whose sup already reaches the threshold have blown up: the run
    ends at its start time with no step, where interpolating the crossing
    from a sup past the threshold put s_num before the step it ended."""
    t0 = 0.25
    g = RadialGrid(N=3, R=1.0, cells=16)
    cfg = SolverConfig(t_end=1.0, R=1.0, cells=16, boundary=BOUNDARY_NEUMANN, blowup_threshold=2.0,
                       output_times=(0.25, 0.5))
    u0 = State(t=t0, u=np.full(16, 3.0))
    if implicit:
        res = run_implicit(u0, g, np.ones(16), CC23, cfg, lambda t: 3.0)
    else:
        res = run(u0, g, np.ones(16), CC23, cfg)
    assert (res.termination, res.blowup_flag, res.s_num, res.steps) == (TERM_BLOWUP, FLAG_THRESHOLD, t0, 0)
    assert res.final_state.t == t0 and [t for t, _ in res.snapshots] == [t0]


# -- output bookkeeping ------------------------------------------------------


def test_output_times_are_exact():
    g, u0, cfg0 = diffusion_setup(cells=48, t_end=0.5)
    times = (0.0, 0.123, 0.35, 0.5)
    cfg = SolverConfig(
        t_end=0.5, R=10.0, cells=48, boundary=BOUNDARY_NEUMANN,
        reaction=False, output_times=times,
    )
    res = run(u0, g, np.ones(g.cells), CC23, cfg)
    assert [t for t, _ in res.snapshots] == list(times)
    t0, snap0 = res.snapshots[0]
    assert t0 == 0.0
    np.testing.assert_array_equal(snap0, u0)
    # snapshots interpolate between steps, so sups interleave monotonically here
    assert np.all(np.diff([snap.max() for _, snap in res.snapshots]) <= 0.0)


def test_interpolated_snapshots_are_zero_past_the_support(monkeypatch):
    # run() takes u_prev from np.empty_like; fill it with nan, so a cell the
    # kernel never wrote would show in the snapshots interpolated from it
    monkeypatch.setattr(np, "empty_like", lambda a, *args, **kwargs: np.full(np.shape(a), np.nan))
    cells = 64
    g = RadialGrid(N=3, R=10.0, cells=cells)
    u0 = np.maximum(1.0 - (g.centers / 2.0) ** 2, 0.0)
    times = (0.0137, 0.05, 0.211, 0.5)
    cfg = SolverConfig(t_end=0.5, R=10.0, cells=cells, reaction=False, output_times=times)
    res = run(u0, g, np.ones(g.cells), CC23, cfg)
    support = np.flatnonzero(res.final_state.u)[-1] + 1
    assert support < cells // 2
    assert [t for t, _ in res.snapshots] == list(times)
    for _, snap in res.snapshots:
        assert np.all(np.isfinite(snap))
        assert not snap[support:].any()


@pytest.mark.parametrize("implicit", [False, True], ids=["run", "run_implicit"])
def test_snapshot_at_t_end_is_the_final_state(implicit):
    # one step from a jump lands on t_end; there the explicit interpolant at
    # frac = 1, u_prev + (u - u_prev), rounds cell 16 (0.001 -> 0.0135) off
    # the state by an ulp
    g = RadialGrid(N=3, R=20.0, cells=64)
    u0 = np.where(g.centers < 5.0, 1.0, 1e-3)
    cfg = SolverConfig(t_end=5e-5, R=20.0, cells=64, output_times=(0.0, 5e-5))
    if implicit:
        res = run_implicit(u0, g, H2S_8, CC23, cfg, lambda t: 1e-3)
    else:
        res = run(u0, g, H2S_8, CC23, cfg)
    assert res.steps == 1 and res.final_state.t == 5e-5
    t_last, snap = res.snapshots[-1]
    assert t_last == 5e-5 and snap.tobytes() == res.final_state.u.tobytes()


@pytest.mark.parametrize(
    "sup,max_dt,termination,flag",
    [(1.0, math.inf, TERM_BLOWUP, FLAG_TIME_RESOLUTION), (1.0e-9, 0.5, TERM_STALLED, None)],
    ids=["time_resolution", "stalled"],
)
def test_implicit_stall_takes_the_run_stall_rule(sup, max_dt, termination, flag):
    """At t = 1e16 (half an ulp is 1) no step advances t.  With sup 1 the
    positivity cap 1/6 sets the step, and run's reaction cap 0.1 is below
    half an ulp: a time-resolution blow-up, as an explicit run from there
    reports.  With sup 1e-9, ``max_dt`` sets the step; the reaction cap is
    1e17, so the run is only stalled."""
    t0 = 1.0e16
    g = RadialGrid(N=3, R=1.0, cells=16)
    cfg = SolverConfig(t_end=2.0e16, R=1.0, cells=16, boundary=BOUNDARY_NEUMANN)
    u0 = State(t=t0, u=np.full(16, sup))
    res = run_implicit(u0, g, np.ones(16), CC23, cfg, lambda t: sup, max_dt=max_dt)
    assert res.steps == 0 and res.final_state.t == t0
    assert res.termination == termination
    assert (t0 + _kernels.reaction_cap(REACTION_DT_CAP, sup, 3.0) == t0) == (flag is not None)
    if flag is None:
        assert res.s_num is None and res.blowup_flag is None
    else:
        assert (res.blowup_flag, res.s_num, res.final_state.u.max()) == (flag, t0, sup)
        explicit = run(u0, g, np.ones(16), CC23, cfg)
        assert (explicit.termination, explicit.blowup_flag, explicit.s_num) == (termination, flag, t0)


def test_state_start_skips_stale_outputs():
    g, u0, _ = diffusion_setup(cells=48)
    cfg = SolverConfig(
        t_end=0.7, R=10.0, cells=48, boundary=BOUNDARY_NEUMANN,
        reaction=False, output_times=(0.1, 0.6),
    )
    res = run(State(t=0.5, u=u0), g, np.ones(g.cells), CC23, cfg)
    assert res.termination == TERM_COMPLETED
    assert [t for t, _ in res.snapshots] == [0.6]
    assert res.final_state.t == pytest.approx(0.7, abs=0.0)


def test_step_limit_termination():
    g, u0, _ = diffusion_setup(cells=48)
    cfg = SolverConfig(
        t_end=0.5, R=10.0, cells=48, boundary=BOUNDARY_NEUMANN,
        reaction=False, max_steps=5,
    )
    res = run(u0, g, np.ones(g.cells), CC23, cfg)
    assert res.termination == TERM_STEP_LIMIT
    assert res.steps == 5
    assert res.final_state.t < 0.5


def test_single_step_wrapper():
    g, u0, _ = diffusion_setup(cells=48)
    cfg = SolverConfig(t_end=0.5, R=10.0, cells=48, boundary=BOUNDARY_NEUMANN, reaction=False)
    u1, t1 = step(u0, 0.0, g, np.ones(g.cells), CC23, cfg)
    assert 0.0 < t1 < 0.5
    assert u1.shape == u0.shape
    assert not np.array_equal(u1, u0)


def test_single_step_wrapper_starts_at_t():
    g, u0, _ = diffusion_setup(cells=48)
    cfg = SolverConfig(t_end=0.5, R=10.0, cells=48, boundary=BOUNDARY_NEUMANN, reaction=False)
    u1, dt = step(u0, 0.0, g, np.ones(g.cells), CC23, cfg)
    u2, t2 = step(u0, 0.2, g, np.ones(g.cells), CC23, cfg)
    assert t2 == 0.2 + dt
    np.testing.assert_array_equal(u2, u1)


# -- time step ---------------------------------------------------------------


def per_cell_dt(u, g, rho_vals, m, cfl_safety):
    """``cfl_safety rho_i V_i dr / (m u_nbhd^(m-1) (A_{i-1/2} + A_{i+1/2}))``
    for every cell, with the face areas ``A = r^(N-1)``."""
    nbhd = np.maximum(u, np.maximum(np.r_[0.0, u[:-1]], np.r_[u[1:], 0.0]))
    area = g.faces ** (g.N - 1)
    return cfl_safety * rho_vals * g.volumes * g.dr / (m * nbhd ** (m - 1.0) * (area[:-1] + area[1:]))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("cell", [0, 32, 63], ids=["origin", "interior", "outer"])
@pytest.mark.parametrize("m", [2.0, 3.0])
def test_step_takes_the_per_cell_monotone_dt(m, cell, boundary):
    cells, N, cfl = 64, 3, 0.45
    g = RadialGrid(N=N, R=20.0, cells=cells)
    u0 = 0.7 + 0.2 * np.cos(g.centers)
    rho_vals = np.ones(cells)
    rho_vals[cell] = 0.1  # the dip makes this cell bind
    cfg = SolverConfig(t_end=1.0, R=20.0, cells=cells, boundary=boundary, reaction=False, cfl_safety=cfl)
    _, dt = step(u0, 0.0, g, rho_vals, ProblemConstants(m=m, p=3.0, N=N), cfg)

    dts = per_cell_dt(u0, g, rho_vals, m, cfl)
    assert int(np.argmin(dts)) == cell
    # the outer face counts under Neumann too, so both boundaries agree
    assert dt == pytest.approx(dts[cell], rel=1e-13)
    nbhd = max(u0[max(cell - 1, 0) : cell + 2])
    origin_rule = cfl * rho_vals[cell] * g.dr**2 / (2.0 * N * m * nbhd ** (m - 1.0))
    ratio = dt / origin_rule
    if cell == 0:
        assert ratio == pytest.approx(2.0, rel=1e-13)
    else:
        assert ratio == pytest.approx(N, rel=0.01)


@pytest.mark.parametrize("m", [2.0, 3.0])
def test_cfl_safety_one_keeps_ordered_pairs_ordered(m):
    cells, p = 64, 3.0
    cc = ProblemConstants(m=m, p=p, N=3)
    g = RadialGrid(N=3, R=20.0, cells=cells)
    rng = np.random.default_rng(int(m))
    shape = np.exp(-g.centers / 5.0)
    for _ in range(100):
        lo = 0.5 * rng.uniform(0.0, 1.0, cells) * shape
        hi = lo + 0.5 * rng.uniform(0.0, 1.0, cells) * shape
        cfg = SolverConfig(t_end=1.0, R=20.0, cells=cells, cfl_safety=1.0)
        _, dt = step(hi, 0.0, g, H2S_8, cc, cfg)
        # diffusion, not the reaction cap, set the step
        assert dt < REACTION_DT_CAP * hi.max() ** (1.0 - p)
        # lo <= hi allows lo a step at least as long, so both take dt
        cfg = SolverConfig(t_end=dt, R=20.0, cells=cells, cfl_safety=1.0, max_steps=1)
        res_lo = run(lo, g, H2S_8, cc, cfg)
        res_hi = run(hi, g, H2S_8, cc, cfg)
        assert res_lo.final_state.t == res_hi.final_state.t == dt
        assert res_lo.clamp_total == 0.0 and res_hi.clamp_total == 0.0
        assert np.all(res_lo.final_state.u <= res_hi.final_state.u)


@pytest.mark.parametrize("m", [2.0, 3.0])
def test_step_past_the_monotone_limit_reverses_a_bump(m):
    cells, N = 64, 3
    g = RadialGrid(N=N, R=20.0, cells=cells)
    rho_vol = g.volumes  # rho = 1
    area_over_dr = g.faces ** (N - 1) / g.dr
    limit = rho_vol / (m * (area_over_dr[:-1] + area_over_dr[1:]))

    def one_step(u0, cfl_coef, t_end):
        u = u0.copy()
        res = _kernels.advance(
            u, np.empty(cells), rho_vol, 1.0 / rho_vol, area_over_dr, cfl_coef,
            m, 3.0, True, True, 1.0e6, REACTION_DT_CAP, 0.0, t_end, t_end, 1,
        )
        return u, res[1]

    hi = np.zeros(cells)
    hi[30] = 1.0
    lo = 0.999 * hi
    gap = {}
    for scale in (1.0, 1.1):
        _, dt = one_step(hi, scale * limit, 1.0)
        hi_new, t_hi = one_step(hi, scale * limit, dt)
        lo_new, t_lo = one_step(lo, scale * limit, dt)
        assert t_hi == t_lo == dt
        gap[scale] = float(np.max(lo_new - hi_new))
    assert gap[1.0] <= 0.0
    assert gap[1.1] > 1e-6


# -- self-similar spreading solution ----------------------------------------


def barenblatt(r, t):
    # m=2, N=3 source solution: alpha=3/5, beta=1/5, curvature (m-1)beta/(2m)
    alpha, beta = 0.6, 0.2
    kappa = 0.2 * 1.0 / 4.0  # (m-1) beta / (2 m) = 1/20
    core = 0.2 - kappa * np.asarray(r) ** 2 * t ** (-2.0 * beta)
    return t ** (-alpha) * np.maximum(core, 0.0)


def test_barenblatt_profile_is_tracked():
    cells = 400
    g = RadialGrid(N=3, R=6.9, cells=cells)
    cfg = SolverConfig(t_end=2.0, R=6.9, cells=cells, reaction=False)
    res = run(State(t=1.0, u=barenblatt(g.centers, 1.0)), g, np.ones(g.cells), CC23, cfg)
    assert res.termination == TERM_COMPLETED
    exact = barenblatt(g.centers, 2.0)
    err = np.max(np.abs(res.final_state.u - exact)) / exact.max()
    assert err < 5e-3


# -- property: mass accounting never leaks under Neumann --------------------


@settings(max_examples=10, deadline=None)
@given(
    arrays(
        np.float64,
        16,
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
)
def test_neumann_mass_property(u0):
    g = RadialGrid(N=3, R=1.0, cells=16)
    cfg = SolverConfig(
        t_end=0.01, R=1.0, cells=16, boundary=BOUNDARY_NEUMANN, reaction=False
    )
    res = run(u0, g, np.ones(g.cells), CC23, cfg)
    m0 = weighted_mass(u0, g, np.ones(g.cells))
    m1 = weighted_mass(res.final_state.u, g, np.ones(g.cells))
    assert m1 - m0 == pytest.approx(res.clamp_total, abs=1e-12 + 1e-10 * max(m0, 1.0))


# -- backward Euler with a boundary datum -------------------------------------


def test_thomas_matches_a_dense_solve():
    # random column diagonally dominant systems, as the Newton steps solve;
    # np.linalg.solve is the oracle here only
    rng = np.random.default_rng(7)
    for n in (2, 3, 17, 64):
        for _ in range(25):
            sub, sup = rng.uniform(-1.0, 1.0, (2, n - 1))
            column = np.abs(np.r_[0.0, sup]) + np.abs(np.r_[sub, 0.0])
            diag = (column + rng.uniform(0.01, 2.0, n)) * rng.choice([-1.0, 1.0], n)
            rhs = rng.normal(0.0, 1.0, n)
            dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
            want = np.linalg.solve(dense, rhs)
            got = np.array(_thomas(sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("m", [2.0, 3.0])
def test_implicit_steps_keep_ordered_pairs_ordered(m):
    """Acceptance criterion 10 on the backward-Euler path: 20 seeded ordered
    pairs with ordered ghost data stay ordered, with steps many times the
    explicit monotone limit.  ``max_dt`` gives both runs of a pair the same
    steps, so the comparison principle holds to the Newton tolerance."""
    cells, p, R = 64, 3.0, 20.0
    cc = ProblemConstants(m=m, p=p, N=3)
    g = RadialGrid(N=3, R=R, cells=cells)
    rho_vals = density_rho(H2S_8, g.centers)
    cfg = SolverConfig(t_end=0.2, R=R, cells=cells, output_times=(0.0, 0.2))
    rng = np.random.default_rng(20240817 + int(m))
    shape = np.exp(-g.centers / 5.0)
    edge = math.exp(-(R + 0.5 * g.dr) / 5.0)
    for _ in range(20):
        lo = 0.5 * rng.uniform(0.0, 1.0, cells) * shape
        hi = lo + 0.4 * rng.uniform(0.0, 1.0, cells) * shape
        g_lo = 0.5 * rng.uniform() * edge
        g_hi = g_lo + 0.4 * rng.uniform() * edge
        res_lo = run_implicit(lo, g, H2S_8, cc, cfg, lambda t: g_lo * (1.0 + t), max_dt=0.1)
        res_hi = run_implicit(hi, g, H2S_8, cc, cfg, lambda t: g_hi * (1.0 + t), max_dt=0.1)
        for res in (res_lo, res_hi):
            assert res.termination == TERM_COMPLETED
            assert res.implicit.dt_bound == {"output": 1, "positivity": 0, "max_dt": 1}
            assert res.implicit.halvings == 0
        assert 0.1 > 10.0 * per_cell_dt(hi, g, rho_vals, m, 1.0).min()
        for (t_lo, u_lo), (t_hi, u_hi) in zip(res_lo.snapshots, res_hi.snapshots):
            assert t_lo == t_hi
            assert np.all(u_lo >= 0.0)
            assert np.all(u_lo <= u_hi + 1e-10 * u_hi.max())


def test_implicit_ghost_is_taken_at_the_step_end():
    # from zero data only the boundary value feeds the run, and at t = 0 it
    # is zero: the step must take it at its end time
    g = RadialGrid(N=3, R=20.0, cells=16)
    cfg = SolverConfig(t_end=1.0, R=20.0, cells=16, output_times=(0.0, 1.0), reaction=False)
    times = []

    def ghost(t):
        times.append(t)
        return t

    res = run_implicit(np.zeros(16), g, np.ones(16), CC23, cfg, ghost)
    assert res.steps == 1 and times == [1.0]
    assert res.final_state.u[-1] > 0.0 and np.all(np.diff(res.final_state.u) >= 0.0)


def test_implicit_positivity_cap_sets_the_step():
    # dt p sup^(p-1) <= 1/2 at the step's start, below the output spacing
    cc = ProblemConstants(m=3.0, p=2.0, N=3)
    g = RadialGrid(N=3, R=20.0, cells=64)
    u0 = 0.9 * np.exp(-g.centers / 5.0)
    cfg = SolverConfig(t_end=1.0, R=20.0, cells=64, output_times=(0.0, 1.0), max_steps=1)
    res = run_implicit(u0, g, H2S_8, cc, cfg, lambda t: 0.0)
    assert res.termination == TERM_STEP_LIMIT and res.steps == 1
    assert res.implicit.dt_bound == {"output": 0, "positivity": 1, "max_dt": 0}
    assert res.implicit.halvings == 0
    assert res.final_state.t == IMPLICIT_DT_CAP / (2.0 * u0.max())
    # with the reaction off nothing but the output time bounds the step
    res = run_implicit(u0, g, H2S_8, cc, cfg._replace(reaction=False), lambda t: 0.0)
    assert res.termination == TERM_COMPLETED and res.steps == 1


def test_implicit_step_halves_where_the_new_sup_breaks_the_bound():
    # a light density ties the state to a fast-rising boundary value: at
    # the cap, Newton converges to a state with dt p sup^(p-1) = 1.31, past
    # the M-matrix bound, so the step halves
    g = RadialGrid(N=3, R=3.0, cells=24)
    cfg = SolverConfig(t_end=1.0, R=3.0, cells=24, output_times=(0.0, 1.0), max_steps=1)
    res = run_implicit(np.full(24, 3.0), g, np.full(24, 1.0e-6), CC23, cfg, lambda t: 3.0 + 100.0 * t)
    cap = IMPLICIT_DT_CAP / (3.0 * 9.0)
    assert res.implicit.halvings == 1 and res.implicit.newton_iterations < 2 * NEWTON_MAX_ITER
    assert res.final_state.t == 0.5 * cap
    assert res.final_state.t * 3.0 * res.final_state.u.max() ** 2 < 1.0


def test_implicit_step_never_accepts_a_negative_state():
    # a negative boundary value at m = 3 (the flux reads G^3 < 0) pulls the
    # converged state below zero at every dt, so each try halves until dt
    # no longer advances t = 2^40 (ulp 2^-12)
    cc = ProblemConstants(m=3.0, p=2.0, N=3)
    g = RadialGrid(N=3, R=20.0, cells=16)
    cfg = SolverConfig(t_end=2.0**40 + 1.0, R=20.0, cells=16, reaction=False)
    res = run_implicit(State(t=2.0**40, u=np.zeros(16)), g, np.ones(16), cc, cfg, lambda t: -1.0)
    assert res.termination == TERM_STALLED and res.steps == 0
    assert res.implicit.halvings == 13
    assert np.all(res.final_state.u == 0.0)


@pytest.mark.parametrize("m,p", [(2.0, 3.0), (3.0, 2.0)])
def test_implicit_step_halves_where_newton_fails(m, p):
    """Flat data on a heavy density: each cell follows ``v = u + dt v^p``.
    At the cap that has no root (p = 3) or a double one (p = 2, where
    Newton converges too slowly), so the first try halves; at half the cap
    it converges."""
    cc = ProblemConstants(m=m, p=p, N=3)
    g = RadialGrid(N=3, R=20.0, cells=64)
    heavy = np.full(64, 1.0e6)
    cfg = SolverConfig(t_end=1.0, R=20.0, cells=64, output_times=(0.0, 1.0), max_steps=1)
    res = run_implicit(np.ones(64), g, heavy, cc, cfg, lambda t: 1.0)
    assert res.implicit.halvings == 1
    assert res.implicit.dt_bound["positivity"] == 1
    assert res.final_state.t == 0.5 * IMPLICIT_DT_CAP / p
    assert res.implicit.newton_iterations > NEWTON_MAX_ITER
    # the root of v = 1 + v^p / (4 p) nearest 1, at the centre cell
    v = res.final_state.u[0]
    assert v == pytest.approx(1.0 + v**p / (4.0 * p), rel=1e-12)
    # left to run, the data blow up a little before the reaction time
    # 1/(p - 1): backward Euler grows faster than the ODE
    res = run_implicit(np.ones(64), g, heavy, cc, cfg._replace(max_steps=10**4), lambda t: 1.0)
    assert res.termination == TERM_BLOWUP and res.blowup_flag == FLAG_THRESHOLD
    assert 0.8 < res.s_num * (p - 1.0) < 1.0
