import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pme_react import cli, harness, implicit
from pme_react.barrier import E, BlowupSubsolution, GE1Barrier, GE2Barrier
from pme_react.config import load, loads, resolve
from pme_react.density import DensityParams, ProblemConstants, inverse_rho
from pme_react.feasibility import (
    BARRIER_KEYS,
    REGIME_BLOWUP,
    REGIME_GE1B,
    build_barrier,
    check_ge1,
    find_params,
)
from pme_react.harness import (
    InitialData,
    SweepReport,
    VERDICT_FAIL,
    VERDICT_INCONCLUSIVE,
    VERDICT_PASS,
    blowup_scan,
    build_initial,
    comparison_experiment,
    comparison_tolerance,
    derivative_crosscheck,
    residual_sweep,
)
from pme_react.solver import BOUNDARY_DIRICHLET, TERM_COMPLETED, RadialGrid, RunResult, SolverConfig, State, run

CC23 = ProblemConstants(m=2.0, p=3.0, N=3)
H1_NEAR = DensityParams(family="H1", alpha=2.0, r0=25.0)
H2S_E = DensityParams(family="H2Smooth", alpha=2.0, r0=E)
ROOT = Path(__file__).resolve().parents[1]
STEMS = ("ge1a", "ge1b", "ge2", "blowup")


@pytest.fixture(scope="module")
def shipped():
    """The barrier each shipped barrier config resolves to."""
    return {stem: resolve(load(str(ROOT / "configs" / f"{stem}.cfg"))).barrier for stem in STEMS}


@pytest.fixture(scope="module")
def ge1b():
    bar, rep = find_params(CC23, H1_NEAR, REGIME_GE1B)
    return bar, rep


@pytest.fixture(scope="module")
def blowup():
    bar, rep = find_params(CC23, H2S_E, REGIME_BLOWUP)
    return bar, rep


def ge1b_solver(t_end=1.0, **solver_kw):
    return SolverConfig(
        t_end=t_end, R=50.0, cells=64, boundary=BOUNDARY_DIRICHLET,
        output_times=tuple(np.linspace(0.0, t_end, 5)), **solver_kw,
    )


def blowup_solver(bar, cells=64, t_end=2.0e-5):
    R = 2.0 * bar.support_radius(0.0)
    return SolverConfig(
        t_end=t_end, R=R, cells=cells, boundary=BOUNDARY_DIRICHLET, output_times=(0.0, 2.5e-6, 5.0e-6)
    )


def grid_of(cfg):
    return RadialGrid(N=CC23.N, R=cfg.R, cells=cfg.cells)


# -- inputs: initial data, barriers, hypotheses ------------------------------


def test_initial_data_validation():
    with pytest.raises(ValueError):
        InitialData(kind="random")
    with pytest.raises(ValueError):
        InitialData(kind="scaled_barrier", factor=0.0)
    with pytest.raises(ValueError, match="constant value must be nonnegative, got -1.0"):
        InitialData(kind="constant", value=-1.0)
    with pytest.raises(ValueError):
        InitialData(kind="csv")


def test_build_initial_kinds(tmp_path, ge1b):
    bar, _ = ge1b
    grid = grid_of(ge1b_solver())

    u_eq = build_initial(InitialData(), grid, bar)
    np.testing.assert_array_equal(u_eq, bar.eval(grid.centers, 0.0))

    half = InitialData(kind="scaled_barrier", factor=0.5)
    np.testing.assert_allclose(build_initial(half, grid, bar), 0.5 * u_eq, rtol=1e-15)

    assert np.all(build_initial(InitialData(kind="constant", value=0.125), grid) == 0.125)

    path = tmp_path / "u0.csv"
    np.savetxt(path, np.linspace(0.1, 0.2, grid.cells), delimiter=",")
    got = build_initial(InitialData(kind="csv", path=str(path)), grid)
    assert got[0] == pytest.approx(0.1) and got[-1] == pytest.approx(0.2)

    short = tmp_path / "short.csv"
    np.savetxt(short, np.ones(grid.cells - 3), delimiter=",")
    with pytest.raises(ValueError, match=f"csv initial data has {grid.cells - 3} values, grid has {grid.cells} cells"):
        build_initial(InitialData(kind="csv", path=str(short)), grid)


def test_build_barrier_round_trip(ge1b, blowup):
    # a report's params rebuild the barrier it certified
    for (bar, rep), dens, regime in ((ge1b, H1_NEAR, REGIME_GE1B), (blowup, H2S_E, REGIME_BLOWUP)):
        given = {k: rep.params[k] for k in BARRIER_KEYS[regime]}
        assert build_barrier(CC23, dens, regime, rep.params["C"], **given) == bar


def test_comparison_tolerance_scales():
    u = np.array([0.0, 1.0, 100.0])
    b = np.array([0.0, 2.0, 50.0])
    tol = comparison_tolerance(u, b)
    np.testing.assert_allclose(tol, [1e-8, 1e-8 + 2e-3, 1e-8 + 0.1], rtol=1e-12)


# -- residual sweeps --------------------------------------------------------


def sweep_radii(bar, t, n_r):
    """The oracle's radii: the interior samples of one time slice, away
    from r=0 and kinks, one ``geomspace`` or ``linspace`` per slice."""
    if isinstance(bar, GE1Barrier):
        return np.geomspace(1.0e-3, 1.0e6, n_r)
    r_star = bar.support_radius(t)
    if isinstance(bar, GE2Barrier):
        return np.linspace(0.005, 0.995, n_r) * r_star
    r = np.linspace(0.0, 0.995 * r_star, n_r)
    return np.where(np.abs(r - E) < 1.0e-6, r + 2.0e-6, r)


def slice_margins(bar, t, n_r, radii=sweep_radii):
    """Sample radii and signed relative margins of one time slice."""
    sub = isinstance(bar, BlowupSubsolution)
    r = radii(bar, t, n_r)
    d = bar.eval_derivatives(r, t)
    w = bar.eval(r, t)
    resid = d.w_t - inverse_rho(bar.density, r) * d.lap_wm - w**bar.constants.p
    scale = np.abs(w**bar.constants.p) + np.abs(d.w_t)
    return r, harness._relative_margins(-resid if sub else resid, scale)


def looped_sweep(bar, n_r=200, n_t=50, rel_tol=1.0e-10, radii=sweep_radii):
    """Oracle for :func:`residual_sweep`: one evaluation per time slice; a
    slice's first minimum replaces the worst point only when strictly
    smaller, so ties keep the earliest (t, r)."""
    sub = isinstance(bar, BlowupSubsolution)
    t_max = bar.T * (1.0 - 1.0e-3) if sub else 10.0 * bar.T
    min_margin = math.inf
    worst_r = worst_t = math.nan
    for t in np.linspace(0.0, t_max, n_t):
        r, rel = slice_margins(bar, float(t), n_r, radii)
        i = int(np.argmin(rel))
        if rel[i] < min_margin:
            min_margin, worst_r, worst_t = float(rel[i]), float(r[i]), float(t)
    return SweepReport(
        regime=bar.regime, role="subsolution" if sub else "supersolution", grid=(n_r, n_t),
        rel_tol=rel_tol, min_margin=min_margin, worst_r=worst_r, worst_t=worst_t,
        passed=bool(min_margin >= -rel_tol),
    )


@pytest.mark.parametrize("stem", STEMS)
def test_residual_sweep_matches_the_looped_oracle(shipped, stem):
    bar = shipped[stem]
    rep = residual_sweep(bar)
    assert rep.passed
    assert rep == looped_sweep(bar)


@pytest.mark.parametrize("stem", STEMS)
def test_residual_sweep_in_blocks_matches_the_looped_oracle_on_a_ragged_grid(shipped, stem):
    # 23 time rows: two full blocks and a short one
    bar = shipped[stem]
    assert residual_sweep(bar, n_r=40, n_t=23) == looped_sweep(bar, n_r=40, n_t=23)


def test_residual_sweep_horizon_is_at_least_10_T_and_blowup_ignores_t_end(shipped):
    # a t_end past 10 T is swept: see test_cli_barrier_check_sweeps_to_t_end
    ge2 = shipped["ge2"]
    assert residual_sweep(ge2, t_end=5.0 * ge2.T) == residual_sweep(ge2)
    blowup = shipped["blowup"]
    assert residual_sweep(blowup, t_end=100.0) == residual_sweep(blowup)


def test_residual_sweep_peak_memory_is_a_block_of_rows(shipped):
    # the whole 50 x 200 grid at once peaked at about 1.1 MB of numpy
    # temporaries, the resident peak of barrier-check; ten rows, ~0.36 MB
    bar = shipped["blowup"]
    tracemalloc.start()
    try:
        residual_sweep(bar)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_residual_sweep_tie_keeps_the_first_in_t_then_r_order(shipped, monkeypatch):
    # GE1b has beta = 0, so its margins depend on r alone.  With the radii
    # rolled back one place per slice, every slice holds the same minimum,
    # one column earlier each time: only the (t, r) order picks slice 0.
    bar = shipped["ge1b"]
    t_grid = np.linspace(0.0, 10.0 * bar.T, 10)
    roll = {float(t): -k for k, t in enumerate(t_grid)}

    def rolled(b, t, n):
        return np.roll(sweep_radii(b, t, n), roll[t])

    monkeypatch.setattr(harness, "_sweep_grid", lambda b, ts, n: np.stack([rolled(b, float(t), n) for t in ts]))
    slices = [slice_margins(bar, float(t), 50, rolled) for t in t_grid]
    assert len({float(np.min(rel)) for _, rel in slices}) == 1
    assert len({int(np.argmin(rel)) for _, rel in slices}) == 10
    rep = residual_sweep(bar, n_r=50, n_t=10)
    assert rep == looped_sweep(bar, n_r=50, n_t=10, radii=rolled)
    r, rel = slices[0]
    assert rep.worst_t == 0.0 and rep.worst_r == r[np.argmin(rel)]


def test_residual_sweep_fails_on_a_nan_margin(shipped, monkeypatch):
    # one nan value in every slice: the looped sweep skipped each such slice
    bar = shipped["ge1b"]
    exact = GE1Barrier.eval

    def nan_at_7(self, r, t):
        w = np.array(exact(self, r, t))
        w[..., 7] = np.nan
        return w

    monkeypatch.setattr(GE1Barrier, "eval", nan_at_7)
    old = looped_sweep(bar, n_r=50, n_t=10)
    assert old.passed and old.min_margin == math.inf
    rep = residual_sweep(bar, n_r=50, n_t=10)
    assert not rep.passed and math.isnan(rep.min_margin)
    assert (rep.worst_r, rep.worst_t) == (sweep_radii(bar, 0.0, 50)[7], 0.0)


def test_residual_sweep_passes_at_found_params(ge1b):
    bar, _ = ge1b
    rep = residual_sweep(bar, n_r=50, n_t=10)
    assert rep.passed
    assert rep.min_margin > 1.0  # large slack: the certificate is conservative
    assert rep.role == "supersolution"


def test_residual_sweep_certificate_is_sufficient_not_necessary(ge1b):
    """Certificate failure does not force a pointwise sign failure; only a
    much larger amplitude actually flips the residual."""
    bar, _ = ge1b
    slightly_fat = bar._replace(C=bar.C * 5.0)
    assert not check_ge1(slightly_fat).overall
    assert residual_sweep(slightly_fat, n_r=50, n_t=10).passed

    very_fat = bar._replace(C=bar.C * 50.0)
    sweep = residual_sweep(very_fat, n_r=50, n_t=10)
    assert not sweep.passed
    assert sweep.min_margin < -0.5
    assert sweep == looped_sweep(very_fat, n_r=50, n_t=10)


def test_residual_sweep_detects_weak_subsolution(blowup):
    bub, _ = blowup
    good = residual_sweep(bub, n_r=50, n_t=10)
    assert good.passed and good.role == "subsolution"
    weak = BlowupSubsolution(constants=CC23, density=H2S_E, C=1.0, a=1.0, T=bub.T)
    sweep = residual_sweep(weak, n_r=50, n_t=10)
    assert not sweep.passed
    assert sweep == looped_sweep(weak, n_r=50, n_t=10)


def test_derivative_crosscheck_small_batch(ge1b):
    bar, _ = ge1b
    rep = derivative_crosscheck(bar, n_points=200, seed=3)
    assert rep.passed
    assert set(rep.max_err) == {"w_t", "wm_r", "wm_rr"}
    assert max(rep.max_err.values()) <= 1e-6


def test_derivative_crosscheck_fails_on_a_nan_error(shipped, monkeypatch):
    # a nan after a finite w_t error used to drop out of max()
    bar = shipped["ge1b"]
    exact = GE1Barrier.eval_derivatives

    def nan_slope(self, r, t):
        d = exact(self, r, t)
        wm_r = np.array(d.wm_r)
        wm_r[5] = np.nan
        return d._replace(wm_r=wm_r)

    monkeypatch.setattr(GE1Barrier, "eval_derivatives", nan_slope)
    rep = derivative_crosscheck(bar)
    assert rep.max_err["w_t"] == 0.0 and math.isnan(rep.max_err["wm_r"])
    assert not rep.passed


def test_derivative_crosscheck_passes_for_fifty_seeds(shipped):
    for stem in STEMS:
        bar = shipped[stem]
        for seed in range(50):
            rep = derivative_crosscheck(bar, seed=seed)
            assert rep.passed, (stem, seed, rep.max_err)
        assert derivative_crosscheck(bar, seed=7) == derivative_crosscheck(bar, seed=7)
    with pytest.raises(ValueError, match="non-negative"):
        derivative_crosscheck(bar, seed=-1)


def test_barrier_check_does_not_import_numpy_random(tmp_path):
    code = (
        "import json, sys\n"
        "from pme_react import cli\n"
        f"rc = cli.main(['barrier-check', '--config', {str(ROOT / 'configs' / 'blowup.cfg')!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        "print(json.dumps([rc, 'numpy.random' in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [0, False]


# -- comparison experiments -------------------------------------------------


def test_run_scenario_outputs(ge1b):
    bar, _ = ge1b
    cfg = ge1b_solver(t_end=0.2)
    grid = grid_of(cfg)
    res = run(build_initial(InitialData(), grid, bar), grid, H1_NEAR, CC23, cfg)
    assert tuple(t for t, _ in res.snapshots) == cfg.output_times
    assert res.termination == "completed"


def test_comparison_ge1b_passes(ge1b):
    bar, _ = ge1b
    out = comparison_experiment(bar, ge1b_solver())
    assert out.verdict == VERDICT_PASS
    assert out.max_violation <= 0.0
    assert out.support_ok is None and math.isnan(out.support_worst_cells)
    assert out.checked_times == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_comparison_ge1_runs_implicitly_with_the_barrier_at_the_wall(ge1b, monkeypatch):
    bar, _ = ge1b
    cfg = ge1b_solver()
    ghosts = []
    real = implicit.run_implicit

    def spy(u0, grid, rho, constants, config, ghost, **kw):
        ghosts.append(ghost)
        return real(u0, grid, rho, constants, config, ghost, **kw)

    monkeypatch.setattr(implicit, "run_implicit", spy)
    out = comparison_experiment(bar, cfg)
    grid = grid_of(cfg)
    # the cell past R holds the barrier's value there
    assert len(ghosts) == 2 and ghosts[0] is ghosts[1]
    assert ghosts[0](0.5) == float(bar.eval(grid.R + 0.5 * grid.dr, 0.5))
    # one step per output time; the rerun at half the step takes two
    assert out.run.steps == 4 and out.run.implicit.dt_bound["output"] == 4
    assert out.half_dt.max_dt == 0.125 and out.half_dt.steps == 8
    assert out.verdict == out.half_dt.verdict == VERDICT_PASS
    assert -1.0e-3 < out.headroom < 0.0 and out.headroom_time > 0.0
    assert 0.0 < out.headroom_radius < grid.R


def test_comparison_ge1_reruns_that_disagree_are_inconclusive(ge1b, monkeypatch):
    bar, _ = ge1b
    real = implicit.run_implicit

    def doubled_rerun(u0, grid, rho, constants, config, ghost, max_dt=math.inf):
        res = real(u0, grid, rho, constants, config, ghost, max_dt=max_dt)
        if max_dt < math.inf:
            # the rerun lands well above the barrier after t = 0
            res.snapshots[1:] = [(t, 2.0 * u) for t, u in res.snapshots[1:]]
        return res

    monkeypatch.setattr(implicit, "run_implicit", doubled_rerun)
    out = comparison_experiment(bar, ge1b_solver())
    assert out.half_dt.verdict == VERDICT_FAIL
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert "gives fail, not pass" in out.notes[-1]
    assert out.max_violation <= 0.0  # the first run alone passes


@pytest.mark.parametrize("regime, factor", [("ge1b", 1.01), ("blowup", 0.99)])
def test_comparison_rejects_wrong_side_data(request, regime, factor):
    # data scaled past the barrier (below the blow-up subsolution) in every
    # cell where it is positive are refused before the run: the comparison
    # would be vacuous
    bar, _ = request.getfixturevalue(regime)
    cfg = ge1b_solver() if regime == "ge1b" else blowup_solver(bar)
    inside = int(np.sum(bar.eval(grid_of(cfg).centers, 0.0) > 0.0))
    assert inside == (64 if regime == "ge1b" else 32)
    scaled = InitialData(kind="scaled_barrier", factor=factor)
    with pytest.raises(ValueError, match=f"wrong side of the barrier in {inside} cells"):
        comparison_experiment(bar, cfg, scaled)


def test_comparison_step_budget_is_inconclusive(ge1b):
    bar, _ = ge1b
    out = comparison_experiment(bar, ge1b_solver(max_steps=3))
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.run.termination == "step_limit"
    assert out.notes and "step_limit" in out.notes[0]


def test_comparison_to_jsonable_keys(ge1b):
    # the serialized record is the result's fields, raw run reduced to numbers
    bar, _ = ge1b
    out = comparison_experiment(bar, ge1b_solver(t_end=0.2))
    d = json.loads(json.dumps(cli._finite_or_null(cli._compare_payload(out, [])), allow_nan=False))
    for key in ("verdict", "max_violation", "termination", "steps"):
        assert key in d
    assert "run" not in d  # raw arrays stay out of the serialized record
    run_keys = {"s_num", "blowup_flag", "tau0", "termination", "implicit", "steps", "final_sup", "clamp_total"}
    assert set(d) - run_keys - {"defaults_used"} == {
        name for name in out._fields if name != "run"
    }


def test_comparison_blowup_coarse(blowup):
    bub, _ = blowup
    out = comparison_experiment(bub, blowup_solver(bub))
    assert out.verdict == VERDICT_PASS
    assert out.checked_times == [0.0, 2.5e-6, 5.0e-6] and out.support_ok
    assert out.blowup_window_ok
    assert out.run.tau0 is not None
    assert 0.95 * out.run.tau0 <= out.run.s_num <= 1.05 * bub.T


def judge_barrier_run(monkeypatch, nan_times):
    """``compare`` of a run equal to the ge2.cfg barrier at t = 0, 1 and 2
    on 256 cells, with the first cell nan at each of ``nan_times``."""
    res = resolve(loads((ROOT / "configs" / "ge2.cfg").read_text().replace("cells = 2048", "cells = 256")))
    bar = res.barrier
    grid = RadialGrid(N=bar.constants.N, R=res.solver.R, cells=256)
    snapshots = [(t, bar.eval(grid.centers, t)) for t in (0.0, 1.0, 2.0)]
    for t, u in snapshots:
        if t in nan_times:
            u[0] = math.nan
    ran = RunResult(grid, snapshots, TERM_COMPLETED, None, None, None, 0, 0.0, State(*snapshots[-1]), None)
    monkeypatch.setattr(harness, "run", lambda *args: ran)
    return comparison_experiment(bar, res.solver)


@pytest.mark.parametrize("nan_times, headroom_time", [((), 1.0), ((1.0,), 2.0)], ids=["ties", "nan-passed-over"])
def test_comparison_ties_keep_the_first_in_time_order(monkeypatch, nan_times, headroom_time):
    # a run that equals the barrier ties on its violation at every time
    # (-1e-8, the tolerance where both vanish) and on its headroom at every
    # t > 0 (0 in every cell inside the support): the first time names each,
    # and the first cell the headroom's radius; a nan cell makes its
    # snapshot's violation and headroom nan, which are passed over
    out = judge_barrier_run(monkeypatch, nan_times)
    assert (out.max_violation, out.worst_time) == (-1.0e-8, 0.0)
    assert (out.headroom, out.headroom_time, out.headroom_radius) == (0.0, headroom_time, 0.1015625)
    assert out.checked_times == [0.0, 1.0, 2.0] and out.verdict == VERDICT_PASS


def test_comparison_nan_headroom_has_no_time_or_radius(monkeypatch):
    # every headroom (t > 0) is nan: no number, so no place for one either
    out = judge_barrier_run(monkeypatch, (1.0, 2.0))
    assert (out.max_violation, out.worst_time) == (-1.0e-8, 0.0)
    assert all(math.isnan(x) for x in (out.headroom, out.headroom_time, out.headroom_radius))
    assert out.checked_times == [0.0, 1.0, 2.0]


# -- amplitude scan ---------------------------------------------------------


def test_blowup_scan_rows(blowup):
    bub, _ = blowup
    rows = blowup_scan(bub, blowup_solver(bub), factors=(0.5, 1.0))
    assert [row.factor for row in rows] == [0.5, 1.0]
    for row in rows:
        assert row.blew_up and row.termination == "blowup"
        assert row.s_num == pytest.approx(row.tau0, rel=0.2)
    # quartering the amplitude squares into a 4x reaction time for p = 3
    assert rows[0].tau0 == pytest.approx(4.0 * rows[1].tau0, rel=1e-12)
    assert rows[0].s_num > rows[1].s_num


def test_blowup_scan_guards(ge1b, blowup):
    bar, _ = ge1b
    with pytest.raises(ValueError):
        blowup_scan(bar, ge1b_solver())
    bub, _ = blowup
    with pytest.raises(ValueError):
        blowup_scan(bub, blowup_solver(bub), factors=(0.5, -1.0))
