import dataclasses
import math

import numpy as np
import pytest

from pme_react.barrier import E, BlowupSubsolution
from pme_react.density import DensityParams, ProblemConstants
from pme_react.feasibility import (
    BARRIER_KEYS,
    REGIME_BLOWUP,
    REGIME_GE1B,
    REGIME_GE2,
    build_barrier,
    check_ge1,
    find_params,
)
from pme_react.harness import (
    InitialData,
    Scenario,
    VERDICT_INCONCLUSIVE,
    VERDICT_PASS,
    blowup_scan,
    build_initial,
    comparison_experiment,
    comparison_tolerance,
    derivative_crosscheck,
    hypothesis_check,
    residual_sweep,
    run_scenario,
)
from pme_react.solver import BOUNDARY_DIRICHLET, SolverConfig

CC23 = ProblemConstants(m=2.0, p=3.0, N=3)
H1_NEAR = DensityParams(family="H1", alpha=2.0, r0=25.0)
H2S_E = DensityParams(family="H2Smooth", alpha=2.0, r0=E)


@pytest.fixture(scope="module")
def ge1b():
    bar, rep = find_params(CC23, H1_NEAR, REGIME_GE1B)
    return bar, rep


@pytest.fixture(scope="module")
def blowup():
    bar, rep = find_params(CC23, H2S_E, REGIME_BLOWUP)
    return bar, rep


def ge1b_scenario(bar, t_end=1.0, **solver_kw):
    cfg = SolverConfig(
        t_end=t_end, R=50.0, cells=64, boundary=BOUNDARY_DIRICHLET,
        output_times=tuple(np.linspace(0.0, t_end, 5)), **solver_kw,
    )
    return Scenario(
        constants=CC23, density=H1_NEAR, regime=REGIME_GE1B, barrier=bar, solver=cfg
    )


def blowup_scenario(bar, cells=64, t_end=2.0e-5):
    R = 2.0 * bar.support_radius(0.0)
    cfg = SolverConfig(t_end=t_end, R=R, cells=cells, boundary=BOUNDARY_DIRICHLET)
    return Scenario(
        constants=CC23, density=H2S_E, regime=REGIME_BLOWUP, barrier=bar, solver=cfg
    )


# -- scenario plumbing ------------------------------------------------------


def test_initial_data_validation():
    with pytest.raises(ValueError):
        InitialData(kind="random")
    with pytest.raises(ValueError):
        InitialData(kind="scaled_barrier", factor=0.0)
    with pytest.raises(ValueError):
        InitialData(kind="csv")


def test_scenario_checks_barrier_type(ge1b):
    bar, _ = ge1b
    cfg = SolverConfig(t_end=1.0, R=50.0, cells=16)
    with pytest.raises(ValueError):
        Scenario(constants=CC23, density=H1_NEAR, regime=REGIME_GE2, barrier=bar, solver=cfg)
    with pytest.raises(ValueError):
        Scenario(constants=CC23, density=H1_NEAR, regime="GE5", barrier=bar, solver=cfg)


def test_build_initial_kinds(tmp_path, ge1b):
    bar, _ = ge1b
    sc = ge1b_scenario(bar)
    grid = sc.grid()

    u_eq = build_initial(sc.initial, grid, bar)
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


def test_hypothesis_check_sides(ge1b, blowup):
    bar, _ = ge1b
    sc = ge1b_scenario(bar)
    grid = sc.grid()
    u0 = build_initial(sc.initial, grid, sc.barrier)
    rep = hypothesis_check(u0, bar, grid, REGIME_GE1B)
    assert rep.ok and rep.side == "below_barrier"
    bad = hypothesis_check(u0 * 1.01, bar, grid, REGIME_GE1B)
    assert not bad.ok and bad.n_violations == grid.cells

    bub, _ = blowup
    bsc = blowup_scenario(bub)
    bgrid = bsc.grid()
    bu0 = build_initial(bsc.initial, bgrid, bsc.barrier)
    brep = hypothesis_check(bu0, bub, bgrid, REGIME_BLOWUP)
    assert brep.ok and brep.side == "above_barrier"
    assert not hypothesis_check(bu0 * 0.99, bub, bgrid, REGIME_BLOWUP).ok


def test_comparison_tolerance_scales():
    u = np.array([0.0, 1.0, 100.0])
    b = np.array([0.0, 2.0, 50.0])
    tol = comparison_tolerance(u, b)
    np.testing.assert_allclose(tol, [1e-8, 1e-8 + 2e-3, 1e-8 + 0.1], rtol=1e-12)


# -- residual sweeps --------------------------------------------------------


def test_residual_sweep_passes_at_found_params(ge1b):
    bar, _ = ge1b
    rep = residual_sweep(bar, H1_NEAR, REGIME_GE1B, n_r=50, n_t=10)
    assert rep.passed
    assert rep.min_margin > 1.0  # large slack: the certificate is conservative
    assert rep.role == "supersolution"


def test_residual_sweep_certificate_is_sufficient_not_necessary(ge1b):
    """Certificate failure does not force a pointwise sign failure; only a
    much larger amplitude actually flips the residual."""
    bar, _ = ge1b
    slightly_fat = dataclasses.replace(bar, C=bar.C * 5.0)
    assert not check_ge1(slightly_fat, H1_NEAR).overall
    assert residual_sweep(slightly_fat, H1_NEAR, REGIME_GE1B, n_r=50, n_t=10).passed

    very_fat = dataclasses.replace(bar, C=bar.C * 50.0)
    sweep = residual_sweep(very_fat, H1_NEAR, REGIME_GE1B, n_r=50, n_t=10)
    assert not sweep.passed
    assert sweep.min_margin < -0.5


def test_residual_sweep_detects_weak_subsolution(blowup):
    bub, _ = blowup
    good = residual_sweep(bub, H2S_E, REGIME_BLOWUP, n_r=50, n_t=10)
    assert good.passed and good.role == "subsolution"
    weak = BlowupSubsolution(constants=CC23, C=1.0, a=1.0, T=bub.T, bunder=3.0)
    assert not residual_sweep(weak, H2S_E, REGIME_BLOWUP, n_r=50, n_t=10).passed


def test_derivative_crosscheck_small_batch(ge1b):
    bar, _ = ge1b
    rep = derivative_crosscheck(bar, n_points=200, seed=3)
    assert rep.passed
    assert set(rep.max_err) == {"w_t", "wm_r", "wm_rr"}
    assert max(rep.max_err.values()) <= 1e-6


# -- comparison experiments -------------------------------------------------


def test_run_scenario_outputs(ge1b):
    bar, _ = ge1b
    sc = ge1b_scenario(bar, t_end=0.2)
    res = run_scenario(sc)
    np.testing.assert_allclose(res.times, sc.solver.output_times, rtol=0, atol=0)
    assert res.termination == "completed"


def test_comparison_ge1b_passes(ge1b):
    bar, _ = ge1b
    out = comparison_experiment(ge1b_scenario(bar))
    assert out.verdict == VERDICT_PASS
    assert out.max_violation <= 0.0
    assert not out.support_checked
    assert out.checked_times == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_comparison_rejects_wrong_side_data(blowup):
    bub, _ = blowup
    sc = blowup_scenario(bub, cells=16)
    sc = dataclasses.replace(sc, initial=InitialData(kind="constant", value=0.0))
    with pytest.raises(ValueError, match="wrong side"):
        comparison_experiment(sc)


def test_comparison_step_budget_is_inconclusive(ge1b):
    bar, _ = ge1b
    sc = ge1b_scenario(bar, max_steps=3)
    out = comparison_experiment(sc)
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.termination == "step_limit"
    assert out.notes and "step_limit" in out.notes[0]


def test_comparison_blowup_coarse(blowup):
    bub, _ = blowup
    out = comparison_experiment(blowup_scenario(bub))
    assert out.verdict == VERDICT_PASS
    assert out.blowup_expected and out.blowup_window_ok
    assert out.s_num is not None and out.tau0 is not None
    assert 0.95 * out.tau0 <= out.s_num <= 1.05 * bub.T


def test_comparison_to_jsonable_keys(ge1b):
    bar, _ = ge1b
    out = comparison_experiment(ge1b_scenario(bar, t_end=0.2))
    d = out.to_jsonable()
    for key in ("verdict", "hypothesis", "max_violation", "termination", "steps"):
        assert key in d
    assert "run" not in d  # raw arrays stay out of the serialized record


# -- amplitude scan ---------------------------------------------------------


def test_blowup_scan_rows(blowup):
    bub, _ = blowup
    sc = blowup_scenario(bub)
    rows = blowup_scan(sc, factors=(0.5, 1.0))
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
        blowup_scan(ge1b_scenario(bar))
    bub, _ = blowup
    with pytest.raises(ValueError):
        blowup_scan(blowup_scenario(bub), factors=(0.5, -1.0))
