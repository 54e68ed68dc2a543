"""Acceptance suite: the headline guarantees of the laboratory.

Each test prints one [PASS]/[FAIL] line naming its criterion and then
asserts, so a plain ``pytest -v -s tests/test_acceptance.py`` reads as a
checklist.  Budgets are wall-clock upper bounds asserted alongside the
numerical tolerances; everything here runs far below them on current
hardware.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from pme_react import cli
from pme_react.barrier import E, BlowupSubsolution
from pme_react.density import DensityParams, ProblemConstants
from pme_react.feasibility import (
    REGIME_BLOWUP,
    REGIME_GE1A,
    REGIME_GE1B,
    REGIME_GE2,
    K_const,
    check_blowup,
    find_params,
)
from pme_react.harness import (
    comparison_experiment,
    derivative_crosscheck,
    residual_sweep,
)
from pme_react.solver import (
    BOUNDARY_DIRICHLET,
    BOUNDARY_NEUMANN,
    RadialGrid,
    SolverConfig,
    State,
    run,
)
from test_barrier import flux_match

CC23 = ProblemConstants(m=2.0, p=3.0, N=3)
CC32 = ProblemConstants(m=3.0, p=2.0, N=3)

H1_FAR = DensityParams(family="H1", alpha=2.0, r0=1000.0)
H1_NEAR = DensityParams(family="H1", alpha=2.0, r0=25.0)
H2S_8 = DensityParams(family="H2Smooth", alpha=2.0, r0=8.0)
H2S_E = DensityParams(family="H2Smooth", alpha=2.0, r0=E)
H2S_UNIT = DensityParams(family="H2Smooth", alpha=2.0, r0=E, rho2=1.0)


def _report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


@pytest.fixture(scope="module")
def ge1a_pack():
    return find_params(CC32, H1_FAR, REGIME_GE1A, b=0.95)


@pytest.fixture(scope="module")
def ge1b_pack():
    return find_params(CC23, H1_NEAR, REGIME_GE1B)


@pytest.fixture(scope="module")
def ge2_pack():
    return find_params(CC23, H2S_8, REGIME_GE2)


@pytest.fixture(scope="module")
def blowup_pack():
    return find_params(CC23, H2S_E, REGIME_BLOWUP)


def test_criterion_1_residual_signs(ge1a_pack, ge1b_pack, ge2_pack, blowup_pack):
    """Every certified profile keeps its residual sign on a 200x50 grid."""
    ok = True
    detail = []
    for (bar, _), regime in (
        (ge1a_pack, REGIME_GE1A),
        (ge1b_pack, REGIME_GE1B),
        (ge2_pack, REGIME_GE2),
        (blowup_pack, REGIME_BLOWUP),
    ):
        t0 = time.perf_counter()
        sweep = residual_sweep(bar, n_r=200, n_t=50, rel_tol=1e-10)
        dt = time.perf_counter() - t0
        ok = ok and sweep.passed and dt <= 1.0
        detail.append(f"{regime} margin={sweep.min_margin:.3g} in {dt:.2f}s")
    _report(ok, "criterion-1 residual sign sweeps (4 regimes, rel 1e-10, <=1s each): "
                + "; ".join(detail))


def test_criterion_2_blowup_threshold_at_unit_constants():
    """With omega = 1 and unit weight constants the certificate reduces to
    closed-form branch values and a single binding amplitude."""
    rep = check_blowup(BlowupSubsolution(constants=CC23, density=H2S_UNIT, C=300.0, a=300.0, T=1.0))
    branches_ok = (
        abs(rep.params["branch_outer"] - 43.0) <= 1e-12 * 43.0
        and abs(rep.params["branch_inner"] - (1.0 + 18.0 / E**2)) <= 1e-12 * 4.0
    )

    def feasible(C: float) -> bool:
        bar = BlowupSubsolution(constants=CC23, density=H2S_UNIT, C=C, a=C, T=1.0)
        return check_blowup(bar).overall

    lo, hi = 50.0, 400.0
    assert not feasible(lo) and feasible(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    flip = 0.5 * (lo + hi)
    independent = 2.0 * math.sqrt(1.0 / 3.0) * (2.0 / 3.0) * 43.0**1.5
    thr_ok = abs(flip - independent) <= 1e-9 * independent
    _report(
        branches_ok and thr_ok,
        f"criterion-2 unit-constant threshold: branches (43, 1+18/e^2), "
        f"flip C={flip:.10f} vs independent {independent:.10f} (rel 1e-9)",
    )


def test_criterion_3_calibration_constant():
    got = K_const(2.0, 3.0)
    expect = (1.0 / 3.0) ** 0.5 * (2.0 / 3.0)
    _report(
        abs(got - expect) <= 1e-6,
        f"criterion-3 calibration constant K(2,3)={got:.12f} vs {expect:.12f} (abs 1e-6)",
    )


def test_criterion_4_derivative_crosschecks(ge1b_pack, ge2_pack, blowup_pack):
    ok = True
    detail = []
    for (bar, _), name in (
        (ge1b_pack, "log-decay"),
        (ge2_pack, "spreading"),
        (blowup_pack, "blow-up"),
    ):
        t0 = time.perf_counter()
        rep = derivative_crosscheck(bar, n_points=1000, rel_tol=1e-6)
        dt = time.perf_counter() - t0
        worst = max(rep.max_err.values())
        ok = ok and rep.passed and dt <= 1.0
        detail.append(f"{name} worst={worst:.2e} in {dt:.2f}s")
    _report(ok, "criterion-4 finite-difference crosschecks (1000 pts, rel 1e-6, <=1s each): "
                + "; ".join(detail))


def barenblatt(r, t):
    alpha, beta = 0.6, 0.2
    kappa = 1.0 / 20.0  # (m-1) beta / (2 m) for m = 2
    core = 0.2 - kappa * np.asarray(r) ** 2 * t ** (-2.0 * beta)
    return t ** (-alpha) * np.maximum(core, 0.0)


def _barenblatt_error(cells: int) -> float:
    grid = RadialGrid(N=3, R=6.9, cells=cells)
    cfg = SolverConfig(t_end=2.0, R=6.9, cells=cells, reaction=False)
    res = run(
        State(t=1.0, u=barenblatt(grid.centers, 1.0)),
        grid,
        np.ones(cells),
        CC23,
        cfg,
    )
    assert res.termination == "completed"
    exact = barenblatt(grid.centers, 2.0)
    return float(np.max(np.abs(res.final_state.u - exact)) / exact.max())


def test_criterion_5_self_similar_accuracy():
    t0 = time.perf_counter()
    err_fine = _barenblatt_error(2000)
    err_coarse = _barenblatt_error(1000)
    dt = time.perf_counter() - t0
    ratio = err_coarse / err_fine
    _report(
        err_fine <= 0.02 and ratio >= 1.5 and dt <= 60.0,
        f"criterion-5 self-similar tracking: Linf {err_fine:.2e} at 2000 cells "
        f"(<=2%), refinement ratio {ratio:.2f} (>=1.5), {dt:.1f}s (<=60s)",
    )


CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reaction_check.cfg"


def test_criterion_6_reaction_clock(tmp_path):
    t0 = time.perf_counter()
    cells = 64
    grid = RadialGrid(N=3, R=1.0, cells=cells)
    cfg = SolverConfig(t_end=0.7, R=1.0, cells=cells, boundary=BOUNDARY_NEUMANN)
    res = run(np.ones(cells), grid, np.ones(cells), CC23, cfg)
    direct_ok = (
        res.termination == "blowup"
        and abs(res.s_num - 0.5) <= 0.05 * 0.5
    )
    out = tmp_path / "reaction"
    rc = cli.main(["simulate", "--config", str(CONFIG), "--out", str(out)])
    payload = json.loads((out / "summary.json").read_text())
    cli_ok = (
        rc == 0
        and payload["termination"] == "blowup"
        and abs(payload["s_num"] - 0.5) <= 0.05 * 0.5
    )
    dt = time.perf_counter() - t0
    s_direct = res.s_num if res.s_num is not None else math.nan
    _report(
        direct_ok and cli_ok and dt <= 10.0,
        f"criterion-6 reaction clock: direct s_num={s_direct:.6f}, "
        f"cli s_num={payload.get('s_num', math.nan):.6f} (0.5 +/- 5%), {dt:.1f}s (<=10s)",
    )


def test_criterion_7_spreading_bound_end_to_end(ge2_pack):
    bar, _ = ge2_pack
    times = (0.0, 0.25, 0.5) + tuple(float(k) for k in range(1, 11))
    cfg = SolverConfig(
        t_end=10.0, R=52.0, cells=2048, boundary=BOUNDARY_DIRICHLET, output_times=times
    )
    t0 = time.perf_counter()
    out = comparison_experiment(bar, cfg)
    dt = time.perf_counter() - t0
    ok = (
        out.verdict == "pass"
        and out.run.termination == "completed"
        and out.max_violation <= 0.0
        and out.support_ok is True
        and dt <= 300.0
    )
    _report(ok, f"criterion-7 spreading upper bound to 10T at 2048 cells: "
                f"max_violation={out.max_violation:.2e}, "
                f"support_excess={out.support_worst_cells:.2f} cells (<=0), "
                f"{dt:.1f}s (<=300s)")


def test_criterion_8_blowup_end_to_end(blowup_pack):
    bar, _ = blowup_pack
    cfg = SolverConfig(
        t_end=2.0e-5,
        R=2.0 * bar.support_radius(0.0),
        cells=2048,
        boundary=BOUNDARY_DIRICHLET,
        output_times=tuple(k * 1.0e-6 for k in range(12)),
    )
    t0 = time.perf_counter()
    out = comparison_experiment(bar, cfg)
    dt = time.perf_counter() - t0
    ok = (
        out.verdict == "pass"
        and out.run.termination == "blowup"
        and out.blowup_window_ok is True
        and out.support_ok is True
        and out.max_violation <= 0.0
        and dt <= 300.0
    )
    s_num = out.run.s_num if out.run.s_num is not None else math.nan
    tau0 = out.run.tau0 if out.run.tau0 is not None else math.nan
    _report(ok, f"criterion-8 blow-up from the subsolution: s_num={s_num:.4g} in "
                f"[0.95 tau0, 1.05 T] with tau0={tau0:.4g}, lower bound and "
                f"support held to 0.95 s_num, {dt:.1f}s (<=300s)")


def test_criterion_9_log_decay_bounds_end_to_end(ge1a_pack, ge1b_pack):
    ok = True
    detail = []
    for (bar, _), regime, (R, cells) in (
        (ge1a_pack, REGIME_GE1A, (2000.0, 48)),
        (ge1b_pack, REGIME_GE1B, (50.0, 64)),
    ):
        t_end = 10.0 * bar.T
        cfg = SolverConfig(
            t_end=t_end, R=R, cells=cells, boundary=BOUNDARY_DIRICHLET,
            output_times=tuple(float(t) for t in np.linspace(0.0, t_end, 21)),
        )
        t0 = time.perf_counter()
        out = comparison_experiment(bar, cfg)
        dt = time.perf_counter() - t0
        ok = ok and out.verdict == "pass" and out.max_violation <= 0.0 and dt <= 300.0
        detail.append(f"{regime} max_violation={out.max_violation:.2e} in {dt:.1f}s")
    _report(ok, "criterion-9 log-decay envelopes hold to 10T (<=300s each): "
                + "; ".join(detail))


def test_criterion_10_comparison_ordering():
    cc = CC23
    dens = H2S_8
    grid = RadialGrid(N=3, R=20.0, cells=64)
    cfg = SolverConfig(t_end=0.2, R=20.0, cells=64, boundary=BOUNDARY_DIRICHLET)
    rng = np.random.default_rng(20240817)
    shape = np.exp(-grid.centers / 5.0)
    worst = -math.inf
    t0 = time.perf_counter()
    for _ in range(20):
        lo = 0.5 * rng.uniform(0.0, 1.0, grid.cells) * shape
        hi = lo + 0.4 * rng.uniform(0.0, 1.0, grid.cells) * shape
        res_lo = run(lo, grid, dens, cc, cfg)
        res_hi = run(hi, grid, dens, cc, cfg)
        assert res_lo.termination == "completed" and res_hi.termination == "completed"
        tol = 1e-8 + 1e-6 * np.maximum(1.0, np.abs(res_hi.final_state.u))
        worst = max(worst, float(np.max(res_lo.final_state.u - res_hi.final_state.u - tol)))
    dt = time.perf_counter() - t0
    _report(
        worst <= 0.0 and dt <= 120.0,
        f"criterion-10 20 ordered pairs stay ordered: worst margin {worst:.2e} "
        f"(<=0), {dt:.1f}s (<=120s)",
    )


def test_criterion_11_interface_flux_match(blowup_pack):
    bar, _ = blowup_pack
    rng = np.random.default_rng(11)
    worst = 0.0
    for t in rng.uniform(0.0, bar.T * (1.0 - 1e-9), 100):
        worst = max(worst, flux_match(bar, float(t)).rel_jump)
    _report(
        worst <= 1e-12,
        f"criterion-11 one-sided fluxes cancel at the piece interface: "
        f"worst relative jump {worst:.2e} over 100 random times (<=1e-12)",
    )
