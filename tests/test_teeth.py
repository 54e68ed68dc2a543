"""Barriers that are wrong must fail ``compare``, and ``barrier-check``'s
residual sweep wherever their residual binds.

Each mutant below breaks its certificate (its residual has the wrong sign
inside the run's domain and horizon), and the comparison must say so; the
certified barriers of the shipped configs must keep passing, and the GE1
ones with little room: their runs are held at the barrier's own boundary
values, so the solution stays just below the barrier.

The GE2 and Blowup mutants are time rescalings ``w_k(r, t) = w(r, k t)``:
the same profile with ``C k^(-1/(p-1))``, ``a k^((p-m)/(p-1))`` and
``T / k``, which starts from the same data and runs k times as fast.
"""

from pathlib import Path

import pytest

from pme_react.config import load, resolve
from pme_react.density import DensityParams, ProblemConstants
from pme_react.feasibility import REGIME_GE1B, check_auto, find_params
from pme_react.harness import VERDICT_FAIL, VERDICT_PASS, comparison_experiment, residual_sweep

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _resolved(stem, cells=None):
    loaded = load(str(CONFIGS / f"{stem}.cfg"))
    if cells is not None:
        loaded.solver["cells"] = cells
    return resolve(loaded)


def _compare(res, bar):
    return comparison_experiment(bar, res.solver, res.initial)


def _rescaled(bar, k):
    m, p = bar.constants.m, bar.constants.p
    return bar._replace(C=bar.C * k ** (-1.0 / (p - 1.0)), a=bar.a * k ** ((p - m) / (p - 1.0)), T=bar.T / k)


@pytest.mark.parametrize("stem", ["ge1a", "ge1b"])
def test_certified_ge1_barriers_pass_close_to_the_barrier(stem):
    res = _resolved(stem)
    out = _compare(res, res.barrier)
    assert out.verdict == VERDICT_PASS
    assert out.run.steps <= 100
    assert -1.0e-3 <= out.headroom < 0.0
    # the rerun at half the step agrees to well inside the tolerance
    assert out.half_dt.verdict == VERDICT_PASS
    assert abs(out.half_dt.headroom - out.headroom) < 1.0e-4


@pytest.mark.parametrize(
    "stem,factor,headroom",
    [("ge1b", 30.0, 4.8e-3), ("ge1a", 0.05, 1.33e-2)],
    ids=["ge1b-C-x30", "ge1a-C-x0.05"],
)
def test_ge1_amplitude_mutants_fail(stem, factor, headroom):
    res = _resolved(stem)
    bar = res.barrier._replace(C=res.barrier.C * factor)
    assert not check_auto(bar).overall
    out = _compare(res, bar)
    assert out.verdict == VERDICT_FAIL
    assert out.max_violation > 0.0
    assert out.headroom == pytest.approx(headroom, rel=0.05)
    assert out.half_dt.verdict == VERDICT_FAIL


@pytest.mark.parametrize("r0", [1.0e8, 1.0e10, 1.0e12])
def test_ge1b_amplitude_mutant_fails_its_sweep_at_large_r0(r0):
    # the GE1 residual binds at tens of r0, past a sweep that stops at 1e6
    dens = DensityParams(family="H1", alpha=2.0, r0=r0)
    bar, _ = find_params(ProblemConstants(m=2.0, p=3.0, N=3), dens, REGIME_GE1B)
    assert residual_sweep(bar).min_margin > 6.0
    mutant = bar._replace(C=bar.C * 30.0)
    assert not check_auto(mutant).overall
    sweep = residual_sweep(mutant)
    assert not sweep.passed
    assert sweep.min_margin == pytest.approx(-0.72, abs=0.02)
    assert 10.0 * r0 < sweep.worst_r < 100.0 * r0


def test_slowed_ge2_barrier_fails():
    res = _resolved("ge2", cells=256)
    bar = _rescaled(res.barrier, 0.5)
    assert not check_auto(bar).overall
    out = _compare(res, bar)
    assert out.verdict == VERDICT_FAIL and out.max_violation > 0.0
    assert out.headroom > 0.0


def test_fast_blowup_subsolution_fails():
    res = _resolved("blowup")
    bar = _rescaled(res.barrier, 1.0e5)
    assert not check_auto(bar).overall
    out = _compare(res, bar)
    assert out.verdict == VERDICT_FAIL
    assert out.blowup_window_ok is False


@pytest.mark.parametrize("stem", ["ge2", "blowup"])
def test_certified_compact_barriers_keep_their_verdicts(stem):
    # ge2 at 256 cells fails on its one-cell support allowance (a spatial
    # error, see test_config_cli); at the shipped cells both pass
    res = _resolved(stem, cells=256 if stem == "ge2" else None)
    out = _compare(res, res.barrier)
    assert out.verdict == (VERDICT_FAIL if stem == "ge2" else VERDICT_PASS)
    assert out.run.implicit is None and out.half_dt is None
    assert out.headroom < 0.0
