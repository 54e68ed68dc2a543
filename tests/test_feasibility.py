import dataclasses
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pme_react import cli, feasibility
from pme_react.barrier import E, BlowupSubsolution, GE1Barrier, GE2Barrier
from pme_react.config import load, loads, resolve
from pme_react.density import DensityParams, ProblemConstants, derive_k0, derive_rho_bounds
from pme_react.feasibility import (
    REGIME_BLOWUP,
    REGIME_GE1A,
    REGIME_GE1B,
    REGIME_GE2,
    FeasibilitySearchError,
    K_const,
    build_barrier,
    check_auto,
    check_blowup,
    check_ge1,
    check_ge2,
    find_params,
    ge2_drift_minimum,
    omega_of,
)
from pme_react.harness import comparison_experiment, residual_sweep

CC23 = ProblemConstants(m=2.0, p=3.0, N=3)
CC32 = ProblemConstants(m=3.0, p=2.0, N=3)
CC22 = ProblemConstants(m=2.0, p=2.0, N=3)

H1_FAR = DensityParams(family="H1", alpha=2.0, r0=1000.0)
H1_NEAR = DensityParams(family="H1", alpha=2.0, r0=25.0)
H2S_8 = DensityParams(family="H2Smooth", alpha=2.0, r0=8.0)
H2S_E = DensityParams(family="H2Smooth", alpha=2.0, r0=E)
H2S_UNIT = DensityParams(family="H2Smooth", alpha=2.0, r0=E, rho2=1.0)


def entry(report, name):
    """The inequality of ``report`` called ``name``."""
    (found,) = [e for e in report.inequalities if e.name == name]
    return found


# -- calibration constant ---------------------------------------------------


def test_k_const_oracles():
    # x^theta (1-x) with x = (m-1)/(p+m-2), theta = (m-1)/(p-1)
    assert K_const(2.0, 3.0) == pytest.approx((1.0 / 3.0) ** 0.5 * (2.0 / 3.0), rel=1e-15)
    assert K_const(2.0, 3.0) == pytest.approx(0.3849001794597505, rel=1e-12)
    assert K_const(2.0, 2.0) == 0.25
    with pytest.raises(ValueError):
        K_const(1.0, 3.0)
    with pytest.raises(ValueError):
        K_const(2.0, 1.0)


def test_omega_of():
    assert omega_of(2.0, 4.0, 2.0) == 0.5
    assert omega_of(3.0, 9.0, 3.0) == 1.0


# -- blow-up certificate at the unit-weight constants -----------------------


def unit_subsolution(C):
    return BlowupSubsolution(constants=CC23, density=H2S_UNIT, C=C, a=C, T=1.0)


def test_blowup_branch_values():
    rep = check_blowup(unit_subsolution(300.0))
    # omega = C^(m-1)/a = 1 here, k2 = rho2 = 1:
    #   outer branch 1 + m k2 b omega (N-2+b m/(m-1)) = 1 + 2*3*(1+6) = 43
    #   inner branch 1 + m rho2 omega b N / e^2 = 1 + 18/e^2
    assert rep.params["omega"] == 1.0
    assert rep.params["branch_outer"] == pytest.approx(43.0, rel=1e-14)
    assert rep.params["branch_inner"] == pytest.approx(1.0 + 18.0 / E**2, rel=1e-14)
    assert rep.params["rho2"] == 1.0
    assert rep.mode == REGIME_BLOWUP


def test_blowup_amplitude_threshold():
    # the binding inequality is the outer coupling:
    #   K (43/(m-1))^((p+m-2)/(p-1)) <= (p-m)/((m-1)(p-1)) C^(m-1)
    # which for m=2, p=3 pins C >= 2 K 43^(3/2)
    threshold = 2.0 * (1.0 / 3.0) ** 0.5 * (2.0 / 3.0) * 43.0**1.5
    assert threshold == pytest.approx(217.06049677281047, rel=1e-12)
    above = check_blowup(unit_subsolution(threshold * 1.0001))
    below = check_blowup(unit_subsolution(threshold * 0.9999))
    assert above.overall
    assert entry(above, "outer_coupling").passed
    assert not below.overall
    assert not entry(below, "outer_coupling").passed
    # every other inequality is slack at both amplitudes
    for rep in (above, below):
        for name in ("outer_gap_amplitude", "inner_gap_amplitude", "inner_coupling"):
            assert entry(rep, name).passed


def test_blowup_requires_two_sided_weight():
    with pytest.raises(ValueError):
        check_blowup(unit_subsolution(300.0)._replace(density=H1_NEAR))


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=50.0, max_value=400.0),
    st.floats(min_value=1.0, max_value=4.0),
)
def test_blowup_pass_is_monotone_in_amplitude(C, boost):
    """At fixed omega = 1 a passing amplitude keeps passing when raised."""
    if check_blowup(unit_subsolution(C)).overall:
        assert check_blowup(unit_subsolution(C * boost)).overall


# -- GE1 search and certificate ---------------------------------------------


@pytest.fixture(scope="module")
def ge1a_found():
    return find_params(CC32, H1_FAR, REGIME_GE1A, b=0.95)


@pytest.fixture(scope="module")
def ge1b_found():
    return find_params(CC23, H1_NEAR, REGIME_GE1B)


def test_ge1a_amplitude_against_closed_form(ge1a_found):
    bar, rep = ge1a_found
    assert rep.overall and rep.mode == REGIME_GE1A
    # independent recompute of the binding amplitude: with p < m the balance
    # reads cbar <= K0 C^(m-p), i.e. C >= cbar/K0 for m-p = 1
    cbar = math.log(bar.r0) ** (-bar.b * 2.0 / 3.0)
    k0 = 0.95  # derive_k0 of the canonical member with k = 1
    K0 = k0 * bar.b * (3.0 - 2.0 - bar.eps * (bar.b + 1.0))
    c_min = cbar / K0
    assert bar.C == pytest.approx(1.01 * c_min, rel=1e-9)
    assert rep.params["cbar"] == pytest.approx(cbar, rel=1e-14)
    assert rep.params["K0"] == pytest.approx(K0, rel=1e-14)
    assert bar.T == 2.0 and bar.beta == 0.05


def test_ge1a_flip_below_threshold(ge1a_found):
    bar, _ = ge1a_found
    lean = bar._replace(C=bar.C / 1.05)
    rep = check_ge1(lean)
    assert not rep.overall
    assert not entry(rep, "amplitude_balance").passed
    for name in ("b_positive", "b_below_alpha_window", "laplacian_margin",
                 "epsilon_floor", "beta_mode", "time_shift_gt_one"):
        assert entry(rep, name).passed


def test_ge1b_amplitude_against_closed_form(ge1b_found):
    bar, rep = ge1b_found
    assert rep.overall and rep.mode == REGIME_GE1B
    # with p > m the balance caps the amplitude: C <= K0/cbar for p-m = 1
    cbar = math.log(bar.r0) ** (-bar.b * 3.0 / 2.0)
    K0 = 0.95 * bar.b * (1.0 - bar.eps * (bar.b + 1.0))
    c_max = K0 / cbar
    assert bar.C == pytest.approx(c_max / 1.01, rel=1e-9)
    assert bar.b == 0.5  # default (alpha-1)/2
    assert bar.beta == 0.0 and bar.T == 1.0
    fat = bar._replace(C=bar.C * 1.05)
    assert not entry(check_ge1(fat), "amplitude_balance").passed


def test_ge1_requires_h1_weight(ge1b_found):
    bar, _ = ge1b_found
    with pytest.raises(ValueError):
        check_ge1(bar._replace(density=H2S_8))


def test_ge1_search_rejects_bad_shape():
    # each window is an entry of the certificate, and the refusal names it
    # with both sides; r0 = e leaves no eps window, so eps takes its floor
    # 1.05/log r0 and the Laplacian margin fails
    for cc, dens, given, refusal in (
        (CC32, H1_FAR, dict(b=1.2), "b_below_alpha_window fails at every amplitude (lhs 1.2, rhs 1)"),
        (CC23, DensityParams(family="H1", alpha=2.0, r0=E), {},
         "laplacian_margin fails at every amplitude (lhs 1.575, rhs 1)"),
        (CC23, H1_NEAR, dict(beta=0.3), "beta_mode fails at every amplitude (lhs 0.3, rhs 0)"),
    ):
        regime = REGIME_GE1A if cc is CC32 else REGIME_GE1B
        with pytest.raises(FeasibilitySearchError) as err:
            find_params(cc, dens, regime, **given)
        assert str(err.value) == f"no feasible {regime} parameters: {refusal}"


GE1_ENTRIES = (
    "b_positive", "b_below_alpha_window", "laplacian_margin", "epsilon_floor",
    "beta_mode", "time_shift_gt_one", "amplitude_balance",
)
FINITE_OR_NONE = st.none() | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    regime=st.sampled_from((REGIME_GE1A, REGIME_GE1B)),
    b=FINITE_OR_NONE | st.sampled_from((-1.0, -2.0)),
    eps=FINITE_OR_NONE,
    beta=FINITE_OR_NONE,
    r0=st.floats(min_value=E, max_value=1.0e12),
)
def test_ge1_shape_is_judged_by_the_certificate(regime, b, eps, beta, r0):
    # the barrier builds for every finite b, eps and beta (b <= -1 too, where
    # the default eps window is undefined), and a refusal of the search
    # names an entry of check_ge1 that fails at C = 1, or the balance
    cc = CC32 if regime == REGIME_GE1A else CC23
    dens = DensityParams(family="H1", alpha=2.0, r0=r0)
    report = check_ge1(build_barrier(cc, dens, regime, 1.0, b=b, eps=eps, beta=beta))
    assert [e.name for e in report.inequalities] == [n for n in GE1_ENTRIES if n != "time_shift_gt_one"
                                                     or regime == REGIME_GE1A]
    try:
        find_params(cc, dens, regime, b=b, eps=eps, beta=beta)
    except FeasibilitySearchError as err:
        named = [e for e in report.inequalities if e.name in str(err)]
        assert len(named) == 1 and (named[0].name == "amplitude_balance" or not named[0].passed), str(err)


def test_ge1_search_names_an_amplitude_free_failure():
    # T <= 1 fails GE1a at every amplitude, so the search names that entry
    with pytest.raises(FeasibilitySearchError) as err:
        find_params(CC32, H1_FAR, REGIME_GE1A, b=0.95, T=0.5)
    assert str(err.value) == (
        "no feasible GE1a parameters: time_shift_gt_one fails at every amplitude (lhs 1, rhs 0.5)"
    )


def test_ge1_regime_consistency():
    with pytest.raises(ValueError):
        find_params(CC23, H1_FAR, REGIME_GE1A)  # GE1a needs p < m
    with pytest.raises(ValueError):
        find_params(CC32, H1_FAR, REGIME_GE1B)  # GE1b needs p > m
    with pytest.raises(ValueError):
        find_params(CC32, H2S_8, REGIME_GE2)  # GE2 needs p > m
    with pytest.raises(ValueError):
        find_params(CC23, H1_FAR, "GE3")


# (constants, regime, message) that build_barrier and find_params both refuse
REGIME_REFUSALS = {
    "unknown-name": (CC23, "GE3", "unknown regime 'GE3'"),
    "GE1a-p>m": (CC23, REGIME_GE1A, "regime GE1a requires p < m"),
    "GE1a-p=m": (CC22, REGIME_GE1A, "regime GE1a requires p < m"),
    "GE1b-p<m": (CC32, REGIME_GE1B, "regime GE1b requires p > m"),
    "GE1b-p=m": (CC22, REGIME_GE1B, "regime GE1b requires p > m"),
    "GE2-p<m": (CC32, REGIME_GE2, "regime GE2 requires p > m"),
    "GE2-p=m": (CC22, REGIME_GE2, "regime GE2 requires p > m"),
    "Blowup-p<m": (CC32, REGIME_BLOWUP, "regime Blowup requires p > m"),
    "Blowup-p=m": (CC22, REGIME_BLOWUP, "regime Blowup requires p > m"),
}


@pytest.mark.parametrize("case", list(REGIME_REFUSALS))
@pytest.mark.parametrize("build", ["build_barrier", "find_params"])
def test_one_regime_check(build, case):
    cc, regime, message = REGIME_REFUSALS[case]
    dens = H1_NEAR if regime in (REGIME_GE1A, REGIME_GE1B) else H2S_8
    with pytest.raises(ValueError, match=message):
        if build == "build_barrier":
            # the GE1 barrier itself accepts any beta, so only this check refuses
            build_barrier(cc, dens, regime, 0.5)
        else:
            find_params(cc, dens, regime)


def test_build_barrier_rejects_keys_outside_its_regime():
    with pytest.raises(ValueError, match="regime GE2 takes no b, eps"):
        build_barrier(CC23, H2S_8, REGIME_GE2, 0.7, a=40.0, b=0.5, eps=7.0)
    with pytest.raises(ValueError, match="regime GE1b takes no a"):
        build_barrier(CC23, H1_NEAR, REGIME_GE1B, 0.3, a=1.0)
    with pytest.raises(ValueError, match="both C and a"):
        build_barrier(CC23, H2S_E, REGIME_BLOWUP, 200.0)
    # the search builds through the same function, so it rejects them too
    with pytest.raises(ValueError, match="regime GE2 takes no b"):
        find_params(CC23, H2S_8, REGIME_GE2, b=0.5)


# -- GE2 search and certificate ---------------------------------------------


# r0 geometric in [e, 1e4], then by powers of 100 up to 1e16: past
# r0 ~ 1e8 the minimizer, of order r0 log r0, lies above the bisection's
# starting bracket [1e-3, 1e9].
DRIFT_R0 = [float(r0) for r0 in np.geomspace(E, 1.0e4, 10)] + [10.0**k for k in range(6, 17, 2)]
# radii past every minimizer: (N-1)/(N-2) r0 log r0 is below 1e18 here
DRIFT_RADII = np.geomspace(1.0e-4, 1.0e22, 400001)


def _drift(N, r0, r):
    L = np.log(r + r0)
    return (N - 1.0) * (1.0 + r0 / r) * L - L


@pytest.mark.parametrize("N", [3, 4, 5, 6, 8])
def test_ge2_drift_derivative_changes_sign_once(N):
    # g' changes sign once, and the minimum is g where it does
    r = DRIFT_RADII
    for r0 in DRIFT_R0:
        dg = (N - 1.0) * (1.0 / r - r0 * np.log(r + r0) / r**2) - 1.0 / (r + r0)
        neg = dg < 0.0
        assert neg[0] and not neg[-1], (N, r0)
        assert np.count_nonzero(neg[1:] != neg[:-1]) == 1, (N, r0)
        i = np.count_nonzero(neg)
        at_change = float(np.min(_drift(N, r0, r[i - 1:i + 1])))
        assert ge2_drift_minimum(N, r0) == pytest.approx(at_change, rel=1e-8), (N, r0)


@pytest.mark.parametrize(
    "N, r0",
    [
        pytest.param(3, 8.0, id="N3-r0=8"),
        pytest.param(3, E, id="N3-r0=e"),
        pytest.param(4, DRIFT_R0[3], id="N4-r0=42"),
        pytest.param(5, 25.0, id="N5-r0=25"),
        pytest.param(6, DRIFT_R0[7], id="N6-r0=1613"),
        pytest.param(8, 1.0e4, id="N8-r0=1e4"),
        pytest.param(3, 1.0e8, id="N3-r0=1e8"),
        pytest.param(3, 1.0e10, id="N3-r0=1e10"),
        pytest.param(4, 1.0e12, id="N4-r0=1e12"),
        pytest.param(5, 1.0e14, id="N5-r0=1e14"),
        pytest.param(3, 1.0e16, id="N3-r0=1e16"),
        pytest.param(6, 1.0e10, id="N6-r0=1e10"),
    ],
)
def test_ge2_drift_minimum_against_dense_grid(N, r0):
    got = ge2_drift_minimum(N, r0)
    grid_min = float(np.min(_drift(N, r0, DRIFT_RADII)))
    assert got == pytest.approx(grid_min, rel=1e-8)
    assert got <= grid_min + 1e-12  # the bisection can only improve on the grid


def test_ge2_drift_minimum_pinned_values():
    # the values every earlier release certified with, bit for bit
    assert ge2_drift_minimum(3, 8.0) == 5.344673365927255
    assert ge2_drift_minimum(3, E) == 3.906557937512901


def test_ge2_envelope_is_empty_at_unit_band():
    # closer to p = m the decay-rate cap on omega shrinks with p - m, and
    # the certificate admits no amplitude at all
    cc = ProblemConstants(m=2.0, p=2.05, N=3)
    with pytest.raises(FeasibilitySearchError, match="no feasible GE2 parameters: no amplitude in"):
        find_params(cc, H2S_8, REGIME_GE2)


@pytest.mark.parametrize(
    "N, r0, p_edge",
    [
        pytest.param(3, 8.0, 2.4841, id="N3-r0=8"),
        pytest.param(5, 8.0, 2.2281, id="N5-r0=8"),
        pytest.param(3, E, 2.5850, id="N3-r0=e"),
    ],
)
def test_ge2_infeasibility_names_its_frontier(N, r0, p_edge):
    # at the searched omega the amplitude balance admits a small C iff
    # p - m > (1 + MARGIN) bbar / B, B the drift bracket minimum; k1 cancels
    dens = DensityParams(family="H2Smooth", alpha=2.0, r0=r0, k1=1.7, k2=1.7)
    edge = (1.0 + feasibility.MARGIN) * 4.0 / (ge2_drift_minimum(N, r0) + 3.0)
    assert 2.0 + edge == pytest.approx(p_edge, abs=1e-4)
    below = ProblemConstants(m=2.0, p=2.0 + edge - 0.01, N=N)
    with pytest.raises(FeasibilitySearchError, match="no amplitude in") as err:
        find_params(below, dens, REGIME_GE2, T=100.0)
    assert str(err.value).endswith(f"; needs p - m > {edge:.3g} at N = {N}, r0 = {r0:g}, alpha = 2")
    above = ProblemConstants(m=2.0, p=2.0 + edge + 0.01, N=N)
    _, report = find_params(above, dens, REGIME_GE2, T=100.0)
    assert report.overall


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("r0", [E, 8.0, 100.0], ids=["r0=e", "r0=8", "r0=100"])
@pytest.mark.parametrize("N", [3, 4, 6])
def test_ge2_frontier_on_a_grid(N, r0, alpha):
    # the closed-form edge (1 + MARGIN) bbar / B separates "no amplitude"
    # from an amplitude; above it the search may still refuse an empty support
    dens = DensityParams(family="H2Smooth", alpha=alpha, r0=r0, k1=1.7, k2=1.7)
    bbar = alpha + 2.0
    edge = (1.0 + feasibility.MARGIN) * bbar / (ge2_drift_minimum(N, r0) + bbar - 1.0)
    below = ProblemConstants(m=2.0, p=2.0 + edge - 0.01, N=N)
    with pytest.raises(FeasibilitySearchError, match=f"no amplitude in .*; needs p - m > {edge:.3g} "):
        find_params(below, dens, REGIME_GE2, T=100.0)
    above = ProblemConstants(m=2.0, p=2.0 + edge + 0.01, N=N)
    try:
        _, report = find_params(above, dens, REGIME_GE2, T=100.0)
    except FeasibilitySearchError as err:
        assert "identically zero at t = 0" in str(err)
    else:
        assert report.overall


def test_ge2_search_ignores_the_upper_band_constant():
    # the certificate reads only k1, the constant of the canonical member
    cc = ProblemConstants(m=2.0, p=4.0, N=3)
    narrow = DensityParams(family="H2Smooth", alpha=2.0, r0=8.0, k1=1.0, k2=1.0)
    wide = DensityParams(family="H2Smooth", alpha=2.0, r0=8.0, k1=1.0, k2=1.2)
    (bar, rep), (bar_narrow, rep_narrow) = (find_params(cc, d, REGIME_GE2) for d in (wide, narrow))
    assert bar == bar_narrow._replace(density=wide) and rep.params == rep_narrow.params
    assert residual_sweep(bar).passed


def test_ge2_search_refuses_an_empty_support():
    # at r0 = 25 the certified a leaves (log r0)^bbar ~ 107 above a T^(1/2)
    # at T = 1: the barrier is zero at t = 0.  The certificate does not
    # depend on T, so the message names the T that opens the support.
    dens = DensityParams(family="H2Smooth", alpha=2.0, r0=25.0)
    with pytest.raises(FeasibilitySearchError, match=r"identically zero at t = 0.*opens for T > 3\.98885"):
        find_params(CC23, dens, REGIME_GE2)
    bar, rep = find_params(CC23, dens, REGIME_GE2, T=5.0)
    assert rep.overall and bar.T == 5.0
    assert bar.support_radius(0.0) > 0.0
    sweep = residual_sweep(bar)
    assert sweep.passed and sweep.min_margin > 0.0


def test_ge2_search_at_large_r0_certifies_only_a_supersolution():
    # at r0 = 1e10 the drift minimizer lies near 5e11; a minimum taken on
    # [1e-3, 1e9] alone overstated it and certified C = 11.5 at T = 1e8, a
    # barrier whose sweep reads -0.847 at r = 3.3e11
    cc = ProblemConstants(m=2.0, p=2.5, N=3)
    dens = DensityParams(family="H2Smooth", alpha=2.0, r0=1.0e10)
    with pytest.raises(FeasibilitySearchError, match=r"identically zero at t = 0.*opens for T > 6\.99928e\+09"):
        find_params(cc, dens, REGIME_GE2, T=1.0e8)
    bar, rep = find_params(cc, dens, REGIME_GE2, T=7.0e9)
    assert rep.overall
    sweep = residual_sweep(bar)
    assert sweep.passed and sweep.min_margin > 0.0


@pytest.fixture(scope="module")
def ge2_found():
    return find_params(CC23, H2S_8, REGIME_GE2)


def test_ge2_pointwise_parameters(ge2_found):
    bar, rep = ge2_found
    assert rep.overall
    # the decay-rate cap (p-m)/((p-1) bbar^2 (m/(m-1)) k1) is exactly 1/64
    omega = omega_of(bar.C, bar.a, 2.0)
    decay = entry(rep, "support_decay_rate_pointwise")
    assert decay.rhs / decay.lhs * rep.params["omega"] == pytest.approx(1.0 / 64.0, rel=1e-12)
    assert omega == pytest.approx((1.0 / 64.0) / 1.01, rel=1e-9)
    assert rep.params["drift_bracket_min"] == pytest.approx(8.344673, abs=1e-4)
    assert bar.bbar == 4.0 and bar.r0 == 8.0


def test_ge2_pointwise_balance_margin(ge2_found):
    bar, _ = ge2_found
    rep = check_ge2(bar)
    bal = entry(rep, "amplitude_balance_pointwise")
    assert bal.passed
    assert 0.0 <= bal.slack <= 0.1 * bal.rhs  # found amplitude hugs the cap
    lean = bar._replace(C=bar.C * 1.1)
    assert not check_ge2(lean).overall


# -- round-trips and the time-grid conditions -------------------------------

# The time_conditions_* oracles evaluate the direct time-dependent sufficient
# conditions on a dense grid.  For the power-law time factors used here the
# scalar certificates imply them exactly (the time factors cancel).


@dataclasses.dataclass(frozen=True)
class TimeGridReport:
    """Margins of the direct time-dependent conditions on a dense grid.

    Every margin array must be nonnegative for the condition to hold on the
    grid; ``min_margins`` collects the minima and ``overall`` their
    conjunction.
    """

    t_grid: np.ndarray
    margins: dict
    min_margins: dict
    overall: bool


def _grid_report(t_grid, margins) -> TimeGridReport:
    mins = {k: float(np.min(v)) for k, v in margins.items()}
    return TimeGridReport(
        t_grid=t_grid,
        margins=margins,
        min_margins=mins,
        overall=all(v >= 0.0 for v in mins.values()),
    )


def time_conditions_ge1(bar: GE1Barrier, n: int = 1000) -> TimeGridReport:
    """Monotone time factor and amplitude balance along t in [0, 10 T]."""
    cc = bar.constants
    k0 = derive_k0(bar.density)
    K0 = k0 * bar.b * (cc.N - 2.0 - bar.eps * (bar.b + 1.0))
    t = np.linspace(0.0, 10.0 * bar.T, n)
    zeta = (bar.T + t) ** bar.beta
    zeta_p = (
        bar.beta * (bar.T + t) ** (bar.beta - 1.0) if bar.beta != 0.0 else np.zeros_like(t)
    )
    margins = {
        "zeta_monotone": zeta_p,
        "amplitude_balance": K0 * bar.C**cc.m * zeta**cc.m - bar.cbar * bar.C**cc.p * zeta**cc.p,
    }
    return _grid_report(t, margins)


def time_conditions_ge2(bar: GE2Barrier, n: int = 1000) -> TimeGridReport:
    """Support decay rate and drift balance along t in [0, 10 T], over the
    canonical member (constant ``k1``) and its drift-bracket minimum."""
    cc, dens = bar.constants, bar.density
    m, p, N = cc.m, cc.p, cc.N
    mf = m / (m - 1.0)
    t = np.linspace(0.0, 10.0 * bar.T, n)
    zeta, eta, zeta_p, eta_p = bar.time_factors(t)
    ratio = bar.C ** (m - 1.0) / bar.a
    drift = dens.k1 * (ge2_drift_minimum(N, bar.r0) + bar.bbar - 1.0)
    margins = {
        "support_decay_rate": -eta_p / eta**2 - bar.bbar**2 * ratio * zeta ** (m - 1.0) * mf * dens.k1,
        "drift_balance": zeta_p
        + bar.bbar * ratio * zeta**m * eta * mf * drift
        - bar.C ** (p - 1.0) * zeta**p,
    }
    return _grid_report(t, margins)


def time_conditions_blowup(bar: BlowupSubsolution, n: int = 1000) -> TimeGridReport:
    """Envelope/core gap and coupling conditions along t in [0, T)."""
    cc, dens = bar.constants, bar.density
    m, p, N = cc.m, cc.p, cc.N
    mf = m / (m - 1.0)
    rho2 = derive_rho_bounds(dens)
    K = K_const(m, p)
    t = np.linspace(0.0, bar.T * (1.0 - 1.0e-3), n)
    zeta, eta, zeta_p, eta_p = bar.time_factors(t)
    ratio = bar.C ** (m - 1.0) / bar.a
    gamma = bar.C ** (p - 1.0) * zeta**p
    delta = (zeta / (m - 1.0)) * (eta_p / eta)
    sigma = (
        zeta_p
        + delta
        + bar.bunder * ratio * zeta**m * mf * eta * dens.k2 * (bar.bunder * mf + N - 2.0)
    )
    sigma0 = zeta_p + delta + rho2 * N * (bar.bunder / E**2) * ratio * zeta**m * mf * eta
    nu1 = (p + m - 2.0) / (p - 1.0)
    nu2 = (m - 1.0) / (p - 1.0)
    margins = {
        "sigma_positive": sigma,
        "outer_coupling": delta * gamma**nu2 - K * sigma**nu1,
        "outer_gap": (p + m - 2.0) * gamma - (m - 1.0) * sigma,
        "inner_coupling": delta * gamma**nu2 - K * sigma0**nu1,
        "inner_gap": (p + m - 2.0) * gamma - (m - 1.0) * sigma0,
    }
    return _grid_report(t, margins)


@pytest.fixture(scope="module")
def blowup_found():
    return find_params(CC23, H2S_E, REGIME_BLOWUP)


def test_found_parameters_recheck(ge1a_found, ge1b_found, ge2_found, blowup_found):
    for (bar, rep), dens in (
        (ge1a_found, H1_FAR),
        (ge1b_found, H1_NEAR),
        (ge2_found, H2S_8),
        (blowup_found, H2S_E),
    ):
        assert bar.density == dens
        again = check_auto(bar)
        assert again.overall
        assert again.mode == rep.mode


def test_blowup_found_values(blowup_found):
    bar, rep = blowup_found
    assert rep.params["omega"] == pytest.approx(1.0, rel=1e-12)
    assert bar.a == pytest.approx(bar.C, rel=1e-12)
    # derived inverse-weight bound of the canonical member on [0, e]
    assert rep.params["rho2"] == pytest.approx(10.825522, abs=1e-5)
    assert rep.params["branch_inner"] == pytest.approx(27.371351, abs=1e-5)


def test_time_grid_conditions_hold(ge1a_found, ge1b_found, ge2_found, blowup_found):
    for (bar, _), fn in (
        (ge1a_found, time_conditions_ge1),
        (ge1b_found, time_conditions_ge1),
        (ge2_found, time_conditions_ge2),
        (blowup_found, time_conditions_blowup),
    ):
        rep = fn(bar)
        assert rep.overall, rep.min_margins
        assert all(v >= 0.0 for v in rep.min_margins.values())
        assert len(rep.t_grid) == 1000


def test_reports_serialize(ge2_found, blowup_found):
    # the command line writes a report's fields as its JSON keys
    for bar, rep in (ge2_found, blowup_found):
        text = json.dumps(cli._finite_or_null(rep), indent=2, sort_keys=True, allow_nan=False)
        parsed = json.loads(text)
        assert set(parsed) == {"mode", "inequalities", "params", "overall"}
        assert parsed["overall"] is True and parsed["mode"] == bar.regime
        assert [e["name"] for e in parsed["inequalities"]] == [e.name for e in rep.inequalities]
        for e in parsed["inequalities"]:
            assert set(e) == {"name", "lhs", "rhs", "slack", "passed", "strict"}


def test_report_mode_is_the_barrier_regime(ge1a_found, ge1b_found, ge2_found, blowup_found):
    for bar in (ge1a_found[0], ge1b_found[0]):
        assert check_ge1(bar).mode == bar.regime
    for (bar, rep), want in (
        (ge1a_found, REGIME_GE1A), (ge1b_found, REGIME_GE1B),
        (ge2_found, REGIME_GE2), (blowup_found, REGIME_BLOWUP),
    ):
        assert bar.regime == rep.mode == want


# -- the search: closed-form amplitudes and evaluation counts ---------------

BISECT_ITERS = 80


def _bisect_flip(pred):
    """Reference bisection: the amplitude in [C_LO, C_HI] where a monotone
    pass/fail predicate flips.  Halves the log bracket until its midpoint
    rounds to one of its ends, or ``BISECT_ITERS`` halvings are done."""
    f_lo = pred(feasibility.C_LO)
    if f_lo == pred(feasibility.C_HI):
        raise FeasibilitySearchError("no flip")
    llo, lhi = math.log(feasibility.C_LO), math.log(feasibility.C_HI)
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (llo + lhi)
        if mid == llo or mid == lhi:
            break
        if pred(math.exp(mid)) == f_lo:
            llo = mid
        else:
            lhi = mid
    return math.exp(0.5 * (llo + lhi))


def _amplitude_cases(regime):
    """(constants, density, C -> barrier, certificate) over a grid of m,
    p - m, N, alpha, r0 and, for the compact profiles, omega."""
    for m, gap, N, alpha, r0 in itertools.product((1.5, 3.0), (0.3, 2.0), (3, 6), (1.5, 3.0), (E, 100.0)):
        if regime in (REGIME_GE1A, REGIME_GE1B):
            lo, hi = (m, m + gap) if regime == REGIME_GE1B else (m + gap, m)
            cc = ProblemConstants(m=lo, p=hi, N=N)
            dens = DensityParams(family="H1", alpha=alpha, r0=30.0 * r0)
            yield cc, dens, lambda C, cc=cc, dens=dens: build_barrier(cc, dens, regime, C), check_ge1
            continue
        cc = ProblemConstants(m=m, p=m + gap, N=N)
        dens = DensityParams(family="H2Smooth", alpha=alpha, r0=r0, k1=1.3, k2=1.6)
        if regime == REGIME_GE2:
            # below the decay-rate cap on omega, where the amplitude can bind
            cap = gap / ((m + gap - 1.0) * (alpha + 2.0) ** 2 * m / (m - 1.0) * dens.k1)
            omegas, check = (1e-3 * cap, 0.1 * cap, 0.5 * cap, 0.99 * cap), check_ge2
        else:
            omegas, check = (1e-3, 3e-2, 1.0), check_blowup
        for w in omegas:
            def make(C, cc=cc, dens=dens, w=w):
                return build_barrier(cc, dens, regime, C, a=C ** (cc.m - 1.0) / w)

            yield cc, dens, make, check


@pytest.mark.parametrize("regime", [REGIME_GE1A, REGIME_GE1B, REGIME_GE2, REGIME_BLOWUP])
def test_binding_amplitude_against_bisection(regime):
    # the closed form is where the certificate flips: it agrees with a
    # bisection on the certificate to within the bisection's log-grid
    # resolution, about one ulp of log C (worst measured on this grid:
    # 2.0e-15 GE1a, 1.3e-15 GE1b, 4.0e-15 GE2 and Blowup)
    compared = 0
    for cc, dens, make, check in _amplitude_cases(regime):
        try:
            closed = feasibility._binding_amplitude(cc, check(make(1.0)))
        except FeasibilitySearchError:
            closed = None
        try:
            oracle = _bisect_flip(lambda C: check(make(C)).overall)
        except FeasibilitySearchError:
            # no flip inside the budget: the closed form lies outside it too
            assert closed is None or not feasibility.C_LO <= closed <= feasibility.C_HI
            continue
        assert closed == pytest.approx(oracle, rel=1e-14, abs=0.0)
        compared += 1
    assert compared >= 32


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# What find_params returns for each shipped barrier config, bit for bit, and
# how many certificates (check_* calls) it evaluates to get there.
SEARCH_PINS = {
    "ge1a": (
        2,
        {"C": 0.7223383898691895, "T": 2.0},
        {
            "C": 0.7223383898691895, "T": 2.0, "beta": 0.05, "b": 0.95,
            "eps": 0.2791957944233054, "r0": 1000.0, "cbar": 0.29404915507676693,
            "k0": 0.95, "K0": 0.4111503012892854,
        },
    ),
    "ge1b": (
        2,
        {"C": 0.33962045162572196, "T": 1.0},
        {
            "C": 0.33962045162572196, "T": 1.0, "beta": 0.0, "b": 0.5,
            "eps": 0.46633381508943156, "r0": 25.0, "cbar": 0.4161231071231106,
            "k0": 0.95, "K0": 0.14273715674878001,
        },
    ),
    "ge2": (
        2,
        {"C": 0.7226750271573943, "a": 46.713713755453966, "T": 1.0},
        {
            "C": 0.7226750271573943, "a": 46.713713755453966, "T": 1.0, "bbar": 4.0,
            "r0": 8.0, "omega": 0.01547029702970297, "k_canonical": 1.0,
            "drift_bracket_min": 8.344673365927255,
        },
    ),
    "blowup": (
        2,
        {"C": 219.23110174053858, "a": 219.23110174053858, "T": 1.0},
        {
            "C": 219.23110174053858, "a": 219.23110174053858, "T": 1.0, "bunder": 3.0,
            "omega": 1.0, "k2": 1.0, "rho2": 10.825521594868949, "K": 0.3849001794597505, "branch_outer": 43.0,
            "branch_inner": 27.37135056206182,
        },
    ),
}


@pytest.mark.parametrize("stem", sorted(SEARCH_PINS))
def test_search_pins_shipped_configs_bitwise(stem, monkeypatch):
    n_checks, fields, params = SEARCH_PINS[stem]
    calls = []
    for name in ("check_ge1", "check_ge2", "check_blowup"):
        original = getattr(feasibility, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(feasibility, name, counted)
    loaded = load(str(CONFIGS / f"{stem}.cfg"))
    bar, rep = find_params(loaded.constants, loaded.density, loaded.regime, **loaded.barrier_given)
    assert {key: getattr(bar, key) for key in fields} == fields
    assert rep.params == params
    assert len(calls) == n_checks


@pytest.mark.parametrize(
    "regime, m, p", [(REGIME_GE2, 2.0, 40.0), (REGIME_BLOWUP, 39.3, 39.45)], ids=["GE2", "Blowup"]
)
def test_search_evaluates_no_certificate_it_does_not_decide_by(regime, m, p):
    # C_HI^(p-1) overflows a float here, and the search evaluates no
    # certificate at C_HI: each takes C = 1 and the closed-form binding
    # amplitude, and Blowup's fits the budget at omega = OMEGA_MAX
    bar, rep = find_params(ProblemConstants(m=m, p=p, N=3), H2S_8, regime)
    assert rep.overall and check_auto(bar) == rep


def _blowup_draws(n=50, seed=20261019):
    """Seeded Blowup inputs from the boxes m in [1.2, 4], p > m, N in
    {3, ..., 6}, alpha in [1.2, 4], r0 in [e, 100], k1 in [0.5, 2] and
    k2/k1 in [1, 2].  Every fifth draw takes m <= 1.35 and p - m <= 1e-2,
    the corner that holds the inputs on which no omega flips within the
    amplitude budget."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        corner = i % 5 == 4
        m = rng.uniform(1.2, 1.35) if corner else rng.uniform(1.2, 4.0)
        gap = math.exp(rng.uniform(*np.log([1e-4, 1e-2] if corner else [1e-2, 3.0])))
        N = int(rng.integers(3, 7))
        alpha = rng.uniform(1.2, 4.0)
        r0 = math.exp(rng.uniform(1.0, math.log(100.0)))
        k1 = rng.uniform(0.5, 2.0)
        k2 = k1 * rng.uniform(1.0, 2.0)
        yield (
            ProblemConstants(m=m, p=m + gap, N=N),
            DensityParams(family="H2Smooth", alpha=alpha, r0=r0, k1=k1, k2=k2),
            {},
        )
    loaded = load(str(CONFIGS / "blowup.cfg"))
    yield loaded.constants, loaded.density, loaded.barrier_given


def _search_or_refusal(search):
    """What ``search()`` returns, or the message of its
    :class:`FeasibilitySearchError`."""
    try:
        return search()
    except FeasibilitySearchError as err:
        return str(err)


def test_blowup_search_in_closed_form(monkeypatch):
    # omega = OMEGA_MAX where its binding amplitude fits the budget, with
    # the barrier and report of the top of the former omega grid; elsewhere
    # the omega whose binding amplitude is C_HI/(1 + MARGIN); at most three
    # certificates either way
    probes = []

    def counted(bar):
        probes.append(bar)
        return check_blowup(bar)

    monkeypatch.setattr(feasibility, "check_blowup", counted)
    target = feasibility.C_HI / (1.0 + feasibility.MARGIN)
    outcomes = {"omega = 1": 0, "searched omega": 0, "searched omega, refused": 0, "no omega > 0": 0}
    for cc, dens, given in _blowup_draws():
        probes.clear()
        found = _search_or_refusal(lambda: find_params(cc, dens, REGIME_BLOWUP, **given))
        assert len(probes) <= 3
        top = build_barrier(cc, dens, REGIME_BLOWUP, 1.0, a=1.0 / feasibility.OMEGA_MAX, **given)
        boundary = feasibility._binding_amplitude(cc, check_blowup(top))
        if feasibility.C_LO <= boundary <= feasibility.C_HI:
            assert len(probes) == 2
            C = boundary * (1.0 + feasibility.MARGIN)
            bar = build_barrier(cc, dens, REGIME_BLOWUP, C, a=C ** (cc.m - 1.0) / feasibility.OMEGA_MAX, **given)

            def recheck():
                report = check_blowup(bar)
                feasibility.refuse_failing(report, "searched")
                feasibility.refuse_degenerate_support(bar)
                return bar, report

            assert found == _search_or_refusal(recheck)
            outcomes["omega = 1"] += 1
        elif len(probes) == 1:
            assert "no omega > 0" in found
            outcomes["no omega > 0"] += 1
        else:
            # the probe at C = 1 and the searched omega, between two others
            searched = probes[1]
            assert len(probes) == 3 and searched.C == 1.0
            amplitude = feasibility._binding_amplitude(cc, check_blowup(searched))
            assert amplitude == pytest.approx(target, rel=1e-12, abs=0.0)
            outcomes["searched omega, refused" if isinstance(found, str) else "searched omega"] += 1
    assert outcomes == {"omega = 1": 36, "searched omega": 11, "searched omega, refused": 1, "no omega > 0": 3}


# -- the atlas: what the search certifies and why it refuses -----------------

# The grid the ROADMAP measures coverage on: m, |p - m| with p on the
# regime's side of m (and p > 1), alpha, r0 and N, at the default T.
ATLAS = {
    "m": (1.2, 1.5, 2.0, 3.0, 4.0),
    "gap": (0.01, 0.1, 0.5, 1.0, 3.0),
    "alpha": (1.1, 1.5, 2.0, 3.0),
    "r0": (E, 4.0, 8.0, 100.0, 1.0e4),
    "N": (3, 4, 6),
}
# Each refusal reason, by a phrase its message holds.
ATLAS_REASONS = {
    "outside the budget": "binding amplitude",
    "laplacian_margin": "laplacian_margin fails",
    "p - m edge": "needs p - m >",
    "identically zero at t = 0": "identically zero at t = 0",
    "R(0) not finite": "is not a finite float",
    "R(0)^N not finite": "R(0)^N past the float range",
}
# A change that moves a count names the move in CHANGES.md.
ATLAS_PINS = {
    REGIME_GE1A: {"certified": 443, "outside the budget": 337, "laplacian_margin": 120},
    REGIME_GE1B: {"certified": 964, "outside the budget": 336, "laplacian_margin": 200},
    REGIME_GE2: {"certified": 492, "p - m edge": 615, "identically zero at t = 0": 393},
    REGIME_BLOWUP: {"certified": 1094, "R(0) not finite": 262, "R(0)^N not finite": 144},
}


@pytest.mark.parametrize("regime", sorted(ATLAS_PINS))
def test_search_on_the_atlas(regime):
    family = "H1" if regime in (REGIME_GE1A, REGIME_GE1B) else "H2Smooth"
    counts = {}
    for m, gap, alpha, r0, N in itertools.product(*ATLAS.values()):
        p = m - gap if regime == REGIME_GE1A else m + gap
        if not p > 1.0:
            continue
        try:
            _, report = find_params(
                ProblemConstants(m=m, p=p, N=N), DensityParams(family=family, alpha=alpha, r0=r0), regime
            )
        except FeasibilitySearchError as err:
            (reason,) = [k for k, phrase in ATLAS_REASONS.items() if phrase in str(err)]
        else:
            assert report.overall
            reason = "certified"
        counts[reason] = counts.get(reason, 0) + 1
    assert counts == ATLAS_PINS[regime]


# What compare decides on the first 30 atlas points of a seeded shuffle whose
# config resolves, at 256 cells and every other solver key at its default:
# each verdict, and each refusal (data at the blowup threshold, an R whose
# cell volumes pass the float range).  A change that moves a count names the
# move in CHANGES.md.
COMPARE_ATLAS_PINS = {
    REGIME_GE2: {"pass": 18, "fail": 12, "inconclusive": 0, "threshold": 0, "grid": 0},
    REGIME_BLOWUP: {"pass": 20, "fail": 0, "inconclusive": 0, "threshold": 10, "grid": 0},
}


@pytest.mark.parametrize("regime", sorted(COMPARE_ATLAS_PINS))
def test_compare_on_the_atlas(regime):
    points = list(itertools.product(*ATLAS.values()))
    random.Random(f"compare-atlas-{regime}").shuffle(points)
    counts = dict.fromkeys(COMPARE_ATLAS_PINS[regime], 0)
    for m, gap, alpha, r0, N in points:
        text = (f"[problem]\nm = {m!r}\np = {m + gap!r}\nN = {N}\n"
                f"[density]\nfamily = H2Smooth\nalpha = {alpha!r}\nr0 = {r0!r}\n"
                f"[barrier]\nregime = {regime}\n[solver]\ncells = 256\n")
        try:
            resolved = resolve(loads(text))
        except (ValueError, FeasibilitySearchError):
            continue
        try:
            outcome = comparison_experiment(resolved.barrier, resolved.solver, resolved.initial).verdict
        except ValueError as err:
            (outcome,) = [k for k, phrase in (("threshold", "blowup_threshold"), ("grid", "cell volumes"))
                          if phrase in str(err)]
        counts[outcome] += 1
        if sum(counts.values()) == 30:
            break
    assert counts == COMPARE_ATLAS_PINS[regime]


# -- certified implies a supersolution (or subsolution) on the sweep --------

def _search_draws(regime, n=100):
    """``n`` seeded inputs for ``regime`` from the box m in [1.2, 4],
    |p - m| log-uniform in [1e-3, 5] with p on the regime's side of m (a
    draw with p <= 1 is drawn again), alpha in [1.05, 4], r0 log-uniform
    in [e, 1e14], N in {3, ..., 6}, and T the default or a power of ten
    from 1e-3 to 1e9."""
    rng = random.Random(f"search-draws-{regime}")
    family = "H1" if regime in (REGIME_GE1A, REGIME_GE1B) else "H2Smooth"
    while n:
        m = rng.uniform(1.2, 4.0)
        gap = math.exp(rng.uniform(math.log(1.0e-3), math.log(5.0)))
        p = m - gap if regime == REGIME_GE1A else m + gap
        alpha = rng.uniform(1.05, 4.0)
        r0 = math.exp(rng.uniform(1.0, math.log(1.0e14)))
        N = rng.choice((3, 4, 5, 6))
        T = rng.choice((None,) + tuple(10.0**k for k in range(-3, 10)))
        if p > 1.0:
            n -= 1
            yield ProblemConstants(m=m, p=p, N=N), DensityParams(family=family, alpha=alpha, r0=r0), T


@pytest.mark.parametrize("regime", sorted(ATLAS_PINS))
def test_certified_barriers_pass_their_sweep(regime):
    # a nan margin fails the sweep: a certified barrier is one doubles can
    # evaluate (refuse_degenerate_support)
    certified = 0
    for cc, dens, T in _search_draws(regime):
        try:
            bar, _ = find_params(cc, dens, regime, T=T)
        except FeasibilitySearchError:
            continue
        certified += 1
        sweep = residual_sweep(bar)
        assert sweep.passed, (cc, dens, T, sweep.min_margin)
    assert certified > 0
