import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pme_react import cli, feasibility
from pme_react.barrier import E, BlowupSubsolution, GE2Barrier
from pme_react.config import load
from pme_react.density import DensityParams, ProblemConstants
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
    check_ge2_pointwise,
    find_params,
    ge2_drift_minimum,
    omega_of,
    time_conditions_blowup,
    time_conditions_ge1,
    time_conditions_ge2,
)

CC23 = ProblemConstants(m=2.0, p=3.0, N=3)
CC32 = ProblemConstants(m=3.0, p=2.0, N=3)
CC22 = ProblemConstants(m=2.0, p=2.0, N=3)

H1_FAR = DensityParams(family="H1", alpha=2.0, r0=1000.0)
H1_NEAR = DensityParams(family="H1", alpha=2.0, r0=25.0)
H2S_8 = DensityParams(family="H2Smooth", alpha=2.0, r0=8.0)
H2S_E = DensityParams(family="H2Smooth", alpha=2.0, r0=E)
H2S_UNIT = DensityParams(family="H2Smooth", alpha=2.0, r0=E, rho1=1.0, rho2=1.0)


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
    return BlowupSubsolution(constants=CC23, C=C, a=C, T=1.0, bunder=3.0)


def test_blowup_branch_values():
    rep = check_blowup(unit_subsolution(300.0), H2S_UNIT)
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
    above = check_blowup(unit_subsolution(threshold * 1.0001), H2S_UNIT)
    below = check_blowup(unit_subsolution(threshold * 0.9999), H2S_UNIT)
    assert above.overall
    assert above.entry("outer_coupling").passed
    assert not below.overall
    assert not below.entry("outer_coupling").passed
    # every other inequality is slack at both amplitudes
    for rep in (above, below):
        for name in ("outer_shape_exponent", "outer_gap_amplitude", "inner_gap_amplitude", "inner_coupling"):
            assert rep.entry(name).passed


def test_blowup_requires_two_sided_weight():
    with pytest.raises(ValueError):
        check_blowup(unit_subsolution(300.0), H1_NEAR)


def test_blowup_shape_exponent_must_match_alpha():
    bar = BlowupSubsolution(constants=CC23, C=300.0, a=300.0, T=1.0, bunder=2.5)
    rep = check_blowup(bar, H2S_UNIT)
    assert not rep.entry("outer_shape_exponent").passed


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=50.0, max_value=400.0),
    st.floats(min_value=1.0, max_value=4.0),
)
def test_blowup_pass_is_monotone_in_amplitude(C, boost):
    """At fixed omega = 1 a passing amplitude keeps passing when raised."""
    if check_blowup(unit_subsolution(C), H2S_UNIT).overall:
        assert check_blowup(unit_subsolution(C * boost), H2S_UNIT).overall


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
    lean = dataclasses.replace(bar, C=bar.C / 1.05)
    rep = check_ge1(lean, H1_FAR)
    assert not rep.overall
    assert not rep.entry("amplitude_balance").passed
    for name in ("b_positive", "b_below_alpha_window", "laplacian_margin",
                 "epsilon_floor", "beta_mode", "time_shift_gt_one"):
        assert rep.entry(name).passed


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
    fat = dataclasses.replace(bar, C=bar.C * 1.05)
    assert not check_ge1(fat, H1_NEAR).entry("amplitude_balance").passed


def test_ge1_requires_h1_weight(ge1b_found):
    bar, _ = ge1b_found
    with pytest.raises(ValueError):
        check_ge1(bar, H2S_8)


def test_ge1_search_rejects_bad_shape():
    with pytest.raises(FeasibilitySearchError):
        find_params(CC32, H1_FAR, REGIME_GE1A, b=1.2)
    # r0 = e leaves no admissible eps window at all
    with pytest.raises(FeasibilitySearchError):
        find_params(CC23, DensityParams(family="H1", alpha=2.0, r0=E), REGIME_GE1B)


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
            # with beta = 0 the GE1 barrier itself accepts p > m
            build_barrier(cc, dens, regime, 0.5, beta=0.0 if regime == REGIME_GE1A else None)
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
    with pytest.raises(ValueError, match="p > m requires beta == 0"):
        find_params(CC23, H1_NEAR, REGIME_GE1B, beta=0.3)


# -- GE2: envelope collapse and the pointwise rescue ------------------------


def test_ge2_drift_minimum_against_dense_grid():
    got = ge2_drift_minimum(3, 8.0)
    r = np.geomspace(1e-4, 1e10, 400001)
    L = np.log(r + 8.0)
    grid_min = float(np.min(2.0 * (1.0 + 8.0 / r) * L - L))
    assert got == pytest.approx(grid_min, rel=1e-8)
    assert got <= grid_min + 1e-12  # polish can only improve on the grid


def test_ge2_drift_minimum_pinned_values():
    # the values scipy's bounded Brent polish gave before the in-package port
    assert ge2_drift_minimum(3, 8.0) == 5.344673365927255
    assert ge2_drift_minimum(3, E) == 3.906557937512901


def test_fminbound_matches_scipy_bitwise(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    fminbound = feasibility._fminbound
    calls = []

    def recording(f, a, b, xatol):
        got = fminbound(f, a, b, xatol)
        want = optimize.minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": xatol})
        calls.append((got, want.fun))
        return got

    monkeypatch.setattr(feasibility, "_fminbound", recording)
    rng = np.random.default_rng(20240604)
    cases = [(3, 8.0), (3, E), (3, 25.0), (3, 1000.0)]
    cases += [(int(n), float(r0)) for n, r0 in zip(rng.integers(2, 7, 40), 10.0 ** rng.uniform(-2, 4, 40))]
    for N, r0 in cases:
        ge2_drift_minimum.__wrapped__(N, r0)  # bypass the cache: g and the bracket as used
    assert len(calls) == len(cases)
    for (got, want), case in zip(calls, cases):
        assert got == want, case


def test_ge2_envelope_is_empty_at_unit_band():
    # k1 = k2 = 1, bbar = 4, m = 2, p = 3: X = (4*2+0) - 4 = 4 and the
    # decay-rate cap omega <= 1/64 forces the balance rhs below C^2 + 1/2
    # for every positive C, so the envelope condition set admits nothing.
    bar = GE2Barrier(constants=CC23, C=0.72, a=46.7, T=1.0, bbar=4.0, r0=8.0)
    rep = check_ge2(bar, H2S_8)
    assert rep.params["X"] == pytest.approx(4.0, rel=1e-14)
    assert rep.entry("density_ratio_window").passed
    assert rep.entry("support_decay_rate").passed
    assert not rep.entry("amplitude_balance").passed
    assert not rep.overall
    # closer to p = m the decay-rate cap on omega shrinks with p - m, and
    # neither condition set admits an amplitude
    cc = ProblemConstants(m=2.0, p=2.05, N=3)
    with pytest.raises(FeasibilitySearchError, match="both the envelope and the pointwise"):
        find_params(cc, H2S_8, REGIME_GE2)


@pytest.fixture(scope="module")
def ge2_found():
    return find_params(CC23, H2S_8, REGIME_GE2)


def test_ge2_pointwise_parameters(ge2_found):
    bar, rep = ge2_found
    assert rep.overall
    assert rep.condition_set == "pointwise"
    # the decay-rate cap (p-m)/((p-1) bbar^2 (m/(m-1)) k1) is exactly 1/64
    omega = omega_of(bar.C, bar.a, 2.0)
    assert rep.params["omega_feasible_hi"] == pytest.approx(1.0 / 64.0, rel=1e-12)
    assert omega == pytest.approx((1.0 / 64.0) / 1.01, rel=1e-9)
    assert rep.params["drift_bracket_min"] == pytest.approx(8.344673, abs=1e-4)
    assert bar.bbar == 4.0 and bar.r0 == 8.0


def test_ge2_pointwise_balance_margin(ge2_found):
    bar, _ = ge2_found
    rep = check_ge2_pointwise(bar, H2S_8)
    bal = rep.entry("amplitude_balance_pointwise")
    assert bal.passed
    assert 0.0 <= bal.slack <= 0.1 * bal.rhs  # found amplitude hugs the cap
    lean = dataclasses.replace(bar, C=bar.C * 1.1)
    assert not check_ge2_pointwise(lean, H2S_8).overall


# -- round-trips and the time-grid conditions -------------------------------


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
        again = check_auto(bar, dens)
        assert again.overall
        assert again.mode == rep.mode


def test_blowup_found_values(blowup_found):
    bar, rep = blowup_found
    assert rep.params["omega"] == pytest.approx(1.0, rel=1e-12)
    assert bar.a == pytest.approx(bar.C, rel=1e-12)
    # derived inverse-weight bounds of the canonical member on [0, e]
    assert rep.params["rho1"] == pytest.approx(7.019603, abs=1e-5)
    assert rep.params["rho2"] == pytest.approx(10.825522, abs=1e-5)
    assert rep.params["branch_inner"] == pytest.approx(27.371351, abs=1e-5)


def test_time_grid_conditions_hold(ge1a_found, ge1b_found, blowup_found):
    for (bar, _), dens, fn in (
        (ge1a_found, H1_FAR, time_conditions_ge1),
        (ge1b_found, H1_NEAR, time_conditions_ge1),
        (blowup_found, H2S_E, time_conditions_blowup),
    ):
        rep = fn(bar, dens)
        assert rep.overall, rep.min_margins
        assert all(v >= 0.0 for v in rep.min_margins.values())
        assert len(rep.t_grid) == 1000


def test_time_grid_ge2_reports_envelope_collapse(ge2_found):
    """The GE2 time grid transcribes the envelope-form balance, which is
    empty at the unit band; it must say so even though the pointwise
    certificate (and the actual residual) hold at the found parameters."""
    bar, rep = ge2_found
    assert rep.overall  # the pointwise certificate passed
    grid = time_conditions_ge2(bar, H2S_8)
    assert grid.min_margins["support_decay_rate"] >= 0.0
    assert grid.min_margins["drift_balance"] < 0.0
    assert not grid.overall


def test_reports_serialize(ge2_found, blowup_found):
    # the command line writes a report's fields as its JSON keys
    for bar, rep in (ge2_found, blowup_found):
        text = json.dumps(cli._finite_or_null(rep), indent=2, sort_keys=True, allow_nan=False)
        parsed = json.loads(text)
        assert set(parsed) == {"mode", "condition_set", "inequalities", "params", "overall"}
        assert parsed["overall"] is True and parsed["mode"] == bar.regime
        assert [e["name"] for e in parsed["inequalities"]] == [e.name for e in rep.inequalities]
        for e in parsed["inequalities"]:
            assert set(e) == {"name", "lhs", "rhs", "slack", "passed", "strict"}


def test_report_mode_is_the_barrier_regime(ge1a_found, ge1b_found, ge2_found, blowup_found):
    for bar, dens in ((ge1a_found[0], H1_FAR), (ge1b_found[0], H1_NEAR)):
        assert check_ge1(bar, dens).mode == bar.regime
    for (bar, rep), want in (
        (ge1a_found, REGIME_GE1A), (ge1b_found, REGIME_GE1B),
        (ge2_found, REGIME_GE2), (blowup_found, REGIME_BLOWUP),
    ):
        assert bar.regime == rep.mode == want


# -- the search: bisection and evaluation counts -----------------------------


def _bisect_all_halvings(pred):
    """Reference bisection: every one of the ``BISECT_ITERS`` halvings, with
    no stop at float resolution."""
    f_lo = pred(feasibility.C_LO)
    if f_lo == pred(feasibility.C_HI):
        raise FeasibilitySearchError("no flip")
    llo, lhi = math.log(feasibility.C_LO), math.log(feasibility.C_HI)
    for _ in range(feasibility.BISECT_ITERS):
        mid = 0.5 * (llo + lhi)
        if pred(math.exp(mid)) == f_lo:
            llo = mid
        else:
            lhi = mid
    return math.exp(0.5 * (llo + lhi))


def _ulps_from(x, toward, k):
    for _ in range(k):
        x = np.nextafter(x, toward)
    return float(x)


def test_bisect_flip_matches_all_halvings():
    lo, hi = feasibility.C_LO, feasibility.C_HI
    rng = np.random.default_rng(2024)
    thresholds = [float(x) for x in np.exp(rng.uniform(math.log(lo), math.log(hi), 190))]
    # a few ulps inside either end (one ulp of log(C) is ~16 ulps of C
    # there), and at 1, where the floats are dense enough that the halving
    # cap binds
    thresholds += [_ulps_from(lo, hi, k) for k in (1, 2, 3, 15, 16, 17)]
    thresholds += [_ulps_from(hi, lo, k) for k in (0, 1, 2, 15, 16, 17)]
    thresholds += [1.0, _ulps_from(1.0, hi, 1), _ulps_from(1.0, lo, 1)]
    assert len(thresholds) >= 200
    calls = []
    for thr in thresholds:
        for pred in (lambda C: C >= thr, lambda C: C < thr):
            counted = []

            def tally(C, pred=pred):
                counted.append(C)
                return pred(C)

            got = feasibility._bisect_flip(tally)
            assert got == _bisect_all_halvings(pred), thr
            calls.append(len(counted))
    assert max(calls) <= 2 + feasibility.BISECT_ITERS
    # the stop at float resolution cuts a typical search well below the cap
    assert sorted(calls)[len(calls) // 2] < 2 + 60
    for constant in (True, False):
        with pytest.raises(FeasibilitySearchError):
            feasibility._bisect_flip(lambda C: constant)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# What find_params returns for each shipped barrier config, bit for bit, and
# how many certificates (check_* calls) it evaluates to get there.
SEARCH_PINS = {
    "ge1a": (
        62,
        {"C": 0.7223383898691894, "T": 2.0},
        {
            "C": 0.7223383898691894, "T": 2.0, "beta": 0.05, "b": 0.95,
            "eps": 0.2791957944233054, "r0": 1000.0, "cbar": 0.29404915507676693,
            "k0": 0.95, "K0": 0.4111503012892854,
        },
    ),
    "ge1b": (
        60,
        {"C": 0.339620451625722, "T": 1.0},
        {
            "C": 0.339620451625722, "T": 1.0, "beta": 0.0, "b": 0.5,
            "eps": 0.46633381508943156, "r0": 25.0, "cbar": 0.4161231071231106,
            "k0": 0.95, "K0": 0.14273715674878001,
        },
    ),
    "ge2": (
        115,
        {"C": 0.7226750271573944, "a": 46.71371375545397, "T": 1.0},
        {
            "C": 0.7226750271573944, "a": 46.71371375545397, "T": 1.0, "bbar": 4.0,
            "r0": 8.0, "omega": 0.01547029702970297, "k_canonical": 1.0,
            "drift_bracket_min": 8.344673365927255,
            "omega_feasible_lo": 0.008786583206099204, "omega_feasible_hi": 0.015625,
        },
    ),
    "blowup": (
        108,
        {"C": 219.23110174053843, "a": 219.23110174053843, "T": 1.0},
        {
            "C": 219.23110174053843, "a": 219.23110174053843, "T": 1.0, "bunder": 3.0,
            "omega": 1.0, "k2": 1.0, "rho1": 7.019603293984117,
            "rho2": 10.825521594868949, "K": 0.3849001794597505, "branch_outer": 43.0,
            "branch_inner": 27.37135056206182, "omega_feasible_lo": 0.001,
            "omega_feasible_hi": 1.0,
        },
    ),
}


@pytest.mark.parametrize("stem", sorted(SEARCH_PINS))
def test_search_pins_shipped_configs_bitwise(stem, monkeypatch):
    n_checks, fields, params = SEARCH_PINS[stem]
    calls = []
    for name in ("check_ge1", "check_ge2", "check_ge2_pointwise", "check_blowup"):
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
