import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pme_react.barrier import (
    E,
    KINK_TOL,
    REGIME_BLOWUP,
    REGIME_GE1A,
    REGIME_GE1B,
    REGIME_GE2,
    BlowupSubsolution,
    GE1Barrier,
    GE2Barrier,
    KinkError,
    TimeDomainError,
    sfrak,
)
from pme_react.density import ProblemConstants

CC23 = ProblemConstants(m=2.0, p=3.0, N=3)
CC32 = ProblemConstants(m=3.0, p=2.0, N=3)


# -- shape function ---------------------------------------------------------


def test_sfrak_values():
    assert sfrak(E, 3.0) == pytest.approx(1.0, abs=1e-15)
    assert sfrak(0.0, 3.0) == pytest.approx(-0.5, abs=1e-15)
    assert sfrak(E**2, 3.0) == pytest.approx(8.0, rel=1e-14)
    arr = sfrak(np.array([0.0, E, E**2]), 3.0)
    assert arr.shape == (3,)
    assert arr[2] == pytest.approx(8.0, rel=1e-14)


@given(st.floats(min_value=1e-7, max_value=1e-3))
def test_sfrak_c1_gluing(h):
    """Value and slope agree across r = e; the curvature jumps."""
    b = 3.0
    assert sfrak(E + h, b) - sfrak(E - h, b) == pytest.approx(0.0, abs=4.0 * h)
    slope = (sfrak(E + h, b) - sfrak(E - h, b)) / (2.0 * h)
    assert slope == pytest.approx(b / E, rel=1e-2, abs=2.0 * h)


def test_sfrak_curvature():
    # One-sided curvatures at e are b/e^2 (inner) and b(b-2)/e^2 (outer):
    # they jump for generic b but coincide exactly at b = 3.
    def second_diffs(b, h=1e-5):
        left = (sfrak(E, b) - 2 * sfrak(E - h, b) + sfrak(E - 2 * h, b)) / h**2
        right = (sfrak(E + 2 * h, b) - 2 * sfrak(E + h, b) + sfrak(E, b)) / h**2
        return left, right

    left, right = second_diffs(2.5)
    assert left == pytest.approx(2.5 / E**2, rel=1e-3)
    assert right == pytest.approx(2.5 * 0.5 / E**2, rel=1e-3)
    assert abs(left - right) > 0.1

    left, right = second_diffs(3.0)
    assert left == pytest.approx(right, rel=1e-3)


# -- GE1 --------------------------------------------------------------------


def ge1(**kw):
    args = dict(constants=CC23, C=1.0, T=1.0, b=1.0, eps=0.25, r0=E, beta=0.0)
    args.update(kw)
    return GE1Barrier(**args)


def test_ge1_point_values():
    bar = ge1()
    assert bar.eval(0.0, 0.0) == pytest.approx(1.0, rel=1e-14)
    d = bar.eval_derivatives(0.0, 0.0)
    assert d.w_t == 0.0
    assert d.wm_r == pytest.approx(-1.0 / E, rel=1e-14)


def test_ge1_cbar():
    bar = ge1(r0=E**2)
    # (log r0)^(-b p / m) with b=1, p=3, m=2
    assert bar.cbar == pytest.approx(2.0 ** (-1.5), rel=1e-14)


def test_ge1_beta_regime_coupling():
    with pytest.raises(ValueError):
        ge1(beta=0.1)  # p > m forbids a growing amplitude
    grow = GE1Barrier(constants=CC32, C=1.0, T=2.0, b=1.0, eps=0.25, r0=E, beta=0.05)
    assert grow.eval(0.0, 0.0) == pytest.approx(2.0**0.05, rel=1e-14)
    with pytest.raises(ValueError):
        GE1Barrier(constants=CC32, C=1.0, T=2.0, b=1.0, eps=0.25, r0=E, beta=0.0)
    with pytest.raises(ValueError):
        GE1Barrier(
            constants=ProblemConstants(m=2.0, p=2.0, N=3),
            C=1.0, T=1.0, b=1.0, eps=0.25, r0=E,
        )


def test_regime_follows_class_and_exponents():
    assert ge1().regime == REGIME_GE1B  # p > m
    grow = GE1Barrier(constants=CC32, C=1.0, T=2.0, b=1.0, eps=0.25, r0=E, beta=0.05)
    assert grow.regime == REGIME_GE1A  # p < m
    assert GE2Barrier(constants=CC23, C=1.0, a=1.0, T=1.0, bbar=4.0, r0=E).regime == REGIME_GE2
    assert BlowupSubsolution(constants=CC23, C=1.0, a=1.0, T=1.0, bunder=3.0).regime == REGIME_BLOWUP
    # the compact profiles exist for p > m only, so p < m names no regime
    for cls, shape in ((GE2Barrier, dict(bbar=4.0, r0=E)), (BlowupSubsolution, dict(bunder=3.0))):
        with pytest.raises(ValueError, match="requires p > m"):
            cls(constants=CC32, C=1.0, a=1.0, T=1.0, **shape)


def test_ge1_validation():
    for bad in (dict(C=0.0), dict(T=-1.0), dict(b=0.0), dict(eps=0.0), dict(r0=1.0)):
        with pytest.raises(ValueError):
            ge1(**bad)


def test_ge1_monotone_decay_in_r():
    bar = ge1()
    r = np.linspace(0.0, 100.0, 201)
    vals = bar.eval(r, 0.5)
    assert np.all(np.diff(vals) < 0.0)


def test_ge1_scalar_array_parity():
    bar = ge1()
    r = np.array([0.0, 1.0, 7.0])
    t = 0.3
    vec = bar.eval(r, t)
    d = bar.eval_derivatives(r, t)
    for i, ri in enumerate(r):
        assert vec[i] == bar.eval(float(ri), t)
        di = bar.eval_derivatives(float(ri), t)
        assert d.lap_wm[i] == di.lap_wm


# -- GE2 --------------------------------------------------------------------


def ge2(**kw):
    args = dict(constants=CC23, C=0.7, a=40.0, T=1.0, bbar=4.0, r0=8.0)
    args.update(kw)
    return GE2Barrier(**args)


def test_ge2_validation():
    with pytest.raises(ValueError):
        ge2(constants=CC32)  # needs p > m
    for bad in (dict(C=0.0), dict(a=-1.0), dict(T=0.0), dict(bbar=3.0), dict(r0=2.0)):
        with pytest.raises(ValueError):
            ge2(**bad)


def test_ge2_support_radius_formula():
    bar = ge2()
    for t in (0.0, 0.5, 3.0):
        eta = (bar.T + t) ** (-(3.0 - 2.0) / (3.0 - 1.0))
        expect = math.exp((bar.a / eta) ** 0.25) - bar.r0
        assert bar.support_radius(t) == pytest.approx(expect, rel=1e-14)
    # support spreads
    assert bar.support_radius(3.0) > bar.support_radius(0.0)


def test_ge2_degenerate_support_warns():
    bar = ge2(a=1.0)
    with pytest.warns(RuntimeWarning):
        assert bar.support_radius(0.0) == 0.0


def test_ge2_vanishes_outside_support():
    bar = ge2()
    r_star = bar.support_radius(0.0)
    assert bar.eval(r_star + 1.0, 0.0) == 0.0
    d = bar.eval_derivatives(r_star + 1.0, 0.0)
    assert d.w_t == d.wm_r == d.wm_rr == d.lap_wm == 0.0
    assert bar.eval(r_star - 1.0, 0.0) > 0.0


def test_ge2_kink_refusal():
    bar = ge2()
    r_star = bar.support_radius(0.0)
    with pytest.raises(KinkError):
        bar.eval_derivatives(r_star + 0.5 * KINK_TOL, 0.0)
    # eval itself is continuous there and does not refuse
    assert bar.eval(r_star + 0.5 * KINK_TOL, 0.0) >= 0.0
    bar.eval_derivatives(r_star + 1e-6, 0.0)  # just outside the guard band


def test_ge2_amplitude_decays():
    bar = ge2()
    peaks = [bar.eval(0.0, t) for t in (0.0, 1.0, 3.0, 10.0, 100.0)]
    assert all(a > b > 0.0 for a, b in zip(peaks, peaks[1:]))
    # independent recompute of the peak: zeta and the origin profile factor
    t = 3.0
    zeta = (bar.T + t) ** (-0.5)
    eta = (bar.T + t) ** (-0.5)
    F = 1.0 - math.log(bar.r0) ** bar.bbar * eta / bar.a
    assert bar.eval(0.0, t) == pytest.approx(bar.C * zeta * F, rel=1e-13)


# -- blow-up subsolution ----------------------------------------------------


def bu(**kw):
    args = dict(constants=CC23, C=1.0, a=1.0, T=1.0, bunder=3.0)
    args.update(kw)
    return BlowupSubsolution(**args)


def test_blowup_validation():
    with pytest.raises(ValueError):
        bu(constants=CC32)
    for bad in (dict(C=0.0), dict(a=0.0), dict(T=-2.0), dict(bunder=2.0)):
        with pytest.raises(ValueError):
            bu(**bad)


def test_blowup_point_value_at_origin():
    bar = bu()
    # P(0,0) = 1 - sfrak(0) = 1.5 and zeta(0) = 1, so w = C * 1.5^(1/(m-1))
    assert bar.eval(0.0, 0.0) == pytest.approx(1.5, rel=1e-14)


def test_blowup_time_domain():
    bar = bu()
    for t in (1.0, 1.5):
        with pytest.raises(TimeDomainError):
            bar.eval(0.0, t)
        with pytest.raises(TimeDomainError):
            bar.eval_derivatives(0.0, t)
        with pytest.raises(TimeDomainError):
            bar.support_radius(t)
        with pytest.raises(TimeDomainError):
            bar.flux_match(t)
    with pytest.raises(TimeDomainError):
        bar.eval(np.zeros(3), np.array([0.0, 0.5, 1.0]))


def test_blowup_support_branches():
    bar = bu()
    # at t=0 the level a/eta is exactly 1: the two branch formulas meet at e
    assert bar.support_radius(0.0) == pytest.approx(E, rel=1e-14)
    # deep in the paraboloid regime the support tends to e sqrt((b-2)/b)
    limit = E * math.sqrt(1.0 / 3.0)
    assert bar.support_radius(1.0 - 1e-12) == pytest.approx(limit, rel=1e-3)
    assert limit == pytest.approx(1.56940, abs=1e-4)
    # support shrinks monotonically
    radii = [bar.support_radius(t) for t in (0.0, 0.5, 0.9, 0.99)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_blowup_amplitude_diverges():
    bar = bu()
    assert bar.eval(0.0, 1.0 - 1e-6) / bar.eval(0.0, 0.0) > 1000.0


def test_blowup_kink_refusals():
    bar = bu(T=2.0)
    with pytest.raises(KinkError):
        bar.eval_derivatives(E + 0.1 * KINK_TOL, 0.5)
    r_star = bar.support_radius(0.5)
    assert abs(r_star - E) > 1e-3  # distinct corners at this time
    with pytest.raises(KinkError):
        bar.eval_derivatives(r_star, 0.5)
    bar.eval_derivatives(0.5, 0.5)  # interior of the paraboloid piece is fine


def test_blowup_flux_match():
    bar = bu(T=2.0, a=3.0)
    rec = bar.flux_match(0.7)
    assert rec.rel_jump <= 1e-12
    assert rec.left_flux < 0.0  # outward flux through r = e
    assert rec.left_flux == pytest.approx(rec.right_flux, rel=1e-12)


def test_blowup_paraboloid_branch_matches_central_differences():
    # every point inside r < e, where sfrak is the paraboloid, and inside
    # the support at each time
    bar = bu(T=2.0, a=3.0)
    m, h = bar.constants.m, 1.0e-5
    for t in (0.0, 0.3, 0.7, 1.2, 1.5):
        r = np.linspace(0.1, E - 0.05, 12)
        assert bar.support_radius(t) > E
        d = bar.eval_derivatives(r, t)
        w_t = (bar.eval(r, t + h) - bar.eval(r, t - h)) / (2.0 * h)
        wm_r = (bar.eval(r + h, t) ** m - bar.eval(r - h, t) ** m) / (2.0 * h)
        wm_rr = (bar.eval_derivatives(r + h, t).wm_r - bar.eval_derivatives(r - h, t).wm_r) / (2.0 * h)
        np.testing.assert_allclose(d.w_t, w_t, rtol=1e-6)
        np.testing.assert_allclose(d.wm_r, wm_r, rtol=1e-6)
        np.testing.assert_allclose(d.wm_rr, wm_rr, rtol=1e-6)


@pytest.mark.parametrize(
    "bar, r",
    [(bu(T=2.0), [0.0, 1.0, 2.0, 5.0]), (ge2(), [0.0, 1.0, 3.0, 5.0])],
    ids=["blowup", "ge2"],
)
def test_compact_scalar_array_parity(bar, r):
    r = np.array(r)
    vec = bar.eval(r, 0.25)
    d = bar.eval_derivatives(r, 0.25)
    for i, ri in enumerate(r):
        assert vec[i] == bar.eval(float(ri), 0.25)
        di = bar.eval_derivatives(float(ri), 0.25)
        assert (d.w_t[i], d.wm_r[i], d.wm_rr[i], d.lap_wm[i]) == (di.w_t, di.wm_r, di.wm_rr, di.lap_wm)


def test_compact_eval_is_the_closed_form_bit_for_bit():
    # ``C zeta F^(1/(m-1))`` with ``F = 1 - S eta/a``, written out in the
    # order the profiles evaluate it: initial data, hypothesis checks and
    # compare verdicts depend on these bits
    m, p = 2.5, 3.5
    cc = ProblemConstants(m=m, p=p, N=3)
    q = 1.0 / (m - 1.0)

    def profile(C, zeta, eta, a, S):
        F = 1.0 - S * eta / a
        return np.where(F > 0.0, C * zeta * np.where(F > 0.0, F, 1.0) ** q, 0.0)

    r = np.linspace(0.0, 12.0, 241)
    t = np.linspace(0.0, 1.9, 241)
    g = GE2Barrier(constants=cc, C=0.7, a=40.0, T=1.0, bbar=4.0, r0=8.0)
    s = g.T + t
    S = np.log(r + g.r0) ** g.bbar
    want = profile(g.C, s ** (-1.0 / (p - 1.0)), s ** (-(p - m) / (p - 1.0)), g.a, S)
    assert (want == 0.0).any() and (want > 0.0).any()
    assert g.eval(r, t).tobytes() == want.tobytes()

    b = BlowupSubsolution(constants=cc, C=1.0, a=3.0, T=2.0, bunder=3.0)
    s = b.T - t
    outer = r >= E
    S = np.where(outer, np.log(np.where(outer, r, E)) ** b.bunder, b.bunder * r**2 / (2.0 * E**2) + 1.0 - b.bunder / 2.0)
    want = profile(b.C, s ** (-1.0 / (p - 1.0)), s ** ((m - p) / (p - 1.0)), b.a, S)
    assert outer.any() and (~outer).any() and (want == 0.0).any() and (want > 0.0).any()
    assert b.eval(r, t).tobytes() == want.tobytes()
    assert sfrak(r, b.bunder).tobytes() == S.tobytes()
