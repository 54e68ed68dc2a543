import math
import warnings
from dataclasses import dataclass

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
    _compact_terms,
    _log_branch,
    _paraboloid_branch,
    sfrak,
)
from pme_react.density import DensityParams, ProblemConstants
from pme_react.feasibility import check_ge1

CC23 = ProblemConstants(m=2.0, p=3.0, N=3)
CC32 = ProblemConstants(m=3.0, p=2.0, N=3)


def h1(r0=E, alpha=2.0):
    return DensityParams(family="H1", alpha=alpha, r0=r0)


def h2(r0=E, alpha=2.0):
    return DensityParams(family="H2Smooth", alpha=alpha, r0=r0)


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


def ge1(r0=E, **kw):
    args = dict(constants=CC23, density=h1(r0), C=1.0, T=1.0, b=1.0, eps=0.25, beta=0.0)
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


def passes(bar, entry):
    """Whether ``bar`` passes the named entry of its certificate."""
    (e,) = [e for e in check_ge1(bar).inequalities if e.name == entry]
    return e.passed


def test_ge1_beta_regime_coupling():
    # the barrier builds for any beta; the certificate's beta_mode entry
    # ties it to the regime
    assert passes(ge1(), "beta_mode")
    assert not passes(ge1(beta=0.1), "beta_mode")  # p > m forbids a growing amplitude
    grow = GE1Barrier(constants=CC32, density=h1(), C=1.0, T=2.0, b=1.0, eps=0.25, beta=0.05)
    assert grow.eval(0.0, 0.0) == pytest.approx(2.0**0.05, rel=1e-14)
    assert passes(grow, "beta_mode")
    for beta in (0.0, -0.05):  # p < m needs a growing amplitude
        assert not passes(grow._replace(beta=beta), "beta_mode")
    with pytest.raises(ValueError, match="p == m"):
        GE1Barrier(
            constants=ProblemConstants(m=2.0, p=2.0, N=3), density=h1(),
            C=1.0, T=1.0, b=1.0, eps=0.25,
        )


def test_regime_follows_class_and_exponents():
    assert ge1().regime == REGIME_GE1B  # p > m
    grow = GE1Barrier(constants=CC32, density=h1(), C=1.0, T=2.0, b=1.0, eps=0.25, beta=0.05)
    assert grow.regime == REGIME_GE1A  # p < m
    assert GE2Barrier(constants=CC23, density=h2(), C=1.0, a=1.0, T=1.0).regime == REGIME_GE2
    assert BlowupSubsolution(constants=CC23, density=h2(), C=1.0, a=1.0, T=1.0).regime == REGIME_BLOWUP
    # the compact profiles exist for p > m only, so p < m names no regime
    for cls in (GE2Barrier, BlowupSubsolution):
        with pytest.raises(ValueError, match="requires p > m"):
            cls(constants=CC32, density=h2(), C=1.0, a=1.0, T=1.0)


def test_ge1_validation():
    # the barrier refuses only what leaves its profile undefined, and its
    # weight an r0 below e
    for bad in (dict(C=0.0), dict(T=-1.0), dict(r0=1.0)):
        with pytest.raises(ValueError):
            ge1(**bad)
    # the windows of b and eps are the certificate's entries
    for bad, entry in (
        (dict(b=0.0), "b_positive"),
        (dict(b=-1.0), "b_positive"),
        (dict(b=-3.0), "b_positive"),
        (dict(b=1.0), "b_below_alpha_window"),
        (dict(eps=0.0), "epsilon_floor"),
        (dict(eps=0.4, r0=E**2), "epsilon_floor"),
        (dict(eps=1.0, r0=E**4), "laplacian_margin"),
    ):
        assert passes(ge1(b=0.5, eps=0.5, r0=E**4), entry)
        assert not passes(ge1(**{"b": 0.5, "eps": 0.5, "r0": E**4, **bad}), entry)


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


def ge2(r0=8.0, alpha=2.0, **kw):
    args = dict(constants=CC23, density=h2(r0, alpha), C=0.7, a=40.0, T=1.0)
    args.update(kw)
    return GE2Barrier(**args)


def test_ge2_validation():
    with pytest.raises(ValueError):
        ge2(constants=CC32)  # needs p > m
    # alpha = 1 (bbar = 3) and r0 < e are refused by the weight
    for bad in (dict(C=0.0), dict(a=-1.0), dict(T=0.0), dict(alpha=1.0), dict(r0=2.0)):
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


def test_ge2_empty_support_is_nonpositive_without_warning():
    bar = ge2(a=1.0)  # exp((a/eta)^(1/4)) = e < r0 = 8 at t = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_star = bar.support_radius(0.0)
    assert r_star <= 0.0
    assert r_star == pytest.approx(E - bar.r0, rel=1e-14)
    assert bar.eval(0.0, 0.0) == 0.0


def test_ge2_overflowing_support_is_inf_without_warning():
    bar = ge2(a=1.0e11)  # R(0) ~ exp(562), R(10) ~ exp(758)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radii = bar.support_radius(np.array([0.0, 10.0]))
        assert bar.support_radius(10.0) == math.inf
    assert math.isfinite(radii[0]) and radii[1] == math.inf


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


def bu(alpha=2.0, **kw):
    args = dict(constants=CC23, density=h2(alpha=alpha), C=1.0, a=1.0, T=1.0)
    args.update(kw)
    return BlowupSubsolution(**args)


def test_blowup_validation():
    with pytest.raises(ValueError):
        bu(constants=CC32)
    # alpha = 1 (bunder = 2) is refused by the weight
    for bad in (dict(C=0.0), dict(a=0.0), dict(T=-2.0), dict(alpha=1.0)):
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
            flux_match(bar, t)
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


@pytest.mark.parametrize(
    "bar, t_max",
    [(ge2(), 10.0), (bu(T=2.0, a=3.0), 2.0 * (1.0 - 1.0e-3))],
    ids=["ge2", "blowup"],
)
def test_support_radius_array_is_the_per_time_calls(bar, t_max):
    # the residual sweep's 50 times: its per-slice radii and the array
    # calls of the crosscheck run one code path, bit for bit
    t = np.linspace(0.0, t_max, 50)
    per_time = np.array([bar.support_radius(float(ti)) for ti in t])
    assert bar.support_radius(t).tobytes() == per_time.tobytes()
    assert bar.support_radius(t.reshape(5, 10)).shape == (5, 10)
    assert np.ndim(bar.support_radius(0.5)) == 0


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


@dataclass(frozen=True)
class FluxMatchRecord:
    """One-sided fluxes of ``w^m`` at r = e, their jump and its relative size."""

    left_flux: float
    right_flux: float
    jump: float
    rel_jump: float


def flux_match(bar: BlowupSubsolution, t: float) -> FluxMatchRecord:
    """One-sided fluxes of ``w^m`` across the piece interface at r = e.

    Both sides equal ``-(C^m/a) zeta^m (m/(m-1)) (bunder/e) eta
    [1 - eta/a]_+^(1/(m-1))`` in closed form; each side is evaluated with
    the formula and branch ``eval_derivatives`` uses there, so the
    cancellation is tested, not assumed.  Acceptance criterion 11 calls it.
    """
    factors = bar.time_factors(float(t))
    right = float(_compact_terms(bar, factors, *_log_branch(E, bar.bunder, derivs=True))[1])
    left = float(_compact_terms(bar, factors, *_paraboloid_branch(E, bar.bunder, derivs=True))[1])
    jump = right - left
    scale = max(abs(left), abs(right), 1.0e-300)
    return FluxMatchRecord(left, right, jump, abs(jump) / scale)


def test_blowup_flux_match():
    bar = bu(T=2.0, a=3.0)
    rec = flux_match(bar, 0.7)
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


@pytest.mark.parametrize(
    "bar, t_hi",
    [(ge1(), 3.0), (ge2(), 3.0), (bu(T=2.0, a=3.0), 1.9)],
    ids=["ge1", "ge2", "blowup"],
)
def test_scalar_calls_are_array_elements_bit_for_bit(bar, t_hi):
    # a scalar runs numpy's array loops: numpy's scalar power rounds an ulp
    # away from them at several points in a hundred
    rng = np.random.default_rng(3)
    r = rng.uniform(0.1, 5.0, 200)
    r = np.where(np.abs(r - E) < 1.0e-3, r + 1.0e-2, r)
    t = rng.uniform(0.0, t_hi, 200)
    if not isinstance(bar, GE1Barrier):
        r = np.minimum(r, 0.9 * bar.support_radius(t))  # inside the support, off its edge
    vec, d = bar.eval(r, t), bar.eval_derivatives(r, t)
    for i in range(r.size):
        assert vec[i] == bar.eval(float(r[i]), float(t[i]))
        di = bar.eval_derivatives(float(r[i]), float(t[i]))
        assert (d.w_t[i], d.wm_r[i], d.wm_rr[i], d.lap_wm[i]) == (di.w_t, di.wm_r, di.wm_rr, di.lap_wm)
    assert np.ndim(bar.eval(1.0, 0.5)) == 0 and np.ndim(bar.eval_derivatives(1.0, 0.5).lap_wm) == 0


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
    g = GE2Barrier(constants=cc, density=h2(8.0), C=0.7, a=40.0, T=1.0)
    s = g.T + t
    S = np.log(r + g.r0) ** g.bbar
    want = profile(g.C, s ** (-1.0 / (p - 1.0)), s ** (-(p - m) / (p - 1.0)), g.a, S)
    assert (want == 0.0).any() and (want > 0.0).any()
    assert g.eval(r, t).tobytes() == want.tobytes()

    b = BlowupSubsolution(constants=cc, density=h2(), C=1.0, a=3.0, T=2.0)
    s = b.T - t
    outer = r >= E
    S = np.where(outer, np.log(np.where(outer, r, E)) ** b.bunder, b.bunder * r**2 / (2.0 * E**2) + 1.0 - b.bunder / 2.0)
    want = profile(b.C, s ** (-1.0 / (p - 1.0)), s ** ((m - p) / (p - 1.0)), b.a, S)
    assert outer.any() and (~outer).any() and (want == 0.0).any() and (want > 0.0).any()
    assert b.eval(r, t).tobytes() == want.tobytes()
    assert sfrak(r, b.bunder).tobytes() == S.tobytes()


# -- the weight a barrier carries ----------------------------------------------


@pytest.mark.parametrize("make", [ge1, ge2, bu], ids=["ge1", "ge2", "blowup"])
@pytest.mark.parametrize("alpha, r0", [(1.5, E), (2.0, 8.0), (3.0, 1.0e4)])
def test_barrier_reads_r0_and_shape_exponent_off_its_density(make, alpha, r0):
    family = "H1" if make is ge1 else "H2Smooth"
    dens = DensityParams(family=family, alpha=alpha, r0=r0)
    for bar in (make(density=dens), make()._replace(density=dens)):
        assert bar.density == dens
        if isinstance(bar, BlowupSubsolution):
            assert bar.bunder == alpha + 1.0
        else:
            assert bar.r0 == r0
        if isinstance(bar, GE2Barrier):
            assert bar.bbar == alpha + 2.0
        if isinstance(bar, GE1Barrier):  # cbar follows r0
            assert bar.cbar == math.log(r0) ** (-bar.b * bar.constants.p / bar.constants.m)


@pytest.mark.parametrize("make", [ge1, ge2, bu], ids=["ge1", "ge2", "blowup"])
@pytest.mark.parametrize("name", ["r0", "bbar", "bunder"])
def test_barrier_refuses_r0_and_shape_exponents_of_its_own(make, name):
    args = make()._asdict()
    args[name] = 25.0
    with pytest.raises(TypeError):
        type(make())(**args)
    with pytest.raises(ValueError):
        make()._replace(**{name: 25.0})
