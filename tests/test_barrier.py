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
    _compact_derivatives,
    _log_branch,
    _paraboloid_branch,
    _terms_at,
    sfrak,
)
from pme_react.density import DensityParams, ProblemConstants
from pme_react.feasibility import check_ge1, find_params

CC23 = ProblemConstants(m=2.0, p=3.0, N=3)
CC32 = ProblemConstants(m=3.0, p=2.0, N=3)


def h1(r0=E, alpha=2.0):
    return DensityParams(family="H1", alpha=alpha, r0=r0)


def h2(r0=E, alpha=2.0):
    return DensityParams(family="H2Smooth", alpha=alpha, r0=r0)


def value(bar, r, t):
    """W at the one point (r, t): a batch of one."""
    return bar.eval([r], t)[0]


def derivs(bar, r, t):
    """The derivative record at the one point (r, t)."""
    return bar.eval_derivatives([r], t)[0]


# -- shape function ---------------------------------------------------------


def test_sfrak_values():
    assert sfrak(E, 3.0) == pytest.approx(1.0, abs=1e-15)
    assert sfrak(0.0, 3.0) == pytest.approx(-0.5, abs=1e-15)
    assert sfrak(E**2, 3.0) == pytest.approx(8.0, rel=1e-14)
    # a float in, a float out, on both branches
    assert all(type(sfrak(r, 3.0)) is float for r in (0.0, E, E**2))


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
    assert value(bar, 0.0, 0.0) == pytest.approx(1.0, rel=1e-14)
    d = derivs(bar, 0.0, 0.0)
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
    assert value(grow, 0.0, 0.0) == pytest.approx(2.0**0.05, rel=1e-14)
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
    vals = bar.eval(np.linspace(0.0, 100.0, 201).tolist(), 0.5)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ge1_scalar_array_parity():
    # a batch of one point is the element of a longer batch, bit for bit
    bar = ge1()
    r = [0.0, 1.0, 7.0]
    t = 0.3
    vec = bar.eval(r, t)
    d = bar.eval_derivatives(r, t)
    for i, ri in enumerate(r):
        assert vec[i] == value(bar, ri, t)
        assert d[i] == derivs(bar, ri, t)


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
    assert value(bar, 0.0, 0.0) == 0.0


def test_ge2_overflowing_support_is_inf_without_warning():
    bar = ge2(a=1.0e11)  # R(0) ~ exp(562), R(10) ~ exp(758)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radii = [bar.support_radius(t) for t in (0.0, 10.0)]
    assert math.isfinite(radii[0]) and radii[1] == math.inf


def test_ge2_vanishes_outside_support():
    bar = ge2()
    r_star = bar.support_radius(0.0)
    assert value(bar, r_star + 1.0, 0.0) == 0.0
    d = derivs(bar, r_star + 1.0, 0.0)
    assert d.w_t == d.wm_r == d.wm_rr == d.lap_wm == 0.0
    assert value(bar, r_star - 1.0, 0.0) > 0.0


def test_ge2_kink_refusal():
    bar = ge2()
    r_star = bar.support_radius(0.0)
    with pytest.raises(KinkError):
        derivs(bar, r_star + 0.5 * KINK_TOL, 0.0)
    # eval itself is continuous there and does not refuse
    assert value(bar, r_star + 0.5 * KINK_TOL, 0.0) >= 0.0
    derivs(bar, r_star + 1e-6, 0.0)  # just outside the guard band


def test_ge2_amplitude_decays():
    bar = ge2()
    peaks = [value(bar, 0.0, t) for t in (0.0, 1.0, 3.0, 10.0, 100.0)]
    assert all(a > b > 0.0 for a, b in zip(peaks, peaks[1:]))
    # independent recompute of the peak: zeta and the origin profile factor
    t = 3.0
    zeta = (bar.T + t) ** (-0.5)
    eta = (bar.T + t) ** (-0.5)
    F = 1.0 - math.log(bar.r0) ** bar.bbar * eta / bar.a
    assert value(bar, 0.0, t) == pytest.approx(bar.C * zeta * F, rel=1e-13)


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
    assert value(bar, 0.0, 0.0) == pytest.approx(1.5, rel=1e-14)


def test_blowup_time_domain():
    bar = bu()
    for t in (1.0, 1.5):
        # a batch at one time refuses it at the call
        with pytest.raises(TimeDomainError):
            bar.eval([0.0], t)
        with pytest.raises(TimeDomainError):
            bar.eval_derivatives([0.0], t)
        with pytest.raises(TimeDomainError):
            bar.support_radius(t)
        with pytest.raises(TimeDomainError):
            flux_match(bar, t)
    # so does a batch of paired times that holds one
    assert bar.eval([0.0] * 2, [0.0, 0.5])[0] == 1.5
    with pytest.raises(TimeDomainError):
        bar.eval([0.0] * 3, [0.0, 0.5, 1.0])
    with pytest.raises(TimeDomainError):
        bar.eval_derivatives([0.0] * 3, [0.0, 0.5, 1.0])


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
    # the residual sweep's 50 times: the free boundary the kink refusal
    # reads off a batch's time factors is support_radius, bit for bit
    for t in np.linspace(0.0, t_max, 50).tolist():
        r_star = bar.support_radius(t)
        assert type(r_star) is float and r_star > 0.0
        assert bar._corners(bar.time_factors(t)[1])[1] == r_star


def test_blowup_amplitude_diverges():
    bar = bu()
    assert value(bar, 0.0, 1.0 - 1e-6) / value(bar, 0.0, 0.0) > 1000.0


def test_blowup_kink_refusals():
    bar = bu(T=2.0)
    with pytest.raises(KinkError, match="piece interface"):
        derivs(bar, E + 0.1 * KINK_TOL, 0.5)
    r_star = bar.support_radius(0.5)
    assert abs(r_star - E) > 1e-3  # distinct corners at this time
    with pytest.raises(KinkError, match="free boundary"):
        derivs(bar, r_star, 0.5)
    derivs(bar, 0.5, 0.5)  # interior of the paraboloid piece is fine
    # a batch that holds a corner is refused at the call
    bar.eval_derivatives([0.5, 1.0], 0.5)
    with pytest.raises(KinkError):
        bar.eval_derivatives([0.5, E], 0.5)
    with pytest.raises(KinkError):
        bar.eval_derivatives([0.5, E], [0.5, 0.5])


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
    terms, N = _terms_at(bar, bar.time_factors(float(t))), bar.constants.N

    def flux(branch):
        # the record eval_derivatives builds at r = e, on the given branch,
        # with no corner to refuse
        return _compact_derivatives(E, (terms, branch, bar.bunder, 0.0, (math.nan, math.nan), N, t)).wm_r

    right, left = flux(_log_branch), flux(_paraboloid_branch)
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
    def at(r, t, deriv=False):
        return np.array(bar.eval_derivatives(r.tolist(), t) if deriv else bar.eval(r.tolist(), t))

    for t in (0.0, 0.3, 0.7, 1.2, 1.5):
        r = np.linspace(0.1, E - 0.05, 12)
        assert bar.support_radius(t) > E
        d = at(r, t, True).T
        w_t = (at(r, t + h) - at(r, t - h)) / (2.0 * h)
        wm_r = (at(r + h, t) ** m - at(r - h, t) ** m) / (2.0 * h)
        wm_rr = (at(r + h, t, True)[:, 1] - at(r - h, t, True)[:, 1]) / (2.0 * h)
        np.testing.assert_allclose(d[0], w_t, rtol=1e-6)
        np.testing.assert_allclose(d[1], wm_r, rtol=1e-6)
        np.testing.assert_allclose(d[2], wm_rr, rtol=1e-6)


@pytest.mark.parametrize(
    "bar, r",
    [(bu(T=2.0), [0.0, 1.0, 2.0, 5.0]), (ge2(), [0.0, 1.0, 3.0, 5.0])],
    ids=["blowup", "ge2"],
)
def test_compact_scalar_array_parity(bar, r):
    # a batch of one point is the element of a longer batch, bit for bit
    vec = bar.eval(r, 0.25)
    d = bar.eval_derivatives(r, 0.25)
    for i, ri in enumerate(r):
        assert vec[i] == value(bar, ri, 0.25)
        assert d[i] == derivs(bar, ri, 0.25)


@pytest.mark.parametrize(
    "bar, t_hi",
    [(ge1(), 3.0), (ge2(), 3.0), (bu(T=2.0, a=3.0), 1.9)],
    ids=["ge1", "ge2", "blowup"],
)
def test_scalar_calls_are_array_elements_bit_for_bit(bar, t_hi):
    # a paired batch builds each point's time constants afresh; one-point
    # batches at each time give the same bits, as floats
    rng = np.random.default_rng(3)
    r = rng.uniform(0.1, 5.0, 200)
    r = np.where(np.abs(r - E) < 1.0e-3, r + 1.0e-2, r)
    t = rng.uniform(0.0, t_hi, 200)
    if not isinstance(bar, GE1Barrier):
        # inside the support, off its edge
        r = np.minimum(r, 0.9 * np.array([bar.support_radius(ti) for ti in t.tolist()]))
    r, t = r.tolist(), t.tolist()
    vec, d = bar.eval(r, t), bar.eval_derivatives(r, t)
    for i in range(len(r)):
        assert vec[i] == value(bar, r[i], t[i])
        assert d[i] == derivs(bar, r[i], t[i])
    assert all(type(x) is float for x in vec + [x for di in d for x in di])


@pytest.mark.parametrize("make", [ge1, ge2, bu], ids=["ge1", "ge2", "blowup"])
@pytest.mark.parametrize("t", [np.float32(0.5), np.float32(0.3), np.int64(0), np.array(0.25)], ids=str)
def test_a_numpy_scalar_time_is_one_time(make, t):
    # numpy scalars that do not subclass float, and a 0-d array, are one
    # time for the whole batch, as a float is
    bar, r = make(), [0.5, 1.0, 2.0]
    assert bar.eval(r, t) == bar.eval(r, float(t))
    assert bar.eval_derivatives(r, t) == bar.eval_derivatives(r, float(t))


def test_compact_eval_is_the_closed_form_bit_for_bit():
    # ``C zeta F^(1/(m-1))`` with ``F = 1 - S eta/a``, written out in the
    # order the profiles evaluate it: initial data, hypothesis checks and
    # compare verdicts depend on these bits
    m, p = 2.5, 3.5
    cc = ProblemConstants(m=m, p=p, N=3)
    q = 1.0 / (m - 1.0)

    def profile(C, zeta, eta, a, S):
        F = 1.0 - S * eta / a
        return C * zeta * F**q if F > 0.0 else 0.0

    r = np.linspace(0.0, 12.0, 241).tolist()
    t = np.linspace(0.0, 1.9, 241).tolist()
    g = GE2Barrier(constants=cc, density=h2(8.0), C=0.7, a=40.0, T=1.0)
    want = [
        profile(g.C, (g.T + ti) ** (-1.0 / (p - 1.0)), (g.T + ti) ** (-(p - m) / (p - 1.0)), g.a,
                math.log(ri + g.r0) ** g.bbar)
        for ri, ti in zip(r, t)
    ]
    assert 0.0 in want and max(want) > 0.0
    assert g.eval(r, t) == want

    b = BlowupSubsolution(constants=cc, density=h2(), C=1.0, a=3.0, T=2.0)
    S = [
        math.log(ri) ** b.bunder if ri >= E else b.bunder * (ri * ri) / (2.0 * E**2) + 1.0 - b.bunder / 2.0
        for ri in r
    ]
    want = [
        profile(b.C, (b.T - ti) ** (-1.0 / (p - 1.0)), (b.T - ti) ** ((m - p) / (p - 1.0)), b.a, Si)
        for Si, ti in zip(S, t)
    ]
    assert min(r) < E < max(r) and 0.0 in want and max(want) > 0.0
    assert b.eval(r, t) == want
    assert [sfrak(ri, b.bunder) for ri in r] == S


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


def test_barrier_refuses_a_weight_its_certificate_does_not_cover():
    # a searched GE1b barrier handed a two-sided weight used to build, and
    # its sweep read -0.999; each barrier now checks its family, with the
    # text loads reports at the regime line
    bar, _ = find_params(CC23, h1(r0=25.0), REGIME_GE1B)
    with pytest.raises(ValueError, match=r"^GE1 certificates require an H1-family density$"):
        bar._replace(density=h2(r0=25.0))
    for make, what in ((ge2, "the GE2 certificate"), (bu, "the blow-up certificate")):
        message = rf"^{what} requires a two-sided \(H2Smooth\) density$"
        with pytest.raises(ValueError, match=message):
            make(density=h1())
        with pytest.raises(ValueError, match=message):
            make()._replace(density=h1())
