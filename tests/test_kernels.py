"""The numpy kernel against the scalar loop it vectorizes.

``_advance_impl`` is the plain-Python reference of ``_kernels.advance``:
one loop over every cell per step, in the order the kernel keeps.  Both must
agree bit for bit for m, p in {2, 3}, also while the kernel's active window
grows to the outer cell; for other exponents ``**`` and ``np.power`` may
round apart, and they must agree to rounding with the same status and step
count.
"""

import math
import tracemalloc

import numpy as np
import pytest

from pme_react import _kernels
from pme_react.density import ProblemConstants
from pme_react.solver import RadialGrid, SolverConfig, run


def _advance_impl(
    u,
    u_prev,
    rho_vol,
    inv_rho_vol,
    area_over_dr,
    cfl_coef,
    m,
    p,
    reaction,
    dirichlet,
    blowup_threshold,
    react_cap,
    t,
    t_end,
    t_stop,
    max_sub,
):
    n = u.shape[0]
    um = np.empty(n)
    flux = np.empty(n + 1)
    clamp_added = 0.0
    nsub = 0
    t_prev = t
    s0 = 0.0
    for i in range(n):
        if u[i] > s0:
            s0 = u[i]
    status = _kernels.STATUS_REACHED_TSTOP
    # the kernel copies all of u into u_prev on entry, also when it takes
    # no step
    for i in range(n):
        u_prev[i] = u[i]

    while t < t_stop and nsub < max_sub:
        # diffusion-limited dt from the neighborhood max of u
        dt = t_end - t
        for i in range(n):
            mm = u[i]
            if i > 0 and u[i - 1] > mm:
                mm = u[i - 1]
            if i < n - 1 and u[i + 1] > mm:
                mm = u[i + 1]
            if mm > 0.0:
                if m == 2.0:
                    pw = mm
                elif m == 3.0:
                    pw = mm * mm
                else:
                    pw = mm ** (m - 1.0)
                dti = cfl_coef[i] / pw
                if dti < dt:
                    dt = dti
        if reaction and s0 > 0.0:
            # a power past the float range is inf, where ** raises
            try:
                dtr = react_cap * s0 ** (1.0 - p)
            except OverflowError:
                dtr = math.inf
            if dtr < dt:
                dt = dtr
        if t + dt == t:
            status = _kernels.STATUS_STALLED
            break

        for i in range(n):
            ui = u[i]
            if m == 2.0:
                um[i] = ui * ui
            elif m == 3.0:
                um[i] = ui * ui * ui
            else:
                um[i] = ui**m

        flux[0] = 0.0
        for j in range(1, n):
            flux[j] = area_over_dr[j] * (um[j] - um[j - 1])
        if dirichlet:
            flux[n] = -area_over_dr[n] * um[n - 1]
        else:
            flux[n] = 0.0

        for i in range(n):
            u_prev[i] = u[i]
        t_prev = t

        s1 = 0.0
        finite = True
        for i in range(n):
            ui = u[i]
            rate = inv_rho_vol[i] * (flux[i + 1] - flux[i])
            if reaction:
                if p == 2.0:
                    up = ui * ui
                elif p == 3.0:
                    up = ui * ui * ui
                else:
                    up = ui**p
                rate = rate + up
            unew = ui + rate * dt
            if unew < 0.0:
                clamp_added += rho_vol[i] * (-unew)
                unew = 0.0
            u[i] = unew
            if not math.isfinite(unew):
                finite = False
            if unew > s1:
                s1 = unew

        t = t + dt
        nsub += 1
        if not finite:
            status = _kernels.STATUS_OVERFLOW
            break
        if s1 >= blowup_threshold:
            status = _kernels.STATUS_BLOWUP
            break
        s0 = s1

    return t_prev, t, status, nsub, clamp_added


CELLS = 24
R = 3.0
N = 3
T_END = 10.0
# successive (t_stop, max_sub) calls, as the solver makes between output times
CALLS = ((0.01, 50), (0.05, 400), (0.5, 1500), (T_END, 3000))


def _bits(*values):
    return np.asarray(values, dtype=float).tobytes()


def _advance_calls(
    kernel, u0, m, p, dirichlet, cfl_safety=SolverConfig._field_defaults["cfl_safety"], threshold=1.0e6, calls=CALLS,
    rho=None, t0=0.0, t_end=T_END,
):
    g = RadialGrid(N=N, R=R, cells=len(u0))
    if rho is None:
        rho = 1.0 + 0.5 * g.centers
    rho_vol = rho * g.volumes
    area_over_dr = g.faces ** (N - 1) / g.dr
    # the per-cell coefficient solver.run passes, unless told otherwise at
    # its default cfl_safety
    cfl_coef = cfl_safety * rho_vol / (m * (area_over_dr[:-1] + area_over_dr[1:]))
    u = np.array(u0, dtype=float)
    u_prev = u.copy()
    t = t0
    out = []
    for t_stop, max_sub in calls:
        # numpy scalars warn on overflow, division by zero and inf - inf
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            res = kernel(
                u, u_prev, rho_vol, 1.0 / rho_vol, area_over_dr, cfl_coef,
                m, p, True, dirichlet, threshold, 0.1, t, t_end, t_stop, max_sub,
            )
        t = res[1]
        out.append((res, u.copy(), u_prev.copy()))
    return out


def _initial(kind):
    r = RadialGrid(N=N, R=R, cells=CELLS).centers
    if kind == "compact":
        return np.maximum(1.0 - (r / 1.3) ** 2, 0.0)
    if kind == "touching":
        return 0.5 + 0.1 * np.cos(r)
    if kind == "signed":
        # -0.0 outside the support: at m = 2 the dt minimum divides by
        # g = u, so every step with a -0.0 cell in the window takes the
        # masked-dt fallback; at m = 3 g = u*u is +0.0 there and none does
        return np.where(r < 1.3, 1.0 - (r / 1.3) ** 2, -0.0)
    return np.zeros(CELLS)


def _assert_bitwise(u0, m, p, dirichlet, **kw):
    """Kernel and reference agree bit for bit over every call: the whole
    result tuple, ``u`` and ``u_prev``.  Returns the kernel's calls."""
    ref = _advance_calls(_advance_impl, u0, m, p, dirichlet, **kw)
    got = _advance_calls(_kernels.advance, u0, m, p, dirichlet, **kw)
    for (res_a, u_a, prev_a), (res_b, u_b, prev_b) in zip(ref, got):
        assert res_b[2:4] == res_a[2:4]  # status, nsub
        assert _bits(*res_b) == _bits(*res_a)
        np.testing.assert_array_equal(u_b, u_a)
        assert u_b.tobytes() == u_a.tobytes()
        assert prev_b.tobytes() == prev_a.tobytes()
    return got


@pytest.mark.parametrize("kind", ["compact", "touching", "zero"])
@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("m,p", [(2.0, 3.0), (3.0, 2.0)])
def test_numpy_kernel_matches_scalar_loop_bitwise(kind, dirichlet, m, p):
    u0 = _initial(kind)
    got = _assert_bitwise(u0, m, p, dirichlet)
    u_end = got[-1][1]
    if kind == "compact":
        # the support started inside the grid and reached its last cell
        assert np.count_nonzero(u0) < CELLS // 2
        assert u_end[-1] > 0.0
    if kind == "zero":
        assert not u_end.any()


@pytest.mark.parametrize("kind", ["compact", "touching"])
@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("m,p", [(2.5, 3.5), (1.5, 2.5), (2.5, 2.0), (1.5, 3.0)])
def test_numpy_kernel_matches_scalar_loop_with_np_power(kind, dirichlet, m, p):
    # ``**`` and ``np.power`` may round apart, so only to rounding here; at
    # p in {2, 3} the reaction reads ``u*u``, which m alone does not need
    u0 = _initial(kind)
    ref = _advance_calls(_advance_impl, u0, m, p, dirichlet)
    got = _advance_calls(_kernels.advance, u0, m, p, dirichlet)
    for (res_a, u_a, _), (res_b, u_b, _) in zip(ref, got):
        assert res_b[2:4] == res_a[2:4]  # status, nsub
        np.testing.assert_allclose(u_b, u_a, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("m,p", [(2.0, 3.0), (3.0, 2.0)])
def test_signed_zero_data_matches_scalar_loop_bitwise(dirichlet, m, p):
    u0 = _initial("signed")
    assert np.signbit(u0[-1]) and np.signbit(np.maximum(u0[:-1], u0[1:])).any()
    got = _assert_bitwise(u0, m, p, dirichlet)
    assert got[-1][1][-1] > 0.0


@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("m,p", [(2.0, 3.0), (3.0, 2.0)])
def test_all_negative_zero_data_matches_scalar_loop_bitwise(dirichlet, m, p):
    # the reference starts its max at +0.0, so an all -0.0 state has sup
    # +0.0, which caps no step; with no mass dt is t_end - t, so one call
    # takes the one step
    got = _assert_bitwise(np.full(CELLS, -0.0), m, p, dirichlet, calls=((T_END, 50),))
    assert got[-1][0][3] == 1


@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("m,p", [(2.0, 3.0), (3.0, 2.0)])
def test_zero_step_calls_match_scalar_loop_bitwise(dirichlet, m, p):
    # with no mass dt is t_end - t, so the first call reaches t_end in one
    # step and the other three start at t >= t_stop and take none
    got = _assert_bitwise(np.full(CELLS, -0.0), m, p, dirichlet)
    assert [res[3] for res, _, _ in got] == [1, 0, 0, 0]
    # the step turned -0.0 cells into +0.0 and left the -0.0 in u_prev; a
    # zero-step call copies u into u_prev, so the sign bits tell the copy
    # apart from a call that leaves u_prev alone
    _, u_step, prev_step = got[0]
    assert np.signbit(prev_step).all() and not np.signbit(u_step).all()
    for _, u_end, prev_end in got[1:]:
        assert prev_end.tobytes() == u_end.tobytes()


@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
def test_blowup_run_matches_scalar_loop_bitwise(dirichlet):
    # p > m, so the reaction outruns the diffusion step limit
    u0 = 4.0 * _initial("touching")
    got = _assert_bitwise(u0, 2.0, 3.0, dirichlet, calls=((T_END, 3000),))
    assert got[-1][0][2] == _kernels.STATUS_BLOWUP


@pytest.mark.parametrize("m,p", [(2.0, 3.0), (3.0, 2.0)])
def test_overflow_run_matches_scalar_loop_bitwise(m, p):
    # the reaction term of the first step leaves the float range
    u0 = 1.0e120 * _initial("compact")
    got = _assert_bitwise(u0, m, p, True, calls=((T_END, 50),))
    res, u_end, _ = got[-1]
    assert res[2] == _kernels.STATUS_OVERFLOW and res[3] == 1
    assert not np.isfinite(u_end).all()


@pytest.mark.parametrize("m,p", [(2.0, 3.0), (3.0, 2.0)])
def test_clamped_mass_matches_scalar_loop_bitwise(m, p):
    # steps 2-6 times past the monotone limit undershoot below zero; the
    # clamped mass must be added up cell by cell, in the reference's order
    rng = np.random.default_rng(9)
    clamping = 0
    for _ in range(24):
        u0 = rng.random(48) * (rng.random(48) < 0.6)
        dirichlet = bool(rng.integers(2))
        got = _assert_bitwise(u0, m, p, dirichlet, cfl_safety=rng.uniform(2.0, 6.0), calls=((T_END, 200),))
        clamping += got[-1][0][4] > 0.0
    assert clamping >= 12


@pytest.mark.parametrize("m,p", [(2.0, 3.0), (3.0, 2.0)])
def test_dt_from_the_neighbourhood_min_matches_scalar_loop_bitwise(m, p):
    """One step from each of 200 seeded states.  The kernel's per-cell
    ``min(c_{i-1}, c_i, c_{i+1}) / g(u_i)`` must pick the reference's
    ``min_i c_i / g(max(u_{i-1}, u_i, u_{i+1}))`` bit for bit.  The states
    are not monotone and neither is the density, so the binding pair of
    cells lies anywhere, also at the window edge; zeros inside and in the
    tail carry either sign."""
    rng = np.random.default_rng(19)
    diffusion_bound = 0
    for _ in range(200):
        cells = int(rng.integers(2, 40))
        u0 = rng.random(cells) * (rng.random(cells) < 0.7)
        u0[cells - int(rng.integers(0, cells)) :] = 0.0
        zeros = u0 == 0.0
        u0[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        rho = np.exp(rng.normal(0.0, 1.5, cells))
        cfl_safety = rng.uniform(0.05, 1.0)
        for dirichlet in (True, False):
            got = _assert_bitwise(u0, m, p, dirichlet, cfl_safety=cfl_safety, rho=rho, calls=((T_END, 1),))
            res, _, u_prev = got[-1]
            assert res[3] == 1
            # u <= 1, so the reaction cap 0.1 sup^(1-p) of the state before
            # the step is below t_end
            sup = u_prev.max()
            if sup > 0.0:
                diffusion_bound += res[1] < 0.1 * sup ** (1.0 - p)
    # the diffusion limit set most of the 400 steps
    assert diffusion_bound >= 300


def _one_step_calls(u0, m, p, dirichlet, steps, t_stop=T_END, **kw):
    """The run as ``steps`` calls of one step each: every step is the last
    of its call, so the settle at the return ends it."""
    return _assert_bitwise(u0, m, p, dirichlet, calls=((t_stop, 1),) * steps, **kw)


@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
def test_blowup_in_one_step_calls_matches_scalar_loop_bitwise(dirichlet):
    # the whole run settles its crossing step in the loop, the one-step
    # calls at the return of the last call
    u0 = 4.0 * _initial("touching")
    whole, u_whole, prev_whole = _assert_bitwise(u0, 2.0, 3.0, dirichlet, calls=((T_END, 3000),))[-1]
    assert whole[2] == _kernels.STATUS_BLOWUP
    got = _one_step_calls(u0, 2.0, 3.0, dirichlet, whole[3])
    statuses = [res[2] for res, _, _ in got]
    # the budget of one step stops nothing: status 0 until the crossing
    assert statuses == [_kernels.STATUS_REACHED_TSTOP] * (whole[3] - 1) + [_kernels.STATUS_BLOWUP]
    last, u_last, prev_last = got[-1]
    assert _bits(*last[:2]) == _bits(*whole[:2])
    assert u_last.tobytes() == u_whole.tobytes()
    assert prev_last.tobytes() == prev_whole.tobytes()


@pytest.mark.parametrize("m,p", [(2.0, 3.0), (3.0, 2.0)])
def test_overflow_in_a_one_step_call_matches_scalar_loop_bitwise(m, p):
    got = _one_step_calls(1.0e120 * _initial("compact"), m, p, True, 1)
    res, u_end, _ = got[-1]
    assert res[2] == _kernels.STATUS_OVERFLOW and res[3] == 1
    assert not np.isfinite(u_end).all()


@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
def test_reaction_cap_on_small_data_at_p_below_m_matches_scalar_loop_bitwise(dirichlet):
    # at (m, p) = (3, 2) the cap 0.1 sup^-1 undercuts the diffusion limit
    # c / sup^2 once sup < 10 c, so small data take steps with r above the
    # settle interval's finite upper end, where the cap needs the exact sup
    u0 = 0.1 * _initial("touching")
    kw = dict(rho=np.full(CELLS, 10.0))
    whole = _assert_bitwise(u0, 3.0, 2.0, dirichlet, calls=((T_END, 50),), **kw)[-1][0]
    got = _one_step_calls(u0, 3.0, 2.0, dirichlet, whole[3], **kw)
    first, _, u_start = got[0]
    assert first[1] == 0.1 * u_start.max() ** -1.0  # the cap set the first step


@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("m", [2.0, 3.0])
def test_p_equal_to_m_matches_scalar_loop_bitwise(m, dirichlet):
    # at p = m the settle interval is empty: every step settles in the loop
    u0 = _initial("touching")
    r_lo, r_hi = _kernels._settle_interval(1.0, m, m, True, 1.0e6, 0.1)
    assert not r_lo < r_hi
    _assert_bitwise(u0, m, m, dirichlet)
    _one_step_calls(u0, m, m, dirichlet, 40)


@pytest.mark.parametrize(
    "cmax, p, reaction, threshold", [(math.exp(10.0), 2.01, True, 1.0e6), (1.0e300, 3.0, False, 1.0e-30)],
    ids=["reaction-near-p-equal-m", "threshold-far-below-the-data"],
)
def test_settle_interval_past_exp_range_is_empty_and_silent(cmax, p, reaction, threshold):
    # the lower end's log passes exp's range: inf empties the interval (every
    # step settles) with no overflow warning, which the suite makes an error
    r_lo, r_hi = _kernels._settle_interval(cmax, 2.0, p, reaction, threshold, 0.5)
    assert r_lo == math.inf and not r_lo < r_hi


def test_stalled_run_matches_scalar_loop_bitwise():
    # near t = 2^40 half an ulp of t is 1.2e-4; the diffusion limit c / u
    # falls below it as the reaction grows u, long before the cap binds, so
    # the run stalls with r inside the settle interval and only the settle
    # at the return takes the sup
    t0 = 2.0**40
    kw = dict(rho=np.full(CELLS, 0.1), t0=t0, t_end=2.0 * t0)
    u0 = 3.0 * _initial("touching")
    whole, u_end, _ = _assert_bitwise(u0, 2.0, 3.0, False, calls=((t0 + 100.0, 5000),), **kw)[-1]
    t = whole[1]
    assert whole[2] == _kernels.STATUS_STALLED and whole[3] > 0
    assert t + 0.1 * u_end.max() ** -2.0 > t  # the cap would not have stalled
    # as one-step calls, the stall comes at the entry of the last call
    got = _one_step_calls(u0, 2.0, 3.0, False, whole[3] + 1, t_stop=t0 + 100.0, **kw)
    assert got[-1][0][2:4] == (_kernels.STATUS_STALLED, 0)


@pytest.mark.parametrize("m,p,scale", [(2.0, 3.0, 1.0e-160), (3.0, 2.0, 1.0e-310)])
def test_reaction_cap_past_the_float_range_matches_scalar_loop_bitwise(m, p, scale):
    # sup^(1-p) overflows, so the cap is inf: one step to t_end
    u0 = scale * _initial("touching")
    got = _assert_bitwise(u0, m, p, True, calls=((T_END, 50),))
    assert got[-1][0][1:4] == (T_END, _kernels.STATUS_REACHED_TSTOP, 1)


def test_tiny_data_at_p_below_m_run_to_the_end():
    # 16 cells of 1e-310: 0.1 sup^-1 passes the float range, so the reaction
    # cap of every settle and of the stall check is inf, never a raise
    cc = ProblemConstants(m=3.0, p=2.0, N=N)
    cfg = SolverConfig(t_end=1.0, R=R, cells=16)
    res = run(np.full(16, 1.0e-310), RadialGrid(N=N, R=R, cells=16), np.ones(16), cc, cfg)
    assert res.termination == "completed" and res.final_state.t == 1.0
    assert _kernels.reaction_cap(0.1, 1.0e-310, 2.0) == math.inf
    assert _kernels.reaction_cap(0.1, 0.0, 2.0) == math.inf
    assert _kernels.reaction_cap(0.1, 4.0, 3.0) == 0.1 * 4.0**-2.0


# ufunc calls per step: the dt division, the powers or products for u^(m-1),
# u^m and u^p, two for the fluxes and five for the Euler rate and update;
# ``u*u`` is not computed where nothing reads it, as at (2.5, 3.5)
UFUNC_CALLS = {
    (2.0, 3.0): dict(divide=1, multiply=5, subtract=2, add=2),
    (3.0, 2.0): dict(divide=1, multiply=5, subtract=2, add=2),
    (2.5, 3.5): dict(divide=1, power=3, multiply=3, subtract=2, add=2),
}


@pytest.mark.parametrize("m,p", list(UFUNC_CALLS))
def test_steps_make_the_counted_ufunc_calls(monkeypatch, m, p):
    calls = []

    def counted(*args):
        # the kernel binds the ufuncs at entry: count them during the call only
        with monkeypatch.context() as patch:
            for name in ("add", "subtract", "multiply", "divide", "power"):
                ufunc = getattr(np, name)
                patch.setattr(np, name, lambda *a, _f=ufunc, _n=name, **kw: calls.append(_n) or _f(*a, **kw))
            return _kernels.advance(*args)

    res = _advance_calls(counted, _initial("touching"), m, p, True, calls=((T_END, 40),))[-1][0]
    assert res[3] == 40
    assert {name: calls.count(name) / 40 for name in set(calls)} == UFUNC_CALLS[m, p]


@pytest.mark.parametrize("m", [1.5, 2.0, 2.5, 3.0])
def test_dt_minimum_bounds_the_sup(m):
    """The settle rule rests on ``u_i^(m-1) <= max(c3) / r`` for the dt
    minimum r.  For 200 seeded states, with values log-uniform in
    [1e-300, 1e150], zeros of either sign and a log-normal density, the
    kernel's r (one step with the reaction off and nothing else to bound
    dt) keeps ``max(u) <= (PAD max(c3) / r)^(1/(m-1)) PAD``, and at the
    edges of the settle interval that bound keeps the sup below the
    threshold and the reaction cap at least r."""
    rng = np.random.default_rng(20)
    pad = _kernels.PAD
    checked = 0
    for _ in range(200):
        cells = int(rng.integers(2, 40))
        u0 = 10.0 ** rng.uniform(-300.0, 150.0, cells)
        zeros = rng.random(cells) < 0.3
        u0[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        g = RadialGrid(N=N, R=R, cells=cells)
        rho_vol = np.exp(rng.normal(0.0, 1.5, cells)) * g.volumes
        area_over_dr = g.faces ** (N - 1) / g.dr
        cfl_coef = rng.uniform(0.05, 1.0) * rho_vol / (m * (area_over_dr[:-1] + area_over_dr[1:]))
        c3 = np.minimum(cfl_coef, np.minimum(np.r_[cfl_coef[1:], np.inf], np.r_[np.inf, cfl_coef[:-1]]))
        cmax = float(c3.max())
        with np.errstate(over="ignore", invalid="ignore"):
            r = _kernels.advance(
                u0.copy(), np.empty(cells), rho_vol, 1.0 / rho_vol, area_over_dr, cfl_coef,
                m, 3.0, False, True, math.inf, 0.1, 0.0, math.inf, math.inf, 1,
            )[1]
        if not _kernels.TINY <= r <= cmax / _kernels.TINY:
            continue
        checked += 1
        assert u0.max() <= (pad * cmax / r) ** (1.0 / (m - 1.0)) * pad
        for p in (m - 0.5, m + 0.5, 2.0 * m):
            threshold = 10.0 ** rng.uniform(0.0, 12.0)
            r_lo, r_hi = _kernels._settle_interval(cmax, m, p, True, threshold, 0.1)
            for edge in (np.nextafter(r_lo, np.inf), np.nextafter(r_hi, 0.0)):
                if r_lo < edge < r_hi:
                    sup = (pad * cmax / edge) ** (1.0 / (m - 1.0)) * pad
                    assert sup < threshold
                    # an inf cap (a tiny or zero sup) is at least r too
                    with np.errstate(over="ignore", divide="ignore"):
                        assert 0.1 * sup ** (1.0 - p) >= edge
    # the others have r = inf: every ratio is past the float range
    assert checked >= 190


def test_steps_allocate_nothing():
    """The kernel's buffers are allocated once per call: a thousand steps
    take no more memory at their peak than ten."""
    cells = 512
    g = RadialGrid(N=N, R=R, cells=cells)
    rho_vol = g.volumes
    area_over_dr = g.faces ** (N - 1) / g.dr
    cfl_coef = rho_vol / (2.0 * (area_over_dr[:-1] + area_over_dr[1:]))
    # positive up to the boundary, so the window is the grid from the start
    u0 = 0.5 + 0.1 * np.cos(g.centers)

    def peak(steps):
        u, u_prev = u0.copy(), np.empty(cells)
        tracemalloc.start()
        try:
            res = _kernels.advance(
                u, u_prev, rho_vol, 1.0 / rho_vol, area_over_dr, cfl_coef,
                2.0, 3.0, True, True, 1.0e6, 0.1, 0.0, T_END, T_END, steps,
            )
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res[3] == steps
        return top

    peak(10)  # numpy's first-call caches
    # nsub and t past the small-int and float free lists take a few objects
    assert peak(1000) <= peak(10) + 64
