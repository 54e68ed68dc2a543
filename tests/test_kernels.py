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
from pme_react.solver import RadialGrid, SolverConfig


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
    sup_prev = 0.0
    s0 = 0.0
    for i in range(n):
        if u[i] > s0:
            s0 = u[i]
    sup_new = s0
    status = _kernels.STATUS_REACHED_TSTOP

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
            dtr = react_cap * s0 ** (1.0 - p)
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
        sup_prev = s0

        s1 = 0.0
        finite = True
        for i in range(n):
            ui = u[i]
            unew = ui + dt * inv_rho_vol[i] * (flux[i + 1] - flux[i])
            if reaction:
                if p == 2.0:
                    up = ui * ui
                elif p == 3.0:
                    up = ui * ui * ui
                else:
                    up = ui**p
                unew = unew + dt * up
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
        sup_new = s1
        if not finite:
            status = _kernels.STATUS_OVERFLOW
            break
        if s1 >= blowup_threshold:
            status = _kernels.STATUS_BLOWUP
            break
        s0 = s1

    if status == _kernels.STATUS_REACHED_TSTOP and t < t_stop:
        status = _kernels.STATUS_BUDGET
    return t_prev, t, status, nsub, clamp_added, sup_prev, sup_new


CELLS = 24
R = 3.0
N = 3
T_END = 10.0
# successive (t_stop, max_sub) calls, as the solver makes between output times
CALLS = ((0.01, 50), (0.05, 400), (0.5, 1500), (T_END, 3000))


def _bits(*values):
    return np.asarray(values, dtype=float).tobytes()


def _advance_calls(kernel, u0, m, p, dirichlet, cfl_safety=SolverConfig.cfl_safety, threshold=1.0e6, calls=CALLS):
    g = RadialGrid(N=N, R=R, cells=len(u0))
    rho = 1.0 + 0.5 * g.centers
    rho_vol = rho * g.volumes
    area_over_dr = g.faces ** (N - 1) / g.dr
    # the per-cell coefficient solver.run passes, unless told otherwise at
    # its default cfl_safety
    cfl_coef = cfl_safety * rho_vol / (m * (area_over_dr[:-1] + area_over_dr[1:]))
    u = np.array(u0, dtype=float)
    u_prev = u.copy()
    t = 0.0
    out = []
    for t_stop, max_sub in calls:
        # numpy scalars warn on overflow, division by zero and inf - inf
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            res = kernel(
                u, u_prev, rho_vol, 1.0 / rho_vol, area_over_dr, cfl_coef,
                m, p, True, dirichlet, threshold, 0.1, t, T_END, t_stop, max_sub,
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
        # -0.0 outside the support: the face max there is -0.0 for m = 2,
        # which takes the masked-dt fallback
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
@pytest.mark.parametrize("m,p", [(2.5, 3.5), (1.5, 2.5)])
def test_numpy_kernel_matches_scalar_loop_with_np_power(kind, dirichlet, m, p):
    # ``**`` and ``np.power`` may round apart, so only to rounding here
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
def test_all_negative_zero_data_reports_positive_zero_sups(dirichlet, m, p):
    # the reference starts its max at +0.0, so an all -0.0 state has sup
    # +0.0; with no mass dt is t_end - t, so one call takes the one step
    got = _assert_bitwise(np.full(CELLS, -0.0), m, p, dirichlet, calls=((T_END, 50),))
    res = got[-1][0]
    assert res[3] == 1 and not np.signbit(res[5]) and not np.signbit(res[6])


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
