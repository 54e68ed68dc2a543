"""The numpy kernel against the scalar loop it vectorizes.

``_advance_impl`` is called as plain Python, so these tests run with or
without numba.  Both kernels must agree bit for bit (m, p in {2, 3}), also
while the numpy kernel's active window grows to the outer cell.
"""

import numpy as np
import pytest

from pme_react import _kernels
from pme_react.solver import RadialGrid

CELLS = 24
R = 3.0
N = 3
T_END = 10.0
# successive (t_stop, max_sub) calls, as the solver makes between output times
CALLS = ((0.01, 50), (0.05, 400), (0.5, 1500), (T_END, 3000))


def _bits(*values):
    return np.asarray(values, dtype=float).tobytes()


def _advance_calls(kernel, u0, m, p, dirichlet):
    g = RadialGrid(N=N, R=R, cells=CELLS)
    rho = 1.0 + 0.5 * g.centers
    rho_vol = rho * g.volumes
    area_over_dr = g.faces ** (N - 1) / g.dr
    # the per-cell coefficient solver.run passes at its default cfl_safety
    cfl_coef = 0.45 * rho_vol / (m * (area_over_dr[:-1] + area_over_dr[1:]))
    u = np.array(u0, dtype=float)
    u_prev = u.copy()
    um = np.full(CELLS, np.nan)
    flux = np.full(CELLS + 1, np.nan)
    t = 0.0
    out = []
    for t_stop, max_sub in CALLS:
        # numpy scalars warn on overflow and division by zero where numba does not
        with np.errstate(over="ignore", divide="ignore"):
            res = kernel(
                u, u_prev, um, flux, rho_vol, 1.0 / rho_vol, area_over_dr, cfl_coef,
                m, p, True, dirichlet, 1.0e6, 0.1, t, T_END, t_stop, max_sub,
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
    return np.zeros(CELLS)


@pytest.mark.parametrize("kind", ["compact", "touching", "zero"])
@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("m,p", [(2.0, 3.0), (3.0, 2.0)])
def test_numpy_kernel_matches_scalar_loop_bitwise(kind, dirichlet, m, p):
    u0 = _initial(kind)
    ref = _advance_calls(_kernels._advance_impl, u0, m, p, dirichlet)
    got = _advance_calls(_kernels._advance_numpy, u0, m, p, dirichlet)
    for (res_a, u_a, prev_a), (res_b, u_b, prev_b) in zip(ref, got):
        assert res_b[2:4] == res_a[2:4]  # status, nsub
        assert _bits(*res_b) == _bits(*res_a)
        np.testing.assert_array_equal(u_b, u_a)
        assert u_b.tobytes() == u_a.tobytes()
        assert prev_b.tobytes() == prev_a.tobytes()
    u_end = got[-1][1]
    if kind == "compact":
        # the support started inside the grid and reached its last cell
        assert np.count_nonzero(u0) < CELLS // 2
        assert u_end[-1] > 0.0
    if kind == "zero":
        assert not u_end.any()
