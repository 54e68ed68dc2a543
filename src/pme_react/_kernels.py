"""Inner stepping loop for the explicit radial scheme.

``advance`` is a numpy kernel: one python iteration per time step, whose
array operations write into buffers allocated once per call.  Its
plain-Python reference, a scalar loop over every cell, lives in
``tests/test_kernels.py``.  The kernel keeps each cell's arithmetic in the
reference's order, so for m, p in {2, 3}, where both expand the powers into
products, the two produce bit-identical trajectories.  For other exponents
the scalar ``**`` and ``np.power`` round differently and the two agree only
to rounding.

The kernel steps only the active window ``[0, hi)``.  Invariant: at the
start of every step each cell from ``hi - 1`` on holds +0.0.  A +0.0 cell
between +0.0 neighbours stays +0.0 through a step (no flux, no reaction)
and adds no term to the dt minimum, so leaving it out changes no value.
``hi`` starts at the last nonzero cell plus 2 (at least 2) and grows by one
when the edge cell ``hi - 1`` turns positive, which the three-point stencil
allows at most once per step.

The diffusion limit is taken per cell, as ``min_i c3_i / g(u_i)`` over the
window with ``c3_i = min(c_{i-1}, c_i, c_{i+1})``, built once per call, and
``g(x) = x^(m-1)``: ``u`` itself at m = 2 and the ``u*u`` the update needs
anyway at m = 3.  It equals the reference's ``min_i c_i / g(max(u_{i-1},
u_i, u_{i+1}))`` bit for bit: both are the minimum of ``c_i / g(u_k)`` over
the pairs of adjacent or equal cells (i, k), because correctly rounded
``max``, ``x*x`` and division are monotone.  A -0.0 or nan ``g`` (a -0.0
cell at m = 2) falls back to the cells with ``g > 0``, as the reference
skips cells whose max is not positive.

At (m, p) = (2, 3) or (3, 2) a step makes 14 numpy calls: the dt division
and its ``argmin``, ``u*u`` and one more product for the cube, two for the
fluxes, four for the diffusion update and two for the reaction, and the
``argmin`` and ``argmax`` of the clamp check and the sup.

Contract of ``advance``: starting from cell values ``u`` at time ``t``, take
explicit Euler steps (diffusion flux divergence plus optional reaction) until
``t`` reaches ``t_stop``, the sub-step budget ``max_sub`` runs out, the sup
norm crosses ``blowup_threshold``, a non-finite value appears, or time stops
advancing.  ``u_prev`` holds the state before the last executed step, so the
caller can interpolate output times and the threshold crossing inside the
final step; all of ``u`` is copied into it on entry, so the cells past the
window hold their zeros there too.  Inside the call the two arrays are a
double buffer: each step writes the new state into the other one, and an
odd step count swaps their contents back on return.  ``u`` needs at least
two cells.

Returns ``(t_prev, t, status, nsub, clamp_added, sup_prev, sup_new)`` with
status codes: 0 reached t_stop, 1 threshold blow-up, 2 non-finite blow-up,
3 stalled (t + dt == t), 4 sub-step budget exhausted.
"""

from __future__ import annotations

import math

import numpy as np

# the only backend; kept so benchmark records can name it
HAVE_NUMBA = False

STATUS_REACHED_TSTOP = 0
STATUS_BLOWUP = 1
STATUS_OVERFLOW = 2
STATUS_STALLED = 3
STATUS_BUDGET = 4


def advance(
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
    clamp_added = 0.0
    nsub = 0
    t_prev = t
    s0 = float(u.max())
    sup_prev = 0.0
    sup_new = s0
    status = STATUS_REACHED_TSTOP

    # +0.0 is the only float with all bits zero, so a -0.0 cell stays inside
    # the window and keeps exactly the sign it would get at full width
    nonzero = np.flatnonzero(u.view(np.int64))
    hi = min(int(nonzero[-1]) + 2 if nonzero.size else 2, n)
    width = 0
    u_prev[:] = u
    # scratch buffers, allocated once per call; only the rare clamp and
    # masked-dt paths allocate inside the loop
    c3 = cfl_coef.copy()  # min(c_{i-1}, c_i, c_{i+1}), see the docstring
    np.minimum(c3[:-1], cfl_coef[1:], out=c3[:-1])
    np.minimum(c3[1:], cfl_coef[:-1], out=c3[1:])
    ratio = np.empty(n)
    um = np.empty(n)
    flux = np.empty(n + 1)
    flux[0] = 0.0
    sq = um if m == 2.0 else np.empty(n)
    # g = u^(m-1) of the dt minimum: u itself at m = 2, u*u at m = 3
    pw = sq if m in (2.0, 3.0) else np.empty(n)
    up = um if m == p else sq if p == 2.0 else np.empty(n)
    dflux = np.empty(n)
    inc = np.empty(n)

    # local names and positional ``out``: each lookup and keyword costs
    # dispatch time at every step
    add, subtract, multiply, divide, power = np.add, np.subtract, np.multiply, np.divide, np.power
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while t < t_stop and nsub < max_sub:
            if width != hi:
                # views of the window [0, hi); u^m and the fluxes take one
                # cell more when hi < n
                width = hi
                k = min(hi + 1, n)
                # cur views the state, nxt the buffer the next step writes
                a, b = (u_prev, u) if nsub % 2 else (u, u_prev)
                cur, nxt = [(x[:hi], x[:k]) for x in (a, b)]
                c3_w, ratio_w = c3[:hi], ratio[:hi]
                sq_k, sq_w, um_k, up_w, g_w = sq[:k], sq[:hi], um[:k], up[:hi], pw[:hi]
                um_lo, um_hi, flux_in, area_in = um[: k - 1], um[1:k], flux[1:k], area_over_dr[1:k]
                flux_lo, flux_hi, dflux_w = flux[:hi], flux[1 : hi + 1], dflux[:hi]
                inv_w, inc_w = inv_rho_vol[:hi], inc[:hi]

            uw, uk = cur
            # u^m and u^p from one u*u: u*u*u is (u*u)*u, as in the reference
            multiply(uk, uk, sq_k)
            # diffusion-limited dt per cell (see the module docstring); cells
            # past the window are +0.0 and never set dt
            if m == 2.0:
                g_w = uw
            elif m != 3.0:
                power(uw, m - 1.0, g_w)
            # a +0.0 g gives +inf, which never sets dt; a -0.0 or nan g
            # would not, so those fall back to a mask of the cells with g > 0
            divide(c3_w, g_w, ratio_w)
            r = float(ratio_w[ratio_w.argmin()])
            if not r > 0.0:
                positive = g_w > 0.0
                r = float((c3_w[positive] / g_w[positive]).min()) if positive.any() else math.inf
            dt = min(t_end - t, r)
            if reaction and s0 > 0.0:
                dt = min(dt, react_cap * s0 ** (1.0 - p))
            if t + dt == t:
                status = STATUS_STALLED
                break

            if m == 3.0:
                multiply(sq_k, uk, um_k)
            elif m != 2.0:
                power(uk, m, um_k)
            if reaction and m != p:
                if p == 3.0:
                    multiply(sq_w, uw, up_w)
                elif p != 2.0:
                    power(uw, p, up_w)
            subtract(um_hi, um_lo, flux_in)
            multiply(area_in, flux_in, flux_in)
            if hi == n:
                flux[n] = -area_over_dr[n] * um[n - 1] if dirichlet else 0.0

            t_prev = t
            sup_prev = s0

            subtract(flux_hi, flux_lo, dflux_w)
            multiply(inv_w, dt, inc_w)
            multiply(inc_w, dflux_w, inc_w)
            add(uw, inc_w, nxt[0])
            cur, nxt = nxt, cur
            uw = cur[0]
            if reaction:
                multiply(up_w, dt, inc_w)
                add(uw, inc_w, uw)
            # x[x.argmin()] is the min, or the first nan, at a fraction of
            # the cost of minimum.reduce
            if not uw[uw.argmin()] >= 0.0:
                neg = uw < 0.0
                # cell by cell, in the order the reference adds them up
                for rv, v in zip(rho_vol[:hi][neg].tolist(), uw[neg].tolist()):
                    clamp_added += rv * -v
                uw[neg] = 0.0

            t = t + dt
            nsub += 1
            s1 = float(uw[uw.argmax()])
            sup_new = s1
            if not math.isfinite(s1):
                # s1 is the first nan, if any; the reference's sup skips nans
                sup_new = max(0.0, float(np.fmax.reduce(uw)))
                status = STATUS_OVERFLOW
                break
            if s1 >= blowup_threshold:
                status = STATUS_BLOWUP
                break
            s0 = s1
            # only the cell at the window edge can have left zero
            if hi < n and uw[hi - 1] > 0.0:
                hi += 1

    if nsub % 2:  # the last state is in u_prev's buffer
        u[:], u_prev[:] = u_prev.copy(), u.copy()
    if status == STATUS_REACHED_TSTOP and t < t_stop:
        status = STATUS_BUDGET
    # + 0.0 turns a -0.0 sup (every cell a zero, -0.0 first) into the
    # reference's +0.0
    return t_prev, t, status, nsub, clamp_added, sup_prev + 0.0, sup_new + 0.0
