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

The diffusion limit is taken on the interior faces ``1 .. hi-1``, as
``min_j cf_j / g(F_j)`` with ``F_j = max(u_{j-1}, u_j)``, ``cf_j =
min(c_{j-1}, c_j)`` and ``g(x) = x^(m-1)``.  It equals the reference's
``min_i c_i / g(max(u_{i-1}, u_i, u_{i+1}))`` bit for bit, because correctly
rounded ``max``, ``x*x`` and division are monotone: a cell's three-cell max
is the larger of its two face maxima, and ``F`` on an edge face never
exceeds it on the interior face next to it.  A -0.0 or nan ``g`` falls back
to the faces with ``g > 0``, as the reference skips cells whose max is not
positive.

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
    cf = np.minimum(cfl_coef[:-1], cfl_coef[1:])
    face_max = np.empty(n - 1)
    pw = face_max if m == 2.0 else np.empty(n - 1)
    ratio = np.empty(n - 1)
    um = np.empty(n)
    flux = np.empty(n + 1)
    flux[0] = 0.0
    sq = um if m == 2.0 else np.empty(n)
    up = um if m == p else sq if p == 2.0 else np.empty(n)
    dflux = np.empty(n)
    inc = np.empty(n)

    maximum, multiply = np.maximum, np.multiply
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while t < t_stop and nsub < max_sub:
            if width != hi:
                # views of the window [0, hi) and its faces; u^m and the
                # fluxes take one cell more when hi < n
                width = hi
                k = min(hi + 1, n)
                # cur views the state, nxt the buffer the next step writes
                a, b = (u_prev, u) if nsub % 2 else (u, u_prev)
                cur, nxt = [(x[:hi], x[: hi - 1], x[1:hi], x[:k]) for x in (a, b)]
                fm_w, pw_w, cf_w, ratio_w = face_max[: hi - 1], pw[: hi - 1], cf[: hi - 1], ratio[: hi - 1]
                sq_k, sq_w, um_k, up_w = sq[:k], sq[:hi], um[:k], up[:hi]
                um_lo, um_hi, flux_in, area_in = um[: k - 1], um[1:k], flux[1:k], area_over_dr[1:k]
                flux_lo, flux_hi, dflux_w = flux[:hi], flux[1 : hi + 1], dflux[:hi]
                inv_w, inc_w = inv_rho_vol[:hi], inc[:hi]

            uw, u_lo, u_hi, uk = cur
            # diffusion-limited dt on the interior faces (see the module
            # docstring); faces past the window are zero and never set dt
            maximum(u_lo, u_hi, out=fm_w)
            if m == 3.0:
                multiply(fm_w, fm_w, out=pw_w)
            elif m != 2.0:
                np.power(fm_w, m - 1.0, out=pw_w)
            # a +0.0 pw gives +inf, which never sets dt; a -0.0 or nan pw
            # would not, so those fall back to a mask of the faces with pw > 0
            np.divide(cf_w, pw_w, out=ratio_w)
            r = float(ratio_w[ratio_w.argmin()])
            if not r > 0.0:
                positive = pw_w > 0.0
                r = float((cf_w[positive] / pw_w[positive]).min()) if positive.any() else math.inf
            dt = min(t_end - t, r)
            if reaction and s0 > 0.0:
                dt = min(dt, react_cap * s0 ** (1.0 - p))
            if t + dt == t:
                status = STATUS_STALLED
                break

            # u^m and u^p from one u*u: u*u*u is (u*u)*u, as in the reference
            multiply(uk, uk, out=sq_k)
            if m == 3.0:
                multiply(sq_k, uk, out=um_k)
            elif m != 2.0:
                np.power(uk, m, out=um_k)
            if reaction and m != p:
                if p == 3.0:
                    multiply(sq_w, uw, out=up_w)
                elif p != 2.0:
                    np.power(uw, p, out=up_w)
            np.subtract(um_hi, um_lo, out=flux_in)
            multiply(area_in, flux_in, out=flux_in)
            if hi == n:
                flux[n] = -area_over_dr[n] * um[n - 1] if dirichlet else 0.0

            t_prev = t
            sup_prev = s0

            np.subtract(flux_hi, flux_lo, out=dflux_w)
            multiply(inv_w, dt, out=inc_w)
            multiply(inc_w, dflux_w, out=inc_w)
            np.add(uw, inc_w, out=nxt[0])
            cur, nxt = nxt, cur
            uw = cur[0]
            if reaction:
                multiply(up_w, dt, out=inc_w)
                np.add(uw, inc_w, out=uw)
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
    return t_prev, t, status, nsub, clamp_added, sup_prev, sup_new
