"""Inner stepping loops for the explicit radial scheme.

Two implementations of the same contract: a scalar loop over every cell,
compiled with numba when numba imports, and a numpy kernel used otherwise.
The scalar loop is the reference.  The numpy kernel keeps each cell's
arithmetic in the same order, so for m, p in {2, 3}, where both expand the
powers into products, the two produce bit-identical trajectories.  For
other exponents the scalar ``**`` and ``np.power`` round differently and
the paths agree only to rounding.

The numpy kernel steps only the active window ``[0, hi)``.  Invariant: at
the start of every step each cell from ``hi - 1`` on holds +0.0.  A +0.0
cell between +0.0 neighbours stays +0.0 through a step (no flux, no
reaction) and adds no term to the dt minimum, so leaving it out changes no
value.  ``hi`` starts at the last nonzero cell plus 2 and grows by one when
the edge cell ``hi - 1`` turns positive, which the three-point stencil
allows at most once per step.

Contract of ``advance``: starting from cell values ``u`` at time ``t``, take
explicit Euler steps (diffusion flux divergence plus optional reaction) until
``t`` reaches ``t_stop``, the sub-step budget ``max_sub`` runs out, the sup
norm crosses ``blowup_threshold``, a non-finite value appears, or time stops
advancing.  ``u_prev`` holds the state before the last executed step, so the
caller can interpolate output times and the threshold crossing inside the
final step; the numpy kernel copies all of ``u`` into it on entry, so the
cells past the window hold their zeros there too.

Returns ``(t_prev, t, status, nsub, clamp_added, sup_prev, sup_new)`` with
status codes: 0 reached t_stop, 1 threshold blow-up, 2 non-finite blow-up,
3 stalled (t + dt == t), 4 sub-step budget exhausted.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

STATUS_REACHED_TSTOP = 0
STATUS_BLOWUP = 1
STATUS_OVERFLOW = 2
STATUS_STALLED = 3
STATUS_BUDGET = 4


def _advance_impl(
    u,
    u_prev,
    um,
    flux,
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
    sup_prev = 0.0
    s0 = 0.0
    for i in range(n):
        if u[i] > s0:
            s0 = u[i]
    sup_new = s0
    status = STATUS_REACHED_TSTOP

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
            status = STATUS_STALLED
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
            status = STATUS_OVERFLOW
            break
        if s1 >= blowup_threshold:
            status = STATUS_BLOWUP
            break
        s0 = s1

    if status == STATUS_REACHED_TSTOP and t < t_stop:
        status = STATUS_BUDGET
    return t_prev, t, status, nsub, clamp_added, sup_prev, sup_new


def _advance_numpy(
    u,
    u_prev,
    um,
    flux,
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
    # Vectorized variant of _advance_impl on the active window [0, hi): one
    # python iteration per time step, whose array ops write into buffers
    # allocated once per call (only the rare clamp and masked-dt paths
    # allocate inside the loop).
    n = u.shape[0]
    clamp_added = 0.0
    nsub = 0
    t_prev = t
    s0 = float(u.max()) if n else 0.0
    sup_prev = 0.0
    sup_new = s0
    status = STATUS_REACHED_TSTOP

    # +0.0 is the only float with all bits zero, so a -0.0 cell stays inside
    # the window and keeps exactly the sign it would get at full width
    nonzero = np.flatnonzero(u.view(np.int64))
    hi = min(int(nonzero[-1]) + 2 if nonzero.size else 1, n)
    width = 0
    u_prev[:] = u
    flux[0] = 0.0
    face_max = np.empty(n + 1)
    nbhd = np.empty(n)
    pw = nbhd if m == 2.0 else np.empty(n)
    ratio = np.empty(n)
    sq = um if m == 2.0 else np.empty(n)
    up = um if m == p else sq if p == 2.0 else np.empty(n)
    dflux = np.empty(n)
    inc = np.empty(n)

    maximum, minimum, multiply = np.maximum, np.minimum, np.multiply
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while t < t_stop and nsub < max_sub:
            if width != hi:
                # views of the window [0, hi); u^m and the fluxes take one
                # cell more while the window ends inside the grid
                width = hi
                k = min(hi + 1, n)
                uw, u_lo, u_hi, uk, u_prev_w = u[:hi], u[: hi - 1], u[1:hi], u[:k], u_prev[:hi]
                fm_in, fm_lo, fm_hi = face_max[1:hi], face_max[:hi], face_max[1 : hi + 1]
                nbhd_w, pw_w, cfl_w, ratio_w = nbhd[:hi], pw[:hi], cfl_coef[:hi], ratio[:hi]
                sq_k, sq_w, um_k, up_w = sq[:k], sq[:hi], um[:k], up[:hi]
                um_lo, um_hi, flux_in, area_in = um[: k - 1], um[1:k], flux[1:k], area_over_dr[1:k]
                flux_lo, flux_hi, dflux_w = flux[:hi], flux[1 : hi + 1], dflux[:hi]
                inv_w, inc_w = inv_rho_vol[:hi], inc[:hi]

            # diffusion-limited dt from the neighborhood max of u; cells
            # past the window are zero and change no max
            maximum(u_lo, u_hi, out=fm_in)
            face_max[0] = uw[0]
            face_max[hi] = uw[hi - 1]
            maximum(fm_lo, fm_hi, out=nbhd_w)
            if m == 3.0:
                multiply(nbhd_w, nbhd_w, out=pw_w)
            elif m != 2.0:
                np.power(nbhd_w, m - 1.0, out=pw_w)
            # a +0.0 pw gives +inf, which never sets dt; a -0.0 or nan pw
            # would not, so those fall back to the mask of _advance_impl
            np.divide(cfl_w, pw_w, out=ratio_w)
            r = float(minimum.reduce(ratio_w))
            if not r > 0.0:
                positive = pw_w > 0.0
                r = float((cfl_w[positive] / pw_w[positive]).min()) if positive.any() else math.inf
            dt = min(t_end - t, r)
            if reaction and s0 > 0.0:
                dt = min(dt, react_cap * s0 ** (1.0 - p))
            if t + dt == t:
                status = STATUS_STALLED
                break

            # u^m and u^p from one u*u: u*u*u is (u*u)*u, as in _advance_impl
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

            u_prev_w[:] = uw
            t_prev = t
            sup_prev = s0

            np.subtract(flux_hi, flux_lo, out=dflux_w)
            multiply(inv_w, dt, out=inc_w)
            multiply(inc_w, dflux_w, out=inc_w)
            np.add(uw, inc_w, out=uw)
            if reaction:
                multiply(up_w, dt, out=inc_w)
                np.add(uw, inc_w, out=uw)
            if not minimum.reduce(uw) >= 0.0:
                neg = uw < 0.0
                if neg.any():
                    clamp_added += float((rho_vol[:hi][neg] * -uw[neg]).sum())
                    uw[neg] = 0.0

            t = t + dt
            nsub += 1
            s1 = float(maximum.reduce(uw))
            sup_new = s1
            if not math.isfinite(s1):
                status = STATUS_OVERFLOW
                break
            if s1 >= blowup_threshold:
                status = STATUS_BLOWUP
                break
            s0 = s1
            # only the cell at the window edge can have left zero
            if hi < n and uw[hi - 1] > 0.0:
                hi += 1

    if status == STATUS_REACHED_TSTOP and t < t_stop:
        status = STATUS_BUDGET
    return t_prev, t, status, nsub, clamp_added, sup_prev, sup_new


advance = njit(cache=True)(_advance_impl) if HAVE_NUMBA else _advance_numpy
