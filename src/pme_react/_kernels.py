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

One reduction per step.  The reference ends every step with the clamp of
negative cells and the sup, which decides the threshold and overflow stops
and caps the next dt by ``react_cap * sup^(1-p)``.  The kernel runs that
end-of-step code only when the next step's dt minimum ``r`` asks for it; it
then *settles* the step before, exactly as the reference ends it.  Every
cell has ``c3_i / g(u_i) >= r``, so ``u_i^(m-1) <= max(c3) / r``: up to
rounding, ``sup u <= U(r) = (max(c3) / r)^(1/(m-1))``, which decreases in r.
Once per call the threshold and the cap give an interval ``(r_lo, r_hi)``,
padded by ``PAD`` for the rounding, on which ``U(r)`` is below the threshold
and ``react_cap * U(r)^(1-p) >= r``; since ``sup <= U(r)`` and p > 1, the
cap is then at least r and leaves dt alone.  For p > m the cap bounds r from
below, for p < m from above; at p = m the interval is empty and every step
settles.  While r lies inside, the step goes on with ``dt = min(t_end - t,
r)``; outside it, and at every return, the kernel settles first.  At m = 2,
``g = u``, so a negative, -0.0, nan or inf cell makes ``r <= 0`` or nan and
the clamp can wait for the settle too; at other m it stays at each step's
end.

At (m, p) = (2, 3) a step makes 12 numpy calls: the dt division and its
``argmin``, ``u*u`` and one more product for the cube, two for the fluxes,
four for the diffusion update and two for the reaction.  At (3, 2) it makes
13, the ``argmin`` of the clamp check being the extra one.  With m and p
outside {2, 3} nothing reads ``u*u`` and it is skipped: three powers take
its place, 14 calls.  dt reaches the two products that take it as a 0-d
array filled once per step, which a ufunc takes faster than a Python float.

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

# relative slack of the settle bound, many times the few roundings between
# the dt minimum and the sup, and those of the logs in ``_settle_interval``
PAD = 1.0 + 2.0**-20
# the bound keeps to relative rounding errors, which PAD covers, while r and
# max(c3) / r are both normal floats, at least TINY
TINY = 2.0**-1022
# log of 2^1024, where the float range ends
LOG_FLOAT_MAX = 1024.0 * math.log(2.0)


def _settle_interval(cmax, m, p, reaction, threshold, react_cap):
    """The dt minima ``r`` in ``(r_lo, r_hi)`` settle nothing: there the
    state's sup is below ``threshold`` and, with the reaction on, the cap
    ``react_cap * sup^(1-p)`` is at least ``r`` (module docstring).  Empty,
    so that every step settles, where the bound decides nothing: at p = m
    with the reaction on, and outside m > 1, p > 1."""
    empty = (math.inf, -math.inf)
    if not (m > 1.0 and threshold > 0.0 and 0.0 < cmax < math.inf):
        return empty
    log_pad = math.log(PAD)
    # log U(r) = (lc - log r) / (m - 1) + log_pad, with the bound's two pads
    lc = math.log(cmax) + log_pad
    log_lo = lc - (m - 1.0) * (math.log(threshold) - log_pad)
    log_hi = math.inf
    if reaction:
        if not (p > 1.0 and p != m and react_cap > 0.0):
            return empty
        # react_cap * U(r)^(1-p) >= r  <=>  (p - m) log r >= k
        k = (p - 1.0) * (lc + (m - 1.0) * log_pad) - (m - 1.0) * math.log(react_cap)
        if p > m:
            log_lo = max(log_lo, k / (p - m))
        else:
            log_hi = k / (p - m)
    # one pad more for the rounding of the logs; np.exp gives inf and 0.0
    # where math.exp would raise
    r_lo = max(float(np.exp(log_lo + log_pad)), TINY)
    r_hi = min(float(np.exp(log_hi - log_pad)), cmax / TINY)
    return r_lo, r_hi


def reaction_cap(react_cap, sup, p):
    """``react_cap * sup^(1-p)``, or +inf for a zero sup and where
    ``sup^(1-p)`` passes the float range, where Python's ``**`` raises
    ``OverflowError``.  The log test gives up a relative 1e-9 below the
    largest float, where the rounding of the log could hide an overflow."""
    if not sup > 0.0 or (1.0 - p) * math.log(sup) >= LOG_FLOAT_MAX - 1.0e-9:
        return math.inf
    return react_cap * sup ** (1.0 - p)


def _clamp(uw, rho_w, clamp_added):
    """Set the negative cells of ``uw`` to +0.0 and add their weighted mass
    to ``clamp_added``, cell by cell in the order the reference adds it."""
    neg = uw < 0.0
    for rv, v in zip(rho_w[neg].tolist(), uw[neg].tolist()):
        clamp_added += rv * -v
    uw[neg] = 0.0
    return clamp_added


def _settle(uw, rho_w, clamp, clamp_added, threshold):
    """The reference's end of a step, run on the state ``uw``: the clamp
    when ``clamp``, then the sup and its overflow and threshold checks.
    Returns ``(clamp_added, sup, status)``, status 0 when neither stops."""
    # x[x.argmin()] is the min, or the first nan, at a fraction of the cost
    # of minimum.reduce
    if clamp and not uw[uw.argmin()] >= 0.0:
        clamp_added = _clamp(uw, rho_w, clamp_added)
    s1 = float(uw[uw.argmax()])
    if not math.isfinite(s1):
        # s1 is the first nan, if any; the reference's sup skips nans
        return clamp_added, max(0.0, float(np.fmax.reduce(uw))), STATUS_OVERFLOW
    return clamp_added, s1, STATUS_BLOWUP if s1 >= threshold else STATUS_REACHED_TSTOP


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
    # the sup of the current state while it is settled; the entry state is
    # settled as it comes, unclamped
    s0 = float(u.max())
    settled = True
    sup_prev = 0.0
    status = STATUS_REACHED_TSTOP
    # at m = 2 the clamp waits for the settle (module docstring)
    clamp_late = m == 2.0

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
    r_lo, r_hi = _settle_interval(float(c3.max()), m, p, reaction, blowup_threshold, react_cap)
    ratio = np.empty(n)
    um = np.empty(n)
    flux = np.empty(n + 1)
    flux[0] = 0.0
    sq = um if m == 2.0 else np.empty(n)
    # g = u^(m-1) of the dt minimum: u itself at m = 2, u*u at m = 3
    pw = sq if m in (2.0, 3.0) else np.empty(n)
    up = um if m == p else sq if p == 2.0 else np.empty(n)
    need_sq = m == 2.0 or (reaction and p in (2.0, 3.0))
    dflux = np.empty(n)
    inc = np.empty(n)
    dt_a = np.empty(())

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
                c3_w, ratio_w, rho_w = c3[:hi], ratio[:hi], rho_vol[:hi]
                sq_k, sq_w, um_k, up_w, g_w = sq[:k], sq[:hi], um[:k], up[:hi], pw[:hi]
                um_lo, um_hi, flux_in, area_in = um[: k - 1], um[1:k], flux[1:k], area_over_dr[1:k]
                flux_lo, flux_hi, dflux_w = flux[:hi], flux[1 : hi + 1], dflux[:hi]
                inv_w, inc_w = inv_rho_vol[:hi], inc[:hi]

            uw, uk = cur
            # diffusion-limited dt per cell (see the module docstring); cells
            # past the window are +0.0 and never set dt
            if m == 3.0:
                # u^m and u^p from one u*u: u*u*u is (u*u)*u, as in the reference
                multiply(uk, uk, sq_k)
            elif m == 2.0:
                g_w = uw
            else:
                power(uw, m - 1.0, g_w)
            divide(c3_w, g_w, ratio_w)
            r = float(ratio_w[ratio_w.argmin()])
            if r_lo < r < r_hi:
                # the sup is below the threshold and the cap is at least r
                dt = min(t_end - t, r)
            else:
                if not settled:
                    clamp_added, s0, status = _settle(uw, rho_w, clamp_late, clamp_added, blowup_threshold)
                    settled = True
                    if status:
                        break
                # a +0.0 g gives +inf, which never sets dt; a -0.0 or nan g
                # would not, so those fall back to a mask of the cells with g > 0
                if not r > 0.0:
                    positive = g_w > 0.0
                    r = float((c3_w[positive] / g_w[positive]).min()) if positive.any() else math.inf
                dt = min(t_end - t, r)
                if reaction:
                    dt = min(dt, reaction_cap(react_cap, s0, p))
            if t + dt == t:
                status = STATUS_STALLED
                break
            dt_a[()] = dt

            if m == 3.0:
                multiply(sq_k, uk, um_k)
            else:
                # after the settle, which at m = 2 may have clamped cells;
                # u*u is u^m at m = 2 and otherwise read only at p in {2, 3}
                if need_sq:
                    multiply(uk, uk, sq_k)
                if m != 2.0:
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
            subtract(flux_hi, flux_lo, dflux_w)
            multiply(inv_w, dt_a, inc_w)
            multiply(inc_w, dflux_w, inc_w)
            add(uw, inc_w, nxt[0])
            cur, nxt = nxt, cur
            uw = cur[0]
            if reaction:
                multiply(up_w, dt_a, inc_w)
                add(uw, inc_w, uw)
            settled = False
            if not clamp_late and not uw[uw.argmin()] >= 0.0:
                clamp_added = _clamp(uw, rho_w, clamp_added)

            t = t + dt
            nsub += 1
            # only the cell at the window edge can have left zero
            if hi < n and uw[hi - 1] > 0.0:
                hi += 1

    if not settled:
        # a stall on an unsettled state had r inside (r_lo, r_hi), so there
        # the settle finds no stop and the stall stands
        clamp_added, s0, found = _settle(cur[0], rho_w, clamp_late, clamp_added, blowup_threshold)
        status = status or found
    if nsub:
        # the state before the last step: any clamp it needed ran before
        # that step, so its sup is the one the reference took then
        prev = nxt[0]
        sup_prev = float(prev[prev.argmax()])
    if nsub % 2:  # the last state is in u_prev's buffer
        u[:], u_prev[:] = u_prev.copy(), u.copy()
    if status == STATUS_REACHED_TSTOP and t < t_stop:
        status = STATUS_BUDGET
    # + 0.0 turns a -0.0 sup (every cell a zero, -0.0 first) into the
    # reference's +0.0
    return t_prev, t, status, nsub, clamp_added, sup_prev + 0.0, s0 + 0.0
