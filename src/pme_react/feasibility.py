"""Inequality certificates for the barrier sign conditions.

Each ``check_*`` function evaluates a closed system of scalar inequalities
that is sufficient for the corresponding barrier to be a super/subsolution,
and returns a :class:`FeasibilityReport` listing every inequality with its
two sides, slack and verdict; its ``mode`` is the barrier's ``regime``.
``build_barrier`` is the one place that turns a regime name and its
parameters into a barrier: it holds the regime defaults, the shape
exponents and the table ``BARRIER_KEYS`` of the parameters each regime
takes.  It and ``find_params`` share one check of the regime name and its
exponent condition (:func:`_check_regime`).  ``find_params`` runs the documented
deterministic search and returns parameters that satisfy the binding
inequality with at least ``MARGIN`` relative slack.  The compact profiles
sweep the shape ratio ``omega = C^(m-1)/a`` on a log grid of
``OMEGA_POINTS`` points (``OMEGA_MIN`` to ``OMEGA_MAX`` for the blow-up
profile).  An omega is feasible when the certificate flips between the
bracket ends ``C_LO`` and ``C_HI``, two evaluations each; the feasible
range is the report's omega window.  Only the omega the search returns
is bisected for its binding amplitude ``C``: log-bisection on
``[C_LO, C_HI]`` that stops when the bracket ends are adjacent floats, or
after ``BISECT_ITERS`` halvings.  ``T`` and the GE1 shape parameters are
fixed by the caller or by the defaults.

Two condition sets exist for the spreading supersolution:

- ``check_ge2`` uses the envelope-level system, which bounds the weight by
  its two-sided band constants ``k1, k2`` before optimizing.  That system is
  infeasible when ``k1(bbar m/(m-1) + N - 3) - k2 bbar/(m-1)`` times
  ``(p - m)`` does not strictly exceed ``bbar k2`` (in particular at the
  equality case k1 = k2 = 1, N = 3, m = 2, p = 3, alpha = 2).
- ``check_ge2_pointwise`` works with the canonical band member directly: the
  residual factors through a concave profile polynomial in
  ``F = 1 - (log(r+r0))^bbar eta/a``, so nonnegativity reduces to the two
  endpoint inequalities, with the spatial drift minimum found numerically.
  ``find_params`` falls back to this set when the envelope system has no
  feasible amplitude, and the report's ``condition_set`` records which set
  certified the returned parameters.

The ``time_conditions_*`` functions evaluate the time-dependent sufficient
conditions directly on a dense grid; for the concrete power-law time factors
used here they are implied exactly by the corresponding scalar systems (the
time factors cancel), and a property test pins that down.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .barrier import REGIME_BLOWUP, REGIME_GE1A, REGIME_GE1B, REGIME_GE2, REGIMES
from .barrier import BlowupSubsolution, GE1Barrier, GE2Barrier
from .density import (
    DensityParams,
    E,
    FAMILY_H1,
    ProblemConstants,
    derive_k0,
    derive_rho_bounds,
)


class FeasibilitySearchError(RuntimeError):
    """No parameters satisfy every condition within the search budget."""


@dataclass(frozen=True)
class FeasibilityEntry:
    """One inequality ``lhs <= rhs`` (or ``lhs < rhs`` when strict)."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    strict: bool = False


@dataclass(frozen=True)
class FeasibilityReport:
    mode: str
    condition_set: str
    inequalities: Tuple[FeasibilityEntry, ...]
    params: Dict[str, float] = field(default_factory=dict)
    overall: bool = True

    def entry(self, name: str) -> FeasibilityEntry:
        for e in self.inequalities:
            if e.name == name:
                return e
        raise KeyError(f"no inequality named {name!r} in this report")


def _entry(name: str, lhs: float, rhs: float, strict: bool = False) -> FeasibilityEntry:
    slack = rhs - lhs
    passed = lhs < rhs if strict else lhs <= rhs
    return FeasibilityEntry(
        name=name, lhs=float(lhs), rhs=float(rhs), slack=float(slack), passed=bool(passed), strict=strict
    )


def _finish(mode, condition_set, entries, params) -> FeasibilityReport:
    return FeasibilityReport(
        mode=mode,
        condition_set=condition_set,
        inequalities=tuple(entries),
        params={k: float(v) for k, v in params.items()},
        overall=all(e.passed for e in entries),
    )


def K_const(m: float, p: float) -> float:
    """Calibration constant ``x^theta (1 - x)`` with ``x = (m-1)/(p+m-2)``
    and ``theta = (m-1)/(p-1)``.

    It is the gap between the two powers of ``x`` appearing when the
    subsolution's profile polynomial is optimized, and enters the coupling
    inequalities of :func:`check_blowup`.
    """
    if not (m > 1.0 and p > 1.0):
        raise ValueError("K_const needs m > 1 and p > 1")
    x = (m - 1.0) / (p + m - 2.0)
    theta = (m - 1.0) / (p - 1.0)
    return x**theta * (1.0 - x)


def omega_of(C: float, a: float, m: float) -> float:
    """Shape ratio ``omega = C^(m-1)/a`` shared by all compact profiles."""
    return C ** (m - 1.0) / a


# ---------------------------------------------------------------------------
# GE1: logarithmic-decay supersolution
# ---------------------------------------------------------------------------


def check_ge1(bar: GE1Barrier, dens: DensityParams) -> FeasibilityReport:
    """Certificate for the logarithmic-decay supersolution over an H1 weight.

    Conditions: the decay exponent window ``0 < b < alpha - 1``; the
    Laplacian margin ``eps (b + 1) < N - 2``; the slack floor
    ``1/log(r0) < eps``; the regime link between ``beta`` and the sign of
    ``p - m`` (with ``T > 1`` required when ``p < m`` so the growing time
    factor only helps); and the amplitude balance
    ``cbar C^p <= K0 C^m`` with ``K0 = k0 b (N - 2 - eps(b+1))``, whose two
    sides are reported in the regime-appropriate scale-free form.
    """
    cc = bar.constants
    if dens.family != FAMILY_H1:
        raise ValueError("GE1 certificates require an H1-family density")
    k0 = derive_k0(dens)
    K0 = k0 * bar.b * (cc.N - 2.0 - bar.eps * (bar.b + 1.0))

    entries = [
        _entry("b_positive", 0.0, bar.b, strict=True),
        _entry("b_below_alpha_window", bar.b, dens.alpha - 1.0, strict=True),
        _entry("laplacian_margin", bar.eps * (bar.b + 1.0), cc.N - 2.0, strict=True),
        _entry("epsilon_floor", 1.0 / math.log(bar.r0), bar.eps, strict=True),
    ]
    if bar.regime == REGIME_GE1A:
        entries.append(_entry("beta_mode", 0.0, bar.beta, strict=True))
        entries.append(_entry("time_shift_gt_one", 1.0, bar.T, strict=True))
        entries.append(_entry("amplitude_balance", bar.cbar, K0 * bar.C ** (cc.m - cc.p)))
    else:
        entries.append(_entry("beta_mode", abs(bar.beta), 0.0))
        entries.append(_entry("amplitude_balance", bar.cbar * bar.C ** (cc.p - cc.m), K0))

    params = {
        "C": bar.C,
        "T": bar.T,
        "beta": bar.beta,
        "b": bar.b,
        "eps": bar.eps,
        "r0": bar.r0,
        "cbar": bar.cbar,
        "k0": k0,
        "K0": K0,
    }
    return _finish(bar.regime, "envelope", entries, params)


# ---------------------------------------------------------------------------
# GE2: spreading compact supersolution (p > m)
# ---------------------------------------------------------------------------


def _require_two_sided(dens: DensityParams, what: str) -> None:
    if dens.family == FAMILY_H1:
        raise ValueError(f"{what} requires a two-sided (H2/H2Smooth) density")


def _bbar(dens: DensityParams) -> float:
    """Support shape exponent of the spreading supersolution."""
    return dens.alpha + 2.0


def _ge2_structure_entries(bar: GE2Barrier, dens: DensityParams) -> list:
    return [_entry("support_shape_exponent", abs(bar.bbar - _bbar(dens)), 0.0)]


def check_ge2(bar: GE2Barrier, dens: DensityParams) -> FeasibilityReport:
    """Envelope-level certificate for the spreading supersolution.

    Conditions: ``bbar = alpha + 2``; the band ratio window
    ``k2/k1 < m + (N-3)(m-1)/bbar``; the support decay rate
    ``bbar^2 omega (m/(m-1)) k2 <= (p-m)/(p-1)``; and the amplitude balance
    ``C^(p-1) + 1/(p-1) <= bbar omega (m/(m-1)) X`` with
    ``X = k1(bbar m/(m-1) + N - 3) - k2 bbar/(m-1)``.
    """
    cc = bar.constants
    _require_two_sided(dens, "the envelope GE2 certificate")
    m, p, N = cc.m, cc.p, cc.N
    omega = omega_of(bar.C, bar.a, m)
    mf = m / (m - 1.0)
    X = dens.k1 * (bar.bbar * mf + N - 3.0) - dens.k2 * bar.bbar / (m - 1.0)

    entries = _ge2_structure_entries(bar, dens)
    entries.append(
        _entry(
            "density_ratio_window",
            dens.k2 / dens.k1,
            m + (N - 3.0) * (m - 1.0) / bar.bbar,
            strict=True,
        )
    )
    entries.append(
        _entry("support_decay_rate", bar.bbar**2 * omega * mf * dens.k2, (p - m) / (p - 1.0))
    )
    entries.append(
        _entry(
            "amplitude_balance",
            bar.C ** (p - 1.0) + 1.0 / (p - 1.0),
            bar.bbar * omega * mf * X,
        )
    )
    params = {
        "C": bar.C,
        "a": bar.a,
        "T": bar.T,
        "bbar": bar.bbar,
        "r0": bar.r0,
        "omega": omega,
        "k1": dens.k1,
        "k2": dens.k2,
        "X": X,
    }
    return _finish(bar.regime, "envelope", entries, params)


def _fminbound(f: Callable[[float], float], a: float, b: float, xatol: float) -> float:
    """Minimum value of ``f`` on ``[a, b]`` by Brent's method.

    Golden-section steps with parabolic interpolation (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973), step for step
    as scipy's ``minimize_scalar(method="bounded")``: the same tolerances,
    the same 500-evaluation cap, so it returns the same float.  Returns
    ``f`` at the best point found.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabolic fit through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = -tol1 if xm - xf < 0.0 else tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e

        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return fx


@functools.lru_cache(maxsize=None)
def ge2_drift_minimum(N: int, r0: float) -> float:
    """Minimum over r > 0 of ``(N-1)(1 + r0/r) log(r+r0) - log(r+r0)``.

    The quantity diverges at both ends (the geometric term as ``r -> 0``,
    the dimensional one as ``r -> infinity``), so the minimum is interior;
    it is bracketed on a log grid and polished with Brent's bounded
    minimization (:func:`_fminbound`).
    """

    def g(r: float) -> float:
        L = math.log(r + r0)
        return (N - 1.0) * (1.0 + r0 / r) * L - L

    grid = np.geomspace(1.0e-3, 1.0e9, 2001)
    vals = np.array([g(r) for r in grid])
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    polished = _fminbound(g, lo, hi, xatol=1e-12)
    return float(min(polished, vals[i]))


def check_ge2_pointwise(bar: GE2Barrier, dens: DensityParams) -> FeasibilityReport:
    """Sharp certificate for the spreading supersolution over the canonical
    band member (the weight with constant ``k1``).

    The residual equals ``C tau F^(1/(m-1)-1)`` times a profile polynomial
    that is concave in ``F``, so nonnegativity on the support interior
    reduces to the endpoints:

    - ``F -> 0``: the support decay rate, identical in form to the envelope
      version but with the canonical constant;
    - ``F -> 1``: the amplitude balance with the true spatial minimum of the
      drift bracket ``(N-1)(1 + r0/r)L - L + bbar - 1`` instead of its
      envelope bound.
    """
    cc = bar.constants
    _require_two_sided(dens, "the pointwise GE2 certificate")
    m, p, N = cc.m, cc.p, cc.N
    kc = dens.k1
    omega = omega_of(bar.C, bar.a, m)
    mf = m / (m - 1.0)
    bracket_min = ge2_drift_minimum(N, bar.r0) + bar.bbar - 1.0

    entries = _ge2_structure_entries(bar, dens)
    entries.append(
        _entry(
            "support_decay_rate_pointwise",
            bar.bbar**2 * omega * mf * kc,
            (p - m) / (p - 1.0),
        )
    )
    entries.append(
        _entry(
            "amplitude_balance_pointwise",
            bar.C ** (p - 1.0) + 1.0 / (p - 1.0),
            bar.bbar * omega * mf * kc * bracket_min,
        )
    )
    params = {
        "C": bar.C,
        "a": bar.a,
        "T": bar.T,
        "bbar": bar.bbar,
        "r0": bar.r0,
        "omega": omega,
        "k_canonical": kc,
        "drift_bracket_min": bracket_min,
    }
    return _finish(bar.regime, "pointwise", entries, params)


# ---------------------------------------------------------------------------
# Blow-up: shrinking compact subsolution (p > m)
# ---------------------------------------------------------------------------


def _bunder(dens: DensityParams) -> float:
    """Outer log exponent of the shrinking subsolution."""
    return dens.alpha + 1.0


def check_blowup(bar: BlowupSubsolution, dens: DensityParams) -> FeasibilityReport:
    """Certificate for the shrinking subsolution over a two-sided weight.

    Two branches (the outer log profile and the inner paraboloid, the latter
    controlled by the inverse-weight bound ``rho2`` on the ball of radius e)
    each contribute a gap amplitude condition and a coupling condition:

    - gap amplitude: ``branch <= (p+m-2) C^(p-1)`` where
      ``branch_outer = 1 + m k2 bunder omega (N - 2 + bunder m/(m-1))`` and
      ``branch_inner = 1 + m rho2 omega bunder N / e^2``;
    - coupling: ``K (branch/(m-1))^nu <= (p-m)/((m-1)(p-1)) C^(m-1)`` with
      ``nu = (p+m-2)/(p-1)`` and ``K`` from :func:`K_const`.
    """
    cc = bar.constants
    _require_two_sided(dens, "the blow-up certificate")
    m, p, N = cc.m, cc.p, cc.N
    omega = omega_of(bar.C, bar.a, m)
    k2 = dens.k2
    rho1, rho2 = derive_rho_bounds(dens)
    K = K_const(m, p)
    nu = (p + m - 2.0) / (p - 1.0)

    branch_outer = 1.0 + m * k2 * bar.bunder * omega * (N - 2.0 + bar.bunder * m / (m - 1.0))
    branch_inner = 1.0 + m * rho2 * omega * bar.bunder * N / E**2
    gap_rhs = (p + m - 2.0) * bar.C ** (p - 1.0)
    coupling_rhs = (p - m) / ((m - 1.0) * (p - 1.0)) * bar.C ** (m - 1.0)

    entries = [
        _entry("outer_shape_exponent", abs(bar.bunder - _bunder(dens)), 0.0),
        _entry("outer_gap_amplitude", branch_outer, gap_rhs),
        _entry("inner_gap_amplitude", branch_inner, gap_rhs),
        _entry("outer_coupling", K * (branch_outer / (m - 1.0)) ** nu, coupling_rhs),
        _entry("inner_coupling", K * (branch_inner / (m - 1.0)) ** nu, coupling_rhs),
    ]
    params = {
        "C": bar.C,
        "a": bar.a,
        "T": bar.T,
        "bunder": bar.bunder,
        "omega": omega,
        "k2": k2,
        "rho1": rho1,
        "rho2": rho2,
        "K": K,
        "branch_outer": branch_outer,
        "branch_inner": branch_inner,
    }
    return _finish(bar.regime, "envelope", entries, params)


# ---------------------------------------------------------------------------
# time-grid evaluation of the direct sufficient conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGridReport:
    """Margins of the direct time-dependent conditions on a dense grid.

    Every margin array must be nonnegative for the condition to hold on the
    grid; ``min_margins`` collects the minima and ``overall`` their
    conjunction.
    """

    t_grid: np.ndarray
    margins: Dict[str, np.ndarray]
    min_margins: Dict[str, float]
    overall: bool


def _grid_report(t_grid, margins) -> TimeGridReport:
    mins = {k: float(np.min(v)) for k, v in margins.items()}
    return TimeGridReport(
        t_grid=t_grid,
        margins=margins,
        min_margins=mins,
        overall=all(v >= 0.0 for v in mins.values()),
    )


def time_conditions_ge1(bar: GE1Barrier, dens: DensityParams, n: int = 1000) -> TimeGridReport:
    """Monotone time factor and amplitude balance along t in [0, 10 T]."""
    cc = bar.constants
    k0 = derive_k0(dens)
    K0 = k0 * bar.b * (cc.N - 2.0 - bar.eps * (bar.b + 1.0))
    t = np.linspace(0.0, 10.0 * bar.T, n)
    zeta = (bar.T + t) ** bar.beta
    zeta_p = (
        bar.beta * (bar.T + t) ** (bar.beta - 1.0) if bar.beta != 0.0 else np.zeros_like(t)
    )
    margins = {
        "zeta_monotone": zeta_p,
        "amplitude_balance": K0 * bar.C**cc.m * zeta**cc.m - bar.cbar * bar.C**cc.p * zeta**cc.p,
    }
    return _grid_report(t, margins)


def time_conditions_ge2(bar: GE2Barrier, dens: DensityParams, n: int = 1000) -> TimeGridReport:
    """Support decay rate and drift balance along t in [0, 10 T]."""
    cc = bar.constants
    m, p, N = cc.m, cc.p, cc.N
    mf = m / (m - 1.0)
    t = np.linspace(0.0, 10.0 * bar.T, n)
    zeta, eta, zeta_p, eta_p = bar.time_factors(t)
    ratio = bar.C ** (m - 1.0) / bar.a
    X = dens.k1 * (bar.bbar * mf + N - 3.0) - dens.k2 * bar.bbar / (m - 1.0)
    margins = {
        "support_decay_rate": -eta_p / eta**2 - bar.bbar**2 * ratio * zeta ** (m - 1.0) * mf * dens.k2,
        "drift_balance": zeta_p
        + bar.bbar * ratio * zeta**m * eta * mf * X
        - bar.C ** (p - 1.0) * zeta**p,
    }
    return _grid_report(t, margins)


def time_conditions_blowup(bar: BlowupSubsolution, dens: DensityParams, n: int = 1000) -> TimeGridReport:
    """Envelope/core gap and coupling conditions along t in [0, T)."""
    cc = bar.constants
    m, p, N = cc.m, cc.p, cc.N
    mf = m / (m - 1.0)
    _, rho2 = derive_rho_bounds(dens)
    K = K_const(m, p)
    t = np.linspace(0.0, bar.T * (1.0 - 1.0e-3), n)
    zeta, eta, zeta_p, eta_p = bar.time_factors(t)
    ratio = bar.C ** (m - 1.0) / bar.a
    gamma = bar.C ** (p - 1.0) * zeta**p
    delta = (zeta / (m - 1.0)) * (eta_p / eta)
    sigma = (
        zeta_p
        + delta
        + bar.bunder * ratio * zeta**m * mf * eta * dens.k2 * (bar.bunder * mf + N - 2.0)
    )
    sigma0 = zeta_p + delta + rho2 * N * (bar.bunder / E**2) * ratio * zeta**m * mf * eta
    nu1 = (p + m - 2.0) / (p - 1.0)
    nu2 = (m - 1.0) / (p - 1.0)
    margins = {
        "sigma_positive": sigma,
        "outer_coupling": delta * gamma**nu2 - K * sigma**nu1,
        "outer_gap": (p + m - 2.0) * gamma - (m - 1.0) * sigma,
        "inner_coupling": delta * gamma**nu2 - K * sigma0**nu1,
        "inner_gap": (p + m - 2.0) * gamma - (m - 1.0) * sigma0,
    }
    return _grid_report(t, margins)


# ---------------------------------------------------------------------------
# deterministic parameter search
# ---------------------------------------------------------------------------


# Search budget: the amplitude bracket [C_LO, C_HI], the number of
# bisection halvings on it, and the relative slack kept on the binding side.
C_LO = 1.0e-8
C_HI = 1.0e8
BISECT_ITERS = 80
MARGIN = 0.01
# The blow-up omega grid (log-spaced, both ends included); the GE2 window
# report uses OMEGA_POINTS points below its own decay-rate cap.
OMEGA_MIN = 1.0e-3
OMEGA_MAX = 1.0
OMEGA_POINTS = 25

# The parameters each regime takes besides the amplitude C.
BARRIER_KEYS = {
    REGIME_GE1A: ("T", "beta", "b", "eps"),
    REGIME_GE1B: ("T", "beta", "b", "eps"),
    REGIME_GE2: ("a", "T"),
    REGIME_BLOWUP: ("a", "T"),
}


def _bisect_flip(pred: Callable[[float], bool]) -> float:
    """Boundary amplitude in [C_LO, C_HI] where a monotone pass/fail
    predicate flips.

    Halves the log bracket until its midpoint rounds to one of its ends
    (about 54 halvings for a boundary away from C = 1, where the floats
    are densest) or ``BISECT_ITERS`` halvings are done.  A further halving
    would test that end again and could not move the bracket, so the
    result is the one all ``BISECT_ITERS`` halvings give.
    """
    f_lo = pred(C_LO)
    f_hi = pred(C_HI)
    if f_lo == f_hi:
        raise FeasibilitySearchError(
            f"predicate does not flip on [{C_LO:g}, {C_HI:g}]; no binding amplitude found"
        )
    llo, lhi = math.log(C_LO), math.log(C_HI)
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (llo + lhi)
        if mid == llo or mid == lhi:
            break
        if pred(math.exp(mid)) == f_lo:
            llo = mid
        else:
            lhi = mid
    return math.exp(0.5 * (llo + lhi))


def _ge1_shape_defaults(cc: ProblemConstants, dens: DensityParams, b, eps):
    b = b if b is not None else 0.5 * (dens.alpha - 1.0)
    if not 0.0 < b < dens.alpha - 1.0:
        raise FeasibilitySearchError(
            f"decay exponent b={b:g} outside the window (0, alpha-1) for alpha={dens.alpha:g}"
        )
    eps_lo = 1.05 / math.log(dens.r0)
    eps_hi = (cc.N - 2.0) / (b + 1.0)
    if eps is None:
        if eps_lo >= eps_hi:
            raise FeasibilitySearchError(
                f"empty eps window: need 1/log(r0)={1.0 / math.log(dens.r0):g} < eps < "
                f"(N-2)/(b+1)={eps_hi:g}; increase r0 or decrease b"
            )
        eps = math.sqrt(eps_lo * eps_hi)
    if not (1.0 / math.log(dens.r0) < eps and eps * (b + 1.0) < cc.N - 2.0):
        raise FeasibilitySearchError(
            f"eps={eps:g} violates its admissible window for b={b:g}, r0={dens.r0:g}"
        )
    return b, eps


def _check_regime(cc: ProblemConstants, regime: str) -> None:
    """Reject an unknown regime name and a regime whose exponent condition
    fails: GE1a needs p < m, every other regime p > m."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if regime == REGIME_GE1A:
        if not cc.p < cc.m:
            raise ValueError("regime GE1a requires p < m")
    elif not cc.p > cc.m:
        raise ValueError(f"regime {regime} requires p > m")


def build_barrier(
    cc: ProblemConstants,
    dens: DensityParams,
    regime: str,
    C: Optional[float],
    a: Optional[float] = None,
    T: Optional[float] = None,
    beta: Optional[float] = None,
    b: Optional[float] = None,
    eps: Optional[float] = None,
):
    """The barrier of ``regime`` with amplitude ``C``, omitted parameters
    filled with the regime defaults.

    Defaults: ``T`` = 2 for GE1a and 1 otherwise; ``beta`` = 0.05 for GE1a
    and 0 for GE1b; ``b = (alpha-1)/2`` and ``eps`` the geometric mean of
    its admissible window (:class:`FeasibilitySearchError` when a given or
    default value leaves its window).  The compact profiles take their
    shape exponent from the density (:func:`_bbar`, :func:`_bunder`) and
    need ``a``.  An unknown regime, one whose exponent condition fails
    (:func:`_check_regime`) and a parameter outside ``BARRIER_KEYS[regime]``
    are a ``ValueError``.
    """
    _check_regime(cc, regime)
    given = {"a": a, "T": T, "beta": beta, "b": b, "eps": eps}
    extra = [k for k, v in given.items() if v is not None and k not in BARRIER_KEYS[regime]]
    if extra:
        raise ValueError(
            f"regime {regime} takes no {', '.join(extra)}; "
            f"its parameters are C, {', '.join(BARRIER_KEYS[regime])}"
        )
    if T is None:
        T = 2.0 if regime == REGIME_GE1A else 1.0
    if regime in (REGIME_GE1A, REGIME_GE1B):
        b, eps = _ge1_shape_defaults(cc, dens, b, eps)
        if beta is None:
            beta = 0.05 if regime == REGIME_GE1A else 0.0
        return GE1Barrier(constants=cc, C=C, T=T, beta=beta, b=b, eps=eps, r0=dens.r0)
    if C is None or a is None:
        raise ValueError(f"regime {regime} needs both C and a (or neither, to search)")
    if regime == REGIME_GE2:
        return GE2Barrier(constants=cc, C=C, a=a, T=T, bbar=_bbar(dens), r0=dens.r0)
    return BlowupSubsolution(constants=cc, C=C, a=a, T=T, bunder=_bunder(dens))


def _omega_sweep(grid, passes: Callable[[float, float], bool]) -> list:
    """The grid omegas, in grid order, at which ``passes(C, omega)`` flips
    on the amplitude bracket (differs between ``C_LO`` and ``C_HI``)."""
    return [w for w in grid if passes(C_LO, w) != passes(C_HI, w)]


def _with_window(report: FeasibilityReport, found: list) -> FeasibilityReport:
    """``report`` with the feasible omega range of a sweep in its params."""
    params = dict(report.params)
    if found:
        params["omega_feasible_lo"] = float(min(found))
        params["omega_feasible_hi"] = float(max(found))
    return replace(report, params=params)


def _find_ge1(cc, dens, regime, given):
    def make(C: float) -> GE1Barrier:
        return build_barrier(cc, dens, regime, C, **given)

    boundary = _bisect_flip(lambda C: check_ge1(make(C), dens).overall)
    if regime == REGIME_GE1A:
        C = boundary * (1.0 + MARGIN)  # lower bound binds: smallest passing C
    else:
        C = boundary / (1.0 + MARGIN)  # upper bound binds: largest passing C
    bar = make(C)
    report = check_ge1(bar, dens)
    if not report.overall:
        raise FeasibilitySearchError("search produced parameters that fail their own check")
    return bar, report


def _find_ge2(cc, dens, given):
    _require_two_sided(dens, "the GE2 search")
    m, p = cc.m, cc.p
    mf = m / (m - 1.0)

    def make(C: float, omega: float) -> GE2Barrier:
        return build_barrier(cc, dens, REGIME_GE2, C, a=C ** (m - 1.0) / omega, **given)

    for checker, kdecay in ((check_ge2, dens.k2), (check_ge2_pointwise, dens.k1)):
        # the decay-rate condition caps omega independently of C
        omega_cap = (p - m) / ((p - 1.0) * _bbar(dens) ** 2 * mf * kdecay)
        omega = omega_cap / (1.0 + MARGIN)
        try:
            boundary = _bisect_flip(lambda C: checker(make(C, omega), dens).overall)
        except FeasibilitySearchError:
            continue
        bar = make(boundary / (1.0 + MARGIN), omega)
        report = checker(bar, dens)
        if report.overall:
            break
    else:
        raise FeasibilitySearchError(
            "no feasible GE2 parameters: both the envelope and the pointwise "
            "condition sets are empty within the search budget"
        )

    # report the feasible omega window observed on the documented grid
    grid = omega_cap * np.geomspace(1.0e-6, 1.0, OMEGA_POINTS)
    found = _omega_sweep(grid, lambda C, w: checker(make(C, w), dens).overall)
    return bar, _with_window(report, found)


def _find_blowup(cc, dens, given):
    _require_two_sided(dens, "the blow-up search")
    m = cc.m

    def make(C: float, omega: float) -> BlowupSubsolution:
        return build_barrier(cc, dens, REGIME_BLOWUP, C, a=C ** (m - 1.0) / omega, **given)

    grid = np.geomspace(OMEGA_MIN, OMEGA_MAX, OMEGA_POINTS)
    found = _omega_sweep(grid, lambda C, w: check_blowup(make(C, w), dens).overall)
    if not found:
        raise FeasibilitySearchError(
            "no feasible blow-up parameters on the omega grid within the amplitude budget"
        )
    w = found[-1]  # grid is ascending: the largest feasible omega
    boundary = _bisect_flip(lambda C: check_blowup(make(C, w), dens).overall)
    bar = make(boundary * (1.0 + MARGIN), w)  # lower bound binds: smallest passing C
    report = check_blowup(bar, dens)
    if not report.overall:
        raise FeasibilitySearchError("search produced parameters that fail their own check")
    return bar, _with_window(report, found)


def find_params(
    cc: ProblemConstants,
    dens: DensityParams,
    regime: str,
    T: Optional[float] = None,
    beta: Optional[float] = None,
    b: Optional[float] = None,
    eps: Optional[float] = None,
):
    """Deterministic parameter search for one regime.

    Sweep order: omega on a log grid (modes with a compact profile), then
    the amplitude ``C`` by bisection on the binding inequality, at the
    returned omega only.  ``T``, ``beta``, ``b`` and ``eps`` are fixed by
    the caller or by the regime defaults of :func:`build_barrier`, which
    also rejects a parameter the regime does not take.  Returned
    parameters satisfy the binding inequality with ``MARGIN`` relative
    slack on the feasible side; the accompanying report is the
    re-evaluated certificate, so it always passes.

    Raises :class:`FeasibilitySearchError` when no parameters satisfy every
    condition within the budget (amplitude bracket, omega grid).
    """
    _check_regime(cc, regime)
    given = {"T": T, "beta": beta, "b": b, "eps": eps}
    if regime in (REGIME_GE1A, REGIME_GE1B):
        return _find_ge1(cc, dens, regime, given)
    if regime == REGIME_GE2:
        return _find_ge2(cc, dens, given)
    return _find_blowup(cc, dens, given)


def check_auto(bar, dens: DensityParams) -> FeasibilityReport:
    """Run the condition set matching the barrier's type.

    For the spreading supersolution the envelope set is tried first and the
    sharp pointwise set is returned when the envelope one fails, mirroring
    the parameter search.
    """
    if isinstance(bar, GE1Barrier):
        return check_ge1(bar, dens)
    if isinstance(bar, GE2Barrier):
        report = check_ge2(bar, dens)
        if report.overall:
            return report
        return check_ge2_pointwise(bar, dens)
    if isinstance(bar, BlowupSubsolution):
        return check_blowup(bar, dens)
    raise TypeError(f"no condition set for {type(bar).__name__}")
