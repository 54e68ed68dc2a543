"""Inequality certificates for the barrier sign conditions.

Each ``check_*`` function evaluates a closed system of scalar inequalities
that is sufficient for the corresponding barrier to be a super/subsolution,
and returns a :class:`FeasibilityReport` listing every inequality with its
two sides, slack and verdict; its ``mode`` is the barrier's ``regime``.
A certificate takes the barrier alone: the barrier carries its regime,
constants and weight, and reads ``r0`` and its shape exponent off the
weight.  ``build_barrier`` is the one place that turns a regime name, a
weight and parameters into a barrier: it holds the regime defaults
(``DEFAULT_T`` and the rest) and the table ``BARRIER_KEYS`` of the
parameters each regime takes.  It, ``find_params`` and ``config.loads``
share one check of the regime's exponent condition (:func:`_check_regime`);
the barriers and ``loads`` share one of its density family
(:func:`pme_react.barrier._check_family`), so no certificate sees a
weight it does not cover.
``find_params`` returns parameters with ``MARGIN`` relative slack on the
binding inequality; ``C`` enters each certificate only through power laws,
so its binding value is closed form.  The blow-up search takes ``omega =
OMEGA_MAX`` unless that puts its binding amplitude past ``C_HI``, and then
the omega at which the same certificate binds at ``C_HI/(1 + MARGIN)``.

The spreading supersolution has one condition set, :func:`check_ge2`,
over the canonical band member (the weight with constant ``k1``, the only
weight a config can build).  Its residual factors through a concave
profile polynomial in ``F = 1 - (log(r+r0))^bbar eta/a``, so nonnegativity
reduces to the two endpoint inequalities, with the spatial drift minimum
taken where its derivative changes sign (:func:`ge2_drift_minimum`).  Its
search takes omega just below the decay-rate cap; with no amplitude at
all it names the edge ``p - m`` must pass.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Tuple

from .barrier import REGIME_BLOWUP, REGIME_GE1A, REGIME_GE1B, REGIME_GE2, REGIMES
from .barrier import BlowupSubsolution, GE1Barrier, GE2Barrier
from .density import DensityParams, E, ProblemConstants, derive_k0, derive_rho_bounds, power_or_inf


class FeasibilitySearchError(RuntimeError):
    """No parameters satisfy every condition within the search budget, or
    the given ones fail their certificate where a command needs it."""


class FeasibilityEntry(NamedTuple):
    """One inequality ``lhs <= rhs`` (or ``lhs < rhs`` when strict)."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    strict: bool = False


class FeasibilityReport(NamedTuple):
    """A certificate: each inequality of one condition set, the parameters, and their conjunction."""

    mode: str
    inequalities: Tuple[FeasibilityEntry, ...]
    params: Dict[str, float]
    overall: bool


def _entry(name: str, lhs: float, rhs: float, strict: bool = False) -> FeasibilityEntry:
    slack = rhs - lhs
    passed = lhs < rhs if strict else lhs <= rhs
    return FeasibilityEntry(
        name=name, lhs=float(lhs), rhs=float(rhs), slack=float(slack), passed=bool(passed), strict=strict
    )


def _finish(mode, entries, params) -> FeasibilityReport:
    return FeasibilityReport(
        mode=mode,
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
    return power_or_inf(C, m - 1.0) / a


# ---------------------------------------------------------------------------
# GE1: logarithmic-decay supersolution
# ---------------------------------------------------------------------------


def check_ge1(bar: GE1Barrier) -> FeasibilityReport:
    """Certificate for the logarithmic-decay supersolution over its H1 weight.

    Conditions: the decay exponent window ``0 < b < alpha - 1``; the
    Laplacian margin ``eps (b + 1) < N - 2``; the slack floor
    ``1/log(r0) < eps``; the regime link between ``beta`` and the sign of
    ``p - m`` (with ``T > 1`` required when ``p < m`` so the growing time
    factor only helps); and the amplitude balance
    ``cbar C^p <= K0 C^m`` with ``K0 = k0 b (N - 2 - eps(b+1))``, whose two
    sides are reported in the regime-appropriate scale-free form.
    """
    cc, dens = bar.constants, bar.density
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
        entries.append(_entry("amplitude_balance", bar.cbar, K0 * power_or_inf(bar.C, cc.m - cc.p)))
    else:
        entries.append(_entry("beta_mode", abs(bar.beta), 0.0))
        entries.append(_entry("amplitude_balance", bar.cbar * power_or_inf(bar.C, cc.p - cc.m), K0))

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
    return _finish(bar.regime, entries, params)


# ---------------------------------------------------------------------------
# GE2: spreading compact supersolution (p > m)
# ---------------------------------------------------------------------------


def ge2_drift_minimum(N: int, r0: float) -> float:
    """Minimum over r > 0 of ``g(r) = (N-1)(1 + r0/r) log(r+r0) - log(r+r0)``.

    ``g`` diverges at both ends (the geometric term as ``r -> 0``, the
    dimensional one as ``r -> infinity``) and its derivative
    ``g'(r) = (N-1)(1/r - r0 log(r+r0)/r^2) - 1/(r+r0)`` changes sign once,
    so the minimizer is found by bisection on the sign of ``g'`` over
    ``[1e-3, 1e9]``, with geometric midpoints, until the midpoint equals
    a bracket end; the minimum is ``g`` at the better end.  The minimizer
    is of order ``r0 log r0``, so while ``g' < 0`` at the upper end the
    bracket first moves up to ``[hi, 2 hi]``.
    """

    def g(r: float) -> float:
        L = math.log(r + r0)
        return (N - 1.0) * (1.0 + r0 / r) * L - L

    def falling(r: float) -> bool:
        return (N - 1.0) * (1.0 / r - r0 * math.log(r + r0) / r**2) < 1.0 / (r + r0)

    lo, hi = 1.0e-3, 1.0e9
    while falling(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = math.sqrt(lo * hi)
        if mid == lo or mid == hi:
            return min(g(lo), g(hi))
        # g'(mid) < 0: the minimizer lies above mid
        if falling(mid):
            lo = mid
        else:
            hi = mid


def check_ge2(bar: GE2Barrier) -> FeasibilityReport:
    """Certificate for the spreading supersolution over its canonical band
    member (the weight with constant ``k1``).

    The residual equals ``C tau F^(1/(m-1)-1)`` times a profile polynomial
    that is concave in ``F``, so nonnegativity on the support interior
    reduces to the endpoints:

    - ``F -> 0``: the support decay rate
      ``bbar^2 omega (m/(m-1)) k1 <= (p-m)/(p-1)``;
    - ``F -> 1``: the amplitude balance
      ``C^(p-1) + 1/(p-1) <= bbar omega (m/(m-1)) k1 B`` with ``B`` the
      spatial minimum of the drift bracket ``(N-1)(1 + r0/r)L - L + bbar - 1``
      (:func:`ge2_drift_minimum`).
    """
    cc = bar.constants
    m, p, N = cc.m, cc.p, cc.N
    kc = bar.density.k1
    omega = omega_of(bar.C, bar.a, m)
    mf = m / (m - 1.0)
    bracket_min = ge2_drift_minimum(N, bar.r0) + bar.bbar - 1.0

    entries = [
        _entry(
            "support_decay_rate_pointwise",
            bar.bbar**2 * omega * mf * kc,
            (p - m) / (p - 1.0),
        ),
        _entry(
            "amplitude_balance_pointwise",
            power_or_inf(bar.C, p - 1.0) + 1.0 / (p - 1.0),
            bar.bbar * omega * mf * kc * bracket_min,
        ),
    ]
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
    return _finish(bar.regime, entries, params)


# ---------------------------------------------------------------------------
# Blow-up: shrinking compact subsolution (p > m)
# ---------------------------------------------------------------------------


def check_blowup(bar: BlowupSubsolution) -> FeasibilityReport:
    """Certificate for the shrinking subsolution over its two-sided weight.

    Two branches (the outer log profile and the inner paraboloid, the latter
    controlled by the inverse-weight bound ``rho2`` on the ball of radius e)
    each contribute a gap amplitude condition and a coupling condition:

    - gap amplitude: ``branch <= (p+m-2) C^(p-1)`` where
      ``branch_outer = 1 + m k2 bunder omega (N - 2 + bunder m/(m-1))`` and
      ``branch_inner = 1 + m rho2 omega bunder N / e^2``;
    - coupling: ``K (branch/(m-1))^nu <= (p-m)/((m-1)(p-1)) C^(m-1)`` with
      ``nu = (p+m-2)/(p-1)`` and ``K`` from :func:`K_const`.
    """
    cc, dens = bar.constants, bar.density
    m, p, N = cc.m, cc.p, cc.N
    omega = omega_of(bar.C, bar.a, m)
    k2 = dens.k2
    rho2 = derive_rho_bounds(dens)
    K = K_const(m, p)
    nu = (p + m - 2.0) / (p - 1.0)

    branch_outer = 1.0 + m * k2 * bar.bunder * omega * (N - 2.0 + bar.bunder * m / (m - 1.0))
    branch_inner = 1.0 + m * rho2 * omega * bar.bunder * N / E**2
    gap_rhs = (p + m - 2.0) * power_or_inf(bar.C, p - 1.0)
    coupling_rhs = (p - m) / ((m - 1.0) * (p - 1.0)) * power_or_inf(bar.C, m - 1.0)

    entries = [
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
        "rho2": rho2,
        "K": K,
        "branch_outer": branch_outer,
        "branch_inner": branch_inner,
    }
    return _finish(bar.regime, entries, params)


# ---------------------------------------------------------------------------
# deterministic parameter search
# ---------------------------------------------------------------------------


# Search budget: the amplitude range [C_LO, C_HI] a binding amplitude must
# lie in, the relative slack kept on the binding side, and the blow-up
# search's first and largest omega.
C_LO = 1.0e-8
C_HI = 1.0e8
MARGIN = 0.01
OMEGA_MAX = 1.0

# The time shift T of each regime when none is given: GE1a's growing time
# factor needs T > 1.
DEFAULT_T = {REGIME_GE1A: 2.0, REGIME_GE1B: 1.0, REGIME_GE2: 1.0, REGIME_BLOWUP: 1.0}

# The parameters each regime takes besides the amplitude C.
BARRIER_KEYS = {
    REGIME_GE1A: ("T", "beta", "b", "eps"),
    REGIME_GE1B: ("T", "beta", "b", "eps"),
    REGIME_GE2: ("a", "T"),
    REGIME_BLOWUP: ("a", "T"),
}


def _binding_amplitude(cc, probe):
    """The C at which a certificate flips, from ``probe``, the certificate
    at C = 1: the balance ``lhs <= rhs`` gives GE1 ``(rhs/lhs)^(1/(p-m))``
    and GE2 ``(rhs - 1/(p-1))^(1/(p-1))`` (0 without room); Blowup takes
    the largest ``(lhs/rhs)^(1/k)`` over its gap (k = p-1) and coupling
    (k = m-1) entries.  A failed entry without C is named in a
    :class:`FeasibilitySearchError`."""
    m, p = cc.m, cc.p
    floor = 0.0
    for e in probe.inequalities:
        # C enters the entries named for the amplitude or the coupling
        if "gap" in e.name or "coupling" in e.name:
            floor = max(floor, power_or_inf(e.lhs / e.rhs, 1.0 / (p - 1.0 if "gap" in e.name else m - 1.0)))
        elif "amplitude" in e.name:
            balance = e
        elif not e.passed:
            raise FeasibilitySearchError(
                f"no feasible {probe.mode} parameters: {e.name} fails at every amplitude "
                f"(lhs {e.lhs:g}, rhs {e.rhs:g})"
            )
    if probe.mode == REGIME_BLOWUP:
        return floor
    if probe.mode == REGIME_GE2:
        room = balance.rhs - 1.0 / (p - 1.0)
        return power_or_inf(room, 1.0 / (p - 1.0)) if room > 0.0 else 0.0
    return power_or_inf(balance.rhs / balance.lhs, 1.0 / (p - m))


def _ge1_shape_defaults(cc: ProblemConstants, dens: DensityParams, b, eps):
    """``b = (alpha-1)/2`` and ``eps`` the geometric mean of its window
    ``(1.05/log r0, (N-2)/(b+1))``, or its floor where the window is empty
    or ``b <= -1``, for those not given; :func:`check_ge1` judges both."""
    b = b if b is not None else 0.5 * (dens.alpha - 1.0)
    if eps is None:
        eps_lo = 1.05 / math.log(dens.r0)
        eps_hi = (cc.N - 2.0) / (b + 1.0) if b > -1.0 else 0.0
        eps = math.sqrt(eps_lo * eps_hi) if eps_lo < eps_hi else eps_lo
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


def _check_pair(regime: str, C, a) -> None:
    """Reject a compact regime given one of ``C`` and ``a``."""
    if regime in (REGIME_GE2, REGIME_BLOWUP) and (C is None) != (a is None):
        raise ValueError(f"regime {regime} needs both C and a (or neither, to search)")


def build_barrier(
    cc: ProblemConstants,
    dens: DensityParams,
    regime: str,
    C: float,
    a: Optional[float] = None,
    T: Optional[float] = None,
    beta: Optional[float] = None,
    b: Optional[float] = None,
    eps: Optional[float] = None,
):
    """The barrier of ``regime`` with amplitude ``C``, omitted parameters
    filled with the regime defaults.

    Defaults: ``T`` from ``DEFAULT_T`` (2 for GE1a and 1 otherwise);
    ``beta`` = 0.05 for GE1a and 0 for GE1b; ``b`` and ``eps`` from
    :func:`_ge1_shape_defaults` (any finite ``b``, ``eps`` and ``beta``
    build, and the certificate judges them).  The barrier carries ``dens``,
    and the compact profiles need ``a``.  An unknown
    regime, a failed exponent condition (:func:`_check_regime`), a lone
    ``C`` or ``a`` (:func:`_check_pair`) and a parameter outside
    ``BARRIER_KEYS[regime]`` are a ``ValueError``.
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
        T = DEFAULT_T[regime]
    if regime in (REGIME_GE1A, REGIME_GE1B):
        b, eps = _ge1_shape_defaults(cc, dens, b, eps)
        if beta is None:
            beta = 0.05 if regime == REGIME_GE1A else 0.0
        return GE1Barrier(constants=cc, density=dens, C=C, T=T, beta=beta, b=b, eps=eps)
    _check_pair(regime, C, a)
    cls = GE2Barrier if regime == REGIME_GE2 else BlowupSubsolution
    return cls(constants=cc, density=dens, C=C, a=a, T=T)


def refuse_failing(report: FeasibilityReport, how: str) -> None:
    """Raise :class:`FeasibilitySearchError` naming each failing entry of
    the ``how`` ("given", "searched") parameters' ``report`` with its sides."""
    failing = "; ".join(
        f"{e.name}: {e.lhs:.6g} {'>=' if e.strict else '>'} {e.rhs:.6g}"
        for e in report.inequalities if not e.passed
    )
    if failing:
        raise FeasibilitySearchError(f"the {how} {report.mode} parameters fail their certificate ({failing})")


def refuse_degenerate_support(bar) -> None:
    """Raise :class:`FeasibilitySearchError` for a compact barrier whose
    support at t = 0 is empty (GE2: the certificate ignores ``T``, the
    support does not), has a radius R(0) that is not a finite float, or
    has ``R(0)^N`` past the float range, where the residual sweep's powers
    of r and the solver's cell volumes overflow.  A GE1 barrier, positive
    everywhere, passes."""
    if isinstance(bar, GE1Barrier):
        return
    if bar.regime == REGIME_GE2:
        q = (bar.constants.p - bar.constants.m) / (bar.constants.p - 1.0)
        edge = math.log(bar.r0) ** bar.bbar
        if bar.a * bar.T**q <= edge:
            raise FeasibilitySearchError(
                f"the certified GE2 barrier is identically zero at t = 0: "
                f"a T^((p-m)/(p-1)) = {bar.a * bar.T**q:g} <= (log r0)^bbar = {edge:g}; "
                f"its support opens for T > {power_or_inf(edge / bar.a, 1.0 / q):g}"
            )
    R0 = bar.support_radius(0.0)
    if not math.isfinite(R0):
        shape = bar.bbar if bar.regime == REGIME_GE2 else bar.bunder
        exponent = (bar.a / bar.time_factors(0.0)[1]) ** (1.0 / shape)
        raise FeasibilitySearchError(
            f"the certified {bar.regime} barrier's support radius R(0) ~ exp({exponent:.6g}) "
            f"at t = 0 is not a finite float"
        )
    if not math.isfinite(power_or_inf(R0, bar.constants.N)):
        raise FeasibilitySearchError(
            f"the certified {bar.regime} barrier's support radius R(0) = {R0:.6g} at t = 0 has R(0)^N "
            f"past the float range at N = {bar.constants.N}, so its residual cannot be evaluated"
        )


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

    The certificate at C = 1 (GE2 at its decay-rate cap on omega over
    ``1 + MARGIN``; Blowup at ``OMEGA_MAX``, or where it binds at
    ``C_HI/(1 + MARGIN)`` if its amplitude passes ``C_HI`` there) gives the
    binding amplitude (:func:`_binding_amplitude`).  ``C`` is that amplitude
    moved ``MARGIN`` to the feasible side (above a floor for GE1a and Blowup,
    below a cap for GE1b and GE2); the report is its rechecked certificate,
    the rest from the caller or :func:`build_barrier`.  Raises
    :class:`FeasibilitySearchError` when no amplitude lies in ``[C_LO, C_HI]``
    and for a degenerate compact support (:func:`refuse_degenerate_support`).
    """
    _check_regime(cc, regime)
    m, p = cc.m, cc.p
    given = {"T": T, "beta": beta, "b": b, "eps": eps}
    omega = OMEGA_MAX if regime == REGIME_BLOWUP else None

    def make(C: float, omega):
        a = None if omega is None else power_or_inf(C, m - 1.0) / omega
        return build_barrier(cc, dens, regime, C, a=a, **given)

    if regime == REGIME_GE2:
        # the decay-rate condition caps omega independently of C; the
        # barrier holds the shape exponent
        bbar = make(1.0, 1.0).bbar
        omega = (p - m) / ((p - 1.0) * bbar**2 * (m / (m - 1.0)) * dens.k1) / (1.0 + MARGIN)
    probe = check_auto(make(1.0, omega))
    boundary = _binding_amplitude(cc, probe)
    if regime == REGIME_BLOWUP and boundary > C_HI:
        # at C = 1 each branch is 1 + (branch - 1) omega/OMEGA_MAX, and at C* = target the gap and
        # coupling entries (rhs g, c at C = 1) hold for branches <= g C*^(p-1), (m-1) (c C*^(m-1)/K)^(1/nu)
        rhs, target = {e.name: e.rhs for e in probe.inequalities}, C_HI / (1.0 + MARGIN)
        coupling = rhs["outer_coupling"] * power_or_inf(target, m - 1.0) / probe.params["K"]
        budget = min(rhs["outer_gap_amplitude"] * power_or_inf(target, p - 1.0),
                     (m - 1.0) * power_or_inf(coupling, (p - 1.0) / (p + m - 2.0)))
        omega = min(OMEGA_MAX * (budget - 1.0) / (probe.params[k] - 1.0) for k in ("branch_outer", "branch_inner"))
        if not omega > 0.0:
            raise FeasibilitySearchError(f"no feasible Blowup parameters: no omega > 0 fits, as the gap and "
                                         f"coupling entries at C = {target:g} cap each branch at {budget:g} <= 1")
        probe = check_auto(make(1.0, omega))
        boundary = _binding_amplitude(cc, probe)
    if regime == REGIME_GE2 and not boundary >= C_LO:
        # at this omega the amplitude balance reads C^(p-1) + 1/(p-1) <=
        # (p-m) B / ((p-1) bbar (1 + MARGIN)), B the drift bracket minimum,
        # so small C passes iff p - m > edge; the probe's report holds B
        edge = (1.0 + MARGIN) * bbar / probe.params["drift_bracket_min"]
        raise FeasibilitySearchError(
            f"no feasible GE2 parameters: no amplitude in [{C_LO:g}, {C_HI:g}] "
            f"passes the certificate at omega={omega:g}; needs p - m > {edge:.3g} "
            f"at N = {cc.N}, r0 = {dens.r0:g}, alpha = {dens.alpha:g}"
        )
    if not C_LO <= boundary <= C_HI:
        sides = ", ".join(f"{e.name} (lhs {e.lhs:g}, rhs {e.rhs:g} at C = 1)"
                          for e in probe.inequalities if "amplitude" in e.name or "coupling" in e.name)
        raise FeasibilitySearchError(f"no feasible {regime} parameters: {sides} "
                                     f"gives the binding amplitude {boundary:g}, outside [{C_LO:g}, {C_HI:g}]")
    floor = regime in (REGIME_GE1A, REGIME_BLOWUP)
    bar = make(boundary * (1.0 + MARGIN) if floor else boundary / (1.0 + MARGIN), omega)
    report = check_auto(bar)
    refuse_failing(report, "searched")
    refuse_degenerate_support(bar)
    return bar, report


def check_auto(bar) -> FeasibilityReport:
    """Run the certificate matching the barrier's type."""
    if isinstance(bar, GE1Barrier):
        return check_ge1(bar)
    if isinstance(bar, GE2Barrier):
        return check_ge2(bar)
    if isinstance(bar, BlowupSubsolution):
        return check_blowup(bar)
    raise TypeError(f"no condition set for {type(bar).__name__}")
