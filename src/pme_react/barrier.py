"""Closed-form barrier profiles and their exact derivatives.

Three profile families certify the dichotomy for
``rho(x) u_t = Lap(u^m) + rho(x) u^p`` with slowly decaying weights:

- :class:`GE1Barrier`: positive supersolution with logarithmic spatial decay
  ``C zeta(t) (log(r + r0))^(-b/m)``, ``zeta = (T + t)^beta``.  Used for the
  one-sided weight family; global in time.
- :class:`GE2Barrier` and :class:`BlowupSubsolution`: compactly supported
  profiles of one form, ``C zeta(t) [1 - S(r) eta(t)/a]_+^(1/(m-1))`` with
  ``zeta = s^(-1/(p-1))`` and ``eta = s^(-(p-m)/(p-1))``; both require
  ``p > m``.  The GE2 supersolution takes ``s = T + t`` and the log-power
  shape ``S = (log(r + r0))^bbar``: the support spreads and the amplitude
  decays.  The blow-up subsolution takes ``s = T - t``, defined for ``t < T``
  only, and the shape :func:`sfrak`, which glues ``(log r)^bunder`` outside
  the ball of radius e to a matched paraboloid inside: the amplitude
  diverges as ``t -> T`` while the support shrinks.  The profile is
  continuous with a distributional kink only at ``r = e`` whose one-sided
  fluxes cancel (acceptance criterion 11 evaluates both sides with
  :func:`_compact_derivatives` on each branch).  Only ``s`` and
  ``S`` differ, so values and derivatives are written once, from ``S`` and
  its radial derivatives ``S'``, ``S''`` (:func:`_compact_value`,
  :func:`_compact_derivatives`).

Evaluation.  Each closed form is written once, on Python floats with
:mod:`math`.  ``eval`` and ``eval_derivatives`` take a batch of points:
an iterable of radii ``r`` with one time ``t``, or ``r`` and ``t`` paired
iterables.  Each returns a list, one float (one
:class:`BarrierDerivatives`) per point, computed at the call; a one-time
batch computes its time factors once.  ``support_radius`` and
``time_factors`` take one time.  A power or exponential past the float
range is +inf (:func:`~pme_react.density.power_or_inf`,
:func:`~pme_react.density.exp_or_inf`), never an exception, and inf and
nan propagate as values.

Derivative conventions.  ``eval_derivatives`` gives the tuple record
``(w_t, (w^m)_r, (w^m)_rr, Lap(w^m))`` at each point, evaluated from
hand-differentiated closed forms, with the radial Laplacian ``(w^m)_rr + (N-1)/r (w^m)_r`` away
from the origin and the symmetric limit ``N (w^m)_rr`` at ``r = 0``.  Note
the symmetric limit is a bare convention for GE1/GE2, whose radial slope of
``w^m`` does not vanish at the origin; the supersolution sign there follows
from a one-sided flux argument, and residual sweeps sample ``r > 0`` only.
On any open set where the profile vanishes all four derivatives are zero.
Points within ``KINK_TOL`` of a free boundary (or of ``r = e`` for the
subsolution) are refused with :class:`KinkError` rather than silently
differentiated across a corner.

Residual convention.  ``residual = w_t - (1/rho) Lap(w^m) - w^p``; a
supersolution has residual >= 0 on its support interior, a subsolution
has residual <= 0.

Regimes and weights.  A barrier carries its regime, constants and weight,
so none of them is passed beside it.  It names the regime it certifies as
``regime``: GE1a (p < m) and GE1b (p > m) for :class:`GE1Barrier`, GE2 and
Blowup for the two compact profiles; the names are the ``REGIME_*``
constants here.  Its ``density`` is the weight it is a barrier for, and
the shift ``r0`` and the shape exponents (``bbar = alpha + 2`` for GE2,
``bunder = alpha + 1`` for Blowup) are read off that weight, never set on
their own.  A barrier refuses a weight of a family its regime's
certificate does not cover (:func:`_check_family`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat
from typing import NamedTuple

from .density import E, FAMILY_H1, Checked, exp_or_inf, power_or_inf

KINK_TOL = 1.0e-9

REGIME_GE1A = "GE1a"
REGIME_GE1B = "GE1b"
REGIME_GE2 = "GE2"
REGIME_BLOWUP = "Blowup"
REGIMES = (REGIME_GE1A, REGIME_GE1B, REGIME_GE2, REGIME_BLOWUP)


class KinkError(ValueError):
    """Raised when derivatives are requested too close to a profile corner."""


class TimeDomainError(ValueError):
    """Raised when a blow-up profile is evaluated at or beyond its end time."""


class BarrierDerivatives(NamedTuple):
    """(w_t, (w^m)_r, (w^m)_rr, Lap(w^m)) at one point, as floats."""

    w_t: float
    wm_r: float
    wm_rr: float
    lap_wm: float


def _check_family(regime: str, family: str) -> None:
    """Reject a density family the regime's certificate does not cover:
    GE1 needs H1, GE2 and Blowup the two-sided H2Smooth."""
    if regime in (REGIME_GE1A, REGIME_GE1B):
        if family != FAMILY_H1:
            raise ValueError("GE1 certificates require an H1-family density")
    elif family == FAMILY_H1:
        what = "the GE2 certificate" if regime == REGIME_GE2 else "the blow-up certificate"
        raise ValueError(f"{what} requires a two-sided (H2Smooth) density")


def _points(f, at, r, t) -> list:
    """``f(r, at(t))`` at each point of a batch: the radii ``r`` with the
    one time ``t``, whose constants ``at(t)`` are built once, or ``r`` and
    ``t`` paired when ``t`` is iterable."""
    try:
        times = iter(t)
    except TypeError:
        return list(map(f, r, repeat(at(float(t)))))
    return list(map(f, r, map(at, times)))


def _log_branch(x, b: float, derivs: bool = False):
    """``(log x)^b``; with ``derivs`` also its first two derivatives in x."""
    L = math.log(x)
    if not derivs:
        return power_or_inf(L, b)
    Lb, Lb1, Lb2 = power_or_inf(L, b), power_or_inf(L, b - 1.0), power_or_inf(L, b - 2.0)
    return Lb, b * Lb1 / x, b * ((b - 1.0) * Lb2 - Lb1) / (x * x)


def _paraboloid_branch(r, b: float, derivs: bool = False):
    """``b r^2/(2 e^2) + 1 - b/2``; with ``derivs`` also its first two r-derivatives."""
    S = b * (r * r) / (2.0 * E**2) + 1.0 - b / 2.0
    if not derivs:
        return S
    return S, b * r / E**2, b / E**2


def sfrak(r, bunder: float, derivs: bool = False):
    """Piecewise shape function: (log r)^bunder outside radius e, matched
    paraboloid ``bunder r^2/(2 e^2) + 1 - bunder/2`` inside; with ``derivs``
    also its first two r-derivatives.  Continuous with value 1 at r = e;
    negative near the origin when bunder > 2.  One radius ``r >= 0``.
    """
    return (_log_branch if r >= E else _paraboloid_branch)(r, bunder, derivs)


def _time_factors(T, t, sign: float, m: float, p: float):
    """``(zeta, eta, zeta', eta')`` with ``zeta = s^(-1/(p-1))``,
    ``eta = s^(-(p-m)/(p-1))`` and ``s = T + sign t``; primes are d/dt."""
    s = T + sign * t
    zeta, eta = power_or_inf(s, -1.0 / (p - 1.0)), power_or_inf(s, -(p - m) / (p - 1.0))
    zeta_p = -sign * (1.0 / (p - 1.0)) * zeta / s
    eta_p = -sign * ((p - m) / (p - 1.0)) * eta / s
    return zeta, eta, zeta_p, eta_p


def _derivatives(r, N, w_t, wm_r, wm_rr) -> BarrierDerivatives:
    """One point's record: ``Lap(w^m) = (w^m)_rr + (N-1)/r (w^m)_r`` away
    from the origin, ``N (w^m)_rr`` at it."""
    lap = wm_rr + (N - 1.0) * wm_r / r if r > 0.0 else N * wm_rr
    return BarrierDerivatives(w_t, wm_r, wm_rr, lap)


def _ge1_value(r, k):
    scale, e, r0 = k
    return scale * power_or_inf(math.log(r + r0), e)


def _ge1_derivatives(r, k):
    ct, e, nbcz, bcz, b, r0, N = k
    s = r + r0
    L = math.log(s)
    Le, Lb1, Lb2 = power_or_inf(L, e), power_or_inf(L, -b - 1.0), power_or_inf(L, -b - 2.0)
    wm_r = nbcz * Lb1 / s
    wm_rr = bcz * ((b + 1.0) * Lb2 + Lb1) / (s * s)
    return _derivatives(r, N, ct * Le, wm_r, wm_rr)


def _compact_value(r, k):
    """``C zeta [1 - S eta/a]_+^(1/(m-1))``, from ``k = (C zeta, eta, a,
    1/(m-1), S, its exponent, its shift)``."""
    Cz, eta, a, q, shape, b, shift = k
    F = 1.0 - shape(r + shift, b) * eta / a
    if not F > 0.0:
        return 0.0
    return Cz * power_or_inf(F, q)


def _terms_at(bar, factors):
    """The constants of :func:`_compact_derivatives` at the time of
    ``factors = (zeta, eta, zeta', eta')``: ``C``, ``q = 1/(m-1)``,
    ``eta/a``, ``zeta'``, ``q zeta``, ``eta'/a``, ``-m q C^m zeta^m eta/a``
    and ``q eta/a``, each in the order the formulas multiply."""
    m, C = bar.constants.m, bar.C
    q = 1.0 / (m - 1.0)
    zeta, eta, zeta_p, eta_p = factors
    ea = eta / bar.a
    coef = -m * q * power_or_inf(C, m) * power_or_inf(zeta, m) * ea
    return C, q, ea, zeta_p, q * zeta, eta_p / bar.a, coef, q * ea


def _compact_derivatives(r, k):
    """The record at ``r`` from the shape ``S`` and its radial derivatives
    ``S'``, ``S''``, with ``k = (constants of _terms_at, S, its exponent and
    shift, the two corners, N, t)``.  With ``F = 1 - S eta/a`` and
    ``q = 1/(m-1)``:

    ``w_t = C (zeta' F^q - q zeta S (eta'/a) F^(q-1))``,
    ``(w^m)_r = -m q C^m zeta^m (eta/a) S' F^q`` and
    ``(w^m)_rr = -m q C^m zeta^m (eta/a) (S'' F^q - q (eta/a) S'^2 F^(q-1))``;
    all three vanish where ``F <= 0``.
    """
    (C, q, ea, zeta_p, qz, epa, coef, qea), shape, b, shift, (c1, c2), N, t = k
    # a nan corner is never near
    if abs(r - c1) < KINK_TOL or abs(r - c2) < KINK_TOL:
        corner, what = (c1, "piece interface r") if abs(r - c1) < KINK_TOL else (c2, "free boundary r*")
        raise KinkError(f"point (r={r:.12g}, t={t:.12g}) is within {KINK_TOL:g} of the {what}={corner:.12g}")
    S, S_r, S_rr = shape(r + shift, b, True)
    F = 1.0 - S * ea
    if not F > 0.0:
        return _derivatives(r, N, 0.0, 0.0, 0.0)
    Fq, Fq1 = power_or_inf(F, q), power_or_inf(F, q - 1.0)
    wm_r = coef * S_r * Fq
    wm_rr = coef * (S_rr * Fq - qea * (S_r * S_r) * Fq1)
    return _derivatives(r, N, C * (zeta_p * Fq - qz * S * epa * Fq1), wm_r, wm_rr)


def _compact_eval(bar, r, t):
    C, a, q, (shape, b, shift) = bar.C, bar.a, 1.0 / (bar.constants.m - 1.0), bar._shape

    def at(t):
        zeta, eta = bar.time_factors(t)[:2]
        return C * zeta, eta, a, q, shape, b, shift

    return _points(_compact_value, at, r, t)


def _compact_eval_derivatives(bar, r, t):
    (shape, b, shift), N = bar._shape, bar.constants.N

    def at(t):
        # time_factors refuses t >= T before any kink
        factors = bar.time_factors(t)
        return _terms_at(bar, factors), shape, b, shift, bar._corners(factors[1]), N, t

    return _points(_compact_derivatives, at, r, t)


def _validate_compact(bar, role: str) -> None:
    if not bar.constants.p > bar.constants.m:
        raise ValueError(f"the {role} requires p > m")
    for name in ("C", "a", "T"):
        if not getattr(bar, name) > 0.0:
            raise ValueError(f"{name} must be positive, got {getattr(bar, name)}")
    _check_family(bar.regime, bar.density.family)


def _r0(bar) -> float:
    """The weight's shift ``r0``, which the log profiles share."""
    return bar.density.r0


# ---------------------------------------------------------------------------
# GE1: globally positive supersolution with logarithmic decay
# ---------------------------------------------------------------------------


class GE1Barrier(Checked, namedtuple("GE1Barrier", "constants density C T b eps beta cbar", defaults=(0.0, None))):
    """Supersolution ``C (T+t)^beta (log(r + r0))^(-b/m)``, with ``r0`` that
    of ``density``.

    ``b`` is the logarithmic decay exponent, ``eps`` the slack reserved when
    trading the Laplacian's dimensional term against the decay (kept on the
    record because the feasibility certificate depends on it), and ``cbar``
    the derived reaction comparison constant ``(log r0)^(-b p / m)``, the
    sharp upper bound of ``(log(r + r0))^(-b p / m)`` over ``r >= 0``,
    computed at every build.

    Only ``C <= 0``, ``T <= 0``, ``p == m`` and a weight outside H1 leave it
    undefined; the windows of ``b``, ``eps`` and ``beta`` (> 0 for p < m, 0
    for p > m) are entries of :func:`pme_react.feasibility.check_ge1`.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        cc = self.constants
        if cc.p == cc.m:
            raise ValueError("p == m is outside every supported regime")
        for name in ("C", "T"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        _check_family(self.regime, self.density.family)
        # cbar, the last field, is derived
        return tuple.__new__(cls, (*self[:-1], power_or_inf(math.log(self.r0), -self.b * cc.p / cc.m)))

    @property
    def regime(self) -> str:
        """GE1a when p < m, GE1b when p > m."""
        return REGIME_GE1A if self.constants.p < self.constants.m else REGIME_GE1B

    r0 = property(_r0)

    def eval(self, r, t):
        C, T, beta, e, r0 = self.C, self.T, self.beta, -self.b / self.constants.m, self.r0
        return _points(_ge1_value, lambda t: (C * power_or_inf(T + t, beta), e, r0), r, t)

    def eval_derivatives(self, r, t):
        C, T, beta, b, r0, (m, _, N) = self.C, self.T, self.beta, self.b, self.r0, self.constants
        Cm = power_or_inf(C, m)

        def at(t):
            zeta_p = 0.0 if beta == 0.0 else beta * power_or_inf(T + t, beta - 1.0)
            zm = power_or_inf(power_or_inf(T + t, beta), m)
            # C zeta', then -b C^m zeta^m and b C^m zeta^m in the order the formulas multiply
            return C * zeta_p, -b / m, -b * Cm * zm, b * Cm * zm, b, r0, N

        return _points(_ge1_derivatives, at, r, t)


# ---------------------------------------------------------------------------
# GE2: compactly supported spreading supersolution (p > m)
# ---------------------------------------------------------------------------


class GE2Barrier(Checked, namedtuple("GE2Barrier", "constants density C a T")):
    """Supersolution ``C zeta [1 - (log(r + r0))^bbar eta/a]_+^(1/(m-1))``.

    ``zeta = (T+t)^(-1/(p-1))``, ``eta = (T+t)^(-(p-m)/(p-1))``; requires
    ``p > m``.  ``r0`` is that of ``density`` and the support-shape exponent
    ``bbar`` is its ``alpha + 2``; ``a`` calibrates the support size.
    """

    __slots__ = ()
    regime = REGIME_GE2
    r0 = property(_r0)
    eval, eval_derivatives = _compact_eval, _compact_eval_derivatives

    @property
    def bbar(self) -> float:
        """``alpha + 2``, from the weight."""
        return self.density.alpha + 2.0

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _validate_compact(self, "spreading supersolution")
        return self

    def time_factors(self, t):
        """``(zeta, eta, zeta', eta')`` at ``s = T + t``."""
        return _time_factors(self.T, t, 1.0, self.constants.m, self.constants.p)

    @property
    def _shape(self):
        # S(r) = _log_branch(r + r0, bbar)
        return _log_branch, self.bbar, self.r0

    def support_radius(self, t):
        """Free boundary radius ``exp((a/eta(t))^(1/bbar)) - r0`` at time
        ``t``: ``<= 0`` where the support is empty (very small ``a``),
        ``+inf`` past the float range; never raises or warns."""
        return self._radius(self.time_factors(t)[1])

    def _radius(self, eta):
        return exp_or_inf((self.a / eta) ** (1.0 / self.bbar)) - self.r0

    def _corners(self, eta):
        # no piece interface; an empty support has no free boundary
        r_star = self._radius(eta)
        return math.nan, (r_star if r_star > 0.0 else math.nan)


# ---------------------------------------------------------------------------
# Blow-up: compactly supported shrinking subsolution (p > m), t < T
# ---------------------------------------------------------------------------


class BlowupSubsolution(Checked, namedtuple("BlowupSubsolution", "constants density C a T")):
    """Subsolution ``C zeta [1 - sfrak(r) eta/a]_+^(1/(m-1))`` for ``t < T``.

    ``zeta = (T-t)^(-1/(p-1))`` and ``eta = (T-t)^((m-p)/(p-1))`` both
    diverge as ``t -> T``: the amplitude blows up while the support
    ``{sfrak < a/eta}`` shrinks onto the core of the paraboloid.  The outer
    log exponent ``bunder`` is ``alpha + 1 > 2``, from ``density``.
    """

    __slots__ = ()
    regime = REGIME_BLOWUP
    eval, eval_derivatives = _compact_eval, _compact_eval_derivatives

    @property
    def bunder(self) -> float:
        """``alpha + 1``, from the weight."""
        return self.density.alpha + 1.0

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _validate_compact(self, "blow-up subsolution")
        return self

    def time_factors(self, t):
        """``(zeta, eta, zeta', eta')`` at ``s = T - t``; refuses ``t >= T``."""
        if t >= self.T:
            raise TimeDomainError(f"subsolution is defined for t < T = {self.T}; got t = {float(t)}")
        return _time_factors(self.T, t, -1.0, self.constants.m, self.constants.p)

    @property
    def _shape(self):
        # S(r) = sfrak(r + 0, bunder)
        return sfrak, self.bunder, 0.0

    def support_radius(self, t):
        """Radius where ``sfrak(r) = a/eta(t)`` at time ``t``; the support
        is [0, r*), and ``+inf`` past the float range never raises or warns.

        Solves the outer branch ``(log r)^bunder = a/eta`` when the level
        exceeds 1, the paraboloid branch otherwise.  Decreases in time and
        tends to ``e sqrt((bunder-2)/bunder)`` as ``a/eta -> 0``.
        """
        return self._radius(self.time_factors(t)[1])

    def _radius(self, eta):
        # levels > 0 and bunder > 2 keep both branches real everywhere
        level = self.a / eta
        if level >= 1.0:
            return exp_or_inf(level ** (1.0 / self.bunder))
        return E * math.sqrt(1.0 + (2.0 / self.bunder) * (level - 1.0))

    def _corners(self, eta):
        # the piece interface and the free boundary
        return E, self._radius(eta)
