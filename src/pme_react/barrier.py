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
  fluxes cancel (see :meth:`BlowupSubsolution.flux_match`).  Only ``s`` and
  ``S`` differ, so values and derivatives are written once, from ``S`` and
  its radial derivatives ``S'``, ``S''`` (:func:`_compact_eval`,
  :func:`_compact_derivatives`).

Derivative conventions.  ``eval_derivatives`` returns the tuple record
``(w_t, (w^m)_r, (w^m)_rr, Lap(w^m))`` evaluated from hand-differentiated
closed forms, with the radial Laplacian ``(w^m)_rr + (N-1)/r (w^m)_r`` away
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

Regimes.  Each barrier names the regime it certifies as ``regime``, so the
regime is never passed beside a barrier: GE1a (p < m) and GE1b (p > m) for
:class:`GE1Barrier`, GE2 and Blowup for the two compact profiles.  The
names are the ``REGIME_*`` constants here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .density import E, ProblemConstants

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


@dataclass(frozen=True)
class BarrierDerivatives:
    """Bundle (w_t, (w^m)_r, (w^m)_rr, Lap(w^m)); scalars or arrays."""

    w_t: object
    wm_r: object
    wm_rr: object
    lap_wm: object


def _log_branch(x, b: float, derivs: bool = False):
    """``(log x)^b``; with ``derivs`` also its first two derivatives in x."""
    L = np.log(x)
    if not derivs:
        return L**b
    return L**b, b * L ** (b - 1.0) / x, b * ((b - 1.0) * L ** (b - 2.0) - L ** (b - 1.0)) / x**2


def _paraboloid_branch(r, b: float, derivs: bool = False):
    """``b r^2/(2 e^2) + 1 - b/2``; with ``derivs`` also its first two r-derivatives."""
    S = b * r**2 / (2.0 * E**2) + 1.0 - b / 2.0
    if not derivs:
        return S
    return S, b * r / E**2, b / E**2


def _sfrak(r, bunder: float, derivs: bool = False):
    outer = r >= E
    logs = _log_branch(np.where(outer, r, E), bunder, derivs)
    paras = _paraboloid_branch(r, bunder, derivs)
    if not derivs:
        return np.where(outer, logs, paras)
    return tuple(np.where(outer, lg, pa) for lg, pa in zip(logs, paras))


def sfrak(r, bunder: float):
    """Piecewise shape function: (log r)^bunder outside radius e, matched
    paraboloid ``bunder r^2/(2 e^2) + 1 - bunder/2`` inside.

    Continuous with value 1 at r = e; negative near the origin when
    bunder > 2.  Vectorized over r >= 0.
    """
    out = _sfrak(np.asarray(r, dtype=float), bunder)
    return float(out) if np.ndim(r) == 0 else out


def _time_factors(T, t, sign: float, m: float, p: float):
    """``(zeta, eta, zeta', eta')`` with ``zeta = s^(-1/(p-1))``,
    ``eta = s^(-(p-m)/(p-1))`` and ``s = T + sign t``; primes are d/dt."""
    s = T + sign * t
    zeta = s ** (-1.0 / (p - 1.0))
    eta = s ** (-(p - m) / (p - 1.0))
    zeta_p = -sign * (1.0 / (p - 1.0)) * zeta / s
    eta_p = -sign * ((p - m) / (p - 1.0)) * eta / s
    return zeta, eta, zeta_p, eta_p


def _broadcast(r, t):
    r_arr = np.asarray(r, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    scalar = r_arr.ndim == 0 and t_arr.ndim == 0
    r_b, t_b = np.broadcast_arrays(np.atleast_1d(r_arr), np.atleast_1d(t_arr))
    return r_b, t_b, scalar


def _ret(x, scalar: bool):
    return float(x[0]) if scalar else x


def _ret_derivs(w_t, wm_r, wm_rr, lap, scalar: bool) -> BarrierDerivatives:
    if scalar:
        return BarrierDerivatives(float(w_t[0]), float(wm_r[0]), float(wm_rr[0]), float(lap[0]))
    return BarrierDerivatives(w_t, wm_r, wm_rr, lap)


def _assemble_laplacian(wm_r, wm_rr, r, N):
    # (w^m)_rr + (N-1)/r (w^m)_r away from the origin, N (w^m)_rr at it.
    r_safe = np.where(r > 0.0, r, 1.0)
    lap = wm_rr + (N - 1.0) * wm_r / r_safe
    return np.where(r > 0.0, lap, N * wm_rr)


def _compact_eval(bar, r, t):
    """``C zeta [1 - S eta/a]_+^(1/(m-1))`` for a compact profile ``bar``."""
    r_b, t_b, scalar = _broadcast(r, t)
    zeta, eta, _, _ = bar.time_factors(t_b)
    F = 1.0 - bar._shape(r_b) * eta / bar.a
    pos = F > 0.0
    F_safe = np.where(pos, F, 1.0)
    out = np.where(pos, bar.C * zeta * F_safe ** (1.0 / (bar.constants.m - 1.0)), 0.0)
    return _ret(out, scalar)


def _compact_terms(bar, factors, S, S_r, S_rr):
    """``(w_t, (w^m)_r, (w^m)_rr)`` from ``factors = (zeta, eta, zeta', eta')``
    and ``S``, ``S'``, ``S''``.  With ``F = 1 - S eta/a`` and ``q = 1/(m-1)``:

    ``w_t = C (zeta' F^q - q zeta S (eta'/a) F^(q-1))``,
    ``(w^m)_r = -m q C^m zeta^m (eta/a) S' F^q`` and
    ``(w^m)_rr = -m q C^m zeta^m (eta/a) (S'' F^q - q (eta/a) S'^2 F^(q-1))``;
    all three vanish where ``F <= 0``.
    """
    cc = bar.constants
    q = 1.0 / (cc.m - 1.0)
    zeta, eta, zeta_p, eta_p = factors
    ea = eta / bar.a
    F = 1.0 - S * ea
    pos = F > 0.0
    F_safe = np.where(pos, F, 1.0)
    Fq, Fq1 = F_safe**q, F_safe ** (q - 1.0)
    coef = -cc.m * q * bar.C**cc.m * zeta**cc.m * ea
    w_t = bar.C * (zeta_p * Fq - q * zeta * S * (eta_p / bar.a) * Fq1)
    wm_r = coef * S_r * Fq
    wm_rr = coef * (S_rr * Fq - q * ea * S_r**2 * Fq1)
    return tuple(np.where(pos, x, 0.0) for x in (w_t, wm_r, wm_rr))


def _compact_derivatives(bar, r, t) -> BarrierDerivatives:
    r_b, t_b, scalar = _broadcast(r, t)
    factors = bar.time_factors(t_b)
    bar._refuse_kinks(r_b, t_b, factors[1])
    w_t, wm_r, wm_rr = _compact_terms(bar, factors, *bar._shape(r_b, derivs=True))
    lap = _assemble_laplacian(wm_r, wm_rr, r_b, bar.constants.N)
    return _ret_derivs(w_t, wm_r, wm_rr, lap, scalar)


def _validate_compact(bar, role: str) -> None:
    if not bar.constants.p > bar.constants.m:
        raise ValueError(f"the {role} requires p > m")
    for name in ("C", "a", "T"):
        if not getattr(bar, name) > 0.0:
            raise ValueError(f"{name} must be positive, got {getattr(bar, name)}")


def _refuse_corner(r_b, t_b, corner, what: str) -> None:
    # a nan corner is never near
    near = np.abs(r_b - corner) < KINK_TOL
    if np.any(near):
        i = int(np.argmax(near))
        raise KinkError(
            f"point (r={r_b.flat[i]:.12g}, t={t_b.flat[i]:.12g}) is within {KINK_TOL:g} "
            f"of the {what}={np.broadcast_to(corner, r_b.shape).flat[i]:.12g}"
        )


# ---------------------------------------------------------------------------
# GE1: globally positive supersolution with logarithmic decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GE1Barrier:
    """Supersolution ``C (T+t)^beta (log(r + r0))^(-b/m)``.

    ``b`` is the logarithmic decay exponent, ``eps`` the slack reserved when
    trading the Laplacian's dimensional term against the decay (kept on the
    record because the feasibility certificate depends on it), and ``cbar``
    the derived reaction comparison constant ``(log r0)^(-b p / m)``, the
    sharp upper bound of ``(log(r + r0))^(-b p / m)`` over ``r >= 0``.

    The time exponent must match the regime: ``beta > 0`` when ``p < m``
    (growing barrier absorbs the reaction) and ``beta = 0`` when ``p > m``
    (static-in-amplitude barrier).  ``p == m`` is not supported.
    """

    constants: ProblemConstants
    C: float
    T: float
    b: float
    eps: float
    r0: float
    beta: float = 0.0
    cbar: float = field(init=False)

    def __post_init__(self) -> None:
        cc = self.constants
        if cc.p == cc.m:
            raise ValueError("p == m is outside every supported regime")
        for name in ("C", "T", "b", "eps"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.r0 >= E:
            raise ValueError(f"r0 must be at least e, got {self.r0}")
        if cc.p < cc.m and not self.beta > 0.0:
            raise ValueError("p < m requires beta > 0")
        if cc.p > cc.m and self.beta != 0.0:
            raise ValueError("p > m requires beta == 0")
        object.__setattr__(
            self, "cbar", math.log(self.r0) ** (-self.b * cc.p / cc.m)
        )

    @property
    def regime(self) -> str:
        """GE1a when p < m, GE1b when p > m."""
        return REGIME_GE1A if self.constants.p < self.constants.m else REGIME_GE1B

    def _zeta(self, t):
        return (self.T + t) ** self.beta

    def _zeta_prime(self, t):
        if self.beta == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float))
        return self.beta * (self.T + t) ** (self.beta - 1.0)

    def eval(self, r, t):
        r_b, t_b, scalar = _broadcast(r, t)
        L = np.log(r_b + self.r0)
        out = self.C * self._zeta(t_b) * L ** (-self.b / self.constants.m)
        return _ret(out, scalar)

    def eval_derivatives(self, r, t) -> BarrierDerivatives:
        cc = self.constants
        r_b, t_b, scalar = _broadcast(r, t)
        s = r_b + self.r0
        L = np.log(s)
        zeta = self._zeta(t_b)
        zm = zeta**cc.m
        Cm = self.C**cc.m
        w_t = self.C * self._zeta_prime(t_b) * L ** (-self.b / cc.m)
        wm_r = -self.b * Cm * zm * L ** (-self.b - 1.0) / s
        wm_rr = (
            self.b
            * Cm
            * zm
            * ((self.b + 1.0) * L ** (-self.b - 2.0) + L ** (-self.b - 1.0))
            / s**2
        )
        lap = _assemble_laplacian(wm_r, wm_rr, r_b, cc.N)
        return _ret_derivs(w_t, wm_r, wm_rr, lap, scalar)


# ---------------------------------------------------------------------------
# GE2: compactly supported spreading supersolution (p > m)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GE2Barrier:
    """Supersolution ``C zeta [1 - (log(r + r0))^bbar eta/a]_+^(1/(m-1))``.

    ``zeta = (T+t)^(-1/(p-1))``, ``eta = (T+t)^(-(p-m)/(p-1))``; requires
    ``p > m``.  ``bbar`` is the support-shape exponent, pinned to
    ``alpha + 2`` by the density it is paired with (checked by the
    certificate entry ``support_shape_exponent``, hence only ``bbar > 3``
    here); ``a`` calibrates the support size.
    """

    regime = REGIME_GE2

    constants: ProblemConstants
    C: float
    a: float
    T: float
    bbar: float
    r0: float

    def __post_init__(self) -> None:
        _validate_compact(self, "spreading supersolution")
        if not self.bbar > 3.0:
            raise ValueError("bbar = alpha + 2 with alpha > 1 forces bbar > 3")
        if not self.r0 >= E:
            raise ValueError(f"r0 must be at least e, got {self.r0}")

    def time_factors(self, t):
        """``(zeta, eta, zeta', eta')`` at ``s = T + t``."""
        return _time_factors(self.T, t, 1.0, self.constants.m, self.constants.p)

    def _shape(self, r, derivs: bool = False):
        return _log_branch(r + self.r0, self.bbar, derivs)

    def support_radius(self, t: float) -> float:
        """Free boundary radius ``exp((a/eta)^(1/bbar)) - r0`` (0 if empty).

        Warns when the support degenerates to a point or vanishes, which
        happens for very small ``a``.
        """
        _, eta, _, _ = self.time_factors(float(t))
        r_star = math.exp((self.a / eta) ** (1.0 / self.bbar)) - self.r0
        if r_star <= 0.0:
            msg = f"support degenerates at t={t}: free boundary radius {r_star:.6g} <= 0"
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
            return 0.0
        return r_star

    def _refuse_kinks(self, r_b, t_b, eta) -> None:
        arg = (self.a / eta) ** (1.0 / self.bbar)
        with np.errstate(over="ignore"):
            r_star = np.exp(arg) - self.r0
        _refuse_corner(r_b, t_b, np.where(r_star > 0.0, r_star, np.nan), "free boundary r*")

    def eval(self, r, t):
        return _compact_eval(self, r, t)

    def eval_derivatives(self, r, t) -> BarrierDerivatives:
        return _compact_derivatives(self, r, t)


# ---------------------------------------------------------------------------
# Blow-up: compactly supported shrinking subsolution (p > m), t < T
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupSubsolution:
    """Subsolution ``C zeta [1 - sfrak(r) eta/a]_+^(1/(m-1))`` for ``t < T``.

    ``zeta = (T-t)^(-1/(p-1))`` and ``eta = (T-t)^((m-p)/(p-1))`` both
    diverge as ``t -> T``: the amplitude blows up while the support
    ``{sfrak < a/eta}`` shrinks onto the core of the paraboloid.  ``bunder``
    is the outer log exponent, pinned to ``alpha + 1 > 2`` by the paired
    density (checked by the certificate entry ``outer_shape_exponent``).
    """

    regime = REGIME_BLOWUP

    constants: ProblemConstants
    C: float
    a: float
    T: float
    bunder: float

    def __post_init__(self) -> None:
        _validate_compact(self, "blow-up subsolution")
        if not self.bunder > 2.0:
            raise ValueError("bunder = alpha + 1 with alpha > 1 forces bunder > 2")

    def time_factors(self, t):
        """``(zeta, eta, zeta', eta')`` at ``s = T - t``; refuses ``t >= T``."""
        late = np.extract(np.asarray(t, dtype=float) >= self.T, t)
        if late.size:
            raise TimeDomainError(f"subsolution is defined for t < T = {self.T}; got t = {float(late[0])}")
        return _time_factors(self.T, t, -1.0, self.constants.m, self.constants.p)

    def _shape(self, r, derivs: bool = False):
        return _sfrak(r, self.bunder, derivs)

    def support_radius(self, t: float) -> float:
        """Radius where ``sfrak(r) = a/eta(t)``; the support is [0, r*).

        Solves the outer branch ``(log r)^bunder = a/eta`` when the level
        exceeds 1, the paraboloid branch otherwise.  Decreases in time and
        tends to ``e sqrt((bunder-2)/bunder)`` as ``a/eta -> 0``.
        """
        _, eta, _, _ = self.time_factors(float(t))
        level = self.a / eta
        if level >= 1.0:
            return math.exp(level ** (1.0 / self.bunder))
        return E * math.sqrt(1.0 + (2.0 / self.bunder) * (level - 1.0))

    def _refuse_kinks(self, r_b, t_b, eta) -> None:
        _refuse_corner(r_b, t_b, E, "piece interface r")
        # levels > 0 and bunder > 2 keep both branches real everywhere
        levels = self.a / eta
        r_star = np.where(
            levels >= 1.0,
            np.exp(levels ** (1.0 / self.bunder)),
            E * np.sqrt(1.0 + (2.0 / self.bunder) * (levels - 1.0)),
        )
        _refuse_corner(r_b, t_b, r_star, "free boundary r*")

    def eval(self, r, t):
        return _compact_eval(self, r, t)

    def eval_derivatives(self, r, t) -> BarrierDerivatives:
        return _compact_derivatives(self, r, t)

    def flux_match(self, t: float) -> "FluxMatchRecord":
        """One-sided fluxes of ``w^m`` across the piece interface at r = e.

        Both sides equal ``-(C^m/a) zeta^m (m/(m-1)) (bunder/e) eta
        [1 - eta/a]_+^(1/(m-1))`` in closed form; each side is evaluated with
        the formula and branch :meth:`eval_derivatives` uses there, so the
        cancellation is tested, not assumed.
        """
        factors = self.time_factors(float(t))
        right = float(_compact_terms(self, factors, *_log_branch(E, self.bunder, derivs=True))[1])
        left = float(_compact_terms(self, factors, *_paraboloid_branch(E, self.bunder, derivs=True))[1])
        jump = right - left
        scale = max(abs(left), abs(right), 1.0e-300)
        return FluxMatchRecord(left, right, jump, abs(jump) / scale)


@dataclass(frozen=True)
class FluxMatchRecord:
    left_flux: float
    right_flux: float
    jump: float
    rel_jump: float
