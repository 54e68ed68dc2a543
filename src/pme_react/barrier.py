"""Closed-form barrier profiles and their exact derivatives.

Three profile families certify the dichotomy for
``rho(x) u_t = Lap(u^m) + rho(x) u^p`` with slowly decaying weights:

- :class:`GE1Barrier`: positive supersolution with logarithmic spatial decay
  ``C zeta(t) (log(r + r0))^(-b/m)``, ``zeta = (T + t)^beta``.  Used for the
  one-sided weight family; global in time.
- :class:`GE2Barrier`: compactly supported supersolution
  ``C zeta [1 - (log(r + r0))^bbar eta/a]_+^(1/(m-1))`` with
  ``zeta = (T + t)^(-1/(p-1))`` and ``eta = (T + t)^(-(p-m)/(p-1))``; the
  support spreads and the amplitude decays.  Requires ``p > m``.
- :class:`BlowupSubsolution`: compactly supported subsolution
  ``C zeta [1 - sfrak(r) eta/a]_+^(1/(m-1))`` with ``zeta = (T - t)^(-1/(p-1))``
  and ``eta = (T - t)^((m-p)/(p-1))``, defined for ``t < T`` only; the
  amplitude diverges as ``t -> T`` while the support shrinks.  The shape
  function :func:`sfrak` glues ``(log r)^bunder`` outside the ball of radius
  e to a matched paraboloid inside, so the profile is continuous with a
  distributional kink only at ``r = e`` whose one-sided fluxes cancel
  (see :meth:`BlowupSubsolution.flux_match`).

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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .density import E, ProblemConstants

KINK_TOL = 1.0e-9


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


def sfrak(r, bunder: float):
    """Piecewise shape function: (log r)^bunder outside radius e, matched
    paraboloid ``bunder r^2/(2 e^2) + 1 - bunder/2`` inside.

    Continuous with value 1 at r = e; negative near the origin when
    bunder > 2.  Vectorized over r >= 0.
    """
    r_arr = np.asarray(r, dtype=float)
    outer = np.where(r_arr >= E, r_arr, E)
    inner = bunder * r_arr**2 / (2.0 * E**2) + 1.0 - bunder / 2.0
    out = np.where(r_arr >= E, np.log(outer) ** bunder, inner)
    if np.ndim(r) == 0:
        return float(out)
    return out


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
    ``alpha + 2`` by the density it is paired with (enforced at scenario
    level, hence only ``bbar > 3`` here); ``a`` calibrates the support size.
    """

    constants: ProblemConstants
    C: float
    a: float
    T: float
    bbar: float
    r0: float

    def __post_init__(self) -> None:
        cc = self.constants
        if not cc.p > cc.m:
            raise ValueError("the spreading supersolution requires p > m")
        for name in ("C", "a", "T"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.bbar > 3.0:
            raise ValueError("bbar = alpha + 2 with alpha > 1 forces bbar > 3")
        if not self.r0 >= E:
            raise ValueError(f"r0 must be at least e, got {self.r0}")

    def _zeta(self, t):
        return (self.T + t) ** (-1.0 / (self.constants.p - 1.0))

    def _eta(self, t):
        cc = self.constants
        return (self.T + t) ** (-(cc.p - cc.m) / (cc.p - 1.0))

    def support_radius(self, t: float) -> float:
        """Free boundary radius ``exp((a/eta)^(1/bbar)) - r0`` (0 if empty).

        Warns when the support degenerates to a point or vanishes, which
        happens for very small ``a``.
        """
        ratio = (self.a / self._eta(float(t))) ** (1.0 / self.bbar)
        r_star = math.exp(ratio) - self.r0
        if r_star <= 0.0:
            warnings.warn(
                f"support degenerates at t={t}: free boundary radius {r_star:.6g} <= 0",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0.0
        return r_star

    def _profile(self, r_b, t_b):
        # F = 1 - L^bbar eta/a and its positive part bookkeeping.
        L = np.log(r_b + self.r0)
        F = 1.0 - L**self.bbar * self._eta(t_b) / self.a
        pos = F > 0.0
        F_safe = np.where(pos, F, 1.0)
        return L, F, pos, F_safe

    def eval(self, r, t):
        cc = self.constants
        r_b, t_b, scalar = _broadcast(r, t)
        _, _, pos, F_safe = self._profile(r_b, t_b)
        out = np.where(
            pos, self.C * self._zeta(t_b) * F_safe ** (1.0 / (cc.m - 1.0)), 0.0
        )
        return _ret(out, scalar)

    def _refuse_kinks(self, r_b, t_b) -> None:
        eta = self._eta(t_b)
        arg = (self.a / eta) ** (1.0 / self.bbar)
        with np.errstate(over="ignore"):
            r_star = np.exp(arg) - self.r0
        near = (r_star > 0.0) & (np.abs(r_b - r_star) < KINK_TOL)
        if np.any(near):
            i = int(np.argmax(near))
            raise KinkError(
                f"point (r={r_b.flat[i]:.12g}, t={t_b.flat[i]:.12g}) is within "
                f"{KINK_TOL:g} of the free boundary r*={np.asarray(r_star).flat[i]:.12g}"
            )

    def eval_derivatives(self, r, t) -> BarrierDerivatives:
        cc = self.constants
        m, p = cc.m, cc.p
        q = 1.0 / (m - 1.0)
        r_b, t_b, scalar = _broadcast(r, t)
        self._refuse_kinks(r_b, t_b)

        s = r_b + self.r0
        L, F, pos, F_safe = self._profile(r_b, t_b)
        zeta = self._zeta(t_b)
        eta = self._eta(t_b)
        zeta_p = -(1.0 / (p - 1.0)) * zeta / (self.T + t_b)
        eta_p = -((p - m) / (p - 1.0)) * eta / (self.T + t_b)
        zm = zeta**m
        Cm = self.C**m
        mf = m / (m - 1.0)

        w_t = self.C * zeta_p * F_safe**q - (
            self.C / (m - 1.0)
        ) * zeta * (L**self.bbar / self.a) * eta_p * F_safe ** (q - 1.0)
        wm_r = -mf * self.bbar * Cm * zm * (eta / self.a) * L ** (self.bbar - 1.0) * F_safe**q / s
        wm_rr = (
            -mf
            * self.bbar
            * Cm
            * zm
            * (eta / self.a)
            * (
                ((self.bbar - 1.0) * L ** (self.bbar - 2.0) - L ** (self.bbar - 1.0))
                * F_safe**q
                - (self.bbar / (m - 1.0))
                * (eta / self.a)
                * L ** (2.0 * self.bbar - 2.0)
                * F_safe ** (q - 1.0)
            )
            / s**2
        )
        w_t = np.where(pos, w_t, 0.0)
        wm_r = np.where(pos, wm_r, 0.0)
        wm_rr = np.where(pos, wm_rr, 0.0)
        lap = _assemble_laplacian(wm_r, wm_rr, r_b, cc.N)
        return _ret_derivs(w_t, wm_r, wm_rr, lap, scalar)


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
    density (enforced at scenario level).
    """

    constants: ProblemConstants
    C: float
    a: float
    T: float
    bunder: float

    def __post_init__(self) -> None:
        cc = self.constants
        if not cc.p > cc.m:
            raise ValueError("the blow-up subsolution requires p > m")
        for name in ("C", "a", "T"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.bunder > 2.0:
            raise ValueError("bunder = alpha + 1 with alpha > 1 forces bunder > 2")

    def _check_time(self, t_b) -> None:
        t_arr = np.atleast_1d(np.asarray(t_b, dtype=float))
        if np.any(t_arr >= self.T):
            bad = float(t_arr[t_arr >= self.T][0])
            raise TimeDomainError(
                f"subsolution is defined for t < T = {self.T}; got t = {bad}"
            )

    def _zeta(self, t):
        return (self.T - t) ** (-1.0 / (self.constants.p - 1.0))

    def _eta(self, t):
        cc = self.constants
        return (self.T - t) ** ((cc.m - cc.p) / (cc.p - 1.0))

    def support_radius(self, t: float) -> float:
        """Radius where ``sfrak(r) = a/eta(t)``; the support is [0, r*).

        Solves the outer branch ``(log r)^bunder = a/eta`` when the level
        exceeds 1, the paraboloid branch otherwise.  Decreases in time and
        tends to ``e sqrt((bunder-2)/bunder)`` as ``a/eta -> 0``.
        """
        t_b = np.asarray(float(t))
        self._check_time(t_b)
        level = self.a / self._eta(float(t))
        if level >= 1.0:
            return math.exp(level ** (1.0 / self.bunder))
        return E * math.sqrt(1.0 + (2.0 / self.bunder) * (level - 1.0))

    def _profile(self, r_b, t_b):
        P = 1.0 - sfrak(r_b, self.bunder) * self._eta(t_b) / self.a
        pos = P > 0.0
        P_safe = np.where(pos, P, 1.0)
        return P, pos, P_safe

    def eval(self, r, t):
        cc = self.constants
        r_b, t_b, scalar = _broadcast(r, t)
        self._check_time(t_b)
        _, pos, P_safe = self._profile(r_b, t_b)
        out = np.where(
            pos, self.C * self._zeta(t_b) * P_safe ** (1.0 / (cc.m - 1.0)), 0.0
        )
        return _ret(out, scalar)

    def _refuse_kinks(self, r_b, t_b) -> None:
        if np.any(np.abs(r_b - E) < KINK_TOL):
            i = int(np.argmax(np.abs(r_b - E) < KINK_TOL))
            raise KinkError(
                f"point (r={r_b.flat[i]:.12g}) is within {KINK_TOL:g} of the "
                f"piece interface r = e"
            )
        levels = self.a / self._eta(t_b)
        with np.errstate(invalid="ignore"):
            r_star = np.where(
                levels >= 1.0,
                np.exp(np.maximum(levels, 1.0) ** (1.0 / self.bunder)),
                E * np.sqrt(np.maximum(1.0 + (2.0 / self.bunder) * (levels - 1.0), 0.0)),
            )
        near = np.abs(r_b - r_star) < KINK_TOL
        if np.any(near):
            i = int(np.argmax(near))
            raise KinkError(
                f"point (r={r_b.flat[i]:.12g}, t={t_b.flat[i]:.12g}) is within "
                f"{KINK_TOL:g} of the free boundary r*={np.asarray(r_star).flat[i]:.12g}"
            )

    def eval_derivatives(self, r, t) -> BarrierDerivatives:
        cc = self.constants
        m, p = cc.m, cc.p
        q = 1.0 / (m - 1.0)
        r_b, t_b, scalar = _broadcast(r, t)
        self._check_time(t_b)
        self._refuse_kinks(r_b, t_b)

        P, pos, P_safe = self._profile(r_b, t_b)
        zeta = self._zeta(t_b)
        eta = self._eta(t_b)
        zeta_p = (1.0 / (p - 1.0)) * zeta / (self.T - t_b)
        eta_p = ((p - m) / (p - 1.0)) * eta / (self.T - t_b)
        zm = zeta**m
        Cm = self.C**m
        mf = m / (m - 1.0)
        shape = sfrak(r_b, self.bunder)

        w_t = self.C * zeta_p * P_safe**q - (
            self.C / (m - 1.0)
        ) * zeta * (shape / self.a) * eta_p * P_safe ** (q - 1.0)

        outer = r_b >= E
        r_safe = np.where(r_b > 0.0, r_b, 1.0)
        L = np.log(np.where(outer, r_safe, E))

        # outer piece: shape = L^bunder, L = log r
        wm_r_out = -self.bunder * (Cm / self.a) * zm * mf * eta * L ** (
            self.bunder - 1.0
        ) * P_safe**q / r_safe
        wm_rr_out = (
            -self.bunder
            * (Cm / self.a)
            * zm
            * mf
            * eta
            * (
                ((self.bunder - 1.0) * L ** (self.bunder - 2.0) - L ** (self.bunder - 1.0))
                * P_safe**q
                - (self.bunder / (m - 1.0))
                * (eta / self.a)
                * L ** (2.0 * self.bunder - 2.0)
                * P_safe ** (q - 1.0)
            )
            / r_safe**2
        )

        # inner piece: shape = bunder r^2/(2 e^2) + 1 - bunder/2
        inner_coef = (Cm / self.a) * zm * mf * (self.bunder / E**2) * eta
        wm_r_in = -inner_coef * r_b * P_safe**q
        wm_rr_in = (
            (Cm / self.a**2)
            * zm
            * (m / (m - 1.0) ** 2)
            * (self.bunder**2 * r_b**2 / E**4)
            * eta**2
            * P_safe ** (q - 1.0)
            - inner_coef * P_safe**q
        )

        wm_r = np.where(outer, wm_r_out, wm_r_in)
        wm_rr = np.where(outer, wm_rr_out, wm_rr_in)
        w_t = np.where(pos, w_t, 0.0)
        wm_r = np.where(pos, wm_r, 0.0)
        wm_rr = np.where(pos, wm_rr, 0.0)
        lap = _assemble_laplacian(wm_r, wm_rr, r_b, cc.N)
        return _ret_derivs(w_t, wm_r, wm_rr, lap, scalar)

    def flux_match(self, t: float) -> "FluxMatchRecord":
        """One-sided fluxes of ``w^m`` across the piece interface at r = e.

        Both sides equal ``-(C^m/a) zeta^m (m/(m-1)) (bunder/e) eta
        [1 - eta/a]_+^(1/(m-1))`` in closed form; the record evaluates each
        side through its own branch formula so the cancellation is tested,
        not assumed.
        """
        self._check_time(np.asarray(float(t)))
        cc = self.constants
        m = cc.m
        zeta = float(self._zeta(float(t)))
        eta = float(self._eta(float(t)))
        Pq = max(1.0 - eta / self.a, 0.0) ** (1.0 / (m - 1.0))
        mf = m / (m - 1.0)
        # outer branch at r = e: L = log e = 1
        right = -self.bunder * (self.C**m / self.a) * zeta**m * mf * eta * Pq / E
        # inner branch at r = e: shape gradient bunder * e / e^2
        left = -(self.C**m / self.a) * zeta**m * mf * (self.bunder * E / E**2) * eta * Pq
        jump = right - left
        scale = max(abs(left), abs(right), 1.0e-300)
        return FluxMatchRecord(
            left_flux=left, right_flux=right, jump=jump, rel_jump=abs(jump) / scale
        )


@dataclass(frozen=True)
class FluxMatchRecord:
    left_flux: float
    right_flux: float
    jump: float
    rel_jump: float
