"""Radial density weights with slowly varying inverse growth.

Everything downstream works with a weight ``rho(r)`` whose inverse grows like
``r^2`` times a logarithmic correction.  Two families are supported, named
by the hypothesis they realize:

``H1``
    one-sided: ``1/rho >= k (log r)^alpha r^2`` outside the ball of radius e.
``H2Smooth``
    the shifted two-sided form ``k (r + r0)^2 / (log(r + r0))^alpha`` bounded
    between the ``k1`` and ``k2`` multiples for every ``r >= 0``, which keeps
    the weight smooth and positive down to the origin.

Each family has a canonical smooth representative (see :func:`rho`), the
only weight the laboratory builds: a config names a family and its
constants, never a weight of its own.  Derived constants used by the
feasibility layer, a safe one-sided envelope constant for ``H1`` and an
upper bound on the inverse weight over the closed ball of radius e, are
produced by :func:`derive_k0` and :func:`derive_rho_bounds` in closed form.
A barrier carries its weight (:mod:`pme_react.barrier`), and reads its
shift ``r0`` and shape exponent off it.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

E = math.e

FAMILY_H1 = "H1"
FAMILY_H2SMOOTH = "H2Smooth"
FAMILIES = (FAMILY_H1, FAMILY_H2SMOOTH)

# Relative safety margin by which the derived constants are moved outward.
DERIVED_MARGIN = 0.05



def power_or_inf(x: float, e: float) -> float:
    """``x ** e`` for a float ``x > 0``, or +inf where it passes the float
    range: there Python's ``**`` raises ``OverflowError``, where numpy
    arithmetic gives inf.  For powers of an amplitude that a config or a
    search can push past the float range."""
    try:
        return x**e
    except OverflowError:
        return math.inf


class Checked:
    """Base of a record that checks its fields: a ``collections.namedtuple``
    whose ``__new__`` builds the tuple, validates it and fills any derived
    field (given a default of None in the namedtuple, and replaced whatever
    value is passed).  ``_make``, and so ``_replace``, the namedtuple's
    copy, build through ``__new__`` too, so a modified copy is checked like
    a fresh record and its derived fields are computed afresh."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ProblemConstants(Checked, namedtuple("ProblemConstants", "m p N")):
    """Exponents and dimension of the reaction-diffusion problem.

    Parameters
    ----------
    m : float
        Degenerate diffusion exponent, strictly above 1.
    p : float
        Reaction exponent, strictly above 1.
    N : int
        Spatial dimension, at least 3.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.m > 1.0:
            raise ValueError(f"m must exceed 1, got {self.m}")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if int(self.N) != self.N or self.N < 3:
            raise ValueError(f"N must be an integer >= 3, got {self.N}")
        return self


class DensityParams(
    Checked,
    namedtuple("DensityParams", "family alpha r0 k k1 k2 rho2", defaults=(1.0, 1.0, 1.0, None)),
):
    """Constants pinning down a weight family member.

    H1 uses ``k``, its envelope constant; H2Smooth the band constants
    ``k1 <= k2`` (the canonical representative uses ``k1``) and the
    optional override ``rho2`` of :func:`derive_rho_bounds`.

    Only algebraic invariants are validated here (positivity, ``alpha > 1``,
    ``k1 <= k2``, ``r0 >= e``).  Both canonical members meet their
    envelopes by construction.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown density family {self.family!r}; expected one of {FAMILIES}"
            )
        if not self.alpha > 1.0:
            raise ValueError(f"alpha must exceed 1 for the H1/H2Smooth families, got {self.alpha}")
        if not self.r0 >= E:
            raise ValueError(f"r0 must be at least e = {E:.15g}, got {self.r0}")
        if self.family == FAMILY_H1:
            if not self.k > 0.0:
                raise ValueError(f"k must be positive, got {self.k}")
        else:
            if not 0.0 < self.k1 <= self.k2:
                raise ValueError(f"need 0 < k1 <= k2, got k1={self.k1}, k2={self.k2}")
        if self.rho2 is not None and not self.rho2 > 0.0:
            raise ValueError(f"rho2 must be positive, got {self.rho2}")
        return self


def inverse_rho(params: DensityParams, r):
    """Inverse weight ``1/rho`` of the canonical family member at radius ``r``.

    Canonical representatives (``s = r + r0``, ``L = log s``):

    - H1: ``1/rho = k L^alpha s^2``
    - H2Smooth: ``1/rho = k1 s^2 / L^alpha``

    Computed with numpy for scalar or array ``r >= 0`` (0-d for a scalar).
    """
    s = np.asarray(r, dtype=float) + params.r0
    L = np.log(s)
    if params.family == FAMILY_H1:
        return params.k * L**params.alpha * s**2
    return params.k1 * s**2 / L**params.alpha


def rho(params: DensityParams, r):
    """Canonical weight ``rho(r)``; the reciprocal of :func:`inverse_rho`."""
    return 1.0 / inverse_rho(params, r)


def derive_k0(params: DensityParams) -> float:
    """Safe constant for the shifted one-sided envelope of an H1 weight.

    Returns ``k0`` such that ``1/rho >= k0 (log(r + r0))^alpha (r + r0)^2``
    holds for every ``r >= 0`` with a multiplicative safety margin.  The
    canonical member is ``k`` times that envelope, so ``k0`` is ``k``
    shrunk by ``DERIVED_MARGIN``.
    """
    if params.family != FAMILY_H1:
        raise ValueError("derive_k0 applies to the H1 family only")
    return (1.0 - DERIVED_MARGIN) * params.k


def derive_rho_bounds(params: DensityParams) -> float:
    """Bound ``rho2 >= 1/rho`` on the closed ball of radius e.

    An explicit override on ``params`` wins.  Otherwise: ``s^2/L^alpha``
    with ``s = r + r0`` has one critical point, a minimum at
    ``s = e^(alpha/2)``, so its maximum on [0, e] is at an end, widened
    outward by ``DERIVED_MARGIN``.  It feeds the inner-ball branch of the
    blow-up feasibility system.
    """
    if params.family == FAMILY_H1:
        raise ValueError("derive_rho_bounds applies to the H2Smooth family only")
    if params.rho2 is not None:
        return params.rho2
    return (1.0 + DERIVED_MARGIN) * float(inverse_rho(params, np.array([0.0, E])).max())
