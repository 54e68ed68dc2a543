import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pme_react.barrier import BlowupSubsolution, GE1Barrier, GE2Barrier
from pme_react.density import (
    E,
    FAMILY_H1,
    FAMILY_H2SMOOTH,
    DensityParams,
    ProblemConstants,
    derive_k0,
    derive_rho_bounds,
    inverse_rho,
    rho,
)
from pme_react.harness import INIT_SCALED_BARRIER, InitialData
from pme_react.solver import RadialGrid, SolverConfig


def test_constants_validation():
    ProblemConstants(m=2.0, p=3.0, N=3)
    with pytest.raises(ValueError):
        ProblemConstants(m=1.0, p=3.0, N=3)
    with pytest.raises(ValueError):
        ProblemConstants(m=2.0, p=0.5, N=3)
    with pytest.raises(ValueError):
        ProblemConstants(m=2.0, p=3.0, N=2)
    with pytest.raises(ValueError):
        ProblemConstants(m=2.0, p=3.0, N=3.5)


def test_params_validation():
    with pytest.raises(ValueError):
        DensityParams(family="H7", alpha=2.0, r0=8.0)
    with pytest.raises(ValueError):
        DensityParams(family=FAMILY_H1, alpha=1.0, r0=8.0)
    with pytest.raises(ValueError):
        DensityParams(family=FAMILY_H1, alpha=2.0, r0=1.0)  # below e
    with pytest.raises(ValueError):
        DensityParams(family=FAMILY_H2SMOOTH, alpha=2.0, r0=8.0, k1=2.0, k2=1.0)
    for rho2 in (0.0, -1.0):
        with pytest.raises(ValueError, match="rho2 must be positive"):
            DensityParams(family=FAMILY_H2SMOOTH, alpha=2.0, r0=8.0, rho2=rho2)


def test_h1_member_at_origin():
    # k (log s)^alpha s^2 at r=0, r0=e is exactly e^2, so rho(0) = e^-2
    d = DensityParams(family=FAMILY_H1, alpha=2.0, r0=E)
    assert rho(d, 0.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert inverse_rho(d, 0.0) == pytest.approx(math.e**2, rel=1e-14)


def test_h2smooth_member_formula():
    d = DensityParams(family=FAMILY_H2SMOOTH, alpha=2.0, r0=8.0, k1=3.0, k2=3.0)
    r = 5.0
    s = r + 8.0
    assert inverse_rho(d, r) == pytest.approx(3.0 * s**2 / math.log(s) ** 2, rel=1e-14)


def test_scalar_array_parity():
    d = DensityParams(family=FAMILY_H2SMOOTH, alpha=2.5, r0=8.0)
    r = np.array([0.0, 1.0, 10.0, 100.0])
    vec = inverse_rho(d, r)
    assert vec.shape == r.shape
    for i, ri in enumerate(r):
        assert vec[i] == inverse_rho(d, float(ri))


@given(st.floats(min_value=0.0, max_value=1.0e6, allow_nan=False))
def test_inverse_relation(r):
    d = DensityParams(family=FAMILY_H2SMOOTH, alpha=2.0, r0=8.0)
    assert rho(d, r) * inverse_rho(d, r) == pytest.approx(1.0, rel=1e-12)
    assert rho(d, r) > 0.0


# Radii (e, 1e6]: the H1 envelope is stated outside the ball of radius e,
# the H2Smooth band at every r >= 0.
ENVELOPE_RADII = np.geomspace(E * (1.0 + 1e-9), 1.0e6, 4096)


def envelope_slack(band, member):
    """Worst relative slack of ``member``'s canonical inverse weight against
    ``band``'s family envelope on ENVELOPE_RADII: 0 touches the envelope,
    negative violates it."""
    r = ENVELOPE_RADII
    inv = inverse_rho(member, r)
    if band.family == FAMILY_H1:
        slack = inv / (band.k * np.log(r) ** band.alpha * r**2) - 1.0
    else:
        x = r + band.r0
        base = x**2 / np.log(x) ** band.alpha
        slack = np.minimum(inv / (band.k1 * base) - 1.0, band.k2 * base / inv - 1.0)
    return float(slack.min())


H2S_TIGHT = DensityParams(family=FAMILY_H2SMOOTH, alpha=2.0, r0=8.0, k1=1.0, k2=1.0)
H1_E = DensityParams(family=FAMILY_H1, alpha=2.0, r0=math.e)


@pytest.mark.parametrize(
    "band, members",
    [
        # k1 == k2: the member sits exactly on both envelopes
        pytest.param(H2S_TIGHT, [(H2S_TIGHT, "tight")], id="h2smooth-tight"),
        pytest.param(H1_E, [(H1_E, "inside")], id="h1"),
    ],
)
def test_canonical_member_envelope(band, members):
    for member, expect in members:
        slack = envelope_slack(band, member)
        if expect == "tight":
            assert abs(slack) <= 1e-12
        else:
            assert slack >= -1e-12


def grid_k0(params, margin=0.05):
    """Oracle for :func:`derive_k0`: the ratio of ``1/rho`` to the shifted
    envelope on a dense grid plus the analytic tail limit ``k``, shrunk by
    ``margin``."""
    radii = np.concatenate([[0.0], np.geomspace(1.0e-3, 1.0e6, 4096)])
    s = radii + params.r0
    envelope = np.log(s) ** params.alpha * s**2
    ratio = np.asarray(inverse_rho(params, radii)) / envelope
    return (1.0 - margin) * float(min(ratio.min(), params.k))


def grid_rho2(params, margin=0.05):
    """Oracle for :func:`derive_rho_bounds`: the max of ``1/rho`` on a
    1025-point grid on [0, e], widened outward by ``margin``."""
    radii = np.linspace(0.0, E, 1025)
    return (1.0 + margin) * float(np.max(inverse_rho(params, radii)))


# The density sections of the shipped reference configs.
SHIPPED_H1 = [DensityParams(family=FAMILY_H1, alpha=2.0, r0=r0) for r0 in (1000.0, 25.0)]
SHIPPED_H2SMOOTH = [DensityParams(family=FAMILY_H2SMOOTH, alpha=2.0, r0=r0) for r0 in (8.0, E)]


def test_derived_constants_match_the_grid_oracles_at_shipped_params():
    for d in SHIPPED_H1:
        assert derive_k0(d) == grid_k0(d) == 0.95
    for d in SHIPPED_H2SMOOTH:
        assert derive_rho_bounds(d) == grid_rho2(d)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0, 6.0], ids=lambda a: f"alpha={a:g}")
@pytest.mark.parametrize("r0", [E, 3.0, 5.0, 8.0, 25.0], ids=["r0=e", "r0=3", "r0=5", "r0=8", "r0=25"])
def test_derived_constants_against_the_grid_oracles(alpha, r0):
    h1 = DensityParams(family=FAMILY_H1, alpha=alpha, r0=r0, k=1.3)
    assert derive_k0(h1) == pytest.approx(grid_k0(h1), rel=1e-15)
    assert derive_k0(h1) >= grid_k0(h1)
    h2 = DensityParams(family=FAMILY_H2SMOOTH, alpha=alpha, r0=r0, k1=1.3, k2=2.0)
    # the maximum lies at an end of [0, e], a point of the grid too
    assert derive_rho_bounds(h2) == pytest.approx(grid_rho2(h2), rel=1e-15)


def test_derive_k0_scales_with_k():
    d1 = DensityParams(family=FAMILY_H1, alpha=2.0, r0=8.0, k=1.0)
    d3 = DensityParams(family=FAMILY_H1, alpha=2.0, r0=8.0, k=3.0)
    assert derive_k0(d1) == pytest.approx(0.95, rel=1e-12)
    assert derive_k0(d3) == pytest.approx(2.85, rel=1e-12)
    with pytest.raises(ValueError):
        derive_k0(DensityParams(family=FAMILY_H2SMOOTH, alpha=2.0, r0=8.0))


def test_derive_rho_bounds_refuses_h1():
    with pytest.raises(ValueError, match="H2Smooth family only"):
        derive_rho_bounds(DensityParams(family=FAMILY_H1, alpha=2.0, r0=8.0))
    # an override does not make it apply
    with pytest.raises(ValueError, match="H2Smooth family only"):
        derive_rho_bounds(DensityParams(family=FAMILY_H1, alpha=2.0, r0=8.0, rho2=2.0))


def test_derive_rho_bounds_overrides_win():
    d = DensityParams(family=FAMILY_H2SMOOTH, alpha=2.0, r0=math.e, rho2=1.0)
    assert derive_rho_bounds(d) == 1.0


def test_derived_constants_follow_params():
    h2 = DensityParams(family=FAMILY_H2SMOOTH, alpha=2.0, r0=8.0, k1=1.0, k2=2.0)
    # overrides win
    assert derive_rho_bounds(h2._replace(rho2=3.0)) == 3.0
    # r0 moves the inverse-weight bound
    assert derive_rho_bounds(h2._replace(r0=9.0)) != derive_rho_bounds(h2)


def test_derive_rho_bounds_interior_minimum():
    # alpha = 3, r0 = 3: s^2/L^3 has its one critical point, a minimum, at
    # s = e^1.5 inside [r0, r0 + e], so the maximum is at an end
    d = DensityParams(family=FAMILY_H2SMOOTH, alpha=3.0, r0=3.0)
    ends = [s**2 / math.log(s) ** 3 for s in (3.0, 3.0 + E)]
    assert math.exp(3.0) / 1.5**3 < min(ends)
    assert derive_rho_bounds(d) == pytest.approx(1.05 * max(ends), rel=1e-14)


def test_derive_rho_bounds_from_member():
    d = DensityParams(family=FAMILY_H2SMOOTH, alpha=2.0, r0=math.e)
    # max of (r+e)^2 / log(r+e)^2 on [0, e], widened by 5 percent
    assert derive_rho_bounds(d) == pytest.approx(1.05 * (2 * math.e) ** 2 / math.log(2 * math.e) ** 2, rel=1e-6)



# Every record that checks its fields, built from keywords, with one changed
# field and the derived field it moves (None where none), then one invalid
# value.  The record is immutable, and a copy goes through the checks and
# derivations of a fresh build.
_GE1_CC, _COMPACT_CC = ProblemConstants(m=2.0, p=1.5, N=3), ProblemConstants(m=2.0, p=3.0, N=3)
_H1_10, _H2_10 = (DensityParams(family=family, alpha=2.0, r0=10.0) for family in (FAMILY_H1, FAMILY_H2SMOOTH))
CHECKED_RECORDS = [
    (ProblemConstants, dict(m=2.0, p=3.0, N=3), dict(p=4.0), None, dict(m=1.0)),
    (DensityParams, dict(family=FAMILY_H1, alpha=2.0, r0=10.0), dict(k=2.0), None, dict(r0=2.0)),
    (GE1Barrier, dict(constants=_GE1_CC, density=_H1_10, C=1.0, T=2.0, b=0.5, eps=0.5, beta=0.05),
     dict(density=_H1_10._replace(r0=20.0)), "cbar", dict(T=0.0)),
    (GE2Barrier, dict(constants=_COMPACT_CC, density=_H2_10, C=1.0, a=1.0, T=1.0), dict(a=2.0), None,
     dict(a=0.0)),
    (BlowupSubsolution, dict(constants=_COMPACT_CC, density=_H2_10, C=1.0, a=1.0, T=1.0), dict(T=2.0), None,
     dict(C=-1.0)),
    (RadialGrid, dict(N=3, R=1.0, cells=8), dict(cells=16), "centers", dict(cells=1)),
    (SolverConfig, dict(t_end=1.0, R=1.0, cells=8, output_times=(0.5, 1.0)), dict(t_end=2.0, output_times=()),
     "output_times", dict(cfl_safety=1.5)),
    (InitialData, dict(kind=INIT_SCALED_BARRIER, factor=2.0), dict(factor=3.0), None, dict(factor=0.0)),
]


def _same(x, y):
    return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


@pytest.mark.parametrize(
    "cls, kwargs, change, derived, bad", CHECKED_RECORDS, ids=[case[0].__name__ for case in CHECKED_RECORDS]
)
def test_modified_copies_keep_their_checks(cls, kwargs, change, derived, bad):
    record = cls(**kwargs)
    for name in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    copy, fresh = record._replace(**change), cls(**{**kwargs, **change})
    assert type(copy) is cls and copy._fields == fresh._fields
    assert all(_same(getattr(copy, name), getattr(fresh, name)) for name in fresh._fields)
    if derived is not None:
        assert not _same(getattr(copy, derived), getattr(record, derived))
    with pytest.raises(ValueError) as built:
        cls(**{**kwargs, **bad})
    with pytest.raises(ValueError) as copied:
        record._replace(**bad)
    assert str(copied.value) == str(built.value)
