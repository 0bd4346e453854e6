"""Explicit Laplace transforms of the stationary and boundary measures.

For orthogonal reflection the transform of the first boundary measure is

    phi1(theta2) = -mu1 w'(0) theta2 / (w(theta2) - w(0)),

where w composes the generalized Chebyshev function of order pi/beta
with the affine map sending [theta2_minus, theta2_plus] onto [1, -1].
phi2 is produced by index swap, and the bivariate transform phi follows
from the kernel identity

    -gamma(theta) phi(theta) = theta1 phi1(theta2) + theta2 phi2(theta1).

phi1 is meromorphic on the plane cut along (theta2_plus, inf); the
origin is a removable point with value -mu1 (the total boundary mass).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernel
from ._points import _as_array, _unwrap
from .chebyshev import _cheb_T, _cheb_T_deriv, _order
from .errors import (
    AtPoleError,
    AtZeroError,
    OnCutError,
    OnKernelCurveError,
)
from .model import DerivedScalars, ModelParams, derived_scalars

__all__ = [
    "TransformBundle",
    "make_bundle",
    "w_eval",
    "phi1_eval",
    "phi2_eval",
    "phi_eval",
    "psi1_eval",
    "psi2_eval",
]

# below this radius the removable origin is evaluated by its closed limit
_ORIGIN_RADIUS = 1e-8
_ORIGIN = np.zeros(1, dtype=complex)
# pole report thresholds: w-difference collapse at a not-small argument
_POLE_REL = 1e-12
_POLE_MIN_ABS = 1e-6


@dataclass(frozen=True)
class TransformBundle:
    """Evaluator state for one model: scalars and gluing-map constants.

    order is pi/beta, validated once; integer_order records whether it
    is (snapped to) an integer, which sends every evaluation of the
    gluing map down the polynomial path.  w1_prime0 / w1_at_0 belong to
    the theta2-side gluing map and come from that same path; the
    index-swapped side's constants live on `swapped`.  phi1_at_0 = -mu1
    and phi2_at_0 = -mu2 are the boundary masses.  Immutable; evaluators
    are pure functions of (bundle, point).
    """

    params: ModelParams
    scalars: DerivedScalars
    order: float
    integer_order: bool

    @property
    def phi1_at_0(self) -> float:
        return -self.params.m1

    @property
    def phi2_at_0(self) -> float:
        return -self.params.m2

    @cached_property
    def w1_at_0(self) -> float:
        return float(_w(self, _ORIGIN).real[0])

    @cached_property
    def w1_prime0(self) -> float:
        return float(_w_deriv(self, _ORIGIN).real[0])

    @cached_property
    def swapped(self) -> "TransformBundle":
        # the swap leaves beta, hence the order and its snap, unchanged
        p = self.params.swapped
        return TransformBundle(p, derived_scalars(p), self.order, self.integer_order)


def make_bundle(p: ModelParams) -> TransformBundle:
    """Build the evaluator bundle; the order pi/beta is resolved (and a
    snap to an integer logged) here, once per model."""
    sc = derived_scalars(p)
    return TransformBundle(p, sc, *_order(sc.pi_over_beta))


def _affine(sc: DerivedScalars, arr: np.ndarray) -> np.ndarray:
    """Map [theta2_minus, theta2_plus] onto [1, -1].

    Real and imaginary parts are transformed separately: complex
    multiplication mixes in +0.0 terms that would erase the signed zero
    a caller uses to pick a side of the cut (the map has negative
    slope, so the side flips, which real-float products get right).
    """
    spread = sc.theta2_plus - sc.theta2_minus
    out = np.empty_like(arr)
    out.real = -(2.0 * arr.real - (sc.theta2_plus + sc.theta2_minus)) / spread
    out.imag = (-2.0 / spread) * arr.imag
    return out


def _raise_if_on_cut(raw, cut_start: float, name: str):
    """Real-typed input strictly beyond the branch point is on the cut."""
    raw = np.asarray(raw)
    if not np.iscomplexobj(raw) and (raw > cut_start).any():
        raise OnCutError(
            f"real {name} > {cut_start} lies on the cut; "
            f"pass {name} +/- 0j to pick a side"
        )


def _w(b: TransformBundle, arr: np.ndarray) -> np.ndarray:
    return _cheb_T(b.order, b.integer_order, _affine(b.scalars, arr))


def _w_deriv(b: TransformBundle, arr: np.ndarray) -> np.ndarray:
    """Derivative of the gluing map (chain rule through the affine map)."""
    sc = b.scalars
    xp = -2.0 / (sc.theta2_plus - sc.theta2_minus)
    return xp * _cheb_T_deriv(b.order, b.integer_order, _affine(sc, arr))


def w_eval(b: TransformBundle, theta2):
    """Conformal gluing map at theta2 (cut plane, cut on (theta2_plus, inf))."""
    _raise_if_on_cut(theta2, b.scalars.theta2_plus, "theta2")
    arr, scalar = _as_array(theta2)
    return _unwrap(_w(b, arr), scalar)


def _phi1(b: TransformBundle, arr: np.ndarray) -> np.ndarray:
    den = _w(b, arr) - b.w1_at_0
    r = np.abs(arr)
    pole = (np.abs(den) < _POLE_REL * np.abs(b.w1_prime0 * arr)) & (r > _POLE_MIN_ABS)
    if pole.any():
        raise AtPoleError(location=complex(arr[pole][0]), order=1)
    small = r < _ORIGIN_RADIUS
    if not small.any():
        return -b.params.m1 * b.w1_prime0 * arr / den
    out = np.empty_like(arr)
    out[small] = b.phi1_at_0
    ok = ~small
    out[ok] = -b.params.m1 * b.w1_prime0 * arr[ok] / den[ok]
    return out


def phi1_eval(b: TransformBundle, theta2):
    """Transform of the first boundary measure, continued to the cut plane.

    The removable origin returns its limit -mu1.  A genuine pole
    (w(theta2) = w(0) away from 0) raises AtPoleError carrying the
    location; order is always 1 by injectivity of the gluing map.
    """
    _raise_if_on_cut(theta2, b.scalars.theta2_plus, "theta2")
    arr, scalar = _as_array(theta2)
    return _unwrap(_phi1(b, arr), scalar)


def _phi1_deriv(b: TransformBundle, arr: np.ndarray) -> np.ndarray:
    """d(phi1)/d(theta2); valid away from the removable origin."""
    if (np.abs(arr) < _ORIGIN_RADIUS).any():
        raise AtZeroError("derivative formula is not stable this close to 0")
    den = _w(b, arr) - b.w1_at_0
    wp = _w_deriv(b, arr)
    return -b.params.m1 * b.w1_prime0 * (den - arr * wp) / (den * den)


def phi2_eval(b: TransformBundle, theta1):
    """Transform of the second boundary measure (index-swapped route),
    continued to the plane cut along (theta1_plus, inf)."""
    _raise_if_on_cut(theta1, b.scalars.theta1_plus, "theta1")
    arr, scalar = _as_array(theta1)
    return _unwrap(_phi1(b.swapped, arr), scalar)


def _psi1(b: TransformBundle, arr: np.ndarray) -> np.ndarray:
    if (arr == 0).any():
        raise AtZeroError("psi1 and psi2 have their pole at 0")
    return _phi1(b, arr) / arr


def psi1_eval(b: TransformBundle, theta2):
    """phi1(theta2)/theta2: simple pole at 0 with residue -mu1."""
    _raise_if_on_cut(theta2, b.scalars.theta2_plus, "theta2")
    arr, scalar = _as_array(theta2)
    return _unwrap(_psi1(b, arr), scalar)


def psi2_eval(b: TransformBundle, theta1):
    """phi2(theta1)/theta1: simple pole at 0 with residue -mu2."""
    _raise_if_on_cut(theta1, b.scalars.theta1_plus, "theta1")
    arr, scalar = _as_array(theta1)
    return _unwrap(_psi1(b.swapped, arr), scalar)


def phi_eval(b: TransformBundle, theta1, theta2, *, direction=None):
    """Bivariate transform via the kernel identity.

    Off the kernel zero set:
        phi = -(theta1 phi1(theta2) + theta2 phi2(theta1)) / gamma.
    On it the expression is 0/0; evaluation is refused unless the caller
    supplies a direction vector, in which case the directional limit is
    taken analytically (both gradients are available in closed form).
    The origin is the direction-independent limit 1 (total mass).
    """
    p = b.params
    _raise_if_on_cut(theta2, b.scalars.theta2_plus, "theta2")
    _raise_if_on_cut(theta1, b.scalars.theta1_plus, "theta1")
    t1, s1 = _as_array(theta1)
    t2, s2 = _as_array(theta2)
    scalar = s1 and s2
    origin = (np.abs(t1) < 1e-12) & (np.abs(t2) < 1e-12)
    at_origin = origin.any()
    g = kernel._gamma(p, t1, t2)
    on_curve = np.abs(g) <= 1e-12 * kernel._zero_scale(p, t1, t2)
    if at_origin:
        on_curve &= ~origin
    if on_curve.any():
        if direction is None or not scalar:
            raise OnKernelCurveError(
                "gamma vanishes here; pass direction=(u1, u2) for the limit"
            )
        return _unwrap(_phi_limit(b, t1, t2, direction), scalar)
    num = t1 * _phi1(b, t2) + t2 * _phi1(b.swapped, t1)
    if not at_origin:
        return _unwrap(-num / g, scalar)
    # gamma vanishes at the origin too; its limit replaces the 0/0 there
    return _unwrap(np.where(origin, 1.0, -num / np.where(origin, 1.0, g)), scalar)


def _phi_limit(b: TransformBundle, t1: np.ndarray, t2: np.ndarray, direction) -> np.ndarray:
    """Directional limit of phi at a kernel zero (l'Hopital)."""
    p = b.params
    u1, u2 = complex(direction[0]), complex(direction[1])
    if u1 == 0 and u2 == 0:
        raise ValueError("direction must be non-zero")
    # gradient of the numerator theta1 phi1 + theta2 phi2
    dn1 = _phi1(b, t2) + t2 * _phi1_deriv(b.swapped, t1)
    dn2 = t1 * _phi1_deriv(b, t2) + _phi1(b.swapped, t1)
    dg1 = p.s11 * t1 + p.s12 * t2 + p.m1
    dg2 = p.s12 * t1 + p.s22 * t2 + p.m2
    den = u1 * dg1 + u2 * dg2
    if (den == 0).any():
        raise OnKernelCurveError("direction is tangent to the kernel curve here")
    return -(u1 * dn1 + u2 * dn2) / den
