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
phi is refused on the kernel zero set gamma = 0, where the identity is
0/0, except at the origin, whose limit is 1 (the total mass).
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
from .model import DerivedScalars, ModelParams

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
    """Evaluator state for one model: the model and gluing-map constants.

    order is pi/beta, validated once; integer_order records whether it
    is (snapped to) an integer, which sends every evaluation of the
    gluing map down the polynomial path.  w1_prime0 / w1_at_0 belong to
    the theta2-side gluing map and come from that same path; the
    index-swapped side's constants live on `swapped`.  phi1_at_0 = -mu1
    and phi2_at_0 = -mu2 are the boundary masses.  Immutable; evaluators
    are pure functions of (bundle, point).
    """

    params: ModelParams
    order: float
    integer_order: bool

    @property
    def scalars(self) -> DerivedScalars:
        return self.params.scalars

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
        return TransformBundle(self.params.swapped, self.order, self.integer_order)


def make_bundle(p: ModelParams) -> TransformBundle:
    """Build the evaluator bundle; the order pi/beta is resolved (and a
    snap to an integer logged) here, once per model."""
    return TransformBundle(p, *_order(p.scalars.pi_over_beta))


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


def _phi1(b: TransformBundle, arr: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    """phi1 on an array; r is |arr| when the caller has it already."""
    if r is None:
        r = np.abs(arr)
    den = _w(b, arr) - b.w1_at_0
    pole = (np.abs(den) < (_POLE_REL * abs(b.w1_prime0)) * r) & (r > _POLE_MIN_ABS)
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


def phi_eval(b: TransformBundle, theta1, theta2):
    """Bivariate transform via the kernel identity.

    Off the kernel zero set:
        phi = -(theta1 phi1(theta2) + theta2 phi2(theta1)) / gamma.
    On it the expression is 0/0 and OnKernelCurveError is raised, for a
    scalar point or an array holding one (phi has a pole there unless
    grad N = -phi grad gamma fixes a limit for the numerator N).  The
    origin, where gamma vanishes too, returns its limit 1 (total mass).
    """
    p = b.params
    _raise_if_on_cut(theta2, b.scalars.theta2_plus, "theta2")
    _raise_if_on_cut(theta1, b.scalars.theta1_plus, "theta1")
    t1, s1 = _as_array(theta1)
    t2, s2 = _as_array(theta2)
    scalar = s1 and s2
    r1, r2 = np.abs(t1), np.abs(t2)
    origin = (r1 < 1e-12) & (r2 < 1e-12)
    at_origin = origin.any()
    g = kernel._gamma(p, t1, t2)
    on_curve = np.abs(g) <= 1e-12 * kernel._zero_scale(p, r1, r2)
    if at_origin:
        on_curve &= ~origin
    if on_curve.any():
        raise OnKernelCurveError("gamma vanishes here: phi is 0/0 on the kernel zero set")
    num = t1 * _phi1(b, t2, r2) + t2 * _phi1(b.swapped, t1, r1)
    if not at_origin:
        return _unwrap(-num / g, scalar)
    # gamma vanishes at the origin too; its limit replaces the 0/0 there
    return _unwrap(np.where(origin, 1.0, -num / np.where(origin, 1.0, g)), scalar)
