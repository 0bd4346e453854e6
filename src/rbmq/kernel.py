"""Kernel algebra: the quadratic form gamma, its discriminants and
two-valued branches, the boundary hyperbola with its interior domain,
and the general-reflection boundary ratio.

All evaluators accept scalars or numpy arrays and broadcast; scalar in,
scalar out.  Branch labels (plus/minus) are attached to the principal
square root.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._points import _as_array, _unwrap
from .errors import (
    NotOnCurveError,
    ZeroDenominatorError,
)
from .model import DerivedScalars, ModelParams, derived_scalars

__all__ = [
    "gamma",
    "gamma1",
    "gamma2",
    "disc_d",
    "disc_d_tilde",
    "theta2_branch",
    "theta1_branch",
    "theta1_at_branch_point",
    "HyperbolaR",
    "hyperbola",
    "contains_G_R",
    "G_ratio",
    "g_ratio_factors",
]

_SIGN = {"plus": 1.0, "minus": -1.0, +1: 1.0, -1: -1.0, 1.0: 1.0, -1.0: -1.0}


def _gamma(p: ModelParams, t1, t2):
    return (
        0.5 * (p.s11 * t1 * t1 + 2.0 * p.s12 * t1 * t2 + p.s22 * t2 * t2)
        + p.m1 * t1
        + p.m2 * t2
    )


def gamma(p: ModelParams, theta1, theta2):
    """The kernel 1/2 <theta, sigma theta> + <theta, mu>."""
    t1, s1 = _as_array(theta1)
    t2, s2 = _as_array(theta2)
    return _unwrap(_gamma(p, t1, t2), s1 and s2)


def gamma1(p: ModelParams, theta1, theta2):
    """<R^1, theta>: first boundary form (theta1 for orthogonal reflection)."""
    return p.r[0, 0] * theta1 + p.r[1, 0] * theta2


def gamma2(p: ModelParams, theta1, theta2):
    """<R^2, theta>: second boundary form (theta2 for orthogonal reflection)."""
    return p.r[0, 1] * theta1 + p.r[1, 1] * theta2


def _disc_d(p: ModelParams, t):
    return (
        t * t * (p.s12 * p.s12 - p.s11 * p.s22)
        + 2.0 * t * (p.m2 * p.s12 - p.m1 * p.s22)
        + p.m2 * p.m2
    )


def _disc_d_tilde(p: ModelParams, t):
    return (
        t * t * (p.s12 * p.s12 - p.s11 * p.s22)
        + 2.0 * t * (p.m1 * p.s12 - p.m2 * p.s11)
        + p.m1 * p.m1
    )


def disc_d(p: ModelParams, theta1):
    """Discriminant b^2 - 4ac of the kernel as a quadratic in theta2."""
    t, scalar = _as_array(theta1)
    return _unwrap(_disc_d(p, t), scalar)


def disc_d_tilde(p: ModelParams, theta2):
    """Discriminant of the kernel as a quadratic in theta1."""
    t, scalar = _as_array(theta2)
    return _unwrap(_disc_d_tilde(p, t), scalar)


def theta2_branch(p: ModelParams, theta1, sign):
    """Root of gamma(theta1, .) = 0: (-b +/- sqrt(d)) / (2a).

    The +/- label is attached to the principal square root of d, so for
    real theta1 outside the branch-point interval the two labels give
    complex-conjugate values (plus = upper half-plane).
    """
    sg = _SIGN[sign]
    t, scalar = _as_array(theta1)
    b = p.s12 * t + p.m2
    root = np.sqrt(_disc_d(p, t) + 0j)
    return _unwrap((-b + sg * root) / p.s22, scalar)


def theta1_branch(p: ModelParams, theta2, sign):
    """Root of gamma(., theta2) = 0 with the same labelling convention."""
    sg = _SIGN[sign]
    t, scalar = _as_array(theta2)
    b = p.s12 * t + p.m1
    root = np.sqrt(_disc_d_tilde(p, t) + 0j)
    return _unwrap((-b + sg * root) / p.s11, scalar)


def theta1_at_branch_point(p: ModelParams, scalars: Optional[DerivedScalars] = None) -> float:
    """The coinciding double root -(s12 theta2_plus + mu1)/s11.

    Its sign selects the tail regime of the first boundary density.
    """
    sc = scalars if scalars is not None else derived_scalars(p)
    return -(p.s12 * sc.theta2_plus + p.m1) / p.s11


@dataclass(frozen=True)
class HyperbolaR:
    """The boundary curve: image of (-inf, theta1_minus) under the
    conjugate theta2-branches.

    For s12 != 0 this is one branch of the hyperbola
        cx2 x^2 + cy2 y^2 + cx x = rhs
    written in theta2 = x + iy; for s12 = 0 it degenerates to the
    vertical line x = -mu2/s22 (degenerate=True).  The branch is a graph
    x = x_on_curve(y) over the imaginary part, and the interior domain
    (the component containing 0) is always {x < x_on_curve(y)}.
    """

    cx2: float
    cy2: float
    cx: float
    rhs: float
    theta1_minus: float
    apex: float
    degenerate: bool
    x_center: float = 0.0
    semi_x: float = 0.0
    semi_y: float = 0.0
    opens_right: bool = False

    def x_on_curve(self, y) -> np.ndarray:
        """x-coordinate of the curve at height y (vectorised)."""
        y = np.asarray(y, dtype=float)
        if self.degenerate:
            return np.broadcast_to(np.float64(self.apex), y.shape).copy()
        bulge = self.semi_x * np.sqrt(1.0 + (y / self.semi_y) ** 2)
        return self.x_center + bulge if self.opens_right else self.x_center - bulge

    def residual(self, theta2) -> float:
        """Scale-normalised defect of the full quadratic at theta2."""
        x, y = complex(theta2).real, complex(theta2).imag
        if self.degenerate:
            return abs(x - self.apex) / (1.0 + abs(theta2))
        terms = (self.cx2 * x * x, self.cy2 * y * y, self.cx * x, -self.rhs)
        scale = max(abs(t) for t in terms) + 1e-300
        return abs(sum(terms)) / scale

    def on_curve(self, theta2, tol: float = 1e-8) -> bool:
        """Membership of the curve branch itself (not the full conic)."""
        if self.residual(theta2) > tol:
            return False
        x, y = complex(theta2).real, complex(theta2).imag
        return bool(abs(x - float(self.x_on_curve(y))) <= tol * (1.0 + abs(theta2)))


def hyperbola(p: ModelParams, scalars: Optional[DerivedScalars] = None) -> HyperbolaR:
    """Boundary curve data for this model."""
    sc = scalars if scalars is not None else derived_scalars(p)
    apex = -(p.s12 * sc.theta1_minus + p.m2) / p.s22
    if p.s12 == 0.0:
        return HyperbolaR(
            cx2=0.0, cy2=0.0, cx=1.0, rhs=-p.m2 / p.s22,
            theta1_minus=sc.theta1_minus, apex=apex, degenerate=True,
        )
    cx2 = p.s22 * (p.s12 * p.s12 - p.s11 * p.s22)
    cy2 = p.s12 * p.s12 * p.s22
    cx = -2.0 * p.s22 * (p.s11 * p.m2 - p.s12 * p.m1)
    rhs = p.m2 * (p.s11 * p.m2 - 2.0 * p.s12 * p.m1)
    # centre/semi-axes of cx2 (x - x0)^2 + cy2 y^2 = rhs2, cx2 < 0 < cy2
    x0 = -cx / (2.0 * cx2)
    rhs2 = rhs + cx * cx / (4.0 * cx2)
    semi_x = float(np.sqrt(rhs2 / cx2))
    semi_y = float(np.sqrt(-rhs2 / cy2))
    return HyperbolaR(
        cx2=cx2, cy2=cy2, cx=cx, rhs=rhs,
        theta1_minus=sc.theta1_minus, apex=apex, degenerate=False,
        x_center=float(x0), semi_x=semi_x, semi_y=semi_y,
        opens_right=p.s12 > 0,
    )


def contains_G_R(p: ModelParams, theta2, hyp: Optional[HyperbolaR] = None) -> bool:
    """Membership of the open domain bounded by the curve and containing 0.

    Points on (or within a small guard band of) the curve are excluded,
    since the domain is open.
    """
    h = hyp if hyp is not None else hyperbola(p)
    z = complex(theta2)
    guard = 1e-12 * (1.0 + abs(z))
    return bool(z.real < float(h.x_on_curve(z.imag)) - guard)


def _real_preimage(p: ModelParams, theta2, sc: DerivedScalars) -> float:
    """The real kernel-preimage t <= theta1_minus of a point on the curve."""
    t2 = complex(theta2)
    a = 0.5 * p.s11
    b = p.s12 * t2 + p.m1
    c = 0.5 * p.s22 * t2 * t2 + p.m2 * t2
    root = np.sqrt(complex(b * b - 4.0 * a * c))
    cands = ((-b + root) / (2.0 * a), (-b - root) / (2.0 * a))
    # at the apex both roots are real; only one lies at or below theta1_minus
    valid = [
        z
        for z in cands
        if abs(z.imag) <= 1e-6 * (1.0 + abs(z)) and z.real <= sc.theta1_minus + 1e-6
    ]
    if not valid:
        raise NotOnCurveError(
            f"no real kernel-preimage below theta1_minus for theta2={t2}"
        )
    return float(min(valid, key=lambda z: z.real).real)


def g_ratio_factors(p: ModelParams, theta2, *, curve_tol: float = 1e-8):
    """The two ratio factors of the boundary weight, separately.

    First factor: (gamma1/gamma2) at (t, theta2); second:
    (gamma2/gamma1) at (t, conj(theta2)), where t is the real
    kernel-preimage of theta2 on the curve.
    """
    sc = derived_scalars(p)
    h = hyperbola(p, sc)
    if h.residual(theta2) > curve_tol:
        raise NotOnCurveError(
            f"theta2={theta2} off the boundary curve (residual {h.residual(theta2):.2e})"
        )
    t = _real_preimage(p, theta2, sc)
    t2 = complex(theta2)
    t2c = t2.conjugate()
    g1a = gamma1(p, t, t2)
    g2a = gamma2(p, t, t2)
    g1b = gamma1(p, t, t2c)
    g2b = gamma2(p, t, t2c)
    tiny = 1e-14 * p.scale * (1.0 + abs(t) + abs(t2))
    if min(abs(g2a), abs(g1b)) < tiny:
        raise ZeroDenominatorError(
            f"boundary form vanishes at theta2={t2}: gamma2={g2a}, gamma1(conj)={g1b}"
        )
    return g1a / g2a, g2b / g1b


def G_ratio(p: ModelParams, theta2, *, curve_tol: float = 1e-8) -> complex:
    """Boundary weight G on the curve (general reflection allowed)."""
    f1, f2 = g_ratio_factors(p, theta2, curve_tol=curve_tol)
    return complex(f1 * f2)
