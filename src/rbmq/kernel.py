"""Kernel algebra: the quadratic form gamma, its discriminants and
two-valued branches, and the boundary hyperbola.

All evaluators accept scalars or numpy arrays and broadcast; scalar in,
scalar out.  Branch labels (plus/minus) are attached to the principal
square root.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._points import _as_array, _unwrap
from .model import ModelParams, derived_scalars

__all__ = [
    "gamma",
    "theta2_branch",
    "theta1_branch",
    "theta1_at_branch_point",
    "HyperbolaR",
    "hyperbola",
]

_SIGN = {"plus": 1.0, "minus": -1.0}


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


def _zero_scale(p: ModelParams, t1, t2):
    """Pointwise normaliser of |gamma|: (t1, t2) is a kernel zero to
    relative accuracy eps where |gamma| <= eps * _zero_scale."""
    return (1.0 + np.abs(t1) ** 2 + np.abs(t2) ** 2) * p.scale


def _disc_d(p: ModelParams, t):
    """Discriminant b^2 - 4ac of the kernel as a quadratic in theta2,
    at theta1 = t."""
    return (
        t * t * (p.s12 * p.s12 - p.s11 * p.s22)
        + 2.0 * t * (p.m2 * p.s12 - p.m1 * p.s22)
        + p.m2 * p.m2
    )


def theta2_branch(p: ModelParams, theta1, sign):
    """Root of gamma(theta1, .) = 0: (-b +/- sqrt(d)) / (2a).

    sign is "plus" or "minus".  The label is attached to the principal
    square root of d, so for real theta1 outside the branch-point
    interval the two labels give complex-conjugate values (plus = upper
    half-plane).
    """
    sg = _SIGN[sign]
    t, scalar = _as_array(theta1)
    b = p.s12 * t + p.m2
    root = np.sqrt(_disc_d(p, t) + 0j)
    return _unwrap((-b + sg * root) / p.s22, scalar)


def theta1_branch(p: ModelParams, theta2, sign):
    """Root of gamma(., theta2) = 0 with the same labelling convention:
    the theta2-branch of the index-swapped model."""
    return theta2_branch(p.swapped, theta2, sign)


def theta1_at_branch_point(p: ModelParams) -> float:
    """The coinciding double root -(s12 theta2_plus + mu1)/s11.

    Its sign selects the tail regime of the first boundary density.
    """
    return -(p.s12 * derived_scalars(p).theta2_plus + p.m1) / p.s11


@dataclass(frozen=True)
class HyperbolaR:
    """The boundary curve: image of (-inf, theta1_minus) under the
    conjugate theta2-branches.

    For s12 != 0 this is one branch of the hyperbola
        cx2 x^2 + cy2 y^2 + cx x = rhs
    written in theta2 = x + iy; for s12 = 0 it degenerates to the
    vertical line x = -mu2/s22 (degenerate=True).  apex is the curve's
    real point.
    """

    cx2: float
    cy2: float
    cx: float
    rhs: float
    apex: float
    degenerate: bool

    def residual(self, theta2):
        """Scale-normalised defect of the full quadratic at theta2."""
        z, scalar = _as_array(theta2)
        x, y = z.real, z.imag
        if self.degenerate:
            return _unwrap(np.abs(x - self.apex) / (1.0 + np.abs(z)), scalar)
        t0, t1, t2, t3 = self.cx2 * x * x, self.cy2 * y * y, self.cx * x, -self.rhs
        scale = np.maximum(np.maximum(np.abs(t0), np.abs(t1)), np.maximum(np.abs(t2), abs(t3)))
        return _unwrap(np.abs(t0 + t1 + t2 + t3) / (scale + 1e-300), scalar)


def hyperbola(p: ModelParams) -> HyperbolaR:
    """Boundary curve data for this model."""
    apex = -(p.s12 * derived_scalars(p).theta1_minus + p.m2) / p.s22
    if p.s12 == 0.0:
        return HyperbolaR(
            cx2=0.0, cy2=0.0, cx=1.0, rhs=-p.m2 / p.s22, apex=apex, degenerate=True
        )
    cx2 = p.s22 * (p.s12 * p.s12 - p.s11 * p.s22)
    cy2 = p.s12 * p.s12 * p.s22
    cx = -2.0 * p.s22 * (p.s11 * p.m2 - p.s12 * p.m1)
    rhs = p.m2 * (p.s11 * p.m2 - 2.0 * p.s12 * p.m1)
    return HyperbolaR(cx2=cx2, cy2=cy2, cx=cx, rhs=rhs, apex=apex, degenerate=False)
