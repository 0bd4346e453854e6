"""Kernel algebra: the quadratic form gamma, its discriminants and
two-valued branches, and the boundary hyperbola.

All evaluators accept scalars or numpy arrays and broadcast; scalar in,
scalar out.  The two roots of the kernel in one variable come as one
(plus, minus) pair, labelled by the principal square root.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._points import _evaluate, _scale
from .model import ModelParams

__all__ = [
    "gamma",
    "theta2_branches",
    "theta1_branches",
    "theta1_at_branch_point",
    "HyperbolaR",
    "hyperbola",
]


def _gamma(p: ModelParams, t1, t2):
    """The kernel in Horner form t1 (s11 t1/2 + s12 t2 + m1) + t2 (s22 t2/2 + m2).

    Each product takes a fresh output (see `_points`)."""
    bracket = 0.5 * p.s11 * t1 + p.s12 * t2 + p.m1
    return np.multiply(t1, bracket) + np.multiply(t2, 0.5 * p.s22 * t2 + p.m2)


def gamma(p: ModelParams, theta1, theta2):
    """The kernel 1/2 <theta, sigma theta> + <theta, mu>."""
    return _evaluate(partial(_gamma, p), theta1, theta2)


def _zero_scale(p: ModelParams, r1, r2):
    """Pointwise normaliser of |gamma| from the moduli r1 = |t1|, r2 = |t2|:
    (t1, t2) is a kernel zero to relative accuracy eps where
    |gamma| <= eps * _zero_scale."""
    return (1.0 + r1 * r1 + r2 * r2) * p.scale


def _disc_d(p: ModelParams, t):
    """Discriminant b^2 - 4ac of the kernel as a quadratic in theta2,
    at theta1 = t, in Horner form."""
    c2 = p.s12 * p.s12 - p.s11 * p.s22  # coefficient of t^2
    c1 = p.m2 * p.s12 - p.m1 * p.s22  # half the coefficient of t
    return (c2 * t + 2.0 * c1) * t + p.m2 * p.m2


def _theta2_branches(p: ModelParams, t):
    root = _disc_d(p, t)
    np.sqrt(root, out=root)
    neg_b = t * -p.s12
    neg_b -= p.m2
    # a complex quotient by the real s22 is the product with 1/s22
    inv = 1.0 / p.s22
    plus = _scale(neg_b + root, inv)
    neg_b -= root
    return plus, _scale(neg_b, inv)


def theta2_branches(p: ModelParams, theta1):
    """The two roots (plus, minus) of gamma(theta1, .) = 0:
    (-b +/- sqrt(d)) / (2a).

    The labels are attached to the principal square root of d, so for
    real theta1 outside the branch-point interval the pair is
    complex-conjugate (plus = upper half-plane).
    """
    return _evaluate(partial(_theta2_branches, p), theta1)


def theta1_branches(p: ModelParams, theta2):
    """The two roots (plus, minus) of gamma(., theta2) = 0 with the same
    labelling convention: the theta2-branches of the index-swapped model."""
    return theta2_branches(p.swapped, theta2)


def theta1_at_branch_point(p: ModelParams) -> float:
    """The coinciding double root -(s12 theta2_plus + mu1)/s11.

    Its sign selects the tail regime of the first boundary density.
    """
    return -(p.s12 * p.scalars.theta2_plus + p.m1) / p.s11


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

    def _residual(self, z):
        x, y = z.real, z.imag
        if self.degenerate:
            return np.abs(x - self.apex) / (1.0 + np.abs(z))
        t0, t1, t2, t3 = self.cx2 * x * x, self.cy2 * y * y, self.cx * x, -self.rhs
        scale = np.maximum(np.maximum(np.abs(t0), np.abs(t1)), np.maximum(np.abs(t2), abs(t3)))
        return np.abs(t0 + t1 + t2 + t3) / (scale + 1e-300)

    def residual(self, theta2):
        """Scale-normalised defect of the full quadratic at theta2."""
        return _evaluate(self._residual, theta2)


def hyperbola(p: ModelParams) -> HyperbolaR:
    """Boundary curve data for this model."""
    apex = -(p.s12 * p.scalars.theta1_minus + p.m2) / p.s22
    if p.s12 == 0.0:
        return HyperbolaR(
            cx2=0.0, cy2=0.0, cx=1.0, rhs=-p.m2 / p.s22, apex=apex, degenerate=True
        )
    cx2 = p.s22 * (p.s12 * p.s12 - p.s11 * p.s22)
    cy2 = p.s12 * p.s12 * p.s22
    cx = -2.0 * p.s22 * (p.s11 * p.m2 - p.s12 * p.m1)
    rhs = p.m2 * (p.s11 * p.m2 - 2.0 * p.s12 * p.m1)
    return HyperbolaR(cx2=cx2, cy2=cy2, cx=cx, rhs=rhs, apex=apex, degenerate=False)
