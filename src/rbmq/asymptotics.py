"""Tail asymptotics of the first boundary density.

The first singularity of phi1 decides the tail: either the branch point
theta2_plus of the gluing map (giving an algebraic correction x^-3/2 or
x^-1/2), or the simple pole at -2 mu2 / s22 (pure exponential).  Which
one is closest to the origin is read off the sign of the coinciding
kernel root at the branch point by `_dominant_singularity`, which also
gives the decay rate (the check suite reads it there).  Only then does
`classify_regime` expand the gluing map at the branch point for the tail
constants, which it withholds for integer pi/beta.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chebyshev import _expansion
from .errors import IntegerExponentError
from .kernel import theta1_at_branch_point
from .model import ModelParams
from .transform import TransformBundle, _map, _w_deriv

__all__ = ["AsymptoticReport", "classify_regime"]

logger = logging.getLogger(__name__)

REGIME_SADDLE = "saddle_neg"
REGIME_BOUNDARY = "boundary_zero"
REGIME_POLE = "pole_dominant"


@dataclass(frozen=True)
class AsymptoticReport:
    """Leading-order tail of the first boundary density.

    nu1(x) ~ constant * x^power * exp(-decay_rate * x); decay_rate is
    positive in every regime (integrability).  pole_location is set only
    when the pole is the dominant singularity.  c1 and c2 are the
    branch-point constants of the local expansion of phi1: c1 multiplies
    sqrt(theta2_plus - theta2) when the gluing map separates the branch
    point from the origin, c2 is the coefficient of the inverse square
    root when it does not.  Both are None in the pole regime, and c1
    also in the boundary regime or when w(theta2_plus) - w(0) collapses.
    """

    regime: str
    decay_rate: float
    power: float
    constant: float
    pole_location: Optional[float]
    theta1_at_theta2_plus: float
    c1: Optional[float] = None
    c2: Optional[float] = None


def _dominant_singularity(p: ModelParams) -> tuple[str, float, float]:
    """The singularity of phi1 closest to the origin, as (regime, theta1
    at theta2_plus, decay rate): the pole at -2 mu2 / s22 when that
    kernel root is positive, the branch point theta2_plus otherwise."""
    v = theta1_at_branch_point(p)
    tol = 1e-10 * (1.0 + abs(p.m1) / p.s11)
    if abs(v) < tol:
        logger.warning(
            "theta1 at the branch point is %.3e (within tolerance %.1e of 0); "
            "classifying as the boundary regime",
            v,
            tol,
        )
        return REGIME_BOUNDARY, v, p.scalars.theta2_plus
    if v < 0:
        return REGIME_SADDLE, v, p.scalars.theta2_plus
    return REGIME_POLE, v, -2.0 * p.m2 / p.s22


def _constants(b: TransformBundle, regime: str) -> tuple[Optional[float], float]:
    """(c1, c2) outside the pole regime, from the expansion of T_a at -1
    through the affine map, whose scale 2 / spread is minus `_map`'s
    slope: w(theta2_plus - d) = w_top + k sqrt(d).  Undefined for
    integer pi/beta (the gluing map is then a polynomial with no branch
    point)."""
    if b.integer_order:
        raise IntegerExponentError(
            f"pi/beta = {b.order} is an integer: the branch-point expansion degenerates "
            "and the constants are withheld"
        )
    w_top, slope = _expansion(b.order)
    k = slope * np.sqrt(-_map(b.scalars)[2])
    num = -b.params.m1 * b.w1_prime0 * b.scalars.theta2_plus
    c2 = float(num / k)
    wdiff = w_top - b.w1_at_0
    if regime == REGIME_BOUNDARY or abs(wdiff) < 1e-10 * (1.0 + abs(b.w1_at_0)):
        return None, c2
    return float(-num * k / wdiff**2), c2


def classify_regime(b: TransformBundle) -> AsymptoticReport:
    """Regime tag, the filled leading-order tail data and, outside the
    pole regime, the branch-point constants."""
    p = b.params
    regime, v, rate = _dominant_singularity(p)
    if regime == REGIME_POLE:
        # the residue of phi1 = -mu1 w'(0) theta / (w(theta) - w(0)) at
        # its pole, where w(pole) = w(0)
        wp_pole = _w_deriv(b, np.array([rate], dtype=complex)).real[0]
        return AsymptoticReport(
            regime=regime,
            decay_rate=rate,
            power=0.0,
            constant=float(p.m1 * b.w1_prime0 * rate / wp_pole),
            pole_location=rate,
            theta1_at_theta2_plus=v,
        )
    c1, c2 = _constants(b, regime)
    if regime == REGIME_SADDLE:
        constant = -c1 / (2.0 * np.sqrt(np.pi))
        power = -1.5
    else:
        constant = c2 / np.sqrt(np.pi)
        power = -0.5
    return AsymptoticReport(
        regime=regime,
        decay_rate=rate,
        power=power,
        constant=float(constant),
        pole_location=None,
        theta1_at_theta2_plus=v,
        c1=c1,
        c2=c2,
    )
