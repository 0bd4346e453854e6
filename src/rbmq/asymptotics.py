"""Tail asymptotics of the first boundary density.

The first singularity of phi1 decides the tail: either the branch point
theta2_plus of the gluing map (giving an algebraic correction x^-3/2 or
x^-1/2), or the simple pole at -2 mu2 / s22 (pure exponential).  Which
one is closest to the origin is read off the sign of the coinciding
kernel root at the branch point.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chebyshev import _expansion
from .errors import IntegerExponentError
from .kernel import theta1_at_branch_point
from .transform import TransformBundle, _w_deriv

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


def _regime_of(b: TransformBundle) -> tuple[str, float]:
    v = theta1_at_branch_point(b.params)
    tol = 1e-10 * (1.0 + abs(b.params.m1) / b.params.s11)
    if abs(v) < tol:
        logger.warning(
            "theta1 at the branch point is %.3e (within tolerance %.1e of 0); "
            "classifying as the boundary regime",
            v,
            tol,
        )
        return REGIME_BOUNDARY, v
    return (REGIME_SADDLE, v) if v < 0 else (REGIME_POLE, v)


def _constants(b: TransformBundle, regime: str) -> tuple[Optional[float], float]:
    """(c1, c2) outside the pole regime, from the expansion of T_a at -1
    through the affine map: w(theta2_plus - d) = w_top + k sqrt(d).
    Undefined for integer pi/beta (the gluing map is then a polynomial
    with no branch point)."""
    sc = b.scalars
    if b.integer_order:
        raise IntegerExponentError(
            f"pi/beta = {b.order} is an integer: the branch-point expansion degenerates "
            "and the constants are withheld"
        )
    spread = sc.theta2_plus - sc.theta2_minus
    assert spread > 0
    w_top, slope = _expansion(b.order, b.integer_order)
    k = slope * np.sqrt(2.0 / spread)
    num = -b.params.m1 * b.w1_prime0 * sc.theta2_plus
    c2 = float(num / k)
    wdiff = w_top - b.w1_at_0
    if regime == REGIME_BOUNDARY or abs(wdiff) < 1e-10 * (1.0 + abs(b.w1_at_0)):
        return None, c2
    return float(-num * k / wdiff**2), c2


def classify_regime(b: TransformBundle) -> AsymptoticReport:
    """Regime tag, the filled leading-order tail data and, outside the
    pole regime, the branch-point constants."""
    p = b.params
    sc = b.scalars
    regime, v = _regime_of(b)
    if regime == REGIME_POLE:
        # the residue of phi1 = -mu1 w'(0) theta / (w(theta) - w(0)) at
        # its pole, where w(pole) = w(0)
        rate = -2.0 * p.m2 / p.s22
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
        decay_rate=sc.theta2_plus,
        power=power,
        constant=float(constant),
        pole_location=None,
        theta1_at_theta2_plus=v,
        c1=c1,
        c2=c2,
    )
