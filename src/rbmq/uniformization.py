"""Rational parametrization of the kernel zero set by the Riemann sphere.

theta1(s) and theta2(s) below parametrize the zero set; the branch
points sit at s = +/-1 and +/- e^{i beta}, the real zeros form the unit
circle, and the pair (0, 0) lifts to a unit-circle point s0 on the
lower arc.  The lifted gluing map W and the two involutions generating
the symmetry group of the surface live here, with the group order and
the nature of the transforms, both read off the bundle's one reading of
pi/beta as p/q (`chebyshev._order`).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from ._points import _evaluate, _raise_if_on_cut, _scale
from .chebyshev import _QMAX
from .errors import AtZeroOrInfinityError, OnLogCutError
from .transform import TransformBundle

__all__ = [
    "GroupReport",
    "theta_of_s",
    "W_of_s",
    "group_elements",
    "group_order",
    "classify_solution_nature",
]


@dataclass(frozen=True)
class GroupReport:
    """Finiteness certificate for the symmetry group <zeta, eta>.

    finite=True comes with the reading (p, q) of pi/beta in
    lowest terms, its residual |pi/beta - p/q| and the group order;
    finite=False only ever means "no rational with denominator <= 10^6",
    recorded in `note`.
    """

    finite: bool
    order: Optional[int]
    p: Optional[int]
    q: Optional[int]
    residual: float
    note: str


def _check_s(s: np.ndarray) -> None:
    if np.any(s == 0) or not np.all(np.isfinite(s)):
        raise AtZeroOrInfinityError("s = 0 and s = infinity map to the point at infinity")


def _theta1_of_s(b: TransformBundle, s: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """theta1 at the sphere points s, given inv = 1/s."""
    sc = b.scalars
    th1 = _scale(s + inv, (sc.theta1_plus - sc.theta1_minus) / 4.0)
    th1 += (sc.theta1_plus + sc.theta1_minus) / 2.0
    return th1


def _theta2_of_s(b: TransformBundle, s: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """theta2 at the sphere points s, given inv = 1/s: s/e + e/s with
    e = e^{i beta} is s conj(e) + e inv, since |e| = 1."""
    sc = b.scalars
    e = cmath.exp(1j * sc.beta)
    th2 = s * e.conjugate()
    th2 += inv * e
    _scale(th2, (sc.theta2_plus - sc.theta2_minus) / 4.0)
    th2 += (sc.theta2_plus + sc.theta2_minus) / 2.0
    return th2


def _theta_of_s(b: TransformBundle, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _check_s(s)
    inv = 1.0 / s
    return _theta1_of_s(b, s, inv), _theta2_of_s(b, s, inv)


def theta_of_s(b: TransformBundle, s):
    """Coordinates (theta1(s), theta2(s)) of the sphere point s.

    s = 0 and s = infinity both map to the point at infinity of the
    zero set and are refused.
    """
    return _evaluate(partial(_theta_of_s, b), s)


def _W_of_s(a: float, s: np.ndarray) -> np.ndarray:
    _check_s(s)
    return -np.cosh(a * np.log(-s))


def W_of_s(b: TransformBundle, s):
    """Lifted gluing map -((-s)^a + (-s)^-a)/2 = -cosh(a log(-s)) with
    a = pi/beta.

    Principal logarithm of -s, cut along s in [0, inf): a real-typed s
    there is refused, and s +/- 0j picks the side of the cut (the lower
    side of -s for s + 0j).
    """
    _raise_if_on_cut(
        s, np.greater_equal, 0.0, "s in [0, inf) lies on the logarithm cut of (-s)^a", OnLogCutError
    )
    return _evaluate(partial(_W_of_s, b.order), s)


def _involutions(b: TransformBundle, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(zeta(s), eta(s)) on arrays, from the one reciprocal 1/s."""
    zeta = 1.0 / s
    return zeta, zeta * cmath.exp(2j * b.scalars.beta)


def _group_elements(b: TransformBundle, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _check_s(s)
    return _involutions(b, s)


def group_elements(b: TransformBundle, s):
    """The two involutions at s: zeta(s) = 1/s fixes theta1, and
    eta(s) = e^{2 i beta}/s fixes theta2."""
    return _evaluate(partial(_group_elements, b), s)


def group_order(b: TransformBundle) -> GroupReport:
    """Finiteness of <zeta, eta> from the bundle's reading of pi/beta.

    The composition zeta(eta(.)) rotates s by -2 beta; with pi/beta =
    p/q in lowest terms the smallest n with n*beta in pi*Z is n = p
    (computed on exact integers), and the dihedral group order is 2n.
    """
    if b.fraction is None:
        return GroupReport(
            finite=False,
            order=None,
            p=None,
            q=None,
            residual=float("nan"),
            note=f"infinite within bound {_QMAX}",
        )
    # the reading is in lowest terms; the smallest n >= 1 with n*beta in
    # pi*Z makes n*q/p integral, and gcd(p, q) = 1, so n = p
    p, q, residual = b.fraction
    return GroupReport(
        finite=True,
        order=2 * p,
        p=p,
        q=q,
        residual=residual,
        note=f"pi/beta = {p}/{q} (residual {residual:.2e})",
    )


def classify_solution_nature(b: TransformBundle) -> str:
    """Nature of the boundary transform: rational / algebraic / D-finite.

    Finite group (rational pi/beta) gives an algebraic transform,
    integer pi/beta a rational one; otherwise the transform is
    transcendental but still satisfies a linear ODE.  Reads the bundle's
    reading of pi/beta, as `group_order` does, so the two always agree.
    """
    if b.fraction is None:
        return "transcendental_D_finite"
    return "rational_polynomial" if b.integer_order else "algebraic_nonpolynomial"
