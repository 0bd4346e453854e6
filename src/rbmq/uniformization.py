"""Rational parametrization of the kernel zero set by the Riemann sphere.

theta1(s) and theta2(s) below parametrize the zero set; the branch
points sit at s = +/-1 and +/- e^{i beta}, the real zeros form the unit
circle, and the pair (0, 0) lifts to a unit-circle point s0 on the
lower arc.  The lifted gluing map W and the two involutions generating
the symmetry group of the surface live here, together with the
finite-order detection that decides algebraicity of the transforms.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._points import _as_array, _unwrap
from .errors import AtZeroOrInfinityError, OnLogCutError
from .rational import detect_rational
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

    finite=True comes with the rational detection (p, q) of pi/beta in
    lowest terms and the group order; finite=False only ever means "no
    rational with denominator <= qmax", recorded in `note`.
    """

    finite: bool
    order: Optional[int]
    p: Optional[int]
    q: Optional[int]
    residual: float
    qmax: int
    note: str


def _check_s(s) -> tuple[np.ndarray, bool]:
    arr, scalar = _as_array(s)
    if np.any(arr == 0) or not np.all(np.isfinite(arr)):
        raise AtZeroOrInfinityError("s = 0 and s = infinity map to the point at infinity")
    return arr, scalar


def theta_of_s(b: TransformBundle, s):
    """Coordinates (theta1(s), theta2(s)) of the sphere point s.

    s = 0 and s = infinity both map to the point at infinity of the
    zero set and are refused.
    """
    sc = b.scalars
    arr, scalar = _check_s(s)
    e = cmath.exp(1j * sc.beta)
    th1 = (sc.theta1_plus + sc.theta1_minus) / 2.0 + (
        sc.theta1_plus - sc.theta1_minus
    ) / 4.0 * (arr + 1.0 / arr)
    th2 = (sc.theta2_plus + sc.theta2_minus) / 2.0 + (
        sc.theta2_plus - sc.theta2_minus
    ) / 4.0 * (arr / e + e / arr)
    return _unwrap(th1, scalar), _unwrap(th2, scalar)


def W_of_s(b: TransformBundle, s):
    """Lifted gluing map -((-s)^a + (-s)^-a)/2 with a = pi/beta.

    Principal logarithm of -s; refuses s on [0, inf) where the log cut
    makes the power ambiguous.
    """
    raw = np.asarray(s)
    if np.iscomplexobj(raw):
        on_cut = (raw.imag == 0) & (raw.real >= 0)
    else:
        on_cut = raw >= 0
    if np.any(on_cut):
        raise OnLogCutError("s in [0, inf) lies on the logarithm cut of (-s)^a")
    arr, scalar = _check_s(s)
    a = b.order
    lg = np.log(-arr)
    return _unwrap(-0.5 * (np.exp(a * lg) + np.exp(-a * lg)), scalar)


def group_elements(b: TransformBundle, s):
    """The two involutions at s: zeta(s) = 1/s fixes theta1, and
    eta(s) = e^{2 i beta}/s fixes theta2."""
    arr, scalar = _check_s(s)
    zeta = 1.0 / arr
    eta = cmath.exp(2j * b.scalars.beta) / arr
    return _unwrap(zeta, scalar), _unwrap(eta, scalar)


def group_order(b: TransformBundle, qmax: int = 10**6) -> GroupReport:
    """Finiteness detection for <zeta, eta> via rationality of pi/beta.

    The composition zeta(eta(.)) rotates s by -2 beta; with pi/beta =
    p/q in lowest terms the smallest n with n*beta in pi*Z is n = p
    (computed on exact integers), and the dihedral group order is 2n.
    """
    hit = detect_rational(b.scalars.pi_over_beta, qmax=qmax)
    if hit is None:
        return GroupReport(
            finite=False,
            order=None,
            p=None,
            q=None,
            residual=float("nan"),
            qmax=qmax,
            note=f"infinite within bound {qmax}",
        )
    # detect_rational returns lowest terms; the smallest n >= 1 with
    # n*beta in pi*Z makes n*q/p integral, and gcd(p, q) = 1, so n = p
    p, q, residual = hit
    return GroupReport(
        finite=True,
        order=2 * p,
        p=p,
        q=q,
        residual=residual,
        qmax=qmax,
        note=f"pi/beta = {p}/{q} (residual {residual:.2e})",
    )


def classify_solution_nature(b: TransformBundle, qmax: int = 10**6) -> str:
    """Nature of the boundary transform: rational / algebraic / D-finite.

    Finite group (rational pi/beta) gives an algebraic transform,
    integer pi/beta a rational one; otherwise the transform is
    transcendental but still satisfies a linear ODE.  Reads the rational
    detection of `group_order`, so the two always agree.
    """
    rep = group_order(b, qmax)
    if not rep.finite:
        return "transcendental_D_finite"
    return "rational_polynomial" if rep.q == 1 else "algebraic_nonpolynomial"
