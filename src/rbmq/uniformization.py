"""Rational parametrization of the kernel zero set by the Riemann sphere.

theta1(s) and theta2(s) below parametrize the zero set; the branch
points sit at s = +/-1 and +/- e^{i beta}, the real zeros form the unit
circle, and the pair (0, 0) lifts to a unit-circle point s0 on the
lower arc.  The lifted gluing map W and the two involutions generating
the symmetry group of the surface live here, together with the
finite-order detection that decides algebraicity of the transforms:
pi/beta is read as a rational p/q when a continued-fraction convergent
with q <= 10^6 lies within 1e-12 / q^2 of it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._points import _as_array, _raise_if_on_cut, _scale, _unwrap
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

# largest denominator, and residual coefficient, of the rational detection
_QMAX = 10**6
_TOL_COEFF = 1e-12


@dataclass(frozen=True)
class GroupReport:
    """Finiteness certificate for the symmetry group <zeta, eta>.

    finite=True comes with the rational detection (p, q) of pi/beta in
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


def _check_s(s) -> tuple[np.ndarray, bool]:
    arr, scalar = _as_array(s)
    if np.any(arr == 0) or not np.all(np.isfinite(arr)):
        raise AtZeroOrInfinityError("s = 0 and s = infinity map to the point at infinity")
    return arr, scalar


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


def theta_of_s(b: TransformBundle, s):
    """Coordinates (theta1(s), theta2(s)) of the sphere point s.

    s = 0 and s = infinity both map to the point at infinity of the
    zero set and are refused.
    """
    arr, scalar = _check_s(s)
    inv = 1.0 / arr
    return (
        _unwrap(_theta1_of_s(b, arr, inv), scalar),
        _unwrap(_theta2_of_s(b, arr, inv), scalar),
    )


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
    arr, scalar = _check_s(s)
    a = b.order
    lg = np.log(-arr)
    return _unwrap(-np.cosh(a * lg), scalar)


def _involutions(b: TransformBundle, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(zeta(s), eta(s)) on arrays, from the one reciprocal 1/s."""
    zeta = 1.0 / s
    return zeta, zeta * cmath.exp(2j * b.scalars.beta)


def group_elements(b: TransformBundle, s):
    """The two involutions at s: zeta(s) = 1/s fixes theta1, and
    eta(s) = e^{2 i beta}/s fixes theta2."""
    arr, scalar = _check_s(s)
    zeta, eta = _involutions(b, arr)
    return _unwrap(zeta, scalar), _unwrap(eta, scalar)


def _detect_rational(x: float) -> Optional[tuple[int, int, float]]:
    """Best rational approximation p/q of x with q <= _QMAX, if convincing.

    Walks the continued-fraction convergents of x and returns the first
    (p, q, |x - p/q|) whose residual is below _TOL_COEFF / q**2.  Returns
    None when no convergent with denominator <= _QMAX qualifies; callers
    must read that as "irrational within the bound", never as a proof
    of irrationality (a float cannot certify one).
    """
    # convergents h_k / k_k of the continued fraction of x
    h_prev, h = 1, int(math.floor(x))
    k_prev, k = 0, 1
    frac = x - math.floor(x)
    for _ in range(64):
        if k > _QMAX:
            break
        residual = abs(x - h / k)
        if residual < _TOL_COEFF / (k * k):
            g = math.gcd(abs(h), k)
            return h // g, k // g, residual
        if frac == 0.0:
            break
        a = math.floor(1.0 / frac)
        frac = 1.0 / frac - a
        h_prev, h = h, int(a) * h + h_prev
        k_prev, k = k, int(a) * k + k_prev
    return None


def group_order(b: TransformBundle) -> GroupReport:
    """Finiteness detection for <zeta, eta> via rationality of pi/beta.

    The composition zeta(eta(.)) rotates s by -2 beta; with pi/beta =
    p/q in lowest terms the smallest n with n*beta in pi*Z is n = p
    (computed on exact integers), and the dihedral group order is 2n.
    """
    hit = _detect_rational(b.scalars.pi_over_beta)
    if hit is None:
        return GroupReport(
            finite=False,
            order=None,
            p=None,
            q=None,
            residual=float("nan"),
            note=f"infinite within bound {_QMAX}",
        )
    # _detect_rational returns lowest terms; the smallest n >= 1 with
    # n*beta in pi*Z makes n*q/p integral, and gcd(p, q) = 1, so n = p
    p, q, residual = hit
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
    transcendental but still satisfies a linear ODE.  Reads the rational
    detection of `group_order`, so the two always agree.
    """
    rep = group_order(b)
    if not rep.finite:
        return "transcendental_D_finite"
    return "rational_polynomial" if rep.q == 1 else "algebraic_nonpolynomial"
