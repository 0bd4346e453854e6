"""Generalized Chebyshev function T_a on the cut plane.

For integer a this is the classical polynomial, evaluated by the
three-term recurrence and valid on all of C.  For non-integer a the
function is cos(a arccos x) on [-1, 1], continued analytically to
C \\ (-inf, -1) as cosh(a arccosh x).  An order is an integer when the one
rule that reads it as p/q (`_order`) gives q = 1.

Branch conventions
------------------
arccosh is the principal branch, log(x + sqrt(x - 1) sqrt(x + 1)) with
principal square roots (Kahan, "Branch cuts for complex elementary
functions", 1987): x + sqrt(x - 1) sqrt(x + 1) is the Joukowski
preimage of x with modulus >= 1, so T_a is the power mean
(v^a + v^-a)/2 of the two preimages taken through the principal
logarithm of the large one.  The only discontinuity is across the real
ray x < -1, matching the intended cut.  A caller who wants a one-sided
value on the cut passes a complex x with a signed zero imaginary part
(x +/- 0j); the sign of that zero picks the side of arccosh's cut.

Evaluation path
---------------
A non-integer order evaluates one formula on the whole array, with no
mask: on (-1, 1), arccosh(x +/- 0j) = +/- i arccos x, so cosh returns
cos(a arccos x) with imaginary part +/-0.  Every point sees the same
elementwise operations whatever the rest of the array holds, so a point
gives the same bits alone or inside any array.  The derivative is
a sinh(a arccosh x) / (sqrt(x - 1) sqrt(x + 1)), refused at x = +/-1
where that denominator vanishes.
"""
from __future__ import annotations

import logging
from functools import partial

import numpy as np

from ._points import _evaluate, _raise_if_on_cut
from .errors import AtBranchPointError, ValidationError

__all__ = [
    "cheb_T",
    "cheb_T_deriv",
    "expansion_at_minus_one",
    "is_integer_order",
]

logger = logging.getLogger(__name__)

# largest denominator, and width coefficient, of the reading of an order as p/q
_QMAX = 10**6
_TOL_COEFF = 1e-12
_CUT = "order {a} is not an integer and x < -1 lies on the cut; pass x +/- 0j to pick a side"


def _order(a) -> tuple[float, tuple[int, int, float] | None, bool]:
    """The validated order, the one rule's reading of it as a fraction and
    whether that reading is an integer (q = 1).  The reading is
    (p, q, |a - p/q|) for the closest p/q with q <= _QMAX, in lowest terms,
    if it lies within _TOL_COEFF / q**2 of a; None means "irrational within
    the bound", never a proof.  Every other fraction with q <= _QMAX lies
    at least 1e-6 from an integer, so a float within 1e-12 of one snaps to
    it, with a logged note: silent snapping of a generically irrational
    exponent would corrupt classification.
    """
    try:
        af = float(a)
    except (TypeError, ValueError, OverflowError):
        af = np.nan  # refused below, with the same message
    if not np.isfinite(af) or af < 0:
        raise ValidationError(f"order must be a finite non-negative real, got {a!r}")
    # imported here: fractions imports decimal, which `import rbmq` need not pay for
    from fractions import Fraction

    frac = Fraction(af).limit_denominator(_QMAX)
    p, q = frac.numerator, frac.denominator
    residual = abs(af - p / q)
    if residual >= _TOL_COEFF / (q * q):
        return af, None, False
    if q == 1 and residual:
        logger.info("order %r within 1e-12 of integer %d; treating as integer", af, p)
    return af, (p, q, residual), q == 1


def is_integer_order(a) -> bool:
    """Whether the order reads as an integer: `_order` gives q = 1."""
    return _order(a)[2]


def _cheb_poly(n: int, x: np.ndarray) -> np.ndarray:
    """Classical polynomial by the three-term recurrence, all of C."""
    if n == 0:
        return np.ones_like(x)
    t_prev = np.ones_like(x)
    t = x.copy()
    for _ in range(n - 1):
        t_prev, t = t, 2.0 * x * t - t_prev
    return t


def _cheb_poly_deriv(n: int, x: np.ndarray) -> np.ndarray:
    if n == 0:
        return np.zeros_like(x)
    t_prev = np.ones_like(x)
    t = x.copy()
    d_prev = np.zeros_like(x)
    d = np.ones_like(x)
    for _ in range(n - 1):
        t_prev, t, d_prev, d = t, 2.0 * x * t - t_prev, d, 2.0 * t + 2.0 * x * d - d_prev
    return d


def _cheb_T(af: float, integer: bool, arr: np.ndarray) -> np.ndarray:
    """T_a on arr, in a new array."""
    if integer:
        return _cheb_poly(int(round(af)), arr)
    # arccosh x is log v, v the Joukowski preimage with |v| >= 1
    return np.cosh(af * np.arccosh(arr))


def _cheb_T_deriv(af: float, integer: bool, arr: np.ndarray) -> np.ndarray:
    if integer:
        return _cheb_poly_deriv(int(round(af)), arr)
    # sqrt(x^2 - 1), zero exactly at x = +/-1 and nowhere else; x - (-1)
    # rather than x + 1 keeps the signed zero of x - 0j (-0 + 0 is +0)
    s = np.sqrt(arr - 1.0) * np.sqrt(arr - -1.0)
    if (s == 0).any():
        raise AtBranchPointError(f"derivative of T_{af} is singular at x = +/-1")
    return af * np.sinh(af * np.arccosh(arr)) / s


def _public(fn, a, x):
    """fn (`_cheb_T` or `_cheb_T_deriv`) of order a at x, on the path that
    the order's reading picks; a non-integer order refuses the cut."""
    af, _, integer = _order(a)
    if not integer:
        _raise_if_on_cut(x, np.less, -1.0, _CUT, a=a)
    return _evaluate(partial(fn, af, integer), x)


def cheb_T(a, x):
    """Evaluate T_a at x (scalar or array, real or complex).

    Equals cos(a arccos x) on [-1, 1]; elsewhere the analytic
    continuation on the cut plane (see module docstring).  Integer
    orders take the polynomial path, valid everywhere.
    """
    return _public(_cheb_T, a, x)


def cheb_T_deriv(a, x):
    """Derivative of T_a; refuses x = +/-1 for non-integer order.

    a sinh(a arccosh x) / (sqrt(x - 1) sqrt(x + 1)) with the module's
    branch, which is a sin(a arccos x)/sqrt(1 - x^2) on (-1, 1).  The
    denominator is the product of square roots rather than
    sinh(arccosh x), which loses digits near x = -1.
    """
    return _public(_cheb_T_deriv, a, x)


def _expansion(af: float, integer: bool) -> tuple[float, float]:
    if integer:
        return float((-1.0) ** round(af)), 0.0
    return float(np.cos(af * np.pi)), float(af * np.sqrt(2.0) * np.sin(af * np.pi))


def expansion_at_minus_one(a) -> tuple[float, float]:
    """Leading coefficients of T_a(-1 + e) = c0 + c1 sqrt(e) + O(e).

    c0 = cos(a pi), c1 = a sqrt(2) sin(a pi).  For integer order the
    square-root term degenerates and c1 = 0.
    """
    af, _, integer = _order(a)
    return _expansion(af, integer)
