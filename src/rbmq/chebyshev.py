"""Generalized Chebyshev function T_a on the cut plane.

For integer a this is the classical polynomial, evaluated by the
three-term recurrence and valid on all of C.  For non-integer a the
function is cos(a arccos x) on [-1, 1], continued analytically to
C \\ (-inf, -1) as the symmetric power mean of the two Joukowski
preimages of x.

Branch conventions
------------------
sqrt(x^2 - 1) is computed as sqrt(x - 1) * sqrt(x + 1) with principal
factors, which is analytic off [-1, 1]; then v = x + sqrt(x^2 - 1) is
the Joukowski preimage with |v| >= 1 and T_a = (v^a + v^-a)/2 uses the
principal logarithm of v (never of the small root 1/v).  The only
resulting discontinuity is across the real ray x < -1, matching the
intended cut.  A caller who wants a one-sided value on the cut passes a
complex x with a signed zero imaginary part (x +/- 0j).

Evaluation path
---------------
A non-integer order evaluates the power mean on the whole array, which
is finite on [-1, 1] too, and then overwrites the real points of
[-1, 1] with cos(a arccos x).  The mask of those points is built only
when the array has a real point, so an array without one (the common
case: complex arguments, or real ones on the cut) costs one comparison
beyond the power mean.  Every other point sees the same elementwise
operations whatever the rest of the array holds, so a point gives the
same bits alone or inside any array.  The derivative takes the same
path, with the open interval (-1, 1) and a refusal at x = +/-1.
"""
from __future__ import annotations

import logging

import numpy as np

from ._points import _as_array, _unwrap
from .errors import AtBranchPointError, OnCutError

__all__ = [
    "cheb_T",
    "cheb_T_deriv",
    "expansion_at_minus_one",
    "is_integer_order",
]

logger = logging.getLogger(__name__)

_INT_SNAP = 1e-12


def is_integer_order(a) -> bool:
    """Whether the order is (to be treated as) an integer.

    Exact for integers; floats within 1e-12 of an integer are snapped
    with a logged note, since silent snapping of a generically
    irrational exponent would corrupt classification.
    """
    af = float(a)
    near = round(af)
    if af != near and abs(af - near) < _INT_SNAP:
        logger.info("order %r within 1e-12 of integer %d; treating as integer", a, near)
        return True
    return af == near


def _order(a) -> tuple[float, bool]:
    """The validated order and whether it takes the polynomial path."""
    af = float(a)
    if not np.isfinite(af) or af < 0:
        raise ValueError(f"order must be a finite non-negative real, got {a!r}")
    return af, is_integer_order(af)


def _raise_on_cut(x, a):
    """Real-typed input strictly below -1 is refused for non-integer order."""
    raw = np.asarray(x)
    if not np.iscomplexobj(raw) and (raw < -1.0).any():
        raise OnCutError(
            f"order {a} is not an integer and x < -1 lies on the cut; "
            "pass x +/- 0j to pick a side"
        )


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


def _large_root(z: np.ndarray) -> np.ndarray:
    """Joukowski preimage with modulus >= 1."""
    return z + np.sqrt(z - 1.0) * np.sqrt(z + 1.0)


def _real_interval(arr: np.ndarray, inside) -> np.ndarray | None:
    """Mask of the real points with inside(|x|, 1), or None when there is
    none; an array without real points costs one comparison."""
    real = arr.imag == 0
    if not real.any():
        return None
    mask = real & inside(np.abs(arr.real), 1.0)
    return mask if mask.any() else None


def _cheb_T_off(af: float, z: np.ndarray) -> np.ndarray:
    """T_a off [-1, 1]: the power mean of the Joukowski preimages."""
    lv = np.log(_large_root(z))
    return 0.5 * (np.exp(af * lv) + np.exp(-af * lv))


def _cheb_T(af: float, integer: bool, arr: np.ndarray) -> np.ndarray:
    if integer:
        return _cheb_poly(int(round(af)), arr)
    out = _cheb_T_off(af, arr)
    on_interval = _real_interval(arr, np.less_equal)
    if on_interval is not None:
        out[on_interval] = np.cos(af * np.arccos(arr[on_interval].real))
    return out


def _cheb_T_deriv_off(af: float, z: np.ndarray) -> np.ndarray:
    s = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
    lv = np.log(z + s)
    return 0.5 * af * (np.exp(af * lv) - np.exp(-af * lv)) / s


def _cheb_T_deriv(af: float, integer: bool, arr: np.ndarray) -> np.ndarray:
    if integer:
        return _cheb_poly_deriv(int(round(af)), arr)
    if _real_interval(arr, np.equal) is not None:
        raise AtBranchPointError(f"derivative of T_{af} is singular at x = +/-1")
    out = _cheb_T_deriv_off(af, arr)
    interior = _real_interval(arr, np.less)
    if interior is not None:
        t = arr[interior].real
        out[interior] = af * np.sin(af * np.arccos(t)) / np.sqrt(1.0 - t * t)
    return out


def cheb_T(a, x):
    """Evaluate T_a at x (scalar or array, real or complex).

    Equals cos(a arccos x) on [-1, 1]; elsewhere the analytic
    continuation on the cut plane (see module docstring).  Integer
    orders take the polynomial path, valid everywhere.
    """
    af, integer = _order(a)
    if not integer:
        _raise_on_cut(x, a)
    arr, scalar = _as_array(x)
    return _unwrap(_cheb_T(af, integer, arr), scalar)


def cheb_T_deriv(a, x):
    """Derivative of T_a; refuses x = +/-1 for non-integer order.

    On (-1, 1) it is a sin(a arccos x)/sqrt(1 - x^2); elsewhere
    a (v^a - v^-a) / (2 sqrt(x^2 - 1)) with the module's branch.
    """
    af, integer = _order(a)
    if not integer:
        _raise_on_cut(x, a)
    arr, scalar = _as_array(x)
    return _unwrap(_cheb_T_deriv(af, integer, arr), scalar)


def expansion_at_minus_one(a) -> tuple[float, float]:
    """Leading coefficients of T_a(-1 + e) = c0 + c1 sqrt(e) + O(e).

    c0 = cos(a pi), c1 = a sqrt(2) sin(a pi).  For integer order the
    square-root term degenerates and c1 = 0.
    """
    af, integer = _order(a)
    if integer:
        n = int(round(af))
        return float((-1.0) ** n), 0.0
    return float(np.cos(af * np.pi)), float(af * np.sqrt(2.0) * np.sin(af * np.pi))
