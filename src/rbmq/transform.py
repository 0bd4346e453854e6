"""Explicit Laplace transforms of the stationary and boundary measures.

For orthogonal reflection the transform of the first boundary measure is

    phi1(theta2) = -mu1 w'(0) theta2 / (w(theta2) - w(0)),

where w composes the generalized Chebyshev function of order pi/beta
with the affine map sending [theta2_minus, theta2_plus] onto [1, -1].
The order and its reading as p/q belong to the model, so a
`TransformBundle` is built from the model alone.  phi2 and psi2 are
phi1 and psi1 of the index-swapped bundle `swapped`, and the bivariate
transform phi follows from the kernel identity

    -gamma(theta) phi(theta) = theta1 phi1(theta2) + theta2 phi2(theta1).

phi1 is meromorphic on the plane cut along (theta2_plus, inf); the
origin is a removable point with value -mu1 (the total boundary mass).
phi is refused on the kernel zero set gamma = 0, where the identity is
0/0, except at the origin, whose limit is 1 (the total mass).

One kernel, `_boundary`, evaluates phi1's formula on one row, or on phi's
stack of (theta2, theta1) rows, each with its side's constants, so one
affine map, Chebyshev evaluation and special-point test serve both terms.
Every public evaluator is its cut refusal and one `_points._evaluate`
of its array-level function, which splits a large array into blocks
over threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import kernel
from ._points import _evaluate, _raise_if_on_cut
from .chebyshev import _cheb_T, _cheb_T_deriv, _order
from .errors import AtPoleError, AtZeroError, OnKernelCurveError
from .model import DerivedScalars, ModelParams

__all__ = [
    "TransformBundle",
    "make_bundle",
    "w_eval",
    "phi1_eval",
    "phi2_eval",
    "phi_eval",
    "psi1_eval",
    "psi2_eval",
]

# below this radius the removable origin is evaluated by its closed limit
_ORIGIN_RADIUS = 1e-8
_ORIGIN = np.zeros(1, dtype=complex)
# pole report thresholds: w-difference collapse at a not-small argument
_POLE_REL = 1e-12
_POLE_MIN_ABS = 1e-6
# refusal of a real-typed point beyond the branch point, per argument
_CUT = {
    name: f"real {name} > {{edge}} lies on the cut; pass {name} +/- 0j to pick a side"
    for name in ("theta1", "theta2")
}


@dataclass(frozen=True)
class TransformBundle:
    """Evaluator state for one model, built from the model alone;
    `make_bundle` is this constructor, kept under its old name.

    order is the model's pi/beta and fraction its one reading as p/q
    (`chebyshev._order`), made on first use, once per model: `swapped`
    passes it on, as the swap leaves beta unchanged.  integer_order, its
    q = 1 case, sends the gluing map down the polynomial path.
    w1_prime0 / w1_at_0 belong to the theta2-side gluing map and come
    from that same path; the index-swapped side's constants live on
    `swapped`.  phi1_at_0 = -mu1 and phi2_at_0 = -mu2 are the boundary
    masses.  Immutable; evaluators are pure functions of (bundle, point).
    """

    params: ModelParams

    @property
    def scalars(self) -> DerivedScalars:
        return self.params.scalars

    @cached_property
    def order(self) -> float:
        return self.scalars.pi_over_beta

    @cached_property
    def fraction(self) -> tuple[int, int, float] | None:
        return _order(self.order)[1]

    @cached_property
    def integer_order(self) -> bool:
        return self.fraction is not None and self.fraction[1] == 1

    @property
    def phi1_at_0(self) -> float:
        return -self.params.m1

    @property
    def phi2_at_0(self) -> float:
        return -self.params.m2

    @cached_property
    def w1_at_0(self) -> float:
        return float(_w(self, _ORIGIN).real[0])

    @cached_property
    def w1_prime0(self) -> float:
        return float(_w_deriv(self, _ORIGIN).real[0])

    @cached_property
    def swapped(self) -> "TransformBundle":
        # the swap leaves beta, and pi/beta to the bit, unchanged: the
        # reading as p/q (and a snap's log line) is made once per model
        other = TransformBundle(self.params.swapped)
        other.__dict__["fraction"] = self.fraction
        return other

    @cached_property
    def _row(self) -> tuple:
        """`_boundary`'s constants for this side: `_map`'s, w(0),
        _POLE_REL |w'(0)|, -mu1 w'(0) and the boundary mass, as (1,) arrays."""
        return tuple(np.array([v]) for v in (
            *_map(self.scalars), complex(self.w1_at_0), _POLE_REL * abs(self.w1_prime0),
            complex(-self.params.m1 * self.w1_prime0), complex(self.phi1_at_0),
        ))

    @cached_property
    def _pair(self) -> tuple:
        """`_row` over `swapped._row`, as (2, 1) columns: phi's stack."""
        return tuple(map(np.stack, zip(self._row, self.swapped._row)))


make_bundle = TransformBundle


def _map(sc: DerivedScalars) -> tuple[float, float, float]:
    """`_affine`'s constants: the centre theta2_plus + theta2_minus, the
    negated spread and the slope -2 / spread."""
    spread = sc.theta2_plus - sc.theta2_minus
    return sc.theta2_plus + sc.theta2_minus, -spread, -2.0 / spread


def _affine(centre, nspread, slope, arr: np.ndarray) -> np.ndarray:
    """Map [theta2_minus, theta2_plus] onto [1, -1] with `_map`'s constants
    (or columns of them, one row per side).  The parts are mapped as real
    floats: a complex product would mix in +0.0 terms and erase the signed
    zero that picks a side of the cut (the negative slope flips the side)."""
    out = np.empty_like(arr)
    out.real = (arr.real + arr.real - centre) / nspread
    out.imag = arr.imag * slope
    return out


def _w(b: TransformBundle, arr: np.ndarray) -> np.ndarray:
    return _cheb_T(b.order, b.integer_order, _affine(*_map(b.scalars), arr))


def _w_deriv(b: TransformBundle, arr: np.ndarray) -> np.ndarray:
    """Derivative of the gluing map (chain rule through the affine map)."""
    centre, nspread, slope = _map(b.scalars)
    x = _affine(centre, nspread, slope, arr)
    return slope * _cheb_T_deriv(b.order, b.integer_order, x)


def w_eval(b: TransformBundle, theta2):
    """Conformal gluing map at theta2 (cut plane, cut on (theta2_plus, inf))."""
    _raise_if_on_cut(theta2, np.greater, b.scalars.theta2_plus, _CUT["theta2"])
    return _evaluate(partial(_w, b), theta2)


def _boundary(b: TransformBundle, pair: bool, z: np.ndarray, r=None, zero=None):
    """phi1 on z, or with pair phi1 and phi2 on phi's stack of theta2's row
    over theta1's, with r = |z|; returns (values, origin).

    One count finds every special point: a pole, a point within the
    origin radius and, for phi, a kernel zero (`zero`, one per column).
    Only then does the masked path run.  It refuses a kernel zero off
    phi's origin before the first pole in array order.  origin marks the
    columns whose rows are all within 1e-12 of 0; it is None on the fast
    path and without `zero`.
    """
    centre, nspread, slope, w0, tol, coef, mass = b._pair if pair else b._row
    r = np.abs(z) if r is None else r
    x = _affine(centre, nspread, slope, z)
    den = _cheb_T(b.order, b.integer_order, x) - w0
    near = np.abs(den) < tol * r
    special = near | (r < _ORIGIN_RADIUS)
    if zero is not None:
        special |= zero
    if not np.count_nonzero(special):
        return np.divide(np.multiply(coef, z), den), None
    origin = None if zero is None else (r < 1e-12).all(axis=0)
    if origin is not None and (zero & ~origin).any():
        raise OnKernelCurveError("gamma vanishes here: phi is 0/0 on the kernel zero set")
    pole = near & (r > _POLE_MIN_ABS)
    if pole.any():
        raise AtPoleError(location=complex(z[pole][0]), order=1)
    small = r < _ORIGIN_RADIUS
    den[small] = 1.0
    out = np.divide(np.multiply(coef, z), den)
    out[small] = np.broadcast_to(mass, z.shape)[small]
    return out, origin


def _phi1(b: TransformBundle, z: np.ndarray) -> np.ndarray:
    return _boundary(b, False, z)[0]


def _psi(b: TransformBundle, z: np.ndarray) -> np.ndarray:
    if np.count_nonzero(z == 0):
        raise AtZeroError("psi1 and psi2 have their pole at 0")
    return np.divide(_phi1(b, z), z)


def _side(b: TransformBundle, theta, name: str, fn):
    """fn (`_phi1` or `_psi`) of b at theta: the one path of phi1, phi2,
    psi1 and psi2.  A real-typed theta beyond b's theta2_plus is refused
    in the words of `name`, the public argument."""
    _raise_if_on_cut(theta, np.greater, b.scalars.theta2_plus, _CUT[name])
    return _evaluate(partial(fn, b), theta)


def phi1_eval(b: TransformBundle, theta2):
    """Transform of the first boundary measure, continued to the cut plane.

    The removable origin returns its limit -mu1.  A genuine pole
    (w(theta2) = w(0) away from 0) raises AtPoleError carrying the
    location; order is always 1 by injectivity of the gluing map.
    """
    return _side(b, theta2, "theta2", _phi1)


def phi2_eval(b: TransformBundle, theta1):
    """Transform of the second boundary measure: phi1 of `swapped`,
    continued to the plane cut along (theta1_plus, inf)."""
    return _side(b.swapped, theta1, "theta1", _phi1)


def psi1_eval(b: TransformBundle, theta2):
    """phi1(theta2)/theta2: simple pole at 0 with residue -mu1."""
    return _side(b, theta2, "theta2", _psi)


def psi2_eval(b: TransformBundle, theta1):
    """psi1 of `swapped`: phi2(theta1)/theta1, simple pole at 0 with residue -mu2."""
    return _side(b.swapped, theta1, "theta1", _psi)


def _phi(b: TransformBundle, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """phi at the points (t1, t2), through their stack of rows (theta2, theta1)."""
    p = b.params
    z = np.array((t2, t1))
    r = np.abs(z)
    g = kernel._gamma(p, z[1], z[0])
    zero = np.abs(g) <= 1e-12 * kernel._zero_scale(p, r[1], r[0])
    vals, origin = _boundary(b, True, z, r, zero)
    # rows theta1 phi1(theta2) and theta2 phi2(theta1)
    terms = np.multiply(z[::-1], vals)
    num = -(terms[0] + terms[1])
    if origin is not None:
        # gamma vanishes at the origin too: 1/1 there gives its limit 1
        num[origin] = g[origin] = 1.0
    return np.divide(num, g)


def phi_eval(b: TransformBundle, theta1, theta2):
    """Bivariate transform via the kernel identity.

    Off the kernel zero set:
        phi = -(theta1 phi1(theta2) + theta2 phi2(theta1)) / gamma.
    On it the expression is 0/0 and OnKernelCurveError is raised, for a
    scalar point or an array holding one (phi has a pole there unless
    grad N = -phi grad gamma fixes a limit for the numerator N).  The
    origin, where gamma vanishes too, returns its limit 1 (total mass).
    """
    _raise_if_on_cut(theta2, np.greater, b.scalars.theta2_plus, _CUT["theta2"])
    _raise_if_on_cut(theta1, np.greater, b.scalars.theta1_plus, _CUT["theta1"])
    return _evaluate(partial(_phi, b), theta1, theta2)
