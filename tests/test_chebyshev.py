import cmath
import math

import numpy as np
import pytest

from conftest import cheb_T_deriv, float_property
from rbmq import make_bundle, validate_parameters
from rbmq.chebyshev import _expansion, _order, cheb_T, is_integer_order
from rbmq.errors import AtBranchPointError, OnCutError, ValidationError
from rbmq.uniformization import classify_solution_nature, group_order


def test_endpoint_values():
    for a in (0.3, 1.0, 1.7, 2.5, np.pi):
        assert cheb_T(a, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert cheb_T(a, -1.0) == pytest.approx(np.cos(a * np.pi), abs=1e-14)


@pytest.mark.parametrize(
    "call, order",
    [
        (lambda: cheb_T("a", 0.5), "'a'"),
        (lambda: cheb_T(-1, 0.5), "-1"),
        (lambda: is_integer_order(-1), "-1"),
    ],
    ids=["text", "negative", "is_integer_negative"],
)
def test_bad_order_is_a_validation_error(call, order):
    message = f"^order must be a finite non-negative real, got {order}$"
    with pytest.raises(ValidationError, match=message):
        call()


def test_order_two_is_classical_polynomial():
    rng = np.random.default_rng(0)
    z = rng.uniform(-5, 5, 200) + 1j * rng.uniform(-5, 5, 200)
    assert np.max(np.abs(cheb_T(2, z) - (2 * z * z - 1))) < 1e-12 * np.max(1 + np.abs(z) ** 2)


def test_integer_recurrence():
    rng = np.random.default_rng(1)
    z = rng.uniform(-3, 3, 50) + 1j * rng.uniform(-3, 3, 50)
    t = {n: cheb_T(n, z) for n in range(9)}
    for n in range(1, 8):
        scale = np.max(1 + np.abs(t[n + 1]))
        assert np.max(np.abs(t[n + 1] - (2 * z * t[n] - t[n - 1]))) < 1e-10 * scale


def test_composition_law():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        a = rng.uniform(0, 6)
        t = rng.uniform(0, np.pi)
        assert cheb_T(a, np.cos(t)) == pytest.approx(np.cos(a * t), abs=1e-12)


@float_property(a=(0.0, 6.0), t=(0.0, np.pi))
def test_composition_law_property(a, t):
    # the reference is taken at the rounded input: near t = pi, T_a' is
    # large, and cos(a t) would measure the rounding of cos t instead
    x = np.cos(t)
    assert abs(cheb_T(a, x) - np.cos(a * np.arccos(x))) < 1e-11


def test_bounded_on_interval():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 500)
    for a in (0.7, 2.0, 3.4):
        assert np.max(np.abs(cheb_T(a, x))) <= 1.0 + 1e-12


def test_trig_and_algebraic_routes_agree_off_interval():
    # analytic continuation of the cosine route is the oracle here
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = rng.uniform(0.2, 4.5)
        t = rng.uniform(-0.95, 0.95)
        for side in (1e-8j, -1e-8j):
            z = t + side
            trig = cmath.cos(a * cmath.acos(z))
            assert abs(cheb_T(a, z) - trig) < 1e-10


def test_cut_refusal_and_sided_limits():
    with pytest.raises(OnCutError):
        cheb_T(1.5, -2.0)
    with pytest.raises(OnCutError):
        cheb_T(1.5, np.array([-3.0, 0.0]))
    up = cheb_T(1.5, complex(-2.0, 0.0))
    dn = cheb_T(1.5, complex(-2.0, -0.0))
    assert up == pytest.approx(dn.conjugate(), rel=1e-14)
    assert abs(up.imag) > 0.1  # genuinely two-sided
    # integer orders are entire: no refusal
    assert cheb_T(3, -2.0) == pytest.approx(-26.0)


def test_large_argument_stability():
    a = 2.5
    z = 1e8 + 0j
    v = cheb_T(a, z)
    # dominant-root asymptotics: T_a(x) ~ (2x)^a / 2
    assert abs(v) == pytest.approx(0.5 * (2e8) ** a, rel=1e-10)


def test_derivative_polynomial_and_trig():
    rng = np.random.default_rng(5)
    z = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-1, 1, 50)
    assert np.max(np.abs(cheb_T_deriv(2, z) - 4 * z)) < 1e-12 * np.max(1 + np.abs(z))
    for a in (0.8, 1.9, 3.1):
        assert cheb_T_deriv(a, 0.0) == pytest.approx(a * np.sin(a * np.pi / 2), abs=1e-13)


def test_derivative_matches_central_differences():
    h = 1e-6
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rng.uniform(0.2, 4.0)
        fd = (cheb_T(a, 0.3 + h) - cheb_T(a, 0.3 - h)) / (2 * h)
        assert cheb_T_deriv(a, 0.3) == pytest.approx(fd, abs=1e-8)
    # and off the real interval
    z = 1.4 + 0.6j
    a = 2.7
    fd = (cheb_T(a, z + h) - cheb_T(a, z - h)) / (2 * h)
    assert cheb_T_deriv(a, z) == pytest.approx(fd, abs=1e-8)


def test_derivative_branch_point_refusal():
    with pytest.raises(AtBranchPointError):
        cheb_T_deriv(1.5, 1.0)
    with pytest.raises(AtBranchPointError):
        cheb_T_deriv(0.7, -1.0)
    assert cheb_T_deriv(3, 1.0) == pytest.approx(9.0)  # n^2 at x=1


def test_expansion_coefficients():
    c0, c1 = _expansion(0.5)
    assert c0 == pytest.approx(0.0, abs=1e-16)
    assert c1 == pytest.approx(np.sqrt(2) / 2, rel=1e-14)
    c0, c1 = _expansion(1.5)
    assert c0 == pytest.approx(0.0, abs=1e-15)
    assert c1 == pytest.approx(-1.5 * np.sqrt(2), rel=1e-14)


def test_expansion_is_empirically_first_order():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0.2, 3.8)
        if is_integer_order(a):
            continue
        c0, c1 = _expansion(a)
        eps = np.geomspace(1e-8, 1e-3, 12)
        vals = np.array([complex(cheb_T(a, -1.0 + e)).real for e in eps])
        rem = np.abs(vals - c0 - c1 * np.sqrt(eps))
        # remainder O(eps): bounded by C*eps with a modest constant
        assert np.all(rem <= 50 * (1 + abs(a) ** 2) * eps)


def test_classify_nature():
    # the nature of T_a is decided on the model whose order pi/beta is a:
    # rho = -cos(pi/a) on a unit-diagonal covariance gives beta = pi/a
    cases = (
        (2, "rational_polynomial"),
        (1.5, "algebraic_nonpolynomial"),
        (np.pi, "transcendental_D_finite"),
        (2.0 + 1e-14, "rational_polynomial"),  # snapped, logged
    )
    for a, nature in cases:
        rho = -np.cos(np.pi / a)
        b = make_bundle(validate_parameters([[1.0, rho], [rho, 1.0]], [-1.0, -1.0]))
        assert b.order == pytest.approx(a, abs=1e-12)
        assert b.integer_order == (nature == "rational_polynomial")
        # one reading of the order: the snapped 2 + 1e-14 reads as q = 1 too
        assert b.integer_order == (group_order(b).q == 1) == is_integer_order(b.order)
        assert classify_solution_nature(b) == nature


def test_integer_reading_edges():
    """An order reads as the integer n exactly when it lies within 1e-12
    of n: the last float inside on each side does, the next one out does
    not.  n +/- 9.9e-13 keeps that distance below 513 (from 512 it rounds
    to 1.02e-12), and n +/- 1.01e-12 never reads as n."""
    for n in range(1, 701):
        assert is_integer_order(n) and _order(n) == (n, (n, 1, 0.0), True)
        for toward in (np.inf, -np.inf):
            x = n + np.copysign(1e-12, toward)
            while abs(x - n) >= 1e-12:
                x = np.nextafter(x, n)
            out = np.nextafter(x, toward)
            assert is_integer_order(x) and _order(x)[1][:2] == (n, 1)
            assert not is_integer_order(out) and _order(out)[1] is None
            assert not is_integer_order(n + np.copysign(1.01e-12, toward))
            if n < 512:
                assert is_integer_order(n + np.copysign(9.9e-13, toward))


def test_fraction_reading_near_small_denominators():
    """p/q +/- 1e-13 reads as p/q for q <= 3, inside the width
    1e-12 / q^2, and p/q +/- 3e-13 is outside it (orders below 16, where
    rounding moves the offset by under 4e-15)."""
    for q in (2, 3):
        for p in range(q + 1, 16 * q):
            if math.gcd(p, q) == 1:
                for eps in (1e-13, -1e-13):
                    hit = _order(p / q + eps)[1]
                    assert hit[:2] == (p, q) and 0 < hit[2] < 1e-12 / q**2
                    assert not is_integer_order(p / q + eps)
                    assert _order(p / q + 3 * eps)[1] is None


def cheb_T_hyp2f1(a, x) -> complex:
    """Reference route independent of the power-mean evaluation:
    T_a(x) = 2F1(-a, a; 1/2; (1 - x)/2), in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    z = mpmath.mpmathify(complex(x))
    return complex(mpmath.hyp2f1(-a, a, mpmath.mpf(1) / 2, (1 - z) / 2))


def test_hypergeometric_cross_check():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.uniform(0.3, 3.5)
        x = rng.uniform(-0.9, 3.0)
        assert cheb_T(a, complex(x)) == pytest.approx(cheb_T_hyp2f1(a, x), abs=1e-10)


def test_mpmath_reference_on_the_cut_plane():
    """T_a and T_a' at a = 1.37 against 40-digit cosh(a L) and
    a sinh(a L)/sinh(L), L = acosh z: the box, the neighbourhoods of both
    branch points, the interval (up to 1e-15 from its ends) and both
    sides of the cut."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    a = 1.37
    am = mpmath.mpf(a)

    def reference(z):
        ell = mpmath.acosh(mpmath.mpc(z))
        return complex(mpmath.cosh(am * ell)), complex(am * mpmath.sinh(am * ell) / mpmath.sinh(ell))

    rng = np.random.default_rng(9)
    n = 100
    noise = 1e-6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    upper = -1.0 - rng.exponential(2.0, n) + 0j
    gap = 10.0 ** rng.uniform(-15, -1, n)
    interval = np.concatenate([rng.uniform(-1, 1, n), 1.0 - gap, gap - 1.0]) + 0j
    regions = {
        "box": rng.uniform(-5, 5, n) + 1j * rng.uniform(-5, 5, n),
        "near +1": 1.0 + noise,
        "near -1": -1.0 + noise,
        "interval": interval,
        "cut, upper side": upper,
    }
    refs = {name: np.array([reference(v) for v in z]) for name, z in regions.items()}
    # mpmath has no signed zero and takes the upper side of the cut; the
    # lower side is the conjugate by symmetry
    regions["cut, lower side"] = upper.conj()
    refs["cut, lower side"] = refs["cut, upper side"].conj()
    for name, z in regions.items():
        ref = refs[name]
        for got, want, what in ((cheb_T(a, z), ref[:, 0], "T"), (cheb_T_deriv(a, z), ref[:, 1], "T'")):
            err = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))
            assert err < 1e-14, (name, what, err)

    # on (-1, 1) the two signed zeros give the same real value
    x = rng.uniform(-1, 1, n)
    above = cheb_T(a, x + 0j)
    below = cheb_T(a, x.astype(complex).conj())
    assert above.real.tobytes() == below.real.tobytes()
    assert np.all(above.imag == 0) and np.all(below.imag == 0)
