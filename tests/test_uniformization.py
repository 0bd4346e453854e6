import cmath
import math

import numpy as np
import pytest

from conftest import random_ergodic
from rbmq import make_bundle, phi2_eval, validate_parameters
from rbmq.asymptotics import classify_regime
from rbmq.chebyshev import _order
from rbmq.checks import (
    cone_points,
    kernel_zero_residual,
    lift_residual,
    reflection_residual,
    two_sheet_residual,
)
from rbmq.errors import AtZeroOrInfinityError, OnLogCutError
from rbmq.uniformization import (
    W_of_s,
    classify_solution_nature,
    group_elements,
    group_order,
    theta_of_s,
)


def s0(b) -> complex:
    """The unit-circle point over (0, 0): of the two roots of
    theta1(s) = 0, the one that also kills theta2."""
    sc = b.scalars
    # s + 1/s = q with |q| < 2 since theta1_minus < 0 < theta1_plus
    q = -2.0 * (sc.theta1_plus + sc.theta1_minus) / (sc.theta1_plus - sc.theta1_minus)
    root = cmath.sqrt(complex(q * q - 4.0))
    return min(((q + root) / 2.0, (q - root) / 2.0), key=lambda c: abs(theta_of_s(b, c)[1]))


def test_branch_points_at_unit_circle_marks(corr):
    b = make_bundle(corr)
    sc = b.scalars
    t1, _ = theta_of_s(b, 1.0)
    assert t1 == pytest.approx(sc.theta1_plus, rel=1e-14)
    t1, _ = theta_of_s(b, -1.0)
    assert t1 == pytest.approx(sc.theta1_minus, rel=1e-14)
    _, t2 = theta_of_s(b, cmath.exp(1j * sc.beta))
    assert t2 == pytest.approx(sc.theta2_plus, rel=1e-13)
    _, t2 = theta_of_s(b, -cmath.exp(1j * sc.beta))
    assert t2 == pytest.approx(sc.theta2_minus, rel=1e-13)


def test_origin_lift_diag(diag):
    b = make_bundle(diag)
    t1, t2 = theta_of_s(b, cmath.exp(-3j * np.pi / 4))
    assert abs(t1) < 1e-14 and abs(t2) < 1e-14
    assert s0(b) == pytest.approx(cmath.exp(-3j * np.pi / 4), rel=1e-12)


def test_s0_properties_random_models():
    rng = np.random.default_rng(0)
    for _ in range(15):
        p = random_ergodic(rng)
        b = make_bundle(p)
        pt = s0(b)
        assert abs(abs(pt) - 1.0) < 1e-12
        assert pt.imag < 0  # lower arc (interior-domain lift)
        t1, t2 = theta_of_s(b, pt)
        assert abs(t1) + abs(t2) < 1e-10 * (1 + p.scale)
        # the mirror point lies over the pole of the first transform
        _, t2m = theta_of_s(b, 1.0 / pt)
        assert t2m.real == pytest.approx(-2 * p.m2 / p.s22, rel=1e-10)
        assert abs(t2m.imag) < 1e-10


def test_pole_lift_diag(diag):
    b = make_bundle(diag)
    _, t2 = theta_of_s(b, 1.0 / s0(b))
    assert t2 == pytest.approx(2.0, rel=1e-13)


def test_zero_set_sweep(corr):
    b = make_bundle(corr)
    rng = np.random.default_rng(1)
    s = rng.uniform(0.05, 20, 10_000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 10_000))
    assert kernel_zero_residual(corr, *theta_of_s(b, s)) <= 1e-10


def test_two_sheet_identities(corr):
    b = make_bundle(corr)
    rng = np.random.default_rng(2)
    s = rng.uniform(0.1, 10, 500) * np.exp(1j * rng.uniform(-np.pi, np.pi, 500))
    assert two_sheet_residual(b, s, *theta_of_s(b, s)) < 1e-12


def test_unit_circle_gives_real_points(corr):
    b = make_bundle(corr)
    ang = np.linspace(-np.pi + 1e-6, np.pi - 1e-6, 300)
    t1, t2 = theta_of_s(b, np.exp(1j * ang))
    assert np.max(np.abs(t1.imag)) < 1e-12
    assert np.max(np.abs(t2.imag)) < 1e-12


def test_W_values_and_cut(diag, corr):
    b = make_bundle(diag)
    assert W_of_s(b, -1.0) == pytest.approx(-1.0, rel=1e-14)
    with pytest.raises(OnLogCutError):
        W_of_s(b, 2.0)
    # s +/- 0j picks a side of the cut (non-integer order): conjugate values
    upper, lower = (W_of_s(make_bundle(corr), complex(0.5, im)) for im in (0.0, -0.0))
    assert upper != lower and lower == upper.conjugate() and abs(upper.imag) > 0.1
    with pytest.raises(AtZeroOrInfinityError):
        theta_of_s(b, 0.0)


def test_W_reflection_identities(corr):
    b = make_bundle(corr)
    assert reflection_residual(b, np.geomspace(1e-2, 100, 100)) < 1e-12


def test_W_equation_solving_family(corr):
    # W(s) = W(t) exactly on s = t^{+-1} e^{2ik beta} while the rotated
    # argument stays off the logarithm cut without wrapping
    b = make_bundle(corr)
    beta = b.scalars.beta
    a = b.scalars.pi_over_beta
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(400):
        rho = np.exp(rng.uniform(-1.5, 1.5))
        phi = np.pi + rng.uniform(1e-3, beta - 1e-3)
        t = rho * np.exp(1j * phi)
        wt = W_of_s(b, t)
        assert W_of_s(b, 1.0 / t) == pytest.approx(wt, rel=1e-12)
        for k in (-1, 1):
            base = cmath.phase(-t)
            if -np.pi < base + 2 * k * beta <= np.pi:
                assert W_of_s(b, t * cmath.exp(2j * k * beta)) == pytest.approx(
                    wt, rel=1e-10
                ), (t, k, a)
                checked += 1
    assert checked > 50


def test_lifted_gluing_matches_w(corr, regime2):
    for p in (corr, regime2):
        b = make_bundle(p)
        rng = np.random.default_rng(4)
        assert lift_residual(b, cone_points(b, 300, rng)) < 1e-12


def test_group_elements_are_involutions(corr):
    b = make_bundle(corr)
    rng = np.random.default_rng(5)
    s = rng.uniform(0.1, 5, 100) * np.exp(1j * rng.uniform(-np.pi, np.pi, 100))
    zeta, eta = group_elements(b, s)
    zz, _ = group_elements(b, zeta)
    _, ee = group_elements(b, eta)
    assert np.max(np.abs(zz - s)) < 1e-12 * np.max(1 + np.abs(s))
    assert np.max(np.abs(ee - s)) < 1e-12 * np.max(1 + np.abs(s))
    # generators fix their coordinate
    assert two_sheet_residual(b, s, *theta_of_s(b, s)) < 1e-12


def test_group_orders(diag, beta_third, regime2, corr):
    assert group_order(make_bundle(diag)).order == 4
    rep = group_order(make_bundle(beta_third))
    assert rep.finite and rep.order == 6 and (rep.p, rep.q) == (3, 1)
    rep = group_order(make_bundle(regime2))  # pi/beta = 3/2
    assert rep.finite and rep.order == 6 and (rep.p, rep.q) == (3, 2)
    rep = group_order(make_bundle(corr))
    assert not rep.finite
    assert rep.order is None
    assert "infinite within bound 1000000" in rep.note


@pytest.mark.parametrize("eps", [0.0, 1e-13, -1e-13, 5e-13, 2e-12, -3e-12])
def test_detect_rational_near_fractions(eps):
    """p/q + eps for p, q <= 59 reads as p/q in lowest terms when
    |eps| < 1e-12 / q^2 with room for rounding, and as no fraction when
    |eps| is well above it."""
    for q in range(1, 60):
        for p in range(1, 60):
            g = math.gcd(p, q)
            bound = 1e-12 / (q // g) ** 2
            hit = _order(p / q + eps)[1]
            if abs(eps) < 0.5 * bound:
                assert hit[:2] == (p // g, q // g) and hit[2] < bound
            elif abs(eps) > 2.0 * bound:
                assert hit is None


@pytest.mark.parametrize("model", ["corr", "regime1"])  # pole; saddle, which reads w's expansion
def test_one_reading_of_the_order_per_bundle(model, request, monkeypatch):
    """A bundle reads pi/beta as p/q once, on first use; group_order,
    classify_solution_nature, classify_regime and the swapped side read
    that result."""
    from fractions import Fraction

    calls = []
    limit = Fraction.limit_denominator

    def counted(self, *args):
        calls.append(self)
        return limit(self, *args)

    monkeypatch.setattr(Fraction, "limit_denominator", counted)
    b = make_bundle(request.getfixturevalue(model))
    group_order(b)
    classify_solution_nature(b)
    classify_regime(b)
    phi2_eval(b, -0.5)
    assert len(calls) == 1


def test_solution_nature(diag, beta_third, regime2, corr):
    assert classify_solution_nature(make_bundle(diag)) == "rational_polynomial"
    assert classify_solution_nature(make_bundle(beta_third)) == "rational_polynomial"
    assert classify_solution_nature(make_bundle(regime2)) == "algebraic_nonpolynomial"
    assert classify_solution_nature(make_bundle(corr)) == "transcendental_D_finite"
    # pi/beta = 3 - 3.3e-13 is snapped to 3; 3 - 3.3e-11 is not
    cases = ((-0.5 + 1e-13, "rational_polynomial"), (-0.5 + 1e-11, "transcendental_D_finite"))
    for rho, nature in cases:
        p = validate_parameters([[1.0, rho], [rho, 1.0]], [-1.0, -1.0])
        assert classify_solution_nature(make_bundle(p)) == nature
