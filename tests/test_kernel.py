import numpy as np
import pytest

from conftest import random_ergodic
from rbmq import derived_scalars
from rbmq.checks import branch_root_residual, conjugacy_residual, vieta_residual
from rbmq.kernel import (
    _disc_d,
    gamma,
    hyperbola,
    theta1_at_branch_point,
    theta2_branch,
)

SQRT2 = np.sqrt(2.0)


def test_gamma_values(diag):
    assert gamma(diag, 0.0, 0.0) == 0.0
    assert gamma(diag, 0.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert gamma(diag, 1.0, 1.0) == pytest.approx(-1.0, rel=1e-15)


def test_discriminants_diag(diag):
    # d_tilde(t2) = -t2^2 + 2 t2 + 1 for the unit diagonal model
    for t2 in (-1.0, 0.0, 0.7, 2.0):
        assert _disc_d(diag.swapped, t2) == pytest.approx(-t2 * t2 + 2 * t2 + 1, rel=1e-14)
    assert _disc_d(diag.swapped, 1 + SQRT2) == pytest.approx(0.0, abs=1e-13)
    assert _disc_d(diag.swapped, 1 - SQRT2) == pytest.approx(0.0, abs=1e-13)
    assert _disc_d(diag, 0.0) == pytest.approx(1.0)  # mu2^2


def test_disc_vanishes_at_branch_points(corr):
    sc = derived_scalars(corr)
    assert abs(_disc_d(corr, sc.theta1_minus)) < 1e-12 * corr.scale
    assert abs(_disc_d(corr, sc.theta1_plus)) < 1e-12 * corr.scale


def test_branches_diag(diag):
    assert theta2_branch(diag, 0.0, "plus") == pytest.approx(2.0)
    assert theta2_branch(diag, 0.0, "minus") == pytest.approx(0.0, abs=1e-15)
    # coinciding value at the branch point
    sc = derived_scalars(diag)
    both = [theta2_branch(diag, sc.theta1_plus, s) for s in ("plus", "minus")]
    merged = -(diag.s12 * sc.theta1_plus + diag.m2) / diag.s22  # -b / (2a)
    assert both[0] == pytest.approx(both[1], abs=1e-7)
    assert both[0] == pytest.approx(merged, abs=1e-7)
    # conjugate pair with unit real part left of theta1_minus
    v = theta2_branch(diag, -1.0, "plus")
    assert v == pytest.approx(1 + 1j * SQRT2, rel=1e-14)
    assert theta2_branch(diag, -1.0, "minus") == pytest.approx(1 - 1j * SQRT2, rel=1e-14)


def test_branch_roots_random_complex(corr):
    rng = np.random.default_rng(2)
    pts = rng.uniform(-4, 4, 10_000) + 1j * rng.uniform(-4, 4, 10_000)
    assert branch_root_residual(corr, pts) <= 1e-10


def test_conjugacy_and_vieta_on_curve(corr):
    sc = derived_scalars(corr)
    t1 = sc.theta1_minus - np.geomspace(1e-3, 50, 200)
    plus, minus = (theta2_branch(corr, t1, sign) for sign in ("plus", "minus"))
    assert conjugacy_residual(corr, plus, minus) < 1e-10
    assert vieta_residual(corr, t1, plus, minus) < 1e-10


def test_theta1_at_branch_point_diag(diag):
    assert theta1_at_branch_point(diag) == pytest.approx(1.0)  # -mu1/s11


def test_theta1_at_branch_point_diagonal_family():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = random_ergodic(rng, diagonal=True)
        assert theta1_at_branch_point(p) == pytest.approx(-p.m1 / p.s11, rel=1e-12)
        assert theta1_at_branch_point(p) > 0


def test_theta1_at_branch_point_negative_case(regime1):
    # oracle route: solve the discriminant quadratic independently
    c2 = regime1.s12**2 - regime1.s11 * regime1.s22
    c1 = 2 * (regime1.m1 * regime1.s12 - regime1.m2 * regime1.s11)
    c0 = regime1.m1**2
    theta2_plus = max(np.roots([c2, c1, c0]))
    expected = -(regime1.s12 * theta2_plus + regime1.m1) / regime1.s11
    got = theta1_at_branch_point(regime1)
    assert got == pytest.approx(expected, rel=1e-10)
    assert got < 0


def test_hyperbola_degenerate_line(diag):
    h = hyperbola(diag)
    assert h.degenerate
    assert h.apex == pytest.approx(1.0)
    assert h.residual(1.0 + 17.3j) < 1e-12
    assert h.residual(2.0 + 3j) > 0.1


def _residual_loop(h, z):
    """Scalar reference for the vectorised HyperbolaR.residual."""
    x, y = z.real, z.imag
    terms = (h.cx2 * x * x, h.cy2 * y * y, h.cx * x, -h.rhs)
    return abs(sum(terms)) / (max(abs(t) for t in terms) + 1e-300)


def test_hyperbola_parametric_membership(corr, corr_neg):
    for p in (corr, corr_neg):
        sc = derived_scalars(p)
        h = hyperbola(p)
        assert not h.degenerate
        t1 = sc.theta1_minus - np.geomspace(1e-4, 30, 100)
        curve = theta2_branch(p, t1, "plus")
        res = h.residual(curve)
        assert np.max(res) < 1e-10
        assert [_residual_loop(h, z) for z in curve] == list(res)
        assert h.residual(curve[7]) == res[7]
        assert h.residual(curve + 0.05).min() > 1e-6  # off the curve
        assert h.residual(h.apex) < 1e-12
        assert h.apex > 0
