import numpy as np
import pytest

from conftest import random_ergodic
from rbmq import derived_scalars, validate_parameters
from rbmq.checks import branch_root_residual, conjugacy_residual, vieta_residual
from rbmq.errors import NotOnCurveError, ZeroDenominatorError
from rbmq.kernel import (
    G_ratio,
    contains_G_R,
    disc_d,
    disc_d_tilde,
    g_ratio_factors,
    gamma,
    gamma1,
    gamma2,
    hyperbola,
    theta1_at_branch_point,
    theta2_branch,
)
from rbmq.model import ModelParams

SQRT2 = np.sqrt(2.0)


def test_gamma_values(diag):
    assert gamma(diag, 0.0, 0.0) == 0.0
    assert gamma1(diag, 0.0, 0.0) == 0.0
    assert gamma2(diag, 0.0, 0.0) == 0.0
    assert gamma(diag, 0.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert gamma(diag, 1.0, 1.0) == pytest.approx(-1.0, rel=1e-15)


def test_gamma_boundary_forms_general_r():
    p = validate_parameters([[1, 0], [0, 1]], [-1, -1], r=[[1.0, 0.25], [0.5, 2.0]])
    # columns of r are the push directions
    assert gamma1(p, 2.0, 3.0) == pytest.approx(1.0 * 2 + 0.5 * 3)
    assert gamma2(p, 2.0, 3.0) == pytest.approx(0.25 * 2 + 2.0 * 3)


def test_discriminants_diag(diag):
    # d_tilde(t2) = -t2^2 + 2 t2 + 1 for the unit diagonal model
    for t2 in (-1.0, 0.0, 0.7, 2.0):
        assert disc_d_tilde(diag, t2) == pytest.approx(-t2 * t2 + 2 * t2 + 1, rel=1e-14)
    assert disc_d_tilde(diag, 1 + SQRT2) == pytest.approx(0.0, abs=1e-13)
    assert disc_d_tilde(diag, 1 - SQRT2) == pytest.approx(0.0, abs=1e-13)
    assert disc_d(diag, 0.0) == pytest.approx(1.0)  # mu2^2


def test_disc_vanishes_at_branch_points(corr):
    sc = derived_scalars(corr)
    assert abs(disc_d(corr, sc.theta1_minus)) < 1e-12 * corr.scale
    assert abs(disc_d(corr, sc.theta1_plus)) < 1e-12 * corr.scale


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
    assert conjugacy_residual(corr, t1) < 1e-10
    assert vieta_residual(corr, t1) < 1e-10


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
    assert contains_G_R(diag, 0.0)
    assert contains_G_R(diag, 0.99 + 5j)
    assert not contains_G_R(diag, 2.0)
    assert not contains_G_R(diag, 1.0 + 3j)  # on the curve: open domain
    assert h.on_curve(1.0 + 0.5j)
    assert h.residual(1.0 + 17.3j) < 1e-12


def test_hyperbola_parametric_membership(corr, corr_neg):
    for p in (corr, corr_neg):
        sc = derived_scalars(p)
        h = hyperbola(p)
        assert not h.degenerate
        t1 = sc.theta1_minus - np.geomspace(1e-4, 30, 100)
        on_curve = theta2_branch(p, t1, "plus")
        for z in on_curve:
            assert h.residual(z) < 1e-10
            assert h.on_curve(z, tol=1e-8)
            assert not contains_G_R(p, z)
            assert contains_G_R(p, z - 0.05)  # nudged toward the interior
            assert not contains_G_R(p, z + 0.05)
        assert contains_G_R(p, 0.0)
        assert h.apex == pytest.approx(float(h.x_on_curve(0.0)), rel=1e-12)
        assert h.apex > 0


def test_g_ratio_identity_reflection(diag):
    sc = derived_scalars(diag)
    # apex is conjugation-fixed: G = 1
    apex = complex(theta2_branch(diag, sc.theta1_minus, "plus"))
    assert G_ratio(diag, apex) == pytest.approx(1.0, abs=1e-7)
    z = 1.0 + 1.0j  # on the vertical-line curve of the unit diagonal model
    g = G_ratio(diag, z)
    # orthogonal reflection collapses the formula to conj(z)/z
    assert g == pytest.approx(z.conjugate() / z, rel=1e-12)
    assert g * G_ratio(diag, z.conjugate()) == pytest.approx(1.0, rel=1e-12)


def test_g_ratio_conjugation_symmetry(corr):
    sc = derived_scalars(corr)
    pts = theta2_branch(corr, sc.theta1_minus - np.geomspace(0.01, 5, 20), "plus")
    for z in pts:
        z = complex(z)
        assert G_ratio(corr, z) * G_ratio(corr, z.conjugate()) == pytest.approx(
            1.0, rel=1e-9
        )


def test_g_ratio_general_reflection(corr):
    # non-orthogonal reflections give a genuinely non-unimodular factor pair
    p = validate_parameters(corr.sigma, corr.mu, r=[[1.0, 0.3], [0.2, 1.0]])
    sc = derived_scalars(p)
    z = complex(theta2_branch(p, sc.theta1_minus - 1.0, "plus"))
    f1, f2 = g_ratio_factors(p, z)
    assert G_ratio(p, z) == pytest.approx(f1 * f2, rel=1e-14)
    assert G_ratio(p, z) * G_ratio(p, z.conjugate()) == pytest.approx(1.0, rel=1e-9)


def test_g_ratio_parallel_reflections_is_one(corr):
    # parallel push directions are not ergodic, so bypass validation
    p = ModelParams(np.array(corr.sigma), np.array(corr.mu), np.array([[1.0, 1.0], [0.5, 0.5]]))
    sc = derived_scalars(p)
    z = complex(theta2_branch(p, sc.theta1_minus - 2.0, "plus"))
    assert G_ratio(p, z) == pytest.approx(1.0, rel=1e-10)


def test_g_ratio_off_curve_refused(diag):
    with pytest.raises(NotOnCurveError):
        G_ratio(diag, 0.5 + 0.5j)


def test_g_ratio_zero_denominator(corr):
    sc = derived_scalars(corr)
    apex = complex(theta2_branch(corr, sc.theta1_minus, "plus"))
    t = sc.theta1_minus
    # engineered reflection making gamma2 vanish at the apex preimage
    r = np.array([[1.0, apex.real], [0.5, -t]])
    p = ModelParams(np.array(corr.sigma), np.array(corr.mu), r)
    with pytest.raises(ZeroDenominatorError):
        G_ratio(p, apex)
