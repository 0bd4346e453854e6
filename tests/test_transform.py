import logging
import re

import numpy as np
import pytest

from conftest import random_ergodic
from rbmq import make_bundle, validate_parameters
from rbmq.checks import (
    boundary_condition_residual,
    boundary_mass_residual,
    cone_points,
    cross_transform_residual,
    gluing_residual,
    injectivity_collisions,
    real_kernel_zeros,
)
from rbmq.errors import (
    AtPoleError,
    AtZeroError,
    OnCutError,
    OnKernelCurveError,
)
from rbmq.kernel import theta1_branch, theta2_branch
from rbmq.transform import (
    _phi1_deriv,
    _w_deriv,
    phi1_eval,
    phi2_eval,
    phi_eval,
    psi1_eval,
    psi2_eval,
    w_eval,
)
from rbmq.uniformization import theta_of_s


def closed_phi1_diag(p, t2):
    """Reference formula for diagonal covariance."""
    return -(2 * p.m1 * p.m2 / p.s22) / (t2 + 2 * p.m2 / p.s22)


def test_bundle_constants_diag(diag):
    b = make_bundle(diag)
    assert b.w1_at_0 == pytest.approx(0.0, abs=1e-14)
    assert b.w1_prime0 == pytest.approx(-2.0, rel=1e-14)
    assert b.phi1_at_0 == 1.0
    assert b.phi2_at_0 == 1.0


def test_w_closed_form_diag(diag):
    b = make_bundle(diag)
    rng = np.random.default_rng(0)
    z = rng.uniform(-3, 2, 100) + 1j * rng.uniform(-3, 3, 100)
    expected = z * z - 2 * z
    got = np.asarray(w_eval(b, z))
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(1 + np.abs(expected))
    assert w_eval(b, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert _w_deriv(b, np.array([0.5 + 0j]))[0] == pytest.approx(2 * 0.5 - 2, rel=1e-12)


def test_w_endpoint_values(corr):
    b = make_bundle(corr)
    sc = b.scalars
    assert w_eval(b, sc.theta2_minus) == pytest.approx(1.0, abs=1e-12)
    # value at the branch point is cos(pi * pi/beta)
    assert w_eval(b, sc.theta2_plus) == pytest.approx(
        np.cos(np.pi * sc.pi_over_beta), abs=1e-12
    )


def test_w_cut_refusal(diag):
    b = make_bundle(diag)
    with pytest.raises(OnCutError):
        w_eval(b, 3.0)
    up = w_eval(b, complex(3.0, 0.0))
    assert up == pytest.approx(3.0, rel=1e-12)  # T_2 path is entire
    # exactly at the branch point: allowed
    w_eval(b, b.scalars.theta2_plus)


def test_w_cut_side_limits_non_integer_order(corr):
    # pi/beta is irrational here, so the cut is genuine: signed zeros
    # select conjugate one-sided values
    b = make_bundle(corr)
    x = b.scalars.theta2_plus + 1.0
    up = w_eval(b, complex(x, 0.0))
    dn = w_eval(b, complex(x, -0.0))
    assert up == pytest.approx(dn.conjugate(), rel=1e-13)
    assert abs(up.imag) > 1e-3
    for fn in (w_eval, phi1_eval, psi1_eval):
        with pytest.raises(OnCutError):
            fn(b, x)


def test_phi1_closed_form_diag(diag):
    b = make_bundle(diag)
    assert phi1_eval(b, -1.0) == pytest.approx(2.0 / 3.0, rel=1e-13)
    grid = np.linspace(-8.0, 1.5, 97)
    got = np.asarray(phi1_eval(b, grid + 0j))
    want = closed_phi1_diag(diag, grid)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_phi1_matches_reference_for_random_diagonal_models():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = random_ergodic(rng, diagonal=True)
        b = make_bundle(p)
        grid = np.linspace(-6.0, 0.0, 100)[:-1]  # strictly negative
        got = np.asarray(phi1_eval(b, grid + 0j))
        want = closed_phi1_diag(p, grid)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def _near_integer_order(delta):
    """rho = -0.5 + delta: pi/beta = 3 - 3.3 delta."""
    rho = -0.5 + delta
    return validate_parameters([[1.0, rho], [rho, 1.0]], [-1.0, -1.0])


def test_phi1_origin_and_limit(corr):
    b = make_bundle(corr)
    assert phi1_eval(b, 0.0) == -corr.m1
    # limit of the raw ratio approaches the mass: cubic extrapolation,
    # also with pi/beta snapped to 3 (+/- 1e-13) or not (+/- 1e-11)
    assert boundary_mass_residual(b) <= 1e-10
    for delta in (1e-13, -1e-13, 1e-11, -1e-11):
        assert boundary_mass_residual(make_bundle(_near_integer_order(delta))) <= 1e-10


def test_order_snap_logged_once(caplog):
    with caplog.at_level(logging.INFO, logger="rbmq"):
        b = make_bundle(_near_integer_order(1e-13))
        assert b.integer_order and b.swapped.integer_order
        assert len(caplog.records) == 1 and "treating as integer" in caplog.records[0].getMessage()
        caplog.clear()
        phi_eval(b, np.array([-0.5, -1.0 + 0.3j]), np.array([-0.7, -0.2j]))
        phi_eval(b, -0.5, -0.7)
        assert caplog.records == []
    assert not make_bundle(_near_integer_order(1e-11)).integer_order


def test_phi1_pole_detection(diag):
    b = make_bundle(diag)
    with pytest.raises(AtPoleError) as err:
        phi1_eval(b, 2.0)
    assert err.value.order == 1
    assert complex(err.value.location) == pytest.approx(2.0)


def test_phi1_positive_below_first_singularity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = random_ergodic(rng)
        b = make_bundle(p)
        grid = np.linspace(-20.0, -1e-3, 79)
        vals = np.asarray(phi1_eval(b, grid + 0j))
        assert np.max(np.abs(vals.imag)) < 1e-12
        assert np.all(vals.real > 0)


def test_phi_product_form_diag(diag):
    b = make_bundle(diag)
    assert phi_eval(b, -2.0, -2.0) == pytest.approx(0.25, rel=1e-12)
    assert phi_eval(b, 0.0, 0.0) == 1.0
    # the origin inside an array takes the same limit
    both = phi_eval(b, np.array([0.0, -2.0]), np.array([0.0, -2.0]))
    assert both[0] == 1.0 and both[1] == phi_eval(b, -2.0, -2.0)
    # vanishes along the diagonal ray at -infinity
    vals = [abs(phi_eval(b, -t, -t)) for t in (1.0, 10.0, 100.0, 2000.0)]
    assert all(a > b_ for a, b_ in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_phi_kernel_refusal_and_limit(diag):
    with pytest.raises(OnKernelCurveError):
        phi_eval(make_bundle(diag), 0.0, 2.0)
    b = make_bundle(diag)
    # kernel zero away from the transform poles
    t2 = 1 - np.sqrt(1.75)
    lim1 = phi_eval(b, 0.5, t2, direction=(1.0, 1.0))
    lim2 = phi_eval(b, 0.5, t2, direction=(0.3, -1.0))
    want = 4.0 / ((2 - 0.5) * (2 - t2))
    assert lim1 == pytest.approx(want, rel=1e-9)
    assert lim2 == pytest.approx(want, rel=1e-9)


def test_psi_values_and_residue(diag):
    b = make_bundle(diag)
    assert psi1_eval(b, -2.0) == pytest.approx(-0.25, rel=1e-13)
    with pytest.raises(AtZeroError):
        psi1_eval(b, 0.0)
    for k in range(4):
        z = 1e-6 * np.exp(1j * (np.pi / 2) * k + 0.4j)
        assert z * psi1_eval(b, z) == pytest.approx(-diag.m1, rel=1e-5)
    # vanishes at infinity inside the domain
    assert abs(psi1_eval(b, -1e3)) < 1e-2
    assert abs(psi1_eval(b, -1e6)) < 1e-5


def test_cross_transform_identity(corr):
    b = make_bundle(corr)
    t1 = b.scalars.theta1_minus - np.geomspace(1e-3, 50, 100)
    assert cross_transform_residual(b, *real_kernel_zeros(corr, t1)) < 1e-9


def test_phi2_is_swapped_phi1(corr):
    b = make_bundle(corr)
    b_swapped = make_bundle(validate_parameters(corr.sigma[::-1, ::-1], corr.mu[::-1]))
    for z in (-0.5, -1.3 + 0.4j, 0.2 + 1j):
        assert phi2_eval(b, z) == pytest.approx(phi1_eval(b_swapped, z), rel=1e-14)


def test_phi2_psi2_cut_refusal_names_theta1(corr):
    # phi2 and psi2 take theta1, cut along (theta1_plus, inf); the
    # refusal names that variable and that branch point
    b = make_bundle(corr)
    top = b.scalars.theta1_plus
    assert top != b.scalars.theta2_plus
    msg = re.escape(f"real theta1 > {top} lies on the cut; pass theta1 +/- 0j")
    for fn in (phi2_eval, psi2_eval):
        with pytest.raises(OnCutError, match=msg):
            fn(b, 5.0)
        with pytest.raises(OnCutError, match=msg):
            fn(b, np.array([-1.0, 5.0]))
        up, down = fn(b, 5.0 + 0j), fn(b, complex(5.0, -0.0))
        assert up == down.conjugate() and up.imag != 0.0
        fn(b, top)  # the branch point itself is not on the cut
    with pytest.raises(AtZeroError):
        psi2_eval(b, 0.0)


def test_phi1_deriv_matches_finite_differences(corr):
    b = make_bundle(corr)
    h = 1e-6
    for z in (-0.7, -2.0 + 0.5j, 0.4 + 0.9j):
        fd = (phi1_eval(b, z + h) - phi1_eval(b, z - h)) / (2 * h)
        assert _phi1_deriv(b, np.array([z], dtype=complex))[0] == pytest.approx(fd, rel=1e-6)


def test_continuation_identity(diag, corr):
    # phi1(t2) = -(t2/Theta1_minus) phi2(Theta1_minus) continues phi1
    # through the minus preimage: the cross-transform identity there
    theta1 = theta1_branch(diag, -1.0, "minus")
    assert cross_transform_residual(make_bundle(diag), theta1, -1.0) < 1e-9
    rng = np.random.default_rng(3)
    z = np.array([complex(-rng.uniform(0.05, 4.0), rng.uniform(-3.0, 3.0)) for _ in range(100)])
    assert cross_transform_residual(make_bundle(corr), theta1_branch(corr, z, "minus"), z) < 1e-9


def test_gluing_and_boundary_condition_on_curve(corr):
    b = make_bundle(corr)
    sc = b.scalars
    curve = theta2_branch(corr, sc.theta1_minus - np.geomspace(1e-3, 80, 200), "plus")
    assert gluing_residual(b, curve) < 1e-10
    assert boundary_condition_residual(b, curve) < 1e-9


def test_injectivity_witness(corr):
    b = make_bundle(corr)
    rng = np.random.default_rng(4)
    _, za = theta_of_s(b, cone_points(b, 1000, rng, 1.5))
    _, zb = theta_of_s(b, cone_points(b, 1000, rng, 1.5))
    assert injectivity_collisions(b, za, zb) == 0


def test_theta1_branch_principal_label(diag):
    # minus branch at the origin is the small root
    assert theta1_branch(diag, 0.0, "minus") == pytest.approx(0.0, abs=1e-15)
    assert theta1_branch(diag, 0.0, "plus") == pytest.approx(2.0, rel=1e-14)
