"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them live).

Tolerances and runtime budgets are pinned here; nothing is deferred to
later calibration.  The Monte Carlo criterion is the slow one (a few
minutes); everything else together takes seconds.
"""
import time

import numpy as np
import pytest

from conftest import cheb_T_deriv, random_ergodic
from rbmq import make_bundle, validate_parameters
from rbmq.asymptotics import REGIME_BOUNDARY, REGIME_POLE, REGIME_SADDLE
from rbmq import asymptotics, checks, oracle, transform, uniformization


def _report(num, name, ok, detail, elapsed, budget):
    line = (
        f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: "
        f"{detail} ({elapsed:.2f}s / budget {budget:.0f}s)"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {line}"


def test_criterion_01_diagonal_exactness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    grid = np.linspace(-2.5, 0.0, 5)
    a, c = np.meshgrid(grid, grid, indexing="ij")
    for _ in range(10):
        b = make_bundle(random_ergodic(rng, diagonal=True))
        worst = max(worst, checks.diagonal_product_residual(b, a, c))
    _report(1, "diagonal exactness", worst < 1e-12,
            f"max rel dev {worst:.2e} over 10 models x 5x5 grid (tol 1e-12)",
            time.time() - t0, 1.0)


def test_criterion_02_mass_identities():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        p = random_ergodic(rng)
        b = make_bundle(p)
        assert transform.phi1_eval(b, 0.0) == -p.m1
        assert transform.phi2_eval(b, 0.0) == -p.m2
        worst = max(worst, checks.boundary_mass_residual(b))
    _report(2, "boundary masses", worst < 1e-10,
            f"max rel dev of circle means of phi1, phi2 {worst:.2e} over 100 models (tol 1e-10)",
            time.time() - t0, 1.0)


def test_criterion_03_boundary_gluing_identities():
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst_psi = worst_w = 0.0
    for _ in range(20):
        b = make_bundle(random_ergodic(rng))
        curve = checks.curve_points(b.params)
        worst_w = max(worst_w, checks.gluing_residual(b, curve))
        worst_psi = max(worst_psi, checks.boundary_condition_residual(b, curve))
    _report(3, "boundary/gluing identities", worst_psi < 1e-9 and worst_w < 1e-9,
            f"psi {worst_psi:.2e}, w {worst_w:.2e} on 200 curve points x 20 models (tol 1e-9)",
            time.time() - t0, 5.0)


def test_criterion_04_cross_transform_identity():
    t0 = time.time()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        p = random_ergodic(rng)
        b = make_bundle(p)
        # 100 points on the real locus, both branches
        t1 = b.scalars.theta1_minus - np.geomspace(1e-3, 60, 50)
        worst = max(worst, checks.cross_transform_residual(b, *checks.real_kernel_zeros(p, t1)))
        # 100 complex kernel zeros in the native half-plane domain
        zeros = checks.native_kernel_zeros(b, 100, rng)
        worst = max(worst, checks.cross_transform_residual(b, *zeros))
    _report(4, "cross-transform identity", worst < 1e-9,
            f"max rel residual {worst:.2e} at 200 pts x 20 models (tol 1e-9)",
            time.time() - t0, 5.0)


def test_criterion_05_uniformization():
    t0 = time.time()
    rng = np.random.default_rng(105)
    worst_zero = worst_refl = worst_lift = 0.0
    for _ in range(20):
        p = random_ergodic(rng)
        b = make_bundle(p)
        s = rng.uniform(0.05, 20, 500) * np.exp(1j * rng.uniform(-np.pi, np.pi, 500))
        worst_zero = max(
            worst_zero, checks.kernel_zero_residual(p, *uniformization.theta_of_s(b, s))
        )
        worst_refl = max(worst_refl, checks.reflection_residual(b, np.geomspace(1e-2, 100, 50)))
        worst_lift = max(worst_lift, checks.lift_residual(b, checks.cone_points(b, 100, rng)))
    ok = worst_zero < 1e-10 and worst_refl < 1e-9 and worst_lift < 1e-9
    _report(5, "uniformization", ok,
            f"zero-set {worst_zero:.2e}, reflections {worst_refl:.2e}, lift {worst_lift:.2e}",
            time.time() - t0, 5.0)


def test_criterion_06_group_and_nature():
    t0 = time.time()
    diag = validate_parameters([[1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0])
    rep = uniformization.group_order(make_bundle(diag))
    ok = rep.finite and rep.order == 4
    nature = uniformization.classify_solution_nature(make_bundle(diag))
    ok &= nature == "rational_polynomial"
    # beta = pi/3: order 6; pi/beta = 3 is an integer, so the transform is
    # rational (a special case of algebraic)
    third = validate_parameters([[1.0, -0.5], [-0.5, 1.0]], [-1.0, -1.0])
    rep3 = uniformization.group_order(make_bundle(third))
    ok &= rep3.finite and rep3.order == 6
    ok &= uniformization.classify_solution_nature(make_bundle(third)) == "rational_polynomial"
    # beta = 2pi/3: pi/beta = 3/2, the strictly-algebraic case, order 6
    half = validate_parameters([[1.0, 0.5], [0.5, 1.0]], [-1.0, -1.0])
    rep32 = uniformization.group_order(make_bundle(half))
    ok &= rep32.finite and rep32.order == 6 and (rep32.p, rep32.q) == (3, 2)
    ok &= (
        uniformization.classify_solution_nature(make_bundle(half))
        == "algebraic_nonpolynomial"
    )
    # generic correlation: no small rational, D-finite
    gen = validate_parameters([[1.0, 0.4], [0.4, 1.5]], [-0.7, -1.2])
    repg = uniformization.group_order(make_bundle(gen))
    ok &= (not repg.finite) and "infinite within bound 1000000" in repg.note
    ok &= (
        uniformization.classify_solution_nature(make_bundle(gen))
        == "transcendental_D_finite"
    )
    _report(6, "group order and nature", ok,
            "orders 4/6/6 and rational/rational/algebraic/D-finite as required",
            time.time() - t0, 1.0)


@pytest.mark.slow
def test_criterion_07_monte_carlo_agreement():
    t0 = time.time()
    models = {
        REGIME_POLE: validate_parameters([[1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0]),
        REGIME_SADDLE: validate_parameters([[1.0, 0.8], [0.8, 1.0]], [-0.5, -2.0]),
        REGIME_BOUNDARY: validate_parameters([[1.0, 0.5], [0.5, 1.0]], [-1.0, -1.0]),
    }
    bad_cells = 0
    total_cells = 0
    rates_ok = True
    details = []
    for want_regime, p in models.items():
        b = make_bundle(p)
        assert asymptotics.classify_regime(b).regime == want_regime
        res = oracle.simulate(p, oracle.SimConfig(seed=1107))
        for (a, c), (mean, se) in res.laplace_estimates.items():
            exact = transform.phi_eval(b, a, c).real
            total_cells += 1
            if abs(mean - exact) > 3 * se:
                bad_cells += 1
        (r1, se1), (r2, se2) = res.local_time_rates
        rates_ok &= abs(r1 + p.m1) <= 3 * se1 and abs(r2 + p.m2) <= 3 * se2
        details.append(f"{want_regime}: rate-z ({abs(r1 + p.m1) / se1:.2f}, "
                       f"{abs(r2 + p.m2) / se2:.2f})")
    ok = bad_cells <= total_cells - 25 and rates_ok
    _report(7, "Monte Carlo agreement", ok,
            f"{total_cells - bad_cells}/{total_cells} cells within 3 stderr; " + "; ".join(details),
            time.time() - t0, 600.0)


def test_criterion_08_inversion_vs_closed_form():
    t0 = time.time()
    p = validate_parameters([[1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0])
    b = make_bundle(p)
    xs = np.linspace(0.1, 5.0, 50)
    tab = oracle.invert_transform(b, "nu1", xs)
    exact = 2.0 * np.exp(-2.0 * xs)
    worst = float(np.max(np.abs(tab.values - exact) / exact))
    _report(8, "inversion vs closed form", worst < 1e-6,
            f"max rel dev {worst:.2e} on [0.1, 5] (tol 1e-6)",
            time.time() - t0, 10.0)


def test_criterion_09_asymptotics():
    t0 = time.time()
    # (a) pole-regime constant is the exact diagonal prefactor
    rng = np.random.default_rng(109)
    ok_a = True
    for _ in range(5):
        p = random_ergodic(rng, diagonal=True)
        rep = asymptotics.classify_regime(make_bundle(p))
        ok_a &= rep.constant == pytest.approx(2 * p.m1 * p.m2 / p.s22, rel=1e-14)
    # (b) compensated inverted density flattens onto -C1/(2 sqrt(pi));
    # the compensation is applied to the slowly varying factor produced
    # by the shifted inversion, since e^{-rate x} underflows the round
    # trip for rate*x beyond ~700
    p1 = validate_parameters([[1.0, 0.8], [0.8, 1.0]], [-0.1, -2.0])
    b1 = make_bundle(p1)
    rep = asymptotics.classify_regime(b1)
    assert rep.regime == REGIME_SADDLE
    top = b1.scalars.theta2_plus
    xs = np.geomspace(5.0, 50.0, 10)
    slow = oracle._talbot_invert(
        lambda s: transform.phi1_eval(b1, top - np.asarray(s, dtype=complex)), xs
    )
    comp = slow * xs**1.5
    dev_b = float(np.max(np.abs(comp / rep.constant - 1.0)))
    ok_b = dev_b < 0.10
    # (c) local expansion of the transform at the branch point recovers C1
    c1 = rep.c1
    phi_top = complex(transform.phi1_eval(b1, top)).real
    eps = np.geomspace(1e-6, 1e-3, 12)
    slopes = [
        (complex(transform.phi1_eval(b1, top - e)).real - phi_top) / np.sqrt(e)
        for e in eps
    ]
    fitted = np.polyfit(np.sqrt(eps), slopes, 1)[-1]
    dev_c = abs(fitted - c1) / abs(c1)
    ok_c = dev_c < 0.02
    _report(9, "tail asymptotics", ok_a and ok_b and ok_c,
            f"(a) exact prefactor; (b) compensated-tail dev {dev_b:.3f} (tol 0.10); "
            f"(c) slope-fit dev {dev_c:.4f} (tol 0.02)",
            time.time() - t0, 60.0)


def test_criterion_10_chebyshev_unit_suite():
    t0 = time.time()
    from rbmq.chebyshev import _expansion, cheb_T

    rng = np.random.default_rng(110)
    ok = True
    # composition law
    for _ in range(1000):
        a = rng.uniform(0, 6)
        t = rng.uniform(0, np.pi)
        ok &= abs(cheb_T(a, np.cos(t)) - np.cos(a * t)) < 1e-12
    # integer recurrence
    z = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
    t_vals = {n: cheb_T(n, z) for n in range(8)}
    for n in range(1, 7):
        ok &= bool(
            np.max(np.abs(t_vals[n + 1] - (2 * z * t_vals[n] - t_vals[n - 1])))
            < 1e-10 * np.max(1 + np.abs(t_vals[n + 1]))
        )
    # finite-difference derivative
    h = 1e-6
    for _ in range(50):
        a = rng.uniform(0.2, 4.0)
        fd = (cheb_T(a, 0.3 + h) - cheb_T(a, 0.3 - h)) / (2 * h)
        ok &= abs(cheb_T_deriv(a, 0.3) - fd) < 1e-8
    # branch-point expansion coefficients
    c0, c1 = _expansion(0.5)
    ok &= abs(c0) < 1e-15 and abs(c1 - np.sqrt(2) / 2) < 1e-14
    c0, c1 = _expansion(1.5)
    ok &= abs(c0) < 1e-14 and abs(c1 + 1.5 * np.sqrt(2)) < 1e-13
    for _ in range(10):
        a = rng.uniform(0.2, 3.8)
        if abs(a - round(a)) < 1e-6:
            continue
        c0, c1 = _expansion(a)
        eps = np.geomspace(1e-8, 1e-3, 10)
        vals = np.array([complex(cheb_T(a, -1.0 + e)).real for e in eps])
        ok &= bool(np.all(np.abs(vals - c0 - c1 * np.sqrt(eps)) <= 50 * (1 + a * a) * eps))
    _report(10, "generalized Chebyshev unit suite", bool(ok),
            "composition, recurrence, derivative, expansion all within tolerance",
            time.time() - t0, 1.0)
