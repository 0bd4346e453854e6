import dataclasses
import logging

import numpy as np
import pytest

from conftest import random_ergodic
from rbmq import asymptotics, make_bundle, transform, validate_parameters
from rbmq.asymptotics import (
    REGIME_BOUNDARY,
    REGIME_POLE,
    REGIME_SADDLE,
    classify_regime,
)
from rbmq.checks import _circle_mean
from rbmq.errors import ComputationRefused, IntegerExponentError
from rbmq.oracle import diagonal_closed_forms, invert_transform
from rbmq.transform import phi1_eval, w_eval


def test_diag_regime_is_pole_dominant(diag):
    b = make_bundle(diag)
    rep = classify_regime(b)
    assert rep.regime == REGIME_POLE
    assert rep.decay_rate == pytest.approx(2.0)
    assert rep.power == 0.0
    assert rep.constant == pytest.approx(2.0)
    assert rep.pole_location == pytest.approx(2.0)


def test_diag_tail_equals_exact_density(diag):
    # the pole regime formula reproduces the exact boundary density
    rep = classify_regime(make_bundle(diag))
    forms = diagonal_closed_forms(diag)
    x = np.linspace(0.05, 6.0, 40)
    tail = rep.constant * np.exp(-rep.decay_rate * x)
    assert np.max(np.abs(tail - forms.nu1(x))) < 1e-14


def test_random_diagonal_always_pole_regime():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = random_ergodic(rng, diagonal=True)
        rep = classify_regime(make_bundle(p))
        assert rep.regime == REGIME_POLE
        assert rep.constant == pytest.approx(2 * p.m1 * p.m2 / p.s22, rel=1e-14)
        assert rep.decay_rate > 0


def test_regime1_classification(regime1):
    b = make_bundle(regime1)
    rep = classify_regime(b)
    assert rep.regime == REGIME_SADDLE
    assert rep.theta1_at_theta2_plus < 0
    assert rep.decay_rate == pytest.approx(b.scalars.theta2_plus)
    assert rep.power == -1.5
    assert rep.pole_location is None
    assert rep.constant > 0  # density positivity fixes the sign of C1


def test_regime2_classification(regime2):
    b = make_bundle(regime2)
    rep = classify_regime(b)
    assert rep.regime == REGIME_BOUNDARY
    assert abs(rep.theta1_at_theta2_plus) < 1e-12
    assert rep.power == -0.5
    assert rep.constant > 0
    # gluing map collapses at the branch point exactly in this regime
    wdiff = w_eval(b, b.scalars.theta2_plus) - b.w1_at_0
    assert abs(wdiff) < 1e-9


def test_boundary_regime_warning_logged_once(regime2, caplog):
    with caplog.at_level(logging.WARNING, logger="rbmq.asymptotics"):
        classify_regime(make_bundle(regime2))
    assert sum("boundary regime" in r.getMessage() for r in caplog.records) == 1


def test_constants_c1_c2(regime1, regime2):
    c = classify_regime(make_bundle(regime1))
    assert c.regime == REGIME_SADDLE
    assert c.c1 is not None and np.isfinite(c.c1)
    c = classify_regime(make_bundle(regime2))
    assert c.regime == REGIME_BOUNDARY
    assert c.c1 is None  # w-difference vanishes: C1 formula is 0/0
    assert np.isfinite(c.c2)


def test_constants_wrong_regime(diag):
    # the pole decides the tail: the branch-point constants do not apply
    rep = classify_regime(make_bundle(diag))
    assert rep.regime == REGIME_POLE
    assert rep.c1 is None and rep.c2 is None


def test_integer_exponent_guard():
    # pi/beta = 1.9999999999998725 snaps to the integer 2, and theta1 at
    # the branch point (-1.9e-13) is within tolerance of 0: a boundary
    # regime whose branch-point constants are withheld
    p = validate_parameters([[1.0, 1e-13], [1e-13, 1.0]], [-1e-14, -1.0])
    b = make_bundle(p)
    assert b.integer_order
    with pytest.raises(IntegerExponentError):
        classify_regime(b)


def test_c1_matches_local_expansion_slope(regime1):
    b = make_bundle(regime1)
    c1 = classify_regime(b).c1
    top = b.scalars.theta2_plus
    phi_top = complex(phi1_eval(b, top)).real
    eps = np.geomspace(1e-6, 1e-3, 12)
    slopes = np.array(
        [(complex(phi1_eval(b, top - e)).real - phi_top) / np.sqrt(e) for e in eps]
    )
    # phi1(top - e) - phi1(top) = C1 sqrt(e) + O(e); linear fit in sqrt(e)
    fit = np.polyfit(np.sqrt(eps), slopes, 1)
    assert fit[-1] == pytest.approx(c1, rel=0.02)


def test_c1_from_branch_point_expansion():
    # the affine map sends theta2_plus one ulp short of -1, where the
    # square root of T_a magnifies the miss; the constant comes from the
    # exact expansion instead (reference: 50-digit evaluation)
    p = validate_parameters(
        [[2.6633669638565918, 0.7164769388010739], [0.7164769388010739, 2.7688025264570184]],
        [-0.6205132152172969, -1.3388205823230281],
    )
    rep = classify_regime(make_bundle(p))
    assert rep.regime == REGIME_SADDLE
    assert rep.c1 == pytest.approx(-1718.2081478101598, rel=1e-12)


def test_c2_matches_blowup_rate(regime2):
    b = make_bundle(regime2)
    c2 = classify_regime(b).c2
    top = b.scalars.theta2_plus
    eps = np.geomspace(1e-8, 1e-5, 8)
    vals = np.array([complex(phi1_eval(b, top - e)).real * np.sqrt(e) for e in eps])
    assert np.max(np.abs(vals - c2) / abs(c2)) < 1e-3


def test_regime_boundary_collision_sweep():
    # family sigma = [[1, t], [t, 1]], mu = (-1, -1): the regime flips at
    # t = 1/2 where the pole collides with the branch point
    from rbmq.kernel import theta1_at_branch_point

    def v_and_gap(t):
        p = validate_parameters([[1.0, t], [t, 1.0]], [-1.0, -1.0])
        b = make_bundle(p)
        gap = abs(-2 * p.m2 / p.s22 - b.scalars.theta2_plus)
        return theta1_at_branch_point(p), gap

    ts = np.linspace(0.3, 0.7, 21)
    vs, gaps = zip(*(v_and_gap(t) for t in ts))
    vs = np.array(vs)
    assert vs[0] > 0 and vs[-1] < 0
    crossings = np.sum(np.sign(vs[:-1]) != np.sign(vs[1:]))
    assert crossings == 1
    # gap between pole and branch point closes exactly at the flip
    k = int(np.argmin(np.abs(vs)))
    assert gaps[k] == min(gaps)
    assert gaps[k] < 1e-10


def test_pole_constant_matches_inverted_tails():
    # pole and branch point far apart: both inverted tails are flat by
    # x = 20, and the nu2 side takes its constant from the swapped bundle
    b = make_bundle(validate_parameters([[1.0, -0.6], [-0.6, 1.0]], [-1.0, -0.5]))
    x = np.array([20.0, 40.0, 80.0])
    for side, side_bundle in (("nu1", b), ("nu2", b.swapped)):
        rep = classify_regime(side_bundle)
        assert rep.regime == REGIME_POLE
        table = invert_transform(b, side, x)
        flat = table.values * np.exp(rep.decay_rate * x)
        assert np.max(np.abs(flat / rep.constant - 1.0)) < 1e-8
    assert classify_regime(b).constant == pytest.approx(1.6, rel=1e-12)


def pole_residue_residual(b):
    """In the pole regime, the tail constant of `classify_regime`
    against the limit of (p - theta) phi1(theta) at the pole p: its mean
    on a circle about p.  The radius starts at 0.01 min(theta2_plus - p,
    p) and shrinks by 4 until the argument principle finds p alone, a
    simple zero of w - w(0), inside twice the radius; the margin keeps a
    pole just outside the circle from slowing the mean's convergence.

    Not part of `run_checks`: the residual reads the evaluator's own error
    near the pole, 2.4e-10 on the rho = 0.999, mu (-0.05, -3) nu2 side
    (ROADMAP item 2), and would fail `model_sweep` operations.  It calls
    `classify_regime` and `_w` through their modules, which the tests
    below patch.
    """
    rep = asymptotics.classify_regime(b)
    assert rep.regime == REGIME_POLE
    pole = rep.pole_location

    def enclosed(t):
        # its circle mean counts the zeros of w - w(0) inside the circle
        return (t - pole) * transform._w_deriv(b, t) / (transform._w(b, t) - b.w1_at_0)

    radius = 0.01 * min(b.scalars.theta2_plus - pole, pole)
    while round(_circle_mean(enclosed, pole, 2.0 * radius).real) != 1:
        radius /= 4.0
        if radius < 1e-8 * pole:
            raise ComputationRefused("no circle about the pole encloses it alone")
    mean = _circle_mean(lambda t: (pole - t) * transform.phi1_eval(b, t), pole, radius)
    return float(abs(mean - rep.constant) / abs(rep.constant))


# a wide-set model whose nu2 pole has a second pole of phi1 just outside
# a circle of radius 0.01 min(theta2_plus - p, p) about it
WIDE_TWO_POLES = (
    [[0.4575058160469495, -0.7802896082109133], [-0.7802896082109133, 2.327279713455369]],
    [-1.9452650715287794, -0.03132833432084991],
)


def test_pole_constant_is_residue(corr, diag, corr_neg):
    # the pole sits 0.0015 below theta2_plus for corr; the constant is
    # the limit of (p - theta) phi1(theta), not the diagonal prefactor
    assert classify_regime(make_bundle(corr)).constant == pytest.approx(0.096, rel=1e-10)
    for p in (corr, diag, corr_neg, validate_parameters(*WIDE_TWO_POLES)):
        b = make_bundle(p)
        assert pole_residue_residual(b) < 1e-10
        assert pole_residue_residual(b.swapped) < 1e-10
    # one side each of two fixed sweep models, nu2 and nu1
    near_one = make_bundle(validate_parameters([[1.0, 0.9], [0.9, 1.0]], [-0.05, -3.0]))
    assert pole_residue_residual(near_one.swapped) < 1e-10
    near_minus_one = make_bundle(validate_parameters([[1.0, -0.9], [-0.9, 1.0]], [-0.05, -3.0]))
    assert pole_residue_residual(near_minus_one) < 1e-10


@pytest.mark.parametrize("model", ["diag", "corr", "corr_neg"])
def test_pole_residue_flags_a_bumped_constant(model, request, monkeypatch):
    # a 1e-9 relative error in the tail constant fails the 1e-10 tolerance
    good = asymptotics.classify_regime

    def bumped(b):
        rep = good(b)
        return dataclasses.replace(rep, constant=rep.constant * (1.0 + 1e-9))

    monkeypatch.setattr(asymptotics, "classify_regime", bumped)
    b = make_bundle(request.getfixturevalue(model))
    for side in (b, b.swapped):
        assert pole_residue_residual(side) > 1e-10


def test_pole_residue_refuses_when_no_circle_isolates_the_pole(diag, monkeypatch):
    # with w shifted by 1 after w(0) is cached, no circle about the pole
    # encloses a zero of w - w(0): the radius search ends in a refusal,
    # not an endless loop
    b = make_bundle(diag)
    assert b.w1_at_0 == transform._w(b, np.zeros(1, dtype=complex)).real[0]
    good = transform._w
    monkeypatch.setattr(transform, "_w", lambda bundle, t: good(bundle, t) + 1.0)
    with pytest.raises(ComputationRefused, match="encloses it alone"):
        pole_residue_residual(b)


def test_nu2_via_swapped_bundle(regime1):
    # the second boundary density is the first one of the swapped model
    b = make_bundle(regime1)
    rep2 = classify_regime(b.swapped)
    assert rep2.decay_rate > 0
    sw = make_bundle(validate_parameters(regime1.sigma[::-1, ::-1], regime1.mu[::-1]))
    assert classify_regime(sw).regime == rep2.regime
