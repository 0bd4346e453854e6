import logging

import numpy as np
import pytest

from conftest import random_ergodic
from rbmq import make_bundle, validate_parameters
from rbmq.asymptotics import (
    REGIME_BOUNDARY,
    REGIME_POLE,
    REGIME_SADDLE,
    classify_regime,
    constants_C1_C2,
)
from rbmq import asymptotics
from rbmq.checks import pole_residue_residual
from rbmq.errors import IntegerExponentError, WrongRegimeError
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
    b1 = make_bundle(regime1)
    c = constants_C1_C2(b1)
    assert c.applicable == "C1"
    assert c.c1 is not None and np.isfinite(c.c1)
    b2 = make_bundle(regime2)
    c = constants_C1_C2(b2)
    assert c.applicable == "C2"
    assert c.c1 is None  # w-difference vanishes: C1 formula is 0/0
    assert np.isfinite(c.c2)


def test_constants_wrong_regime(diag):
    with pytest.raises(WrongRegimeError):
        constants_C1_C2(make_bundle(diag))


def test_integer_exponent_guard(diag, monkeypatch):
    # the error path needs a saddle regime with integer pi/beta, which no
    # genuine model produces; force the regime label to exercise the guard
    monkeypatch.setattr(
        asymptotics, "_regime_of", lambda b: (REGIME_SADDLE, -1.0)
    )
    with pytest.raises(IntegerExponentError):
        constants_C1_C2(make_bundle(diag))


def test_c1_matches_local_expansion_slope(regime1):
    b = make_bundle(regime1)
    c1 = constants_C1_C2(b).c1
    top = b.scalars.theta2_plus
    phi_top = complex(phi1_eval(b, top)).real
    eps = np.geomspace(1e-6, 1e-3, 12)
    slopes = np.array(
        [(complex(phi1_eval(b, top - e)).real - phi_top) / np.sqrt(e) for e in eps]
    )
    # phi1(top - e) - phi1(top) = C1 sqrt(e) + O(e); linear fit in sqrt(e)
    fit = np.polyfit(np.sqrt(eps), slopes, 1)
    assert fit[-1] == pytest.approx(c1, rel=0.02)


def test_c2_matches_blowup_rate(regime2):
    b = make_bundle(regime2)
    c2 = constants_C1_C2(b).c2
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


def test_pole_constant_is_residue(corr, diag, corr_neg, regime1):
    # the pole sits 0.0015 below theta2_plus for corr; the constant is
    # the two-sided limit of e phi1(p - e), not the diagonal prefactor
    assert classify_regime(make_bundle(corr)).constant == pytest.approx(0.096, rel=1e-10)
    for p in (corr, diag, corr_neg):
        b = make_bundle(p)
        assert pole_residue_residual(b) < 1e-10
        assert pole_residue_residual(b.swapped) < 1e-10
    with pytest.raises(WrongRegimeError):
        pole_residue_residual(make_bundle(regime1))


def test_nu2_via_swapped_bundle(regime1):
    # the second boundary density is the first one of the swapped model
    b = make_bundle(regime1)
    rep2 = classify_regime(b.swapped)
    assert rep2.decay_rate > 0
    sw = make_bundle(validate_parameters(regime1.sigma[::-1, ::-1], regime1.mu[::-1]))
    assert classify_regime(sw).regime == rep2.regime
