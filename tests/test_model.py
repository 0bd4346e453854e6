import dataclasses
import json

import numpy as np
import pytest

from conftest import float_property, random_ergodic
from rbmq import (
    ModelParams,
    params_from_dict,
    params_to_dict,
    validate_parameters,
)
from rbmq.errors import (
    NonSymmetricCovarianceError,
    NotErgodicError,
    SingularCovarianceError,
    ValidationError,
)

SQRT2 = np.sqrt(2.0)


def test_model_is_sigma_and_mu(diag):
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["sigma", "mu"]
    assert diag.det_sigma == 1.0


def test_scalar_accessors_cached_and_exact():
    # computed once per instance, with the bits of the array expressions
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_ergodic(rng)
        s, m = p.sigma, p.mu
        fresh = {
            "s11": float(s[0, 0]),
            "s12": float(s[0, 1]),
            "s22": float(s[1, 1]),
            "m1": float(m[0]),
            "m2": float(m[1]),
            "det_sigma": float(s[0, 0]) * float(s[1, 1]) - float(s[0, 1]) * float(s[0, 1]),
            "scale": max(float(np.abs(s).max()), float(np.abs(m).max())),
        }
        for name, want in fresh.items():
            got = getattr(p, name)
            assert type(got) is float and got.hex() == want.hex(), name
            assert vars(p)[name] is got and getattr(p, name) is got


def test_not_ergodic_lists_failures():
    with pytest.raises(NotErgodicError) as err:
        validate_parameters([[1, 0], [0, 1]], [1, -1])
    assert err.value.failed == ("mu1 < 0 fails (mu1=1.0)",)
    with pytest.raises(NotErgodicError) as err:
        validate_parameters([[1, 0], [0, 1]], [0.0, 2.0])
    assert [f.split()[0] for f in err.value.failed] == ["mu1", "mu2"]


def test_singular_covariance():
    with pytest.raises(SingularCovarianceError):
        validate_parameters([[1, 2], [2, 1]], [-1, -1])


def test_non_symmetric_covariance():
    with pytest.raises(NonSymmetricCovarianceError):
        validate_parameters([[1, 0.2], [0.3, 1]], [-1, -1])


def test_shape_and_finite_guards():
    with pytest.raises(ValidationError):
        validate_parameters([[1, 0]], [-1, -1])
    with pytest.raises(ValidationError):
        validate_parameters([[1, 0], [0, 1]], [-np.inf, -1])


def test_constructor_is_the_validator():
    # one way to build a model: the class converts, checks and freezes
    assert validate_parameters is ModelParams
    sigma, mu = [[1, 0.3], [0.3, 2]], [-1, -0.5]
    p, q = ModelParams(sigma, mu), validate_parameters(sigma, mu)
    for name in ("sigma", "mu"):
        a, b = getattr(p, name), getattr(q, name)
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    with pytest.raises(NotErgodicError):
        ModelParams(np.eye(2), np.array([1.0, 1.0]))
    with pytest.raises(NotErgodicError):
        dataclasses.replace(p, mu=np.array([1.0, -1.0]))


def test_callers_arrays_stay_writeable():
    sigma, mu = np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([-1.0, -0.5])
    p = ModelParams(sigma, mu)
    assert sigma.flags.writeable and mu.flags.writeable
    sigma[0, 0], mu[0] = 5.0, -3.0
    assert (p.s11, p.m1) == (1.0, -1.0)
    assert not p.swapped.sigma.flags.writeable
    assert p.swapped.mu.tolist() == [-0.5, -1.0]


def test_general_reflection_ergodic():
    # reflection is orthogonal by construction; any other r is refused
    for r in ([[1, 0.2], [0.0, 1]], [[2, 0], [0, 2]], [1, 0, 0, 1], "I"):
        with pytest.raises(ValidationError, match="^r must be"):
            params_from_dict({"sigma": [[1, 0], [0, 1]], "mu": [-1, -1], "r": r})


def test_scalars_diag(diag):
    sc = diag.scalars
    assert diag.scalars is sc  # computed once per model
    assert sc.beta == pytest.approx(np.pi / 2, abs=1e-15)
    assert sc.theta2_plus == pytest.approx(1 + SQRT2, rel=1e-15)
    assert sc.theta2_minus == pytest.approx(1 - SQRT2, rel=1e-15)
    assert sc.theta1_plus == pytest.approx(1 + SQRT2, rel=1e-15)
    # independent oracle: theta2_pm are the roots of -t^2 + 2t + 1
    roots = np.sort(np.roots([-1.0, 2.0, 1.0]))
    assert sc.theta2_minus == pytest.approx(roots[0], rel=1e-12)
    assert sc.theta2_plus == pytest.approx(roots[1], rel=1e-12)


def test_beta_arccos_half():
    p = validate_parameters([[1, -0.5], [-0.5, 1]], [-1, -1])
    assert p.scalars.beta == pytest.approx(np.pi / 3, rel=1e-15)


def test_swap_exchanges_branch_points(corr):
    sc = corr.scalars
    sw = corr.swapped.scalars
    # bit for bit: the swapped bundle takes its scalars from the swapped model
    assert (sw.theta1_minus, sw.theta1_plus) == (sc.theta2_minus, sc.theta2_plus)
    assert (sw.theta2_minus, sw.theta2_plus) == (sc.theta1_minus, sc.theta1_plus)
    assert sw.beta == sc.beta


@float_property(
    s11=(0.2, 5.0), s22=(0.2, 5.0), rho=(-0.95, 0.95), m1=(-3.0, -0.1), m2=(-3.0, -0.1)
)
def test_scalars_properties(s11, s22, rho, m1, m2):
    s12 = rho * np.sqrt(s11 * s22)
    p = validate_parameters([[s11, s12], [s12, s22]], [m1, m2])
    sc = p.scalars
    assert 0.0 < sc.beta < np.pi
    assert sc.theta2_minus < 0.0 < sc.theta2_plus
    assert sc.theta1_minus < 0.0 < sc.theta1_plus
    # branch points are the roots of the discriminants
    from rbmq.kernel import _disc_d

    scale = p.scale * (1.0 + sc.theta2_plus**2)
    assert abs(_disc_d(p.swapped, sc.theta2_plus)) < 1e-10 * scale
    assert abs(_disc_d(p.swapped, sc.theta2_minus)) < 1e-10 * scale
    assert abs(_disc_d(p, sc.theta1_plus)) < 1e-10 * scale
    assert abs(_disc_d(p, sc.theta1_minus)) < 1e-10 * scale


def test_json_round_trip(corr):
    d = params_to_dict(corr)
    text = json.dumps(d)
    p2 = params_from_dict(json.loads(text))
    assert np.array_equal(p2.sigma, corr.sigma)
    assert np.array_equal(p2.mu, corr.mu)
    assert sorted(d) == ["mu", "sigma"]


def test_json_r_optional():
    p = params_from_dict({"sigma": [[1, 0], [0, 1]], "mu": [-1, -1]})
    q = params_from_dict({"sigma": [[1, 0], [0, 1]], "mu": [-1, -1], "r": [[1, 0], [0, 1]]})
    assert np.array_equal(p.sigma, q.sigma) and np.array_equal(p.mu, q.mu)


def test_json_missing_field():
    with pytest.raises(ValidationError):
        params_from_dict({"sigma": [[1, 0], [0, 1]]})


def test_random_ergodic_helper_valid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_ergodic(rng)
        assert p.det_sigma > 0
