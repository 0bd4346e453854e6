"""The scalar/array convention every public point evaluator follows:
scalar (or 0-d) in, Python scalar out; arrays in, ndarray of the same
shape out; and a scalar call agrees bit for bit with the same point
inside an array call."""
import numpy as np
import pytest

from rbmq import chebyshev, kernel, make_bundle, transform, uniformization

_rng = np.random.default_rng(11)
NATIVE = -_rng.uniform(0.1, 3.0, (2, 3)) + 1j * _rng.uniform(-3.0, 3.0, (2, 3))
NATIVE2 = -_rng.uniform(0.1, 3.0, (2, 3)) + 1j * _rng.uniform(-3.0, 3.0, (2, 3))
SPHERE = _rng.uniform(0.2, 5.0, (2, 3)) * np.exp(1j * _rng.uniform(-3.0, 3.0, (2, 3)))

# name -> (evaluator of (bundle, *points), points, scalar type)
EVALUATORS = {
    "gamma": (lambda b, x, y: kernel.gamma(b.params, x, y), (NATIVE, NATIVE2), complex),
    "theta1_branch": (lambda b, x: kernel.theta1_branch(b.params, x, "minus"), (NATIVE,), complex),
    "theta2_branch": (lambda b, x: kernel.theta2_branch(b.params, x, "plus"), (NATIVE,), complex),
    "cheb_T": (lambda b, x: chebyshev.cheb_T(b.scalars.pi_over_beta, x), (NATIVE,), complex),
    "cheb_T_deriv": (
        lambda b, x: chebyshev.cheb_T_deriv(b.scalars.pi_over_beta, x), (NATIVE,), complex
    ),
    "w_eval": (transform.w_eval, (NATIVE,), complex),
    "phi1_eval": (transform.phi1_eval, (NATIVE,), complex),
    "phi2_eval": (transform.phi2_eval, (NATIVE,), complex),
    "psi1_eval": (transform.psi1_eval, (NATIVE,), complex),
    "psi2_eval": (transform.psi2_eval, (NATIVE,), complex),
    "phi_eval": (transform.phi_eval, (NATIVE, NATIVE2), complex),
    "theta_of_s": (uniformization.theta_of_s, (SPHERE,), complex),
    "group_elements": (uniformization.group_elements, (SPHERE,), complex),
    "W_of_s": (uniformization.W_of_s, (SPHERE,), complex),
}


def _components(out):
    """The evaluators returning a pair are checked component by component."""
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("model", ["corr", "corr_neg"])
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_scalar_array_convention(name, model, request):
    fn, points, kind = EVALUATORS[name]
    b = make_bundle(request.getfixturevalue(model))
    arrays = _components(fn(b, *points))
    for arr in arrays:
        assert type(arr) is np.ndarray and arr.shape == points[0].shape
    for idx in np.ndindex(points[0].shape):
        for wrap in (kind, np.array):
            got = _components(fn(b, *(wrap(p[idx]) for p in points)))
            for value, arr in zip(got, arrays):
                assert type(value) is kind, (wrap, type(value))
                assert np.asarray(value).tobytes() == arr[idx].tobytes()


def test_mixed_scalar_and_array_broadcast(corr):
    b = make_bundle(corr)
    out = transform.phi_eval(b, complex(NATIVE[0, 0]), NATIVE2)
    assert type(out) is np.ndarray and out.shape == NATIVE2.shape
    assert out[1, 2] == transform.phi_eval(b, complex(NATIVE[0, 0]), complex(NATIVE2[1, 2]))


def _kinds(lo, hi, cut, generic):
    """One side's points, grouped by the branches the evaluators take:
    real-typed complex points inside (lo, hi), whose affine image lies
    in (-1, 1); points within the origin radius; both sides of the cut
    beyond `cut`; generic complex points."""
    return [
        np.linspace(lo, hi, 6)[1:-1] + 0j,
        np.array([0.0, 1e-9, -2e-9j, 3e-9 + 4e-9j, -5e-10 + 0j]),
        np.array([complex(cut + 0.5, 0.0), complex(cut + 2.0, -0.0), complex(cut + 0.5, -0.0)]),
        generic.ravel(),
    ]


def test_fast_path_matches_masked_path(corr):
    """An array mixing every kind of point equals, bit for bit, the calls
    on each homogeneous subset: a subset without special points takes
    the mask-free path, the mixed array the masked one."""
    b = make_bundle(corr)
    assert not b.integer_order
    sc = b.scalars
    side2 = _kinds(sc.theta2_minus, sc.theta2_plus, sc.theta2_plus, NATIVE)
    side1 = _kinds(sc.theta1_minus, sc.theta1_plus, sc.theta1_plus, NATIVE2)
    assert transform._ORIGIN_RADIUS > 5e-9

    def check(fn, *sides):
        n = sum(g.size for g in sides[0])
        perm = np.random.default_rng(n).permutation(n)
        whole = fn(*(np.concatenate(s)[perm] for s in sides))
        parts = np.concatenate([fn(*groups) for groups in zip(*sides)])[perm]
        assert whole.tobytes() == parts.tobytes()

    def image(side):
        return [transform._affine(sc, g) for g in side]

    check(lambda x: chebyshev.cheb_T(b.order, x), image(side2))
    check(lambda x: chebyshev.cheb_T_deriv(b.order, x), image(side2))
    check(lambda t: transform.phi1_eval(b, t), side2)
    check(lambda t1, t2: transform.phi_eval(b, t1, t2), side1, side2)
    check(lambda t: transform.psi1_eval(b, t), [g[g != 0] for g in side2])
