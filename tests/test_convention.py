"""The scalar/array convention every public point evaluator follows:
scalar (or 0-d) in, Python scalar out; arrays in, ndarray of the same
shape out; and a scalar call agrees bit for bit with the same point
inside an array call."""
import numpy as np
import pytest

from rbmq import _points, chebyshev, errors, kernel, make_bundle, transform, uniformization

_rng = np.random.default_rng(11)
NATIVE = -_rng.uniform(0.1, 3.0, (2, 3)) + 1j * _rng.uniform(-3.0, 3.0, (2, 3))
NATIVE2 = -_rng.uniform(0.1, 3.0, (2, 3)) + 1j * _rng.uniform(-3.0, 3.0, (2, 3))
SPHERE = _rng.uniform(0.2, 5.0, (2, 3)) * np.exp(1j * _rng.uniform(-3.0, 3.0, (2, 3)))

# name -> (evaluator of (bundle, *points), complex points, scalar type of the values)
EVALUATORS = {
    "gamma": (lambda b, x, y: kernel.gamma(b.params, x, y), (NATIVE, NATIVE2), complex),
    "theta1_branch": (lambda b, x: kernel.theta1_branches(b.params, x), (NATIVE,), complex),
    "theta2_branch": (lambda b, x: kernel.theta2_branches(b.params, x), (NATIVE,), complex),
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
    "hyperbola_residual": (lambda b, x: kernel.hyperbola(b.params).residual(x), (NATIVE,), float),
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
        for wrap in (complex, np.array):
            got = _components(fn(b, *(wrap(p[idx]) for p in points)))
            for value, arr in zip(got, arrays):
                assert type(value) is kind, (wrap, type(value))
                assert np.asarray(value).tobytes() == arr[idx].tobytes()


# 2^15-point counterparts of the point sets, keyed by the set's identity:
# above numpy's threshold for reusing a temporary operand in place
# (256 KiB, 2^14 complex points), which no one-element call meets
_LARGE = 2**15
_big_rng = np.random.default_rng(12)
_BIG = {
    id(NATIVE): -_big_rng.uniform(0.1, 3.0, _LARGE) + 1j * _big_rng.uniform(-3.0, 3.0, _LARGE),
    id(NATIVE2): -_big_rng.uniform(0.1, 3.0, _LARGE) + 1j * _big_rng.uniform(-3.0, 3.0, _LARGE),
    id(SPHERE): _big_rng.uniform(0.2, 5.0, _LARGE) * np.exp(1j * _big_rng.uniform(-3.0, 3.0, _LARGE)),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_scalar_array_convention_large(name, corr):
    """A large array gives each point the bits of its scalar call."""
    fn, points, kind = EVALUATORS[name]
    b = make_bundle(corr)
    big = [_BIG[id(p)] for p in points]
    arrays = _components(fn(b, *big))
    for idx in np.random.default_rng(13).choice(_LARGE, 200, replace=False):
        got = _components(fn(b, *(complex(p[idx]) for p in big)))
        for value, arr in zip(got, arrays):
            assert np.asarray(value).tobytes() == arr[idx].tobytes()


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_large_arrays_independent_of_workers(name, corr, monkeypatch):
    """The 2^15-point arrays give the same bytes on one worker and on
    three, and as one unblocked call."""
    fn, points, kind = EVALUATORS[name]
    b = make_bundle(corr)
    big = [_BIG[id(p)] for p in points]
    assert _LARGE >= 3 * _points._BLOCK
    outs = []
    for cpus, block in ((1, _points._BLOCK), (3, _points._BLOCK), (1, _LARGE)):
        monkeypatch.setattr(_points, "_cpu_count", lambda n=cpus: n)
        monkeypatch.setattr(_points, "_BLOCK", block)
        outs.append([arr.tobytes() for arr in _components(fn(b, *big))])
    assert outs[0] == outs[1] == outs[2]


def test_mixed_scalar_and_array_broadcast(corr):
    b = make_bundle(corr)
    out = transform.phi_eval(b, complex(NATIVE[0, 0]), NATIVE2)
    assert type(out) is np.ndarray and out.shape == NATIVE2.shape
    assert out[1, 2] == transform.phi_eval(b, complex(NATIVE[0, 0]), complex(NATIVE2[1, 2]))


@pytest.mark.parametrize("cpus", [1, 3])
def test_scalar_times_large_array_broadcast(corr, monkeypatch, cpus):
    """gamma of a scalar and a 2^15-point array is blocked like two arrays
    and gives each point the bits of its scalar call."""
    monkeypatch.setattr(_points, "_cpu_count", lambda: cpus)
    a, big = complex(NATIVE[0, 0]), _BIG[id(NATIVE2)]
    out = kernel.gamma(corr, a, big)
    assert type(out) is np.ndarray and out.shape == big.shape
    assert out.tobytes() == kernel.gamma(corr, np.full(_LARGE, a), big).tobytes()
    for idx in np.random.default_rng(14).choice(_LARGE, 200, replace=False):
        assert np.asarray(kernel.gamma(corr, a, complex(big[idx]))).tobytes() == out[idx].tobytes()


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", ["theta_of_s", "group_elements", "W_of_s"])
def test_sphere_zero_in_last_block(name, corr, monkeypatch, cpus):
    """An s = 0 in the last of three blocks is refused as in one call."""
    monkeypatch.setattr(_points, "_cpu_count", lambda: cpus)
    fn = EVALUATORS[name][0]
    s = _BIG[id(SPHERE)][: 3 * _points._BLOCK].copy()
    assert np.isfinite(np.concatenate(_components(fn(make_bundle(corr), s)))).all()
    s[-1] = 0
    with pytest.raises(errors.AtZeroOrInfinityError):
        fn(make_bundle(corr), s)


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
        return [transform._affine(*transform._map(sc), g) for g in side]

    check(lambda x: chebyshev.cheb_T(b.order, x), image(side2))
    check(lambda x: chebyshev.cheb_T_deriv(b.order, x), image(side2))
    check(lambda t: transform.phi1_eval(b, t), side2)
    check(lambda t1, t2: transform.phi_eval(b, t1, t2), side1, side2)
    check(lambda t: transform.psi1_eval(b, t), [g[g != 0] for g in side2])


@pytest.mark.parametrize("model", ["corr", "corr_neg"])
def test_second_side_is_first_side_of_swapped(model, request):
    """phi2 and psi2 are phi1 and psi1 of the swapped bundle, bit for bit,
    on scalar and array calls, and refuse the same points."""
    b = make_bundle(request.getfixturevalue(model))
    pairs = ((transform.phi2_eval, transform.phi1_eval), (transform.psi2_eval, transform.psi1_eval))
    for second, first in pairs:
        for points in (NATIVE, _BIG[id(NATIVE)]):
            assert second(b, points).tobytes() == first(b.swapped, points).tobytes()
        for idx in np.ndindex(NATIVE.shape):
            got, want = (fn(bb, complex(NATIVE[idx])) for fn, bb in ((second, b), (first, b.swapped)))
            assert type(got) is complex and np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # the cut: phi2 names theta1, the swapped phi1 its own theta2
        assert b.scalars.theta1_plus == b.swapped.scalars.theta2_plus
        beyond = b.scalars.theta1_plus + 1.0
        with pytest.raises(errors.OnCutError, match="real theta1 > "):
            second(b, beyond)
        with pytest.raises(errors.OnCutError, match="real theta2 > "):
            first(b.swapped, beyond)
        # the pole of phi2, at -2 mu1 / s11, inside an array
        pole = -2.0 * b.params.m1 / b.params.s11
        where = []
        for fn, bundle in ((second, b), (first, b.swapped)):
            with pytest.raises(errors.AtPoleError) as err:
                fn(bundle, np.array([-1.0, pole, -0.5j]) + 0j)
            where.append(err.value.location)
        assert where[0] == where[1] == pole
