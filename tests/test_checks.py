"""The invariant suite behind `rbmq check`: it still flags a 1e-9
relative error in each quantity its 10k-point identities test and in
w'(0), its single-coordinate sphere maps are the ones `theta_of_s`
returns, and a seed fixes its samples, results, check names and their
order."""
import numpy as np
import pytest

from rbmq import checks, kernel, make_bundle, transform, uniformization

FIXTURES = ["diag", "corr", "corr_neg", "regime1", "regime2"]
NAMES = [
    "kernel_branch_roots",
    "branch_conjugacy_on_curve",
    "vieta",
    "gluing_symmetry",
    "boundary_condition",
    "cross_transform_identity",
    "uniformization_zero_set",
    "two_sheet_identities",
    "lifted_gluing",
    "boundary_masses",
    "gluing_injectivity",
    "total_mass",
]
BUMP = 1.0 + 1e-9


def _by_name(p, seed=0):
    return {r.name: r for r in checks.run_checks(p, seed)}


def _bump_plus_root(monkeypatch):
    good = kernel.theta2_branches

    def bumped(p, theta1):
        plus, minus = good(p, theta1)
        return plus * BUMP, minus

    monkeypatch.setattr(kernel, "theta2_branches", bumped)


def _bump_theta2(monkeypatch):
    good = uniformization._theta2_of_s
    monkeypatch.setattr(uniformization, "_theta2_of_s", lambda b, s, inv: good(b, s, inv) * BUMP)


def _bump_eta(monkeypatch):
    good = uniformization._involutions

    def bumped(b, s):
        zeta, eta = good(b, s)
        return zeta, eta * BUMP

    monkeypatch.setattr(uniformization, "_involutions", bumped)


def _bump_w1_prime0(monkeypatch):
    good = transform.TransformBundle.w1_prime0.func
    monkeypatch.setattr(
        transform.TransformBundle, "w1_prime0", property(lambda b: good(b) * BUMP)
    )


@pytest.mark.parametrize("model", FIXTURES)
@pytest.mark.parametrize(
    "bump, check",
    [
        (_bump_plus_root, "kernel_branch_roots"),
        (_bump_theta2, "uniformization_zero_set"),
        (_bump_eta, "two_sheet_identities"),
        (_bump_w1_prime0, "boundary_masses"),
    ],
)
def test_relative_error_of_1e9_fails_its_check(model, bump, check, request, monkeypatch):
    p = request.getfixturevalue(model)
    assert _by_name(p)[check].passed
    bump(monkeypatch)
    r = _by_name(p)[check]
    assert not r.passed, r.line()


@pytest.mark.parametrize("model", ["corr", "corr_neg"])
def test_single_coordinate_maps_equal_theta_of_s(model, request):
    b = make_bundle(request.getfixturevalue(model))
    s = np.random.default_rng(4).uniform(0.05, 20.0, 500) * np.exp(
        1j * np.random.default_rng(5).uniform(-np.pi, np.pi, 500)
    )
    th1, th2 = uniformization.theta_of_s(b, s)
    inv = 1.0 / s
    assert uniformization._theta1_of_s(b, s, inv).tobytes() == th1.tobytes()
    assert uniformization._theta2_of_s(b, s, inv).tobytes() == th2.tobytes()
    assert checks._theta2(b, s).tobytes() == th2.tobytes()


@pytest.mark.parametrize("model", FIXTURES)
def test_run_checks_deterministic_names_and_order(model, request):
    p = request.getfixturevalue(model)
    first = checks.run_checks(p, 7)
    assert first == checks.run_checks(p, 7)
    extra = ["diagonal_product_form"] if p.s12 == 0.0 else []
    assert [r.name for r in first] == NAMES + extra


class _Recorder:
    """A Generator that logs each draw's method and arguments."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        fn = getattr(self._rng, name)

        def draw(*args):
            self._log.append((name, *args))
            return fn(*args)

        return draw


def test_run_checks_draws(corr, monkeypatch):
    """The samples: 10k plane points, the native zeros' 800-point sphere
    batches, 10k sphere points, then 200 and 2 x 1000 cone points."""
    log = []
    make = np.random.default_rng
    monkeypatch.setattr(checks.np.random, "default_rng", lambda seed: _Recorder(make(seed), log))
    checks.run_checks(corr, 3)
    beta = corr.scalars.beta
    sphere = [("uniform", 0.05, 20.0), ("uniform", -np.pi, np.pi)]
    batches = (len(log) - 10) // 2
    assert batches >= 1
    want = (
        [("uniform", -4, 4, 10_000)] * 2
        + [(*d, 800) for d in sphere] * batches
        + [(*d, 10_000) for d in sphere]
    )
    for n, top in ((200, 2.0), (1000, 1.5), (1000, 1.5)):
        want += [("uniform", -2.0, top, n), ("uniform", 1e-3, beta - 1e-3, n)]
    assert log == want
