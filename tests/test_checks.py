"""The invariant suite behind `rbmq check`: it still flags a 1e-9
relative error in each quantity its 10k-point identities test and in
w'(0), its single-coordinate sphere maps are the ones `theta_of_s`
returns, its sliced identities keep the whole sample's bits, a sampler
that runs dry is a typed refusal, it reports on models whose tail
constants are withheld, and a seed fixes its samples, results, check
names and their order, and is refused unless it is a non-negative
integer."""
import json

import numpy as np
import pytest

from rbmq import _points, checks, kernel, make_bundle, transform, uniformization
from rbmq.cli import EXIT_CHECK_FAILED, EXIT_REFUSED, main
from rbmq.errors import ComputationRefused, ValidationError

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


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, False])
def test_run_checks_refuses_bad_seeds(corr, seed):
    with pytest.raises(ValidationError, match="seed must be"):
        checks.run_checks(corr, seed)


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


@pytest.mark.parametrize("model", FIXTURES)
@pytest.mark.parametrize(
    "n", [1, 4095, 4096, 4097, _points._BLOCK - 1, _points._BLOCK, _points._BLOCK + 1, 10_000]
)
def test_sliced_residuals_equal_whole_array_bits(model, n, request):
    """The slices cover every point once, and across and at their
    boundaries the largest slice residual is the whole-array residual,
    bit for bit."""
    p = request.getfixturevalue(model)
    b = make_bundle(p)
    rng = np.random.default_rng(n)
    pts = rng.uniform(-4, 4, n) + 1j * rng.uniform(-4, 4, n)
    seen = []
    checks._block_max(lambda x: seen.append(x) or 0.0, pts)
    assert max(x.size for x in seen) <= _points._BLOCK
    assert np.concatenate(seen).tobytes() == pts.tobytes()
    s = checks._sphere_points(rng, n)
    th1, th2 = uniformization.theta_of_s(b, s)
    pairs = [
        (checks._block_max(lambda x: checks.branch_root_residual(p, x), pts),
         checks.branch_root_residual(p, pts)),
        (checks._block_max(lambda x: checks._sphere_residuals(b, x), s),
         (checks.kernel_zero_residual(p, th1, th2), checks.two_sheet_residual(b, s, th1, th2))),
    ]
    for sliced, whole in pairs:
        assert np.asarray(sliced).tobytes() == np.asarray(whole).tobytes()


def test_native_zero_shortage_is_a_refusal(diag, tmp_path, monkeypatch, capsys):
    """When no sphere batch yields a kernel zero in the left half-plane,
    run_checks refuses, and `rbmq check` exits 3 without a traceback."""
    none = np.empty(0, dtype=complex)
    monkeypatch.setattr(uniformization, "theta_of_s", lambda b, s: (none, none))
    with pytest.raises(ComputationRefused, match="0 of 200 kernel zeros"):
        checks.run_checks(diag)
    config = tmp_path / "diag.json"
    config.write_text(json.dumps({"sigma": [[1.0, 0.0], [0.0, 1.0]], "mu": [-1.0, -1.0]}))
    assert main(["check", "--config", str(config)]) == EXIT_REFUSED
    err = capsys.readouterr().err
    assert err.startswith("refused: ComputationRefused: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "s12, names",
    [(0.0, [*NAMES, "diagonal_product_form"]), (1e-13, NAMES)],
    ids=["diagonal", "correlated"],
)
def test_check_reports_on_integer_order_boundary_models(s12, names, tmp_path, capsys):
    """pi/beta snaps to 2 and the tail is in the boundary regime, where
    `classify_regime` withholds the branch-point constants (exit 3 from
    analyze, asympt and invert); `rbmq check` needs only the decay rate,
    so it prints every line.  The verdict is pinned, not the residuals:
    cross_transform_identity fails here (ROADMAP item 2)."""
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"sigma": [[1.0, s12], [s12, 1.0]], "mu": [-1e-14, -1.0]}))
    assert main(["check", "--config", str(config)]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == [f"{name}:" for name in names]
    assert lines[-1].endswith(f"/{len(names)} checks passed")
    for verb in ("analyze", "asympt", "invert"):
        assert main([verb, "--config", str(config)]) == EXIT_REFUSED
        captured = capsys.readouterr()
        assert captured.out == "" and "refused: IntegerExponentError: " in captured.err
