import csv
import dataclasses
from concurrent.futures import Future
import io
import logging
import math

import numpy as np
import pytest

from rbmq import _points, asymptotics, make_bundle, oracle, transform, validate_parameters
from rbmq.errors import (
    MethodDisagreementError,
    NotDiagonalError,
    RBMQError,
    StepSizeWarning,
    ValidationError,
)
from rbmq.oracle import (
    DensityTable,
    DiagonalClosedForms,
    SimConfig,
    density_table_to_csv,
    diagonal_closed_forms,
    invert_transform,
    sim_result_to_csv,
    simulate,
    _bridge_minimum,
    _Skorokhod,
    _talbot_invert,
)
from rbmq.transform import phi1_eval, phi_eval

SMALL = SimConfig(step=1e-4, horizon=400.0, burn_in=20.0, seed=7, batches=8)


def _sequential_reference(z0, incr, expo, var_h):
    """Stepwise bridge recursion, the contract the fast path must match:
    m_n = (y_n - sqrt(y_n^2 + 2 var_h E_n)) / 2,
    z_n = max(z_(n-1) + y_n, y_n - m_n), dl_n = max(0, -(z_(n-1) + m_n))."""
    z = np.empty(len(incr))
    dl = np.empty(len(incr))
    cur = z0
    for k, (y, e) in enumerate(zip(incr, expo)):
        m = 0.5 * (y - math.sqrt(y * y + 2.0 * var_h * e))
        dl[k] = max(0.0, -(cur + m))
        cur = max(cur + y, y - m)
        z[k] = cur
    return z, dl


def _blocked_kernel(z0, incr, expo, var_h, block):
    """Path, per-step local time and telescoped local time of the blocked
    kernel on (2, n) rows, walked block by block with its carry."""
    walk = _Skorokhod(block, var_h)
    walk.start(np.array(z0))
    z = np.empty(incr.shape)
    dl = np.zeros(incr.shape)
    for b0 in range(0, incr.shape[1], block):
        part = incr[:, b0 : b0 + block].copy()
        k = part.shape[1]
        walk.advance(part, expo[:, b0 : b0 + block].copy())
        z[:, b0 : b0 + k] = walk.path(oracle._ROWS, np.arange(k))
        rows, h, d = walk.hits(0)
        dl[rows, b0 + h] = d
    return z, dl, walk.l_end


def test_lindley_matches_sequential_scheme():
    # one row per coordinate, each with its own start, drift and variance
    rng = np.random.default_rng(0)
    z0 = (0.0, 0.3)
    incr = np.stack([rng.normal(-0.001, 0.02, 5000), rng.normal(-0.002, 0.03, 5000)])
    expo = rng.standard_exponential((2, 5000))
    var_h = np.array([[0.02**2], [0.03**2]])
    z_fast, dl_fast, total = _blocked_kernel(z0, incr, expo, var_h, 97)
    z_one, dl_one, total_one = _blocked_kernel(z0, incr, expo, var_h, incr.shape[1])
    for i in range(2):
        z_ref, dl_ref = _sequential_reference(z0[i], incr[i], expo[i], var_h[i, 0])
        assert np.max(np.abs(z_fast[i] - z_ref)) < 1e-11
        assert abs(dl_fast[i].sum() - dl_ref.sum()) < 1e-11
        assert abs(total[i] - dl_ref.sum()) < 1e-11
        # the regulator moves only at real hits, by the reference's amount
        assert np.all(dl_fast[i][dl_ref == 0] == 0)
        assert np.max(np.abs(dl_fast[i] - dl_ref)) < 1e-11
        # the path has the bits of the whole-chunk formula z = T - M
        y = incr[i]
        t = np.cumsum(y)
        m = 0.5 * (y - np.sqrt(y * y + expo[i] * (2.0 * var_h[i, 0])))
        low = np.concatenate(([-z0[i]], np.concatenate(([0.0], t[:-1])) + m))
        z_chunk = t - np.minimum.accumulate(low)[1:]
        assert z_fast[i].tobytes() == z_chunk.tobytes()
    # carrying across blocks reproduces the unblocked walk bit for bit
    assert z_fast.tobytes() == z_one.tobytes()
    assert dl_fast.tobytes() == dl_one.tobytes()
    assert total.tobytes() == total_one.tobytes()


def test_bridge_minimum_law():
    rng = np.random.default_rng(12)
    n = 20000
    # never above min(0, y), over many scales and down to E = 0
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    expo = rng.standard_exponential(n) * 10.0 ** rng.uniform(-300, 0, n)
    expo[:100] = 0.0
    m = _bridge_minimum(y, expo, 0.3, np.empty(n))
    assert np.all(m <= np.minimum(0.0, y))
    # for fixed y the law is P(min <= a) = exp(-2 a (a - y) / (s h)):
    # Kolmogorov-Smirnov distance below the 1% critical value 1.63/sqrt(n)
    var_h = 0.3
    for y0 in (-0.8, 0.0, 0.5):
        y = np.full(n, y0)
        m = np.sort(_bridge_minimum(y, rng.standard_exponential(n), var_h, np.empty(n)))
        cdf = np.exp(-2.0 * m * (m - y0) / var_h)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks < 1.63 / math.sqrt(n), (y0, ks)


@pytest.mark.parametrize(
    "sigma, mu", [([[1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0]), ([[0.5, 0.0], [0.0, 2.0]], [-1.0, -0.4])]
)
def test_exact_reflection_unbiased_at_coarse_step(sigma, mu):
    # with s12 = 0 each coordinate is reflected exactly, so even a step
    # of 0.05 (|mu| h = 0.05) leaves the nine cells on the product form;
    # projected Euler misses them by about 7 stderr at h = 1e-3.  The
    # second model has s11 != s22, so each coordinate needs its own
    # variance in the bridge law.
    p = validate_parameters(sigma, mu)
    cfg = SimConfig(step=0.05, horizon=2e5, burn_in=10.0, seed=2016, batches=20)
    with pytest.warns(StepSizeWarning):
        res = simulate(p, cfg)
    forms = diagonal_closed_forms(p)
    for (a, c), (mean, se) in res.laplace_estimates.items():
        exact = forms.one_dim_phi(a, p.m1, p.s11) * forms.one_dim_phi(c, p.m2, p.s22)
        assert abs(mean - exact) < 3 * se, ((a, c), (mean - exact) / se)
    for (rate, se), m in zip(res.local_time_rates, (p.m1, p.m2)):
        assert abs(rate + m) < 3 * se


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(step=-1.0)
    with pytest.raises(ValueError):
        SimConfig(burn_in=10.0, horizon=5.0)
    with pytest.raises(ValueError):
        SimConfig(batches=1)
    for bad in (
        {"step": -1.0},
        {"step": math.nan},
        {"horizon": math.inf},
        {"burn_in": -1.0},
        {"burn_in": 10.0, "horizon": 5.0},
        {"batches": 1},
        {"seed": -1},
        # integers only: not a float, nor a string of one, nor a bool
        {"seed": 1.5},
        {"seed": "3"},
        {"batches": 2.5},
        {"seed": True},
        {"batches": True},
        # real numbers only: not a string of one, nor None
        {"step": "1"},
        {"horizon": None},
        {"burn_in": "3"},
        # a measured segment per batch shorter than one step
        {"step": 2e-3, "horizon": 1e-3, "burn_in": 0.0},
        {"step": 1.0, "horizon": 10.0, "burn_in": 9.0, "batches": 2},
    ):
        with pytest.raises(ValidationError):
            SimConfig(**bad)


def test_simulate_step_warning(diag):
    cfg = SimConfig(step=0.05, horizon=50.0, burn_in=1.0, seed=0, batches=2)
    with pytest.warns(StepSizeWarning):
        simulate(diag, cfg)


def test_simulate_matches_transform_values(diag):
    b = make_bundle(diag)
    res = simulate(diag, SMALL)
    assert len(res.laplace_estimates) == 9
    for (a, c), (mean, se) in res.laplace_estimates.items():
        exact = phi_eval(b, a, c).real
        assert abs(mean - exact) < 4 * se, ((a, c), (mean - exact) / se)
    (r1, se1), (r2, se2) = res.local_time_rates
    assert abs(r1 - 1.0) < 4 * se1
    assert abs(r2 - 1.0) < 4 * se2
    assert res.measured_time == pytest.approx(380.0, rel=1e-12)


def _assert_same_result(a, b):
    """Every SimResult field equal, bit for bit."""
    assert a.laplace_estimates == b.laplace_estimates
    assert a.local_time_rates == b.local_time_rates
    assert a.measured_time == b.measured_time
    assert a.config == b.config
    for name in ("marginal_histograms", "boundary_histograms"):
        ha, hb = getattr(a, name), getattr(b, name)
        assert ha.keys() == hb.keys()
        for key in ha:
            for xa, xb in zip(ha[key], hb[key]):
                assert xa.tobytes() == xb.tobytes(), (name, key)


def test_simulate_deterministic_and_thread_invariant(diag, monkeypatch):
    cfg = SimConfig(step=2e-4, horizon=60.0, burn_in=5.0, seed=3, batches=4)
    res1 = simulate(diag, cfg)
    res2 = simulate(diag, cfg)
    assert res1.laplace_estimates == res2.laplace_estimates
    assert res1.local_time_rates == res2.local_time_rates
    _assert_same_result(res1, res2)
    # three workers (one serves two of the four batches), then one
    monkeypatch.setattr(_points, "_cpu_count", lambda: 3)
    res3 = simulate(diag, cfg)
    assert res3.laplace_estimates == res1.laplace_estimates
    np.testing.assert_array_equal(
        res3.boundary_histograms["nu1"][1], res1.boundary_histograms["nu1"][1]
    )
    _assert_same_result(res3, res1)
    monkeypatch.setattr(_points, "_cpu_count", lambda: 1)
    _assert_same_result(simulate(diag, cfg), res1)


@pytest.mark.parametrize("burn_in", [1.234, 1.194])
def test_simulate_block_invariant(corr, monkeypatch, burn_in):
    # 1000-step chunks; burn-in ends at step 234 of the second chunk,
    # inside a 97-step block (or at step 194, on a block edge), and the
    # 7-step thinning phase shifts from chunk to chunk
    cfg = SimConfig(step=1e-3, horizon=20.0 + burn_in, burn_in=burn_in, seed=4, batches=4)
    monkeypatch.setattr(oracle, "_THIN_TIME", 0.007)
    monkeypatch.setattr(oracle, "_CHUNK", 1000)
    whole = simulate(corr, cfg)
    monkeypatch.setattr(oracle, "_BLOCK", 97)
    blocked = simulate(corr, cfg)
    _assert_same_result(blocked, whole)
    assert whole.local_time_rates[0][0] > 0 and whole.local_time_rates[1][0] > 0


class _PoolRecorder:
    """Stands in for ThreadPoolExecutor: records max_workers and runs each
    item serially in the calling thread."""

    def __init__(self, created):
        self.created = created

    def __call__(self, max_workers):
        self.created.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


TINY = SimConfig(step=1e-3, horizon=2.0, burn_in=0.5, seed=1, batches=6)


@pytest.fixture
def pools(monkeypatch):
    created = []
    monkeypatch.setattr(_points, "ThreadPoolExecutor", _PoolRecorder(created))
    return created


def test_worker_count_defaults_to_cpus_capped_by_batches(diag, pools, monkeypatch):
    # one pool per call, one CPU (taskset -c 0) included
    cpus = _points._cpu_count()
    simulate(diag, TINY)
    assert pools == [min(cpus, TINY.batches)]
    for fake_cpus, want in ((1, 1), (4, 4), (64, TINY.batches)):
        monkeypatch.setattr(_points, "_cpu_count", lambda: fake_cpus)
        pools.clear()
        simulate(diag, TINY)
        assert pools == [want]


def test_worker_count_logged_once_per_call(diag, pools, monkeypatch, caplog):
    monkeypatch.setattr(_points, "_cpu_count", lambda: 4)
    with caplog.at_level(logging.DEBUG, logger="rbmq.oracle"):
        simulate(diag, TINY)
    lines = [r.getMessage() for r in caplog.records if "worker thread" in r.getMessage()]
    assert lines == ["simulate: 4 worker thread(s) for 6 batches"]


@pytest.mark.parametrize("cpus", [1, 3])
def test_simulate_workers_keep_the_callers_errstate(diag, monkeypatch, cpus):
    # a thread starts with numpy's default error state; each worker runs
    # in a copy of the caller's context, so the caller's np.errstate holds
    seen = []
    run_batch = oracle._run_batch

    def spy(*args):
        seen.append(np.geterr()["under"])
        return run_batch(*args)

    monkeypatch.setattr(oracle, "_run_batch", spy)
    monkeypatch.setattr(_points, "_cpu_count", lambda: cpus)
    with np.errstate(under="raise"):
        simulate(diag, TINY)
    assert seen == ["raise"] * TINY.batches


def test_simulate_histograms_track_exact_densities(diag):
    # moderate run: marginal and boundary histograms within a few percent
    cfg = SimConfig(step=1e-4, horizon=2000.0, burn_in=20.0, seed=5, batches=10)
    res = simulate(diag, cfg)
    forms = diagonal_closed_forms(diag)
    lead = slice(0, 12)  # where the density is not yet tiny
    # nu1 is a law of z2 and nu2 of z1; each marginal is exponential
    exact = {
        "nu1": forms.nu1,
        "nu2": forms.nu2,
        "z1": lambda x: -2 * diag.m1 / diag.s11 * np.exp(2 * diag.m1 / diag.s11 * x),
        "z2": lambda x: -2 * diag.m2 / diag.s22 * np.exp(2 * diag.m2 / diag.s22 * x),
    }
    for name, (edges, dens) in {**res.boundary_histograms, **res.marginal_histograms}.items():
        want = exact[name](0.5 * (edges[:-1] + edges[1:]))
        rel = np.abs(dens[lead] - want[lead]) / want[lead]
        assert np.median(rel) < 0.08, name


def test_step_halving_consistency(diag):
    # weak-order sanity: halving the step moves estimates by about the
    # noise scale, not more (the two runs use independent streams, so the
    # difference itself fluctuates at sqrt(2) stderr)
    cfg1 = SimConfig(step=2e-4, horizon=800.0, burn_in=20.0, seed=9, batches=10)
    cfg2 = SimConfig(step=1e-4, horizon=800.0, burn_in=20.0, seed=9, batches=10)
    r1 = simulate(diag, cfg1)
    r2 = simulate(diag, cfg2)
    for th in r1.laplace_estimates:
        m1, s1 = r1.laplace_estimates[th]
        m2, s2 = r2.laplace_estimates[th]
        if th == (0.0, 0.0) or (s1 == 0 and s2 == 0):
            continue
        assert abs(m1 - m2) < 3.0 * math.hypot(s1, s2)


def test_talbot_on_known_transform():
    # both contours: the table's and the cross-check's
    x = np.array([0.2, 1.0, 3.0])
    for nodes in (oracle._TALBOT_NODES, oracle._CHECK_NODES):
        f_tal = _talbot_invert(lambda s: 1.0 / (s + 1.0), x, nodes=nodes)
        assert np.max(np.abs(f_tal - np.exp(-x))) < 1e-10
    with pytest.raises(ValueError):
        _talbot_invert(lambda s: 1.0 / s, [-1.0])
    with pytest.raises(ValueError):
        _talbot_invert(lambda s: 1.0 / s, [0.0], nodes=oracle._CHECK_NODES)


def test_inversion_makes_one_transform_call_per_table(corr):
    # every abscissa goes through one call per contour, with the bits of
    # inverting one abscissa at a time
    b = make_bundle(corr)
    shapes = []

    def f(s):
        shapes.append(np.shape(s))
        return phi1_eval(b, -np.asarray(s, dtype=complex))

    xs = np.linspace(0.1, 5.0, 7)
    tables = [_talbot_invert(f, xs), _talbot_invert(f, xs, nodes=oracle._CHECK_NODES)]
    assert shapes == [(7, 32), (7, 24)]
    for nodes, tab in zip((oracle._TALBOT_NODES, oracle._CHECK_NODES), tables):
        one_by_one = np.concatenate([_talbot_invert(f, [x], nodes=nodes) for x in xs])
        assert tab.tobytes() == one_by_one.tobytes()


def test_talbot_contour_cache_keeps_bits_and_grids():
    """A warm contour gives a cold one's bits; interleaved grids and node
    counts each get their own read-only table."""
    grids = [np.linspace(0.1, 5.0, 7), np.linspace(0.2, 3.0, 7)]
    big, small = oracle._TALBOT_NODES, oracle._CHECK_NODES

    def f(s):
        return 1.0 / (s + 1.0)

    cold = {}
    for i, xs in enumerate(grids):
        for nodes in (big, small):
            oracle._talbot_contour.cache_clear()
            cold[i, nodes] = _talbot_invert(f, xs, nodes=nodes)
            assert _talbot_invert(f, xs, nodes=nodes).tobytes() == cold[i, nodes].tobytes()
    oracle._talbot_contour.cache_clear()
    order = [(0, big), (1, small), (1, big), (0, small), (1, big), (0, big), (1, small), (0, small)]
    for i, nodes in order:
        xs = grids[i]
        assert _talbot_invert(f, xs, nodes=nodes).tobytes() == cold[i, nodes].tobytes()
        for table in oracle._talbot_contour(xs.tobytes(), nodes):
            assert table.shape == (xs.size, nodes)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
    assert np.max(np.abs(cold[1, 32] - np.exp(-grids[1]))) < 1e-10


def test_invert_diag_closed_form(diag):
    b = make_bundle(diag)
    xs = np.linspace(0.1, 5.0, 40)
    tab = invert_transform(b, "nu1", xs)
    exact = 2.0 * np.exp(-2.0 * xs)
    assert np.max(np.abs(tab.values - exact) / exact) < 1e-6
    tab2 = invert_transform(b, "nu2", xs)
    assert np.max(np.abs(tab2.values - exact) / exact) < 1e-6


@pytest.mark.parametrize("grid", [[], [0.5, math.nan], [0.5, math.inf], [-1.0, 0.5], [0.0]])
def test_invert_refuses_bad_grid(diag, grid):
    with pytest.raises(ValidationError, match="density grid"):
        invert_transform(make_bundle(diag), "nu1", grid)


@pytest.mark.parametrize(
    "side, grid, message",
    [
        ("nu1", np.linspace(0.5, 3.0, 6).reshape(6, 1), r"got shape \(6, 1\)"),
        ("nu1", np.linspace(0.5, 3.0, 6).reshape(2, 3), r"got shape \(2, 3\)"),
        ("nu1", np.linspace(0.5, 3.0, 6).reshape(1, 6), r"got shape \(1, 6\)"),
        ("nu1", "x", "density grid must be numeric, got 'x'"),
        ("nu3", [1.0, 2.0], "side must be 'nu1' or 'nu2', got 'nu3'"),
    ],
    ids=["column", "matrix", "row", "text", "side"],
)
def test_invert_refusals_are_typed(diag, side, grid, message):
    with pytest.raises(ValidationError, match=message):
        invert_transform(make_bundle(diag), side, grid)


def test_invert_total_mass(corr):
    # trapezoid over the table plus an exponential tail estimate
    b = make_bundle(corr)
    xs = np.linspace(1e-3, 12.0, 1200)
    tab = invert_transform(b, "nu1", xs)
    mass = np.trapezoid(tab.values, xs)
    from rbmq.asymptotics import classify_regime

    rate = classify_regime(b).decay_rate
    mass += tab.values[-1] / rate  # exponential tail beyond the grid
    assert mass == pytest.approx(-corr.m1, rel=5e-3)


def test_invert_forward_roundtrip(corr):
    # quadrature of exp(theta x) against the table recovers the transform;
    # the density has a power singularity x^(1 - pi/beta) at 0, so the
    # stub below the first grid point is integrated with the local
    # power-law exponent fitted from the table itself
    b = make_bundle(corr)
    xs = np.geomspace(1e-4, 14.0, 2800)
    tab = invert_transform(b, "nu1", xs)
    slope = np.log(tab.values[1] / tab.values[0]) / np.log(xs[1] / xs[0])
    left_stub = tab.values[0] * xs[0] / (slope + 1.0)
    for theta in (-0.5, -1.0, -2.0, -3.5, -5.0):
        val = np.trapezoid(np.exp(theta * xs) * tab.values, xs) + left_stub
        want = phi1_eval(b, theta).real
        assert val == pytest.approx(want, rel=5e-3)


def test_invert_method_disagreement_guard(diag, monkeypatch):
    # a table 5% off, checked on a correct second contour, trips the guard
    good = oracle._talbot_invert

    def corrupt(f, x, nodes=oracle._TALBOT_NODES):
        return good(f, x, nodes=nodes) * (1.05 if nodes == oracle._TALBOT_NODES else 1.0)

    monkeypatch.setattr(oracle, "_talbot_invert", corrupt)
    with pytest.raises(MethodDisagreementError):
        invert_transform(make_bundle(diag), "nu1", np.linspace(0.5, 2.0, 5))


def _drop_node(monkeypatch):
    """The table's quadrature loses its first complex node."""
    good = oracle._talbot_invert
    keep = np.arange(oracle._TALBOT_NODES) != 1

    def dropped(f, x, nodes=oracle._TALBOT_NODES):
        if nodes == oracle._TALBOT_NODES:
            return good(lambda s: f(s) * keep, x)
        return good(f, x, nodes=nodes)

    monkeypatch.setattr(oracle, "_talbot_invert", dropped)


def _shift_x10(monkeypatch):
    """Both contours shift by ten times the dominant singularity."""
    good = asymptotics.classify_regime

    def wrong(b):
        rep = good(b)
        return dataclasses.replace(rep, decay_rate=10.0 * rep.decay_rate)

    monkeypatch.setattr(asymptotics, "classify_regime", wrong)


@pytest.mark.parametrize("model", ["diag", "corr", "corr_neg", "regime1", "regime2"])
@pytest.mark.parametrize("mutate", [_drop_node, _shift_x10])
def test_invert_guard_flags_a_wrong_table(model, mutate, request, monkeypatch):
    # with the cross-check off, the mutated call refuses (a contour node
    # on a pole, say) or returns a table; every table more than 1% wrong
    # must raise once the cross-check is on
    b = make_bundle(request.getfixturevalue(model))
    xs = np.linspace(0.1, 5.0, 50)
    good = {side: invert_transform(b, side, xs).values for side in ("nu1", "nu2")}
    mutate(monkeypatch)
    shown = 0
    for side, want in good.items():
        with monkeypatch.context() as m:
            m.setattr(oracle, "_CROSS_CHECK_RTOL", math.inf)
            try:
                got = invert_transform(b, side, xs).values
            except RBMQError:
                shown += 1
                continue
        if np.max(np.abs(got / want - 1.0)) > 0.01:
            shown += 1
            with pytest.raises(MethodDisagreementError):
                invert_transform(b, side, xs)
    assert shown


def _integer_order_nu1(b, z):
    """Exact nu1 density of a model with integer pi/beta = n.

    w is T_n through the affine map x = (centre - 2 theta) / spread, so
    phi1 = c theta / (w(theta) - w(0)), c = -mu1 w'(0), is rational.
    Its poles are the roots x_k = cos(t0 + 2 pi k / n), k = 1..n-1, of
    T_n(x) = T_n(x0), with x0 = cos(t0) the image of theta = 0 (the
    family cos(-t0 + 2 pi k / n) is the same set, index n - k), and the
    density is the sum of a_k e^{-theta_k z}, a_k = -c theta_k / w'(theta_k).
    """
    n = round(b.order)
    sc = b.scalars
    centre, spread = sc.theta2_plus + sc.theta2_minus, sc.theta2_plus - sc.theta2_minus
    t0 = math.acos(centre / spread)
    theta = 0.5 * (centre - spread * np.cos(t0 + 2.0 * np.pi * np.arange(1, n) / n))
    c = -b.params.m1 * b.w1_prime0
    a = -c * theta / transform._w_deriv(b, theta + 0j).real
    return np.exp(-np.outer(z, theta)) @ a


@pytest.mark.parametrize("n", range(2, 13))
def test_invert_exact_on_integer_order(n):
    # rho = -cos(pi / n) gives pi/beta = n
    rho = -math.cos(math.pi / n)
    b = make_bundle(validate_parameters([[1.0, rho], [rho, 1.0]], [-1.0, -1.0]))
    assert b.integer_order and round(b.order) == n
    z = np.linspace(0.2, 20.0, 100)
    want = _integer_order_nu1(b, z)
    got = invert_transform(b, "nu1", z).values
    assert np.max(np.abs(got / want - 1.0)) < 1e-9


def _returns_finite_tables(p, grid):
    b = make_bundle(p)
    tables = {side: invert_transform(b, side, grid).values for side in ("nu1", "nu2")}
    assert all(np.isfinite(v).all() for v in tables.values())
    return tables


def test_invert_total_mass_small_drift():
    # a near-null mu1: nu1 has mass 0.00917 and decays slowly
    p = validate_parameters([[1.0030, -0.7093], [-0.7093, 0.5291]], [-0.00917, -0.4502])
    xs = np.linspace(1e-3, 12.0, 1200)
    nu1 = _returns_finite_tables(p, xs)["nu1"]
    rate = asymptotics.classify_regime(make_bundle(p)).decay_rate
    mass = np.trapezoid(nu1, xs) + nu1[-1] / rate
    assert mass == pytest.approx(-p.m1, rel=5e-3)


@pytest.mark.parametrize(
    "rho, grid",
    [
        (-0.999, np.linspace(0.1, 5.0, 50)),
        (-math.cos(math.pi / 8), np.linspace(1e-3, 0.1, 50)),
        (-math.cos(math.pi / 12), np.linspace(1e-3, 0.1, 50)),
    ],
    ids=["rho-0.999", "order8", "order12"],
)
def test_invert_returns_on_high_order(rho, grid):
    # pi/beta of 8, 12 and about 70: the cross-check accepts the correct
    # tables
    _returns_finite_tables(validate_parameters([[1.0, rho], [rho, 1.0]], [-1.0, -1.0]), grid)


def test_invert_refuses_non_finite_values():
    # pi/beta is about 70 here, and the closed form overflows to nan on
    # the Talbot contour of these small abscissae
    p = validate_parameters([[1.0, -0.9999], [-0.9999, 1.0]], [-1.0, -1.0])
    with pytest.raises(MethodDisagreementError, match="non-finite"):
        invert_transform(make_bundle(p), "nu1", np.geomspace(1e-5, 1e-4, 3))


def test_diagonal_closed_forms_values(diag):
    forms = diagonal_closed_forms(diag)
    assert forms.nu1(1.0) == pytest.approx(2 * np.exp(-2.0))
    # normalisation: exact integral of the product of exponentials is 1
    rate1, rate2 = -2 * diag.m1 / diag.s11, -2 * diag.m2 / diag.s22
    total = 4 * diag.m1 * diag.m2 / (diag.s11 * diag.s22) / (rate1 * rate2)
    assert total == pytest.approx(1.0, rel=1e-14)
    # one-dimensional reference transform
    assert forms.one_dim_phi(-2.0, -1.0, 1.0) == pytest.approx(0.5)


def test_diagonal_closed_forms_refusal(corr):
    with pytest.raises(NotDiagonalError):
        diagonal_closed_forms(corr)


def test_diagonal_closed_forms_constructor_refuses(corr):
    assert diagonal_closed_forms is DiagonalClosedForms
    with pytest.raises(NotDiagonalError) as direct:
        DiagonalClosedForms(corr)
    with pytest.raises(NotDiagonalError) as factory:
        diagonal_closed_forms(corr)
    assert str(direct.value) == str(factory.value) == f"s12 = {corr.s12} != 0"


def test_density_table_holds_read_only_float_copies():
    grid, values = [1, 2], [0.5, 0.25]
    tab = DensityTable(grid, values)
    for held, given in ((tab.grid, grid), (tab.values, values)):
        assert held.dtype == np.float64 and held.tolist() == given
        assert not held.flags.writeable


@pytest.mark.parametrize(
    "grid, values",
    [
        ([[1.0, 2.0]], [[0.5, 0.25]]),  # a 2-d grid
        ([1.0, 2.0, 3.0], [0.5]),  # values of another shape
    ],
    ids=["2d_grid", "shape_mismatch"],
)
def test_density_table_refuses_inconsistent_input(grid, values):
    with pytest.raises(ValidationError):
        DensityTable(grid, values)


def test_invert_table_copies_the_callers_grid(diag):
    xs = np.linspace(0.5, 2.0, 4)
    tab = invert_transform(make_bundle(diag), "nu1", xs)
    assert xs.flags.writeable and not np.shares_memory(tab.grid, xs)
    assert tab.grid.tobytes() == xs.tobytes()


def test_density_table_csv_roundtrip(diag):
    b = make_bundle(diag)
    tab = invert_transform(b, "nu1", np.linspace(0.5, 2.0, 4))
    buf = io.StringIO()
    density_table_to_csv(tab, buf)
    buf.seek(0)
    rows = list(csv.DictReader(buf))
    assert len(rows) == 4
    for row, x, v in zip(rows, tab.grid, tab.values):
        assert float(row["x"]) == x
        assert float(row["density"]) == v
        assert row["method"] == "talbot"


def test_sim_result_csv_parses(diag):
    res = simulate(diag, SimConfig(step=2e-4, horizon=30.0, burn_in=2.0, seed=1, batches=3))
    buf = io.StringIO()
    sim_result_to_csv(res, buf)
    buf.seek(0)
    rows = list(csv.DictReader(buf))
    kinds = {r["kind"] for r in rows}
    assert {"laplace", "local_time_rate", "marginal_z1", "boundary_nu1"} <= kinds
    for r in rows:
        float(r["value"])  # strict parse
