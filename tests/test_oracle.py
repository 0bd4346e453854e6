import csv
import io
import logging
import math

import numpy as np
import pytest

from rbmq import make_bundle, oracle, validate_parameters
from rbmq.errors import (
    MethodDisagreementError,
    NotDiagonalError,
    StepSizeWarning,
    ValidationError,
)
from rbmq.oracle import (
    SimConfig,
    density_table_to_csv,
    diagonal_closed_forms,
    invert_transform,
    sim_result_to_csv,
    simulate,
    _bridge_minimum,
    _gaver_stehfest_invert,
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
    kernel, walked block by block with its carry."""
    walk = _Skorokhod(block, var_h)
    walk.start(z0)
    z = np.empty(len(incr))
    dl = np.zeros(len(incr))
    for b0 in range(0, len(incr), block):
        part = incr[b0 : b0 + block].copy()
        walk.advance(part, expo[b0 : b0 + block].copy())
        z[b0 : b0 + part.size] = walk.path(np.arange(part.size))
        h, d = walk.hits(0)
        dl[b0 + h] = d
    return z, dl, walk.l_end


def test_lindley_matches_sequential_scheme():
    rng = np.random.default_rng(0)
    incr = rng.normal(-0.001, 0.02, 5000)
    expo = rng.standard_exponential(5000)
    var_h = 0.02**2
    for z0 in (0.0, 0.3):
        z_fast, dl_fast, total = _blocked_kernel(z0, incr, expo, var_h, 97)
        z_ref, dl_ref = _sequential_reference(z0, incr, expo, var_h)
        assert np.max(np.abs(z_fast - z_ref)) < 1e-11
        assert abs(dl_fast.sum() - dl_ref.sum()) < 1e-11
        assert abs(total - dl_ref.sum()) < 1e-11
        # the regulator moves only at real hits, by the reference's amount
        assert np.all(dl_fast[dl_ref == 0] == 0)
        assert np.max(np.abs(dl_fast - dl_ref)) < 1e-11
        # the path has the bits of the whole-chunk formula z = T - M
        t = np.cumsum(incr)
        m = 0.5 * (incr - np.sqrt(incr * incr + expo * (2.0 * var_h)))
        low = np.concatenate(([-z0], np.concatenate(([0.0], t[:-1])) + m))
        z_chunk = t - np.minimum.accumulate(low)[1:]
        assert z_fast.tobytes() == z_chunk.tobytes()
        # carrying across blocks reproduces the unblocked walk bit for bit
        z_one, dl_one, total_one = _blocked_kernel(z0, incr, expo, var_h, incr.size)
        assert z_fast.tobytes() == z_one.tobytes()
        assert dl_fast.tobytes() == dl_one.tobytes()
        assert total == total_one


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
        {"thin_time": math.nan},
        {"thin_time": math.inf},
        {"thin_time": 0.0},
        {"thin_time": -0.01},
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
    monkeypatch.setenv("RBMQ_THREADS", "3")
    res3 = simulate(diag, cfg)
    assert res3.laplace_estimates == res1.laplace_estimates
    np.testing.assert_array_equal(
        res3.boundary_histograms["nu1"][1], res1.boundary_histograms["nu1"][1]
    )
    _assert_same_result(res3, res1)
    monkeypatch.setenv("RBMQ_THREADS", "1")
    _assert_same_result(simulate(diag, cfg), res1)


@pytest.mark.parametrize("burn_in", [1.234, 1.194])
def test_simulate_block_invariant(corr, monkeypatch, burn_in):
    # 1000-step chunks; burn-in ends at step 234 of the second chunk,
    # inside a 97-step block (or at step 194, on a block edge), and the
    # 7-step thinning phase shifts from chunk to chunk
    cfg = SimConfig(step=1e-3, horizon=20.0 + burn_in, burn_in=burn_in, seed=4,
                    batches=4, thin_time=0.007)
    monkeypatch.setattr(oracle, "_CHUNK", 1000)
    whole = simulate(corr, cfg)
    monkeypatch.setattr(oracle, "_BLOCK", 97)
    blocked = simulate(corr, cfg)
    _assert_same_result(blocked, whole)
    assert whole.local_time_rates[0][0] > 0 and whole.local_time_rates[1][0] > 0


class _PoolRecorder:
    """Stands in for ThreadPoolExecutor: records max_workers and runs the
    batches serially in the calling thread."""

    def __init__(self, created):
        self.created = created

    def __call__(self, max_workers):
        self.created.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


TINY = SimConfig(step=1e-3, horizon=2.0, burn_in=0.5, seed=1, batches=6)


@pytest.fixture
def pools(monkeypatch):
    created = []
    monkeypatch.setattr(oracle, "ThreadPoolExecutor", _PoolRecorder(created))
    monkeypatch.delenv("RBMQ_THREADS", raising=False)
    return created


def test_worker_count_defaults_to_cpus_capped_by_batches(diag, pools, monkeypatch):
    cpus = oracle._cpu_count()
    simulate(diag, TINY)
    assert pools == ([min(cpus, TINY.batches)] if min(cpus, TINY.batches) > 1 else [])
    for fake_cpus, want in ((4, 4), (64, TINY.batches)):
        monkeypatch.setattr(oracle, "_cpu_count", lambda: fake_cpus)
        pools.clear()
        simulate(diag, TINY)
        assert pools == [want]


def test_rbmq_threads_lowers_but_never_raises_the_cap(diag, pools, monkeypatch):
    monkeypatch.setenv("RBMQ_THREADS", "100000")
    simulate(diag, TINY)
    assert all(n <= oracle._cpu_count() for n in pools)
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 4)
    pools.clear()
    simulate(diag, TINY)
    assert pools == [4]
    monkeypatch.setenv("RBMQ_THREADS", "3")
    pools.clear()
    simulate(diag, TINY)
    assert pools == [3]
    monkeypatch.setenv("RBMQ_THREADS", "1")
    pools.clear()
    simulate(diag, TINY)
    assert pools == []  # serial path, no pool
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 1)
    monkeypatch.delenv("RBMQ_THREADS")
    simulate(diag, TINY)
    assert pools == []


@pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
def test_rbmq_threads_must_be_a_positive_integer(diag, pools, monkeypatch, raw):
    monkeypatch.setenv("RBMQ_THREADS", raw)
    with pytest.raises(ValidationError, match="RBMQ_THREADS"):
        simulate(diag, TINY)
    assert pools == []


def test_worker_count_logged_once_per_call(diag, pools, monkeypatch, caplog):
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 4)
    with caplog.at_level(logging.DEBUG, logger="rbmq.oracle"):
        simulate(diag, TINY)
    lines = [r.getMessage() for r in caplog.records if "worker thread" in r.getMessage()]
    assert lines == ["simulate: 4 worker thread(s) for 6 batches"]


def test_simulate_histograms_track_exact_densities(diag):
    # moderate run: marginal and boundary histograms within a few percent
    cfg = SimConfig(step=1e-4, horizon=2000.0, burn_in=20.0, seed=5, batches=10)
    res = simulate(diag, cfg)
    forms = diagonal_closed_forms(diag)
    edges, dens = res.boundary_histograms["nu1"]
    centers = 0.5 * (edges[:-1] + edges[1:])
    exact = forms.nu1(centers)
    lead = slice(0, 12)  # where the density is not yet tiny
    rel = np.abs(dens[lead] - exact[lead]) / exact[lead]
    assert np.median(rel) < 0.08
    edges, dens = res.marginal_histograms["z1"]
    centers = 0.5 * (edges[:-1] + edges[1:])
    exact = -2 * diag.m1 / diag.s11 * np.exp(2 * diag.m1 / diag.s11 * centers)
    rel = np.abs(dens[lead] - exact[lead]) / exact[lead]
    assert np.median(rel) < 0.08


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


def test_talbot_and_stehfest_on_known_transform():
    x = np.array([0.2, 1.0, 3.0])
    f_tal = _talbot_invert(lambda s: 1.0 / (s + 1.0), x)
    assert np.max(np.abs(f_tal - np.exp(-x))) < 1e-10
    f_gs = _gaver_stehfest_invert(lambda s: 1.0 / (s + 1.0), x)
    assert np.max(np.abs(f_gs - np.exp(-x)) / np.exp(-x)) < 1e-3
    with pytest.raises(ValueError):
        _talbot_invert(lambda s: 1.0 / s, [-1.0])
    with pytest.raises(ValueError):
        _gaver_stehfest_invert(lambda s: 1.0 / s, [0.0])


def test_inversion_makes_one_transform_call_per_table(corr):
    # every abscissa goes through one call, with the bits of inverting
    # one abscissa at a time
    b = make_bundle(corr)
    shapes = []

    def f(s):
        shapes.append(np.shape(s))
        return phi1_eval(b, -np.asarray(s, dtype=complex))

    def f_real(s):
        return f(s).real

    xs = np.linspace(0.1, 5.0, 7)
    tal = _talbot_invert(f, xs)
    gs = _gaver_stehfest_invert(f_real, xs)
    assert shapes == [(7, 32), (7, 14)]
    one_by_one = np.concatenate([_talbot_invert(f, [x]) for x in xs])
    assert tal.tobytes() == one_by_one.tobytes()
    one_by_one = np.concatenate([_gaver_stehfest_invert(f_real, [x]) for x in xs])
    assert gs.tobytes() == one_by_one.tobytes()


def test_invert_diag_closed_form(diag):
    b = make_bundle(diag)
    xs = np.linspace(0.1, 5.0, 40)
    tab = invert_transform(b, "nu1", xs)
    exact = 2.0 * np.exp(-2.0 * xs)
    assert np.max(np.abs(tab.values - exact) / exact) < 1e-6
    assert tab.method == "talbot"
    tab2 = invert_transform(b, "nu2", xs)
    assert np.max(np.abs(tab2.values - exact) / exact) < 1e-6


@pytest.mark.parametrize("grid", [[], [0.5, math.nan], [0.5, math.inf], [-1.0, 0.5], [0.0]])
def test_invert_refuses_bad_grid(diag, grid):
    with pytest.raises(ValidationError, match="density grid"):
        invert_transform(make_bundle(diag), "nu1", grid)


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


def test_invert_method_disagreement_guard(diag):
    b = make_bundle(diag)
    xs = np.linspace(0.5, 2.0, 5)
    # an adversarial inverter mismatch: cross-check against a corrupted
    # transform must trip the guard
    from rbmq import oracle

    good = oracle._talbot_invert
    try:
        oracle._talbot_invert = lambda f, x: good(f, x) * 1.05
        with pytest.raises(MethodDisagreementError):
            invert_transform(b, "nu1", xs)
    finally:
        oracle._talbot_invert = good


def test_diagonal_closed_forms_values(diag):
    forms = diagonal_closed_forms(diag)
    assert forms.pi(0.0, 0.0) == pytest.approx(4.0)
    assert forms.nu1(1.0) == pytest.approx(2 * np.exp(-2.0))
    # product factorisation: pi = nu2(x1) nu1(x2) / (mu1 mu2)
    x1, x2 = 0.4, 1.3
    assert forms.pi(x1, x2) == pytest.approx(
        forms.nu2(x1) * forms.nu1(x2) / (diag.m1 * diag.m2), rel=1e-14
    )
    # normalisation: exact integral of the product of exponentials is 1
    rate1, rate2 = -2 * diag.m1 / diag.s11, -2 * diag.m2 / diag.s22
    total = 4 * diag.m1 * diag.m2 / (diag.s11 * diag.s22) / (rate1 * rate2)
    assert total == pytest.approx(1.0, rel=1e-14)
    # one-dimensional reference transform
    assert forms.one_dim_phi(-2.0, -1.0, 1.0) == pytest.approx(0.5)


def test_diagonal_closed_forms_refusal(corr):
    with pytest.raises(NotDiagonalError):
        diagonal_closed_forms(corr)


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
