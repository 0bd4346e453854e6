"""Inputs, phases and correctness gates of the rbmq benchmark.

A workload is its own phase, run in passes over a fixed set of
operations built from the seed (run.py times the passes).  Traced runs add the
other phases once at a small fixed "probe" size, and the CLI verbs, so
that every per-layer metric has spans to come from.  The library gets
only the generated parameters and points.

Each gated unit of work is one operation.  It fails when it raises, when
the library's own check suite reports a FAIL, or when its output
disagrees with the benchmark's reference; only the last makes the run
incorrect.  A typed ComputationRefused is counted apart from failures.
Every pass repeats the same operations; an operation counts once, and
as failed if any of its runs failed, so that the counts depend on the
seed alone, never on the machine's speed.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rbmq
from rbmq import asymptotics, checks, chebyshev, kernel, oracle, transform, uniformization
from rbmq.errors import ComputationRefused

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build"

WORKLOADS = ("mc_regimes", "transform_grid", "model_sweep")
VERBS = ("analyze", "eval", "asympt", "simulate", "invert", "check")
CHECK_NAMES = (
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
    "diagonal_product_form",
)

# The three regime models of acceptance criterion 7, and its seed: the
# criterion-7 rule is a statistical test that, at this scaled-down size,
# fails on roughly one seed in eight with a correct simulator (batch-means
# stderr from 10 batches), so the seed is pinned as in the acceptance test.
MC_MODELS = (
    (asymptotics.REGIME_POLE, [[1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0]),
    (asymptotics.REGIME_SADDLE, [[1.0, 0.8], [0.8, 1.0]], [-0.5, -2.0]),
    (asymptotics.REGIME_BOUNDARY, [[1.0, 0.5], [0.5, 1.0]], [-1.0, -1.0]),
)
MC_SEED = 1107
# the probe battery of traced runs is the same in every run
PROBE_SEED = 0

# transform_grid: irrational pi/beta, pi/beta = 3 (polynomial cheb_T),
# diagonal (product form known exactly), and the saddle-regime fixture
GRID_MODELS = (
    ("generic", [[1.0, 0.4], [0.4, 1.5]], [-0.7, -1.2]),
    ("integer3", [[1.0, -0.5], [-0.5, 1.0]], [-1.0, -1.0]),
    ("diagonal", [[1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0]),
    ("saddle", [[1.0, 0.8], [0.8, 1.0]], [-0.1, -2.0]),
)

# Valid models on which `rbmq check` fails boundary_masses (ROADMAP
# item 3); always swept so that the defect shows in the failure count.
SWEEP_FIXED = (
    ([[1.0, 0.999], [0.999, 1.0]], [-0.05, -3.0]),
    ([[1.0, 0.9], [0.9, 1.0]], [-0.05, -3.0]),
    ([[1.0, -0.9], [-0.9, 1.0]], [-0.05, -3.0]),
)
SWEEP_GRID = np.linspace(0.1, 5.0, 50)

CLI_CONFIG = {"sigma": [[1.0, 0.4], [0.4, 1.5]], "mu": [-0.7, -1.2]}
CLI_EVAL_POINT = complex(-0.5, 0.25)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark command runs."""

    mc_horizon: float = 500.0
    mc_batches: int = 10
    mc_probe_horizon: float = 10.0
    grid_points: int = 100_000
    grid_scalar_calls: int = 500  # per model and evaluator, per cycle
    grid_probe_points: int = 20_000
    grid_probe_scalar_calls: int = 250
    kernel_zeros: int = 200
    sweep_models: int = 48  # the fixed members included
    sweep_probe_models: int = 20
    setups: int = 5
    overhead_pairs: int = 3


FULL = Sizes()


def mc_config(horizon: float, batches: int, seed: int = MC_SEED) -> oracle.SimConfig:
    """SimConfig with the library's default step, thinning and bins, and
    the burn-in chosen so that burn-in steps keep the default's share."""
    d = oracle.SimConfig()
    share = d.batches * d.burn_in / (d.batches * d.burn_in + d.horizon - d.burn_in)
    burn_in = share * horizon / (batches * (1.0 - share) + share)
    return oracle.SimConfig(horizon=horizon, burn_in=burn_in, batches=batches, seed=seed)


def sim_steps(cfg: oracle.SimConfig) -> tuple[int, int]:
    """(total, burn-in) Euler steps of one simulate call, counted as the
    simulator counts them."""
    n_burn = int(round(cfg.burn_in / cfg.step))
    n_meas = int(round((cfg.horizon - cfg.burn_in) / cfg.batches / cfg.step))
    return cfg.batches * (n_burn + n_meas), cfg.batches * n_burn


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _native(rng, n: int) -> np.ndarray:
    """Points of the native domain Re <= 0 (transforms of the measures)."""
    return -rng.uniform(0.0, 5.0, n) + 1j * rng.uniform(-5.0, 5.0, n)


def _curve(sigma, mu, rng, n: int) -> np.ndarray:
    """theta2 on the boundary curve: kernel zeros over real theta1 left
    of the first branch point, from the quadratic formula directly."""
    (s11, s12), (_, s22) = sigma
    m1, m2 = mu
    a = s12 * s12 - s11 * s22
    bq = s12 * m2 - s22 * m1
    theta1_minus = (-bq + math.sqrt(bq * bq - a * m2 * m2)) / a
    t1 = theta1_minus - np.exp(rng.uniform(math.log(1e-4), math.log(100.0), n))
    disc = a * t1 * t1 + 2.0 * bq * t1 + m2 * m2  # negative left of theta1_minus
    side = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return (-(s12 * t1 + m2) + 1j * side * np.sqrt(-disc)) / s22


def _swap(sigma, mu):
    return [[sigma[1][1], sigma[0][1]], [sigma[1][0], sigma[0][0]]], [mu[1], mu[0]]


def grid_inputs(rng, points: int, scalar_calls: int, kernel_zeros: int) -> list:
    """Per model: phi1/phi2 arguments (4/5 native, 1/5 boundary curve),
    native theta pairs for phi, and sphere points for kernel zeros."""
    n_curve = points // 5
    out = []
    for name, sigma, mu in GRID_MODELS:
        th2 = np.concatenate([_native(rng, points - n_curve), _curve(sigma, mu, rng, n_curve)])
        th1 = np.concatenate([_native(rng, points - n_curve), _curve(*_swap(sigma, mu), rng, n_curve)])
        s = rng.uniform(0.05, 20.0, 4 * kernel_zeros) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, 4 * kernel_zeros)
        )
        out.append(
            {
                "name": name,
                "sigma": sigma,
                "mu": mu,
                "theta2": th2,
                "theta1": th1,
                "native": points - n_curve,
                "pair1": _native(rng, points),
                "pair2": _native(rng, points),
                "scalar_calls": scalar_calls,
                "sphere": s,
                "kernel_zeros": kernel_zeros,
            }
        )
    return out


def _box_model(rng, diagonal: bool):
    """The moderate box of the test suite's random_ergodic."""
    s11, s22 = rng.uniform(0.4, 2.5, 2).tolist()
    rho = 0.0 if diagonal else float(rng.uniform(-0.85, 0.85))
    s12 = rho * math.sqrt(s11 * s22)
    return [[s11, s12], [s12, s22]], (-rng.uniform(0.3, 2.5, 2)).tolist()


def _wide_model(rng):
    """Wider admissible set: |rho| <= 0.999, drift ratio up to 100."""
    s11, s22 = rng.uniform(0.4, 2.5, 2).tolist()
    s12 = float(rng.uniform(-0.999, 0.999)) * math.sqrt(s11 * s22)
    big = float(rng.uniform(0.3, 2.5))
    small = big / 10.0 ** float(rng.uniform(0.0, 2.0))
    mu = [-big, -small] if rng.random() < 0.5 else [-small, -big]
    return [[s11, s12], [s12, s22]], mu


def sweep_inputs(rng, count: int, with_wide: bool) -> list:
    """(sigma, mu, kind, check seed) per model.

    The full sweep puts the fixed members first, then every fifth model
    from the wide set and every tenth a diagonal one; the probe sweep
    draws from the moderate box only.
    """
    out = [(s, m, "fixed", 0) for s, m in SWEEP_FIXED] if with_wide else []
    i = 0
    while len(out) < count:
        if with_wide and i % 5 == 4:
            model, kind = _wide_model(rng), "wide"
        elif i % 10 == 0:
            model, kind = _box_model(rng, diagonal=True), "diagonal"
        else:
            model, kind = _box_model(rng, diagonal=False), "box"
        out.append((*model, kind, int(rng.integers(2**31))))
        i += 1
    return out


def build_inputs(workload: str, seed: int, sizes: Sizes) -> dict:
    """The workload's own inputs, from the seed (mc_regimes: the pinned
    criterion-7 configuration)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    grid_ss, sweep_ss = np.random.SeedSequence(seed).spawn(2)
    if workload == "mc_regimes":
        return {"mc": mc_config(sizes.mc_horizon, sizes.mc_batches)}
    if workload == "transform_grid":
        rng = np.random.default_rng(grid_ss)
        return {"grid": grid_inputs(rng, sizes.grid_points, sizes.grid_scalar_calls, sizes.kernel_zeros)}
    rng = np.random.default_rng(sweep_ss)
    return {"sweep": sweep_inputs(rng, sizes.sweep_models, with_wide=True)}


def probe_inputs(sizes: Sizes) -> dict:
    """Every phase's inputs at probe size, the same in every run."""
    grid_ss, sweep_ss = np.random.SeedSequence(PROBE_SEED).spawn(2)
    return {
        "mc": mc_config(sizes.mc_probe_horizon, sizes.mc_batches),
        "grid": grid_inputs(
            np.random.default_rng(grid_ss),
            sizes.grid_probe_points,
            sizes.grid_probe_scalar_calls,
            sizes.kernel_zeros,
        ),
        "sweep": sweep_inputs(np.random.default_rng(sweep_ss), sizes.sweep_probe_models, with_wide=False),
    }


# ---------------------------------------------------------------------------
# Run state
# ---------------------------------------------------------------------------


class Stats:
    """Operation outcomes, timings and failure reasons of one run.

    `ops[(phase, key)]` is [failed, wrong, refused] for each distinct
    operation, `op_seconds[(phase, key)]` the wall times of its runs;
    `samples[metric]` holds the other timings taken.

    `reference`, when given, is (timed call, nominal seconds): the call
    is made right after every operation, its times go to
    `samples["reference_s"]`, and `op_scaled[(phase, key)]` gets each
    run's time divided by the mean of the reference times just before
    and just after it, times the nominal seconds.  Without a reference,
    `op_scaled` holds the wall times.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.ops: dict = {}
        self.op_seconds: dict = defaultdict(list)
        self.op_scaled: dict = defaultdict(list)
        self._last_reference = None
        self.errors: Counter = Counter()
        self.check_failures: Counter = Counter()
        self.kinds: Counter = Counter()
        self.samples: dict = defaultdict(list)
        self.transform_calls: list = []
        self.reasons: list = []

    def first(self, phase: str, key) -> bool:
        """True until operation `key` of `phase` has been recorded."""
        return (phase, key) not in self.ops

    def op(self, phase: str, key, failures: list, wrong: list) -> None:
        """Record one gated run of an operation: `failures` are reported
        by the library, `wrong` are disagreements with a benchmark
        reference."""
        first = self.first(phase, key)
        rec = self.ops.setdefault((phase, key), [False, False, False])
        if (failures or wrong) and first:
            self._note(f"{phase}: " + "; ".join(failures + wrong))
        rec[0] |= bool(failures or wrong)
        rec[1] |= bool(wrong)

    def refuse(self, phase: str, key, reason: str) -> None:
        """A typed refusal: attempted, but neither failed nor wrong."""
        if self.first(phase, key):
            self._note(f"{phase} refused: {reason}")
        self.ops.setdefault((phase, key), [False, False, False])[2] = True

    def count(self, field: int | None = None) -> Counter:
        """Per phase: operations attempted (field None), or those whose
        field (0 failed, 1 wrong, 2 refused) is set."""
        return Counter(ph for (ph, _), rec in self.ops.items() if field is None or rec[field])

    def timed(self, metric: str, value: float) -> None:
        self.samples[metric].append(value)

    def op_time(self, phase: str, key, seconds: float) -> float:
        self.op_seconds[(phase, key)].append(seconds)
        scaled = seconds
        if self.reference is not None:
            call, nominal = self.reference
            ref = call()
            self.samples["reference_s"].append(ref)
            around = ref if self._last_reference is None else 0.5 * (self._last_reference + ref)
            scaled = seconds / around * nominal
            self._last_reference = ref
        self.op_scaled[(phase, key)].append(scaled)
        return seconds

    def _note(self, reason: str) -> None:
        if len(self.reasons) < 40:
            self.reasons.append(reason)


class CallCounter:
    """Counts calls through a wrapped function (traced runs only)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@dataclass
class Context:
    tracer: object
    stats: Stats
    counter: CallCounter | None = None


def _rel(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


def _timed(ctx: Context, name: str, fn, *args, **attrs):
    """Call fn inside a span; return (result, seconds spent in the call)."""
    with ctx.tracer.span(name, **attrs):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
    return out, dt


# ---------------------------------------------------------------------------
# mc_regimes: criterion 7 scaled down
# ---------------------------------------------------------------------------


def mc_pass(ctx: Context, cfg: oracle.SimConfig, strict: bool) -> float:
    """Simulate the three regime models and gate them against phi_eval;
    returns the pass's wall time.

    strict applies the criterion-7 rule (at least 25 of 27 cells within
    3 stderr, every local-time rate z-score within 3); the probe pass is
    too short for that and is checked for valid ranges only.
    """
    tr = ctx.tracer
    steps, burn = sim_steps(cfg)
    wrong: list = []
    cells = bad_cells = 0
    t0 = time.perf_counter()
    with tr.span("bench.mc_pass"):
        for regime, sigma, mu in MC_MODELS:
            t_model = time.perf_counter()
            with tr.span("model.validate_parameters"):
                p = rbmq.validate_parameters(sigma, mu)
            with tr.span("transform.make_bundle"):
                b = transform.make_bundle(p)
            with tr.span("asymptotics.classify_regime"):
                got_regime = asymptotics.classify_regime(b).regime
            if got_regime != regime:
                wrong.append(f"{regime} model classified as {got_regime}")
            with tr.span("oracle.simulate", steps=steps, burn_steps=burn):
                res = oracle.simulate(p, cfg)
            for (a, c), (mean, se) in res.laplace_estimates.items():
                with tr.span("transform.phi_eval.scalar"):
                    exact = transform.phi_eval(b, a, c).real
                cells += 1
                if strict:
                    bad_cells += not abs(mean - exact) <= 3.0 * se
                elif not 0.0 < mean <= 1.0:
                    wrong.append(f"{regime} cell ({a}, {c}) = {mean} outside (0, 1]")
            ctx.stats.op_time("mc", (regime, strict), time.perf_counter() - t_model)
            for (rate, se), m in zip(res.local_time_rates, (p.m1, p.m2)):
                if strict and not abs(rate + m) <= 3.0 * se:
                    wrong.append(f"{regime} rate z-score {abs(rate + m) / se:.2f} > 3")
                if not rate > 0.0:
                    wrong.append(f"{regime} local-time rate {rate} not positive")
    dt = time.perf_counter() - t0
    ctx.stats.timed("mc_pass_s", dt)
    if strict and bad_cells > cells - 25:
        wrong.append(f"{cells - bad_cells}/{cells} cells within 3 stderr (need 25)")
    ctx.stats.op("mc", "strict" if strict else "probe", [], wrong)
    return dt


# ---------------------------------------------------------------------------
# transform_grid: closed forms on complex grids
# ---------------------------------------------------------------------------


def prepare_grid(inputs: list) -> list:
    """Bundles, Chebyshev arguments and kernel zeros, made once per run."""
    out = []
    for m in inputs:
        p = rbmq.validate_parameters(m["sigma"], m["mu"])
        b = transform.make_bundle(p)
        sc = b.scalars
        x = -(2.0 * m["theta2"] - (sc.theta2_plus + sc.theta2_minus)) / (
            sc.theta2_plus - sc.theta2_minus
        )
        k1, k2 = uniformization.theta_of_s(b, m["sphere"])
        keep = (k1.real < -1e-3) & (k2.real < -1e-3) & (np.abs(k1) > 1e-6) & (np.abs(k2) > 1e-6)
        n = m["kernel_zeros"]
        out.append({**m, "p": p, "b": b, "x": x, "k1": k1[keep][:n], "k2": k2[keep][:n]})
    return out


def diagonal_phi(p, t1, t2):
    """Product form of the diagonal-covariance transform (reference)."""
    r1 = 2.0 * p.m1 / p.s11
    r2 = 2.0 * p.m2 / p.s22
    return r1 / (t1 + r1) * r2 / (t2 + r2)


def grid_block(ctx: Context, m: dict) -> float:
    """One model's array and scalar evaluations, then its gates; returns
    the wall time of the evaluations."""
    tr, s = ctx.tracer, ctx.stats
    p, b = m["p"], m["b"]
    th1, th2, t1, t2 = m["theta1"], m["theta2"], m["pair1"], m["pair2"]
    n = th2.size
    t0 = time.perf_counter()
    with tr.span("bench.grid_block"):
        v1, d1 = _timed(ctx, "transform.phi1_eval", transform.phi1_eval, b, th2, points=n)
        v2, d2 = _timed(ctx, "transform.phi2_eval", transform.phi2_eval, b, th1, points=n)
        v, d3 = _timed(ctx, "transform.phi_eval", transform.phi_eval, b, t1, t2, points=n)
        s.timed("grid_points", 3 * n)
        s.timed("grid_seconds", d1 + d2 + d3)
        with tr.span("transform.w_eval", points=n):
            w = transform.w_eval(b, th2)
        order = b.scalars.pi_over_beta
        kind = "int" if chebyshev.is_integer_order(order) else "nonint"
        with tr.span("chebyshev.cheb_T", points=n, order=kind):
            cheb = chebyshev.cheb_T(order, m["x"])
        with tr.span("kernel.gamma", points=n):
            g = kernel.gamma(p, t1, t2)

        k = m["scalar_calls"]
        sv = np.empty(k, dtype=complex)
        sv1 = np.empty(k, dtype=complex)
        for i in range(k):
            a, c = complex(t1[i]), complex(t2[i])
            sv[i], dt = _timed(ctx, "transform.phi_eval.scalar", transform.phi_eval, b, a, c)
            s.timed("scalar_call_s", dt)
            with tr.span("transform.phi1_eval.scalar"):
                sv1[i] = transform.phi1_eval(b, complex(th2[i]))

        with tr.span("transform.psi_eval"):
            psi1 = transform.psi1_eval(b, m["k2"])
            psi2 = transform.psi2_eval(b, m["k1"])
        with tr.span("transform.phi_eval.scalar"):
            origin = transform.phi_eval(b, 0.0, 0.0)
    dt = ctx.stats.op_time("grid", m["name"], time.perf_counter() - t0)

    with tr.span("bench.gate"):
        wrong = grid_gates(m, v1, v2, v, w, cheb, g, sv, sv1, psi1, psi2, origin)
    s.op("grid", m["name"], [], wrong)
    return dt


def grid_gates(m, v1, v2, v, w, cheb, g, sv, sv1, psi1, psi2, origin) -> list:
    p = m["p"]
    k, nat = m["scalar_calls"], m["native"]
    t1, t2 = m["pair1"], m["pair2"]
    name = m["name"]
    wrong = []

    def need(ok, what):
        if not ok:
            wrong.append(f"{name}: {what}")

    need(all(np.isfinite(a).all() for a in (v1, v2, v, w, cheb, g)), "non-finite output")
    # transforms of (probability) measures are bounded on Re <= 0
    slack = 1.0 + 1e-9
    need(np.abs(v1[:nat]).max() <= abs(p.m1) * slack, "|phi1| above the boundary mass")
    need(np.abs(v2[:nat]).max() <= abs(p.m2) * slack, "|phi2| above the boundary mass")
    need(np.abs(v).max() <= slack, "|phi| above 1")
    need(_rel(sv, v[:k]) <= 1e-12, "scalar phi_eval differs from the array call")
    need(_rel(sv1, v1[:k]) <= 1e-12, "scalar phi1_eval differs from the array call")
    g_ref = (
        0.5 * (p.s11 * t1 * t1 + 2.0 * p.s12 * t1 * t2 + p.s22 * t2 * t2) + p.m1 * t1 + p.m2 * t2
    )
    scale = (1.0 + np.abs(t1) ** 2 + np.abs(t2) ** 2) * p.scale
    need(np.max(np.abs(g - g_ref) / scale) <= 1e-12, "gamma differs from the quadratic form")
    a = m["b"].scalars.pi_over_beta
    need(_rel(cheb, np.cos(a * np.arccos(m["x"]))) <= 1e-12, "cheb_T differs from cos(a arccos x)")
    if p.s12 == 0.0:
        need(_rel(v, diagonal_phi(p, t1, t2)) <= 1e-12, "phi differs from the product form")
    res = np.max(np.abs(psi1 + psi2) / np.maximum(np.abs(psi1), np.abs(psi2)))
    need(res <= 1e-9, f"psi1 + psi2 = {res:.2e} at kernel zeros")
    need(abs(origin - 1.0) <= 1e-12, f"phi(0, 0) = {origin}")
    return wrong


def grid_cycle(ctx: Context, prepared: list) -> float:
    """One block per model of the set; returns the blocks' wall time."""
    with ctx.tracer.span("bench.grid_cycle"):
        return sum(grid_block(ctx, m) for m in prepared)


# ---------------------------------------------------------------------------
# model_sweep: the library calls behind analyze, asympt, invert and check
# ---------------------------------------------------------------------------


def _invert(ctx: Context, b, side: str):
    counter = ctx.counter
    before = counter.calls if counter else 0
    with ctx.tracer.span("oracle.invert_transform", side=side):
        table = oracle.invert_transform(b, side, SWEEP_GRID)
    if counter:
        ctx.stats.transform_calls.append(counter.calls - before)
    return table


def sweep_model(ctx: Context, key, item) -> float:
    """The pipeline for one model, then its gates; returns the wall time
    of the library calls.  Per-kind and per-check counts are taken on
    the model's first run only."""
    tr, s = ctx.tracer, ctx.stats
    sigma, mu, kind, check_seed = item
    first = s.first("sweep", key)
    s.kinds[kind] += first
    wrong: list = []
    failures: list = []
    t0 = time.perf_counter()
    try:
        with tr.span("bench.sweep_model"):
            with tr.span("model.validate_parameters"):
                p = rbmq.validate_parameters(sigma, mu)
            with tr.span("transform.make_bundle"):
                b = transform.make_bundle(p)
            with tr.span("uniformization.group_order"):
                group = uniformization.group_order(b)
            with tr.span("uniformization.classify_solution_nature"):
                nature = uniformization.classify_solution_nature(b)
            with tr.span("asymptotics.classify_regime"):
                report = asymptotics.classify_regime(b)
            tables = {side: _invert(ctx, b, side) for side in ("nu1", "nu2")}
            with tr.span("checks.run_checks"):
                results = checks.run_checks(p, seed=check_seed)
    except ComputationRefused as exc:
        s.refuse("sweep", key, f"{kind} {sigma} {mu}: {type(exc).__name__}: {exc}")
        results = None
    except Exception as exc:  # any other error is a failed operation, and the sweep goes on
        s.errors[type(exc).__name__] += first
        s.op("sweep", key, [f"{kind} {sigma} {mu}: {type(exc).__name__}: {exc}"], [])
        results = None
    finally:
        dt = s.op_time("sweep", key, time.perf_counter() - t0)
        s.timed("sweep_model_s", dt)
    if results is None:
        return dt

    with tr.span("bench.gate"):
        for r in results:
            if not r.passed:
                s.check_failures[r.name] += first
                failures.append(f"{kind} {sigma} {mu}: check {r.name} residual {r.residual:.2e}")
        if report.regime not in (
            asymptotics.REGIME_POLE,
            asymptotics.REGIME_SADDLE,
            asymptotics.REGIME_BOUNDARY,
        ) or not 0.0 < report.decay_rate < math.inf:
            wrong.append(f"{sigma} {mu}: regime {report.regime} rate {report.decay_rate}")
        if group.finite != (nature != "transcendental_D_finite"):
            wrong.append(f"{sigma} {mu}: group finite={group.finite} but nature {nature}")
        if not all(np.isfinite(t.values).all() for t in tables.values()):
            wrong.append(f"{sigma} {mu}: non-finite inverted density")
        if p.s12 == 0.0:
            forms = oracle.diagonal_closed_forms(p)
            dev = max(
                _rel(tables["nu1"].values, forms.nu1(SWEEP_GRID)),
                _rel(tables["nu2"].values, forms.nu2(SWEEP_GRID)),
            )
            if not dev <= 1e-6:
                wrong.append(f"{sigma} {mu}: inversion off the diagonal closed form by {dev:.2e}")
    s.op("sweep", key, failures, wrong)
    return dt


def sweep_pass(ctx: Context, items: list) -> float:
    """Every model of the set once; returns the pipelines' wall time."""
    with ctx.tracer.span("bench.sweep_pass"):
        return sum(sweep_model(ctx, key, item) for key, item in enumerate(items))


# ---------------------------------------------------------------------------
# CLI verbs as subprocesses
# ---------------------------------------------------------------------------


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_timed(argv: list, env: dict) -> tuple[subprocess.CompletedProcess, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    return proc, time.perf_counter() - t0


def _verb_output_wrong(verb: str, out: str) -> str | None:
    """None when the verb's stdout is what it should be."""
    b = transform.make_bundle(rbmq.params_from_dict(CLI_CONFIG))
    if verb in ("analyze", "asympt"):
        regime = json.loads(out)["regime"]
        want = asymptotics.classify_regime(b).regime
        return None if regime == want else f"regime {regime}, library says {want}"
    if verb == "eval":
        val = json.loads(out)["value"]
        want = transform.phi1_eval(b, CLI_EVAL_POINT)
        dev = abs(complex(val["re"], val["im"]) - want) / abs(want)
        return None if dev <= 1e-15 else f"value off the library's by {dev:.1e}"
    rows = out.strip().splitlines()
    if verb == "simulate":
        cells = [float(r.split(",")[3]) for r in rows[1:] if r.startswith("laplace,")]
        return None if len(cells) == 9 and all(0.0 < c <= 1.0 for c in cells) else "bad cells"
    if verb == "invert":
        vals = [float(r.split(",")[1]) for r in rows[1:]]
        return None if len(vals) == 50 and all(map(math.isfinite, vals)) else "bad table"
    n_checks, _, rest = rows[-1].partition("/")
    return None if rest == f"{n_checks} checks passed" else rows[-1]


def cli_phase(ctx: Context) -> None:
    """Import cost, then each verb once on the fixed config."""
    env = subprocess_env()
    py = sys.executable
    with ctx.tracer.span("cli.import"):
        proc, dt = _run_timed([py, "-c", "import rbmq.cli"], env)
    ctx.stats.timed("cli.import_s", dt)
    ctx.stats.op("cli", "import", [] if proc.returncode == 0 else ["import rbmq.cli failed"], [])
    sim = mc_config(20.0, 10)
    extra = {
        "eval": ["--fn", "phi1", "--re", repr(CLI_EVAL_POINT.real), "--im", repr(CLI_EVAL_POINT.imag)],
        "simulate": ["--horizon", repr(sim.horizon), "--burn-in", repr(sim.burn_in),
                     "--batches", str(sim.batches), "--seed", str(MC_SEED)],
    }
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        config = Path(tmp) / "model.json"
        config.write_text(json.dumps(CLI_CONFIG), encoding="utf-8")
        for verb in VERBS:
            argv = [py, "-m", "rbmq.cli", verb, "--config", str(config), *extra.get(verb, [])]
            with ctx.tracer.span(f"cli.{verb}"):
                proc, dt = _run_timed(argv, env)
            ctx.stats.timed("cli_verb_s", dt)
            ctx.stats.timed(f"cli.{verb}_s", dt)
            if proc.returncode != 0:
                ctx.stats.op("cli", verb, [f"{verb} exit {proc.returncode}: {proc.stderr[-200:]}"], [])
                continue
            try:
                problem = _verb_output_wrong(verb, proc.stdout)
            except (ValueError, KeyError, IndexError) as exc:
                problem = f"unparseable output ({exc})"
            ctx.stats.op("cli", verb, [], [f"{verb}: {problem}"] if problem else [])
