"""rbmq benchmark: one command, three workloads, every metric with its unit.

    python3 bench/run.py --workload mc_regimes --seed 1 --seconds 35 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run (spans kept in memory, written to
.bench_build/ when the run ends).  The last line of stdout is the
result object; the line before it is a report with machine facts,
operation counts, failure reasons and the workload's own figures.  See
bench/NOTES.md for why each workload exists.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC_FILE = HERE.parent / "BENCHMARK.json"


def _die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "rbmq" / "__init__.py").is_file():
    _die(f"no rbmq sources under {SRC}; run from a checkout of the repository")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import phases  # noqa: E402
from rbmq import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402


MODULE_LAYERS = (
    "bench", "oracle", "transform", "chebyshev", "kernel", "model",
    "asymptotics", "uniformization", "checks", "cli",
)


def reference_work() -> float:
    """Median wall time of a fixed pure-Python loop that never touches
    rbmq.  Timed right after every operation of an interpreter-bound
    workload, it samples the speed the machine gives this process at
    that moment (NOTES.md)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(3000):
            acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# Median time of reference_work on the machine the bounds were set on
# (2-core x86-64 virtual machine, Python 3.11); pass_ms is scaled to it on the
# interpreter-bound workloads.  mc_regimes is timed as it runs: each of
# its operations is seconds of array work whose wall time already
# averages the machine's speed, which a point sample would only disturb.
REFERENCE_S = 0.7e-3
SCALED = ("transform_grid", "model_sweep")


def measure_setup(workload: str, seed: int, sizes: phases.Sizes) -> float:
    """Wall time of a fresh interpreter that imports rbmq and builds the
    workload's inputs."""
    code = (
        "import json, sys; sys.path[:0] = json.loads(sys.argv[1]); "
        "import rbmq, phases; "
        "phases.build_inputs(sys.argv[2], int(sys.argv[3]), phases.Sizes(**json.loads(sys.argv[4])))"
    )
    argv = [
        sys.executable, "-c", code, json.dumps([str(SRC), str(HERE)]),
        workload, str(seed), json.dumps(sizes.__dict__),
    ]
    # Pipes, not DEVNULL: with a timeout and no pipe to watch, subprocess
    # polls for the child's exit every 50 ms, which would round set-up
    # times up to that step.
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, timeout=120, capture_output=True)
    return time.perf_counter() - t0


def one_pass(ctx: phases.Context, workload: str, inputs: dict, prepared: list):
    """The call that runs and gates the workload's fixed operation set
    once and returns the library calls' wall time: a Monte Carlo pass over
    the three regime models, a cycle over the four grid models, or a
    pass over the swept models."""
    if workload == "mc_regimes":
        return lambda: phases.mc_pass(ctx, inputs["mc"], strict=True)
    if workload == "transform_grid":
        return lambda: phases.grid_cycle(ctx, prepared)
    return lambda: phases.sweep_pass(ctx, inputs["sweep"])


def own_phase(ctx: phases.Context, one, seconds: float, setup=None, setups: int = 0) -> None:
    """Passes for `seconds`: at least one, and no further pass once the
    last one's length would carry the run past `seconds`.  `setup` runs
    `setups` times, spread evenly over the run."""
    t0 = time.perf_counter()
    done = 0
    last = 0.0
    with ctx.tracer.span("bench.run"):
        while True:
            elapsed = time.perf_counter() - t0
            if last and elapsed + last > seconds:
                break
            if done < setups and elapsed >= done * seconds / setups:
                ctx.stats.timed("setup_s", setup())
                done += 1
                continue
            ctx.stats.timed("pass_s", one())
            last = time.perf_counter() - t0 - elapsed
    for _ in range(done, setups):
        ctx.stats.timed("setup_s", setup())


def probes(ctx: phases.Context, workload: str, sizes: phases.Sizes) -> None:
    """The phases other than the workload's own, once each at probe
    size (traced runs only), so that every per-layer metric has spans."""
    battery = phases.probe_inputs(sizes)
    with ctx.tracer.span("bench.probes"):
        if workload != "mc_regimes":
            phases.mc_pass(ctx, battery["mc"], strict=False)
        if workload != "transform_grid":
            phases.grid_cycle(ctx, phases.prepare_grid(battery["grid"]))
        if workload != "model_sweep":
            phases.sweep_pass(ctx, battery["sweep"])


def rng_calibration(tracer: Tracer, repeats: int = 5) -> float:
    """ns per Euler step spent drawing normals: two standard_normal draws
    of the simulator's chunk size, timed apart from the simulator."""
    n = getattr(oracle, "_CHUNK", 1 << 21)
    rng = np.random.default_rng(0)
    times = []
    with tracer.span("bench.rng_calibration"):
        for _ in range(repeats):
            t0 = time.perf_counter()
            rng.standard_normal(n)
            rng.standard_normal(n)
            times.append(time.perf_counter() - t0)
    return statistics.median(times) / n * 1e9


def tracing_overhead(sizes: phases.Sizes) -> tuple[float, float]:
    """Traced vs untraced wall time of the same probe-size grid cycle.

    Returns (overhead in percent, overhead in ns per span)."""
    prepared = phases.prepare_grid(phases.probe_inputs(sizes)["grid"])
    timings = {False: [], True: []}
    spans = 0
    for _ in range(sizes.overhead_pairs):
        for enabled in (False, True):
            tracer = Tracer("overhead", enabled)
            ctx = phases.Context(tracer, phases.Stats())
            t0 = time.perf_counter()
            phases.grid_cycle(ctx, prepared)
            timings[enabled].append(time.perf_counter() - t0)
            spans = max(spans, len(tracer.spans))
    off = statistics.median(timings[False])
    on = statistics.median(timings[True])
    return (on / off - 1.0) * 100.0, (on - off) / spans * 1e9


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def pass_s(per_op: dict, pick=statistics.median) -> float:
    """A pass with every operation at `pick` of its runs' times."""
    return sum(pick(ts) for ts in per_op.values())


def end_to_end(stats: phases.Stats) -> dict:
    """The median set-up time, and a pass with every operation at the
    median of its runs, scaled for the machine's speed where the
    workload's operations are short (NOTES.md)."""
    return {
        "setup_s": statistics.median(stats.samples["setup_s"]),
        "pass_ms": pass_s(stats.op_scaled) * 1e3,
    }


def figures(stats: phases.Stats) -> dict:
    """The figures a run's own phase yields beyond its end-to-end
    metrics, with sample counts: printed in the report line, without a
    bound (NOTES.md says why)."""
    s = stats.samples
    out = {}
    if s["mc_pass_s"]:
        out["mc_wall_s"] = statistics.median(s["mc_pass_s"])
    if s["grid_seconds"]:
        out["grid_points_per_s"] = sum(s["grid_points"]) / sum(s["grid_seconds"])
        out["scalar_call_p50_us"] = _quantile(s["scalar_call_s"], 0.5) * 1e6
        out["scalar_call_p99_us"] = _quantile(s["scalar_call_s"], 0.99) * 1e6
        out["scalar_call_samples"] = len(s["scalar_call_s"])
    out["pass_p50_ms"] = _quantile(s["pass_s"], 0.5) * 1e3
    out["pass_wall_ms"] = pass_s(stats.op_seconds) * 1e3
    out["pass_wall_best_ms"] = pass_s(stats.op_seconds, min) * 1e3
    out["passes"] = len(s["pass_s"])
    if s["reference_s"]:
        out["reference_p50_ms"] = _quantile(s["reference_s"], 0.5) * 1e3
        out["reference_samples"] = len(s["reference_s"])
    if s["sweep_model_s"]:
        out["sweep_model_p50_ms"] = _quantile(s["sweep_model_s"], 0.5) * 1e3
        out["sweep_model_p90_ms"] = _quantile(s["sweep_model_s"], 0.9) * 1e3
        out["sweep_model_samples"] = len(s["sweep_model_s"])
    if s["cli_verb_s"]:
        out["cli_verb_p50_s"] = statistics.median(s["cli_verb_s"])
        out["cli_verb_samples"] = len(s["cli_verb_s"])
    return out


def per_layer(tracer: Tracer, stats: phases.Stats, rng_ns: float, overhead) -> dict:
    def durations(name):
        spans = tracer.by_name(name)
        if not spans:
            raise RuntimeError(f"no {name!r} span recorded")
        return [s[2] - s[1] for s in spans]

    def per_unit(name, unit, select=None):
        spans = [s for s in tracer.by_name(name) if select is None or select(s[4])]
        return sum(s[2] - s[1] for s in spans) / sum(s[4][unit] for s in spans) * 1e9

    sims = tracer.by_name("oracle.simulate")
    steps = sum(s[4]["steps"] for s in sims)
    ns_step = per_unit("oracle.simulate", "steps")
    out = {
        "oracle.simulate.ns_per_step": ns_step,
        "oracle.simulate.rng_ns_per_step": rng_ns,
        "oracle.simulate.rest_ns_per_step": ns_step - rng_ns,
        "oracle.simulate.steps": steps,
        "oracle.simulate.burn_in_share": sum(s[4]["burn_steps"] for s in sims) / steps,
        "chebyshev.cheb_T.ns_per_point.nonint": per_unit(
            "chebyshev.cheb_T", "points", lambda a: a["order"] == "nonint"
        ),
        "chebyshev.cheb_T.ns_per_point.int": per_unit(
            "chebyshev.cheb_T", "points", lambda a: a["order"] == "int"
        ),
        "transform.w_eval.ns_per_point": per_unit("transform.w_eval", "points"),
        "transform.phi1_eval.ns_per_point": per_unit("transform.phi1_eval", "points"),
        "transform.phi_eval.ns_per_point": per_unit("transform.phi_eval", "points"),
        "kernel.gamma.ns_per_point": per_unit("kernel.gamma", "points"),
        "transform.phi1_eval.scalar_us": statistics.median(durations("transform.phi1_eval.scalar")) * 1e6,
        "transform.phi_eval.scalar_us": statistics.median(durations("transform.phi_eval.scalar")) * 1e6,
        "transform.phi_eval.scalar_p99_us": _quantile(durations("transform.phi_eval.scalar"), 0.99) * 1e6,
        "sweep.model_p90_ms": _quantile(durations("bench.sweep_model"), 0.9) * 1e3,
        "transform.make_bundle_us": statistics.median(durations("transform.make_bundle")) * 1e6,
        "model.validate_parameters_us": statistics.median(durations("model.validate_parameters")) * 1e6,
        "asymptotics.classify_regime_us": statistics.median(durations("asymptotics.classify_regime")) * 1e6,
        "uniformization.group_order_us": statistics.median(durations("uniformization.group_order")) * 1e6,
        "oracle.invert_transform_ms": statistics.median(durations("oracle.invert_transform")) * 1e3,
        "oracle.invert_transform.transform_calls": statistics.median(stats.transform_calls),
        "checks.run_checks_ms": statistics.median(durations("checks.run_checks")) * 1e3,
        "sweep.refused": stats.count(2)["sweep"],
        "sweep.errors": sum(stats.errors.values()),
    }
    for name in phases.CHECK_NAMES:
        out[f"checks.failed.{name}"] = stats.check_failures[name]
    for step in ("import", *phases.VERBS):
        out[f"cli.{step}_s"] = statistics.median(stats.samples[f"cli.{step}_s"])
    self_s = dict.fromkeys(MODULE_LAYERS, 0.0)
    for name, sec in tracer.self_seconds().items():
        self_s[name.split(".")[0]] += sec
    for layer, sec in self_s.items():
        out[f"self_s.{layer}"] = sec
    out["trace.overhead_pct"], out["trace.overhead_ns_per_span"] = overhead
    out["trace.spans"] = len(tracer.spans)
    return out


def last_level_cache_bytes():
    """Size of the highest cache level cpu0 reports (Linux sysfs), or None."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * scale))
    return best[1]


def machine_facts(sizes: phases.Sizes) -> dict:
    raw = os.environ.get("RBMQ_THREADS")
    try:
        effective = int(raw or "1")
    except ValueError:
        effective = None
    chunk = getattr(oracle, "_CHUNK", 1 << 21)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "RBMQ_THREADS": raw,
        "rbmq_threads_effective": effective,
        "llc_bytes": last_level_cache_bytes(),
        "computed_bytes": {
            "simulator_chunk": chunk * 8 * 7,
            "simulator_chunk_note": "computed: steps per chunk x 8 B x 7 live float64 "
            "arrays (two normal draws, one increment, path and local time per axis)",
            "grid_array": sizes.grid_points * 16,
            "grid_inputs": len(phases.GRID_MODELS) * 4 * sizes.grid_points * 16,
            "grid_note": "computed: one complex128 array of grid_points, and the four "
            "input arrays of every grid model",
        },
    }


def _frac(attempted, failed, phase):
    return failed[phase] / attempted[phase] if attempted[phase] else None


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: phases.Sizes = phases.FULL):
    """One benchmark run; returns (result, report)."""
    if workload not in phases.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {phases.WORKLOADS}")
    run_id = f"{workload}-seed{seed}-pid{os.getpid()}"
    tracer = Tracer(run_id, enabled=trace)
    scaled = not trace and workload in SCALED
    stats = phases.Stats(reference=(reference_work, REFERENCE_S) if scaled else None)
    ctx = phases.Context(tracer, stats)
    inputs = phases.build_inputs(workload, seed, sizes)
    prepared = phases.prepare_grid(inputs["grid"]) if "grid" in inputs else []
    original = oracle.phi1_eval
    if trace:
        ctx.counter = phases.CallCounter(original)
        oracle.phi1_eval = ctx.counter
    try:
        one = one_pass(ctx, workload, inputs, prepared)
        if trace:
            own_phase(ctx, one, seconds)
            probes(ctx, workload, sizes)
        else:
            own_phase(ctx, one, seconds, lambda: measure_setup(workload, seed, sizes), sizes.setups)
        if trace or workload == "model_sweep":
            phases.cli_phase(ctx)
    finally:
        oracle.phi1_eval = original

    attempted, failed, wrong = stats.count(), stats.count(0), stats.count(1)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(sizes),
        "attempted": dict(attempted),
        "failed": dict(failed),
        "incorrect": dict(wrong),
        "mc_gate_fail_frac": _frac(attempted, failed, "mc"),
        "grid_fail_frac": _frac(attempted, failed, "grid"),
        "sweep_fail_frac": _frac(attempted, failed, "sweep"),
        "cli_fail_frac": _frac(attempted, failed, "cli"),
        "sweep_refused": stats.count(2)["sweep"],
        "sweep_errors": dict(stats.errors),
        "sweep_check_failures": dict(stats.check_failures),
        "sweep_kinds": dict(stats.kinds),
        "sweep_wide_share": (stats.kinds["wide"] + stats.kinds["fixed"]) / max(1, sum(stats.kinds.values())),
        "samples": {k: len(v) for k, v in stats.samples.items()},
        "failure_reasons": stats.reasons,
    }
    if "mc" in inputs:
        report["mc_config"] = {k: getattr(inputs["mc"], k) for k in ("step", "horizon", "burn_in", "batches", "seed")}
    if trace:
        rng_ns = rng_calibration(tracer)
        overhead = tracing_overhead(sizes)
        metrics = per_layer(tracer, stats, rng_ns, overhead)
        phases.SCRATCH.mkdir(exist_ok=True)
        trace_file = phases.SCRATCH / f"trace-{run_id}.jsonl"
        tracer.write(trace_file)
        report["trace_file"] = str(trace_file.relative_to(phases.ROOT))
        report["labels"] = {
            "oracle.simulate.rng_ns_per_step": "calibrated: two standard_normal draws "
            "of the simulator chunk size, timed apart from the simulator",
            "oracle.simulate.rest_ns_per_step": "ns_per_step minus the calibrated RNG cost",
            "self_s": "span duration minus child spans, summed per module",
        }
    else:
        metrics = end_to_end(stats)
        report["figures"] = figures(stats)
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if not trace else "per_layer"]}
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    result = {
        "correct": sum(wrong.values()) == 0,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def main(argv=None, sizes: phases.Sizes = phases.FULL) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=phases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
