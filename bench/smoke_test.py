"""Smoke test of the benchmark at tiny size.

    python3 -m pytest bench/smoke_test.py -q

Checks that every metric named in BENCHMARK.json prints with its unit
on every workload, traced and untraced; that a deliberately wrong
reference trips the failure counter; that operation counts do not
depend on the run length; and that the command refuses to run without
the library's sources.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the library's sources on sys.path)
import phases  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = phases.Sizes(
    mc_horizon=2.0,
    mc_batches=2,
    mc_probe_horizon=1.0,
    grid_points=500,
    grid_scalar_calls=10,
    grid_probe_points=200,
    grid_probe_scalar_calls=10,
    kernel_zeros=20,
    sweep_models=8,
    sweep_probe_models=3,
    setups=2,
    overhead_pairs=1,
)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", phases.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert not isinstance(got["value"], bool) and math.isfinite(got["value"])
    report = json.loads(lines[-2])["report"]
    assert report["machine"]["nproc"] >= 1


def test_wrong_reference_trips_failure_counter(monkeypatch):
    good, _ = run.run("transform_grid", 3, 0.0, False, TINY)
    assert good["correct"] and good["failed"] == 0

    reference = phases.diagonal_phi
    monkeypatch.setattr(
        phases, "diagonal_phi", lambda p, t1, t2: reference(p, t1, t2) * (1.0 + 1e-9)
    )
    bad, report = run.run("transform_grid", 3, 0.0, False, TINY)
    assert not bad["correct"]
    assert bad["failed"] >= 1
    assert bad["attempted"] == good["attempted"]
    assert any("product form" in r for r in report["failure_reasons"])


def test_counts_depend_on_the_seed_not_the_run_length():
    short, _ = run.run("model_sweep", 5, 0.0, False, TINY)
    longer, _ = run.run("model_sweep", 5, 1.0, False, TINY)
    assert (short["attempted"], short["failed"]) == (longer["attempted"], longer["failed"])


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "mc_regimes",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
