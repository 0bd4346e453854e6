import argparse
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rbmq
from rbmq import cli, oracle
from rbmq.cli import main


@pytest.fixture
def diag_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"sigma": [[1.0, 0.0], [0.0, 1.0]], "mu": [-1.0, -1.0]}))
    return str(path)


@pytest.fixture
def corr_config(tmp_path):
    path = tmp_path / "corr.json"
    path.write_text(
        json.dumps({"sigma": [[1.0, 0.4], [0.4, 1.5]], "mu": [-0.7, -1.2]})
    )
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_json(diag_config, capsys):
    code, out, _ = run_cli(["analyze", "--config", diag_config], capsys)
    assert code == 0
    doc = json.loads(out)  # strict parser
    assert doc["beta"] == pytest.approx(1.5707963, abs=1e-6)
    assert doc["group"] == {
        "finite": True,
        "order": 4,
        "p": 2,
        "q": 1,
        "note": doc["group"]["note"],
    }
    assert doc["regime"] == "pole_dominant"
    assert doc["nature"] == "rational_polynomial"
    assert doc["theta2_plus"] == pytest.approx(1 + np.sqrt(2))


def test_analyze_round_trip_bit_for_bit(corr_config, capsys, tmp_path):
    code, out1, _ = run_cli(["analyze", "--config", corr_config], capsys)
    assert code == 0
    doc = json.loads(out1)
    echo = tmp_path / "echo.json"
    assert "r" not in doc
    echo.write_text(json.dumps({"sigma": doc["sigma"], "mu": doc["mu"]}))
    code, out2, _ = run_cli(["analyze", "--config", str(echo)], capsys)
    assert code == 0
    assert out1 == out2


def test_eval_phi(diag_config, capsys):
    code, out, _ = run_cli(
        ["eval", "--config", diag_config, "--fn", "phi",
         "--re1", "-2", "--im1", "0", "--re2", "-2", "--im2", "0"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["re"] == pytest.approx(0.25, rel=1e-12)


def test_eval_phi1(diag_config, capsys):
    code, out, _ = run_cli(
        ["eval", "--config", diag_config, "--fn", "phi1", "--re", "-0.5"], capsys
    )
    assert code == 0
    assert json.loads(out)["value"]["re"] == pytest.approx(0.8, rel=1e-12)


def test_eval_missing_point_is_usage_error(diag_config, capsys):
    code, _, err = run_cli(["eval", "--config", diag_config, "--fn", "phi1"], capsys)
    assert code == 2
    assert "needs" in err


def test_eval_at_pole_exit_code(diag_config, capsys):
    code, _, err = run_cli(
        ["eval", "--config", diag_config, "--fn", "phi1", "--re", "2"], capsys
    )
    assert code == 3
    assert "AtPoleError" in err


def test_eval_phi_on_kernel_curve_is_refused(diag_config, capsys):
    # (0.5, 1 - sqrt(1.75)) is a kernel zero of the diagonal model; the
    # refusal names no library keyword the command line cannot pass
    args = ["eval", "--config", diag_config, "--fn", "phi", "--re1", "0.5", "--im1", "0"]
    args += ["--re2", "-0.32287565553229536", "--im2", "0"]
    code, out, err = run_cli(args, capsys)
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("refused: OnKernelCurveError: ")
    assert "direction" not in err


def test_eval_on_cut_needs_a_side(corr_config, capsys):
    # theta2 = 5 lies on the cut of phi1: a real point is refused, and
    # the sign of a zero imaginary part picks the side
    base = ["eval", "--config", corr_config, "--fn", "phi1", "--re", "5"]
    code, out, err = run_cli(base, capsys)
    assert code == 3 and out == ""
    assert "OnCutError" in err
    # the library's message stays, and the flags that pick a side are named
    assert "pass theta2 +/- 0j to pick a side" in err
    assert "--im 0 / --im -0" in err
    sides = {}
    for im in ("0", "-0"):
        code, out, _ = run_cli([*base, "--im", im], capsys)
        assert code == 0
        sides[im] = json.loads(out)["value"]
    assert sides["0"]["re"] == sides["-0"]["re"]
    assert sides["0"]["im"] == -sides["-0"]["im"] != 0.0
    code, _, err = run_cli(
        ["eval", "--config", corr_config, "--fn", "phi", "--re1", "-1", "--re2", "5"], capsys
    )
    assert code == 3 and "OnCutError" in err
    assert "--im1 0 / --im1 -0" in err and "--im2 0 / --im2 -0" in err
    # phi2 and psi2 take theta1, so their refusal names theta1 and theta1_plus
    for fn in ("phi2", "psi2"):
        code, out, err = run_cli(
            ["eval", "--config", corr_config, "--fn", fn, "--re", "5"], capsys
        )
        assert code == 3 and out == "" and "theta2" not in err
        assert "real theta1 > 1.5458949632455699 lies on the cut; pass theta1 +/- 0j" in err
        assert "--im 0 / --im -0" in err


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sigma": [[1, 2], [2, 1]], "mu": [-1, -1]}))
    code, _, err = run_cli(["analyze", "--config", str(bad)], capsys)
    assert code == 2
    assert "det" in err
    missing = tmp_path / "missing.json"
    code, _, _ = run_cli(["analyze", "--config", str(missing)], capsys)
    assert code == 2
    bad.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(["analyze", "--config", str(bad)], capsys)
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "JSON object"),
        ({"sigma": [[1, 0], [0, 1]], "mu": ["a", -1]}, "mu must be numeric"),
        ({"sigma": [[1, 0], [0, "x"]], "mu": [-1, -1]}, "sigma must be numeric"),
        ({"sigma": [[1, 0], [0]], "mu": [-1, -1]}, "sigma must be numeric"),
        ({"sigma": [[1, 0], [0, 1]], "mu": [-1, [-1]]}, "mu must be numeric"),
        ({"sigma": [[1, 0], [0, 1]], "mu": [-1, -1, -1]}, "mu must be a 2-vector"),
        (
            {"sigma": [[1, 0], [0, 1]], "mu": [-1, -1], "r": [[1, 0.2], [0, 1]]},
            "r must be the identity",
        ),
    ],
)
def test_malformed_config_exit_code(doc, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(["analyze", "--config", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_identity_r_is_accepted(diag_config, tmp_path, capsys):
    with_r = tmp_path / "with_r.json"
    with open(diag_config, encoding="utf-8") as fh:
        doc = json.load(fh)
    with_r.write_text(json.dumps({**doc, "r": [[1, 0], [0, 1]]}))
    code, out, _ = run_cli(["analyze", "--config", str(with_r)], capsys)
    assert code == 0
    assert out == run_cli(["analyze", "--config", diag_config], capsys)[1]


def test_asympt(diag_config, capsys):
    code, out, _ = run_cli(["asympt", "--config", diag_config], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "pole_dominant"
    assert doc["constant"] == pytest.approx(2.0)


def run_cli_process(args):
    """The CLI in a fresh interpreter on this checkout's rbmq; raises
    CalledProcessError on a non-zero exit."""
    src = os.path.dirname(os.path.dirname(rbmq.__file__))
    path_dirs = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_dirs))}
    return subprocess.run(
        [sys.executable, "-m", "rbmq.cli", *args],
        capture_output=True, text=True, env=env, check=True,
    )


def test_asympt_boundary_warning_once(tmp_path):
    # a process of its own: the warning reaches stderr through logging's
    # last-resort handler, which pytest's log capture would replace
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps({"sigma": [[1, 0.5], [0.5, 1]], "mu": [-1, -1]}))
    proc = run_cli_process(["asympt", "--config", str(path)])
    assert json.loads(proc.stdout)["regime"] == "boundary_zero"
    assert proc.stderr.count("classifying as the boundary regime") == 1


def test_invert_csv(diag_config, capsys):
    code, out, _ = run_cli(
        ["invert", "--config", diag_config, "--side", "nu1",
         "--x-min", "0.5", "--x-max", "2.0", "--points", "4"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    for row in rows:
        x = float(row["x"])
        assert float(row["density"]) == pytest.approx(2 * np.exp(-2 * x), rel=1e-6)


def test_simulate_csv(diag_config, capsys):
    code, out, _ = run_cli(
        ["simulate", "--config", diag_config, "--step", "2e-4",
         "--horizon", "30", "--burn-in", "2", "--batches", "3", "--seed", "1"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert any(r["kind"] == "laplace" for r in rows)


SIM_ARGS = ["--step", "2e-4", "--horizon", "30", "--burn-in", "2", "--seed", "1"]


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--batches", "1"], "at least 2 batches"),
        (["--batches", "3", "--step", "-1"], "step and horizon must be positive"),
        (
            ["--batches", "2", "--step", "2e-3", "--horizon", "1e-3", "--burn-in", "0"],
            "at least one step",
        ),
        (["--batches", "2", "--seed", "-1"], "seed must be non-negative"),
    ],
)
def test_simulate_bad_config_exit_code(diag_config, capsys, extra, message):
    code, out, err = run_cli(
        ["simulate", "--config", diag_config, *SIM_ARGS, *extra], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_refused_command_leaves_out_file_unchanged(diag_config, tmp_path, capsys):
    target = tmp_path / "keep.csv"
    target.write_bytes(b"keep")
    code, _, err = run_cli(
        ["simulate", "--config", diag_config, *SIM_ARGS, "--batches", "1",
         "--out", str(target)],
        capsys,
    )
    assert code == 2 and err.startswith("error: ")
    assert target.read_bytes() == b"keep"
    code, out, _ = run_cli(
        ["simulate", "--config", diag_config, *SIM_ARGS, "--batches", "3",
         "--out", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    rows = list(csv.DictReader(io.StringIO(target.read_text())))
    assert any(r["kind"] == "laplace" for r in rows)
    # an --out that cannot be written is a usage error, not a traceback
    code, _, err = run_cli(
        ["analyze", "--config", diag_config, "--out", str(tmp_path / "no" / "x.json")],
        capsys,
    )
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--points", "0"], "density grid"),
        (["--x-min", "-1"], "density grid"),
        (["--x-max", "nan"], "--x-max must be finite"),
        (["--x-min", "inf"], "--x-min must be finite"),
        (["--points", "-3"], "density grid"),
        (["--points", "1000001"], "density grid"),
        (["--points", "100000000000000000000"], "density grid"),
    ],
)
def test_invert_bad_grid_exit_code(diag_config, capsys, extra, message):
    code, out, err = run_cli(["invert", "--config", diag_config, *extra], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_invert_non_finite_table_exit_code(tmp_path, capsys):
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"sigma": [[1, -0.9999], [-0.9999, 1]], "mu": [-1, -1]}))
    args = ["invert", "--config", str(path), "--x-min", "1e-5", "--x-max", "1e-4", "--points", "3"]
    code, out, err = run_cli(args, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: MethodDisagreementError: non-finite")
    assert err.count("\n") == 1  # no warning lines


def test_eval_phi1_far_out_at_large_order(tmp_path):
    # pi/beta is about 70 here and T_a overflows at theta2 = -2e5, while
    # phi1 there underflows to zero.  A process of its own: the overflow
    # warning goes to stderr, which the suite's RuntimeWarning filter
    # would turn into an exception in process.
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"sigma": [[1, -0.9999], [-0.9999, 1]], "mu": [-1, -1]}))
    proc = run_cli_process(["eval", "--config", str(path), "--fn", "phi1", "--re=-2e5"])
    value = json.loads(proc.stdout)["value"]
    assert np.isfinite(value["re"]) and np.isfinite(value["im"])


@pytest.mark.parametrize("fn", ["phi1", "w", "psi2"])
def test_eval_overflow_is_refused(tmp_path, capsys, fn):
    # T_a of order pi/beta = 222 overflows off the real axis: the value
    # would be NaN, so the verb refuses it, with no numpy warning
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"sigma": [[1, -0.9999], [-0.9999, 1]], "mu": [-1, -1]}))
    args = ["eval", "--config", str(path), "--fn", fn, "--re=-2e5", "--im=1e5"]
    code, out, err = run_cli(args, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(f"refused: ComputationRefused: {fn} overflows double precision")
    assert "ROADMAP.md item 15" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "point",
    [
        ["--fn", "phi1", "--re", "nan"],
        ["--fn", "w", "--re", "-0.5", "--im", "inf"],
        ["--fn", "phi", "--re1", "-1", "--im1", "nan", "--re2", "-1"],
        ["--fn", "phi", "--re1", "-1", "--re2=-inf"],
    ],
)
def test_eval_non_finite_point_exit_code(diag_config, capsys, point):
    code, out, err = run_cli(["eval", "--config", diag_config, *point], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be finite" in err


def test_check_exit_codes(diag_config, capsys):
    code, out, _ = run_cli(["check", "--config", diag_config, "--seed", "0"], capsys)
    assert code == 0
    assert "checks passed" in out
    assert all(line.startswith(("PASS", "FAIL")) or "checks passed" in line
               for line in out.strip().splitlines())


@pytest.mark.parametrize("scale", [1e-100, 1e100])
@pytest.mark.parametrize(
    "verb",
    [["analyze"], ["asympt"], ["check"], ["invert"], ["eval", "--fn", "phi1", "--re=-0.5"]],
    ids=lambda verb: verb[0],
)
def test_branch_points_outside_double_precision_are_refused(scale, verb, tmp_path, capsys):
    # sigma = c I, mu = -c (1, 1): at c = 1e-100 the branch-point closed
    # forms underflow to a zero spread, at 1e100 they overflow to +/-inf
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"sigma": [[scale, 0.0], [0.0, scale]], "mu": [-scale, -scale]}))
    code, out, err = run_cli([verb[0], "--config", str(path), *verb[1:]], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ComputationRefused: the theta1 branch points")
    assert "ROADMAP.md item 2a" in err
    assert err.count("\n") == 1


def test_simulate_runs_where_the_branch_points_underflow(tmp_path, capsys):
    # the simulator never reads the branch points
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"sigma": [[1e-100, 0.0], [0.0, 1e-100]], "mu": [-1e-100, -1e-100]}))
    args = ["simulate", "--config", str(path), "--horizon", "3", "--burn-in", "1", "--batches", "2"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out.startswith("kind,coord1,coord2,value,stderr")


def test_check_negative_seed_exit_code(diag_config, capsys):
    code, out, err = run_cli(["check", "--config", diag_config, "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "seed must be non-negative" in err


def test_out_file(diag_config, tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["analyze", "--config", diag_config, "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["regime"] == "pole_dominant"


def test_parser_options_come_from_the_library_tables():
    # the simulate flags are SimConfig's fields and --fn's choices the
    # eval table's keys, so neither can drift from its owner
    parser = cli._build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    sim = [
        (a.dest, a.type, a.default)
        for a in verbs.choices["simulate"]._actions
        if a.dest not in ("help", "config", "out")
    ]
    fields = dataclasses.fields(oracle.SimConfig)
    assert sim == [(f.name, type(f.default), f.default) for f in fields]
    (fn,) = [a for a in verbs.choices["eval"]._actions if a.dest == "fn"]
    assert list(fn.choices) == list(cli._EVAL_FNS)
