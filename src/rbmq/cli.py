"""Command-line front end.

Verbs: analyze, eval, asympt, simulate, invert, check.  All verbs read
the JSON model config; numeric JSON output is printed with 17
significant digits so that re-ingesting an analyze report reproduces
identical numbers bit for bit.

Exit codes: 0 success, 1 check-suite failure, 2 invalid config or
usage, 3 computation refused (pole, cut, wrong regime, ...).
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import asymptotics, checks, kernel, oracle, transform, uniformization
from .errors import ComputationRefused, OnCutError, RBMQError, ValidationError
from .model import load_config, params_to_dict

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_REFUSED = 3


def _fmt(value) -> str:
    """JSON with floats at 17 significant digits (lossless round-trip)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, complex):
        return _fmt({"re": value.real, "im": value.imag})
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{_fmt(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialise {type(value)!r}")


def _analyze_payload(p) -> dict:
    sc = p.scalars
    payload = {
        **params_to_dict(p),
        "beta": sc.beta,
        "pi_over_beta": sc.pi_over_beta,
        "theta1_minus": sc.theta1_minus,
        "theta1_plus": sc.theta1_plus,
        "theta2_minus": sc.theta2_minus,
        "theta2_plus": sc.theta2_plus,
    }
    payload["hyperbola"] = dataclasses.asdict(kernel.hyperbola(p))
    b = transform.make_bundle(p)
    regime = asymptotics.classify_regime(b)
    payload["theta1_at_theta2_plus"] = regime.theta1_at_theta2_plus
    payload["group"] = dataclasses.asdict(uniformization.group_order(b))
    del payload["group"]["residual"]
    payload["nature"] = uniformization.classify_solution_nature(b)
    payload["regime"] = regime.regime
    payload["decay_rate"] = regime.decay_rate
    payload["w_prime_at_0"] = b.w1_prime0
    payload["boundary_masses"] = [b.phi1_at_0, b.phi2_at_0]
    return payload


def _cmd_analyze(p, args, out) -> int:
    out.write(_fmt(_analyze_payload(p)) + "\n")
    return EXIT_OK


_EVAL_FNS = {
    "phi": transform.phi_eval,
    "phi1": transform.phi1_eval,
    "phi2": transform.phi2_eval,
    "w": transform.w_eval,
    "psi1": transform.psi1_eval,
    "psi2": transform.psi2_eval,
}


def _require_finite(args, *names) -> None:
    """Refuse a NaN or infinite value of the float options `names`."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"{flag} must be finite, got {value}")


def _point(re: float, im):
    """A real-typed point when --im is omitted, so that a point on a cut
    is refused; --im 0 or --im -0 picks the side of the cut."""
    return re if im is None else complex(re, im)


def _cmd_eval(p, args, out) -> int:
    _require_finite(args, "re", "im", "re1", "im1", "re2", "im2")
    b = transform.make_bundle(p)
    if args.fn == "phi":
        if args.re1 is None or args.re2 is None:
            raise ValidationError("--fn phi needs --re1/--im1 and --re2/--im2")
        points = (_point(args.re1, args.im1), _point(args.re2, args.im2))
        named = {"theta1": complex(points[0]), "theta2": complex(points[1])}
        flags = "--im1 0 / --im1 -0 (theta1) or --im2 0 / --im2 -0 (theta2)"
    else:
        if args.re is None:
            raise ValidationError(f"--fn {args.fn} needs --re/--im")
        points = (_point(args.re, args.im),)
        named = {"arg": complex(points[0])}
        flags = "--im 0 / --im -0"
    try:
        # an overflow shows as a non-finite value, refused below; numpy's
        # warnings about it would add nothing
        with np.errstate(all="ignore"):
            val = complex(_EVAL_FNS[args.fn](b, *points))
    except OnCutError as exc:
        # the library's hint speaks of signed zeros; name the flags too
        raise OnCutError(f"{exc}; on the command line, pass {flags}") from exc
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise ComputationRefused(
            f"{args.fn} overflows double precision here (T_a of order pi/beta = "
            f"{b.order:.6g} exceeds the float range); see ROADMAP.md item 2"
        )
    out.write(_fmt({"fn": args.fn, **named, "value": val}) + "\n")
    return EXIT_OK


def _cmd_asympt(p, args, out) -> int:
    b = transform.make_bundle(p)
    payload = dataclasses.asdict(asymptotics.classify_regime(b))
    c1, c2 = payload.pop("c1"), payload.pop("c2")
    if payload["regime"] != asymptotics.REGIME_POLE:
        payload["C1"] = c1
        payload["C2"] = c2
        payload["applicable"] = "C1" if payload["regime"] == asymptotics.REGIME_SADDLE else "C2"
    out.write(_fmt(payload) + "\n")
    return EXIT_OK


def _cmd_simulate(p, args, out) -> int:
    fields = dataclasses.fields(oracle.SimConfig)
    cfg = oracle.SimConfig(**{f.name: getattr(args, f.name) for f in fields})
    result = oracle.simulate(p, cfg)
    oracle.sim_result_to_csv(result, out)
    return EXIT_OK


def _cmd_invert(p, args, out) -> int:
    _require_finite(args, "x_min", "x_max")
    if args.points < 1:
        raise ValidationError(f"density grid needs --points >= 1, got {args.points}")
    b = transform.make_bundle(p)
    grid = np.linspace(args.x_min, args.x_max, args.points)
    table = oracle.invert_transform(b, args.side, grid)
    oracle.density_table_to_csv(table, out)
    return EXIT_OK


def _cmd_check(p, args, out) -> int:
    results = checks.run_checks(p, seed=args.seed)
    for res in results:
        out.write(res.line() + "\n")
    failed = [r for r in results if not r.passed]
    out.write(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbmq",
        description="Stationary analysis of reflected Brownian motion in the quadrant",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON model config path")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("analyze", help="derived scalars, curve, group, regime")
    common(sp)

    sp = sub.add_parser("eval", help="evaluate a transform at a point")
    common(sp)
    sp.add_argument("--fn", required=True, choices=_EVAL_FNS)
    im_help = "imaginary part; if omitted the point is real and refused on a cut, "
    im_help += "while 0 or -0 picks the side of the cut"
    for suffix in ("", "1", "2"):
        sp.add_argument(f"--re{suffix}", type=float)
        sp.add_argument(f"--im{suffix}", type=float, help=im_help)

    sp = sub.add_parser("asympt", help="tail asymptotics report")
    common(sp)

    sp = sub.add_parser("simulate", help="simulate the reflected diffusion (CSV)")
    common(sp)
    for f in dataclasses.fields(oracle.SimConfig):
        sp.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)

    sp = sub.add_parser("invert", help="invert a boundary transform (CSV)")
    common(sp)
    sp.add_argument("--side", choices=oracle._SIDES, default="nu1")
    sp.add_argument("--x-min", type=float, default=0.1)
    sp.add_argument("--x-max", type=float, default=5.0)
    sp.add_argument("--points", type=int, default=50)

    sp = sub.add_parser("check", help="run the cross-module invariant suite")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)

    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "eval": _cmd_eval,
    "asympt": _cmd_asympt,
    "simulate": _cmd_simulate,
    "invert": _cmd_invert,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        params = load_config(args.config)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    # --out is written only once the verb has run (exit 0 or 1), so a
    # refused command leaves an existing file as it was
    sink = io.StringIO() if args.out else sys.stdout
    try:
        code = _COMMANDS[args.verb](params, args, sink)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except ComputationRefused as exc:
        print(f"refused: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except RBMQError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(sink.getvalue())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
