"""Command-line front end.

Subcommands: cycle, sweep, momentum, optimum, selftest.  Reduced units
only.  stdout carries data, stderr diagnostics.  Exit codes: 0 success,
1 selftest failure, 2 usage error (an unwritable --out included),
3 numerical/convergence failure.  Each subparser names its handler, which
calls the library through its module attributes; JSON floats are written by
cycle.json_float (inf as 1e999), files by sweep's writers.
"""

from __future__ import annotations

import argparse
import sys

from . import cycle, qmagnetic, selftest, sweep
from .units import ConvergenceError, CyclePoint, DomainError

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _add_machine_model(parser):
    parser.add_argument("--machine", required=True, choices=["electric", "magnetic"])
    parser.add_argument("--model", required=True, choices=["classical", "quantum"])


def _add_strokes(parser, *strokes):
    """--lambda-<s> for each stroke s, then --tau-<s>: each stroke's control and temperature."""
    for name in ("lambda", "tau"):
        for stroke in strokes:
            parser.add_argument(f"--{name}-{stroke}", type=float, required=True)


def _add_axis(parser, name, count):
    """--<name>-min, --<name>-max and --<name>-count: a grid axis (min, max, count)."""
    parser.add_argument(f"--{name}-min", type=float, required=True)
    parser.add_argument(f"--{name}-max", type=float, required=True)
    parser.add_argument(f"--{name}-count", type=int, default=count)


def _axis(args, name):
    return tuple(getattr(args, f"{name}_{end}") for end in ("min", "max", "count"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotor-otto",
        description="Ideal Otto cycles with a classical or quantum planar rotor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cycle = sub.add_parser("cycle", help="evaluate a single cycle, JSON to stdout")
    p_cycle.set_defaults(run=_cmd_cycle)
    _add_machine_model(p_cycle)
    _add_strokes(p_cycle, "h", "c")

    p_sweep = sub.add_parser("sweep", help="grid sweep over (lambda_h, tau_h)")
    p_sweep.set_defaults(run=_cmd_sweep)
    _add_machine_model(p_sweep)
    _add_axis(p_sweep, "lambda-h", 200)
    _add_axis(p_sweep, "tau-h", 200)
    p_sweep.add_argument("--lambda-scale", choices=["linear", "log"], default="linear")
    p_sweep.add_argument("--tau-scale", choices=["linear", "log"], default="linear")
    _add_strokes(p_sweep, "c")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", required=True, choices=["csv", "json"])

    p_mom = sub.add_parser("momentum", help="thermal momentum curve, CSV")
    p_mom.set_defaults(run=_cmd_momentum)
    _add_axis(p_mom, "lambda", 301)
    p_mom.add_argument(
        "--tau", type=float, action="append", required=True, help="repeatable"
    )
    p_mom.add_argument("--out", default=None, help="default: stdout")

    p_opt = sub.add_parser("optimum", help="grid-minimize quantum magnetic work")
    p_opt.set_defaults(run=_cmd_optimum)
    _add_strokes(p_opt, "c")
    _add_axis(p_opt, "lambda-h", 201)
    _add_axis(p_opt, "tau-h", 50)

    p_self = sub.add_parser("selftest", help="run oracle cross-checks")
    p_self.set_defaults(run=_cmd_selftest)
    p_self.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_cycle(args) -> int:
    point = CyclePoint(args.lambda_h, args.lambda_c, args.tau_h, args.tau_c)
    report = sweep.evaluate_point(args.machine, args.model, point)
    sys.stdout.write(report.to_json() + "\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = sweep.SweepSpec(
        lambda_h_range=_axis(args, "lambda_h"),
        tau_h_range=_axis(args, "tau_h"),
        lambda_c=args.lambda_c,
        tau_c=args.tau_c,
        machine=args.machine,
        model=args.model,
        lambda_scale=args.lambda_scale,
        tau_scale=args.tau_scale,
    )
    grid = sweep.run_sweep(spec)
    print("sweep 100%", file=sys.stderr)
    if args.format == "csv":
        sweep.write_csv(grid, args.out)
    else:
        sweep.write_json(grid, args.out)
    return EXIT_OK


def _cmd_momentum(args) -> int:
    rows = sweep.momentum_curve(_axis(args, "lambda"), args.tau)

    def emit(fh):
        # The bytes of csv.writer: no float repr needs quoting.
        fh.write("lambda,tau,mean_lz,epsilon\r\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\r\n")

    if args.out:  # as a sweep's file: removed again if writing it fails
        sweep._write(args.out, "CSV", emit)
    else:
        emit(sys.stdout)
    return EXIT_OK


def _cmd_optimum(args) -> int:
    point, w_min = qmagnetic.optimal_work_scan(
        args.lambda_c, args.tau_c, _axis(args, "lambda_h"), _axis(args, "tau_h")
    )
    fields = point.to_dict() | {"w_min": w_min}
    sys.stdout.write("{" + ", ".join(f'"{key}": {cycle.json_float(x)}' for key, x in fields.items()) + "}\n")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    return EXIT_OK if selftest.run_selftest(seed=args.seed) else EXIT_SELFTEST


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
