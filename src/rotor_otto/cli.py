"""Command-line front end.

Subcommands: cycle, sweep, momentum, optimum, selftest.  Reduced units
only.  stdout carries data, stderr diagnostics.  Exit codes: 0 success,
1 selftest failure, 2 usage error (an unwritable --out included),
3 numerical/convergence failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import qmagnetic, selftest, sweep
from .units import ConvergenceError, CyclePoint, DomainError

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _add_machine_model(parser):
    parser.add_argument("--machine", required=True, choices=["electric", "magnetic"])
    parser.add_argument("--model", required=True, choices=["classical", "quantum"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotor-otto",
        description="Ideal Otto cycles with a classical or quantum planar rotor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cycle = sub.add_parser("cycle", help="evaluate a single cycle, JSON to stdout")
    _add_machine_model(p_cycle)
    p_cycle.add_argument("--lambda-h", type=float, required=True, dest="lambda_h")
    p_cycle.add_argument("--lambda-c", type=float, required=True, dest="lambda_c")
    p_cycle.add_argument("--tau-h", type=float, required=True, dest="tau_h")
    p_cycle.add_argument("--tau-c", type=float, required=True, dest="tau_c")

    p_sweep = sub.add_parser("sweep", help="grid sweep over (lambda_h, tau_h)")
    _add_machine_model(p_sweep)
    p_sweep.add_argument("--lambda-h-min", type=float, required=True)
    p_sweep.add_argument("--lambda-h-max", type=float, required=True)
    p_sweep.add_argument("--lambda-h-count", type=int, default=200)
    p_sweep.add_argument("--tau-h-min", type=float, required=True)
    p_sweep.add_argument("--tau-h-max", type=float, required=True)
    p_sweep.add_argument("--tau-h-count", type=int, default=200)
    p_sweep.add_argument("--lambda-scale", choices=["linear", "log"], default="linear")
    p_sweep.add_argument("--tau-scale", choices=["linear", "log"], default="linear")
    p_sweep.add_argument("--lambda-c", type=float, required=True, dest="lambda_c")
    p_sweep.add_argument("--tau-c", type=float, required=True, dest="tau_c")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", required=True, choices=["csv", "json"])

    p_mom = sub.add_parser("momentum", help="thermal momentum curve, CSV")
    p_mom.add_argument("--lambda-min", type=float, required=True)
    p_mom.add_argument("--lambda-max", type=float, required=True)
    p_mom.add_argument("--lambda-count", type=int, default=301)
    p_mom.add_argument(
        "--tau", type=float, action="append", required=True, help="repeatable"
    )
    p_mom.add_argument("--out", default=None, help="default: stdout")

    p_opt = sub.add_parser("optimum", help="grid-minimize quantum magnetic work")
    p_opt.add_argument("--lambda-c", type=float, required=True, dest="lambda_c")
    p_opt.add_argument("--tau-c", type=float, required=True, dest="tau_c")
    p_opt.add_argument("--lambda-h-min", type=float, required=True)
    p_opt.add_argument("--lambda-h-max", type=float, required=True)
    p_opt.add_argument("--lambda-h-count", type=int, default=201)
    p_opt.add_argument("--tau-h-min", type=float, required=True)
    p_opt.add_argument("--tau-h-max", type=float, required=True)
    p_opt.add_argument("--tau-h-count", type=int, default=50)

    p_self = sub.add_parser("selftest", help="run oracle cross-checks")
    p_self.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_cycle(args) -> int:
    point = CyclePoint(args.lambda_h, args.lambda_c, args.tau_h, args.tau_c)
    report = sweep.evaluate_point(args.machine, args.model, point)
    sys.stdout.write(report.to_json() + "\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = sweep.SweepSpec(
        lambda_h_range=(args.lambda_h_min, args.lambda_h_max, args.lambda_h_count),
        tau_h_range=(args.tau_h_min, args.tau_h_max, args.tau_h_count),
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
    rows = sweep.momentum_curve((args.lambda_min, args.lambda_max, args.lambda_count), args.tau)

    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(["lambda", "tau", "mean_lz", "epsilon"])
        for row in rows:
            writer.writerow([repr(x) for x in row])

    if args.out:  # as a sweep's file: removed again if writing it fails
        sweep._write(args.out, "CSV", emit)
    else:
        emit(sys.stdout)
    return EXIT_OK


def _cmd_optimum(args) -> int:
    point, w_min = qmagnetic.optimal_work_scan(
        args.lambda_c,
        args.tau_c,
        (args.lambda_h_min, args.lambda_h_max, args.lambda_h_count),
        (args.tau_h_min, args.tau_h_max, args.tau_h_count),
    )
    json.dump(point.to_dict() | {"w_min": w_min}, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "cycle":
            return _cmd_cycle(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "momentum":
            return _cmd_momentum(args)
        if args.command == "optimum":
            return _cmd_optimum(args)
        if args.command == "selftest":
            ok = selftest.run_selftest(seed=args.seed)
            return EXIT_OK if ok else EXIT_SELFTEST
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
