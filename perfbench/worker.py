"""One repetition of a workload, in a fresh interpreter.

run.py starts this script once per repetition; it is not meant to be run by
hand.  The program is imported first, before anything of the benchmark's
own, so that the import stamp measures what a CLI user waits for.  The last
line on stdout is one JSON object with the timings, the operation counts,
the check results and, with --trace, the per-layer metrics.
"""

import os
import sys
import time


def _argv_value(flag):
    return sys.argv[sys.argv.index(flag) + 1]


TRACED = "--trace" in sys.argv
if TRACED:
    # run.py starts traced repetitions with -X importtime, which writes to
    # file descriptor 2; keep the lines of the program's import apart.
    _log = open(os.path.join(_argv_value("--out-dir"), "importtime.log"), "w")
    _saved_stderr = os.dup(2)
    os.dup2(_log.fileno(), 2)
_modules_before = len(sys.modules)
_import_start = time.perf_counter()
import rotor_otto.cli  # noqa: E402

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)
IMPORT_S = time.perf_counter() - _import_start
MODULES = len(sys.modules) - _modules_before
if TRACED:
    os.dup2(_saved_stderr, 2)
    os.close(_saved_stderr)
    _log.close()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _program():
    from rotor_otto import (
        classical, cli, cycle, qelectric, qmagnetic, selftest, specfun, sweep, units,
    )

    return types.SimpleNamespace(
        cli=cli, sweep=sweep, cycle=cycle, units=units, qmagnetic=qmagnetic,
        qelectric=qelectric, classical=classical, specfun=specfun, selftest=selftest,
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scipy_import_s(path: str) -> float:
    """Self time of the numpy and scipy modules in an -X importtime log."""
    total_us = 0
    with open(path) as fh:
        for line in fh:
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name.split(".")[0] in ("numpy", "scipy"):
                try:
                    total_us += int(parts[0].split(":")[1])
                except ValueError:
                    continue
    return total_us / 1e6


class Verdicts:
    """Named check results; a check that raises counts as failed."""

    def __init__(self) -> None:
        self.items: list[tuple[str, bool, str]] = []

    def run(self, name: str, check, *args, **kwargs) -> None:
        try:
            ok, detail = check(*args, **kwargs)
        except Exception as exc:  # a check that cannot run is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        self.items.append((name, bool(ok), detail))


# ---------------------------------------------------------------- sweeps


def run_sweeps(prog, args, captured):
    """The workload's CLI sweeps, timed from the first call to the last output."""
    wall = 0.0
    failed = 0
    done = {}
    for sw in wl.SWEEPS[args.workload]:
        path = os.path.join(args.out_dir, f"{sw['name']}.{sw['fmt']}")
        argv = wl.cli_argv(sw, path)
        start = time.perf_counter()
        code = prog.cli.main(argv)
        wall += time.perf_counter() - start
        if code != 0 or len(captured) != 1:
            failed += 1
            print(f"sweep {sw['name']} exited with {code}", file=sys.stderr)
        else:
            done[sw["name"]] = (sw, path, checks.cells_from_grid(captured[0]))
        captured.clear()
    peak = _peak_rss_mb()
    verdicts = sweep_checks(args, done)
    if failed:
        verdicts.items.append(("sweeps", False, f"{failed} CLI sweeps failed"))
    return dict(wall_s=wall, peak_rss_mb=peak, attempted=len(wl.SWEEPS[args.workload]),
                failed=failed, checks=verdicts.items)


def sweep_checks(args, done) -> Verdicts:
    v = Verdicts()
    for name, (sw, path, cells) in done.items():
        xs, ys = np.linspace(*sw["lam"]), np.linspace(*sw["tau"])
        spec = wl.spec_dict(sw)
        v.run(f"{name}.axes", checks.check_axes, cells, sw["lam"], sw["tau"])
        v.run(f"{name}.cycle", checks.check_cycle_consistency, cells)
        v.run(f"{name}.boundaries", checks.check_boundaries, cells, xs, ys)
        if sw["fmt"] == "csv":
            v.run(f"{name}.csv", checks.check_csv, path, cells, spec)
        else:
            v.run(f"{name}.json", checks.check_json, path, cells, spec)
        sample = cells.take(wl.check_sample(args.seed, name, 100 if sw["machine"] == "magnetic" else 20,
                                            cells.w.size))
        if sw["machine"] == "magnetic":
            v.run(f"{name}.central_sums", checks.check_magnetic_quantum_float, cells)
            v.run(f"{name}.mp_sums", checks.check_magnetic_quantum_mp, sample)
        elif sw["model"] == "classical":
            v.run(f"{name}.closed_form", checks.check_electric_classical, cells)
            v.run(f"{name}.engine_condition", checks.check_engine_condition, cells)
        else:
            v.run(f"{name}.dense_traces", checks.check_electric_quantum_dense, sample)
    for fig in ("fig3", "fig4"):
        if f"{fig}_classical" in done and f"{fig}_quantum" in done:
            v.run(f"{fig}.quantum_disadvantage", checks.check_quantum_disadvantage,
                  done[f"{fig}_classical"][2], done[f"{fig}_quantum"][2])
    return v


# ---------------------------------------------------------------- point queries


def run_point_queries(prog, args, _captured):
    from rotor_otto.units import ConvergenceError, CyclePoint, DomainError

    queries = wl.point_queries(args.seed)
    fixed_slice = wl.failing_slice()
    taus = wl.momentum_taus(args.seed)
    sweep = prog.sweep
    reports = {pair: [] for pair in wl.PAIRS}
    raised = []
    slice_reports = []

    start = time.perf_counter()
    for pair, q in queries:
        spec = wl.PAIRS[pair]
        try:
            report = sweep.evaluate_point(spec["machine"], spec["model"], CyclePoint(*q))
        except (DomainError, ConvergenceError) as exc:
            raised.append((pair, q, repr(exc)))
            continue
        reports[pair].append(report)
    scans = [(lc, tc, *prog.qmagnetic.optimal_work_scan(lc, tc, wl.OPTIMUM_HOT_LAMBDA, wl.OPTIMUM_HOT_TAU))
             for lc, tc in wl.OPTIMUM_COLD]
    rows = sweep.momentum_curve(wl.MOMENTUM_LAMBDA, taus)
    selftest_ok = prog.selftest.run_selftest(seed=args.seed, out=io.StringIO())
    wall = time.perf_counter() - start
    peak = _peak_rss_mb()
    # The failing slice is attempted outside the timed region, so that a
    # mend of the fault it shows does not move wall_s.
    for q in fixed_slice:
        try:
            slice_reports.append(sweep.evaluate_point("magnetic", "quantum", CyclePoint(*q)))
        except (DomainError, ConvergenceError):
            slice_reports.append(None)

    v = Verdicts()
    if raised:
        v.items.append(("queries.raised", False, f"{len(raised)} seeded queries raised, first {raised[0]}"))
    cells = {pair: checks.cells_from_reports(reps, (len(reps),)) for pair, reps in reports.items()}
    for pair, c in cells.items():
        v.run(f"{pair}.cycle", checks.check_cycle_consistency, c)
    v.run("qmag.central_sums", checks.check_magnetic_quantum_float, cells["qmag"])
    v.run("qmag.mp_sums", checks.check_magnetic_quantum_mp,
          cells["qmag"].take(wl.check_sample(args.seed, "qmag", 200, len(reports["qmag"]))))
    v.run("qel.dense_traces", checks.check_electric_quantum_dense,
          cells["qel"].take(wl.check_sample(args.seed, "qel", 40, len(reports["qel"]))))
    v.run("cel.closed_form", checks.check_electric_classical, cells["cel"])
    v.run("cel.engine_condition", checks.check_engine_condition, cells["cel"])
    v.run("cmag.theorem", checks.check_magnetic_classical, cells["cmag"])
    v.run("optimum", checks.check_optimum,
          [(lc, tc, point.lambda_h, w_min) for lc, tc, point, w_min in scans],
          np.linspace(*wl.OPTIMUM_HOT_LAMBDA))
    v.run("momentum_curve", checks.check_momentum_curve, rows)
    v.items.append(("selftest", bool(selftest_ok), f"run_selftest returned {selftest_ok}"))

    # The failing slice: an operation fails when it raised or misses the
    # 30-digit sums by more than 1e-9 in Q_c or W.
    answered = [r for r in slice_reports if r is not None]
    slice_failed = len(slice_reports) - len(answered)
    if answered:
        miss = checks.magnetic_mp_miss(checks.cells_from_reports(answered, (len(answered),)))
        slice_failed += int(np.count_nonzero(~(miss <= 1e-9)))

    attempted = len(queries) + len(fixed_slice) + len(scans) + 2
    return dict(wall_s=wall, peak_rss_mb=peak, attempted=attempted,
                failed=slice_failed + len(raised), checks=v.items)


RUNNERS = {
    "fig67_magnetic": run_sweeps,
    "fig34_electric": run_sweeps,
    "point_queries": run_point_queries,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = {"imported_at": IMPORTED_AT}
    if not args.setup_only:
        prog = _program()
        captured = []
        run_sweep = prog.sweep.run_sweep

        def capturing_run_sweep(*a, **k):
            grid = run_sweep(*a, **k)
            captured.append(grid)
            return grid

        prog.sweep.run_sweep = capturing_run_sweep
        stroke_cache = prog.qelectric.pendulum_stroke_averages
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, prog)
            hits_before = stroke_cache.cache_info().hits
        out.update(RUNNERS[args.workload](prog, args, captured))
        if tracer is not None:
            layers = tracing.layer_metrics(tracer, stroke_cache.cache_info().hits - hits_before,
                                           out["wall_s"])
            layers["setup.import_s"] = IMPORT_S
            layers["setup.modules"] = MODULES
            layers["setup.scipy_import_s"] = _scipy_import_s(
                os.path.join(args.out_dir, "importtime.log"))
            out["layers"] = layers
        out["versions"] = {"python": platform.python_version(), "numpy": np.__version__,
                           "scipy": scipy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
