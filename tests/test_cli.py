import argparse
import dataclasses
import errno
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import rotor_otto
from rotor_otto import cli, qelectric, selftest, sweep
from rotor_otto.sweep import SweepSpec, run_sweep, write_csv

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCycleCommand:
    def test_magnetic_classical_heater(self, capsys):
        code, out, _ = run_cli(
            [
                "cycle", "--machine", "magnetic", "--model", "classical",
                "--lambda-h", "0.2", "--lambda-c", "0.485",
                "--tau-h", "1", "--tau-c", "0.5",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "Heater"
        assert report["w"] == pytest.approx(0.081225, abs=1e-12)

    def test_magnetic_quantum_engine(self, capsys):
        code, out, _ = run_cli(
            [
                "cycle", "--machine", "magnetic", "--model", "quantum",
                "--lambda-h", "0.25", "--lambda-c", "0.485",
                "--tau-h", "1", "--tau-c", "0.001",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "Engine"
        assert report["w"] < 0.0

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                [
                    "cycle", "--machine", "magnetic", "--model", "classical",
                    "--lambda-h", "0.2", "--lambda-c", "0.485", "--tau-h", "1",
                ]
            )
        assert excinfo.value.code == 2

    def test_infinite_cop_is_strict_json(self, monkeypatch, capsys):
        # A refrigerator with W = 0 exactly, as classify_modes reports it.
        evaluate_point = sweep.evaluate_point
        monkeypatch.setattr(sweep, "evaluate_point", lambda *args, **kwargs: dataclasses.replace(
            evaluate_point(*args, **kwargs), w=0.0, mode="Refrigerator", efficiency=None, cop=math.inf))
        code, out, _ = run_cli(cycle_argv("magnetic", "quantum"), capsys)
        assert code == 0 and '"cop": 1e999' in out
        # A strict (RFC 8259) reader: the constants NaN and Infinity are no JSON.
        report = json.loads(out, parse_constant=lambda name: pytest.fail(f"not JSON: {name}"))
        assert (report["w"], report["mode"], report["cop"]) == (0.0, "Refrigerator", math.inf)

    def test_overflowing_bessel_argument_takes_the_limit(self, capsys):
        # lambda_h/(2 tau_h) = 5e599 is beyond the float range; I1/I0 -> 1 there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["cycle", "--machine", "electric", "--model", "classical", "--lambda-h", "1e300",
                 "--lambda-c", "1", "--tau-h", "1e-300", "--tau-c", "1e-300"],
                capsys,
            )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["q_c"], report["q_h"], report["w"], report["mode"]) == (0.0, 0.0, 0.0, "Heater")

    def test_electric_engine_at_huge_tau_h(self, capsys):
        # The heats are +-5e14 here; W, from the Bessel ratios, keeps its digits.
        code, out, _ = run_cli(["cycle", "--machine", "electric", "--model", "classical", "--lambda-h", "0.3",
                                "--lambda-c", "0.2", "--tau-h", "1e15", "--tau-c", "0.1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "Engine"
        assert report["w"] == pytest.approx(-0.0223195, rel=1e-6)

    @pytest.mark.parametrize("machine", ["electric", "magnetic"])
    @pytest.mark.parametrize("model", ["classical", "quantum"])
    def test_equal_lambdas_print_unsigned_zero_work(self, machine, model, capsys):
        # At lambda_h = lambda_c no work is done; W is +0.0, not the -0.0 of
        # -(Q_c + Q_h) (electric) or of d (mu_h - mu_c + D) at d = 0 (quantum
        # magnetic, where mu_h - mu_c < 0 at this point).
        code, out, _ = run_cli(["cycle", "--machine", machine, "--model", model, "--lambda-h", "0.7",
                                "--lambda-c", "0.7", "--tau-h", "1", "--tau-c", "0.1"], capsys)
        assert code == 0
        assert '"w": 0.0,' in out

    def test_invalid_point_exits_2(self, capsys):
        code, _, err = run_cli(
            [
                "cycle", "--machine", "magnetic", "--model", "classical",
                "--lambda-h", "0.2", "--lambda-c", "0.485",
                "--tau-h", "0.5", "--tau-c", "1",
            ],
            capsys,
        )
        assert code == 2
        assert "error" in err


def sweep_args(out_path, fmt="csv", model="classical"):
    return [
        "sweep", "--machine", "electric", "--model", model,
        "--lambda-h-min", "1", "--lambda-h-max", "4", "--lambda-h-count", "5",
        "--tau-h-min", "1", "--tau-h-max", "3", "--tau-h-count", "4",
        "--lambda-c", "1", "--tau-c", "1",
        "--out", str(out_path), "--format", fmt,
    ]


QUANTUM_ELECTRIC_CYCLE = [
    "cycle", "--machine", "electric", "--model", "quantum",
    "--lambda-h", "3", "--lambda-c", "1", "--tau-h", "4", "--tau-c", "1",
]


@pytest.fixture
def no_eigensolve(monkeypatch):
    """Fail the test at once if any pendulum spectrum is computed."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(qelectric, "eigensolve_sym_tridiagonal", refuse)


class TestNoToleranceOption:
    @pytest.mark.parametrize("command", ["cycle", "sweep", "selftest"])
    def test_tol_is_a_usage_error(self, command, no_eigensolve, tmp_path, capsys):
        # Every pendulum stroke is certified to its own round-off, and each
        # selftest check has its own threshold: no command takes a tolerance.
        out_path = tmp_path / "x.csv"
        argv = {"cycle": QUANTUM_ELECTRIC_CYCLE, "sweep": sweep_args(out_path, model="quantum"),
                "selftest": ["selftest"]}[command]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--tol", "1e-10"])
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out) == (2, "")
        assert "unrecognized arguments: --tol 1e-10" in err
        assert not out_path.exists()


class TestPendulumCutoffCap:
    def test_tau_beyond_the_ladder_exits_3_without_a_solve(self, no_eigensolve, capsys):
        # At tau = 1e6 the ladder would start at M = 16384, whose eigenvectors
        # take gigabytes; the free-rotor tail rejects it before any solve.
        code, out, err = run_cli(
            ["cycle", "--machine", "electric", "--model", "quantum", "--lambda-h", "1",
             "--lambda-c", "0.5", "--tau-h", "1e6", "--tau-c", "1e6"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err == "numerical failure: stroke averages not converged at lambda=0.5, tau=1000000.0 up to M=4096\n"


class TestUnwritableOutput:
    def test_sweep_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(sweep_args(out), capsys)
        assert code == 2
        assert err.splitlines()[-1].startswith(f"error: failed writing CSV to {out}")

    def test_momentum_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "m.csv"
        code, stdout, err = run_cli(
            ["momentum", "--lambda-min", "0", "--lambda-max", "1", "--tau", "0.5",
             "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert err.splitlines()[-1].startswith(f"error: failed writing CSV to {out}")

    def test_momentum_failing_partway_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "m.csv"

        class FullDisk(io.TextIOWrapper):
            """A text file whose third write fails, as on a full disk."""

            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)

        # sweep._write opens the file; its writes go through FullDisk.
        monkeypatch.setattr(sweep, "open", lambda path, mode, newline: FullDisk(open(path, mode + "b"), newline=newline),
                            raising=False)
        code, stdout, err = run_cli(
            ["momentum", "--lambda-min", "0", "--lambda-max", "1", "--tau", "0.5", "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert err == "error: [Errno 28] No space left on device\n"
        assert not out.exists()


class TestSweepCommand:
    def test_writes_csv_matching_library(self, tmp_path, capsys):
        cli_out = tmp_path / "cli.csv"
        code, _, err = run_cli(sweep_args(cli_out), capsys)
        assert code == 0
        assert "100%" in err
        lib_out = tmp_path / "lib.csv"
        spec = SweepSpec(
            lambda_h_range=(1.0, 4.0, 5),
            tau_h_range=(1.0, 3.0, 4),
            lambda_c=1.0,
            tau_c=1.0,
            machine="electric",
            model="classical",
        )
        write_csv(run_sweep(spec), lib_out)
        assert cli_out.read_bytes() == lib_out.read_bytes()

    def test_writes_json(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code, _, _ = run_cli(sweep_args(out, fmt="json"), capsys)
        assert code == 0
        grid = sweep.read_json(out)
        assert len(grid.cells) == 20

    def test_zero_count_axis_exits_2(self, tmp_path, capsys):
        args = sweep_args(tmp_path / "x.csv")
        args[args.index("--lambda-h-count") + 1] = "0"
        code, _, _ = run_cli(args, capsys)
        assert code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_axis_end_exits_2(self, tmp_path, capsys):
        args = sweep_args(tmp_path / "x.csv")
        args[args.index("--lambda-h-max") + 1] = "inf"
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert err == "error: lambda_h axis needs finite min < max, got (1.0, inf)\n"
        assert not (tmp_path / "x.csv").exists()

    def test_failing_sweep_keeps_existing_output(self, tmp_path, capsys):
        out = tmp_path / "keep.csv"
        out.write_bytes(b"x\n")
        code, _, err = run_cli(
            [
                "sweep", "--machine", "magnetic", "--model", "quantum",
                "--lambda-h-min", "0", "--lambda-h-max", "0.5", "--lambda-h-count", "3",
                "--tau-h-min", "0.001", "--tau-h-max", "1", "--tau-h-count", "3",
                "--lambda-c", "0.4", "--tau-c", "0.01",
                "--out", str(out), "--format", "csv",
            ],
            capsys,
        )
        assert code == 2
        assert "tau_h=0.001" in err
        assert out.read_bytes() == b"x\n"


class TestMomentumWindowCap:
    # At tau near the float maximum the window's width sqrt(80 tau) is inf.
    @pytest.mark.parametrize("argv", [
        ["cycle", "--machine", "magnetic", "--model", "quantum", "--lambda-h", "0.3", "--lambda-c", "0.2",
         "--tau-h", "1e308", "--tau-c", "1"],
        ["momentum", "--lambda-min", "0", "--lambda-max", "1", "--lambda-count", "3", "--tau", "1e308"],
    ], ids=["cycle", "momentum"])
    def test_huge_tau_exits_3(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (3, "", "numerical failure: momentum window too wide at tau=1e+308\n")


class TestMomentumCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(
            [
                "momentum", "--lambda-min", "0", "--lambda-max", "1",
                "--lambda-count", "5", "--tau", "0.5", "--tau", "0.1",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,tau,mean_lz,epsilon"
        assert len(lines) == 1 + 2 * 5

    def test_infinite_lambda_end_exits_2(self, capsys):
        code, out, err = run_cli(["momentum", "--lambda-min", "0", "--lambda-max", "inf", "--tau", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: lambda range needs finite min < max, got (0.0, inf)\n"


class TestOptimumCommand:
    def test_small_scan(self, capsys):
        code, out, _ = run_cli(
            [
                "optimum", "--lambda-c", "0.485", "--tau-c", "0.001",
                "--lambda-h-min", "0.2", "--lambda-h-max", "0.3",
                "--lambda-h-count", "11",
                "--tau-h-min", "0.5", "--tau-h-max", "1.5", "--tau-h-count", "3",
            ],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert result["w_min"] < -0.05
        assert 0.2 <= result["lambda_h"] <= 0.3

    def test_zero_minimum_prints_unsigned_zero_work(self, capsys):
        # The scan's minimum is W = 0 at lambda_h = lambda_c, where the
        # magnetic kernel's d (mu_h - mu_c + D) is -0.0.
        code, out, _ = run_cli(
            [
                "optimum", "--lambda-c", "0.7", "--tau-c", "0.1",
                "--lambda-h-min", "0.7", "--lambda-h-max", "1.2", "--lambda-h-count", "3",
                "--tau-h-min", "1", "--tau-h-max", "2", "--tau-h-count", "2",
            ],
            capsys,
        )
        assert code == 0
        assert out.endswith('"w_min": 0.0}\n')

    def test_infinite_minimum_is_strict_json(self, capsys):
        # Every hot point's W is +inf at lambda_h ~ 1e300; the minimum is
        # written 1e999, as cycle and the sweep files write an infinity.
        code, out, _ = run_cli(
            [
                "optimum", "--lambda-c", "0.3", "--tau-c", "0.1",
                "--lambda-h-min", "1e300", "--lambda-h-max", "1.5e300", "--lambda-h-count", "3",
                "--tau-h-min", "1", "--tau-h-max", "2", "--tau-h-count", "2",
            ],
            capsys,
        )
        assert code == 0
        result = json.loads(out, parse_constant=lambda name: pytest.fail(f"not JSON: {name}"))
        assert (result["lambda_h"], result["w_min"]) == (1e300, math.inf)

    def test_infinite_lambda_end_exits_2_without_warning(self, capsys):
        # The hot axis is checked as a sweep's is, before numpy sees inf - 0.2.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                [
                    "optimum", "--lambda-c", "0.485", "--tau-c", "0.001",
                    "--lambda-h-min", "0.2", "--lambda-h-max", "inf", "--lambda-h-count", "3",
                    "--tau-h-min", "0.5", "--tau-h-max", "1.5", "--tau-h-count", "3",
                ],
                capsys,
            )
        assert code == 2
        assert out == ""
        assert err == "error: optimal_work_scan lambda_h axis needs finite min < max, got (0.2, inf)\n"
        assert caught == []


class TestSelftestCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(["selftest", "--seed", "7"], capsys)
        assert code == 0
        assert out.count("PASS") == 4

    def test_unattainable_tolerance_fails(self, monkeypatch, capsys):
        # A check whose threshold no error can meet fails the run, and only that check.
        monkeypatch.setattr(selftest, "CHECKS", [*selftest.CHECKS[:1], ("unattainable", lambda rng: 0.0, 0.0)])
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 1
        assert out.count("PASS") == 1
        assert out.splitlines()[-1].startswith("unattainable") and "FAIL" in out.splitlines()[-1]

    def test_negative_seed_exits_2(self, no_eigensolve, capsys):
        # numpy's default_rng rejects it; that must not read as a failed check.
        code, out, err = run_cli(["selftest", "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert "error: seed must be a non-negative integer, got -1" in err


HELP = (("-h", "--help"), "help", argparse.SUPPRESS, False, None, None, "show this help message and exit")


def required(flag, type=float, choices=None, help=None):
    return (flag,), flag[2:].replace("-", "_"), None, True, choices, type, help


def optional(flag, default, type=int, choices=None, help=None):
    return (flag,), flag[2:].replace("-", "_"), default, False, choices, type, help


# Each parser's options in -h order: (option strings, dest, default, required, choices, type, help).
FLAG_CONTRACT = {
    "rotor-otto": [HELP, ((), "command", None, True, ("cycle", "sweep", "momentum", "optimum", "selftest"), None, None)],
    "cycle": [
        HELP, required("--machine", None, ("electric", "magnetic")), required("--model", None, ("classical", "quantum")),
        required("--lambda-h"), required("--lambda-c"), required("--tau-h"), required("--tau-c"),
    ],
    "sweep": [
        HELP, required("--machine", None, ("electric", "magnetic")), required("--model", None, ("classical", "quantum")),
        required("--lambda-h-min"), required("--lambda-h-max"), optional("--lambda-h-count", 200),
        required("--tau-h-min"), required("--tau-h-max"), optional("--tau-h-count", 200),
        optional("--lambda-scale", "linear", None, ("linear", "log")),
        optional("--tau-scale", "linear", None, ("linear", "log")),
        required("--lambda-c"), required("--tau-c"), required("--out", None), required("--format", None, ("csv", "json")),
    ],
    "momentum": [
        HELP, required("--lambda-min"), required("--lambda-max"), optional("--lambda-count", 301),
        required("--tau", help="repeatable"), optional("--out", None, None, help="default: stdout"),
    ],
    "optimum": [
        HELP, required("--lambda-c"), required("--tau-c"),
        required("--lambda-h-min"), required("--lambda-h-max"), optional("--lambda-h-count", 201),
        required("--tau-h-min"), required("--tau-h-max"), optional("--tau-h-count", 50),
    ],
    "selftest": [HELP, optional("--seed", 0)],
}


class TestFlagContract:
    def test_every_parser_keeps_its_options(self):
        # The options that `rotor-otto -h` and each subcommand's -h list.
        parser = cli._build_parser()
        parsers = {"rotor-otto": parser, **parser._actions[1].choices}
        assert {
            name: [(tuple(a.option_strings), a.dest, a.default, a.required,
                    None if a.choices is None else tuple(a.choices), a.type, a.help) for a in p._actions]
            for name, p in parsers.items()
        } == FLAG_CONTRACT


HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.fft")


def fresh_interpreter(code):
    """The words that code prints when run by a fresh interpreter with the package on its path."""
    src = os.path.dirname(os.path.dirname(rotor_otto.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def scipy_loaded_after(argvs):
    """The scipy modules loaded once a fresh interpreter has run cli.main on each argv."""
    return fresh_interpreter(
        "import contextlib, io, sys\n"
        "from rotor_otto import cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )


def cycle_argv(machine, model):
    lambda_h, lambda_c, tau_h, tau_c = {"electric": ("3", "1", "4", "1"), "magnetic": ("0.25", "0.485", "1", "0.001")}[machine]
    return ["cycle", "--machine", machine, "--model", model, "--lambda-h", lambda_h, "--lambda-c", lambda_c,
            "--tau-h", tau_h, "--tau-c", tau_c]


class TestImportBudget:
    def test_cli_leaves_heavy_scipy_subpackages_unloaded(self):
        # The CLI uses scipy only through scipy.special and the LAPACK
        # extension scipy.linalg._flapack, loaded without the scipy.linalg
        # package; scipy.integrate alone pulls in the other four.
        assert not set(scipy_loaded_after([])) & set(HEAVY_SCIPY)

    def test_magnetic_commands_load_no_scipy(self, tmp_path):
        grid = ["--machine", "magnetic", "--model", "quantum",
                "--lambda-h-min", "0.1", "--lambda-h-max", "0.4", "--lambda-h-count", "4",
                "--tau-h-min", "0.2", "--tau-h-max", "2", "--tau-h-count", "3",
                "--lambda-c", "0.485", "--tau-c", "0.001"]
        argvs = [cycle_argv("magnetic", model) for model in ("classical", "quantum")]
        argvs += [["sweep", *grid, "--out", str(tmp_path / f"grid.{fmt}"), "--format", fmt] for fmt in ("csv", "json")]
        argvs.append(["momentum", "--lambda-min", "0", "--lambda-max", "1", "--lambda-count", "5", "--tau", "0.1"])
        argvs.append(["optimum", *grid[4:]])
        assert scipy_loaded_after(argvs) == []

    def test_electric_cycles_load_only_special_and_lapack(self):
        quantum = set(scipy_loaded_after([cycle_argv("electric", "quantum")]))
        classical = set(scipy_loaded_after([cycle_argv("electric", "classical")]))
        # The pendulum's LAPACK extension is held by qelectric, not sys.modules.
        assert "scipy" in quantum and not {"scipy.linalg", "scipy.linalg._flapack"} & quantum
        assert "scipy.special" in classical
        assert not (quantum | classical) & set(HEAVY_SCIPY)


class TestBenchmarkBindings:
    def test_tracer_installs_on_the_worker_namespace(self):
        # perfbench/tracing.py wraps the program's functions by module
        # attribute, and the worker reads the stroke cache's cache_info even
        # untraced: a renamed or removed name must fail here, not first in
        # the benchmark.  The namespace is built by the worker's own _program.
        assert fresh_interpreter(
            "import ast, sys, types\n"
            f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
            "import tracing\n"
            f"tree = ast.parse(open({str(PERFBENCH / 'worker.py')!r}).read())\n"
            "build = [node for node in tree.body if getattr(node, 'name', '') == '_program']\n"
            "namespace = {'types': types}\n"
            "exec(compile(ast.Module(build, []), 'worker.py', 'exec'), namespace)\n"
            "program = namespace['_program']()\n"
            "stroke_cache, tracer = program.qelectric.pendulum_stroke_averages, tracing.Tracer()\n"
            "tracing.install(tracer, program)\n"
            "program.sweep.evaluate_point('electric', 'quantum', program.units.CyclePoint(3.0, 1.0, 4.0, 1.0))\n"
            "solves = tracer.totals()['qelectric.eigensolve_sym_tridiagonal'][0]\n"
            "print(stroke_cache.cache_info().misses, solves > 0)\n"
            # The tracer reads each solve's cutoff_m and eigenvalues.
            "print(tracer.counts['qelectric.max_cutoff'] >= 32, tracer.counts['qelectric.basis_states'] > 0)\n"
        ) == ["1", "True", "True", "True"]
