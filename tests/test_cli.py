import json

import pytest

from rotor_otto import cli, qelectric, sweep
from rotor_otto.sweep import SweepSpec, run_sweep, write_csv


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


BAD_TOLS = ["nan", "inf", "0", "-1"]

QUANTUM_ELECTRIC_CYCLE = [
    "cycle", "--machine", "electric", "--model", "quantum",
    "--lambda-h", "3", "--lambda-c", "1", "--tau-h", "4", "--tau-c", "1",
]


@pytest.fixture
def no_eigensolve(monkeypatch):
    """Fail the test at once if any pendulum spectrum is computed."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("eigensolve reached with an invalid tol")

    monkeypatch.setattr(qelectric, "eigensolve_sym_tridiagonal", refuse)


class TestInvalidTolerance:
    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_cycle_exits_2(self, tol, no_eigensolve, capsys):
        code, out, err = run_cli(QUANTUM_ELECTRIC_CYCLE + ["--tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert f"error: tol must be finite and > 0, got {float(tol)}" in err

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_sweep_exits_2(self, tol, no_eigensolve, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(sweep_args(out, model="quantum") + ["--tol", tol], capsys)
        assert code == 2
        assert f"error: tol must be finite and > 0, got {float(tol)}" in err
        assert not out.exists()


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
        assert err.startswith("error: ") and str(out) in err


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


class TestSelftestCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(["selftest", "--seed", "7"], capsys)
        assert code == 0
        assert out.count("PASS") == 4

    def test_unattainable_tolerance_fails(self, capsys):
        code, out, _ = run_cli(["selftest", "--tol", "1e-30"], capsys)
        assert code == 1
        assert "FAIL" in out
