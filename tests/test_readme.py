"""The python blocks of README.md run as written and print what their comments say;
its rotor-otto commands exit 0."""

import pathlib
import re
import shlex

import pytest

from rotor_otto import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# (info string, text) of each fenced block, in order.
FENCED = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
BLOCKS = [text for info, text in FENCED if info == "python"]
# The argv of each `rotor-otto ...` command in the untagged (shell) blocks, continuation lines joined.
COMMANDS = [shlex.split(line)[1:] for info, text in FENCED if info == ""
            for line in text.replace("\\\n", " ").splitlines() if line.startswith("rotor-otto ")]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, tmp_path, monkeypatch, capsys):
    # Files the block writes land in tmp_path.
    monkeypatch.chdir(tmp_path)
    block = BLOCKS[index]
    exec(compile(block, f"README.md python block {index}", "exec"), {})
    # `print(...)  # text...`: the printed line starts with text.
    expected = re.findall(r"^print\(.*\)\s+# (.*?)(?:\.\.\.)?\s*$", block, flags=re.M)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected)
    for line, want in zip(printed, expected):
        assert line.startswith(want), (line, want)


PUBLIC_API = [
    "CyclePoint", "CycleReport", "SweepSpec", "SweepGrid", "evaluate_point", "run_sweep",
    "extract_boundaries", "momentum_curve", "optimal_work_scan", "read_json", "write_csv",
    "write_json", "DomainError", "ConvergenceError",
]


def test_public_api_is_what_the_readme_documents():
    import rotor_otto

    assert sorted(rotor_otto.__all__) == sorted(PUBLIC_API)
    assert all(hasattr(rotor_otto, name) for name in PUBLIC_API)
    # `from rotor_otto import a, b` or `from rotor_otto import (a, b, ...)`
    imports = re.findall(r"^from rotor_otto import (?:\(([^)]*)\)|([\w ,]+)$)", "".join(BLOCKS), flags=re.M)
    imported = {name.strip() for names in imports for name in ",".join(names).split(",")} - {""}
    assert imported and imported <= set(rotor_otto.__all__)


def test_readme_shows_every_command():
    assert sorted({argv[0] for argv in COMMANDS}) == ["cycle", "momentum", "optimum", "selftest", "sweep"]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    # Files the command writes land in tmp_path.
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
