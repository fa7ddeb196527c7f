"""The example scripts and README's command-line examples run and exit 0."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(argv, cwd):
    env = dict(os.environ, PYTHONWARNINGS="error")  # a warning fails the child
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)


def readme_commands() -> list[list[str]]:
    """The `specwalk ...` lines of README's command-line section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("specwalk ")]


def test_readme_has_three_commands():
    assert len(readme_commands()) == 3


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[1])
def test_readme_command_runs(argv, tmp_path):
    proc = _run([sys.executable, "-m", "specwalk.cli", *argv[1:]], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["compare_encodings.py", "--n", "3"],
        ["zeno_sweep.py", "--n", "3"],
        ["zeno_sweep.py", "--n", "3", "--sample", "--lengths", "1,2,4", "--shots", "40"],
    ],
    ids=["compare_encodings", "zeno_sweep", "zeno_sweep-sample"],
)
def test_script_runs(args, tmp_path):
    proc = _run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]], tmp_path)
    assert proc.returncode == 0, proc.stderr
