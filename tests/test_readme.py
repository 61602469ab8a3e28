"""The README's worked example and its command lines run as written and
print what they promise, and the names its prose gives exist."""

import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_readme_worked_example_prints_what_its_comments_promise():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    proc = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True,
        text=True,
        timeout=120,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    ranks, label, residual, *rays = proc.stdout.splitlines()
    assert ranks == "(4, 0, 4)"
    assert label == "skew"
    assert float(residual) < 1e-12
    # each line is "shape dim index"; the shape is a printed tuple
    dims = sorted(int(line.rpartition(")")[2].split()[0]) for line in rays)
    assert dims == [1, 1, 1, 1, 2, 2]


def command_lines() -> list[tuple[str, str]]:
    """(command, comment) of each line of the README's command block that
    reads no input file."""
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", README, re.S) if "permsym decompose" in b]
    lines = [line.partition("#")[::2] for line in block.splitlines()]
    return [(command.strip(), comment.strip()) for command, comment in lines if "--input" not in command]


COMMANDS = command_lines()


@pytest.mark.parametrize("command,comment", COMMANDS, ids=[command for command, _ in COMMANDS])
def test_readme_command_runs(command, comment):
    program, *argv = shlex.split(command)
    assert program == "permsym"
    proc = subprocess.run(
        [sys.executable, "-m", "permsym.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if argv[0] == "coins":
        assert proc.stdout == comment + "\n"


def test_readme_command_block_covers_every_subcommand_without_input():
    ran = {shlex.split(command)[1] for command, _ in COMMANDS}
    assert ran == {"decompose", "verify-identities", "coins", "bloch", "fig3", "toy-theories"}
    assert len(COMMANDS) == 9


MODULES = ("casebook", "cli", "hilbert", "models", "sectors", "symgroup", "symmetriser")


def test_readme_names_only_what_the_package_has():
    # every `module.name` in the prose, for the package's own modules,
    # resolves; fenced blocks run as written in the tests above
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    pattern = re.compile(rf"(?<![\w.])({'|'.join(MODULES)})\.(\w+)")
    named = {m.groups() for span in re.findall(r"`([^`]+)`", prose) for m in pattern.finditer(span)}
    assert named
    missing = [f"{module}.{name}" for module, name in sorted(named) if not hasattr(importlib.import_module(f"permsym.{module}"), name)]
    assert missing == []
