"""The package surface: names load on first use, and the model layer runs without numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permsym
from permsym import symgroup

SRC = Path(permsym.__file__).resolve().parents[1]
MODEL = {"domain": ["a", "b", "c"], "relations": {"R": {"arity": 2, "tuples": [["a", "b"], ["b", "c"]]}}}
EVERYONE = {"domain": ["a", "b"], "relations": {"P": {"arity": 1, "tuples": [["a"], ["b"]]}}}
THEORY = {"space": [EVERYONE], "selection": {"s": [0]}}  # fixed, so consistent
# cli.run on argv with its output swallowed; prints the exit code and whether numpy loaded
RUN = (
    "import contextlib, io, sys\n"
    "from permsym import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = cli.run(sys.argv[1:])\n"
    "print(code, 'numpy' in sys.modules)\n"
)


def fresh(code: str, *argv: str) -> str:
    """Stdout of ``code`` run in a new interpreter on this checkout's sources."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("statement", ["import permsym", "from permsym import models, symgroup"])
def test_importing_the_pure_python_layers_leaves_numpy_unloaded(statement):
    assert fresh(f"{statement}\nimport sys\nprint('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize(
    "command, code",
    [
        (["model", "--input", "{model}", "--permutes"], 0),
        (["model", "--input", "{model}", "--symmetric"], 0),
        (["model", "--input", "{model}", "--describe", "state"], 0),
        (["model", "--input", "{model}", "--describe", "structure"], 0),
        (["model", "--input", "{model}", "--check-formula", "(exists x (rel R x b))"], 0),
        (["model", "--input", "{model}", "--apply-perm", "(1 2)"], 0),
        (["theory", "--input", "{theory}"], 0),
        (["theory", "--input", "{theory}", "--quotient"], 0),
        (["model", "--input", "{malformed}"], 2),
        (["--help"], 0),
        (["coins", "--measure", "nonesuch"], 2),
    ],
)
def test_model_theory_and_parser_never_import_numpy(tmp_path, command, code):
    paths = {}
    for name, obj in (("model", MODEL), ("theory", THEORY), ("malformed", {"domain": ["a", "a"]})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    argv = [arg.format(**paths) for arg in command]
    assert fresh(RUN, *argv) == f"{code} False\n"


@pytest.mark.parametrize(
    "command", [["toy-theories"]] + [["coins", "--measure", measure] for measure in symgroup.COIN_MEASURES]
)
def test_coins_and_toy_theories_never_import_numpy(command):
    assert fresh(RUN, *command) == "0 False\n"


def test_every_public_name_resolves_lazily_and_star_import_binds_them():
    script = (
        "import sys\n"
        "import permsym\n"
        "names = set(dir(permsym))\n"
        "scope = {}\n"
        "exec('from permsym import *', scope)\n"
        "print(all(name in names and name in scope for name in permsym.__all__))\n"
        "print(all(scope[name] is getattr(permsym, name) for name in permsym.__all__))\n"
        "print(permsym.AssemblyConfig is sys.modules['permsym.hilbert'].AssemblyConfig)\n"
        "print(permsym.Permutation is sys.modules['permsym.symgroup'].Permutation)\n"
    )
    assert fresh(script) == "True\n" * 4


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        permsym.nonesuch


def test_the_lazy_table_lists_every_module():
    modules = {path.stem for path in Path(permsym.__file__).parent.glob("*.py")} - {"__init__", "__main__"}
    assert set(permsym._LAZY.values()) == modules
    assert all(permsym._LAZY[name] == name for name in modules)
