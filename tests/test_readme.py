"""The README's worked example runs as written and prints what it promises."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_worked_example_prints_what_its_comments_promise():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    proc = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    ranks, label, residual, *rays = proc.stdout.splitlines()
    assert ranks == "(4, 0, 4)"
    assert label == "skew"
    assert float(residual) < 1e-12
    # each line is "shape dim index"; the shape is a printed tuple
    dims = sorted(int(line.rpartition(")")[2].split()[0]) for line in rays)
    assert dims == [1, 1, 1, 1, 2, 2]
