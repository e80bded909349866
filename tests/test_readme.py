"""The README's library example runs and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block, = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", block], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    for got, want in ((lines[0], "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"),
                      (lines[-1], "3 2u^3+u^2")):
        assert got == want
        assert "# " + want in block
