"""The README's library example runs and prints what its comments say, and
its command-line block lists the options each subcommand takes."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

from vknotoid.cli import build_parser

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


def test_readme_usage_lines_list_each_subcommands_options():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    # a usage line starts with "vknotoid"; indented lines continue it
    usages = re.split(r"\n(?=vknotoid )", block.strip())
    seen = []
    for usage in usages:
        parser, words = build_parser(), usage.split()[1:]
        path = []
        while True:
            subs = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
            if not subs or words[0] not in subs[0].choices:
                break
            path.append(words.pop(0))
            parser = subs[0].choices[path[-1]]
        options = {s for a in parser._actions for s in a.option_strings
                   if s not in ("-h", "--help")}
        assert set(re.findall(r"--[a-z0-9-]+", usage)) == options, path
        seen.append(" ".join(path))
    assert seen == ["biquandle check", "biquandle alexander", "invariants",
                    "corpus", "selftest", "search", "moves insert",
                    "bracket check", "bracket fundamental"]
