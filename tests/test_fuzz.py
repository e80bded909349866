"""Mutation fuzz of the three file parsers through the command line: any
mutated biquandle, bracket or diagram file ends in exit 0, 1 or 2, never in
an uncaught exception."""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from vknotoid.cli import main
from vknotoid.data import corpus_dir, data_dir

BIQ = data_dir() / "biquandles" / "z3_involution.biq"
BRK = data_dir() / "brackets" / "z5_involution.bvb"
KND = corpus_dir() / "2.1.1.knd"

# characters the three grammars use, plus a few they do not
ALPHABET = "0123456789 \n-+,#OUVdeltaomgcnxé"
FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def mutated(draw, text):
    """A few edits at the level of tokens, lines and characters."""
    parts = re.split(r"(\s+|,)", text)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("number", "text", "delete", "repeat")))
        pos = draw(st.integers(0, len(parts) - 1))
        if op == "number":           # parts alternate token, separator
            parts[pos - pos % 2] = str(draw(st.integers(-3, 40)))
        elif op == "text":
            parts[pos] = draw(st.text(ALPHABET, max_size=4))
        elif op == "delete":
            del parts[pos:pos + draw(st.integers(1, 6))]
        else:
            parts[pos:pos] = parts[max(0, pos - 8):pos]
        parts = parts or [""]
    return "".join(parts)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def exit_code(args):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main([str(a) for a in args])


@FUZZ
@given(text=mutated(BIQ.read_text()))
def test_mutated_biquandle(workdir, text):
    path = workdir / "x.biq"
    path.write_text(text, encoding="utf-8")
    assert exit_code(["invariants", KND, "--biquandle", path]) in (0, 1, 2)


@FUZZ
@given(text=mutated(BRK.read_text()), verify=st.booleans())
def test_mutated_bracket(workdir, text, verify):
    path = workdir / "x.bvb"
    path.write_text(text, encoding="utf-8")
    args = ["invariants", KND, "--biquandle", BIQ, "--bracket", path]
    assert exit_code(args + ([] if verify else ["--no-verify"])) in (0, 1, 2)


@FUZZ
@given(text=mutated(KND.read_text()))
def test_mutated_diagram(workdir, text):
    path = workdir / "x.knd"
    path.write_text(text, encoding="utf-8")
    assert exit_code(["invariants", path, "--biquandle", BIQ,
                      "--bracket", BRK]) in (0, 1, 2)
