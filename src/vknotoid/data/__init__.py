"""Bundled reference data: biquandle tables, bracket coefficient files and
the validated diagram corpus (named after the standard virtual knotoid
tabulation).  The corpus manifest records which reference checks each file
passed when it was frozen."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .._reader import read_input
from ..biquandle import FiniteBiquandle, parse_operation_matrix
from ..bracket import VirtualBracket, parse_bracket
from ..diagram import KnotoidDiagram, parse_diagram


_DATA = Path(str(resources.files(__package__)))
_CORPUS = _DATA / "corpus"


def data_dir() -> Path:
    return _DATA


def corpus_dir() -> Path:
    return _CORPUS


def load_biquandle(name: str) -> FiniteBiquandle:
    path = _DATA / "biquandles" / (name + ".biq")
    return parse_operation_matrix(read_input(path))


def load_bracket(name: str, biquandle: FiniteBiquandle) -> VirtualBracket:
    path = _DATA / "brackets" / (name + ".bvb")
    return parse_bracket(read_input(path), biquandle)


def load_corpus(name: str) -> KnotoidDiagram:
    path = _CORPUS / (name + ".knd")
    return parse_diagram(read_input(path), name=name)


def corpus_names() -> list[str]:
    return sorted(p.stem for p in _CORPUS.glob("*.knd"))


def corpus_manifest() -> dict:
    return json.loads(read_input(_CORPUS / "manifest.json"))
