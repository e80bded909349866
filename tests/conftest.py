import pytest

from vknotoid.biquandle import FiniteBiquandle
from vknotoid.data import (load_biquandle, load_bracket, load_corpus,
                           corpus_names, corpus_manifest)
from vknotoid.search import SearchConfig, search_brackets


@pytest.fixture(scope="session")
def z5_alexander():
    return load_biquandle("z5_alexander")


@pytest.fixture(scope="session")
def z3_coloring():
    return load_biquandle("z3_coloring")


@pytest.fixture(scope="session")
def z3_involution():
    return load_biquandle("z3_involution")


@pytest.fixture(scope="session")
def z3_shift():
    return load_biquandle("z3_shift")


@pytest.fixture(scope="session")
def dihedral():
    """Trivial x -> x and R3 (x, y) -> 2y - x mod 3, in both placements: the
    only tables here whose over operation reads its second argument."""
    triv = tuple(tuple(a for _ in range(3)) for a in range(3))
    r3 = tuple(tuple((2 * b - a) % 3 for b in range(3)) for a in range(3))
    return (FiniteBiquandle(triv, r3), FiniteBiquandle(r3, triv))


@pytest.fixture(scope="session")
def z5_bracket(z3_involution):
    return load_bracket("z5_involution", z3_involution)


@pytest.fixture(scope="session")
def z37_bracket(z3_shift):
    return load_bracket("z37_shift", z3_shift)


@pytest.fixture(scope="session")
def z3_coloring_brackets(z3_coloring):
    """The 40 valid brackets over Z_3 that the full search finds on
    z3_coloring, whose under operation reads its second argument; their
    deltas are 0, 1 and 2."""
    found = search_brackets(z3_coloring, SearchConfig(3, "full")).brackets
    assert len(found) == 40
    assert {br.delta for br in found} == {0, 1, 2}
    return found


@pytest.fixture(scope="session")
def corpus():
    return {name: load_corpus(name) for name in corpus_names()}


@pytest.fixture(scope="session")
def manifest():
    return corpus_manifest()


# Frozen reference values for the bundled corpus over the bundled z37 data:
# diagonal exponents of the bracket matrix, indexed by the tail element
# (elements ordered 1, 2, 0 as everywhere in this package).  Each row was
# cross-validated against an independent prototype implementation before
# being frozen here.
Z37_DIAG = {
    "2.1.1": (19, 34, 27),
    "2.1.2": (21, 14, 27),
    "3.1.1": (34, 27, 19),
    "3.1.2": (19, 34, 27),
    "3.1.3": (19, 34, 27),
    "3.1.4": (34, 27, 19),
    "3.1.5": (7, 7, 7),
    "3.1.6": (32, 5, 5),
    "3.1.7": (5, 32, 5),
    "3.1.8": (27, 19, 34),
    "3.1.9": (5, 5, 32),
    "3.1.10": (7, 7, 7),
    "4.1.1": (36, 33, 6),
    "4.1.2": (4, 33, 28),
    "4.1.3": (3, 6, 30),
    "4.1.4": (22, 30, 27),
    "4.1.5": (32, 19, 1),
    "4.1.6": (20, 13, 24),
    "4.1.7": (13, 1, 31),
    "4.1.8": (33, 6, 36),
    "4.1.9": (17, 19, 20),
    "4.1.10": (30, 27, 22),
    "5.1.1": (20, 17, 19),
    "5.1.2": (20, 13, 24),
    "5.1.3": (3, 6, 30),
    "5.1.4": (27, 17, 19),
    "5.1.5": (3, 35, 12),
    "5.1.6": (23, 28, 3),
    "5.1.7": (19, 25, 35),
    "5.1.8": (13, 24, 20),
    "5.1.9": (31, 17, 27),
    "5.1.10": (15, 32, 11),
}


@pytest.fixture(scope="session")
def z37_diag():
    return Z37_DIAG
