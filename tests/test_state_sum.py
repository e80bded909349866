"""Bit-for-bit oracles for the compiled state sum on seeded random codes:
the component table against per-state union-find, every coloring's value
against the symbolic state sum, and the coloring walk against brute force."""

import itertools
import random

import pytest

from vknotoid.bracket import (SMOOTHINGS, bracket_matrix, evaluate,
                              evaluate_symbolic, fundamental_bracket,
                              invariants, smooth_components, state_components)
from vknotoid.coloring import counting_matrix, enumerate_colorings
from vknotoid.diagram import KnotoidDiagram, Pass, crossing_relations, relation_holds


def random_code(rng, classical, virtual=2):
    toks = []
    for k in range(1, classical + 1):
        sign = rng.choice((1, -1))
        toks += [Pass("O", k, sign), Pass("U", k, sign)]
    for k in range(1, virtual + 1):
        toks += [Pass("V", k, 0)] * 2
    rng.shuffle(toks)
    return KnotoidDiagram("random", tuple(toks))


def random_codes(seed, sizes):
    rng = random.Random(seed)
    return [random_code(rng, c) for c in sizes]


def test_state_components_match_union_find_per_state():
    for d in random_codes(1, (0, 1, 2, 3, 4, 5, 6) * 2):
        cids = sorted(d.crossings())
        want = [smooth_components(d, dict(zip(cids, combo)))
                for combo in itertools.product(SMOOTHINGS, repeat=len(cids))]
        assert list(state_components(d)) == want


@pytest.mark.parametrize("biquandle, bracket", [
    ("z3_involution", "z5_bracket"), ("z3_shift", "z37_bracket")])
def test_values_match_symbolic_state_sum(request, biquandle, bracket):
    x = request.getfixturevalue(biquandle)
    br = request.getfixturevalue(bracket)
    for d in random_codes(2, (1, 2, 3, 4, 5, 6) * 2):
        sym = fundamental_bracket(d)
        cells = [[{} for _ in range(x.n)] for _ in range(x.n)]
        for f in enumerate_colorings(d, x):
            want = evaluate_symbolic(sym, f, br)
            assert evaluate(d, f, br) == want
            cell = cells[f[0]][f[-1]]
            cell[want.value] = cell.get(want.value, 0) + 1
        got = bracket_matrix(d, x, br)
        assert [[p.as_dict() for p in row] for row in got] == cells


def brute_force_colorings(d, x):
    rels = crossing_relations(d).relations
    return [f for f in itertools.product(range(x.n), repeat=d.semi_arc_count)
            if all(relation_holds(r, f, x) for r in rels)]


def test_colorings_are_the_sorted_brute_force_list(z3_coloring, z3_involution,
                                                   z5_alexander):
    # brute force tries n^(2c+1) assignments, so the codes stay small
    for d in random_codes(3, (0, 1, 2, 3, 4) * 3):
        for x in (z3_coloring, z3_involution):
            assert enumerate_colorings(d, x) == brute_force_colorings(d, x)
    for d in random_codes(4, (1, 2, 2)):
        assert enumerate_colorings(d, z5_alexander) \
            == brute_force_colorings(d, z5_alexander)


def test_one_pass_agrees_with_the_wrappers(z3_involution, z5_bracket):
    for d in random_codes(5, (2, 4, 5)):
        inv = invariants(d, z3_involution, z5_bracket)
        assert inv.counting_matrix == counting_matrix(d, z3_involution)
        assert inv.bracket_matrix == bracket_matrix(d, z3_involution, z5_bracket)
        assert inv.bracket_polynomial.total_multiplicity() == inv.counting_invariant
        assert invariants(d, z3_involution).bracket_matrix is None

