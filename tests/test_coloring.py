import itertools

import pytest

from vknotoid.biquandle import NotABiquandle, parse_operation_matrix
from vknotoid.coloring import (counting_invariant, counting_matrix,
                               enumerate_colorings, iter_colorings,
                               matrix_product)
from vknotoid.diagram import parse_diagram


def brute_force_colorings(diagram, x):
    """Independent oracle: try every assignment against the operation tables
    at every crossing's sideways (a, b, c, d): a under b = d, b over a = c."""
    quads = [cr.sideways for cr in diagram.crossings().values()]
    out = []
    for colors in itertools.product(range(x.n), repeat=diagram.semi_arc_count):
        if all(x.under_op(colors[a], colors[b]) == colors[d]
               and x.over_op(colors[b], colors[a]) == colors[c]
               for a, b, c, d in quads):
            out.append(colors)
    return out


def test_trivial_diagram(z5_alexander, z3_coloring):
    trivial = parse_diagram("")
    for x in (z5_alexander, z3_coloring):
        cols = enumerate_colorings(trivial, x)
        assert sorted(cols) == [(i,) for i in range(x.n)]
        mat = counting_matrix(trivial, x)
        assert mat == [[1 if i == j else 0 for j in range(x.n)]
                       for i in range(x.n)]


def test_kernel_of_2_1_1_over_z5(corpus, z5_alexander):
    cols = enumerate_colorings(corpus["2.1.1"], z5_alexander)
    assert len(cols) == 5
    # multiples of the residue vector (3,2,1,0,0); element index = residue-1 mod 5
    expected = {tuple((k * v - 1) % 5 for v in (3, 2, 1, 0, 0)) for k in range(5)}
    assert set(cols) == expected


def test_no_colorings_of_2_1_1_over_z3_table(corpus, z3_coloring):
    assert counting_invariant(corpus["2.1.1"], z3_coloring) == 0


def test_3_1_2_has_three_colorings_cyclic_matrix(corpus, z3_coloring):
    d = corpus["3.1.2"]
    assert counting_invariant(d, z3_coloring) == 3
    mat = counting_matrix(d, z3_coloring)
    assert mat == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_2_1_2_identity_matrix(corpus, z3_coloring):
    mat = counting_matrix(corpus["2.1.2"], z3_coloring)
    assert mat == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_4_1_2_permutation_matrix(corpus, z3_coloring):
    mat = counting_matrix(corpus["4.1.2"], z3_coloring)
    assert mat == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_counting_invariant_of_2_1_1_over_involution(corpus, z3_involution):
    assert counting_invariant(corpus["2.1.1"], z3_involution) == 3


def test_entry_sum_equals_counting_invariant(corpus, z5_alexander, z3_coloring):
    for name in ("2.1.1", "3.1.2", "4.1.2"):
        d = corpus[name]
        for x in (z5_alexander, z3_coloring):
            mat = counting_matrix(d, x)
            assert sum(map(sum, mat)) == counting_invariant(d, x)


def test_backtracking_matches_brute_force(corpus, z3_coloring, z3_involution,
                                          z5_alexander):
    small = [corpus[n] for n in ("2.1.1", "2.1.2", "3.1.2", "3.1.6")]
    small.append(parse_diagram("O+1,U+1"))
    small.append(parse_diagram("O+1,U-2,U+1,O-2"))
    for d in small:
        for x in (z3_coloring, z3_involution):
            assert sorted(enumerate_colorings(d, x)) == \
                sorted(brute_force_colorings(d, x))
    # one z5 case kept small: 5^5 assignments
    d = corpus["2.1.1"]
    assert sorted(enumerate_colorings(d, z5_alexander)) == \
        sorted(brute_force_colorings(d, z5_alexander))


def test_matrix_product_helper():
    a = [[1, 2], [0, 1]]
    b = [[3, 0], [1, 1]]
    assert matrix_product(a, b) == [[5, 2], [1, 1]]


def test_non_biquandle_raises_before_any_coloring():
    # the under-column of x_1 is (1, 2, 1): not a bijection
    x = parse_operation_matrix("3\n1 2 1 3 3 3\n2 1 3 1 1 1\n1 3 2 2 2 2\n")
    for code in ("O+1,U+1", "O-1,U-1", "U+1,V1,O+1,V1"):
        d = parse_diagram(code)
        with pytest.raises(NotABiquandle):
            next(iter_colorings(d, x))
        with pytest.raises(NotABiquandle):
            counting_matrix(d, x)
    # no crossing, no relation to solve: every tail color is a coloring
    assert enumerate_colorings(parse_diagram(""), x) == [(0,), (1,), (2,)]
