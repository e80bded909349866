import itertools

import pytest

from vknotoid import bracket
from vknotoid.biquandle import (FiniteBiquandle, NotAUnit, RangeError,
                                ShapeError, alexander_biquandle,
                                parse_operation_matrix,
                                render_operation_matrix,
                                verify_biquandle_axioms)
from vknotoid.coloring import iter_colorings

Z5_MATRIX = """\
5
4 1 3 5 2 4 4 4 4 4
1 3 5 2 4 3 3 3 3 3
3 5 2 4 1 2 2 2 2 2
5 2 4 1 3 1 1 1 1 1
2 4 1 3 5 5 5 5 5 5
"""

Z3_MATRIX = """\
3
3 2 1 3 3 3
2 1 3 1 1 1
1 3 2 2 2 2
"""


def test_parse_z5_alexander_matrix():
    x = parse_operation_matrix(Z5_MATRIX)
    assert x == alexander_biquandle(5, 2, 4)
    # x under y = 2(x+y), x over y = 4x on residues, with 0 as the last element
    assert x.under_op(0, 0) == 3          # 2*(1+1) = 4 -> x_4
    assert x.over_op(4, 2) == 4           # 4*0 = 0 -> x_5


def test_parse_z3_matrix():
    x = parse_operation_matrix(Z3_MATRIX)
    assert [v + 1 for v in x.under_table[0]] == [3, 2, 1]
    assert [v + 1 for v in x.over_table[2]] == [2, 2, 2]
    assert verify_biquandle_axioms(x).passed


def test_parse_singleton():
    x = parse_operation_matrix("1\n1 1\n")
    assert x.n == 1
    assert verify_biquandle_axioms(x).passed


def test_parse_errors():
    with pytest.raises(ShapeError):
        parse_operation_matrix("")
    with pytest.raises(ShapeError):
        parse_operation_matrix("2\n1 2 2 1\n")
    with pytest.raises(RangeError):
        parse_operation_matrix("2\n1 2 2 3\n2 1 1 2\n")


@pytest.mark.parametrize("count", [0, -3])
def test_element_count_must_be_positive(count):
    with pytest.raises(ShapeError,
                       match="element count must be positive, got %d" % count):
        parse_operation_matrix("%d\n" % count)
    # a positive count still reports the rows it expects
    with pytest.raises(ShapeError, match="expected 2 matrix rows"):
        parse_operation_matrix("2\n1 2 2 1\n")


def test_an_empty_biquandle_is_rejected():
    # with no element a bracket matrix has no cell to sum, so an empty table
    # is refused where it is built, with the parser's message
    with pytest.raises(ShapeError,
                       match=r"^element count must be positive, got 0$"):
        FiniteBiquandle((), ())


def copy_of(x):
    """An equal biquandle built from tables that share no tuple with x's."""
    return FiniteBiquandle(tuple([tuple(list(row)) for row in x.under_table]),
                           tuple([tuple(list(row)) for row in x.over_table]))


def test_equal_tables_hash_once_and_share_their_caches(z3_coloring, corpus):
    y = copy_of(z3_coloring)
    assert y is not z3_coloring and y.under_table is not z3_coloring.under_table
    assert y == z3_coloring
    assert hash(y) == hash(z3_coloring) \
        == hash((z3_coloring.under_table, z3_coloring.over_table))
    # the hash is computed once, in __post_init__
    assert hash(y) == y._hash
    assert bracket.triple_cells(y) is bracket.triple_cells(z3_coloring)
    d = corpus["3.1.1"]
    bracket._PLANS.clear()
    assert sorted(iter_colorings(d, z3_coloring)) == sorted(iter_colorings(d, y))
    assert list(bracket._PLANS[d.passes]) == [z3_coloring]
    assert copy_of(alexander_biquandle(5, 2, 4)) != z3_coloring


def test_solve_tables_are_not_a_constructor_argument(z3_coloring):
    with pytest.raises(TypeError):
        FiniteBiquandle(z3_coloring.under_table, z3_coloring.over_table,
                        ("junk",))
    with pytest.raises(TypeError):
        FiniteBiquandle(z3_coloring.under_table, z3_coloring.over_table,
                        _solvers=("junk",))


def test_render_round_trip():
    for x in (alexander_biquandle(5, 2, 4), parse_operation_matrix(Z3_MATRIX)):
        assert parse_operation_matrix(render_operation_matrix(x)) == x


def test_alexander_z5_matches_reference_matrix():
    got = render_operation_matrix(alexander_biquandle(5, 2, 4))
    assert got == Z5_MATRIX


def test_alexander_requires_units():
    with pytest.raises(NotAUnit):
        alexander_biquandle(4, 2, 1)
    with pytest.raises(NotAUnit):
        alexander_biquandle(6, 5, 3)


def test_alexander_shifted_variant():
    # both operations x -> 2x+1 over Z_3
    x = alexander_biquandle(3, 2, 2, shift_under=1, shift_over=1)
    assert x.under_table == x.over_table
    assert [v + 1 for v in x.under_table[0]] == [3, 3, 3]
    assert verify_biquandle_axioms(x).passed


def test_alexander_identity_degenerate():
    x = alexander_biquandle(2, 1, 1)
    for a in range(2):
        for b in range(2):
            assert x.under_op(a, b) == a
            assert x.over_op(a, b) == a
    assert verify_biquandle_axioms(x).passed


def test_axioms_pass_for_alexander_family():
    for m, t, r in [(2, 1, 1), (3, 1, 2), (3, 2, 2), (5, 2, 4), (5, 3, 2),
                    (7, 2, 3), (7, 3, 5)]:
        x = alexander_biquandle(m, t, r)
        assert verify_biquandle_axioms(x).passed, (m, t, r)


def test_axiom_violation_reported_for_mutation():
    x = parse_operation_matrix(Z3_MATRIX)
    under = [list(r) for r in x.under_table]
    under[0][0] = 0                      # entry (1,1): 3 -> 1
    mutated = FiniteBiquandle(tuple(tuple(r) for r in under), x.over_table)
    report = verify_biquandle_axioms(mutated)
    assert not report.passed
    assert ("diagonal", (1,)) in report.violations


def test_axiom_violation_column_bijection():
    x = parse_operation_matrix(Z3_MATRIX)
    under = [list(r) for r in x.under_table]
    under[1][0] = under[0][0]            # column 1 now repeats a value
    mutated = FiniteBiquandle(tuple(tuple(r) for r in under), x.over_table)
    report = verify_biquandle_axioms(mutated)
    assert not report.passed
    assert any(axiom == "under-column" for axiom, _ in report.violations)


def test_columns_are_permutations(z5_alexander, z3_coloring):
    for x in (z5_alexander, z3_coloring):
        for y in range(x.n):
            assert sorted(x.under_table[a][y] for a in range(x.n)) == list(range(x.n))
            assert sorted(x.over_table[a][y] for a in range(x.n)) == list(range(x.n))


def test_sideways_inverse_round_trip(z5_alexander, z3_coloring):
    # the S^-1 solve table inverts the sideways map, also on one element
    singleton = parse_operation_matrix("1\n1 1\n")
    for x in (z5_alexander, z3_coloring, singleton):
        back = x.solvers()[1]
        for a in range(x.n):
            for b in range(x.n):
                p, q = back[a][b]
                assert x.sideways(p, q) == (a, b)
    assert singleton.solvers()[1] == (((0, 0),),)


def test_sideways_inverse_of_forward(z5_alexander):
    a, b = z5_alexander.sideways(1, 2)
    assert z5_alexander.solvers()[1][a][b] == (1, 2)


def test_exchange_laws_hold_exhaustively(z3_coloring):
    x = z3_coloring
    n = x.n
    for a, b, c in itertools.product(range(n), repeat=3):
        assert x.under_op(x.under_op(a, b), x.under_op(c, b)) \
            == x.under_op(x.under_op(a, c), x.over_op(b, c))
        assert x.over_op(x.under_op(a, b), x.under_op(c, b)) \
            == x.under_op(x.over_op(a, c), x.over_op(b, c))
        assert x.over_op(x.over_op(a, b), x.over_op(c, b)) \
            == x.over_op(x.over_op(a, c), x.under_op(b, c))
