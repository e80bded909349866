"""Randomized structural properties: move invariance, the product rule,
enhancement consistency, and convention self-consistency."""

import random

from vknotoid.bracket import (bracket_matrix, bracket_polynomial, invariants,
                              verify_bracket_axioms)
from vknotoid.coloring import (counting_invariant, counting_matrix,
                               matrix_product)
from vknotoid.diagram import insert_move, product
from vknotoid.ring import poly_render
from vknotoid.search import SearchConfig, search_brackets


def random_insert(d, rng):
    move = rng.choice(["R1", "VR1", "R2", "VR2"])
    gap = rng.randint(0, len(d.passes))
    gap2 = rng.randint(0, len(d.passes)) if move in ("R2", "VR2") else None
    return insert_move(d, move, gap, gap2,
                       sign=rng.choice([1, -1]),
                       over_first=rng.choice([True, False]),
                       parallel=rng.choice([True, False]))


def rendered_matrix(d, x, br):
    return [[poly_render(p) for p in row] for row in bracket_matrix(d, x, br)]


def test_move_invariance_counting_matrix(corpus, z5_alexander, z3_coloring):
    rng = random.Random(2024)
    for name in ("2.1.1", "2.1.2", "3.1.2", "3.1.8", "4.1.6"):
        d = corpus[name]
        for x in (z5_alexander, z3_coloring):
            base = counting_matrix(d, x)
            for _ in range(8):
                assert counting_matrix(random_insert(d, rng), x) == base


def test_move_invariance_bracket_matrix(corpus, z3_involution, z5_bracket):
    rng = random.Random(7)
    for name in ("2.1.1", "3.1.3", "4.1.1"):
        d = corpus[name]
        base = rendered_matrix(d, z3_involution, z5_bracket)
        for _ in range(10):
            moved = random_insert(d, rng)
            assert rendered_matrix(moved, z3_involution, z5_bracket) == base


def test_stacked_moves_stay_invariant(corpus, z3_involution, z5_bracket):
    rng = random.Random(11)
    d = corpus["2.1.1"]
    base_polys = poly_render(bracket_polynomial(d, z3_involution, z5_bracket))
    for _ in range(5):
        moved = d
        for _ in range(4):
            moved = random_insert(moved, rng)
        assert poly_render(bracket_polynomial(moved, z3_involution, z5_bracket)) \
            == base_polys


def test_move_invariance_on_z3_coloring_brackets(corpus, z3_coloring,
                                                 z3_coloring_brackets):
    # the only valid brackets here on a biquandle whose under operation
    # reads its second argument; each of the four moves on three diagrams
    # with 9, 9 and 27 colorings, where the 40 brackets give 9 distinct
    # matrices each
    rng = random.Random(13)
    for br in z3_coloring_brackets:
        assert verify_bracket_axioms(br).passed
        for name in ("3.1.6", "4.1.5", "5.1.4"):
            d = corpus[name]
            base = rendered_matrix(d, z3_coloring, br)
            for move in ("R1", "VR1", "R2", "VR2"):
                gap = rng.randint(0, len(d.passes))
                moved = insert_move(d, move, gap, rng.randint(0, len(d.passes)),
                                    sign=rng.choice([1, -1]),
                                    over_first=rng.choice([True, False]),
                                    parallel=rng.choice([True, False]))
                assert rendered_matrix(moved, z3_coloring, br) == base


def test_move_invariance_on_dihedral_brackets(corpus, dihedral):
    # the dihedral tables are the ones whose over operation reads its second
    # argument: the full search over Z_3 finds 40 brackets on each, and each
    # of the four moves on six diagrams leaves their invariants unchanged
    rng = random.Random(22)
    distinct = 0
    for x in dihedral:
        brackets = search_brackets(x, SearchConfig(3, "full")).brackets
        assert len(brackets) == 40
        for br in brackets:
            for name in ("2.1.1", "3.1.2", "3.1.6", "4.1.1", "4.1.5", "5.1.4"):
                d = corpus[name]
                base = invariants(d, x, br)
                cells = {p for row in base.bracket_matrix for p in row if p}
                distinct += len(cells) >= 2
                for move in ("R1", "VR1", "R2", "VR2"):
                    moved = insert_move(d, move, rng.randint(0, len(d.passes)),
                                        rng.randint(0, len(d.passes)),
                                        sign=rng.choice([1, -1]),
                                        over_first=rng.choice([True, False]),
                                        parallel=rng.choice([True, False]))
                    assert invariants(moved, x, br) == base
    # 168 of the 480 matrices hold two or more distinct nonzero cells, so the
    # moves are not checked on uniform matrices alone
    assert distinct == 168


def test_mis_signed_double_insertion_detected(corpus, z3_coloring,
                                              z3_involution, z5_bracket):
    # negative control: inserting two *same-sign* crossings in the R2 pattern
    # is not a Reidemeister move, and the invariants notice
    from vknotoid.diagram import KnotoidDiagram, Pass
    d = corpus["3.1.2"]
    toks = list(d.passes)
    k1, k2 = 900, 901
    toks[4:4] = [Pass("U", k1, 1), Pass("U", k2, 1)]
    toks[2:2] = [Pass("O", k1, 1), Pass("O", k2, 1)]
    fake = KnotoidDiagram(d.name, tuple(toks))
    assert counting_matrix(fake, z3_coloring) != counting_matrix(d, z3_coloring)
    assert rendered_matrix(fake, z3_involution, z5_bracket) \
        != rendered_matrix(d, z3_involution, z5_bracket)


def test_product_theorem(corpus, z3_coloring, z5_alexander):
    names = ["2.1.1", "2.1.2", "3.1.2", "3.1.6", "4.1.2"]
    pairs = [(a, b) for a in names for b in names][:20]
    for a, b in pairs:
        d1, d2 = corpus[a], corpus[b]
        combined = product(d1, d2)
        for x in (z3_coloring,):
            assert counting_matrix(combined, x) == matrix_product(
                counting_matrix(d1, x), counting_matrix(d2, x))
    # a couple over the larger biquandle too
    for a, b in [("2.1.1", "2.1.2"), ("3.1.2", "2.1.1")]:
        d1, d2 = corpus[a], corpus[b]
        assert counting_matrix(product(d1, d2), z5_alexander) == matrix_product(
            counting_matrix(d1, z5_alexander), counting_matrix(d2, z5_alexander))


def test_polynomial_multiplicity_equals_counting_invariant(
        corpus, z3_involution, z5_bracket):
    for name, d in corpus.items():
        poly = bracket_polynomial(d, z3_involution, z5_bracket)
        assert poly.total_multiplicity() == counting_invariant(d, z3_involution)


def test_negative_relations_invert_positive(corpus, z3_coloring, z5_alexander):
    # pushing colors through a +/- crossing pair returns the inputs: realized
    # by parallel R2 insertions preserving the coloring count everywhere
    rng = random.Random(5)
    d = corpus["2.1.1"]
    for x in (z3_coloring, z5_alexander):
        base = counting_invariant(d, x)
        for _ in range(6):
            g1 = rng.randint(0, len(d.passes))
            g2 = rng.randint(0, len(d.passes))
            moved = insert_move(d, "R2", min(g1, g2), max(g1, g2),
                                sign=rng.choice([1, -1]),
                                parallel=True)
            assert counting_invariant(moved, x) == base


def test_writhe_additive_under_product(corpus):
    from vknotoid.diagram import writhe
    d1, d2 = corpus["2.1.1"], corpus["4.1.10"]
    assert writhe(product(d1, d2)) == writhe(d1) + writhe(d2)
