"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Two checks
are expected failures (strict xfail): the bundled z37 reference coefficient
table is not a valid bracket (families 3/4/9/22/23 fail), so it cannot pass
the axiom check nor be move-invariant.  Its state-sum values over the frozen
corpus are still reproduced exactly; see the manifest and README notes.
"""

import random
import time

import pytest

from vknotoid.biquandle import (FiniteBiquandle, alexander_biquandle,
                                render_operation_matrix,
                                verify_biquandle_axioms)
from vknotoid.bracket import (bracket_matrix, bracket_polynomial,
                              diagonal_residuals, evaluate,
                              fundamental_bracket, verify_bracket_axioms)
from vknotoid.coloring import (counting_invariant, counting_matrix,
                               enumerate_colorings, matrix_product)
from vknotoid.diagram import insert_move, product
from vknotoid.ring import BracketPolynomial, poly_render
from vknotoid.search import SearchConfig, brute_force_singleton, search_brackets

from test_bracket import assert_states_match_naive, symbolic_states
from test_coloring import brute_force_colorings
from test_state_sum import dense_evaluator

Z5_REFERENCE_MATRIX = """\
5
4 1 3 5 2 4 4 4 4 4
1 3 5 2 4 3 3 3 3 3
3 5 2 4 1 2 2 2 2 2
5 2 4 1 3 1 1 1 1 1
2 4 1 3 5 5 5 5 5 5
"""

IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
CYCLE3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def report(line):
    print("ACCEPTANCE %s" % line)


def diag_strings(d, x, br):
    mat = bracket_matrix(d, x, br)
    for i in range(x.n):
        for j in range(x.n):
            if i != j:
                assert not mat[i][j], "off-diagonal entry at (%d,%d)" % (i, j)
    return tuple(poly_render(mat[i][i]) for i in range(x.n))


def test_c01_alexander_construction():
    got = render_operation_matrix(alexander_biquandle(5, 2, 4))
    assert got == Z5_REFERENCE_MATRIX
    report("C1 alexander construction reproduces the 5x10 table: PASS")


def test_c02_axiom_suite(z3_coloring, z3_involution, z5_alexander):
    for x in (z3_coloring, z3_involution, z5_alexander):
        assert verify_biquandle_axioms(x).passed
    assert alexander_biquandle(3, 2, 2, shift_under=1, shift_over=1) == z3_involution
    # single-entry mutations must all fail
    mutations = 0
    for x in (z3_coloring, z3_involution, z5_alexander):
        for (i, j, which) in ((0, 0, "under"), (1, 2, "under"), (0, 1, "over")):
            tbl = [list(r) for r in (x.under_table if which == "under"
                                     else x.over_table)]
            tbl[i][j] = (tbl[i][j] + 1) % x.n
            mutated = FiniteBiquandle(
                tuple(tuple(r) for r in tbl) if which == "under" else x.under_table,
                x.over_table if which == "under" else tuple(tuple(r) for r in tbl))
            assert not verify_biquandle_axioms(mutated).passed
            mutations += 1
    assert ("diagonal", (1,)) in verify_biquandle_axioms(
        FiniteBiquandle(
            ((0,) + z3_coloring.under_table[0][1:],) + z3_coloring.under_table[1:],
            z3_coloring.over_table)).violations
    report("C2 axiom suite (3 tables pass, %d mutations fail): PASS" % mutations)


def test_c03_coloring_anchors(corpus, z5_alexander, z3_coloring):
    cols = enumerate_colorings(corpus["2.1.1"], z5_alexander)
    assert len(cols) == 5
    expected = {tuple((k * v - 1) % 5 for v in (3, 2, 1, 0, 0)) for k in range(5)}
    assert set(cols) == expected
    assert counting_invariant(corpus["3.1.2"], z3_coloring) == 3
    assert counting_invariant(corpus["2.1.1"], z3_coloring) == 0
    assert counting_matrix(corpus["3.1.2"], z3_coloring) == CYCLE3
    assert counting_matrix(corpus["2.1.2"], z3_coloring) == IDENTITY3
    assert counting_matrix(corpus["4.1.2"], z3_coloring) == CYCLE3
    report("C3 coloring anchors (kernel span, counts, matrices): PASS")


def test_c04a_bracket_axioms_z5(z5_bracket):
    assert verify_bracket_axioms(z5_bracket).passed
    # (1)-(2) at the diagonal of the z5 bracket and of the z37 data
    assert [r % 5 for r in diagonal_residuals(2, 4, 4, 1, 0, 4, 1, 0)] == [0, 0]
    assert [r % 37 for r in diagonal_residuals(5, 9, 7, 11, 0, 16, 27, 0)] \
        == [0, 0]
    report("C4a z5 bracket passes all 23 families + identities: PASS")


@pytest.mark.xfail(strict=True,
                   reason="bundled z37 reference table violates families "
                          "3/4/9/22/23; retained as the corpus reference data")
def test_c04b_bracket_axioms_z37(z37_bracket):
    report("C4b z37 table passes all 23 families: FAIL (known data defect)")
    assert verify_bracket_axioms(z37_bracket).passed


def test_c04c_mutated_bracket_fails(z5_bracket, z3_involution):
    from vknotoid.bracket import VirtualBracket
    a = [list(r) for r in z5_bracket.A]
    a[0][0] = 0
    mutated = VirtualBracket(z3_involution, z5_bracket.modulus,
                             tuple(tuple(r) for r in a), z5_bracket.B,
                             z5_bracket.V, z5_bracket.C, z5_bracket.D,
                             z5_bracket.U, z5_bracket.delta, z5_bracket.omega)
    families = {f for f, _ in verify_bracket_axioms(mutated).violations}
    assert {"1", "3"} <= families
    report("C4c mutated bracket rejected with witnesses: PASS")


def test_c05_corpus_gate_symbolic(corpus):
    sym = fundamental_bracket(corpus["2.1.1"])
    states = symbolic_states(sym)
    assert len(states) == 9
    assert sym.omega_exp == 2
    assert [p for _, p in sym.crossings] == [(4, 1), (3, 4)]
    by_letters = {tuple(l[k] for (l, _), k in zip(sym.crossings, kinds)): m
                  for kinds, m in states}
    assert by_letters == {
        ("C", "C"): 1, ("C", "D"): 1, ("C", "U"): 2,
        ("D", "C"): 1, ("D", "D"): 2, ("D", "U"): 1,
        ("U", "C"): 2, ("U", "D"): 1, ("U", "U"): 1,
    }
    assert sorted(m for _, m in states) == [1, 1, 1, 1, 1, 1, 2, 2, 2]
    report("C5 fundamental bracket of 2.1.1 (gate): PASS")


def test_c06_worked_evaluation(corpus, z3_involution, z5_bracket):
    d = corpus["2.1.1"]
    assert evaluate(d, (2, 0, 2, 0, 2), z5_bracket) == 3
    assert bracket_polynomial(d, z3_involution, z5_bracket).as_dict() \
        == {3: 2, 2: 1}
    assert poly_render(bracket_polynomial(d, z3_involution, z5_bracket)) \
        == "2u^3+u^2"
    assert bracket_polynomial(corpus["4.1.1"], z3_involution,
                              z5_bracket).as_dict() == {2: 3}
    report("C6 worked evaluation (value 3, {3,3,2}, 2u^3+u^2, {2,2,2}): PASS")


def test_c07_matrix_enhancement(corpus, z3_involution, z3_shift, z5_bracket,
                                z37_bracket):
    assert diag_strings(corpus["3.1.1"], z3_involution, z5_bracket) \
        == ("u^2", "u^2", "u^2")
    assert diag_strings(corpus["3.1.3"], z3_involution, z5_bracket) \
        == ("u^3", "u^2", "u^3")
    for name in ("2.1.1", "3.1.1"):
        assert counting_invariant(corpus[name], z3_shift) == 3
        assert counting_matrix(corpus[name], z3_shift) == IDENTITY3
        assert poly_render(bracket_polynomial(corpus[name], z3_shift,
                                              z37_bracket)) == "u^34+u^27+u^19"
    d211 = diag_strings(corpus["2.1.1"], z3_shift, z37_bracket)
    d311 = diag_strings(corpus["3.1.1"], z3_shift, z37_bracket)
    assert d211 == ("u^19", "u^34", "u^27")
    assert d311 == ("u^34", "u^27", "u^19")
    assert d211 != d311
    assert {19, 34, 27} == {int(s[2:]) for s in d211} == {int(s[2:]) for s in d311}
    report("C7 matrix enhancement distinguishes 2.1.1 from 3.1.1: PASS")


def test_c08_reference_table(corpus, manifest, z3_shift, z37_bracket, z37_diag):
    verified = 0
    for name, d in sorted(corpus.items()):
        if manifest[name]["status"] != "verified":
            report("C8 %s: UNVERIFIED (excluded)" % name)
            continue
        got = diag_strings(d, z3_shift, z37_bracket)
        want = tuple("u" if e == 1 else "u^%d" % e for e in z37_diag[name])
        assert got == want, (name, got, want)
        verified += 1
    equal_pairs = [("3.1.1", "3.1.4"), ("3.1.2", "3.1.3"), ("3.1.5", "3.1.10"),
                   ("4.1.6", "5.1.2"), ("4.1.3", "5.1.3")]
    for a, b in equal_pairs:
        assert z37_diag[a] == z37_diag[b], (a, b)
        ma = [[poly_render(p) for p in row]
              for row in bracket_matrix(corpus[a], z3_shift, z37_bracket)]
        mb = [[poly_render(p) for p in row]
              for row in bracket_matrix(corpus[b], z3_shift, z37_bracket)]
        assert ma == mb
    report("C8 reference table rows match for %d verified entries "
           "+ 5 coinciding pairs: PASS" % verified)


def test_c09a_move_invariance_500(corpus, z3_involution, z5_bracket):
    rng = random.Random(20240808)
    names = sorted(corpus)
    total = 0
    base_cache = {}
    while total < 500:
        name = names[total % len(names)]
        d = corpus[name]
        if name not in base_cache:
            base_cache[name] = (
                counting_matrix(d, z3_involution),
                [[poly_render(p) for p in row]
                 for row in bracket_matrix(d, z3_involution, z5_bracket)])
        move = rng.choice(["R1", "VR1", "R2", "VR2"])
        gap = rng.randint(0, len(d.passes))
        gap2 = rng.randint(0, len(d.passes)) if move in ("R2", "VR2") else None
        moved = insert_move(d, move, gap, gap2, sign=rng.choice([1, -1]),
                            over_first=rng.choice([True, False]),
                            parallel=rng.choice([True, False]))
        assert counting_matrix(moved, z3_involution) == base_cache[name][0]
        got = [[poly_render(p) for p in row]
               for row in bracket_matrix(moved, z3_involution, z5_bracket)]
        assert got == base_cache[name][1], (name, move, gap, gap2)
        total += 1
    report("C9a 500 random move insertions preserve M and M^beta: PASS")


@pytest.mark.xfail(strict=True,
                   reason="the z37 reference table is not a valid bracket, "
                          "so its state sum is not R2-invariant")
def test_c09a_z37_not_move_invariant(corpus, z3_shift, z37_bracket):
    d = corpus["2.1.1"]
    base = diag_strings(d, z3_shift, z37_bracket)
    report("C9a' z37 table move invariance: FAIL (known data defect)")
    for gap2 in range(1, 5):
        moved = insert_move(d, "R2", 0, gap2, sign=1)
        mat = bracket_matrix(moved, z3_shift, z37_bracket)
        got = tuple(poly_render(mat[i][i]) for i in range(3))
        assert got == base


def test_c09b_product_theorem(corpus, z3_coloring):
    names = ["2.1.1", "2.1.2", "3.1.2", "3.1.6", "4.1.2"]
    pairs = [(a, b) for a in names for b in names][:20]
    assert len(pairs) == 20
    for a, b in pairs:
        lhs = counting_matrix(product(corpus[a], corpus[b]), z3_coloring)
        rhs = matrix_product(counting_matrix(corpus[a], z3_coloring),
                             counting_matrix(corpus[b], z3_coloring))
        assert lhs == rhs
    report("C9b product theorem on 20 corpus pairs: PASS")


def twisted_product(m1, m2, br):
    """Sum over the middle index of cellwise products, where
    u^a (x) u^b = u^(a*b/delta): the bracket matrix of a product diagram."""
    m = br.modulus.m
    dinv = pow(br.delta, -1, m)
    out = []
    for row in m1:
        cells = []
        for j in range(len(m2[0])):
            cell = {}
            for p, q in zip(row, (r[j] for r in m2)):
                for a, s in p.terms:
                    for b, t in q.terms:
                        e = a * b * dinv % m
                        cell[e] = cell.get(e, 0) + s * t
            cells.append(BracketPolynomial.from_dict(br.modulus, cell))
        out.append(cells)
    return out


def test_c09b_bracket_product_rule(corpus, z3_involution, z5_bracket):
    # a product of five corpus diagrams with c = 22, whose 3^c state sum
    # would expand 3^22 states; the sweep never holds more than three
    names = ["5.1.1", "4.1.6", "5.1.4", "3.1.6", "5.1.9"]
    d = corpus[names[0]]
    want = bracket_matrix(d, z3_involution, z5_bracket)
    for name in names[1:]:
        d = product(d, corpus[name])
        want = twisted_product(
            want, bracket_matrix(corpus[name], z3_involution, z5_bracket),
            z5_bracket)
    assert d.classical_count >= 20
    assert bracket_matrix(d, z3_involution, z5_bracket) == want
    report("C9b bracket product rule on a c=%d product of %d diagrams: PASS"
           % (d.classical_count, len(names)))


def test_c09c_entry_sums(corpus, z3_coloring, z3_involution, z3_shift):
    for name, d in corpus.items():
        for x in (z3_coloring, z3_involution, z3_shift):
            assert sum(map(sum, counting_matrix(d, x))) \
                == counting_invariant(d, x)
    report("C9c entry sums match the counting invariant everywhere: PASS")


def test_c09d_symbolic_concrete_agreement(corpus, z3_involution, z5_bracket):
    checked = 0
    for name, d in sorted(corpus.items()):
        sym = fundamental_bracket(d)
        assert len(sym.components) == 3 ** d.classical_count
        value = dense_evaluator(sym, z5_bracket)
        for f in enumerate_colorings(d, z3_involution):
            assert value(f) == evaluate(d, f, z5_bracket)
            checked += 1
    report("C9d symbolic/concrete agreement on %d colorings: PASS" % checked)


def test_c09e_brute_force_oracles(corpus, z3_coloring, z3_involution):
    # coloring enumeration against exhaustive assignment search
    small = [n for n, d in corpus.items() if d.classical_count <= 3]
    for name in small:
        d = corpus[name]
        for x in (z3_coloring, z3_involution):
            assert sorted(brute_force_colorings(d, x)) \
                == sorted(enumerate_colorings(d, x))
    # the sweep plan's state components against naive traversal
    for name in small:
        assert_states_match_naive(corpus[name])
    report("C9e brute-force oracles agree (colorings + components): PASS")


def test_c10_search(z3_involution, z5_bracket):
    started = time.time()
    result = search_brackets(z3_involution,
                             SearchConfig(modulus=5, ansatz="diagonal", seed=0))
    elapsed = time.time() - started
    assert elapsed < 60.0
    assert not result.exhausted

    def key(b):
        return (b.A, b.B, b.V, b.C, b.D, b.U, b.delta, b.omega)

    assert key(z5_bracket) in {key(b) for b in result.brackets}
    for b in result.brackets:
        assert verify_bracket_axioms(b).passed
    singleton = FiniteBiquandle(((0,),), ((0,),))
    for p in (2, 3):
        full = search_brackets(singleton, SearchConfig(modulus=p, ansatz="full"))
        assert {key(b) for b in full.brackets} \
            == {key(b) for b in brute_force_singleton(p)}
    report("C10 search finds the reference bracket in %.1fs and matches "
           "singleton brute force: PASS" % elapsed)
