import dataclasses
import hashlib
import itertools
import random

import pytest

from vknotoid.bracket import (ColoringMismatch, VirtualBracket,
                              bracket_matrix, bracket_multiset,
                              bracket_polynomial, enumerate_states, evaluate,
                              evaluate_symbolic, fundamental_bracket,
                              parse_bracket, render_bracket, render_symbolic,
                              smooth_components, verify_bracket_axioms)
from vknotoid.biquandle import FiniteBiquandle, verify_biquandle_axioms
from vknotoid.coloring import enumerate_colorings
from vknotoid.diagram import parse_diagram
from vknotoid.ring import poly_render


# -- axioms ----------------------------------------------------------------------

def test_z5_bracket_passes_all_axioms(z5_bracket):
    report = verify_bracket_axioms(z5_bracket)
    assert report.passed, report.violations[:10]


def test_z5_bracket_defining_identities(z5_bracket):
    # equation (1): delta*A_xx + B_xx + V_xx = omega
    assert (2 * 4 + 1 + 0) % 5 == z5_bracket.omega == 4


def test_z37_data_identities(z37_bracket):
    # the omega identities hold even though this table is not a valid bracket
    assert (5 * 7 + 11) % 37 == z37_bracket.omega == 9
    assert (5 * 16 + 27) % 37 == 33
    assert 9 * 33 % 37 == 1


def test_z37_data_fails_pair_equations(z37_bracket):
    # V and U are not entrywise inverse off the diagonal, so families 3 and 4
    # are violated; this is a recorded defect of the bundled reference table.
    report = verify_bracket_axioms(z37_bracket)
    assert not report.passed
    families = {a for a, _ in report.violations}
    assert {"3", "4"} <= families


def test_mutated_z5_bracket_fails(z5_bracket, z3_involution):
    a = [list(r) for r in z5_bracket.A]
    a[0][0] = 0
    mutated = VirtualBracket(z3_involution, z5_bracket.modulus,
                             tuple(tuple(r) for r in a), z5_bracket.B,
                             z5_bracket.V, z5_bracket.C, z5_bracket.D,
                             z5_bracket.U, z5_bracket.delta, z5_bracket.omega)
    report = verify_bracket_axioms(mutated)
    assert not report.passed
    families = {a for a, _ in report.violations}
    assert "1" in families and "3" in families


def single_entry_mutations(br, count, seed=0):
    """Brackets differing from ``br`` in one coefficient entry each."""
    rng = random.Random(seed)
    for _ in range(count):
        letter = rng.choice("ABVCDU")
        i, j = rng.randrange(3), rng.randrange(3)
        rows = [list(r) for r in br.table(letter)]
        rows[i][j] = rng.randrange(5)
        yield dataclasses.replace(br, **{letter: tuple(map(tuple, rows))})


def frozen_reports(base):
    return [verify_bracket_axioms(b).violations
            for b in (base, *single_entry_mutations(base, 200))]


def test_violations_are_frozen(z5_bracket, z37_bracket):
    # every violation tuple (family, witness) the verifier reports, in report
    # order, pinned by count and digest
    reports = [verify_bracket_axioms(z37_bracket).violations]
    reports += frozen_reports(z5_bracket)
    assert len(reports[0]) == 28
    assert sum(map(len, reports)) == 1719
    assert hashlib.sha256(repr(reports).encode()).hexdigest() \
        == "37e9b2f68158f92843f00d50dfa2cff8909e9c4f27189294a7ad93a0fa2b7b20"
    # the bundled brackets sit on tables whose two operations agree and read
    # only their first argument, so they cannot pin which operation and which
    # arguments each slot of (9)-(23) reads; two unequal tables that read both
    # arguments asymmetrically can (they need not form a biquandle)
    generic = FiniteBiquandle(
        tuple(tuple((a + 2 * b) % 3 for b in range(3)) for a in range(3)),
        tuple(tuple((2 * a + b + 1) % 3 for b in range(3)) for a in range(3)))
    reports = frozen_reports(dataclasses.replace(z5_bracket, biquandle=generic))
    assert sum(map(len, reports)) == 18929
    assert hashlib.sha256(repr(reports).encode()).hexdigest() \
        == "f03b0c76cd1923b552bbe9c348b09236a382dc3970708f8dda9bb7f56a5c4b50"


def biquandle_mutations(x, count, seed=0):
    """Tables differing from ``x`` in one entry of one operation, or, every
    other one, in two entries of one column swapped: that keeps the column
    maps bijective, so an exchange law can be the first violation."""
    rng = random.Random(seed)
    for k in range(count):
        tables = [[list(r) for r in x.under_table], [list(r) for r in x.over_table]]
        t, j = rng.choice(tables), rng.randrange(x.n)
        a, b = rng.sample(range(x.n), 2)
        if k % 2:
            t[a][j], t[b][j] = t[b][j], t[a][j]
        else:
            t[a][j] = (t[a][j] + rng.randrange(1, x.n)) % x.n
        yield FiniteBiquandle(*(tuple(map(tuple, t)) for t in tables))


@pytest.mark.parametrize("first_only, count, digest", [
    (False, 8287, "ed1b1a918eadf9478de0bd8ee64b26fc14e7be6edb809af7aa490c77b0dd90c6"),
    (True, 357, "d42ee0c8059236ef0bb753813c8dbb21b0d05e7b9dbfbd89c3e8405dc6052f56"),
])
def test_biquandle_violations_are_frozen(z3_coloring, z3_involution, z3_shift,
                                         z5_alexander, dihedral,
                                         first_only, count, digest):
    # every AxiomReport of the biquandle verifier, violations in report order,
    # over the bundled and dihedral tables and 60 mutations of each
    reports = [verify_biquandle_axioms(t, first_only)
               for x in (z3_coloring, z3_involution, z3_shift, z5_alexander,
                         *dihedral)
               for t in (x, *biquandle_mutations(x, 60))]
    assert len(reports) == 366
    assert sum(len(r.violations) for r in reports) == count
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == digest


def test_bracket_file_round_trip(z5_bracket, z3_involution):
    text = render_bracket(z5_bracket)
    again = parse_bracket(text, z3_involution)
    assert again == z5_bracket


# -- smoothing components ----------------------------------------------------------

def naive_components(diagram, smoothing):
    """Independent oracle: build explicit arc-end adjacency and walk it."""
    crossings = diagram.crossings()
    c = diagram.classical_count
    npass = 2 * c
    edges = []
    for k in range(npass + 1):
        a = ("tail",) if k == 0 else ("out", k - 1)
        b = ("head",) if k == npass else ("in", k)
        edges.append((a, b))
    for cid, cr in crossings.items():
        u_in, u_out = ("in", cr.under_pass), ("out", cr.under_pass)
        o_in, o_out = ("in", cr.over_pass), ("out", cr.over_pass)
        kind = smoothing[cid]
        if kind == "vertical":
            edges += [(u_in, o_out), (o_in, u_out)]
        elif kind == "horizontal":
            edges += [(u_in, o_in), (u_out, o_out)]
        else:
            edges += [(u_in, u_out), (o_in, o_out)]
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = set()
    comps = 0
    for start in adj:
        if start in seen:
            continue
        comps += 1
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adj[node])
    return comps


def test_trivial_components():
    assert smooth_components(parse_diagram(""), {}) == 1


def test_2_1_1_both_horizontal_has_two_components(corpus):
    d = corpus["2.1.1"]
    assert smooth_components(d, {1: "horizontal", 2: "horizontal"}) == 2


def test_2_1_1_state_multiset(corpus):
    d = corpus["2.1.1"]
    counts = {}
    for s1 in ("vertical", "horizontal", "virtual"):
        for s2 in ("vertical", "horizontal", "virtual"):
            m = smooth_components(d, {1: s1, 2: s2})
            counts[(s1, s2)] = m
    twos = {k for k, v in counts.items() if v == 2}
    assert twos == {("horizontal", "horizontal"), ("vertical", "virtual"),
                    ("virtual", "vertical")}
    assert all(v in (1, 2) for v in counts.values())


def test_state_count_is_power_of_three(corpus):
    for name in ("2.1.1", "3.1.5", "4.1.7"):
        d = corpus[name]
        assert len(enumerate_states(d)) == 3 ** d.classical_count


def test_components_match_naive_oracle(corpus):
    smalls = [corpus[n] for n in ("2.1.1", "2.1.2", "3.1.2", "3.1.9")]
    smalls.append(parse_diagram("O+1,U+1,V1,V1"))
    for d in smalls:
        if d.classical_count > 3 and d.name != "2.1.2":
            continue
        cids = sorted(d.crossings())
        for combo in itertools.product(("vertical", "horizontal", "virtual"),
                                       repeat=len(cids)):
            sm = dict(zip(cids, combo))
            assert smooth_components(d, sm) == naive_components(d, sm)


# -- evaluation ---------------------------------------------------------------------

def test_trivial_diagram_evaluates_to_delta(z3_involution, z5_bracket):
    trivial = parse_diagram("")
    for i in range(3):
        assert evaluate(trivial, (i,), z5_bracket).value == z5_bracket.delta
    # n copies of delta; matrix is u^delta times the identity
    assert bracket_multiset(trivial, z3_involution, z5_bracket) \
        == {z5_bracket.delta: 3}
    mat = bracket_matrix(trivial, z3_involution, z5_bracket)
    for i in range(3):
        for j in range(3):
            assert poly_render(mat[i][j]) == ("u^2" if i == j else "0")


def test_worked_value_of_2_1_1(corpus, z5_bracket):
    # coloring: odd semi-arcs -> element 3 (index 2), even -> element 1 (index 0)
    d = corpus["2.1.1"]
    val = evaluate(d, (2, 0, 2, 0, 2), z5_bracket)
    assert val.value == 3
    # hand check: 16 * (4*0 + 2*(3*3)) = 288 = 3 mod 5
    assert 16 * (4 * 0 + 2 * 9) % 5 == 3


def test_coloring_mismatch_rejected(corpus, z5_bracket):
    for coloring in [(0, 0, 0, 0, 0),         # violates a crossing relation
                     (0, 2, 0, 2, 0, 1),      # one color too many
                     (-3, 2, 0, 2, 0),        # a negative color
                     (0, 0, 0),               # too few colors
                     (7, 0, 0, 0, 0)]:        # a color outside the biquandle
        with pytest.raises(ColoringMismatch):
            evaluate(corpus["2.1.1"], coloring, z5_bracket)


def test_multiset_of_2_1_1(corpus, z3_involution, z5_bracket):
    assert bracket_multiset(corpus["2.1.1"], z3_involution, z5_bracket) \
        == {3: 2, 2: 1}


def test_multiset_of_4_1_1(corpus, z3_involution, z5_bracket):
    assert bracket_multiset(corpus["4.1.1"], z3_involution, z5_bracket) == {2: 3}


def test_polynomials(corpus, z3_involution, z3_shift, z5_bracket, z37_bracket):
    assert poly_render(bracket_polynomial(corpus["2.1.1"], z3_involution,
                                          z5_bracket)) == "2u^3+u^2"
    assert poly_render(bracket_polynomial(corpus["4.1.1"], z3_involution,
                                          z5_bracket)) == "3u^2"
    p211 = bracket_polynomial(corpus["2.1.1"], z3_shift, z37_bracket)
    p311 = bracket_polynomial(corpus["3.1.1"], z3_shift, z37_bracket)
    assert poly_render(p211) == "u^34+u^27+u^19"
    assert p211 == p311          # the polynomial cannot tell them apart


def test_matrix_over_z5_data(corpus, z3_involution, z5_bracket):
    def diag(name):
        mat = bracket_matrix(corpus[name], z3_involution, z5_bracket)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert not mat[i][j]
        return tuple(poly_render(mat[i][i]) for i in range(3))

    assert diag("3.1.1") == ("u^2", "u^2", "u^2")
    assert diag("3.1.3") == ("u^3", "u^2", "u^3")


def test_matrix_distinguishes_2_1_1_from_3_1_1(corpus, z3_shift, z37_bracket):
    def diag(name):
        mat = bracket_matrix(corpus[name], z3_shift, z37_bracket)
        return tuple(poly_render(mat[i][i]) for i in range(3))

    d211, d311 = diag("2.1.1"), diag("3.1.1")
    assert d211 == ("u^19", "u^34", "u^27")
    assert d311 == ("u^34", "u^27", "u^19")
    assert d211 != d311


def test_matrix_multiplicities_refine_counting_matrix(corpus, z3_coloring,
                                                      z5_bracket, z3_involution):
    from vknotoid.coloring import counting_matrix
    for name in ("2.1.1", "3.1.2"):
        d = corpus[name]
        mat = bracket_matrix(d, z3_involution, z5_bracket)
        counts = counting_matrix(d, z3_involution)
        for i in range(3):
            for j in range(3):
                assert mat[i][j].total_multiplicity() == counts[i][j]


# -- symbolic bracket ------------------------------------------------------------------

def test_fundamental_of_trivial():
    sym = fundamental_bracket(parse_diagram(""))
    assert len(sym.terms) == 1
    t = sym.terms[0]
    assert t.omega_exp == 0 and t.delta_exp == 1 and t.factors == ()
    assert render_symbolic(sym) == "d"


def test_fundamental_of_2_1_1_reproduces_reference_structure(corpus):
    sym = fundamental_bracket(corpus["2.1.1"])
    assert len(sym.terms) == 9
    assert all(t.omega_exp == 2 for t in sym.terms)
    for t in sym.terms:
        pairs = [p for _, p in t.factors]
        assert pairs == [(4, 1), (3, 4)]
        assert all(letter in "CDU" for letter, _ in t.factors)
    by_letters = {tuple(l for l, _ in t.factors): t.delta_exp for t in sym.terms}
    assert by_letters == {
        ("D", "D"): 2, ("C", "U"): 2, ("U", "C"): 2,
        ("D", "C"): 1, ("D", "U"): 1, ("C", "D"): 1,
        ("C", "C"): 1, ("U", "D"): 1, ("U", "U"): 1,
    }
    exps = sorted(t.delta_exp for t in sym.terms)
    assert exps == [1, 1, 1, 1, 1, 1, 2, 2, 2]


def test_symbolic_agrees_with_concrete(corpus, z3_involution, z3_shift,
                                       z5_bracket, z37_bracket):
    for name in ("2.1.1", "2.1.2", "3.1.2", "3.1.7", "4.1.5"):
        d = corpus[name]
        sym = fundamental_bracket(d)
        for x, br in ((z3_involution, z5_bracket), (z3_shift, z37_bracket)):
            for f in enumerate_colorings(d, x):
                assert evaluate_symbolic(sym, f, br).value \
                    == evaluate(d, f, br).value
