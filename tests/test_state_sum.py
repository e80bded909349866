"""Bit-for-bit oracles on seeded random codes: the frontier sweep against
the 3^c state sum it replaced, read off the symbolic state sum, the 3^c
component table and the sweep plan's states against a naive walk of the
smoothed curve, the coloring plan against brute force, against the
traversal walk it replaced, and on wide codes against linear algebra over
Z_5, and the coloring check of evaluate against brute force."""

import itertools
import random
from operator import mul

import pytest

from vknotoid.biquandle import (alexander_biquandle, parse_operation_matrix,
                                verify_biquandle_axioms)
from vknotoid.bracket import (SMOOTHINGS, ColoringMismatch, Invariants,
                              State, bracket_matrix, enumerate_states,
                              evaluate, fundamental_bracket, invariants)
from vknotoid.coloring import (counting_matrix, enumerate_colorings,
                               iter_colorings)
from vknotoid.diagram import (KnotoidDiagram, Pass, insert_move, product,
                              writhe)
from vknotoid.ring import BracketPolynomial

from test_bracket import (assert_states_match_naive, random_brackets,
                          symbolic_states)
from test_cli import NOT_A_BIQUANDLE
from test_coloring import brute_force_colorings


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


def frontier_width(d):
    """The most classical crossings met once and not yet twice along the
    code; the walk below branches about n^width times."""
    met, width = set(), 0
    for p in d.passes:
        if p.kind != "V":
            met ^= {p.crossing}
            width = max(width, len(met))
    return width


def state_components(diagram):
    """Component count of every state, in enumerate_states order.

    Union-find over the 2c+1 semi-arcs: semi-arc k is both the out-port of
    pass k-1 and the in-port of pass k, so each smoothing joins two pairs of
    semi-arcs.  The walk descends through the crossings in ascending id,
    copies the parent list at each level and subtracts the successful unions
    from the component count; the last level only counts.
    """
    crossings = diagram.crossings()
    joins = []
    for cid in sorted(crossings):
        cr = crossings[cid]
        joins.append((((cr.u_in, cr.o_out), (cr.o_in, cr.u_out)),    # vertical
                      ((cr.u_in, cr.o_in), (cr.u_out, cr.o_out)),    # horizontal
                      ((cr.u_in, cr.u_out), (cr.o_in, cr.o_out))))   # virtual
    if not joins:
        return bytes([1])
    out = bytearray()
    last = len(joins) - 1

    def walk(level, parent, comps):
        for (a, b), (c, d) in joins[level]:
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            while parent[c] != c:
                c = parent[c]
            while parent[d] != d:
                d = parent[d]
            k = comps
            if a != b:           # join root a under b
                k -= 1
                if c == a:
                    c = b
                if d == a:
                    d = b
            if c != d:
                k -= 1
            if level == last:
                out.append(k)
            else:
                p = parent[:]
                p[a] = b
                p[c] = d
                walk(level + 1, p, k)

    walk(0, list(range(diagram.semi_arc_count)), diagram.semi_arc_count)
    return bytes(out)


def dense_evaluator(sym, br):
    """The 3^c state sum the frontier sweep replaced, kept as the one oracle
    that substitutes a coloring into a symbolic state sum: per coloring it
    expands the products of all states level by level in the order of the
    component table and weighs each by delta^components * omega^omega_exp.
    The coloring is not checked."""
    m = br.modulus.m
    steps = [([br.table(letter) for letter in letters], (i - 1, j - 1))
             for letters, (i, j) in sym.crossings]
    wfac = pow(br.omega, sym.omega_exp, m)
    weights = [pow(br.delta, k, m) * wfac % m for k in sym.components]

    def value(coloring):
        prods = [1]
        for tables, (i, j) in steps:
            coeffs = [t[coloring[i]][coloring[j]] for t in tables]
            prods = [p * c for p in prods for c in coeffs]
        return sum(map(mul, weights, prods)) % m

    return value


def dense_invariants(diagram, x, br):
    value = dense_evaluator(fundamental_bracket(diagram), br)
    cells = [[{} for _ in range(x.n)] for _ in range(x.n)]
    for f in iter_colorings(diagram, x):
        cell = cells[f[0]][f[-1]]
        v = value(f)
        cell[v] = cell.get(v, 0) + 1
    return Invariants([[sum(c.values()) for c in row] for row in cells],
                      [[BracketPolynomial.from_dict(br.modulus, c) for c in row]
                       for row in cells])


def test_state_components_match_union_find_per_state():
    rng = random.Random(1)
    codes = [random_code(rng, c) for c in (0, 1, 2, 3, 4, 5, 6) * 2]
    for c in (2, 4, 5):
        d = random_code(rng, c)
        for over_first in (True, False):
            codes.append(insert_move(d, "R1", rng.randint(0, len(d.passes)),
                                     sign=rng.choice((1, -1)),
                                     over_first=over_first))
    kinks = [cr for d in codes for cr in d.crossings().values()]
    assert any(cr.u_out == cr.o_in for cr in kinks)
    assert any(cr.u_in == cr.o_out for cr in kinks)
    for d in codes:
        states = assert_states_match_naive(d)
        assert list(state_components(d)) == [st.components for st in states]


def has_cut(d):
    """True when some gap between classical passes is straddled by no
    classical crossing, so the code is a product at that gap."""
    met = set()
    classical = [p for p in d.passes if p.kind != "V"]
    for p in classical[:-1]:
        met ^= {p.crossing}
        if not met:
            return True
    return False


def oracle_codes(corpus):
    """Seeded codes with c <= 8 and 2 virtual crossings, cut-free codes of
    width 6, 7 and 8, corpus products, and codes with kinks in both
    orientations (u_out == o_in and u_in == o_out)."""
    rng = random.Random(9)
    codes = [random_code(rng, c) for c in (0, 1, 2, 3, 4, 5, 6, 7, 8)]
    for c, width in ((6, 6), (7, 7), (8, 6), (8, 7), (8, 8)):
        codes.append(next(d for d in iter(lambda: random_code(rng, c), None)
                          if frontier_width(d) == width and not has_cut(d)))
    names = sorted(corpus)
    for _ in range(4):
        a, b = rng.sample(names, 2)
        d = product(corpus[a], corpus[b])
        if d.classical_count <= 8:
            codes.append(d)
    for c in (3, 5, 6):
        d = random_code(rng, c)
        for over_first in (True, False):
            kinked = insert_move(d, "R1", rng.randint(0, len(d.passes)),
                                 sign=rng.choice((1, -1)), over_first=over_first)
            codes.append(kinked)
    kinks = [cr for d in codes for cr in d.crossings().values()]
    assert any(cr.u_out == cr.o_in for cr in kinks)
    assert any(cr.u_in == cr.o_out for cr in kinks)
    return codes


def test_symbolic_bracket_holds_each_crossing_and_state_once(corpus):
    # each crossing once, in ascending id: its letters and its argument
    # pair, the first two semi-arcs of S; each state once, as one byte at
    # its mixed-radix number: the component count that the union-find
    # counter gives the state whose digits are its smoothing indices
    for d in list(corpus.values()) + oracle_codes(corpus):
        sym = fundamental_bracket(d)
        crossings = d.crossings()
        cids = sorted(crossings)
        want = []
        for cid in cids:
            cr = crossings[cid]
            a, b = cr.sideways[:2]
            want.append(("ABV" if cr.sign > 0 else "CDU", (a + 1, b + 1)))
        assert sym.crossings == tuple(want)
        assert sym.omega_exp == -writhe(d)
        assert type(sym.components) is bytes
        assert sym.components == state_components(d)
        assert enumerate_states(d) == [
            State(tuple((cid, SMOOTHINGS[k]) for cid, k in zip(cids, kinds)), m)
            for kinds, m in symbolic_states(sym)]


def test_sweep_matches_the_3c_state_sum(corpus, z3_involution, z5_bracket,
                                        z3_shift, z37_bracket, z3_coloring,
                                        z3_coloring_brackets):
    codes = oracle_codes(corpus)
    for d in codes:
        for x, br in ((z3_involution, z5_bracket), (z3_shift, z37_bracket)):
            assert invariants(d, x, br) == dense_invariants(d, x, br)
    for br in z3_coloring_brackets:
        for d in codes:
            assert invariants(d, z3_coloring, br) \
                == dense_invariants(d, z3_coloring, br)


@pytest.mark.parametrize("biquandle, bracket", [
    ("z3_involution", "z5_bracket"), ("z3_shift", "z37_bracket")])
def test_values_match_symbolic_state_sum(request, biquandle, bracket):
    x = request.getfixturevalue(biquandle)
    br = request.getfixturevalue(bracket)
    for d in random_codes(2, (1, 2, 3, 4, 5, 6) * 2):
        value = dense_evaluator(fundamental_bracket(d), br)
        cells = [[{} for _ in range(x.n)] for _ in range(x.n)]
        for f in enumerate_colorings(d, x):
            want = value(f)
            assert evaluate(d, f, br) == want
            cell = cells[f[0]][f[-1]]
            cell[want] = cell.get(want, 0) + 1
        got = bracket_matrix(d, x, br)
        assert [[p.as_dict() for p in row] for row in got] == cells


def test_colorings_are_the_sorted_brute_force_list(z3_coloring, z3_involution,
                                                   z5_alexander, dihedral):
    # brute force tries n^(2c+1) assignments, so the codes stay small
    for d in random_codes(3, (0, 1, 2, 3, 4) * 3):
        for x in (z3_coloring, z3_involution) + dihedral:
            assert enumerate_colorings(d, x) == brute_force_colorings(d, x)
    for d in random_codes(4, (1, 2, 2)):
        assert enumerate_colorings(d, z5_alexander) \
            == brute_force_colorings(d, z5_alexander)


@pytest.mark.parametrize("table", ["z3_involution", "z3_coloring",
                                   "not_a_biquandle"])
def test_coloring_check_accepts_exactly_the_colorings(request, table):
    # every assignment of c <= 3 codes with virtual crossings and kinks in
    # both orientations: evaluate rejects exactly the non-colorings, also
    # over a table that is not a biquandle, and agrees with the symbolic sum
    # on the colorings
    x = parse_operation_matrix(NOT_A_BIQUANDLE) if table == "not_a_biquandle" \
        else request.getfixturevalue(table)
    (br,) = random_brackets(x, 7, 1, seed=x.n)
    rng = random.Random(14)
    codes = [random_code(rng, c) for c in (1, 2, 3, 3)]
    for c in (1, 2):
        d = random_code(rng, c)
        for over_first in (True, False):
            codes.append(insert_move(d, "R1", rng.randint(0, len(d.passes)),
                                     sign=rng.choice((1, -1)),
                                     over_first=over_first))
    kinks = [cr for d in codes for cr in d.crossings().values()]
    assert any(cr.u_out == cr.o_in for cr in kinks)
    assert any(cr.u_in == cr.o_out for cr in kinks)
    assert all(d.virtual_count and d.classical_count <= 3 for d in codes)
    for d in codes:
        value = dense_evaluator(fundamental_bracket(d), br)
        colorings = set(brute_force_colorings(d, x))
        for f in itertools.product(range(x.n), repeat=d.semi_arc_count):
            if f in colorings:
                assert value(f) == evaluate(d, f, br)
                continue
            with pytest.raises(ColoringMismatch):
                evaluate(d, f, br)


def test_one_pass_agrees_with_the_wrappers(z3_involution, z5_bracket):
    for d in random_codes(5, (2, 4, 5)):
        inv = invariants(d, z3_involution, z5_bracket)
        assert inv.counting_matrix == counting_matrix(d, z3_involution)
        assert inv.bracket_matrix == bracket_matrix(d, z3_involution, z5_bracket)
        assert inv.bracket_polynomial.total_multiplicity() == inv.counting_invariant
        assert invariants(d, z3_involution).bracket_matrix is None



def test_dihedral_tables_are_biquandles(dihedral):
    for x in dihedral:
        assert verify_biquandle_axioms(x).passed


def _column_inverse(table, z, y):
    """The unique x with table[x][y] == z, found by scanning column y."""
    (x,) = [x for x, row in enumerate(table) if row[y] == z]
    return x


def _forced_outputs(x, sign, u_in, o_in):
    if sign > 0:
        # o_in = o_out over u_in
        o_out = _column_inverse(x.over_table, o_in, u_in)
        u_out = x.under_op(u_in, o_out)
    else:
        # u_in = u_out under o_in
        u_out = _column_inverse(x.under_table, u_in, o_in)
        o_out = x.over_op(o_in, u_out)
    return u_out, o_out


def _step_table(x, sign, under):
    rows = []
    for a in range(x.n):
        row = []
        for b in range(x.n):
            u_out, o_out = _forced_outputs(x, sign, a, b)
            row.append((o_out, u_out) if under else (u_out, o_out))
        rows.append(tuple(row))
    return tuple(rows)


def walk_colorings(diagram, x):
    """The traversal walk the solve plan replaced, kept as an oracle: the
    color after a crossing's first pass is free, and the crossing's later
    pass forces its own out-color and checks the free one.  Lexicographic
    order; about n^(frontier width) branches."""
    nseg = diagram.semi_arc_count
    steps = [[(k, v) for v in range(x.n - 1, 0, -1)] for k in range(nseg)]
    tables = {}
    for c in diagram.crossings().values():
        late = max(c.u_in, c.o_in)
        key = (c.sign, late == c.u_in)
        if key not in tables:
            tables[key] = _step_table(x, *key)
        steps[late + 1] = (tables[key], c.u_in, c.o_in,
                           min(c.u_in, c.o_in) + 1)
    colors = [0] * nseg
    stack = steps[0] + [(0, 0)]
    while stack:
        seg, v = stack.pop()
        while True:
            colors[seg] = v
            seg += 1
            if seg == nseg:
                yield tuple(colors)
                break
            step = steps[seg]
            if step.__class__ is list:
                stack += step
                v = 0
                continue
            table, u_in, o_in, partner_out = step
            check, v = table[colors[u_in]][colors[o_in]]
            if colors[partner_out] != check:
                break


def test_colorings_match_the_traversal_walk(z3_coloring, z3_involution,
                                            z3_shift, z5_alexander, dihedral):
    rng = random.Random(6)
    codes = [random_code(rng, c) for c in (0, 1, 2, 3, 4, 5, 6, 7, 8) * 2]
    # the widest codes: every crossing met once before any is met twice
    for c in (6, 7, 8):
        codes.append(next(d for d in iter(lambda: random_code(rng, c), None)
                          if frontier_width(d) == c))
    for d in codes:
        for x in (z3_coloring, z3_involution, z3_shift) + dihedral:
            assert enumerate_colorings(d, x) == sorted(walk_colorings(d, x))
        if frontier_width(d) <= 6:
            # the walk costs about 5^width over five elements
            assert enumerate_colorings(d, z5_alexander) \
                == sorted(walk_colorings(d, z5_alexander))


def nullity_mod_p(rows, ncols, p):
    """ncols minus the rank of the integer matrix ``rows`` over Z_p."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return ncols - rank


def test_wide_codes_against_linear_algebra():
    # x under y = 2x + y and x over y = 3x over Z_5: every relation is a
    # homogeneous linear equation in the residues of the semi-arc colors,
    # so the colorings are the kernel of the relation matrix mod 5
    x = alexander_biquandle(5, 2, 3)
    assert verify_biquandle_axioms(x).passed
    rng = random.Random(8)
    codes = []
    for c in (12, 13, 14):
        while len(codes) < 10 * (c - 11):
            d = random_code(rng, c)
            if frontier_width(d) >= 9:
                codes.append(d)
    for d in codes:
        quads = [cr.sideways for cr in d.crossings().values()]
        rows = []
        for a, b, c, dd in quads:
            # a under b = d and b over a = c
            under = [0] * d.semi_arc_count
            under[a] += 2
            under[b] += 1
            under[dd] -= 1
            over = [0] * d.semi_arc_count
            over[b] += 3
            over[c] -= 1
            rows += [under, over]
        got = list(iter_colorings(d, x))
        assert len(got) == 5 ** nullity_mod_p(rows, d.semi_arc_count, 5)
        assert len(set(got)) == len(got)
        assert all(x.under_op(f[a], f[b]) == f[dd]
                   and x.over_op(f[b], f[a]) == f[c]
                   for f in got for a, b, c, dd in quads)
