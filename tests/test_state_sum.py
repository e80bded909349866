"""Bit-for-bit oracles on seeded random codes: the frontier sweep against
the 3^c state sum it replaced and against the symbolic state sum, the 3^c
component table against per-state union-find, and the coloring plan against
brute force, against the traversal walk it replaced, and on wide codes
against linear algebra over Z_5."""

import itertools
import random
from operator import mul

import pytest

from vknotoid.biquandle import alexander_biquandle, verify_biquandle_axioms
from vknotoid.bracket import (SMOOTHINGS, Invariants, bracket_matrix,
                              evaluate, evaluate_symbolic, fundamental_bracket,
                              invariants, smooth_components)
from vknotoid.coloring import (counting_matrix, enumerate_colorings,
                               iter_colorings)
from vknotoid.diagram import (KnotoidDiagram, Pass, crossing_relations,
                              insert_move, product, relation_holds, writhe)
from vknotoid.ring import BracketPolynomial


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


def dense_evaluator(diagram, br):
    """The 3^c state sum the frontier sweep replaced, kept as an oracle:
    per coloring it expands the products of all states level by level in
    the order of the component table and weighs each by
    delta^components * omega^(-writhe)."""
    m = br.modulus.m
    crossings = diagram.crossings()
    by_sign = {1: (br.A, br.B, br.V), -1: (br.C, br.D, br.U)}
    steps = [(by_sign[crossings[cid].sign], crossings[cid].pair())
             for cid in sorted(crossings)]
    wfac = pow(br.omega, -writhe(diagram), m)
    weights = [pow(br.delta, k, m) * wfac % m
               for k in state_components(diagram)]

    def value(coloring):
        prods = [1]
        for tables, (i, j) in steps:
            coeffs = [t[coloring[i]][coloring[j]] for t in tables]
            prods = [p * c for p in prods for c in coeffs]
        return sum(map(mul, weights, prods)) % m

    return value


def dense_invariants(diagram, x, br):
    value = dense_evaluator(diagram, br)
    cells = [[{} for _ in range(x.n)] for _ in range(x.n)]
    for f in iter_colorings(diagram, x):
        cell = cells[f[0]][f[-1]]
        v = value(f)
        cell[v] = cell.get(v, 0) + 1
    return Invariants([[sum(c.values()) for c in row] for row in cells],
                      [[BracketPolynomial.from_dict(br.modulus, c) for c in row]
                       for row in cells])


def test_state_components_match_union_find_per_state():
    for d in random_codes(1, (0, 1, 2, 3, 4, 5, 6) * 2):
        cids = sorted(d.crossings())
        want = [smooth_components(d, dict(zip(cids, combo)))
                for combo in itertools.product(SMOOTHINGS, repeat=len(cids))]
        assert list(state_components(d)) == want


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
                                                   z5_alexander, dihedral):
    # brute force tries n^(2c+1) assignments, so the codes stay small
    for d in random_codes(3, (0, 1, 2, 3, 4) * 3):
        for x in (z3_coloring, z3_involution) + dihedral:
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



def test_dihedral_tables_are_biquandles(dihedral):
    for x in dihedral:
        assert verify_biquandle_axioms(x).passed


def _forced_outputs(x, sign, u_in, o_in):
    if sign > 0:
        o_out = x.over_inv(o_in, u_in)       # o_in = o_out over u_in
        u_out = x.under_op(u_in, o_out)
    else:
        u_out = x.under_inv(u_in, o_in)      # u_in = u_out under o_in
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
        late = max(c.under_pass, c.over_pass)
        key = (c.sign, late == c.under_pass)
        if key not in tables:
            tables[key] = _step_table(x, *key)
        steps[late + 1] = (tables[key], c.u_in, c.o_in,
                           min(c.under_pass, c.over_pass) + 1)
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
        rels = crossing_relations(d).relations
        rows = []
        for r in rels:
            row = [0] * d.semi_arc_count
            if r.op == "under":
                row[r.x - 1] += 2
                row[r.y - 1] += 1
            else:
                row[r.x - 1] += 3
            row[r.result - 1] -= 1
            rows.append(row)
        got = list(iter_colorings(d, x))
        assert len(got) == 5 ** nullity_mod_p(rows, d.semi_arc_count, 5)
        assert len(set(got)) == len(got)
        assert all(relation_holds(r, f, x) for f in got for r in rels)
