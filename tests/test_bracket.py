import dataclasses
import hashlib
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import pytest

from vknotoid import bracket, search
from vknotoid.bracket import (BracketError, ColoringMismatch, State,
                              VirtualBracket,
                              bracket_matrix, bracket_polynomial,
                              diagonal_residuals,
                              enumerate_states, evaluate,
                              fundamental_bracket,
                              invariants, pair_residuals, parse_bracket, render_bracket,
                              symbolic_terms, triple_residuals, triple_slots,
                              verify_bracket_axioms)
from vknotoid.biquandle import (AxiomReport, FiniteBiquandle,
                                alexander_biquandle, verify_biquandle_axioms)
from vknotoid.coloring import enumerate_colorings
from vknotoid.diagram import insert_move, parse_diagram
from vknotoid.ring import Modulus, NotAUnit, poly_render
from vknotoid.search import SearchConfig, search_brackets


# -- axioms ----------------------------------------------------------------------

def test_z5_bracket_passes_all_axioms(z5_bracket):
    report = verify_bracket_axioms(z5_bracket)
    assert report.passed, report.violations[:10]


def diagonal_entries(br):
    """The (A, B, V, C, D, U) coefficients at each diagonal pair."""
    return {tuple(br.table(letter)[x][x] for letter in "ABVCDU")
            for x in range(br.biquandle.n)}


def test_z5_bracket_defining_identities(z5_bracket):
    # equations (1)-(2) at the diagonal
    assert (z5_bracket.delta, z5_bracket.omega) == (2, 4)
    assert diagonal_entries(z5_bracket) == {(4, 1, 0, 4, 1, 0)}
    assert [r % 5 for r in diagonal_residuals(2, 4, 4, 1, 0, 4, 1, 0)] == [0, 0]


def test_z37_data_identities(z37_bracket):
    # the omega identities hold even though this table is not a valid bracket
    assert (z37_bracket.delta, z37_bracket.omega) == (5, 9)
    assert diagonal_entries(z37_bracket) == {(7, 11, 0, 16, 27, 0)}
    assert [r % 37 for r in diagonal_residuals(5, 9, 7, 11, 0, 16, 27, 0)] \
        == [0, 0]


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
        i, j = rng.randrange(br.biquandle.n), rng.randrange(br.biquandle.n)
        rows = [list(r) for r in br.table(letter)]
        rows[i][j] = rng.randrange(5)
        yield dataclasses.replace(br, **{letter: tuple(map(tuple, rows))})


def frozen_reports(base):
    return [verify_bracket_axioms(b).violations
            for b in (base, *single_entry_mutations(base, 200))]


# the bundled brackets sit on tables whose two operations agree and read
# only their first argument, so they cannot pin which operation and which
# arguments each slot of (9)-(23) reads; two unequal tables that read both
# arguments asymmetrically can (they need not form a biquandle)
GENERIC = FiniteBiquandle(
    tuple(tuple((a + 2 * b) % 3 for b in range(3)) for a in range(3)),
    tuple(tuple((2 * a + b + 1) % 3 for b in range(3)) for a in range(3)))


def test_invariants_without_a_bracket_have_no_polynomial(corpus,
                                                        z3_involution):
    inv = invariants(corpus["2.1.1"], z3_involution)
    assert inv.bracket_matrix is None and inv.bracket_polynomial is None
    assert inv.counting_invariant == 3


def test_violations_are_frozen(z5_bracket, z37_bracket):
    # every violation tuple (family, witness) the verifier reports, in report
    # order, pinned by count and digest
    reports = [verify_bracket_axioms(z37_bracket).violations]
    reports += frozen_reports(z5_bracket)
    assert len(reports[0]) == 28
    assert sum(map(len, reports)) == 1719
    assert hashlib.sha256(repr(reports).encode()).hexdigest() \
        == "37e9b2f68158f92843f00d50dfa2cff8909e9c4f27189294a7ad93a0fa2b7b20"
    reports = frozen_reports(dataclasses.replace(z5_bracket, biquandle=GENERIC))
    assert sum(map(len, reports)) == 18929
    assert hashlib.sha256(repr(reports).encode()).hexdigest() \
        == "f03b0c76cd1923b552bbe9c348b09236a382dc3970708f8dda9bb7f56a5c4b50"


# -- the verifier's memo -------------------------------------------------------------

# the factories of the verifier's memos, one dict per (m, delta) each
VERIFIER_MEMOS = (bracket.row_verdicts, bracket.triple_verdicts)


def plain_report(br):
    """Every equation family at every instance, evaluated directly, in the
    verifier's report order: the verifier without its memo."""
    x, m, d = br.biquandle, br.modulus.m, br.delta

    def cell(i, j):
        return tuple(br.table(letter)[i][j] for letter in "ABVCDU")

    bad = []
    for a in range(x.n):
        vals = diagonal_residuals(d, br.omega, *cell(a, a))
        bad += [(str(k), (a + 1,)) for k, val in enumerate(vals, 1) if val % m]
    for a, b in itertools.product(range(x.n), repeat=2):
        vals = pair_residuals(d, *cell(a, b))
        bad += [(str(k), (a + 1, b + 1))
                for k, val in enumerate(vals, 3) if val % m]
    for a, b, c in itertools.product(range(x.n), repeat=3):
        vals = triple_residuals(d, *[cell(i, j)[:3]
                                     for i, j in triple_slots(x, a, b, c)])
        bad += [(str(k), (a + 1, b + 1, c + 1))
                for k, val in enumerate(vals, 9) if val % m]
    return AxiomReport(tuple(bad))


def clear_verifier_memo():
    for memo in VERIFIER_MEMOS:
        memo.cache_clear()


def families(report, arity):
    """The failing families whose witnesses have ``arity`` elements."""
    return {family for family, witness in report.violations
            if len(witness) == arity}


def test_verifier_memo_key_holds_delta(z5_bracket):
    # the same cells are clean under delta = 2 and fail (10)-(11) under
    # delta = 3, so a verdict keyed without delta would carry over
    other = dataclasses.replace(z5_bracket, delta=3)
    assert families(plain_report(z5_bracket), 3) == set()
    assert families(plain_report(other), 3) == {"10", "11"}
    for first, second in ((z5_bracket, other), (other, z5_bracket)):
        clear_verifier_memo()
        assert verify_bracket_axioms(first) == plain_report(first)
        assert verify_bracket_axioms(second) == plain_report(second)


def test_verifier_memo_key_holds_the_modulus(z3_involution):
    # A = B = C = D = 0 and U = V over {1, 2}: the same cells, raw and
    # reduced, are a valid bracket mod 3 and fail (3)-(4) and (23) mod 5
    zero = ((0,) * 3,) * 3
    v = ((1, 1, 1), (1, 1, 2), (1, 2, 1))
    mod3, mod5 = (VirtualBracket(z3_involution, Modulus(m), zero, zero, v,
                                 zero, zero, v, 0, 1) for m in (3, 5))
    assert plain_report(mod3).passed
    assert families(plain_report(mod5), 2) == {"3", "4"}
    assert families(plain_report(mod5), 3) == {"23"}
    for first, second in ((mod3, mod5), (mod5, mod3)):
        clear_verifier_memo()
        assert verify_bracket_axioms(first) == plain_report(first)
        assert verify_bracket_axioms(second) == plain_report(second)


def test_verifier_memo_reads_coefficients_mod_m(z5_bracket, z37_bracket):
    # coefficients given outside range(m) get the verdicts of their residues
    # mod m, not those of other cells that pack to the same key
    def shifted(br):
        m = br.modulus.m
        return dataclasses.replace(br, **{
            letter: tuple(tuple(v + m * ((i + 2 * j + k) % 3 - 1)
                                for j, v in enumerate(row))
                          for i, row in enumerate(br.table(letter)))
            for k, letter in enumerate("ABVCDU")})

    for br in (z5_bracket, z37_bracket,
               *single_entry_mutations(z5_bracket, 20, seed=1)):
        clear_verifier_memo()
        assert verify_bracket_axioms(shifted(br)) == plain_report(br)
        assert verify_bracket_axioms(br) == plain_report(br)


def test_verifier_memo_gives_the_same_reports_cold_and_warm(z5_bracket,
                                                           z37_bracket):
    # the 403 tables of test_violations_are_frozen, on a cold memo and again
    # in reverse order on the memo they warmed
    generic = dataclasses.replace(z5_bracket, biquandle=GENERIC)
    tables = [z37_bracket, z5_bracket, *single_entry_mutations(z5_bracket, 200),
              generic, *single_entry_mutations(generic, 200)]
    assert len(tables) == 403
    clear_verifier_memo()
    cold = [verify_bracket_axioms(br) for br in tables]
    warm = [verify_bracket_axioms(br) for br in reversed(tables)][::-1]
    assert warm == cold
    assert cold == [plain_report(br) for br in tables]


def test_verifier_evaluates_each_instance_once(monkeypatch, z5_bracket):
    # a dirty row or triple instance is evaluated once too: its memo entry
    # holds the failing families that the report names.  Pair instances are
    # evaluated only when their row is first seen, n per row
    triples, rows = Counter(), Counter()
    pairs = 0

    def count_triple(delta, *cells):
        triples[delta, cells] += 1
        return triple_residuals(delta, *cells)

    def count_pair(*args):
        nonlocal pairs
        pairs += 1
        return pair_residuals(*args)

    def count_row(*args):
        rows[args] += 1
        return row_failures(*args)

    tables = [z5_bracket, *single_entry_mutations(z5_bracket, 60, seed=2)]
    clear_verifier_memo()
    # every table reads the one row memo of its (m, delta)
    assert {(br.modulus.m, br.delta) for br in tables} == {(5, z5_bracket.delta)}
    row_memo = bracket.row_verdicts(5, z5_bracket.delta)
    row_failures = row_memo.fill
    monkeypatch.setattr(bracket, "triple_residuals", count_triple)
    monkeypatch.setattr(bracket, "pair_residuals", count_pair)
    monkeypatch.setattr(row_memo, "fill", count_row)
    reports = [verify_bracket_axioms(br) for br in tables]
    assert sum(not r.passed for r in reports) > 20
    assert max(triples.values()) == max(rows.values()) == 1
    assert pairs == z5_bracket.biquandle.n * len(rows)
    assert reports == [plain_report(br) for br in tables]


@pytest.fixture(scope="module")
def z3_full_search(z3_involution):
    """The 480 brackets of a full-ansatz search mod 3, which share their
    rows and tables, and 100 brackets differing from them in one entry."""
    found = search_brackets(z3_involution, SearchConfig(3, "full", seed=2))
    mutated = [next(single_entry_mutations(br, 1, seed=k))
               for k, br in enumerate(found.brackets[::4][:100])]
    assert (len(found.brackets), len(mutated)) == (480, 100)
    return found.brackets + mutated


def test_verifier_matches_the_oracle_on_search_output(z3_full_search):
    # reports on cold memos, then again in reverse order on the memos they
    # warmed; the mutations have entries outside range(3) and fail
    tables = z3_full_search
    clear_verifier_memo()
    cold = [verify_bracket_axioms(br) for br in tables]
    warm = [verify_bracket_axioms(br) for br in reversed(tables)][::-1]
    assert warm == cold
    assert cold == [plain_report(br) for br in tables]
    assert sum(not r.passed for r in cold) > 50


def test_verifier_memo_keys_rows_on_their_values(monkeypatch, z3_full_search):
    # a bracket rebuilt from equal rows that are other objects gets the
    # report of the original from the warm memos, evaluating nothing
    def rebuilt(br):
        return dataclasses.replace(br, **{
            letter: tuple(tuple(list(row)) for row in br.table(letter))
            for letter in "ABVCDU"})

    calls = Counter()

    def counting(residuals):
        def count(*args):
            calls[residuals.__name__] += 1
            return residuals(*args)
        return count

    for br in (z3_full_search[0], z3_full_search[-1]):
        clear_verifier_memo()
        report = verify_bracket_axioms(br)
        copy = rebuilt(br)
        assert copy == br and copy.A[0] is not br.A[0]
        with monkeypatch.context() as patch:
            for residuals in (diagonal_residuals, pair_residuals,
                              triple_residuals):
                patch.setattr(bracket, residuals.__name__, counting(residuals))
            assert verify_bracket_axioms(copy) == report == plain_report(br)
        assert not calls


def test_verifier_memos_stay_bounded(monkeypatch, z3_involution, z5_bracket,
                                     z3_full_search):
    # with a bound far below the distinct instances, a part of each memo
    # overflows and is emptied again, yet every part holds at most the bound
    # after each store and no report changes; a search filling the triple
    # memo is held to the bound too.  Brackets over 11 (m, delta) pass
    # through, and each memo keeps at most 8 parts
    bound = 16
    monkeypatch.setattr(bracket, "_MEMO_SIZE", bound)
    emptied = set()
    store = bracket._store

    def bounded_store(part, key, value, limit):
        assert limit == bound and len(part) <= bound
        if len(part) == bound:
            emptied.add(part.fill.__name__)
        stored = store(part, key, value, limit)
        assert len(part) <= bound
        return stored

    def check_registries():
        for memo in VERIFIER_MEMOS:
            assert memo.cache_info().currsize <= 8

    monkeypatch.setattr(bracket, "_store", bounded_store)
    tables = [*z3_full_search, z5_bracket,
              *single_entry_mutations(z5_bracket, 100, seed=3),
              *(constant_bracket(z3_involution, 7, delta, 3)
                for delta in range(7))]
    assert len({(br.modulus.m, br.delta) for br in tables}) == 11
    clear_verifier_memo()
    for br in tables:
        assert verify_bracket_axioms(br) == plain_report(br)
        check_registries()
    assert emptied == {"_row_failures", "_triple_failures"}
    assert all(memo.cache_info().misses >= 11 for memo in VERIFIER_MEMOS)
    emptied.clear()
    result = search_brackets(z3_involution,
                             SearchConfig(3, "diagonal", seed=42))
    check_registries()
    assert (len(result.brackets), result.nodes) == (288, 1466)
    assert "_triple_failures" in emptied


def test_reports_do_not_depend_on_who_filled_the_memo(z3_involution):
    # the search leaves verdicts, clean and failing, in the triple memo of
    # each (p, delta); reports on brackets that read them equal the oracle
    clear_verifier_memo()
    found = search_brackets(z3_involution,
                            SearchConfig(3, "diagonal", seed=42)).brackets
    assert any(any(bracket.triple_verdicts(3, delta).values())
               for delta in range(3))
    tables = [mutated for k, br in enumerate(found[::24])
              for mutated in single_entry_mutations(br, 10, seed=k)]
    reports = [verify_bracket_axioms(br) for br in tables]
    assert sum(not r.passed for r in reports) > 20
    assert reports == [plain_report(br) for br in tables]


def constant_bracket(x, m, delta, omega):
    """V = omega and U = 1/omega at every pair, A = B = C = D = 0: a valid
    bracket over any table ``x``."""
    n = x.n
    zero = ((0,) * n,) * n
    return VirtualBracket(x, Modulus(m), zero, zero, ((omega,) * n,) * n,
                          zero, zero, ((pow(omega, -1, m),) * n,) * n,
                          delta, omega)


def random_brackets(x, m, count, seed):
    """Brackets over ``x`` with uniform coefficients, delta and unit omega
    mod m; they fail nearly every family at nearly every instance."""
    rng = random.Random(seed)
    units = [w for w in range(1, m) if math.gcd(w, m) == 1]
    for _ in range(count):
        tables = [tuple(tuple(rng.randrange(m) for _ in range(x.n))
                        for _ in range(x.n)) for _ in range(6)]
        yield VirtualBracket(x, Modulus(m), *tables, rng.randrange(m),
                             rng.choice(units))


# n = 4 tables whose two operations read both arguments asymmetrically, as
# GENERIC does for n = 3; not a biquandle
GENERIC4 = FiniteBiquandle(
    tuple(tuple((a + 3 * b) % 4 for b in range(4)) for a in range(4)),
    tuple(tuple((3 * a + b + 1) % 4 for b in range(4)) for a in range(4)))


@pytest.mark.parametrize("table", ["alexander2", "alexander4", "generic4",
                                   "z5_alexander"])
def test_verifier_matches_the_oracle_beyond_three_elements(table,
                                                           z5_alexander):
    # the triple witnesses are read off each triple's index, (t // n^2,
    # t // n % n, t % n) + 1: mutations of a valid bracket fail at a few
    # instances each, random brackets at nearly all; cold memos, then again
    # in reverse order on the memos they warmed
    x = {"alexander2": alexander_biquandle(2, 1, 1),
         "alexander4": alexander_biquandle(4, 3, 1, shift_under=1),
         "generic4": GENERIC4, "z5_alexander": z5_alexander}[table]
    base = constant_bracket(x, 5, 2, 3)
    assert plain_report(base).passed
    tables = [base, *single_entry_mutations(base, 60, seed=x.n),
              *random_brackets(x, 5, 4, seed=x.n)]
    clear_verifier_memo()
    cold = [verify_bracket_axioms(br) for br in tables]
    warm = [verify_bracket_axioms(br) for br in reversed(tables)][::-1]
    assert warm == cold
    assert cold == [plain_report(br) for br in tables]
    assert sum(not r.passed for r in cold) > 40
    # triple witnesses in every position of every coordinate
    triples = {w for r in cold for _, w in r.violations if len(w) == 3}
    assert {w[k] for w in triples for k in range(3)} == set(range(1, x.n + 1))


@pytest.mark.parametrize("letter", "ABVCDU")
@pytest.mark.parametrize("defect", ["missing row", "extra row", "short row",
                                    "long row"])
def test_bracket_tables_must_be_square(z5_bracket, letter, defect):
    # the error names the first bad table in ABVCDU order
    def broken(table):
        rows = list(table)
        if defect == "missing row":
            del rows[1]
        elif defect == "extra row":
            rows.append(rows[0])
        else:
            rows[2] = rows[2][:2] if defect == "short row" else rows[2] + (0,)
        return tuple(rows)

    # the table alone, then with U broken too
    for bad in (letter, letter + "U"):
        fields = {name: broken(z5_bracket.table(name)) for name in bad}
        with pytest.raises(BracketError,
                           match=r"^table %s is not 3x3$" % letter):
            dataclasses.replace(z5_bracket, **fields)


def test_bracket_omega_must_be_a_unit(z5_bracket):
    for omega in (0, 5, 10):
        with pytest.raises(NotAUnit):
            dataclasses.replace(z5_bracket, omega=omega)
    assert dataclasses.replace(z5_bracket, omega=9).omega == 4


@pytest.mark.parametrize("row, number, field", [
    (0, r"\d+$", "header"), (1, r"^\d+", "coefficient entry"),
    (-1, r"(?<=delta )\d+", "delta"), (-1, r"\d+$", "omega")])
def test_a_non_integer_bracket_field_is_named(z3_involution, z5_bracket,
                                              row, number, field):
    lines = render_bracket(z5_bracket).splitlines()
    lines[row] = re.sub(number, "x", lines[row], count=1)
    with pytest.raises(BracketError, match=r"^non-integer %s$" % field):
        parse_bracket("\n".join(lines), z3_involution)


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


@pytest.mark.parametrize("first_violation, count, digest", [
    (False, 8287, "ed1b1a918eadf9478de0bd8ee64b26fc14e7be6edb809af7aa490c77b0dd90c6"),
    (True, 357, "d42ee0c8059236ef0bb753813c8dbb21b0d05e7b9dbfbd89c3e8405dc6052f56"),
])
def test_biquandle_violations_are_frozen(z3_coloring, z3_involution, z3_shift,
                                         z5_alexander, dihedral,
                                         first_violation, count, digest):
    # every AxiomReport of the biquandle verifier, violations in report order,
    # over the bundled and dihedral tables and 60 mutations of each
    reports = [verify_biquandle_axioms(t)
               for x in (z3_coloring, z3_involution, z3_shift, z5_alexander,
                         *dihedral)
               for t in (x, *biquandle_mutations(x, 60))]
    if first_violation:
        # the first violation of each report, pinned as well
        reports = [AxiomReport(r.violations[:1]) for r in reports]
    assert len(reports) == 366
    assert sum(len(r.violations) for r in reports) == count
    # spelled as a report printed when it still stored its verdict, so the
    # digests pinned before passed became derived still apply
    pinned = "[%s]" % ", ".join(
        "AxiomReport(passed=%r, violations=%r)" % (r.passed, r.violations)
        for r in reports)
    assert hashlib.sha256(pinned.encode()).hexdigest() == digest


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
        u_in, u_out = ("in", cr.u_in), ("out", cr.u_in)
        o_in, o_out = ("in", cr.o_in), ("out", cr.o_in)
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


def assert_states_match_naive(diagram):
    """The states read off the sweep plan come in mixed-radix order over
    ascending crossing ids, and each has the naive walk's component count."""
    states = enumerate_states(diagram)
    cids = sorted(diagram.crossings())
    assert [st.smoothings for st in states] == [
        tuple(zip(cids, combo))
        for combo in itertools.product(("vertical", "horizontal", "virtual"),
                                       repeat=len(cids))]
    for st in states:
        assert st.components == naive_components(diagram, dict(st.smoothings))
    return states


def test_trivial_components():
    d = parse_diagram("")
    assert enumerate_states(d) == [State((), 1)]
    assert naive_components(d, {}) == 1


def test_2_1_1_both_horizontal_has_two_components(corpus):
    d = corpus["2.1.1"]
    both = ((1, "horizontal"), (2, "horizontal"))
    assert {st.smoothings: st.components
            for st in enumerate_states(d)}[both] == 2
    assert naive_components(d, dict(both)) == 2


def test_2_1_1_state_multiset(corpus):
    d = corpus["2.1.1"]
    counts = {tuple(kind for _, kind in st.smoothings): st.components
              for st in assert_states_match_naive(d)}
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
        assert_states_match_naive(d)


# -- evaluation ---------------------------------------------------------------------

def test_trivial_diagram_evaluates_to_delta(z3_involution, z5_bracket):
    trivial = parse_diagram("")
    for i in range(3):
        assert evaluate(trivial, (i,), z5_bracket) == z5_bracket.delta
    # n copies of delta; matrix is u^delta times the identity
    assert bracket_polynomial(trivial, z3_involution, z5_bracket).as_dict() \
        == {z5_bracket.delta: 3}
    mat = bracket_matrix(trivial, z3_involution, z5_bracket)
    for i in range(3):
        for j in range(3):
            assert poly_render(mat[i][j]) == ("u^2" if i == j else "0")


def test_worked_value_of_2_1_1(corpus, z5_bracket):
    # coloring: odd semi-arcs -> element 3 (index 2), even -> element 1 (index 0)
    d = corpus["2.1.1"]
    val = evaluate(d, (2, 0, 2, 0, 2), z5_bracket)
    assert val == 3
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


def test_coloring_needs_integer_colors(corpus, z5_bracket):
    d = corpus["2.1.1"]
    for coloring in [(2.0, 0, 2, 0, 2),       # a float equal to an int
                     (2, 0, 2, 0, "2"),       # a string
                     (2, 0, 2, 0, None)]:
        with pytest.raises(ColoringMismatch):
            evaluate(d, coloring, z5_bracket)
    # what operator.index accepts is a color, and a list a coloring
    assert evaluate(d, [2, False, 2, False, 2], z5_bracket) \
        == evaluate(d, (2, 0, 2, 0, 2), z5_bracket) == 3


def test_multiset_of_2_1_1(corpus, z3_involution, z5_bracket):
    assert bracket_polynomial(corpus["2.1.1"], z3_involution,
                              z5_bracket).as_dict() == {3: 2, 2: 1}


def test_multiset_of_4_1_1(corpus, z3_involution, z5_bracket):
    assert bracket_polynomial(corpus["4.1.1"], z3_involution,
                              z5_bracket).as_dict() == {2: 3}


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


def test_a_bracket_over_another_biquandle_is_rejected(
        corpus, z3_coloring, z3_involution, z5_alexander, z5_bracket):
    # z5_bracket is over z3_involution: z3_coloring has its size but other
    # tables, z5_alexander another size
    d = corpus["3.1.2"]
    for x in (z3_coloring, z5_alexander):
        for call in (invariants, bracket_polynomial, bracket_matrix):
            with pytest.raises(BracketError, match="another biquandle"):
                call(d, x, z5_bracket)
    # an equal table that is another object is the same biquandle
    copy = FiniteBiquandle(*(tuple(tuple(list(row)) for row in table)
                             for table in (z3_involution.under_table,
                                           z3_involution.over_table)))
    assert copy is not z5_bracket.biquandle
    assert bracket_matrix(d, copy, z5_bracket) \
        == bracket_matrix(d, z3_involution, z5_bracket)


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

def symbolic_states(sym):
    """Each state of a symbolic sum as (smoothing indices, components): its
    number's base-3 digits, first crossing first, and its byte."""
    return list(zip(itertools.product(range(3), repeat=len(sym.crossings)),
                    sym.components))


def test_fundamental_of_trivial():
    sym = fundamental_bracket(parse_diagram(""))
    assert symbolic_states(sym) == [((), 1)]
    assert sym.omega_exp == 0 and sym.crossings == ()
    assert list(symbolic_terms(sym)) == ["d"]


def test_fundamental_of_2_1_1_reproduces_reference_structure(corpus):
    sym = fundamental_bracket(corpus["2.1.1"])
    states = symbolic_states(sym)
    assert len(states) == 9
    assert sym.omega_exp == 2
    pairs = [p for _, p in sym.crossings]
    assert pairs == [(4, 1), (3, 4)]
    for kinds, _ in states:
        assert all(letters[k] in "CDU"
                   for (letters, _), k in zip(sym.crossings, kinds))
    by_letters = {tuple(l[k] for (l, _), k in zip(sym.crossings, kinds)): m
                  for kinds, m in states}
    assert by_letters == {
        ("D", "D"): 2, ("C", "U"): 2, ("U", "C"): 2,
        ("D", "C"): 1, ("D", "U"): 1, ("C", "D"): 1,
        ("C", "C"): 1, ("U", "D"): 1, ("U", "U"): 1,
    }
    exps = sorted(m for _, m in states)
    assert exps == [1, 1, 1, 1, 1, 1, 2, 2, 2]


# sha256 of the terms of fundamental_bracket(d) joined by " + ", the output
# of ``vknotoid bracket fundamental``: its term order, letters, semi-arc
# labels and delta exponents.  Taken with the per-state union-find counter
# that the sweep plan replaced.
FUNDAMENTAL_DIGESTS = {
    "2.1.1": "b7132fa2eb9a05332501bfcb31fe932c3bb8f0d8cffff8ff5c0f94d90820d44a",
    "2.1.2": "a9b8a9d610e620143b00286ce115f7600654a63a1eadee3e074edb294e130615",
    "3.1.1": "662c40a8d624632ef2db1cb37b24d19fe2f140db6b1bc30858d2e829963d7c6e",
    "3.1.2": "6352011874ba5a665b846a78fb0e362f738dbaf97a0e8d6b2736ed9d2a117107",
    "3.1.3": "af48af827bab5abe6125bd12a55cec488fe88dc49563dbeffc166092438635ed",
    "3.1.4": "111567586dbad4842a6ba2efd0e67580ed47c17170d8e99edf47f2850fb78aca",
    "3.1.5": "718945b2fc3e8abf53ee7e95aa8017e8ede9e0ac419bdc3a5d18d0b9116df5d3",
    "3.1.6": "e42e4c14ea2d982bdf8939d686f96b5f7cc24ce5ce692aa04bd4bff66e5ba3a9",
    "3.1.7": "afca0480d3affdd45f89346e7aa8a070e7c8194928943f16db91b00ad2c5726b",
    "3.1.8": "2ea42cdbfd9f47d1b8b808c159f1e64383b1a3641fbfa9531c1a2c6f0988859c",
    "3.1.9": "0960003bbdfae5a83457213df3fa1142fd3c53c6cef991065a3bd73372da1acc",
    "3.1.10": "f818c7a8cfd0dc705102463cfdac690447e00b4ae07f10bed857fa1785be49b9",
    "4.1.1": "fbb2d2fb11e4a2b3f23faa2654017dc379cc3bf2579bf5a14abe6ce61c09e7c1",
    "4.1.2": "66a2bd287056a3125b6a1ee52ecf7d344c11505b90ae7e61a18eeb6fafe30a52",
    "4.1.3": "8c51177c2b01290a4d9d077988eec1af54468c0e22ae8ac2b07c9541d68ff4b9",
    "4.1.4": "a82671198484bf5cb582e119faeb8d909f2633c21846326d772a1e899feca81e",
    "4.1.5": "aa1f4e5b2def8583f8015b6e7f443b649c6c205ae7c891bf2b6d23ae174c2331",
    "4.1.6": "565ea799ac4493cac333a5fd6835ea039b3413a065d82e156ec4a0c4b02655c2",
    "4.1.7": "6107d5ab8bfebf10bcc3f4076084e8de681bcee3f24828fb7f2a9775caffa742",
    "4.1.8": "fdc1d2bd2bb4822088cbc22881ad1753b99757f55665d3674733f5489fe4bb1d",
    "4.1.9": "d791f9c5c86b600c48332bd6e31cd6e6427026b62f1501e685f2395bf964caa5",
    "4.1.10": "0544309467a45ae33a7dd79c187a03845e38020154b961ddfa803a65170c019a",
    "5.1.1": "06ff81c006ebb8dc116d2aa267cb21de6f6296de30b02a3854037557956a0a8f",
    "5.1.2": "12b880bdd2fb2f63f7121014f06d69f460f41c466e5d00032af46d4956c958c5",
    "5.1.3": "15ef7a398c131a3f087351ef4834d7af742568baef00e2a12542518a31c673fd",
    "5.1.4": "ee9b6319a092e9cd54ccf5a076bedbc3a5ca06ea076ea981a5cd79e7864c0904",
    "5.1.5": "e0b3af2c5f383f103870053742ef7a1e8ebd51c7ac1c853f7ef55689ae20a348",
    "5.1.6": "ba27bd012962e70f4f4dffece016696d8685d6bdf4cafddf6911b966724577c2",
    "5.1.7": "c09a86bde0e835853590c538827a05241b7f4a80fde641a3d5d1e2fc766d8355",
    "5.1.8": "c8b259d61a235482101510a2d5acba6d795bd6894ad56ef9c99a1b14e6002c3c",
    "5.1.9": "590c43e05fe74fdaf7f45270f39ddb0a9979dc42419179a109e272c81b02a130",
    "5.1.10": "06bc6df1f0cbe015bc04963407c7bbe2f4a26ca713f0d4cb1549d8279ff0e122",
    # a seeded c=7 code; a seeded c=5 code with an R1 kink of each
    # orientation; 2.1.1 * 4.1.7 plain and with a kink
    "V2,V1,V2,U+7,O-3,O+7,U-3,U+4,O+4,O-1,O-6,U-6,O+5,U-1,O-2,U+5,V1,U-2":
        "8b5db6b56466b6be9a550583c5d7b81f411239b4969ee488779c82a5363484c1",
    "U+1,O+3,O+4,O+6,U+6,V2,V2,O+2,V1,O+5,U+2,V1,U+3,U+4,O+1,U+5":
        "d3af03684fdca8c86de7a01ee501500965df832adb8c733f3b2e524cd9091bab",
    "U+1,O+3,O+4,V2,V2,O+2,V1,O+5,U-6,O-6,U+2,V1,U+3,U+4,O+1,U+5":
        "a75d5f947fe43d7676a743e906bfa9d7fd07e89a8aa5599f4b4ea56cffd3951f",
    "O-1,V1,U-2,U-1,V1,O-2,O-3,V2,U+4,U-3,O+4,O-5,U-6,U-5,V2,O-6":
        "c218e72544c9a495cdf86db4a3cf64fc388547f1c6a4f8c8981dc282484c47ae",
    "O-1,V1,U-2,U-1,V1,U+7,O+7,O-2,O-3,V2,U+4,U-3,O+4,O-5,U-6,U-5,V2,O-6":
        "0c8305a918263566e5d442b277de64907d8abe1ebc024358f1ee5a607767ee9e",
}


def test_fundamental_bracket_output_is_frozen(corpus):
    assert set(corpus) <= set(FUNDAMENTAL_DIGESTS)
    diagrams = {key: corpus[key] if key in corpus else parse_diagram(key)
                for key in FUNDAMENTAL_DIGESTS}
    kinks = [cr for d in diagrams.values() for cr in d.crossings().values()]
    assert any(cr.u_out == cr.o_in for cr in kinks)
    assert any(cr.u_in == cr.o_out for cr in kinks)
    for key, d in diagrams.items():
        text = " + ".join(symbolic_terms(fundamental_bracket(d)))
        assert hashlib.sha256(text.encode()).hexdigest() \
            == FUNDAMENTAL_DIGESTS[key], key


def test_fundamental_bracket_holds_its_states_once(corpus):
    # 4.1.5 grown by three R2 moves: 10 classical crossings, 59,049 states.
    # The plan is compiled first, so what is traced is the walk alone.  The
    # result keeps one byte per state, and the walk's peak stays under 100
    # bytes per state: a path is one int until its count is written at its
    # number
    d = corpus["4.1.5"]
    for gap, gap2 in ((0, 3), (2, 7), (5, 11)):
        d = insert_move(d, "R2", gap, gap2)
    assert d.classical_count == 10
    bracket._plan(d)
    tracemalloc.start()
    try:
        sym = fundamental_bracket(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert type(sym.components) is bytes
    assert len(sym.components) == 3 ** 10
    assert peak < 100 * 3 ** 10


def test_symbolic_agrees_with_concrete(corpus, z3_involution, z3_shift,
                                       z5_bracket, z37_bracket):
    # test_state_sum imports this module, so its oracle is imported here
    from test_state_sum import dense_evaluator
    for name in ("2.1.1", "2.1.2", "3.1.2", "3.1.7", "4.1.5"):
        d = corpus[name]
        sym = fundamental_bracket(d)
        for x, br in ((z3_involution, z5_bracket), (z3_shift, z37_bracket)):
            value = dense_evaluator(sym, br)
            for f in enumerate_colorings(d, x):
                assert value(f) == evaluate(d, f, br)
