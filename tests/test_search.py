import functools
import gc
import hashlib
import itertools
import math
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from operator import itemgetter

import pytest

from vknotoid import bracket, search
from vknotoid.biquandle import AxiomReport, FiniteBiquandle, alexander_biquandle
from vknotoid.bracket import (VirtualBracket, diagonal_residuals, evaluate,
                              invariants, render_bracket, triple_residuals,
                              triple_slots, verify_bracket_axioms)
from vknotoid.coloring import enumerate_colorings
from vknotoid.data import load_biquandle
from vknotoid.diagram import insert_move
from vknotoid.ring import Modulus
from vknotoid.search import (SearchConfig, SearchResult, brute_force_singleton,
                             pair_solutions, search_brackets, solve_pair)

from test_state_sum import random_codes


def test_solve_pair_examples():
    assert solve_pair(4, 1, 0, 2, 5) == (4, 1, 0)
    assert solve_pair(0, 0, 2, 2, 5) == (0, 0, 3)
    assert solve_pair(0, 0, 0, 2, 5) is None


def test_solve_pair_consistency_exhaustive():
    # whenever a solution is returned, all six pair equations hold
    p, delta = 5, 2
    for a in range(p):
        for b in range(p):
            for v in range(p):
                got = solve_pair(a, b, v, delta, p)
                if got is None:
                    continue
                c, d, u = got
                assert (a * c + v * u) % p == 1
                assert (b * d + v * u) % p == 1
                assert (a * u + v * c) % p == 0
                assert (b * u + v * d) % p == 0
                assert (delta * b * d + a * d + b * c) % p == 0
                assert (delta * a * c + a * d + b * c) % p == 0


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(modulus=4)
    with pytest.raises(ValueError):
        SearchConfig(modulus=5, budget=0)
    with pytest.raises(ValueError):
        SearchConfig(modulus=5, ansatz="banana")


def _key(br):
    return (br.A, br.B, br.V, br.C, br.D, br.U, br.delta, br.omega)


@pytest.mark.parametrize("p", [2, 3])
def test_singleton_full_search_matches_brute_force(p):
    x = FiniteBiquandle(((0,),), ((0,),))
    result = search_brackets(x, SearchConfig(modulus=p, ansatz="full"))
    assert not result.exhausted
    assert {_key(b) for b in result.brackets} \
        == {_key(b) for b in brute_force_singleton(p)}
    for br in result.brackets:
        assert verify_bracket_axioms(br).passed


REFERENCE = SearchConfig(modulus=5, ansatz="diagonal", seed=1)


@pytest.fixture(scope="module")
def reference_search(z3_involution):
    """The reference search, run once for the tests that read it."""
    return search_brackets(z3_involution, REFERENCE)


def test_reference_search_output_is_frozen(reference_search):
    # every bracket in search order, pinned by digest
    assert (reference_search.nodes, len(reference_search.brackets),
            reference_search.exhausted) == (123_716, 19_456, False)
    rendered = "".join(render_bracket(b) for b in reference_search.brackets)
    assert hashlib.sha256(rendered.encode()).hexdigest() \
        == "f3d43762dd9c8d80f52761c66ed21fd373550fe9a7b8c556a8f91298f15b2938"


def test_diagonal_search_finds_reference_bracket(reference_search, z5_bracket):
    result = reference_search
    assert not result.exhausted
    keys = {_key(b) for b in result.brackets}
    assert _key(z5_bracket) in keys
    for br in result.brackets:
        assert verify_bracket_axioms(br).passed


def test_search_is_deterministic(z3_involution):
    cfg = SearchConfig(modulus=3, ansatz="diagonal", seed=42)
    r1 = search_brackets(z3_involution, cfg)
    r2 = search_brackets(z3_involution, cfg)
    assert [render_bracket(b) for b in r1.brackets] \
        == [render_bracket(b) for b in r2.brackets]
    assert r1.nodes == r2.nodes


def test_dropping_the_result_frees_the_brackets(z3_involution):
    # the search leaves no reference cycle holding its brackets, so they go
    # with the result instead of at the next full collection
    gc.disable()
    try:
        result = search_brackets(z3_involution,
                                 SearchConfig(3, "diagonal", seed=42))
        first = weakref.ref(result.brackets[0])
        del result
        assert first() is None
    finally:
        gc.enable()


def _traced_after_collection() -> int:
    # a full collection empties the free lists, which would otherwise keep
    # freed tuples counted as traced
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_the_interned_rows_and_tables_go_with_the_result(z3_involution,
                                                         z5_bracket):
    # the dicts that intern rows and tables live for one search call: once
    # the result is dropped and the verifier's memos cleared, traced memory
    # is back at its level before the search
    verify_bracket_axioms(z5_bracket)       # caches the biquandle's slot table
    memos = (bracket.row_verdicts, bracket.triple_verdicts)
    tracemalloc.start()
    try:
        for memo in memos:
            memo.cache_clear()
        before = _traced_after_collection()
        result = search_brackets(z3_involution,
                                 SearchConfig(3, "full", seed=2))
        held = _traced_after_collection() - before
        del result
        for memo in memos:
            memo.cache_clear()
        left = _traced_after_collection() - before
    finally:
        tracemalloc.stop()
    assert held > 100_000
    assert left < 1_000


def test_found_brackets_share_equal_rows_and_tables(reference_search):
    # 19,456 brackets hold 116,736 tables and 350,208 rows, but only 3,345
    # distinct tables and 125 distinct rows; each value is one object
    tables = [t for br in reference_search.brackets
              for t in (br.A, br.B, br.V, br.C, br.D, br.U)]
    rows = [row for t in tables for row in t]
    for items, values in ((tables, 3345), (rows, 125)):
        assert len(set(items)) == values
        assert len({id(item) for item in items}) == values


@functools.cache
def _times(table, k, m):
    # found brackets share their tables, so each is scaled once
    return tuple(tuple(e * k % m for e in row) for row in table)


def _scaled(br, lam):
    """The image of a bracket under unit scaling by lam: (A, B, V) times lam,
    (C, D, U) times lam^-1 and omega times lam."""
    m = br.modulus.m
    inv = pow(lam, -1, m)
    return VirtualBracket(br.biquandle, br.modulus,
                          *[_times(t, lam, m) for t in (br.A, br.B, br.V)],
                          *[_times(t, inv, m) for t in (br.C, br.D, br.U)],
                          br.delta, br.omega * lam % m)


def test_unit_scaling_maps_the_reference_search_onto_itself(reference_search):
    # the search replays the subtree of one cell-0 candidate per scaling
    # orbit; that rests on the image of each valid bracket being one too,
    # with the same tables, delta and omega as a bracket of the result
    keys = {_key(br) for br in reference_search.brackets}
    for lam in (2, 3, 4):
        images = set()
        for br in reference_search.brackets:
            image = _scaled(br, lam)
            assert verify_bracket_axioms(image).passed
            images.add(_key(image))
        assert images == keys


def test_the_reference_search_replays_scaled_subtrees(monkeypatch,
                                                     z3_involution):
    # the output is the same whether a subtree is walked or replayed; the
    # node checks' lookups in the triple memo tell them apart: 105,947 when
    # one cell-0 candidate per scaling orbit is walked, 423,788 when every
    # one is
    lookups = 0

    class Counting:
        def __init__(self, part):
            self.part = part

        def __getitem__(self, key):
            nonlocal lookups
            lookups += 1
            return self.part[key]

    monkeypatch.setattr(search, "triple_verdicts", lambda m, delta:
                        Counting(bracket.triple_verdicts(m, delta)))
    result = search_brackets(z3_involution, REFERENCE)
    assert (result.nodes, len(result.brackets)) == (123_716, 19_456)
    assert lookups == 105_947


def test_a_cold_reference_search_evaluates_each_triple_instance_once(
        monkeypatch, z3_involution):
    # the node checks and the final verification read one triple memo per
    # (p, delta), and none of them is emptied: each of the 9,882 distinct
    # instances is evaluated once
    evaluated = Counter()
    triple_failures = bracket._triple_failures

    def counting(m, delta, codes):
        evaluated[delta] += 1
        return triple_failures(m, delta, codes)

    monkeypatch.setattr(bracket, "_triple_failures", counting)
    bracket.triple_verdicts.cache_clear()
    result = search_brackets(z3_involution, REFERENCE)
    assert (result.nodes, len(result.brackets)) == (123_716, 19_456)
    split = [2670, 1504, 2102, 2102, 1504]
    assert [evaluated[delta] for delta in range(5)] == split
    assert sum(split) == 9882
    assert [len(bracket.triple_verdicts(5, delta)) for delta in range(5)] \
        == split
    bracket.triple_verdicts.cache_clear()       # parts that count


def gauge(br, h):
    """The endpoint gauge of a bracket by h: X -> Z_m^*, one unit per
    element: (A, B, V) at (x, y) times s = h(x) h(c) / (h(y) h(d)) with
    (c, d) = S(x, y), and (C, D, U) times s^-1."""
    x, m = br.biquandle, br.modulus.m
    s = [[h[i] * h[x.over_op(j, i)] * pow(h[j] * h[x.under_op(i, j)], -1, m)
          % m for j in range(x.n)] for i in range(x.n)]
    inv = [[pow(e, -1, m) for e in row] for row in s]

    def times(table, by):
        return tuple(tuple(e * k % m for e, k in zip(row, krow))
                     for row, krow in zip(table, by))

    return VirtualBracket(x, br.modulus,
                          *[times(t, s) for t in (br.A, br.B, br.V)],
                          *[times(t, inv) for t in (br.C, br.D, br.U)],
                          br.delta, br.omega)


def test_the_endpoint_gauge_scales_each_value_by_its_endpoints(
        corpus, z5_bracket, reference_search, z3_coloring_brackets):
    # the gauge image of a valid bracket is valid, and it multiplies the
    # value of each coloring by h(tail) / h(head)
    rng = random.Random(9)
    brackets = ([z5_bracket] + reference_search.brackets[::400]
                + z3_coloring_brackets)
    changed = colorings = 0
    for br in brackets:
        x, m = br.biquandle, br.modulus.m
        h = [rng.randrange(1, m) for _ in range(x.n)]
        image = gauge(br, h)
        assert verify_bracket_axioms(image).passed
        changed += image != br
        for d in corpus.values():
            for f in enumerate_colorings(d, x):
                colorings += 1
                assert evaluate(d, f, image) == evaluate(d, f, br) \
                    * h[f[0]] * pow(h[f[-1]], -1, m) % m
    assert (len(brackets), colorings) == (90, 9360)
    assert changed > len(brackets) // 2


def test_the_endpoint_gauge_scales_the_values_of_seeded_codes(
        z5_bracket, reference_search, z3_coloring_brackets):
    # the same law on 6 seeded codes with 2 virtual crossings, each also
    # with an R1 kink inserted at a seeded gap.  Over z3_coloring 30 of
    # their 42 colorings end at a head color other than their tail's (none
    # does over z3_involution), and 560 of the 3,480 values checked scale
    # by an h(tail) / h(head) other than 1
    rng = random.Random(10)
    codes = []
    for d in random_codes(31, range(2, 8)):
        codes += [d, insert_move(d, "R1", rng.randint(0, len(d.passes)),
                                 sign=rng.choice((1, -1)),
                                 over_first=rng.choice((True, False)))]
    rng = random.Random(9)
    brackets = ([z5_bracket] + reference_search.brackets[::400]
                + z3_coloring_brackets)
    colorings = scaled = 0
    for br in brackets:
        x, m = br.biquandle, br.modulus.m
        h = [rng.randrange(1, m) for _ in range(x.n)]
        image = gauge(br, h)
        for d in codes:
            for f in enumerate_colorings(d, x):
                colorings += 1
                by = h[f[0]] * pow(h[f[-1]], -1, m) % m
                scaled += by != 1
                assert evaluate(d, f, image) == evaluate(d, f, br) * by % m
    assert (len(brackets), colorings, scaled) == (90, 3480, 560)


def test_unit_scaling_keeps_every_invariant(corpus, z3_involution, z5_bracket):
    for lam in (2, 3, 4):
        image = _scaled(z5_bracket, lam)
        assert image != z5_bracket
        for d in corpus.values():
            assert invariants(d, z3_involution, image) \
                == invariants(d, z3_involution, z5_bracket)


def test_search_node_counts_are_frozen(z3_involution):
    # a diagonal slot after the first may only take candidates with the
    # omega the first one fixed; offering more finds the same brackets
    # (the final axiom check drops the rest) in more nodes
    for cfg, want in ((SearchConfig(3, "diagonal", seed=42), (288, 1466)),
                      (SearchConfig(3, "full", seed=2), (480, 6618))):
        result = search_brackets(z3_involution, cfg)
        assert (len(result.brackets), result.nodes) == want


def test_budget_exhaustion_flag(z3_involution):
    result = search_brackets(z3_involution,
                             SearchConfig(modulus=5, budget=20))
    assert result.exhausted
    assert result.nodes == 20


def test_search_deeper_than_the_recursion_limit():
    # 1,369 cells to assign, more than the interpreter's recursion limit:
    # the node loop holds one stack entry per cell, not one frame
    x = alexander_biquandle(37, 2, 1)
    assert x.n ** 2 > sys.getrecursionlimit()
    result = search_brackets(x, SearchConfig(2, budget=5000))
    assert (result.nodes, result.exhausted, len(result.brackets)) \
        == (5000, True, 1)


@pytest.mark.parametrize("p, nodes", [(2, 3), (3, 10)])
def test_budget_boundary(p, nodes):
    # a budget of exactly the nodes a search needs completes it; one fewer
    # stops it after that many assignments
    x = FiniteBiquandle(((0,),), ((0,),))
    full = search_brackets(x, SearchConfig(modulus=p, ansatz="full"))
    assert (full.nodes, full.exhausted) == (nodes, False)
    exact = search_brackets(x, SearchConfig(modulus=p, ansatz="full",
                                            budget=nodes))
    assert not exact.exhausted and exact.nodes == nodes
    assert [_key(b) for b in exact.brackets] \
        == [_key(b) for b in full.brackets]
    short = search_brackets(x, SearchConfig(modulus=p, ansatz="full",
                                            budget=nodes - 1))
    assert short.exhausted and short.nodes == nodes - 1


def test_every_found_bracket_passed_the_final_verification(monkeypatch,
                                                          z3_involution):
    # the search's own checks cover every family, so only counting or vetoing
    # the final verify_bracket_axioms calls shows that they are made
    cfg = SearchConfig(3, "diagonal", seed=42)
    verified = []

    def counting(br):
        report = verify_bracket_axioms(br)
        verified.append((br, report.passed))
        return report

    monkeypatch.setattr(search, "verify_bracket_axioms", counting)
    result = search_brackets(z3_involution, cfg)
    assert len(result.brackets) == 288
    assert len(verified) == 288
    assert all(found is br and passed
               for found, (br, passed) in zip(result.brackets, verified))
    monkeypatch.setattr(search, "verify_bracket_axioms",
                        lambda br: AxiomReport((("veto", ()),)))
    assert search_brackets(z3_involution, cfg).brackets == []


def test_reverification_evaluates_each_distinct_triple_once(monkeypatch,
                                                           reference_search):
    # re-verifying the reference brackets reads 19,456 * 27 = 525,312 triple
    # instances; the verifier's memo evaluates each distinct
    # (m, delta, six (A, B, V) cells) once
    brackets = reference_search.brackets
    x, m = brackets[0].biquandle, brackets[0].modulus.m
    n = x.n
    slots = [itemgetter(*[i * n + j for i, j in triple_slots(x, *t)])
             for t in itertools.product(range(n), repeat=3)]
    distinct = set()
    for br in brackets:
        abv = [cell for rows in zip(br.A, br.B, br.V) for cell in zip(*rows)]
        distinct.update((br.modulus.m, br.delta, get(abv)) for get in slots)
    assert len(distinct) == 4432
    calls = Counter()

    def counting(delta, *cells):
        calls[m, delta, cells] += 1
        return triple_residuals(delta, *cells)

    monkeypatch.setattr(bracket, "triple_residuals", counting)
    bracket.triple_verdicts.cache_clear()
    assert all(verify_bracket_axioms(br).passed for br in brackets)
    assert set(calls) == distinct
    assert max(calls.values()) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_pair_solutions_match_product_enumeration(p):
    for delta in range(p):
        want = [(a, b, v) + cdu
                for a, b, v in itertools.product(range(p), repeat=3)
                if (cdu := solve_pair(a, b, v, delta, p)) is not None]
        assert pair_solutions(delta, p) == want


def test_pair_solutions_take_quadratically_many_solves(monkeypatch,
                                                       z3_involution):
    # per delta, p^2 triples at v = 0 and at most 2p at each nonzero v
    calls = []

    def counting(a, b, v, delta, p):
        calls.append((delta, v))
        return solve_pair(a, b, v, delta, p)

    monkeypatch.setattr(search, "solve_pair", counting)
    for p, budget in ((3, 10 ** 6), (101, 5)):
        calls.clear()
        result = search_brackets(z3_involution,
                                 SearchConfig(p, "diagonal", budget=budget))
        per_delta = Counter(delta for delta, _ in calls)
        assert len(per_delta) == (1 if result.exhausted else p)
        for delta in per_delta:
            per_v = Counter(v for d, v in calls if d == delta)
            assert per_v[0] == p * p
            assert all(per_v[v] <= 2 * p for v in range(1, p))
            assert per_delta[delta] <= 3 * p * p


def test_pair_solutions_keep_no_list_of_triples():
    # the 3 p^2 tried triples (about 0.5 MB at p = 53) are walked, not
    # stored; at delta = 1 only 52 of them solve the pair equations
    tracemalloc.start()
    try:
        sols = pair_solutions(1, 53)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sols) == 52
    assert peak - kept < 16_000


# -- the un-memoized search as an oracle ----------------------------------------

def unmemoized_search(x: FiniteBiquandle, cfg: SearchConfig) -> SearchResult:
    """The search as it was before triple checks were memoized and the pair
    solutions enumerated in O(p^2): every check evaluates its residuals,
    and the assignment is a slot-keyed dict.  The tree, the brackets and
    their order must be the same."""
    p = cfg.modulus
    n = x.n
    rng = random.Random(cfg.seed)
    diag_slots = [(i, i) for i in range(n)]
    off_slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(off_slots)
    slot_order = diag_slots + off_slots
    slot_rank = {s: k for k, s in enumerate(slot_order)}
    checks_at: dict[int, list[tuple]] = {}
    for triple in itertools.product(range(n), repeat=3):
        slots = triple_slots(x, *triple)
        checks_at.setdefault(max(map(slot_rank.__getitem__, slots)),
                             []).append(slots)
    deltas = list(range(p))
    rng.shuffle(deltas)
    found: list[VirtualBracket] = []
    nodes = 0
    exhausted = False

    for delta in deltas:
        if cfg.require_delta_unit and math.gcd(delta, p) != 1:
            continue
        sols = [(a, b, v) + cdu
                for a, b, v in itertools.product(range(p), repeat=3)
                if (cdu := solve_pair(a, b, v, delta, p)) is not None]
        off_cands = sols if cfg.ansatz == "full" \
            else [sol for sol in sols if sol[0] == sol[1] == 0]
        diag_cands: list[tuple] = []
        by_omega: dict[int, list[tuple]] = {}
        for sol in sols:
            w = (delta * sol[0] + sol[1] + sol[2]) % p
            if math.gcd(w, p) == 1 and not any(
                    r % p for r in diagonal_residuals(delta, w, *sol)):
                diag_cands.append(sol + (w,))
                by_omega.setdefault(w, []).append(sol + (w,))
        tabs: dict[tuple[int, int], tuple] = {}

        def place(slot_idx: int, omega: int | None) -> bool:
            nonlocal nodes, exhausted
            if slot_idx == len(slot_order):
                tables = (tuple(tuple(tabs[i, j][k] for j in range(n))
                                for i in range(n)) for k in range(6))
                br = VirtualBracket(x, Modulus(p), *tables, delta, omega)
                if verify_bracket_axioms(br).passed:
                    found.append(br)
                return True
            slot = slot_order[slot_idx]
            if slot_idx >= n:
                cands = off_cands
            else:
                cands = by_omega[omega] if slot_idx else diag_cands
            for cand in cands:
                if nodes == cfg.budget:
                    exhausted = True
                    return False
                nodes += 1
                tabs[slot] = cand
                ok = all(not any(r % p for r in triple_residuals(
                             delta, *[tabs[s][:3] for s in slots]))
                         for slots in checks_at.get(slot_idx, ()))
                if ok and not place(slot_idx + 1,
                                    cand[6] if slot_idx < n else omega):
                    return False
            return True

        if not place(0, None):
            break
    return SearchResult(found, exhausted, nodes)


ORACLE_CONFIGS = (
    [("z3_involution", SearchConfig(p, "diagonal", seed=seed))
     for p in (2, 3) for seed in range(6)]
    + [("z3_involution", SearchConfig(3, "full", seed=seed)) for seed in (0, 2)]
    + [("z3_coloring", SearchConfig(3, "full", require_delta_unit=unit))
       for unit in (False, True)]
    + [("singleton", SearchConfig(p, "full", seed=seed))
       for p in (2, 3, 5, 7) for seed in range(3)]
    + [("z3_involution", SearchConfig(5, "diagonal", seed=1, budget=budget))
       for budget in (1, 7, 20, 500)]
    # the reference search's first replayed cell-0 candidate and its subtree
    # are nodes 4,874-9,746: budgets that cut just before it, at its cell-0
    # node, inside its subtree and at its end, and one inside the first
    # replay at p = 7 (nodes 31,892-63,782)
    + [("z3_involution", SearchConfig(5, "diagonal", seed=1, budget=budget))
       for budget in (4873, 4874, 7000, 9746)]
    + [("z3_involution", SearchConfig(7, "diagonal", seed=1, budget=40_000))])


ORACLE_IDS = ["%s-p%d-%s-seed%d-budget%d%s"
              % (name, c.modulus, c.ansatz, c.seed, c.budget,
                 "-unit" if c.require_delta_unit else "")
              for name, c in ORACLE_CONFIGS]


@pytest.mark.parametrize("name, cfg", ORACLE_CONFIGS, ids=ORACLE_IDS)
def test_search_matches_unmemoized_oracle(name, cfg):
    x = FiniteBiquandle(((0,),), ((0,),)) if name == "singleton" \
        else load_biquandle(name)
    got = search_brackets(x, cfg)
    want = unmemoized_search(x, cfg)
    assert (got.nodes, got.exhausted) == (want.nodes, want.exhausted)
    assert [render_bracket(b) for b in got.brackets] \
        == [render_bracket(b) for b in want.brackets]


@pytest.mark.parametrize(
    "name, cfg", [ORACLE_CONFIGS[k] for k in (7, 13, 14, 22, 31)],
    ids=[ORACLE_IDS[k] for k in (7, 13, 14, 22, 31)])
def test_search_survives_an_emptied_memo(monkeypatch, name, cfg):
    # with the verifier's memos bounded at 16 entries, the triple memo the
    # search checks through is emptied many times within one delta while
    # the search holds its part; the tree and the brackets stay the same
    monkeypatch.setattr(bracket, "_MEMO_SIZE", 16)
    test_search_matches_unmemoized_oracle(name, cfg)
