"""The plan cache: one entry per diagram maps None to its state plan,
coloring._SKELETON to its solve skeleton and each biquandle to the skeleton
bound to it.  Warm and cold results are checked bit for bit against the 3^c
state sum and the traversal walk, compiles are counted, and the cache's
bound is per diagram and per entry."""

import random
from collections import Counter

import pytest

from vknotoid import bracket, coloring
from vknotoid.biquandle import FiniteBiquandle, alexander_biquandle
from vknotoid.bracket import Invariants, VirtualBracket, invariants
from vknotoid.coloring import counting_matrix
from vknotoid.data import load_biquandle
from vknotoid.ring import BracketPolynomial, Modulus

from test_state_sum import dense_invariants, random_codes, walk_colorings


@pytest.fixture
def cold():
    """An empty plan cache before and after the test."""
    bracket._PLANS.clear()
    yield
    bracket._PLANS.clear()


def oracle_invariants(d, x, br):
    """The traversal walk's counting matrix and, with a bracket, the 3^c
    state sum's bracket matrix."""
    counts = [[0] * x.n for _ in range(x.n)]
    for f in walk_colorings(d, x):
        counts[f[0]][f[-1]] += 1
    if br is None:
        return Invariants(counts)
    want = dense_invariants(d, x, br)
    assert want.counting_matrix == counts
    return want


def random_bracket(x, m=7, seed=0):
    """Seeded coefficient tables that satisfy no bracket equation, so a cell
    of the bracket matrix can hold several values; the valid brackets give
    one value per cell."""
    rng = random.Random(seed)
    tables = [tuple(tuple(rng.randrange(m) for _ in range(x.n))
                    for _ in range(x.n)) for _ in range(6)]
    return VirtualBracket(x, Modulus(m), *tables, delta=rng.randrange(m),
                          omega=rng.randrange(1, m))


def test_cached_invariants_match_the_oracles(cold, corpus, z3_involution,
                                             z5_alexander, z3_coloring,
                                             z5_bracket, z3_coloring_brackets):
    codes = random_codes(12, (0, 1, 2, 3, 4, 5, 6) * 2) + list(corpus.values())
    configs = ([(z3_involution, z5_bracket), (z5_alexander, None),
                (z3_coloring, None), (z5_alexander, random_bracket(z5_alexander))]
               + [(z3_coloring, br) for br in z3_coloring_brackets[:10]])
    want = {}
    for k, (x, br) in enumerate(configs):
        for i, d in enumerate(codes):
            want[k, i] = oracle_invariants(d, x, br)
            bracket._PLANS.clear()
            assert invariants(d, x, br) == want[k, i]        # cold
            assert invariants(d, x, br) == want[k, i]        # warm
    # warm again, with every biquandle's plans in each diagram's entry
    for i, d in enumerate(codes):
        for k, (x, br) in enumerate(configs):
            assert invariants(d, x, br) == want[k, i]
    assert set(bracket._PLANS[codes[0].passes]) \
        == {None, coloring._SKELETON, z3_involution, z5_alexander, z3_coloring}
    # some cell under the random bracket holds several terms, in order
    assert any(len(p.terms) > 1 for (k, _), inv in want.items() if k == 3
               for row in inv.bracket_matrix for p in row)


def count_compiles(monkeypatch) -> tuple[list, list, list]:
    """The passes of each diagram whose solve skeleton, coloring plan
    (a binding of the skeleton) or state plan is compiled from now on."""
    calls = ([], [], [])
    for (module, name), seen in zip(((coloring, "_solve_skeleton"),
                                     (coloring, "_solve_plan"),
                                     (bracket, "_compile_sweep")), calls):
        def counted(diagram, key, compile=getattr(module, name), seen=seen):
            seen.append(diagram.passes)
            return compile(diagram, key)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_warm_repeat_compiles_no_coloring_plan(cold, monkeypatch, corpus,
                                                 z3_involution, z5_bracket):
    assert bracket._PLANS is coloring._PLANS
    d = corpus["4.1.5"]
    want = invariants(d, z3_involution, z5_bracket)
    skeletons, calls, _ = count_compiles(monkeypatch)
    # an equal biquandle built again from the tables is another object
    again = FiniteBiquandle(z3_involution.under_table, z3_involution.over_table)
    assert again is not z3_involution
    assert invariants(d, again, z5_bracket) == want
    assert skeletons == calls == []
    bracket._PLANS.clear()
    assert invariants(d, again, z5_bracket) == want
    assert skeletons == calls == [d.passes]


def test_clearing_forgets_every_plan_kind(cold, monkeypatch, corpus,
                                          z3_involution, z5_bracket):
    d = corpus["4.1.5"]
    want = invariants(d, z3_involution, z5_bracket)
    assert set(bracket._PLANS[d.passes]) \
        == {None, coloring._SKELETON, z3_involution}
    skeletons, calls, sweeps = count_compiles(monkeypatch)
    assert invariants(d, z3_involution, z5_bracket) == want
    assert skeletons == calls == sweeps == []
    bracket._PLANS.clear()
    assert invariants(d, z3_involution, z5_bracket) == want
    assert skeletons == calls == sweeps == [d.passes]


def test_four_biquandles_over_the_corpus_stay_cached(cold, monkeypatch,
                                                     corpus):
    xs = [load_biquandle(name) for name in
          ("z3_involution", "z3_shift", "z5_alexander", "z3_coloring")]
    skeletons, calls, sweeps = count_compiles(monkeypatch)
    first = [invariants(d, x) for x in xs for d in corpus.values()]
    # one skeleton per diagram, bound once to each biquandle
    assert len(skeletons) == len(set(skeletons)) == len(corpus) == 32
    assert len(calls) == 4 * 32 and sorted(calls) == sorted(skeletons * 4)
    assert sweeps == []
    del skeletons[:], calls[:]
    assert [invariants(d, x) for x in xs for d in corpus.values()] == first
    assert skeletons == calls == []
    assert len(bracket._PLANS) == len(corpus)


def test_the_cache_is_bounded_per_diagram(cold, z3_involution, z5_alexander,
                                          z3_coloring, z5_bracket):
    codes = random_codes(13, (1, 2, 3, 4, 5) * 14)
    assert len({d.passes for d in codes}) > 64
    configs = ((z3_involution, z5_bracket), (z5_alexander, None),
               (z3_coloring, None))
    for d in codes:
        for x, br in configs:
            assert invariants(d, x, br) == oracle_invariants(d, x, br)
            assert len(bracket._PLANS) <= 65
    # the entry of the last diagram holds all three biquandles' plans, its
    # skeleton and its state plan
    assert set(bracket._PLANS[codes[-1].passes]) \
        == {None, coloring._SKELETON, z3_involution, z5_alexander, z3_coloring}


def test_an_entry_is_bounded_per_biquandle(cold, monkeypatch, corpus):
    # 100 affine tables on Z_11, more than one entry holds
    xs = [alexander_biquandle(11, t, r)
          for t in range(1, 11) for r in range(1, 11)]
    assert len(set(xs)) == 100
    d = corpus["3.1.1"]
    cold_matrices = []
    for x in xs:
        bracket._PLANS.clear()
        cold_matrices.append(counting_matrix(d, x))
    bracket._PLANS.clear()
    skeletons, calls, _ = count_compiles(monkeypatch)
    sizes = []
    for _ in range(2):
        for x, want in zip(xs, cold_matrices):
            assert counting_matrix(d, x) == want
            sizes.append(len(bracket._PLANS[d.passes]))
    # the skeleton and 64 coloring plans fill the entry to 65, and it is
    # emptied before the 66th joins it, so the next plan compiles the
    # skeleton again.  A round of 100 outruns the entry, so the second round
    # compiles every plan again, and a repeat of the last biquandle
    # compiles none
    assert max(sizes) == 65 and sizes[64:66] == [1, 3]
    assert len(bracket._PLANS) == 1 and len(calls) == 2 * len(xs)
    assert counting_matrix(d, xs[-1]) == cold_matrices[-1]
    assert len(calls) == 2 * len(xs) and len(skeletons) == 4


def test_bracket_polynomial_is_the_sum_of_the_cells(corpus, z3_involution,
                                                    z5_alexander, z3_coloring,
                                                    z5_bracket,
                                                    z3_coloring_brackets):
    codes = random_codes(1, (1, 2, 3, 4, 5) * 4) + list(corpus.values())
    configs = [(z3_involution, z5_bracket),
               (z5_alexander, random_bracket(z5_alexander, seed=1))] + [
        (z3_coloring, br) for br in z3_coloring_brackets[:10]]
    empty = 0
    for d in codes:
        for x, br in configs:
            inv = invariants(d, x, br)
            cells = [p for row in inv.bracket_matrix for p in row]
            total = sum((Counter(p.as_dict()) for p in cells), Counter())
            assert inv.bracket_polynomial \
                == BracketPolynomial.from_dict(br.modulus, total)
            if inv.counting_invariant == 0:
                assert inv.bracket_polynomial.terms == ()
                empty += 1
    assert empty


@pytest.mark.parametrize("name, reached", [("4.1.5", 1369), ("2.1.1", 37)])
def test_only_reached_cells_get_a_polynomial_of_their_own(corpus, name,
                                                          reached):
    # n = 37 has 1,369 cells: 4.1.5 reaches each of them once, 2.1.1 only
    # 37, and every cell it does not reach is one shared empty polynomial
    x = alexander_biquandle(37, 2, 1)
    br = random_bracket(x)
    d = corpus[name]
    inv = invariants(d, x, br)
    assert inv == dense_invariants(d, x, br)
    occupied = sum(count > 0 for row in inv.counting_matrix for count in row)
    assert occupied == reached
    polys = {id(p) for row in inv.bracket_matrix for p in row}
    assert len(polys) <= occupied + 1
