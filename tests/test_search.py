import pytest

from vknotoid.biquandle import FiniteBiquandle
from vknotoid.bracket import render_bracket, verify_bracket_axioms
from vknotoid.search import (SearchConfig, brute_force_singleton, search_brackets,
                             solve_pair)


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


def test_diagonal_search_finds_reference_bracket(z3_involution, z5_bracket):
    result = search_brackets(z3_involution,
                             SearchConfig(modulus=5, ansatz="diagonal", seed=1))
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
