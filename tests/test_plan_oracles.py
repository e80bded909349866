"""The library's plan compilers against the straightforward ones of
plan_oracles: equal frontier sweeps and equal bound coloring plans, on
seeded codes with kinks and on the bundled corpus."""

import random

from vknotoid import bracket, coloring
from vknotoid.biquandle import alexander_biquandle
from vknotoid.diagram import insert_move

from plan_oracles import compile_sweep, solve_plan
from test_state_sum import random_code


def oracle_codes():
    """Seeded codes with c = 0..12 and 0..3 virtual crossings, each also
    with an R1 kink of either sign and order inserted at a seeded gap."""
    rng = random.Random(21)
    codes = []
    for c in range(13):
        for v in range(4):
            d = random_code(rng, c, v)
            codes += [d, insert_move(d, "R1", rng.randint(0, len(d.passes)),
                                     sign=rng.choice((1, -1)),
                                     over_first=rng.choice((True, False)))]
    return codes


def test_compiled_plans_equal_the_oracles(corpus, z3_involution, z5_alexander,
                                          z3_coloring):
    xs = (z3_involution, z5_alexander, z3_coloring,
          alexander_biquandle(7, 3, 2))
    codes = oracle_codes() + list(corpus.values())
    assert len(codes) == 104 + 32
    assert any(cr.u_in - cr.o_in in (1, -1)
               for d in codes for cr in d.crossings().values())
    for d in codes:
        bracket._PLANS.clear()
        assert bracket._plan(d) == compile_sweep(d)
        for x in xs:
            assert coloring.cached_plan(d, x, coloring._solve_plan) \
                == solve_plan(d, x)
    bracket._PLANS.clear()
