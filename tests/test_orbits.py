"""Automorphism orbits of a biquandle and the counting matrix read from them.

`biquandle.automorphism_orbits` is checked against a scan of all n!
permutations, and `coloring.counting_matrix`, which enumerates one tail per
orbit and fills the other rows through the automorphisms, against the
matrix tallied from every coloring of `iter_colorings`."""

import itertools
import random
import time

import pytest

from vknotoid.biquandle import (FiniteBiquandle, alexander_biquandle,
                                automorphism_orbits, verify_biquandle_axioms)
from vknotoid import coloring
from vknotoid.coloring import counting_matrix, iter_colorings
from vknotoid.data import load_biquandle

from test_state_sum import oracle_codes

BUNDLED = ("z3_coloring", "z3_involution", "z3_shift", "z5_alexander")
# (m, t, r, shift_under, shift_over), with and without shifts
ALEXANDER = ((2, 1, 1, 0, 0), (2, 1, 1, 1, 1), (3, 2, 1, 0, 0),
             (3, 1, 2, 2, 2), (4, 3, 1, 0, 0), (4, 1, 3, 2, 2),
             (5, 2, 4, 0, 0), (5, 3, 2, 1, 1), (6, 5, 1, 0, 0),
             (6, 1, 5, 3, 3), (7, 3, 2, 0, 0), (7, 3, 5, 2, 2))
# x under y = x over y = x: every permutation is an automorphism
TRIVIAL = FiniteBiquandle(*[tuple(tuple(a for _ in range(4)) for a in range(4))]
                          * 2)
# An exhaustive search found no rigid biquandle of order 5 or less: a kink
# map x -> x under x other than the identity is itself an automorphism, and
# no biquandle of those orders with the identity kink map is rigid.  This
# table is rigid; it fails the exchange laws, but its column maps and its
# sideways map are bijections, so the coloring plan runs on it.
RIGID = FiniteBiquandle(((1, 1, 1, 0), (3, 3, 3, 3), (0, 0, 2, 1), (2, 2, 0, 2)),
                        ((2, 2, 2, 2), (0, 0, 1, 3), (1, 1, 0, 0), (3, 3, 3, 1)))


def tables():
    return ([load_biquandle(name) for name in BUNDLED]
            + [alexander_biquandle(*args) for args in ALEXANDER]
            + [TRIVIAL, RIGID])


NAMES = (BUNDLED + tuple("alexander_%d_%d_%d_%d_%d" % args for args in ALEXANDER)
         + ("trivial", "rigid"))


def is_automorphism(g, x):
    rn = range(x.n)
    return sorted(g) == list(rn) and all(
        g[t[a][b]] == t[g[a]][g[b]]
        for t in (x.under_table, x.over_table) for a in rn for b in rn)


def brute_force_automorphisms(x):
    """The oracle: every permutation that keeps both tables."""
    return [g for g in itertools.permutations(range(x.n))
            if is_automorphism(g, x)]


def test_the_tables_are_what_they_claim():
    xs = tables()
    assert all(verify_biquandle_axioms(x).passed for x in xs[:-1])
    assert not verify_biquandle_axioms(RIGID).passed
    assert None not in RIGID._solvers
    assert len(brute_force_automorphisms(RIGID)) == 1
    assert len(brute_force_automorphisms(TRIVIAL)) == 24


def test_orbits_match_a_scan_of_all_permutations():
    sizes = set()
    for x in tables():
        if x.n > 6:
            continue
        auts = brute_force_automorphisms(x)
        orbits = automorphism_orbits(x)
        assert len(orbits) == x.n
        for i, (r, g) in enumerate(orbits):
            assert r == min(h[i] for h in auts)
            assert g in auts and g[r] == i
        sizes.add(len(auts))
    # groups of several orders, transitive or not
    assert {1, 2, 3, 4, 24} <= sizes


def random_symmetric_table(rng, n):
    """Seeded tables of order n that commute with a random permutation s
    (t[s a][s b] = s t[a][b]), so that they have automorphisms to find.
    Most are not biquandles; the search reads only the two tables."""
    s = list(range(n))
    rng.shuffle(s)
    tables = []
    for _ in range(2):
        t = [[-1] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                if t[a][b] < 0:
                    # fill the cell's s-orbit from one random value
                    v, p, q = rng.randrange(n), a, b
                    while t[p][q] < 0:
                        t[p][q] = v
                        v, p, q = s[v], s[p], s[q]
        tables.append(tuple(map(tuple, t)))
    return FiniteBiquandle(*tables)


def test_orbits_of_random_tables_match_the_scan():
    rng = random.Random(5)
    groups = set()
    for n in (2, 3, 4, 5, 6):
        for _ in range(100):
            x = random_symmetric_table(rng, n)
            auts = brute_force_automorphisms(x)
            for i, (r, g) in enumerate(automorphism_orbits(x)):
                assert r == min(h[i] for h in auts)
                assert g in auts and g[r] == i
            groups.add(len(auts))
    assert len(groups) > 4


def test_z5_alexander_orbits():
    # Aut = {x -> a*x + a - 1 : a != 0} on the indices: orbits {0..3}, {4}
    orbits = automorphism_orbits(load_biquandle("z5_alexander"))
    assert [r for r, _ in orbits] == [0, 0, 0, 0, 4]


def test_large_tables_finish_within_a_bound():
    """An automorphism search that walked permutations would not finish
    here: 37! orderings, and 100 tables of 11! each.  The memo is bypassed
    so every table is searched; the whole test takes about 0.05 s."""
    xs = [alexander_biquandle(37, 2, 1)] + [
        alexander_biquandle(11, t, r) for t in range(1, 11) for r in range(1, 11)]
    t0 = time.perf_counter()
    found = [automorphism_orbits.__wrapped__(x) for x in xs]
    assert time.perf_counter() - t0 < 5.0
    # x under y = 2x - y and x over y = x: the affine maps act transitively
    assert {r for r, _ in found[0]} == {0}
    for x, orbits in zip(xs, found):
        for i, (r, g) in enumerate(orbits):
            assert g[r] == i and r <= i and is_automorphism(g, x)


def tally(d, x):
    mat = [[0] * x.n for _ in range(x.n)]
    for f in iter_colorings(d, x):
        mat[f[0]][f[-1]] += 1
    return mat


@pytest.fixture(scope="module")
def codes(corpus):
    return oracle_codes(corpus)


@pytest.mark.parametrize("x", tables(), ids=NAMES)
def test_orbit_counting_matches_every_coloring(codes, x):
    nonzero = 0
    for d in codes:
        want = tally(d, x)
        assert counting_matrix(d, x) == want
        nonzero += any(map(any, want[1:]))
    assert nonzero


def test_only_representative_tails_are_enumerated(monkeypatch, codes,
                                                  z5_alexander):
    seen = []
    run = coloring._colorings

    def spy(d, x, tails):
        for f in run(d, x, tails):
            seen.append(f[0])
            yield f

    monkeypatch.setattr(coloring, "_colorings", spy)
    for d in codes:
        seen.clear()
        mat = counting_matrix(d, z5_alexander)
        # the orbits are {0, 1, 2, 3} and {4}
        assert sorted(seen) == [0] * sum(mat[0]) + [4] * sum(mat[4])
