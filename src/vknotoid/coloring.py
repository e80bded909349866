"""Biquandle colorings of knotoid diagrams.

A coloring assigns a biquandle element to every semi-arc so that each
classical crossing's sideways relation S(a, b) = (c, d) holds on its four
semi-arcs (:attr:`~vknotoid.diagram.Crossing.sideways`: a under b = d and
b over a = c), and any of the pairs {a, b}, {c, d}, {a, c}, {b, d} fixes the
other two colors through one of the biquandle's solve tables
(:meth:`~vknotoid.biquandle.FiniteBiquandle.solvers`).

So enumeration is compiled, in O(c), into a plan: branch on the tail
color, derive every crossing whose determining pair is known (a derived
color that is already known becomes a check), and when nothing more
follows, branch on the semi-arc that completes a determining pair of the
first unfinished crossing in order of first pass.  The plan branches only
where no crossing forces a color, so its cost grows with the number of such
branch points, not with the frontier width of the traversal.  The order
of the steps depends only on the diagram's passes, so it is compiled once
per diagram into a skeleton that names each solve table by index, and bound
to a biquandle's tables and n in one pass over its steps.  Both are kept in
the plan cache :data:`_PLANS`, whose entry per diagram is a dict from key
to plan: None for the state plan (:func:`vknotoid.bracket._plan`),
:data:`_SKELETON` for the skeleton and each biquandle for the skeleton bound
to it; :func:`cached_plan` is the one way in.

The plan runs on an explicit stack, so the depth of a diagram is bounded by
memory, not by the interpreter's recursion limit.  Colorings are yielded one
at a time in no specified order.

:func:`counting_matrix` counts once per orbit of the tail color.  An
automorphism g of the biquandle maps colorings to colorings, so the row of
tail g(r) is the row of tail r with its columns permuted by g; the plan's
first branch is cut to the least tail of each orbit, and every other row is
filled from its representative's.  The orbits and one automorphism per
element come from :func:`~vknotoid.biquandle.automorphism_orbits`, computed
once per table (memoized, 8 tables): 15-53 us for each bundled table, and
a few ms at n = 37.  Over ``z5_alexander`` (orbits {x_1..x_4} and {x_5})
this enumerates 2 of the 5 tails.  A bracket's coefficients need not be
invariant under the automorphisms, so the bracket matrix and ``invariants``
with a bracket still enumerate every tail.
"""

from __future__ import annotations

from typing import Iterator

from .biquandle import FiniteBiquandle, automorphism_orbits
from .diagram import KnotoidDiagram

Coloring = tuple[int, ...]


# Keyed on the diagram's passes; ``bracket._PLANS`` is this dict, so
# clearing either forgets every plan.
_PLANS: dict[tuple, dict] = {}
_PLAN_LIMIT = 65                    # items per dict of the plan cache
_SKELETON = "solve skeleton"        # the key of a diagram's solve skeleton


def _store(cache: dict, key, value, limit: int = _PLAN_LIMIT):
    """``cache[key] = value``, first emptying a cache of ``limit`` items."""
    if len(cache) >= limit:
        cache.clear()
    cache[key] = value
    return value


def cached_plan(diagram: KnotoidDiagram, key, compile):
    """The plan under ``key`` in the diagram's entry of the plan cache,
    stored from ``compile(diagram, key)`` on a miss.  The cache is emptied
    before a 66th diagram joins it, and an entry before its 66th plan."""
    entry = _PLANS.get(diagram.passes)
    if entry is None:
        entry = _store(_PLANS, diagram.passes, {})
    plan = entry.get(key)
    if plan is None:
        plan = _store(entry, key, compile(diagram, key))
    return plan


def _solve_skeleton(diagram: KnotoidDiagram, _key: str) -> list:
    """The solve plan's steps in run order, without the biquandle: a branch
    step is the semi-arc it colors; a derive step is (table index, s0, s1,
    t0, t1, check0, check1): table[colors[s0]][colors[s1]] gives the colors
    of t0 and t1, each checked if already known, else assigned."""
    nseg = diagram.semi_arc_count
    # per crossing in order of first pass: its solvers as (table index,
    # known pair, derived pair), from S(a, b) = (c, d)
    solves = []
    for cr in sorted(diagram.crossings().values(),
                     key=lambda cr: min(cr.u_in, cr.o_in)):
        a, b, c, d = cr.sideways
        solves.append(((0, a, b, c, d), (1, c, d, a, b),
                       (2, a, c, b, d), (3, b, d, a, c)))
    touching: list[list[int]] = [[] for _ in range(nseg)]
    for i, sol in enumerate(solves):
        for k in sol[0][1:]:
            touching[k].append(i)
    known = [False] * nseg
    done = [False] * len(solves)
    steps: list = []

    def branch(k: int) -> None:
        steps.append(k)
        known[k] = True
        queue = [k]
        while queue:
            for i in touching[queue.pop()]:
                if done[i]:
                    continue
                for t, s0, s1, t0, t1 in solves[i]:
                    if known[s0] and known[s1]:
                        # at a kink two of the four semi-arcs coincide
                        steps.append((t, s0, s1, t0, t1, known[t0],
                                      known[t1] or t1 == t0))
                        done[i] = True
                        for u in (t0, t1):
                            if not known[u]:
                                known[u] = True
                                queue.append(u)
                        break

    branch(0)
    for i, sol in enumerate(solves):
        while not done[i]:
            # the first unfinished crossing always has a known semi-arc: the
            # one entering its first pass leaves a finished crossing or is
            # the tail
            branch(next(s1 if known[s0] else s0
                        for _, s0, s1, _, _ in sol
                        if known[s0] != known[s1]))
    return steps


def _solve_plan(diagram: KnotoidDiagram, x: FiniteBiquandle) -> list:
    """The diagram's skeleton bound to ``x``: a branch step becomes the list
    of its stack entries (index of the next step, semi-arc, color), and a
    derive step's table index its solve table."""
    skeleton = cached_plan(diagram, _SKELETON, _solve_skeleton)
    tables = x.solvers() if len(skeleton) > 1 else ()
    colors = range(x.n - 1, -1, -1)
    return [[(i, step, v) for v in colors] if step.__class__ is int
            else (tables[step[0]],) + step[1:]
            for i, step in enumerate(skeleton, 1)]


def iter_colorings(diagram: KnotoidDiagram,
                   x: FiniteBiquandle) -> Iterator[Coloring]:
    """All colorings, in no specified order, as tuples of 0-based element
    indices per semi-arc.  Raises NotABiquandle before the first coloring if
    the diagram has a classical crossing and a solve table of ``x`` is not
    a function."""
    return _colorings(diagram, x, None)


def _colorings(diagram: KnotoidDiagram, x: FiniteBiquandle,
               tails: list[bool] | None) -> Iterator[Coloring]:
    """The colorings of the solve plan, only those whose tail color t has
    ``tails[t]`` if ``tails`` is given."""
    steps = cached_plan(diagram, x, _solve_plan)
    last = len(steps)
    colors = [0] * diagram.semi_arc_count
    stack = [e for e in steps[0] if tails[e[2]]] if tails is not None \
        else list(steps[0])
    while stack:
        i, k, v = stack.pop()
        colors[k] = v
        while True:
            if i == last:
                yield tuple(colors)
                break
            step = steps[i]
            i += 1
            if step.__class__ is list:
                stack += step
                break
            table, s0, s1, t0, t1, check0, check1 = step
            v0, v1 = table[colors[s0]][colors[s1]]
            if check0:
                if colors[t0] != v0:
                    break
            else:
                colors[t0] = v0
            if check1:
                if colors[t1] != v1:
                    break
            else:
                colors[t1] = v1


def enumerate_colorings(diagram: KnotoidDiagram,
                        x: FiniteBiquandle) -> list[Coloring]:
    """All colorings, as tuples of 0-based element indices per semi-arc, in
    lexicographic order."""
    return sorted(iter_colorings(diagram, x))


def counting_invariant(diagram: KnotoidDiagram, x: FiniteBiquandle) -> int:
    """Number of colorings."""
    return sum(map(sum, counting_matrix(diagram, x)))


def counting_matrix(diagram: KnotoidDiagram,
                    x: FiniteBiquandle) -> list[list[int]]:
    """n x n matrix whose (i, j) entry counts colorings with the tail arc
    colored x_{i+1} and the head arc colored x_{j+1}.  Entries sum to the
    counting invariant.

    Only the tails that represent their Aut(X)-orbit are enumerated: an
    automorphism g of X maps the colorings with tail r and head j to those
    with tail g(r) and head g(j), so row g(r) is row r with its columns
    permuted by g."""
    orbits = automorphism_orbits(x)
    tails = [r == i for i, (r, _) in enumerate(orbits)]
    mat = [[0] * x.n for _ in range(x.n)]
    for f in _colorings(diagram, x, tails):
        mat[f[0]][f[-1]] += 1
    for i, (r, g) in enumerate(orbits):
        if r != i:
            row = mat[i]
            for j, count in enumerate(mat[r]):
                row[g[j]] = count
    return mat


def matrix_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
