"""Biquandle colorings of knotoid diagrams.

A coloring assigns a biquandle element to every semi-arc so that each
classical crossing's two relations hold.  Read together, the two relations
of a crossing are one sideways relation S(a, b) = (c, d) on four semi-arcs
(:meth:`~vknotoid.diagram.Crossing.relations`: a under b = d and
b over a = c), and any of the pairs {a, b}, {c, d}, {a, c}, {b, d} fixes the
other two colors through one of the biquandle's solve tables
(:meth:`~vknotoid.biquandle.FiniteBiquandle.solvers`).

So enumeration is compiled, once per call and in O(c), into a plan: branch
on the tail color, derive every crossing whose determining pair is known
(a derived color that is already known becomes a check), and when nothing
more follows, branch on the semi-arc that completes a determining pair of
the first unfinished crossing in order of first pass.  The plan branches
only where no crossing forces a color, so its cost grows with the number
of such branch points, not with the frontier width of the traversal.

The plan runs on an explicit stack, so the depth of a diagram is bounded by
memory, not by the interpreter's recursion limit.  Colorings are yielded one
at a time in no specified order.
"""

from __future__ import annotations

from typing import Iterator

from .biquandle import FiniteBiquandle
from .diagram import KnotoidDiagram

Coloring = tuple[int, ...]


def _solve_plan(diagram: KnotoidDiagram, x: FiniteBiquandle) -> list:
    """Plan steps in run order.  A branch step is the list of its stack
    entries (index of the next step, semi-arc, color); a derive step is
    (table, s0, s1, t0, t1, check0, check1): table[colors[s0]][colors[s1]]
    gives the colors of t0 and t1, each checked if already known, else
    assigned."""
    nseg = diagram.semi_arc_count
    tables = x.solvers() if nseg > 1 else ()
    # per crossing in order of first pass: its solvers as (table index,
    # known pair, derived pair), from S(a, b) = (c, d)
    solves = []
    for cr in sorted(diagram.crossings().values(),
                     key=lambda cr: min(cr.under_pass, cr.over_pass)):
        (_, a, b, d), (_, _, _, c) = cr.relations()
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
        steps.append([(len(steps) + 1, k, v) for v in range(x.n - 1, -1, -1)])
        known[k] = True
        queue = [k]
        while queue:
            for i in touching[queue.pop()]:
                if done[i]:
                    continue
                for t, s0, s1, t0, t1 in solves[i]:
                    if known[s0] and known[s1]:
                        # at a kink two of the four semi-arcs coincide
                        steps.append((tables[t], s0, s1, t0, t1, known[t0],
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


def iter_colorings(diagram: KnotoidDiagram,
                   x: FiniteBiquandle) -> Iterator[Coloring]:
    """All colorings, in no specified order, as tuples of 0-based element
    indices per semi-arc.  Raises NotABiquandle before the first coloring if
    the diagram has a classical crossing and a solve table of ``x`` is not
    a function."""
    steps = _solve_plan(diagram, x)
    last = len(steps)
    colors = [0] * diagram.semi_arc_count
    stack = list(steps[0])
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
    counting invariant."""
    mat = [[0] * x.n for _ in range(x.n)]
    for f in iter_colorings(diagram, x):
        mat[f[0]][f[-1]] += 1
    return mat


def matrix_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
