"""Biquandle colorings of knotoid diagrams.

A coloring assigns a biquandle element to every semi-arc so that each
classical crossing's two relations hold.  Enumeration walks the classical
passes in traversal order: the color of the segment after a pass is free
until the crossing's partner pass has been seen, at which point the crossing
forces (and checks) the remaining out-color.  This keeps the branch factor
at one free choice per crossing plus the tail color, and covers non-affine
biquandles the same way as affine ones.

The walk keeps its pending choices on an explicit stack, so the depth of a
diagram is bounded by memory, not by the interpreter's recursion limit, and
it yields colorings in lexicographic order one at a time.
"""

from __future__ import annotations

from typing import Iterator

from .biquandle import FiniteBiquandle
from .diagram import KnotoidDiagram

Coloring = tuple[int, ...]


def _forced_outputs(x: FiniteBiquandle, sign: int, u_in: int,
                    o_in: int) -> tuple[int, int]:
    """(u_out, o_out) forced from the in-colors by the two relations of
    :meth:`~vknotoid.diagram.Crossing.relations`, solved for the out-colors."""
    if sign > 0:
        o_out = x.over_inv(o_in, u_in)       # o_in = o_out over u_in
        u_out = x.under_op(u_in, o_out)
    else:
        u_out = x.under_inv(u_in, o_in)      # u_in = u_out under o_in
        o_out = x.over_op(o_in, u_out)
    return u_out, o_out


def _step_table(x: FiniteBiquandle, sign: int,
                under: bool) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For the later pass of a crossing, per (u_in, o_in) colors: the
    out-color the crossing forces on the earlier pass, then its own."""
    rows = []
    for a in range(x.n):
        row = []
        for b in range(x.n):
            u_out, o_out = _forced_outputs(x, sign, a, b)
            row.append((o_out, u_out) if under else (u_out, o_out))
        rows.append(tuple(row))
    return tuple(rows)


def iter_colorings(diagram: KnotoidDiagram,
                   x: FiniteBiquandle) -> Iterator[Coloring]:
    """All colorings in lexicographic order, as tuples of 0-based element
    indices per semi-arc.  Raises NotABiquandle if a column map that the
    crossings need is not a bijection."""
    # per semi-arc k >= 1, led into by pass k-1: if the partner pass comes
    # later, the color is free and the walk pushes its other choices; else
    # the crossing forces it from the colors of earlier semi-arcs
    nseg = diagram.semi_arc_count
    steps: list = [[(k, v) for v in range(x.n - 1, 0, -1)] for k in range(nseg)]
    tables: dict[tuple[int, bool], tuple] = {}
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


def enumerate_colorings(diagram: KnotoidDiagram,
                        x: FiniteBiquandle) -> list[Coloring]:
    """All colorings, as tuples of 0-based element indices per semi-arc, in
    lexicographic order."""
    return list(iter_colorings(diagram, x))


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
