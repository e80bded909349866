"""Finite biquandles given by operation tables.

A biquandle is a set X with two binary operations (written here as
``under_op`` and ``over_op``) such that

1. x under x == x over x for every x,
2. the column maps x -> x over y, x -> x under y and the sideways map
   S(x, y) = (y over x, x under y) are bijections,
3. the three exchange laws hold for all triples.

Each biquandle inverts S once: the n^2 quadruples (a, b, c, d) with
S(a, b) = (c, d) give S, S^-1 and the inverses of the two column maps as
four solve tables, which the coloring plan reads.

Elements are indexed 0..n-1 internally.  In files and in printed matrices
they are 1-based, and for the affine constructions over Z_m the element
with index i stands for the residue i+1, so the residue 0 is written m.
Instances are immutable after construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from ._reader import content_lines
from .ring import Modulus, NotAUnit

Table = tuple[tuple[int, ...], ...]


class BiquandleError(Exception):
    """Base class for biquandle construction failures."""


class ShapeError(BiquandleError):
    """Operation matrix is not n x 2n."""


class RangeError(BiquandleError):
    """Operation matrix entry outside 1..n."""


class NotABiquandle(BiquandleError):
    """A map that must be invertible is not."""


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[tuple[str, tuple], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


# Per solve table, the known and the derived pair of a quadruple (a, b, c, d)
# with S(a, b) = (c, d): S from (a, b) to (c, d), S^-1 from (c, d) to
# (a, b), the over-column inverse from (a, c) to (b, d) and the under-column
# inverse from (b, d) to (a, c).
_SOLVES = (((0, 1), (2, 3)), ((2, 3), (0, 1)), ((0, 2), (1, 3)),
           ((1, 3), (0, 2)))


@dataclass(frozen=True)
class FiniteBiquandle:
    """Operation tables: under_table[i][j] = k means x_i under x_j = x_k."""

    under_table: Table
    over_table: Table
    _solvers: tuple = field(init=False, repr=False, compare=False, default=())
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        n = len(self.under_table)
        if n < 1:
            raise ShapeError("element count must be positive, got %d" % n)
        for tbl in (self.under_table, self.over_table):
            if len(tbl) != n or any(len(row) != n for row in tbl):
                raise ShapeError("tables must be square of equal size")
            for row in tbl:
                for e in row:
                    if not 0 <= e < n:
                        raise RangeError("entry %d outside 0..%d" % (e, n - 1))
        object.__setattr__(self, "_solvers", self._solve_tables())
        # the plan cache and the per-biquandle tables of the verifier look a
        # biquandle up by value; hashing both n x n tables once keeps each
        # lookup O(1)
        object.__setattr__(self, "_hash",
                           hash((self.under_table, self.over_table)))

    def __hash__(self) -> int:
        return self._hash

    def _solve_tables(self) -> tuple:
        """The four solvers of the sideways relation S(a, b) = (c, d), i.e.
        c = b over a and d = a under b, in _SOLVES order: n x n tables of
        pairs read off the n^2 quadruples of S.  These fill n^2 cells, so a
        table is a function exactly when no cell stays empty; if one does,
        the table is None."""
        n, under, over = self.n, self.under_table, self.over_table
        quads = [(a, b, over[b][a], under[a][b])
                 for a in range(n) for b in range(n)]
        tables = []
        for (i, j), (k, l) in _SOLVES:
            cells: list[list] = [[None] * n for _ in range(n)]
            for q in quads:
                cells[q[i]][q[j]] = (q[k], q[l])
            tables.append(None if any(None in row for row in cells)
                          else tuple(map(tuple, cells)))
        return tuple(tables)

    @property
    def n(self) -> int:
        return len(self.under_table)

    def under_op(self, x: int, y: int) -> int:
        return self.under_table[x][y]

    def over_op(self, x: int, y: int) -> int:
        return self.over_table[x][y]

    def solvers(self) -> tuple:
        """The four solve tables of the sideways relation (see
        :meth:`_solve_tables`), each indexed [first][second] of its known
        pair; NotABiquandle if one of them is not a function."""
        if None in self._solvers:
            raise NotABiquandle("a column map or the sideways map is not a "
                                "bijection")
        return self._solvers


@lru_cache(maxsize=8)
def parse_operation_matrix(text: str) -> FiniteBiquandle:
    """Parse the n x 2n operation matrix file.

    Line 1 holds n; each of the next n lines holds 2n integers in 1..n,
    the left block for the under operation and the right block for the
    over operation.  Memoized on the text, so a process that reads a table
    again parses it once; the biquandle is immutable, so every caller may
    share it.  The memo holds 8 tables, about 0.4 MB each at n = 37.
    """
    lines = content_lines(text)
    if not lines:
        raise ShapeError("empty operation matrix")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ShapeError("first line must hold the element count") from exc
    if n < 1:
        raise ShapeError("element count must be positive, got %d" % n)
    if len(lines) != n + 1:
        raise ShapeError("expected %d matrix rows" % n)
    under, over = [], []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ShapeError("non-integer matrix entry") from exc
        if len(row) != 2 * n:
            raise ShapeError("row of length %d, expected %d" % (len(row), 2 * n))
        for e in row:
            if not 1 <= e <= n:
                raise RangeError("entry %d outside 1..%d" % (e, n))
        under.append(tuple(v - 1 for v in row[:n]))
        over.append(tuple(v - 1 for v in row[n:]))
    return FiniteBiquandle(tuple(under), tuple(over))


def render_operation_matrix(x: FiniteBiquandle) -> str:
    lines = [str(x.n)]
    for i in range(x.n):
        row = [x.under_table[i][j] + 1 for j in range(x.n)]
        row += [x.over_table[i][j] + 1 for j in range(x.n)]
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def alexander_biquandle(modulus: int, t: int, r: int,
                        shift_under: int = 0,
                        shift_over: int = 0) -> FiniteBiquandle:
    """Affine biquandle on Z_m: x under y = t*x + (r-t)*y + shift_under and
    x over y = r*x + shift_over, with t and r units.

    The optional constant shifts extend the plain affine family; whether a
    shifted variant actually satisfies the axioms is decided by
    :func:`verify_biquandle_axioms`, not assumed here.  Element index i
    stands for the residue i+1, so residue 0 is the last element.
    """
    m = Modulus(modulus).m
    for name, val in (("t", t), ("r", r)):
        if math.gcd(val, m) != 1:
            raise NotAUnit("%s=%d is not a unit mod %d" % (name, val, m))

    def idx(residue: int) -> int:
        return (residue - 1) % m

    def res(i: int) -> int:
        return (i + 1) % m

    under = tuple(tuple(idx((t * res(i) + (r - t) * res(j) + shift_under) % m)
                        for j in range(m)) for i in range(m))
    over = tuple(tuple(idx((r * res(i) + shift_over) % m)
                       for j in range(m)) for i in range(m))
    return FiniteBiquandle(under, over)


def verify_biquandle_axioms(x: FiniteBiquandle) -> AxiomReport:
    """Every violation of :func:`axiom_violations`: up to 3n^3 + 3n + 1, 19
    MB for a random n = 37 table, so unlike :func:`axiom_verdict` it is not
    memoized."""
    return AxiomReport(tuple(axiom_violations(x)))


@lru_cache(maxsize=8)
def axiom_verdict(x: FiniteBiquandle) -> tuple[int, tuple | None]:
    """The number of axiom violations and the first, or (0, None): what the
    command line gate reads.  Counted as they are found, none held, and
    memoized on the biquandle's value, 8 verdicts."""
    violations = axiom_violations(x)
    first = next(violations, None)
    return (first is not None) + sum(1 for _ in violations), first


def axiom_violations(x: FiniteBiquandle) -> Iterator[tuple[str, tuple]]:
    """The violations of the three axioms, one at a time, in report order,
    by an exhaustive O(n^3) check: each an axiom's name and its 1-based
    witness."""
    n = x.n
    under, over = x.under_table, x.over_table

    for a in range(n):
        if under[a][a] != over[a][a]:
            yield "diagonal", (a + 1,)
    # S and the column maps are inverted once, by _solve_tables: a map is a
    # bijection iff its inverse table exists, and the columns are walked only
    # to name those of a missing table; under_cols[y][a] = a under y
    over_ok, under_ok = x._solvers[2] is not None, x._solvers[3] is not None
    if not (over_ok and under_ok):
        under_cols, over_cols = tuple(zip(*under)), tuple(zip(*over))
        elements = list(range(n))
        for y in range(n):
            if not under_ok and sorted(under_cols[y]) != elements:
                yield "under-column", (y + 1,)
            if not over_ok and sorted(over_cols[y]) != elements:
                yield "over-column", (y + 1,)
    if x._solvers[1] is None:
        yield "sideways", ()
    for a, b, c in itertools.product(range(n), repeat=3):
        if under[under[a][b]][under[c][b]] != under[under[a][c]][over[b][c]]:
            yield "exchange-uu", (a + 1, b + 1, c + 1)
        if over[under[a][b]][under[c][b]] != under[over[a][c]][over[b][c]]:
            yield "exchange-uo", (a + 1, b + 1, c + 1)
        if over[over[a][b]][over[c][b]] != over[over[a][c]][under[b][c]]:
            yield "exchange-oo", (a + 1, b + 1, c + 1)


# -- automorphisms -------------------------------------------------------------

@lru_cache(maxsize=8)
def automorphism_orbits(
        x: FiniteBiquandle) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per element i, a pair (r, g): r is the least element of i's orbit
    under Aut(X), the permutations g with g[a under b] = g[a] under g[b] and
    g[a over b] = g[a] over g[b], and g is one automorphism with g[r] == i.

    Elements are taken in ascending order.  One that no orbit found so far
    holds is joined to the first earlier representative of its class (see
    :func:`_element_classes`) that one automorphism maps to it, or else
    becomes a representative itself, and each orbit is the closure of its
    representative under the automorphisms found so far.  Each search
    closes its partial map under both tables, so it branches only where no
    product forces an image, and it stops at the first automorphism: it
    does not walk the n! permutations, and a table whose products force
    nothing (x under y = x over y = x) takes no step back.  A search that
    fails may still backtrack far on a table whose classes do not split and
    whose products force little.  Memoized on the biquandle's value, 8
    entries of n maps each."""
    n = x.n
    classes = _element_classes(x)
    orbits: list = [None] * n
    reps: list[int] = []
    gens: list[tuple[int, ...]] = []
    for i in range(n):
        if orbits[i] is not None:
            continue
        for r in reps:
            g = _automorphism(x, classes, r, i)
            if g:
                gens.append(g)
                break
        else:
            reps.append(i)
        for r in reps:
            orbits[r] = (r, tuple(range(n)))
            reached = [r]
            for e in reached:           # grows while it is walked
                for s in gens:
                    if s[e] not in reached:
                        reached.append(s[e])
                        orbits[s[e]] = (r, tuple(map(s.__getitem__,
                                                     orbits[e][1])))
    return tuple(orbits)


def _element_classes(x: FiniteBiquandle) -> list[int]:
    """A class per element that every automorphism keeps: whether x under x
    and x over x are x, refined by colour refinement (the multiset over y of
    the classes of y and of the four products of x and y) until no class
    splits."""
    under, over = x.under_table, x.over_table
    rn = range(x.n)
    classes = [(under[a][a] == a) + 2 * (over[a][a] == a) for a in rn]
    while True:
        sigs = [(classes[a], tuple(sorted(
            (classes[b], classes[under[a][b]], classes[over[a][b]],
             classes[under[b][a]], classes[over[b][a]]) for b in rn)))
            for a in rn]
        rank = {s: k for k, s in enumerate(sorted(set(sigs)))}
        if len(rank) == len(set(classes)):
            return classes
        classes = [rank[s] for s in sigs]


def _automorphism(x: FiniteBiquandle, classes: list[int], r: int,
                  i: int) -> tuple[int, ...] | None:
    """One automorphism g with g[r] == i, or None.  Depth first: the least
    element without an image is sent to each free element of its class in
    turn, and the map is closed under both tables after each choice."""
    n = x.n
    stack = [([-1] * n, [-1] * n, r, iter((i,)))]
    while stack:
        g, ginv, a, images = stack[-1]
        for b in images:
            h, hinv = g[:], ginv[:]
            if _close(x, classes, h, hinv, a, b):
                if -1 not in h:
                    return tuple(h)
                free = h.index(-1)
                stack.append((h, hinv, free, iter(
                    [c for c in range(n)
                     if hinv[c] < 0 and classes[c] == classes[free]])))
                break
        else:
            stack.pop()
    return None


def _close(x: FiniteBiquandle, classes: list[int], g: list[int],
           ginv: list[int], a: int, b: int) -> bool:
    """Set g[a] = b and close the partial map g (with its inverse ginv) in
    place: while g maps p and q, g[p op q] = g[p] op g[q] for both
    operations.  False if that sends an element to two images, two elements
    to one, or an element out of its class."""
    tables = (x.under_table, x.over_table)
    domain = [e for e in range(x.n) if g[e] >= 0]
    pending = [(a, b)]
    while pending:
        p, gp = pending.pop()
        if g[p] == gp:
            continue
        if g[p] >= 0 or ginv[gp] >= 0 or classes[p] != classes[gp]:
            return False
        g[p], ginv[gp] = gp, p
        domain.append(p)
        for q in domain:
            gq = g[q]
            for t in tables:
                pending.append((t[p][q], t[gp][gq]))
                pending.append((t[q][p], t[gq][gp]))
    return True
