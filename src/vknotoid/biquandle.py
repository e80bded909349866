"""Finite biquandles given by operation tables.

A biquandle is a set X with two binary operations (written here as
``under_op`` and ``over_op``) such that

1. x under x == x over x for every x,
2. the column maps x -> x over y, x -> x under y and the sideways map
   S(x, y) = (y over x, x under y) are bijections,
3. the three exchange laws hold for all triples.

Elements are indexed 0..n-1 internally.  In files and in printed matrices
they are 1-based, and for the affine constructions over Z_m the element
with index i stands for the residue i+1, so the residue 0 is written m.
Instances are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    passed: bool
    violations: tuple[tuple[str, tuple], ...]

    def __str__(self) -> str:
        if self.passed:
            return "all axioms hold"
        return "; ".join("%s at %s" % (a, (w,) if not isinstance(w, tuple) else w)
                         for a, w in self.violations)


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
        c = b over a and d = a under b, as n x n tables of pairs: S from
        (a, b) to (c, d), S^-1 from (c, d) to (a, b), the over-column inverse
        from (a, c) to (b, d) and the under-column inverse from (b, d) to
        (a, c).  A table that is not a function is None."""
        rn = range(self.n)
        under, over = self.under_table, self.over_table
        # the column inverses: under[beta[d][b]][b] = d, over[alpha[c][a]][a] = c
        beta = [[-1] * self.n for _ in rn]
        alpha = [[-1] * self.n for _ in rn]
        for y in rn:
            for x in rn:
                beta[under[x][y]][y] = x
                alpha[over[x][y]][y] = x
        fwd = tuple(tuple((over[b][a], under[a][b]) for b in rn) for a in rn)
        back: list[list] = [[None] * self.n for _ in rn]
        for a in rn:
            for b in rn:
                c, d = fwd[a][b]
                back[c][d] = (a, b)
        # n^2 pairs onto n^2 cells: S is a bijection iff no cell stays empty,
        # and a column map iff its inverse has no -1
        return (fwd,
                None if any(None in row for row in back)
                else tuple(tuple(row) for row in back),
                None if any(-1 in row for row in alpha)
                else tuple(tuple((alpha[c][a], under[a][alpha[c][a]])
                                 for c in rn) for a in rn),
                None if any(-1 in row for row in beta)
                else tuple(tuple((beta[d][b], over[b][beta[d][b]])
                                 for d in rn) for b in rn))

    @property
    def n(self) -> int:
        return len(self.under_table)

    def under_op(self, x: int, y: int) -> int:
        return self.under_table[x][y]

    def over_op(self, x: int, y: int) -> int:
        return self.over_table[x][y]

    def sideways(self, x: int, y: int) -> tuple[int, int]:
        """S(x, y) = (y over x, x under y)."""
        return (self.over_op(y, x), self.under_op(x, y))

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
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
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


@lru_cache(maxsize=8)
def verify_biquandle_axioms(x: FiniteBiquandle) -> AxiomReport:
    """Exhaustive check of the three axioms (O(n^3); n is small here).

    Memoized on the biquandle's value, 8 reports.  A passing report is
    small; a failing one lists up to 3n^3 + 3n + 1 violations, about 19 MB
    for a random n = 37 table."""
    n = x.n
    under, over = x.under_table, x.over_table
    bad: list[tuple[str, tuple]] = []

    for a in range(n):
        if under[a][a] != over[a][a]:
            bad.append(("diagonal", (a + 1,)))
    # columns: under_cols[y][a] = a under y
    under_cols, over_cols = tuple(zip(*under)), tuple(zip(*over))
    elements = list(range(n))
    for y in range(n):
        if sorted(under_cols[y]) != elements:
            bad.append(("under-column", (y + 1,)))
        if sorted(over_cols[y]) != elements:
            bad.append(("over-column", (y + 1,)))
    images = {(over[b][a], under[a][b]) for a in range(n) for b in range(n)}
    if len(images) != n * n:
        bad.append(("sideways", ()))
    for a in range(n):
        under_a, over_a = under[a], over[a]
        for b in range(n):
            # the table rows that the left-hand sides of the three laws read
            lhs_uu, lhs_uo = under[under_a[b]], over[under_a[b]]
            lhs_oo = over[over_a[b]]
            under_b, over_b = under[b], over[b]
            under_col_b, over_col_b = under_cols[b], over_cols[b]
            for c in range(n):
                c_under_b, b_over_c, a_over_c = under_col_b[c], over_b[c], over_a[c]
                uu = lhs_uu[c_under_b] == under[under_a[c]][b_over_c]
                uo = lhs_uo[c_under_b] == under[a_over_c][b_over_c]
                oo = lhs_oo[over_col_b[c]] == over[a_over_c][under_b[c]]
                if uu and uo and oo:
                    continue
                for ok, tag in ((uu, "exchange-uu"), (uo, "exchange-uo"),
                                (oo, "exchange-oo")):
                    if not ok:
                        bad.append((tag, (a + 1, b + 1, c + 1)))
    return AxiomReport(not bad, tuple(bad))
