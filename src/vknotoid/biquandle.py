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
    _beta_inv: Table = field(repr=False, compare=False, default=())
    _alpha_inv: Table = field(repr=False, compare=False, default=())
    _solvers: tuple = field(repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        n = len(self.under_table)
        for tbl in (self.under_table, self.over_table):
            if len(tbl) != n or any(len(row) != n for row in tbl):
                raise ShapeError("tables must be square of equal size")
            for row in tbl:
                for e in row:
                    if not 0 <= e < n:
                        raise RangeError("entry %d outside 0..%d" % (e, n - 1))
        # column inverses; needed to push colors through crossings
        beta = [[-1] * n for _ in range(n)]
        alpha = [[-1] * n for _ in range(n)]
        for y in range(n):
            for x in range(n):
                beta[self.under_table[x][y]][y] = x
                alpha[self.over_table[x][y]][y] = x
        object.__setattr__(self, "_beta_inv", tuple(tuple(r) for r in beta))
        object.__setattr__(self, "_alpha_inv", tuple(tuple(r) for r in alpha))
        object.__setattr__(self, "_solvers", self._solve_tables())

    def _solve_tables(self) -> tuple:
        """The four solvers of the sideways relation S(a, b) = (c, d), i.e.
        c = b over a and d = a under b, as n x n tables of pairs: S from
        (a, b) to (c, d), S^-1 from (c, d) to (a, b), the over-column inverse
        from (a, c) to (b, d) and the under-column inverse from (b, d) to
        (a, c).  A table that is not a function is None."""
        rn = range(self.n)
        under, over = self.under_table, self.over_table
        alpha, beta = self._alpha_inv, self._beta_inv
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

    def under_inv(self, z: int, y: int) -> int:
        """The unique x with x under y == z; NotABiquandle if the column fails."""
        x = self._beta_inv[z][y]
        if x < 0:
            raise NotABiquandle("under-column %d is not a bijection" % y)
        return x

    def over_inv(self, z: int, y: int) -> int:
        x = self._alpha_inv[z][y]
        if x < 0:
            raise NotABiquandle("over-column %d is not a bijection" % y)
        return x

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


def parse_operation_matrix(text: str) -> FiniteBiquandle:
    """Parse the n x 2n operation matrix file.

    Line 1 holds n; each of the next n lines holds 2n integers in 1..n,
    the left block for the under operation and the right block for the
    over operation.
    """
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ShapeError("empty operation matrix")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ShapeError("first line must hold the element count") from exc
    if n < 1 or len(lines) != n + 1:
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


def alexander_biquandle(modulus: Modulus | int, t: int, r: int,
                        shift_under: int = 0,
                        shift_over: int = 0) -> FiniteBiquandle:
    """Affine biquandle on Z_m: x under y = t*x + (r-t)*y + shift_under and
    x over y = r*x + shift_over, with t and r units.

    The optional constant shifts extend the plain affine family; whether a
    shifted variant actually satisfies the axioms is decided by
    :func:`verify_biquandle_axioms`, not assumed here.  Element index i
    stands for the residue i+1, so residue 0 is the last element.
    """
    m = modulus.m if isinstance(modulus, Modulus) else Modulus(modulus).m
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


def verify_biquandle_axioms(x: FiniteBiquandle, first_only: bool = False) -> AxiomReport:
    """Exhaustive check of the three axioms (O(n^3); n is small here)."""
    n = x.n
    bad: list[tuple[str, tuple]] = []

    def record(axiom: str, witness: tuple) -> bool:
        bad.append((axiom, witness))
        return first_only

    for a in range(n):
        if x.under_op(a, a) != x.over_op(a, a):
            if record("diagonal", (a + 1,)):
                return AxiomReport(False, tuple(bad))
    for y in range(n):
        if sorted(x.under_table[a][y] for a in range(n)) != list(range(n)):
            if record("under-column", (y + 1,)):
                return AxiomReport(False, tuple(bad))
        if sorted(x.over_table[a][y] for a in range(n)) != list(range(n)):
            if record("over-column", (y + 1,)):
                return AxiomReport(False, tuple(bad))
    images = {x.sideways(a, b) for a in range(n) for b in range(n)}
    if len(images) != n * n:
        if record("sideways", ()):
            return AxiomReport(False, tuple(bad))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                uu = x.under_op(x.under_op(a, b), x.under_op(c, b)) \
                    == x.under_op(x.under_op(a, c), x.over_op(b, c))
                uo = x.over_op(x.under_op(a, b), x.under_op(c, b)) \
                    == x.under_op(x.over_op(a, c), x.over_op(b, c))
                oo = x.over_op(x.over_op(a, b), x.over_op(c, b)) \
                    == x.over_op(x.over_op(a, c), x.under_op(b, c))
                for ok, tag in ((uu, "exchange-uu"), (uo, "exchange-uo"),
                                (oo, "exchange-oo")):
                    if not ok:
                        if record(tag, (a + 1, b + 1, c + 1)):
                            return AxiomReport(False, tuple(bad))
    return AxiomReport(not bad, tuple(bad))


def sideways_inverse(a: int, b: int, x: FiniteBiquandle) -> tuple[int, int]:
    """The unique (p, q) with S(p, q) = (a, b), i.e. q over p = a and
    p under q = b; NotABiquandle if S is not a bijection."""
    back = x._solvers[1]
    if back is None:
        raise NotABiquandle("the sideways map is not a bijection")
    return back[a][b]
