"""Search for valid virtual brackets over prime fields.

The pair equations (3)-(8) determine (C, D, U) from (A, B, V) at each pair,
which collapses the search to the A/B/V side.  Per delta, one dict holds
every (A, B, V) with its solution (C, D, U) (:func:`pair_solutions`, which
tries O(p^2) triples), and every candidate set is a filter of it: the
diagonal cells take the entries satisfying (1)-(2) for the omega that (1)
gives them, the off-diagonal cells every entry (full ansatz) or those with
A = B = 0 (diagonal ansatz, so C = D = 0 and U = V^{-1} there, the shape of
the known small examples).  A candidate is its key there, the (A, B, V)
packed into one int by :func:`~vknotoid.bracket.pack_abv`.

The assignment holds one candidate per cell i * n + j.  Per delta, an
outer loop takes cell 0's candidates in turn, and omega is read off each
and never searched.  Under each, one loop assigns the other diagonal
cells, then the off-diagonal ones in a seeded order, keeping per depth an
iterator over the candidates left on an explicit stack, so no recursion
limit bounds n.  A triple's equations (9)-(23) are checked once its six
cells are assigned.  Those cells come from the verifier's table
(:func:`~vknotoid.bracket.triple_cells`), and their six candidates are the
verifier's key of that triple instance, so a check is a lookup in the
verifier's triple memo of (p, delta)
(:func:`~vknotoid.bracket.triple_verdicts`): a non-empty verdict fails.
Every candidate that completes is verified before being reported, and
finds its triple verdicts held: the brackets of each walked cell-0
subtree and of each replay (below) go to
:func:`~vknotoid.bracket.verify_brackets` in one call, which reports them
in order.  So the search and the final check share one definition and one
cache of what a bracket is: the reference search (``z3_involution``,
p = 5, diagonal ansatz, seed 1) evaluates each of its 9,882 distinct
triple instances once, 2,670, 1,504, 2,102, 2,102 and 1,504 for
delta = 0..4.  The verifier also memoizes whole coefficient rows, and
the found brackets share their rows (below), so it looks up n rows per
bracket, not n^2 pairs.

Equations (1)-(23) are homogeneous, so unit scaling, lam * (A, B, V) with
lam^-1 * (C, D, U) and lam * omega for lam in Z_p^*, maps the candidate
lists onto themselves and keeps every triple verdict.  So cell 0's
candidates fall into orbits of p - 1, and the subtree rooted at lam * k
is the lam-image of the one rooted at k, node for node.  Every
candidate list is a filter of the pair solutions, whose keys ascend with
(A, B, V) in lexicographic order, so an orbit's first member is its least
key.  The outer loop walks the subtree of each first member and keeps its
node count and completed assignments; at a later member it counts those
nodes and replays the lam-images of those assignments instead of walking.
The walk would meet the images in the order of their candidates taken
depth by depth, and they are sorted so.  Replayed assignments go through
the same leaf as walked ones: their rows and tables, the
``VirtualBracket`` and one :func:`~vknotoid.bracket.verify_brackets`
call, made from their own tables.
The reference search walks 30,929 of its 123,716 nodes and replays
92,787, and its node checks read 105,947 triple instances (423,788 when
it walked every subtree).

Found brackets share their immutable rows and tables.  Per delta, each
distinct coefficient row is built once, keyed on the candidates of its
n cells (:class:`_Rows`), and every distinct row or table value is one
tuple for the whole call, so a result grows with its distinct values, not
with its solutions:
the reference search's 19,456 brackets hold 116,736 tables and 350,208
rows, of which 3,345 and 125 are distinct.

A search makes at most ``budget`` assignments, and reports itself
exhausted only when it needed more; the assignments completed in the
subtree it stops in are verified and reported first.  The budget counts
the assignments of the full enumeration, walked or replayed, and a replay
that would pass it is walked instead, so the nodes, the brackets and their
order are those of a walk of every subtree at every budget.  It counts
assignments only: the O(p^2) pair solutions of each delta are computed
before its first node, so no budget bounds that work.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter

from .biquandle import FiniteBiquandle
from .bracket import (VirtualBracket, diagonal_residuals, pack_abv,
                      pair_residuals, triple_cells, triple_verdicts,
                      verify_bracket_axioms, verify_brackets)
from .ring import Modulus


@dataclass(frozen=True)
class SearchConfig:
    modulus: int
    ansatz: str = "diagonal"          # "diagonal" | "full"
    budget: int = 1_000_000           # max assignments examined
    seed: int = 0
    require_delta_unit: bool = False

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.ansatz not in ("diagonal", "full"):
            raise ValueError("ansatz must be 'diagonal' or 'full'")
        p = self.modulus
        if p < 2 or any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
            raise ValueError("modulus must be prime, got %d" % p)


@dataclass
class SearchResult:
    brackets: list[VirtualBracket]
    exhausted: bool
    nodes: int


def solve_pair(a: int, b: int, v: int, delta: int,
               p: int) -> tuple[int, int, int] | None:
    """Solve equations (3)-(8) at one pair for (c, d, u) over Z_p.

    {a*c + v*u = 1, a*u + v*c = 0} and {b*d + v*u = 1, b*u + v*d = 0} are
    linear in (c, u) and (d, u); the two u values must agree, and (7)-(8)
    are checked directly.  Returns None when no solution exists.
    """
    a, b, v, delta = a % p, b % p, v % p, delta % p

    def solve2(m00: int, m01: int) -> tuple[int, int] | None:
        # [[m00, m01], [m01, m00]] (X, Y)^T = (1, 0)^T
        det = (m00 * m00 - m01 * m01) % p
        if det == 0:
            return None
        dinv = pow(det, -1, p)
        return (m00 * dinv % p, (-m01) * dinv % p)

    cu = solve2(a, v)
    du = solve2(b, v)
    if cu is None or du is None:
        return None
    c, u1 = cu
    d, u2 = du
    if u1 != u2:
        return None
    if any(r % p for r in pair_residuals(delta, a, b, v, c, d, u1)[4:]):
        return None
    return (c, d, u1)


def pair_solutions(delta: int, p: int) -> list[tuple[int, ...]]:
    """Every (a, b, v, c, d, u) over Z_p solving the pair equations (3)-(8),
    in lexicographic (a, b, v) order.

    :func:`solve_pair` needs the u of {a*c + v*u = 1, a*u + v*c = 0}, which
    is -v / (a^2 - v^2), to equal the u of the (b, d) system.  For v = 0
    both are 0; for v != 0 they agree only when a^2 = b^2, that is b = +-a
    over a field.  So at most 3 p^2 triples are tried, not all p^3, and
    they are walked in order, with no list of them kept.
    """
    return [(a, b, v) + cdu
            for a in range(p) for b in range(p)
            for v in (range(p) if b in (a, -a % p) else (0,))
            if (cdu := solve_pair(a, b, v, delta, p)) is not None]


class _Rows(dict):
    """Per delta: the candidates of a row's n cells -> the row of each of the
    six tables that they give, built once, each row interned in
    ``shared``."""

    def __init__(self, sols: dict[int, tuple[int, ...]], shared: dict) -> None:
        super().__init__()
        self.sols, self.shared = sols, shared

    def __missing__(self, codes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        six = self[codes] = tuple([self.shared.setdefault(row, row) for row in
                                   zip(*map(self.sols.__getitem__, codes))])
        return six


def search_brackets(x: FiniteBiquandle, cfg: SearchConfig) -> SearchResult:
    """Enumerate brackets over Z_p matching the configured ansatz.

    Deterministic for a fixed (biquandle, config): value orders are drawn
    from random.Random(cfg.seed).
    """
    p, n = cfg.modulus, x.n
    rng = random.Random(cfg.seed)
    # cell i * n + j holds the pair (i, j); the diagonal cells are assigned
    # first, then the off-diagonal ones in a seeded order
    off_cells = [i * n + j for i in range(n) for j in range(n) if i != j]
    rng.shuffle(off_cells)
    order = [i * n + i for i in range(n)] + off_cells
    depth_of = {cell: depth for depth, cell in enumerate(order)}
    by_depth = itemgetter(*order)
    # a triple's equations become checkable once its deepest cell is
    # assigned; each check reads the candidates at its six cells
    checks_at: list[list[itemgetter]] = [[] for _ in order]
    for cells in triple_cells(x)[0]:
        checks_at[max(map(depth_of.__getitem__, cells))].append(
            itemgetter(*cells))
    last = len(order)
    modulus = Modulus(p)
    # found brackets share their rows and tables: each distinct row or table
    # value is one tuple, interned here for this call only
    shared: dict[tuple, tuple] = {}
    intern = shared.setdefault

    deltas = list(range(p))
    rng.shuffle(deltas)

    found: list[VirtualBracket] = []
    nodes = 0
    # the candidate at each cell; no check reads one deeper than the depth
    assign = [0] * last

    for delta in deltas:
        if cfg.require_delta_unit and math.gcd(delta, p) != 1:
            continue
        # candidate k is the packed (A, B, V) of the pair solution sols[k];
        # each candidate list below is a filter of sols, in its order
        sols = {pack_abv(p, *sol[:3]): sol for sol in pair_solutions(delta, p)}
        off_cands = list(sols) if cfg.ansatz == "full" \
            else [k for k, sol in sols.items() if sol[0] == sol[1] == 0]
        # diagonal candidates carry the omega that (1) gives them; cell 0
        # takes them all and fixes omega, the later diagonal cells keep only
        # the candidates with that omega, in the same order
        diag_cands: list[tuple[int, int]] = []      # (candidate, its omega)
        by_omega: dict[int, list[int]] = {}
        for k, sol in sols.items():
            w = (delta * sol[0] + sol[1] + sol[2]) % p
            if math.gcd(w, p) == 1 and not any(
                    r % p for r in diagonal_residuals(delta, w, *sol)):
                diag_cands.append((k, w))
                by_omega.setdefault(w, []).append(k)
        verdicts = triple_verdicts(p, delta)
        rows = _Rows(sols, shared)

        def emit(done: list[tuple[int, ...]], omega: int) -> None:
            # each row's n candidates give its six coefficient rows, and
            # each assignment's n rows its six tables; the brackets are
            # verified in one call
            six_rows = map(rows.__getitem__,
                           zip(*[itertools.chain.from_iterable(done)] * n))
            tables = map(tuple, itertools.starmap(zip, zip(*[six_rows] * n)))
            brackets = [VirtualBracket(x, modulus, *map(intern, t, t),
                                       delta, omega) for t in tables]
            found.extend([br for br, report in
                          zip(brackets, verify_brackets(brackets))
                          if report.passed])

        # a walked cell-0 candidate -> (its nodes, its completed assignments)
        walked: dict[int, tuple[int, list[tuple[int, ...]]]] = {}
        for cand, omega in diag_cands:
            a, b, v = sols[cand][:3]
            # cell 0's candidates ascend with their keys, so the first member
            # of cand's unit-scaling orbit is its least key; cand = lam * first
            first, lam = min((pack_abv(p, mu * a, mu * b, mu * v),
                              pow(mu, -1, p)) for mu in range(1, p))
            if first != cand and nodes + walked[first][0] <= cfg.budget:
                # replay: this subtree is the lam-image of first's, node for
                # node, met in the order of its candidates depth by depth
                size, done = walked[first]
                nodes += size
                scale = {k: pack_abv(p, *[lam * e for e in sol[:3]])
                         for k, sol in sols.items()}
                emit(sorted([tuple(map(scale.__getitem__, d))
                             for d in done], key=by_depth), omega)
                continue
            # walk: cands[depth] is the candidate list at order[depth], and
            # stack[depth] iterates what is left of it
            cands = [(cand,)] + [by_omega[omega]] * (n - 1) \
                + [off_cands] * (last - n)
            start, done = nodes, []
            stack = [iter(cands[0])]
            while stack:
                depth = len(stack) - 1
                cell = order[depth]
                checks = checks_at[depth]
                for k in stack[-1]:
                    if nodes == cfg.budget:
                        emit(done, omega)
                        return SearchResult(found, True, nodes)
                    nodes += 1
                    assign[cell] = k
                    for check in checks:
                        if verdicts[check(assign)]:     # a family fails
                            break
                    else:
                        if depth + 1 < last:
                            stack.append(iter(cands[depth + 1]))
                            break               # go on at the next cell
                        done.append(tuple(assign))
                else:
                    stack.pop()                 # back to the previous cell
            emit(done, omega)
            walked[cand] = (nodes - start, done)
    return SearchResult(found, False, nodes)


def brute_force_singleton(p: int) -> list[VirtualBracket]:
    """Oracle for n = 1: enumerate all (delta, a, b, v) with derived
    (c, d, u) and omega, keeping those passing the full axiom check."""
    x = FiniteBiquandle(((0,),), ((0,),))
    out = []
    for delta, a, b, v in itertools.product(range(p), repeat=4):
        w = (delta * a + b + v) % p
        if math.gcd(w, p) != 1:
            continue
        cdu = solve_pair(a, b, v, delta, p)
        if cdu is None:
            continue
        br = VirtualBracket(x, Modulus(p), ((a,),), ((b,),), ((v,),),
                            ((cdu[0],),), ((cdu[1],),), ((cdu[2],),), delta, w)
        if verify_bracket_axioms(br).passed:
            out.append(br)
    return out
