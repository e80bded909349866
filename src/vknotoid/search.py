"""Search for valid virtual brackets over prime fields.

The pair equations (3)-(8) determine (C, D, U) from (A, B, V) at each pair,
which collapses the search to the A/B/V side.  Per delta, one list holds
every (A, B, V) with its solution (C, D, U) (:func:`pair_solutions`, which
tries O(p^2) triples), and every candidate set is a filter of it: the
diagonal slots take the entries satisfying (1)-(2) for the omega that (1)
gives them, the off-diagonal slots every entry (full ansatz) or those with
A = B = 0 (diagonal ansatz, so C = D = 0 and U = V^{-1} there, the shape of
the known small examples).  A candidate is its index in that list, and the
assignment is one candidate id per slot.  The triple equations (9)-(23) are
checked incrementally as soon as all six pair slots they mention are
assigned.  With delta fixed, a check reads nothing but its six candidates,
so its outcome is memoized per delta on their ids; the memo changes no
node, no bracket and no order of the tree.  omega is fixed by the first
diagonal slot and never searched.  The equations and the slot placement
are the verifier's own (:func:`~vknotoid.bracket.diagonal_residuals`,
:func:`~vknotoid.bracket.pair_residuals`,
:func:`~vknotoid.bracket.triple_slots`,
:func:`~vknotoid.bracket.triple_residuals`), so the search and the final
check cannot disagree on what a bracket is.  Every candidate that completes
is passed to a fresh :func:`~vknotoid.bracket.verify_bracket_axioms` call
before being reported.  That verifier keeps its own memo, of per-instance
verdicts keyed on m, delta and the coefficients each instance reads, so it
shares nothing with the search's id-keyed memo and re-evaluates an instance
only when those values are new: the reference search's 19,456 brackets
read 525,312 triple instances, of which 4,432 are distinct.

Found brackets share their immutable rows and tables.  Per delta, each
distinct coefficient row is built once, keyed on the candidate ids of its
n slots, and every distinct row or table value is one tuple for the whole
call, so a result grows with its distinct values, not with its solutions:
the reference search's 19,456 brackets hold 116,736 tables and 350,208
rows, of which 3,345 and 125 are distinct.

A search makes at most ``budget`` assignments, and reports itself
exhausted only when it needed more.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter

from .biquandle import FiniteBiquandle
from .bracket import (VirtualBracket, diagonal_residuals, pair_residuals,
                      triple_residuals, triple_slots, verify_bracket_axioms)
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
        if p < 2 or any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
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


def search_brackets(x: FiniteBiquandle, cfg: SearchConfig) -> SearchResult:
    """Enumerate brackets over Z_p matching the configured ansatz.

    Deterministic for a fixed (biquandle, config): value orders are drawn
    from random.Random(cfg.seed).
    """
    p = cfg.modulus
    n = x.n
    rng = random.Random(cfg.seed)
    diag_slots = [(i, i) for i in range(n)]
    off_slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(off_slots)
    slot_order = diag_slots + off_slots
    slot_rank = {s: k for k, s in enumerate(slot_order)}
    # a triple's equations become checkable once its highest-ranked slot is
    # assigned; each check reads the candidate ids at its six slot ranks
    checks_at: list[list[itemgetter]] = [[] for _ in slot_order]
    for triple in itertools.product(range(n), repeat=3):
        ranks = [slot_rank[s] for s in triple_slots(x, *triple)]
        checks_at[max(ranks)].append(itemgetter(*ranks))
    grid = [[slot_rank[i, j] for j in range(n)] for i in range(n)]
    modulus = Modulus(p)
    # found brackets share their rows and tables: each distinct row or table
    # value is one tuple, interned here for this call only
    shared: dict[tuple, tuple] = {}

    deltas = list(range(p))
    rng.shuffle(deltas)

    found: list[VirtualBracket] = []
    nodes = 0
    exhausted = False

    for delta in deltas:
        if cfg.require_delta_unit and math.gcd(delta, p) != 1:
            continue
        # candidate id k stands for the pair solution sols[k]; each candidate
        # list below is a filter of range(len(sols)), in its order
        sols = pair_solutions(delta, p)
        off_cands = range(len(sols)) if cfg.ansatz == "full" \
            else [k for k, sol in enumerate(sols) if sol[0] == sol[1] == 0]
        # diagonal candidates carry the omega that (1) gives them; the first
        # diagonal slot takes them all and fixes omega, later ones keep only
        # the candidates with that omega, in the same order
        omegas = [(delta * sol[0] + sol[1] + sol[2]) % p for sol in sols]
        diag_cands: list[int] = []
        by_omega: dict[int, list[int]] = {}
        for k, (sol, w) in enumerate(zip(sols, omegas)):
            if math.gcd(w, p) == 1 and not any(
                    r % p for r in diagonal_residuals(delta, w, *sol)):
                diag_cands.append(k)
                by_omega.setdefault(w, []).append(k)
        # with delta fixed, a triple check reads only the (A, B, V) of its six
        # candidates, so its outcome is memoized on their ids for this delta
        abv = [sol[:3] for sol in sols]
        memo: dict[tuple[int, ...], bool] = {}
        # the six coefficient rows that the candidate ids of a row's n slots
        # give, built once per delta
        rows: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        # the candidate id at each slot rank; entries left by deeper slots
        # are overwritten before any check reads them
        assign = [0] * len(slot_order)

        def place(slot_idx: int, omega: int | None) -> bool:
            """Returns False when the budget ran out."""
            nonlocal nodes, exhausted
            if slot_idx == len(slot_order):
                # six_rows[i] holds row i of each of the six tables in turn
                six_rows = []
                for ranks in grid:
                    ids = tuple([assign[r] for r in ranks])
                    six = rows.get(ids)
                    if six is None:
                        six = rows[ids] = tuple(
                            shared.setdefault(row, row)
                            for row in zip(*[sols[k] for k in ids]))
                    six_rows.append(six)
                br = VirtualBracket(x, modulus,
                                    *[shared.setdefault(t, t)
                                      for t in zip(*six_rows)], delta, omega)
                if verify_bracket_axioms(br).passed:
                    found.append(br)
                return True
            if slot_idx >= n:
                cands = off_cands
            else:
                cands = by_omega[omega] if slot_idx else diag_cands
            checks = checks_at[slot_idx]
            for cand in cands:
                if nodes == cfg.budget:
                    exhausted = True
                    return False
                nodes += 1
                assign[slot_idx] = cand
                for check in checks:
                    key = check(assign)
                    ok = memo.get(key)
                    if ok is None:
                        ok = memo[key] = not any(r % p for r in triple_residuals(
                            delta, *[abv[k] for k in key]))
                    if not ok:
                        break
                else:
                    if not place(slot_idx + 1,
                                 omegas[cand] if slot_idx < n else omega):
                        return False
            return True

        if not place(0, None):
            break
    # place calls itself through its closure, a reference cycle that holds
    # found; breaking it frees the brackets with the result, not only at the
    # next full collection
    del place
    return SearchResult(found, exhausted, nodes)


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
