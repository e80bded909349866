"""Biquandle virtual brackets and their state-sum invariants.

A bracket over Z_m for a biquandle X consists of six coefficient tables
A, B, V, C, D, U : X x X -> Z_m plus delta and a unit omega.  At a positive
crossing the vertical / horizontal / virtual smoothings carry A / B / V; at
a negative crossing C / D / U.  "Vertical" always means the orientation
coherent reconnection {u_in-o_out, o_in-u_out}, "horizontal" the reversing
one {u_in-o_in, u_out-o_out}, and the virtual smoothing keeps both strands
passing through.  The value of a colored diagram is

    omega^(-writhe) * sum over the 3^c states of delta^m * product of
    coefficients,

where m counts all components of the smoothed curve including the open
tail-to-head piece (so the trivial diagram evaluates to delta), and each
coefficient is looked up at the crossing's argument pair, the first two
semi-arcs of :attr:`~vknotoid.diagram.Crossing.sideways`: (u_in, o_out) at
positive crossings, (u_out, o_in) at negative ones.

Axiom checking covers the 23 equation families a valid bracket must satisfy
for the state sum to be move-invariant.  The triple families (9)-(23) were
derived mechanically from the state sum on three-strand tangles (and the
pair families from the two R2 variants).  Each family is written once:
:func:`diagonal_residuals` holds (1)-(2), :func:`pair_residuals` (3)-(8),
:func:`triple_slots` the index placement of (9)-(23) forced by invariance,
and :func:`triple_residuals` their terms; the verifier and the search both
read these, and :func:`triple_cells` turns the placement into flat cell
indices once per biquandle for both.  Which families fail at one row or
triple instance is a pure function of m, delta and the coefficients it
reads, so the verifier memoizes the failing family names on exactly those
values in two bounded memos of one dict per (m, delta): one per
coefficient row, so a bracket costs n row lookups, and one per triple
instance, keyed on six cells packed by :func:`pack_abv`, which the search
reads too (:func:`triple_verdicts`).  A bracket gets the same report
whatever was checked before it, and an instance, clean or dirty, is
evaluated once while its entry is held.  The verifier is one pass over a
list of brackets that share their biquandle, m and delta
(:func:`verify_brackets`): the search verifies the brackets of each
subtree it walks or replays in one call, and
:func:`verify_bracket_axioms` is the one-bracket case.

Evaluation is compiled once per diagram into a frontier sweep (see
:func:`_plan`): the crossings are swept one at a time, and a state records
only how the boundary semi-arcs, those with one end swept and one not, are
joined in pairs by the smoothings so far.  Each smoothing of the next
crossing maps a state to one successor and closes at most two loops.  Per
coloring, the sum over partial states is carried from level to level with
the weights coefficient * delta^loops, so the cost grows with the number of
states, which is set by the boundary width, not with 3^c; no step divides by
delta.  :func:`invariants` enumerates the colorings once and fills the
counting and bracket matrices together.  The symbolic form
(:func:`enumerate_states`, :func:`fundamental_bracket`) reads its 3^c terms
off the same plan: each path through the sweep is one state, and its
component count is the open piece plus the loops along the path, so the
sweep is the only component counter.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from operator import itemgetter
from typing import Iterator, NamedTuple

from ._reader import content_lines
from .biquandle import AxiomReport, FiniteBiquandle
from .coloring import (_PLANS, _store, cached_plan, counting_matrix,
                       iter_colorings)
from .diagram import KnotoidDiagram, writhe
from .ring import BracketPolynomial, Modulus, NotAUnit

Table = tuple[tuple[int, ...], ...]
ABV = tuple[int, int, int]          # the (A, B, V) coefficients at one pair

SMOOTHINGS = ("vertical", "horizontal", "virtual")


class BracketError(Exception):
    pass


class ColoringMismatch(BracketError):
    """The supplied coloring violates a crossing relation."""


@dataclass(frozen=True, init=False)
class VirtualBracket:
    biquandle: FiniteBiquandle
    modulus: Modulus
    A: Table
    B: Table
    V: Table
    C: Table
    D: Table
    U: Table
    delta: int
    omega: int

    def __init__(self, biquandle: FiniteBiquandle, modulus: Modulus, A: Table,
                 B: Table, V: Table, C: Table, D: Table, U: Table, delta: int,
                 omega: int) -> None:
        n, m = biquandle.n, modulus.m
        tables = (A, B, V, C, D, U)
        # one pass over the lengths of the six tables and all their rows; the
        # per-table loop only names the first bad table
        lengths = list(map(len, itertools.chain(tables, *tables)))
        if lengths.count(n) != len(lengths):
            for name, tbl in zip("ABVCDU", tables):
                if len(tbl) != n or any(len(r) != n for r in tbl):
                    raise BracketError("table %s is not %dx%d" % (name, n, n))
        if math.gcd(omega, m) != 1:
            raise NotAUnit("omega=%d is not a unit mod %d" % (omega, m))
        # the instance is frozen: each field is written once, delta and
        # omega reduced mod m, in field order, which keeps the instances'
        # attributes in one shared-key layout (a dict update would not)
        write = object.__setattr__
        write(self, "biquandle", biquandle)
        write(self, "modulus", modulus)
        write(self, "A", A)
        write(self, "B", B)
        write(self, "V", V)
        write(self, "C", C)
        write(self, "D", D)
        write(self, "U", U)
        write(self, "delta", delta % m)
        write(self, "omega", omega % m)

    def table(self, letter: str) -> Table:
        return getattr(self, letter)

    @cached_property
    def _weights(self) -> dict[int, list]:
        """Per crossing sign, the state sum's weights at each argument pair
        (a, b): [a][b][kind + 3 * loops] = coefficient * delta^loops, with
        the coefficients A, B, V at positive crossings and C, D, U at
        negative ones.  Built on the first evaluation and kept with the
        bracket, so every diagram evaluated under it shares them."""
        m, d1 = self.modulus.m, self.delta
        d2 = d1 * d1 % m

        def weights(t0: Table, t1: Table, t2: Table) -> list:
            return [[(a, b, v, a * d1, b * d1, v * d1, a * d2, b * d2, v * d2)
                     for a, b, v in zip(*rows)] for rows in zip(t0, t1, t2)]

        return {1: weights(self.A, self.B, self.V),
                -1: weights(self.C, self.D, self.U)}


@lru_cache(maxsize=32)
def parse_bracket(text: str, biquandle: FiniteBiquandle) -> VirtualBracket:
    """Bracket file: "n m" header, n rows of 6n integers laid out as the
    block row [A|B|V|C|D|U], then "delta <int> omega <int>".

    Memoized on the text and the biquandle's value, so a process that reads
    a bracket again parses it and builds its weights once; the bracket is
    immutable, so every caller may share it.  The memo holds 32 brackets,
    about 0.5 MB each at n = 37 with their weights."""
    lines = content_lines(text)
    if len(lines) < 2:
        raise BracketError("truncated bracket file")
    head = lines[0].split()
    if len(head) != 2:
        raise BracketError("header must be 'n m'")
    n, m = _ints(head, "header")
    if m < 2:
        raise BracketError("modulus must be >= 2, got %d" % m)
    if n != biquandle.n:
        raise BracketError("bracket size %d does not match biquandle size %d"
                           % (n, biquandle.n))
    if len(lines) != n + 2:
        raise BracketError("expected %d coefficient rows" % n)
    blocks: list[list[list[int]]] = [[] for _ in range(6)]
    for ln in lines[1:n + 1]:
        row = _ints(ln.split(), "coefficient entry")
        if len(row) != 6 * n:
            raise BracketError("row of length %d, expected %d" % (len(row), 6 * n))
        for b in range(6):
            blocks[b].append([v % m for v in row[b * n:(b + 1) * n]])
    tail = lines[n + 1].split()
    if len(tail) != 4 or tail[0] != "delta" or tail[2] != "omega":
        raise BracketError("final line must be 'delta <int> omega <int>'")
    delta, = _ints(tail[1:2], "delta")
    omega, = _ints(tail[3:], "omega")
    tables = tuple(tuple(tuple(r) for r in blk) for blk in blocks)
    return VirtualBracket(biquandle, Modulus(m), *tables,
                          delta=delta, omega=omega)


def _ints(tokens: list[str], what: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise BracketError("non-integer %s" % what) from exc


def render_bracket(br: VirtualBracket) -> str:
    n = br.biquandle.n
    lines = ["%d %d" % (n, br.modulus.m)]
    for i in range(n):
        row: list[int] = []
        for name in "ABVCDU":
            row.extend(br.table(name)[i])
        lines.append(" ".join(str(v) for v in row))
    lines.append("delta %d omega %d" % (br.delta, br.omega))
    return "\n".join(lines) + "\n"


# -- the bracket equations -----------------------------------------------------

def diagonal_residuals(delta: int, omega: int, a: int, b: int, v: int,
                       c: int, d: int, u: int) -> tuple[int, int]:
    """Left minus right of (1), and of (2) times the unit omega, for the
    coefficients (A, B, V, C, D, U) at a diagonal pair (x, x)."""
    return (delta * a + b + v - omega,
            (delta * c + d + u) * omega - 1)


def pair_residuals(delta: int, a: int, b: int, v: int,
                   c: int, d: int, u: int) -> tuple[int, ...]:
    """Left minus right of the pair families (3)-(8), in family order, for
    the coefficients (A, B, V, C, D, U) at one argument pair."""
    return (a * c + v * u - 1,
            b * d + v * u - 1,
            a * u + v * c,
            b * u + v * d,
            delta * b * d + a * d + b * c,
            delta * a * c + a * d + b * c)


def triple_slots(x: FiniteBiquandle, a: int, b: int,
                 c: int) -> tuple[tuple[int, int], ...]:
    """The six argument pairs (ab, bc, ac, p, q, r) that the triple families
    (9)-(23) read at the element triple (a, b, c).

    This placement is the one forced by invariance of the state sum on
    three-strand tangles; known-good data fails under the nearby readings.
    """
    return ((a, b), (b, c), (a, c),
            (x.under_op(a, b), x.over_op(c, b)),
            (x.over_op(b, a), x.over_op(c, a)),
            (x.under_op(a, c), x.under_op(b, c)))


def triple_residuals(delta: int, ab: ABV, bc: ABV, ac: ABV, p: ABV, q: ABV,
                     r: ABV) -> tuple[int, ...]:
    """Left minus right of the triple families (9)-(23), in family order.

    Each argument is the (A, B, V) coefficient triple at the slot of the same
    name in :func:`triple_slots`.
    """
    Aab, Bab, Vab = ab
    Abc, Bbc, Vbc = bc
    Aac, Bac, Vac = ac
    Ap, Bp, Vp = p
    Aq, Bq, Vq = q
    Ar, Br, Vr = r
    return (
        Aab * Ap * Abc + Vab * Ap * Vbc - (Aq * Aac * Ar + Vq * Aac * Vr),
        (Aab * Ap * Bbc + Bab * Ap * Abc + delta * Bab * Ap * Bbc
         + Bab * Ap * Vbc + Bab * Bp * Bbc + Bab * Vp * Bbc
         + Vab * Ap * Bbc) - Aq * Bac * Ar,
        Aab * Bp * Abc - (Aq * Aac * Br + Bq * Aac * Ar + delta * Bq * Aac * Br
                          + Bq * Aac * Vr + Bq * Bac * Br + Bq * Vac * Br
                          + Vq * Aac * Br),
        Aab * Vp * Abc - (Aq * Aac * Vr + Vq * Aac * Ar),
        Aab * Ap * Vbc + Vab * Ap * Abc - Aq * Vac * Ar,
        Bab * Bp * Abc + Bab * Vp * Vbc - (Aq * Bac * Br + Vq * Vac * Br),
        Aab * Bp * Bbc + Vab * Vp * Bbc - (Bq * Bac * Ar + Bq * Vac * Vr),
        Bab * Bp * Vbc + Bab * Vp * Abc - Aq * Bac * Vr,
        Aab * Bp * Vbc - (Bq * Bac * Vr + Bq * Vac * Ar),
        Vab * Bp * Abc - (Aq * Vac * Br + Vq * Bac * Br),
        Aab * Vp * Bbc + Vab * Bp * Bbc - Vq * Bac * Ar,
        Vab * Vp * Abc - Aq * Vac * Vr,
        Aab * Vp * Vbc - Vq * Vac * Ar,
        Vab * Bp * Vbc - Vq * Bac * Vr,
        Vab * Vp * Vbc - Vq * Vac * Vr,
    )


_PAIR_FAMILIES = tuple(str(k) for k in range(3, 9))
_TRIPLE_FAMILIES = tuple(str(k) for k in range(9, 24))


def pack_abv(m: int, a: int, b: int, v: int) -> int:
    """The (A, B, V) at one pair as one int, (A * m + B) * m + V reduced mod
    m: all that the triple families read mod m."""
    return (a % m * m + b % m) * m + v % m


@lru_cache(maxsize=8)
def triple_cells(x: FiniteBiquandle) -> tuple[tuple[tuple[int, ...], ...],
                                              itemgetter]:
    """The slot table of the triple families: per element triple, in
    lexicographic order, the six cells i * n + j of :func:`triple_slots` in
    a flat n * n list, and one getter of all those cells in turn.  Triple t
    in that order is (t // n^2, t // n % n, t % n).  Cached on the
    biquandle's value: its tables, not only its size, decide the cells."""
    n = x.n
    cells = tuple([tuple([i * n + j for i, j in triple_slots(x, *t)])
                   for t in itertools.product(range(n), repeat=3)])
    return cells, itemgetter(*itertools.chain.from_iterable(cells))


# A verifier memo holds at most 8 parts, one per (m, delta), of at most
# _MEMO_SIZE entries each (read at call time): at worst 8 parts * 16,384
# entries per memo.  The reference search's 19,456 brackets have 1,728
# distinct rows (with their m, delta and omega); they and its node checks
# read 9,882 distinct triple instances, at most 2,670 under one delta.  The
# node checks read 105,947 instances: only the subtrees walked, not those
# replayed from a scaled copy (see search).  The p = 7 search with that table
# and seed reads 59,077 distinct instances in 10^6 nodes, at most 15,786
# under one delta, so no part is emptied and each is evaluated once (194,280
# evaluations when a part held 8,192).
_MEMO_SIZE = 1 << 14


class _Verdicts(dict):
    """One part of a verifier memo: ``fill(*params, key)`` per key, evaluated
    on a miss and stored by the plan cache's rule, which empties the part
    once it holds _MEMO_SIZE entries."""

    __slots__ = ("fill", "params")

    def __init__(self, fill, *params) -> None:
        super().__init__()
        self.fill, self.params = fill, params

    def __missing__(self, key):
        return _store(self, key, self.fill(*self.params, key), _MEMO_SIZE)


def _triple_failures(m: int, delta: int,
                     codes: tuple[int, ...]) -> tuple[str, ...]:
    """The families of (9)-(23) that fail mod m at one element triple, for
    its six (A, B, V) cells each packed by :func:`pack_abv`."""
    vals = triple_residuals(
        delta, *[(c // m // m, c // m % m, c % m) for c in codes])
    return tuple([key for key, val in zip(_TRIPLE_FAMILIES, vals) if val % m])


def _row_failures(m: int, delta: int, key: tuple) -> tuple:
    """For ``key`` = (omega, a, the six coefficient rows A[a], ..., U[a]):
    the failures of (1)-(2) at (a, a) and of (3)-(8) at each (a, b), with
    their 1-based witnesses, and the row's (A, B, V) cells packed by
    :func:`pack_abv`."""
    omega, a, rows = key
    cells = list(zip(*rows))                    # (A, B, V, C, D, U) at (a, b)
    vals = diagonal_residuals(delta, omega, *cells[a])
    diagonal = tuple([(k, (a + 1,)) for k, val in zip(("1", "2"), vals)
                      if val % m])
    failed = tuple([(k, (a + 1, b + 1)) for b, cell in enumerate(cells)
                    for k, val in zip(_PAIR_FAMILIES,
                                      pair_residuals(delta, *cell))
                    if val % m])
    codes = tuple([pack_abv(m, *cell[:3]) for cell in cells])
    return diagonal, failed, codes


@lru_cache(maxsize=8)
def triple_verdicts(m: int, delta: int) -> _Verdicts:
    """The verifier's triple memo for m and delta: indexed by the six cells
    of a triple instance (:func:`triple_cells`) packed by :func:`pack_abv`,
    it gives the families of (9)-(23) that fail there."""
    return _Verdicts(_triple_failures, m, delta)


@lru_cache(maxsize=8)
def row_verdicts(m: int, delta: int) -> _Verdicts:
    """The verifier's row memo for m and delta, indexed by (omega, a, the six
    coefficient rows at a): see :func:`_row_failures`."""
    return _Verdicts(_row_failures, m, delta)


_PASSED = AxiomReport(())          # the report of every passing bracket
# a bracket's biquandle, modulus and delta: what a batch shares
_SHARED = operator.attrgetter("biquandle", "modulus.m", "delta")


def verify_brackets(brackets: list[VirtualBracket]) -> list[AxiomReport]:
    """The report of each bracket in ``brackets``, in order, as
    :func:`verify_bracket_axioms` gives it; the brackets must share their
    biquandle, modulus and delta (BracketError otherwise).

    One pass serves the whole list: its coefficient rows go through the row
    memo of (m, delta) in one ``map``, every bracket's triple keys are
    gathered by the getter of :func:`triple_cells` into one chain, and all
    of them go through the triple memo in one ``map``.  A passing bracket
    gets the one shared empty report; lists are built only for a bracket
    that fails."""
    if not brackets:
        return []
    x, m, d = _SHARED(brackets[0])
    if any(map((x, m, d).__ne__, map(_SHARED, brackets))):
        raise BracketError("a batch of brackets must share their biquandle,"
                           " modulus and delta")
    n = x.n
    # each row's key: (omega, a, the six coefficient rows at a)
    keys = itertools.chain.from_iterable(
        zip(itertools.repeat(br.omega), itertools.count(),
            zip(br.A, br.B, br.V, br.C, br.D, br.U)) for br in brackets)
    rows = list(map(row_verdicts(m, d).__getitem__, keys))
    # per bracket, the packed (A, B, V) cells of its n rows in turn, read
    # by the slot table into the six cells of each triple
    _, get = triple_cells(x)
    flat = itertools.chain.from_iterable(map(get, (
        [code for _, _, codes in rows[k:k + n] for code in codes]
        for k in range(0, len(rows), n))))
    # cut into one key of six packed cells per triple
    failed = list(map(triple_verdicts(m, d).__getitem__,
                      zip(*[flat] * 6)))
    if _clean(rows, failed):
        return [_PASSED] * len(brackets)
    n3 = n ** 3
    return [_report(n, rows[k * n:k * n + n], failed[k * n3:k * n3 + n3])
            for k in range(len(brackets))]


def _clean(rows: list[tuple], failed: list[tuple]) -> bool:
    """Whether row verdicts and triple verdicts name no failing family."""
    return not (any(failed) or any(map(itemgetter(0), rows))
                or any(map(itemgetter(1), rows)))


def _report(n: int, rows: list[tuple], failed: list[tuple]) -> AxiomReport:
    """One bracket's report from its n row verdicts and its n^3 triple
    verdicts, in triple order."""
    if _clean(rows, failed):
        return _PASSED
    bad = [v for diagonal, _, _ in rows for v in diagonal]
    bad += [v for _, pairs, _ in rows for v in pairs]
    bad += [(key, (t // n // n + 1, t // n % n + 1, t % n + 1))
            for t, keys in enumerate(failed) for key in keys]
    return AxiomReport(tuple(bad))


def verify_bracket_axioms(br: VirtualBracket) -> AxiomReport:
    """Check equation families (1)-(23); failures are reported per family
    with a witness tuple of 1-based element indices, (1)-(2) first, then
    (3)-(8) by pair, then (9)-(23) by triple.  The one-bracket case of
    :func:`verify_brackets`.

    Two bounded memos, one dict per (m, delta) each, hold what the verdicts
    read: per coefficient row, on (omega, a, the six rows at a), its
    failures of (1)-(8) and its packed (A, B, V) cells
    (:func:`row_verdicts`); and per triple, on its six packed cells, the
    failures of (9)-(23) (:func:`triple_verdicts`).  So a row or a triple
    instance is evaluated at most once while its entry is held, and the
    report is the same as without the memos."""
    return verify_brackets([br])[0]


# -- evaluation ----------------------------------------------------------------

class _StatePlan(NamedTuple):
    """Per-diagram cache: the writhe, the crossing ids in sweep order and one
    level per classical crossing in that order.  A level is the crossing's
    sign, its coefficient argument pair, and for each state after the
    crossing its incoming edges (source state, smoothing + 3 * closed
    loops)."""
    writhe: int
    sweep: tuple[int, ...]
    levels: tuple[tuple[int, tuple[int, int],
                        tuple[tuple[tuple[int, int], ...], ...]], ...]


# The plan cache, ``_PLANS``, is imported from coloring: a diagram's entry
# maps None to its state plan, ``coloring._SKELETON`` to its solve skeleton
# and each biquandle to its coloring plan, so ``_PLANS.clear()`` forgets all
# three.

# A crossing's four ports as slots 0 u_in, 1 u_out, 2 o_in, 3 o_out, and the
# slot each smoothing joins to each slot, in SMOOTHINGS order.
_JOIN = ((3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2))
# At a kink, o_in = u_out (o - u = 1) or o_out = u_in (o - u = -1): the two
# slots of the shared semi-arc reach each other.
_KINK = {1: (-1, 2, 1, -1), -1: (3, -1, -1, 0)}


@cache
def _smooth(outside: tuple[int, ...]) -> tuple[tuple[int, tuple], ...]:
    """Per smoothing, its index + 3 * the closed loops it makes, and the
    pairs of slots whose boundary ends it connects.  ``outside[e]`` is the
    slot that slot e already reaches away from the crossing, or -1 when it
    reaches the boundary."""
    out = []
    for kind, join in enumerate(_JOIN):
        seen: set[int] = set()
        pairs = []
        for e in range(4):
            if outside[e] < 0 and e not in seen:
                f = e
                while True:
                    seen.add(f)
                    f = join[f]
                    seen.add(f)
                    if outside[f] < 0:
                        break
                    f = outside[f]
                pairs.append((e, f))
        loops = 0
        for e in range(4):
            if e not in seen:
                loops += 1
                while e not in seen:
                    seen.add(e)
                    seen.add(join[e])
                    e = outside[join[e]]
        out.append((kind + 3 * loops, tuple(pairs)))
    return tuple(out)


def _plan(diagram: KnotoidDiagram) -> _StatePlan:
    """The diagram's frontier sweep, from the plan cache."""
    return cached_plan(diagram, None, _compile_sweep)


def _compile_sweep(diagram: KnotoidDiagram, _key: None) -> _StatePlan:
    """Compile the frontier sweep of one diagram.

    A semi-arc is on the boundary while one of its two ends is swept and the
    other is not; the tail and head semi-arcs each have a free end that no
    crossing sweeps, so they stay on the boundary once touched.  Every piece
    of curve smoothed so far is a closed loop or a path between two boundary
    semi-arcs, so a state is a perfect matching of the boundary, stored as
    the partner position of each boundary semi-arc.  The next crossing is
    the one leaving the smallest boundary, ties to the earlier second pass.
    Each smoothing joins its four ports in two pairs; a piece that closes up
    is a loop (at most two per crossing).  After the last crossing the only
    state is the open component, the tail matched to the head.
    """
    crossings = diagram.crossings()
    unswept = [2] * diagram.semi_arc_count
    owner = [p.crossing for p in diagram.classical_passes]
    n = len(owner)
    # The next crossing has the least score: n times the boundary's growth
    # if it is swept, plus its second pass (< n).  The growth is 2 per
    # unswept end of its ports less 12 (14 at a kink, whose shared semi-arc
    # never joins the boundary): 4 (2 at a kink) until a neighbour is swept.
    score = {cid: (2 if o - u in _KINK else 4) * n + max(u, o)
             for cid, (_, u, o) in crossings.items()}
    boundary: list[int] = []
    states: list[tuple[int, ...]] = [()]
    sweep, levels = [], []
    while score:
        cid = min(score, key=score.__getitem__)
        del score[cid]
        cr = crossings[cid]
        here = (cr.u_in, cr.u_out, cr.o_in, cr.o_out)
        fix = _KINK.get(here[2] - here[0], (-1, -1, -1, -1))
        for a in here:
            unswept[a] -= 1
        # a port's far end, at the pass before or after, is swept: the growth
        # of that pass's crossing falls by 2
        for k in (here[0] - 1, here[1], here[2] - 1, here[3]):
            if 0 <= k < n and owner[k] in score:
                score[owner[k]] -= 2 * n
        # the boundary after the crossing: the kept old semi-arcs in their
        # order, then the crossing's fresh ones that keep an unswept end
        old = {a: i for i, a in enumerate(boundary)}
        kept = [i for i, a in enumerate(boundary) if unswept[a]]
        after = [boundary[i] for i in kept] + [
            a for a in here if a not in old and unswept[a]]
        at = {a: k for k, a in enumerate(after)}
        remap = [at.get(a) for a in boundary]
        # what each slot reaches whatever the state: a kink slot the other
        # slot (fix), a fresh semi-arc the boundary through itself (its
        # position in ends); the slots of old semi-arcs are filled in per state
        ends = [at.get(a) for a in here]
        slots = [(old[a], e) for e, a in enumerate(here) if a in old]
        slot = dict(slots)
        fresh = [0] * (len(after) - len(kept))
        successors: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for s, state in enumerate(states):
            outside, end = list(fix), ends[:]
            for i, e in slots:
                outside[e] = f = slot.get(state[i], -1)
                if f < 0:
                    end[e] = remap[state[i]]
            base = [remap[state[i]] for i in kept] + fresh
            for edge, pairs in _smooth(tuple(outside)):
                mate = base[:]
                for e, f in pairs:
                    mate[end[e]] = end[f]
                    mate[end[f]] = end[e]
                successors.setdefault(tuple(mate), []).append((s, edge))
        boundary, states = after, list(successors)
        sweep.append(cid)
        levels.append((cr.sign, cr.sideways[:2],
                       tuple(map(tuple, successors.values()))))
    assert len(states) == 1
    return _StatePlan(writhe(diagram), tuple(sweep), tuple(levels))


def _evaluator(plan: _StatePlan, br: VirtualBracket):
    """The state sum of one diagram under one bracket, as a function from a
    coloring to its value in range(m).

    Per coloring, each level of the sweep reads the nine weights
    coefficient * delta^loops (:attr:`VirtualBracket._weights`) at its
    crossing's argument pair and carries the sum over partial states into
    every successor state.  A state with one incoming edge, about half of
    all states, is carried by one multiply instead of a sum over a list.
    The final state is the open component, which contributes one more
    delta.
    """
    m = br.modulus.m
    by_sign = br._weights
    steps = [(by_sign[sign], i, j, incoming)
             for sign, (i, j), incoming in plan.levels]
    scale = br.delta * pow(br.omega, -plan.writhe, m) % m

    def value(coloring: tuple[int, ...]) -> int:
        vals = [1]
        for table, i, j, incoming in steps:
            w = table[coloring[i]][coloring[j]]
            vals = [vals[e[0][0]] * w[e[0][1]] % m if len(e) == 1
                    else sum([vals[s] * w[x] for s, x in e]) % m
                    for e in incoming]
        return vals[0] * scale % m

    return value


def _check_coloring(diagram: KnotoidDiagram, coloring: tuple[int, ...],
                    x: FiniteBiquandle) -> tuple[int, ...]:
    """The coloring as ints, if it colors the diagram's semi-arcs by ``x``:
    S(a, b) = (c, d) at each crossing's sideways (a, b, c, d), read off the
    sideways table of ``x``."""
    try:
        coloring = tuple(map(operator.index, coloring))     # 1.0 is no color
    except TypeError:
        raise ColoringMismatch("colors must be integers") from None
    nseg = diagram.semi_arc_count
    if len(coloring) != nseg or not all(c in range(x.n) for c in coloring):
        raise ColoringMismatch("coloring needs %d colors in 0..%d"
                               % (nseg, x.n - 1))
    sideways = x._solvers[0]        # a function on every table
    for cr in diagram.crossings().values():
        a, b, c, d = (coloring[k] for k in cr.sideways)
        if sideways[a][b] != (c, d):
            raise ColoringMismatch("coloring violates a crossing relation")
    return coloring


def evaluate(diagram: KnotoidDiagram, coloring: tuple[int, ...],
             br: VirtualBracket) -> int:
    """State-sum value of one colored diagram, in range(m)."""
    coloring = _check_coloring(diagram, coloring, br.biquandle)
    return _evaluator(_plan(diagram), br)(coloring)


class Invariants(NamedTuple):
    """What one coloring pass yields: the counting matrix and, when a
    bracket was given, the bracket matrix.  Entry (i, j) of both covers the
    colorings with tail x_{i+1} and head x_{j+1}."""
    counting_matrix: list[list[int]]
    bracket_matrix: list[list[BracketPolynomial]] | None = None

    @property
    def counting_invariant(self) -> int:
        return sum(map(sum, self.counting_matrix))

    @property
    def bracket_polynomial(self) -> BracketPolynomial | None:
        """The sum of the bracket matrix's entries, in one pass over their
        terms."""
        if self.bracket_matrix is None:
            return None
        total: dict[int, int] = {}
        for row in self.bracket_matrix:
            for p in row:
                for e, mult in p.terms:
                    total[e] = total.get(e, 0) + mult
        return BracketPolynomial(self.bracket_matrix[0][0].modulus,
                                 tuple(sorted(total.items(), reverse=True)))


def invariants(diagram: KnotoidDiagram, x: FiniteBiquandle,
               br: VirtualBracket | None = None) -> Invariants:
    """Enumerate the colorings once, evaluating each under ``br`` if given;
    BracketError if ``br`` is over another biquandle than ``x``.

    Only the (tail, head) cells that some coloring reaches are tallied and
    get a polynomial of their own; every other cell of the bracket matrix
    is one empty polynomial, shared within the call, so a call builds
    O(colorings) polynomials, not n^2."""
    if br is None:
        return Invariants(counting_matrix(diagram, x))
    if br.biquandle is not x and br.biquandle != x:
        raise BracketError("the bracket is over another biquandle")
    value = _evaluator(_plan(diagram), br)
    cells: dict[tuple[int, int], dict[int, int]] = {}
    for f in iter_colorings(diagram, x):
        cell = cells.setdefault((f[0], f[-1]), {})
        v = value(f)
        cell[v] = cell.get(v, 0) + 1
    n, modulus = x.n, br.modulus
    counts = [[0] * n for _ in range(n)]
    empty = BracketPolynomial(modulus)
    matrix = [[empty] * n for _ in range(n)]
    # a cell's values are residues with positive counts, so its terms are
    # canonical once sorted
    for (i, j), cell in cells.items():
        counts[i][j] = sum(cell.values())
        matrix[i][j] = BracketPolynomial(
            modulus, tuple(sorted(cell.items(), reverse=True)))
    return Invariants(counts, matrix)


def bracket_polynomial(diagram: KnotoidDiagram, x: FiniteBiquandle,
                       br: VirtualBracket) -> BracketPolynomial:
    """The multiset encoded as a formal u-exponent polynomial."""
    return invariants(diagram, x, br).bracket_polynomial


def bracket_matrix(diagram: KnotoidDiagram, x: FiniteBiquandle,
                   br: VirtualBracket) -> list[list[BracketPolynomial]]:
    """Entry (i, j): polynomial over colorings with tail x_{i+1}, head x_{j+1}."""
    return invariants(diagram, x, br).bracket_matrix


# -- symbolic state sum ----------------------------------------------------------

@dataclass(frozen=True)
class SymbolicBracket:
    """omega^omega_exp times the state sum; every state shares the
    exponent, -writhe.  ``crossings`` holds each classical crossing once, in
    ascending id: its letters in SMOOTHINGS order ("ABV" or "CDU") and its
    argument pair as 1-based semi-arc labels.  A state is its number, whose
    base-3 digits are the smoothing indices of those crossings, the first
    crossing most significant: the order ``itertools.product(range(3),
    repeat=c)`` yields.  ``components[k]`` is delta's exponent, the
    component count, of state k."""
    omega_exp: int
    crossings: tuple[tuple[str, tuple[int, int]], ...]
    components: bytes


@dataclass(frozen=True)
class State:
    """One smoothing choice per classical crossing id, plus the component
    count m of the smoothed curve (closed circles + the open segment)."""
    smoothings: tuple[tuple[int, str], ...]
    components: int


def enumerate_states(diagram: KnotoidDiagram) -> list[State]:
    """All 3^c states in mixed-radix order over ascending crossing ids, read
    off the component counts of :func:`fundamental_bracket`."""
    choices = [[(cid, kind) for kind in SMOOTHINGS]
               for cid in sorted(_plan(diagram).sweep)]
    return list(map(State, itertools.product(*choices),
                    fundamental_bracket(diagram).components))


def fundamental_bracket(diagram: KnotoidDiagram) -> SymbolicBracket:
    """Symbolic state sum over the identity coloring: exactly 3^c states, in
    mixed-radix order over ascending crossing ids.

    Each of the sweep plan's 3^c paths is one state.  A path carries, as
    the one int number + 3^c * count, its state's number (each crossing it
    has passed adds its smoothing index times 3^(c-1-rank), rank in
    ascending id) and its component count (the open piece plus the loops
    it closes).  At the end each count is written at its number."""
    plan = _plan(diagram)
    cids = sorted(plan.sweep)
    size = 3 ** len(cids)
    level = dict(zip(plan.sweep, plan.levels))
    crossings = tuple(("ABV" if sign > 0 else "CDU", (i + 1, j + 1))
                      for sign, (i, j), _ in map(level.__getitem__, cids))
    paths = [[size]]                    # number 0, the open piece
    for cid, (_, _, incoming) in zip(plan.sweep, plan.levels):
        place = 3 ** (len(cids) - 1 - cids.index(cid))
        steps = [[(s, x % 3 * place + x // 3 * size) for s, x in edges]
                 for edges in incoming]
        paths = [[p + step for s, step in edges for p in paths[s]]
                 for edges in steps]
    components = bytearray(size)
    for p in paths.pop():
        components[p % size] = p // size
    return SymbolicBracket(-plan.writhe, crossings, bytes(components))


def symbolic_terms(sym: SymbolicBracket) -> Iterator[str]:
    """The terms of the sum state by state, each with the shared omega
    power, rendered one at a time; a diagram has 3^c >= 1 states."""
    e = sym.omega_exp
    omega = "" if e == 0 else "w " if e == 1 else "w^%d " % e
    factors = [["%s[a%d,a%d]" % (letter, i, j) for letter in letters]
               for letters, (i, j) in sym.crossings]
    for kinds, m in zip(itertools.product(range(3), repeat=len(factors)),
                        sym.components):
        yield omega + " ".join(["d^%d" % m if m != 1 else "d"]
                               + [f[k] for f, k in zip(factors, kinds)])
