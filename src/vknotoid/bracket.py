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
coefficient is looked up at the crossing's argument pair: (u_in, o_out) at
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
reads, so :func:`verify_bracket_axioms` memoizes the failing family names
on exactly those values in two bounded memos: one per coefficient row, so a
bracket costs n row lookups, and one per triple instance, keyed on six
cells packed by :func:`pack_abv`, which the search reads too
(:func:`triple_verdicts`).  A bracket gets the same report whatever was
checked before it, and an instance, clean or dirty, is evaluated once while
its entry is held.

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
(:func:`enumerate_states`, :func:`fundamental_bracket`,
:func:`evaluate_symbolic`) reads its 3^c terms off the same plan: each path
through the sweep is one state, and its component count is the open piece
plus the loops along the path, so the sweep is the only component counter.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from operator import itemgetter
from typing import NamedTuple

from .biquandle import AxiomReport, FiniteBiquandle
from .coloring import _PLANS, cached_plan, counting_matrix, iter_colorings
from .diagram import (Crossing, KnotoidDiagram, crossing_relations,
                      relation_holds, writhe)
from .ring import BracketPolynomial, Modulus, NotAUnit

Table = tuple[tuple[int, ...], ...]
ABV = tuple[int, int, int]          # the (A, B, V) coefficients at one pair

SMOOTHINGS = ("vertical", "horizontal", "virtual")


class BracketError(Exception):
    pass


class ColoringMismatch(BracketError):
    """The supplied coloring violates a crossing relation."""


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        n = self.biquandle.n
        tables = (self.A, self.B, self.V, self.C, self.D, self.U)
        # one pass over the lengths of the six tables and all their rows; the
        # per-table loop only names the first bad table
        lengths = list(map(len, itertools.chain(tables, *tables)))
        if lengths.count(n) != len(lengths):
            for name, tbl in zip("ABVCDU", tables):
                if len(tbl) != n or any(len(r) != n for r in tbl):
                    raise BracketError("table %s is not %dx%d" % (name, n, n))
        if math.gcd(self.omega, self.modulus.m) != 1:
            raise NotAUnit("omega=%d is not a unit mod %d"
                           % (self.omega, self.modulus.m))
        object.__setattr__(self, "delta", self.delta % self.modulus.m)
        object.__setattr__(self, "omega", self.omega % self.modulus.m)

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
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
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
                                              tuple[tuple[int, ...], ...],
                                              itemgetter]:
    """The slot table of the triple families: per element triple, in
    lexicographic order, its 1-based witness and the six cells i * n + j of
    :func:`triple_slots` in a flat n * n list, and one getter of all those
    cells in turn.  Cached on the biquandle's value: its tables, not only its
    size, decide the cells."""
    n = x.n
    triples = list(itertools.product(range(n), repeat=3))
    cells = tuple([tuple([i * n + j for i, j in triple_slots(x, *t)])
                   for t in triples])
    witnesses = tuple([(a + 1, b + 1, c + 1) for a, b, c in triples])
    return witnesses, cells, itemgetter(*itertools.chain.from_iterable(cells))


# Each memo holds at most _MEMO_SIZE entries, read at call time.  The
# reference search's 19,456 brackets have 1,728 distinct rows (with their m,
# delta and omega); its node checks and brackets read 14,680 distinct triple
# instances, so the triple memo is emptied once during it.
_MEMO_SIZE = 1 << 13


class _Memo:
    """A bounded memo of what ``fill(*params, key)`` returns, split into one
    dict per parameter tuple (m, delta, ...), so that a lookup key holds only
    the instance and ``map`` can look up many keys at once.  When it holds
    _MEMO_SIZE entries in all, it is emptied before the next one is stored."""

    def __init__(self, fill) -> None:
        self.fill = fill
        self.parts: dict[tuple, _MemoPart] = {}
        self.size = 0

    def part(self, *params) -> _MemoPart:
        part = self.parts.get(params)
        if part is None:
            part = self.parts[params] = _MemoPart(self, params)
        return part

    def clear(self) -> None:
        for part in self.parts.values():
            part.clear()
        self.parts.clear()
        self.size = 0


class _MemoPart(dict):
    """The entries of one :class:`_Memo` that share its parameters; a missing
    key is evaluated once and stored.  A part that empties its memo stays in
    it, so a caller may hold the part across the emptying."""

    __slots__ = ("memo", "params")

    def __init__(self, memo: _Memo, params: tuple) -> None:
        super().__init__()
        self.memo, self.params = memo, params

    def __missing__(self, key):
        memo = self.memo
        value = memo.fill(*self.params, key)
        if memo.size >= _MEMO_SIZE:
            memo.clear()
            memo.parts[self.params] = self
        self[key] = value
        memo.size += 1
        return value


def _triple_failures(m: int, delta: int,
                     codes: tuple[int, ...]) -> tuple[str, ...]:
    """The families of (9)-(23) that fail mod m at one element triple, for
    its six (A, B, V) cells each packed by :func:`pack_abv`."""
    vals = triple_residuals(
        delta, *[(c // m // m, c // m % m, c % m) for c in codes])
    return tuple([key for key, val in zip(_TRIPLE_FAMILIES, vals) if val % m])


def _row_failures(m: int, delta: int, omega: int, key: tuple) -> tuple:
    """For ``key`` = (a, the six coefficient rows A[a], ..., U[a]): the
    failures of (1)-(2) at (a, a) and of (3)-(8) at each (a, b), with their
    1-based witnesses, and the row's (A, B, V) cells packed by
    :func:`pack_abv`."""
    a, rows = key
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


_TRIPLE_MEMO = _Memo(_triple_failures)
_ROW_MEMO = _Memo(_row_failures)


def triple_verdicts(m: int, delta: int) -> _MemoPart:
    """The verifier's triple memo for m and delta: indexed by the six cells
    of a triple instance (:func:`triple_cells`) packed by :func:`pack_abv`,
    it gives the families of (9)-(23) that fail there.  It stays valid when
    the memo is emptied."""
    return _TRIPLE_MEMO.part(m, delta)


def verify_bracket_axioms(br: VirtualBracket) -> AxiomReport:
    """Check equation families (1)-(23); failures are reported per family
    with a witness tuple of 1-based element indices, (1)-(2) first, then
    (3)-(8) by pair, then (9)-(23) by triple.

    Two bounded memos hold what the verdicts read: per coefficient row, on
    (m, delta, omega, a, the six rows at a), its failures of (1)-(8) and its
    packed (A, B, V) cells; and per triple, on (m, delta, its six packed
    cells), the failures of (9)-(23) (:func:`triple_verdicts`).  So a row or
    a triple instance is evaluated at most once while its entry is held, and
    the report is the same as without the memos."""
    m, d = br.modulus.m, br.delta
    rows = list(map(_ROW_MEMO.part(m, d, br.omega).__getitem__,
                    enumerate(zip(br.A, br.B, br.V, br.C, br.D, br.U))))
    bad = [v for diagonal, _, _ in rows for v in diagonal]
    bad += [v for _, failed, _ in rows for v in failed]
    witnesses, _, get = triple_cells(br.biquandle)
    flat = get([code for _, _, codes in rows for code in codes])
    # cut into one key of six packed cells per triple
    failed = list(map(triple_verdicts(m, d).__getitem__,
                      zip(*[iter(flat)] * 6)))
    if any(failed):
        bad += [(key, witness) for witness, keys in zip(witnesses, failed)
                for key in keys]
    return AxiomReport(not bad, tuple(bad))


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
# maps None to its state plan and each biquandle to its coloring plan, so
# ``_PLANS.clear()`` forgets both.

# A crossing's four ports as slots 0 u_in, 1 u_out, 2 o_in, 3 o_out, and the
# slot each smoothing joins to each slot, in SMOOTHINGS order.
_JOIN = ((3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2))


@cache
def _smooth(outside: tuple[int, ...]) -> tuple[tuple[int, tuple], ...]:
    """Per smoothing, the closed loops it makes and the pairs of slots whose
    boundary ends it connects.  ``outside[e]`` is the slot that slot e already
    reaches away from the crossing, or -1 when it reaches the boundary."""
    out = []
    for join in _JOIN:
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
        out.append((loops, tuple(pairs)))
    return tuple(out)


def _width_after(cr: Crossing, unswept: list[int], width: int) -> int:
    """Boundary size after sweeping ``cr``: a semi-arc is on the boundary
    while exactly one of its two ends is unswept."""
    ports = (cr.u_in, cr.u_out, cr.o_in, cr.o_out)
    for a in set(ports):
        width += (unswept[a] > ports.count(a)) - (unswept[a] == 1)
    return width


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
    todo = list(diagram.crossings().items())
    unswept = [2] * diagram.semi_arc_count
    boundary: list[int] = []
    states: dict[tuple[int, ...], int] = {(): 0}
    sweep, levels = [], []
    while todo:
        cid, cr = min(todo, key=lambda item: (
            _width_after(item[1], unswept, len(boundary)),
            max(item[1].under_pass, item[1].over_pass)))
        todo.remove((cid, cr))
        ports = (cr.u_in, cr.u_out, cr.o_in, cr.o_out)
        for a in ports:
            unswept[a] -= 1
        # the boundary after the crossing: the kept old semi-arcs in their
        # order, then the crossing's fresh ones that keep an unswept end
        old = {a: i for i, a in enumerate(boundary)}
        kept = [i for i, a in enumerate(boundary) if unswept[a]]
        after = [boundary[i] for i in kept] + [
            a for a in dict.fromkeys(ports) if a not in old and unswept[a]]
        at = {a: k for k, a in enumerate(after)}
        remap = [at.get(a) for a in boundary]
        # what each slot reaches whatever the state: a fresh semi-arc the
        # boundary through itself (its position in ends), a kink the other
        # slot; the slots of old semi-arcs are filled in per state
        fixed = [next((f for f, b in enumerate(ports) if b == a and f != e), -1)
                 for e, a in enumerate(ports)]
        ends = [at.get(a) for a in ports]
        slot = {old[a]: e for e, a in enumerate(ports) if a in old}
        nfresh = len(after) - len(kept)
        successors: dict[tuple[int, ...], int] = {}
        incoming: list[list[tuple[int, int]]] = []
        for state, s in states.items():
            outside, end = fixed[:], ends[:]
            for i, e in slot.items():
                f = slot.get(state[i], -1)
                outside[e] = f
                if f < 0:
                    end[e] = remap[state[i]]
            base = [remap[state[i]] for i in kept] + [0] * nfresh
            for kind, (loops, pairs) in enumerate(_smooth(tuple(outside))):
                mate = base[:]
                for e, f in pairs:
                    mate[end[e]] = end[f]
                    mate[end[f]] = end[e]
                t = successors.setdefault(tuple(mate), len(successors))
                if t == len(incoming):
                    incoming.append([])
                incoming[t].append((s, kind + 3 * loops))
        boundary, states = after, successors
        sweep.append(cid)
        levels.append((cr.sign, cr.pair(), tuple(map(tuple, incoming))))
    assert len(states) == 1
    return _StatePlan(writhe(diagram), tuple(sweep), tuple(levels))


def _evaluator(plan: _StatePlan, br: VirtualBracket):
    """The state sum of one diagram under one bracket, as a function from a
    coloring to its value in range(m).

    Per coloring, each level of the sweep reads the nine weights
    coefficient * delta^loops (:attr:`VirtualBracket._weights`) at its
    crossing's argument pair and carries the sum over partial states into
    every successor state.  The final state is the open component, which
    contributes one more delta.
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
            vals = [sum([vals[s] * w[x] for s, x in edges]) % m
                    for edges in incoming]
        return vals[0] * scale % m

    return value


def _check_coloring(diagram: KnotoidDiagram, coloring: tuple[int, ...],
                    x: FiniteBiquandle) -> tuple[int, ...]:
    """The coloring as ints, if it colors the diagram by ``x``."""
    try:
        coloring = tuple(map(operator.index, coloring))     # 1.0 is no color
    except TypeError:
        raise ColoringMismatch("colors must be integers") from None
    if len(coloring) != diagram.semi_arc_count \
            or not all(c in range(x.n) for c in coloring):
        raise ColoringMismatch("coloring needs %d colors in 0..%d"
                               % (diagram.semi_arc_count, x.n - 1))
    if not all(relation_holds(r, coloring, x)
               for r in crossing_relations(diagram).relations):
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
    """Enumerate the colorings once, evaluating each under ``br`` if given."""
    if br is None:
        return Invariants(counting_matrix(diagram, x))
    value = _evaluator(_plan(diagram), br)
    cells: list[list[dict[int, int]]] = [[{} for _ in range(x.n)]
                                         for _ in range(x.n)]
    for f in iter_colorings(diagram, x):
        v = value(f)
        cell = cells[f[0]][f[-1]]
        cell[v] = cell.get(v, 0) + 1
    # a cell's values are residues with positive counts, so its terms are
    # canonical once sorted
    return Invariants([[sum(c.values()) for c in row] for row in cells],
                      [[BracketPolynomial(br.modulus,
                                          tuple(sorted(c.items(), reverse=True)))
                        for c in row] for row in cells])


def bracket_multiset(diagram: KnotoidDiagram, x: FiniteBiquandle,
                     br: VirtualBracket) -> dict[int, int]:
    """Multiset of values over all colorings, as value -> multiplicity."""
    return bracket_polynomial(diagram, x, br).as_dict()


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
class SymbolicTerm:
    """delta^delta_exp * omega^omega_exp * product of factors, one factor per
    classical crossing: (letter, (a_i, a_j)) with 1-based semi-arc labels."""
    omega_exp: int
    delta_exp: int
    factors: tuple[tuple[str, tuple[int, int]], ...]


@dataclass(frozen=True)
class SymbolicBracket:
    crossing_count: int
    terms: tuple[SymbolicTerm, ...]


@dataclass(frozen=True)
class State:
    """One smoothing choice per classical crossing id, plus the component
    count m of the smoothed curve (closed circles + the open segment)."""
    smoothings: tuple[tuple[int, str], ...]
    components: int


def _state_paths(plan: _StatePlan) -> tuple[list[int], list]:
    """The positions of the plan's levels in ascending crossing id, and its
    3^c paths, one per state, in mixed-radix order over those crossings: per
    crossing its smoothing's index, and the open piece plus the loops the
    path closes."""
    paths = [[((), 1)]]                 # per partial state: (kinds, components)
    for _, _, incoming in plan.levels:
        paths = [[(kinds + (x % 3,), m + x // 3)
                  for s, x in edges for kinds, m in paths[s]]
                 for edges in incoming]
    where = sorted(range(len(plan.sweep)), key=plan.sweep.__getitem__)
    return where, sorted((tuple(kinds[k] for k in where), m)
                         for kinds, m in paths[0])


def enumerate_states(diagram: KnotoidDiagram) -> list[State]:
    """All 3^c states in mixed-radix order over ascending crossing ids."""
    plan = _plan(diagram)
    where, states = _state_paths(plan)
    cids = [plan.sweep[k] for k in where]
    return [State(tuple(zip(cids, (SMOOTHINGS[k] for k in kinds))), m)
            for kinds, m in states]


def fundamental_bracket(diagram: KnotoidDiagram) -> SymbolicBracket:
    """Symbolic state sum over the identity coloring: one term per state,
    exactly 3^c of them, in the order of :func:`enumerate_states`."""
    plan = _plan(diagram)
    where, states = _state_paths(plan)
    # per crossing in ascending id: its letters in SMOOTHINGS order and its
    # argument pair as 1-based semi-arc labels
    crossings = [("ABV" if sign > 0 else "CDU", (i + 1, j + 1))
                 for sign, (i, j), _ in map(plan.levels.__getitem__, where)]
    terms = tuple(
        SymbolicTerm(-plan.writhe, m,
                     tuple([(letters[k], pair)
                            for (letters, pair), k in zip(crossings, kinds)]))
        for kinds, m in states)
    return SymbolicBracket(diagram.classical_count, terms)


def render_symbolic(sym: SymbolicBracket) -> str:
    if not sym.terms:
        return "0"
    parts = []
    for t in sym.terms:
        bits = []
        if t.omega_exp:
            bits.append("w^%d" % t.omega_exp if t.omega_exp != 1 else "w")
        bits.append("d^%d" % t.delta_exp if t.delta_exp != 1 else "d")
        for letter, (i, j) in t.factors:
            bits.append("%s[a%d,a%d]" % (letter, i, j))
        parts.append(" ".join(bits))
    return " + ".join(parts)


def evaluate_symbolic(sym: SymbolicBracket, coloring: tuple[int, ...],
                      br: VirtualBracket) -> int:
    """Substitute a concrete coloring and bracket into the symbolic sum; the
    value is in range(m)."""
    m = br.modulus.m
    total = 0
    for t in sym.terms:
        prod = pow(br.delta, t.delta_exp, m)
        for letter, (i, j) in t.factors:
            prod = prod * br.table(letter)[coloring[i - 1]][coloring[j - 1]] % m
        total = (total + prod) % m
    # all terms share the same omega exponent (-writhe)
    oexp = sym.terms[0].omega_exp if sym.terms else 0
    return total * pow(br.omega, oexp, m) % m
