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
pair families from the two R2 variants), so the exact index placement in
(9), (10) and (11) below is the one forced by invariance; known-good data
fails under the nearby variant readings.

Evaluation is compiled once per diagram into a state plan: the writhe, each
crossing's sign and argument pair, and a byte table of the component counts
of all 3^c states (see :func:`state_components`).  Per coloring, the state
sum then reads three coefficients per crossing and expands the products of
all states level by level, about 1.5 * 3^c multiplications.
:func:`invariants` enumerates the colorings once and fills the counting and
bracket matrices together.  The per-state path (:func:`enumerate_states`,
:func:`fundamental_bracket`, :func:`evaluate_symbolic`) remains as the
symbolic form and as the reference the tests compare against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import NamedTuple

from .biquandle import AxiomReport, FiniteBiquandle
from .coloring import counting_matrix, iter_colorings
from .diagram import KnotoidDiagram, writhe
from .ring import (BracketPolynomial, Modulus, RingElement, inverse_mod,
                   extended_gcd, NotAUnit, poly_add)

Table = tuple[tuple[int, ...], ...]

SMOOTHINGS = ("vertical", "horizontal", "virtual")
LETTER = {
    (1, "vertical"): "A", (1, "horizontal"): "B", (1, "virtual"): "V",
    (-1, "vertical"): "C", (-1, "horizontal"): "D", (-1, "virtual"): "U",
}


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
        for name in "ABVCDU":
            tbl = getattr(self, name)
            if len(tbl) != n or any(len(r) != n for r in tbl):
                raise BracketError("table %s is not %dx%d" % (name, n, n))
        g, _, _ = extended_gcd(self.omega % self.modulus.m, self.modulus.m)
        if g != 1:
            raise NotAUnit("omega=%d is not a unit mod %d"
                           % (self.omega, self.modulus.m))
        object.__setattr__(self, "delta", self.delta % self.modulus.m)
        object.__setattr__(self, "omega", self.omega % self.modulus.m)

    def table(self, letter: str) -> Table:
        return getattr(self, letter)


def parse_bracket(text: str, biquandle: FiniteBiquandle) -> VirtualBracket:
    """Bracket file: "n m" header, n rows of 6n integers laid out as the
    block row [A|B|V|C|D|U], then "delta <int> omega <int>"."""
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise BracketError("truncated bracket file")
    head = lines[0].split()
    if len(head) != 2:
        raise BracketError("header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if m < 2:
        raise BracketError("modulus must be >= 2, got %d" % m)
    if n != biquandle.n:
        raise BracketError("bracket size %d does not match biquandle size %d"
                           % (n, biquandle.n))
    if len(lines) != n + 2:
        raise BracketError("expected %d coefficient rows" % n)
    blocks: list[list[list[int]]] = [[] for _ in range(6)]
    for ln in lines[1:n + 1]:
        row = [int(tok) for tok in ln.split()]
        if len(row) != 6 * n:
            raise BracketError("row of length %d, expected %d" % (len(row), 6 * n))
        for b in range(6):
            blocks[b].append([v % m for v in row[b * n:(b + 1) * n]])
    tail = lines[n + 1].split()
    if len(tail) != 4 or tail[0] != "delta" or tail[2] != "omega":
        raise BracketError("final line must be 'delta <int> omega <int>'")
    tables = tuple(tuple(tuple(r) for r in blk) for blk in blocks)
    return VirtualBracket(biquandle, Modulus(m), *tables,
                          delta=int(tail[1]), omega=int(tail[3]))


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


# -- axiom verification --------------------------------------------------------

def verify_bracket_axioms(br: VirtualBracket) -> AxiomReport:
    """Check equation families (1)-(23); failures are reported per family
    with a witness tuple of 1-based element indices."""
    x = br.biquandle
    n, m, d = x.n, br.modulus.m, br.delta
    A, B, V, C, D, U = br.A, br.B, br.V, br.C, br.D, br.U
    w = br.omega
    winv = inverse_mod(w, m)
    bad: list[tuple[str, tuple]] = []

    for a in range(n):
        if (d * A[a][a] + B[a][a] + V[a][a] - w) % m:
            bad.append(("1", (a + 1,)))
        if (d * C[a][a] + D[a][a] + U[a][a] - winv) % m:
            bad.append(("2", (a + 1,)))
    for a in range(n):
        for b in range(n):
            av, bv, vv = A[a][b], B[a][b], V[a][b]
            cv, dv, uv = C[a][b], D[a][b], U[a][b]
            pair_eqs = {
                "3": av * cv + vv * uv - 1,
                "4": bv * dv + vv * uv - 1,
                "5": av * uv + vv * cv,
                "6": bv * uv + vv * dv,
                "7": d * bv * dv + av * dv + bv * cv,
                "8": d * av * cv + av * dv + bv * cv,
            }
            for key, val in pair_eqs.items():
                if val % m:
                    bad.append((key, (a + 1, b + 1)))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                p = (x.under_op(a, b), x.over_op(c, b))
                q = (x.over_op(b, a), x.over_op(c, a))
                r = (x.under_op(a, c), x.under_op(b, c))
                Aab, Bab, Vab = A[a][b], B[a][b], V[a][b]
                Abc, Bbc, Vbc = A[b][c], B[b][c], V[b][c]
                Aac, Bac, Vac = A[a][c], B[a][c], V[a][c]
                Ap, Bp, Vp = A[p[0]][p[1]], B[p[0]][p[1]], V[p[0]][p[1]]
                Aq, Bq, Vq = A[q[0]][q[1]], B[q[0]][q[1]], V[q[0]][q[1]]
                Ar, Br, Vr = A[r[0]][r[1]], B[r[0]][r[1]], V[r[0]][r[1]]
                triple_eqs = {
                    "9": Aab * Ap * Abc + Vab * Ap * Vbc
                         - (Aq * Aac * Ar + Vq * Aac * Vr),
                    "10": (Aab * Ap * Bbc + Bab * Ap * Abc + d * Bab * Ap * Bbc
                           + Bab * Ap * Vbc + Bab * Bp * Bbc + Bab * Vp * Bbc
                           + Vab * Ap * Bbc) - Aq * Bac * Ar,
                    "11": Aab * Bp * Abc
                          - (Aq * Aac * Br + Bq * Aac * Ar + d * Bq * Aac * Br
                             + Bq * Aac * Vr + Bq * Bac * Br + Bq * Vac * Br
                             + Vq * Aac * Br),
                    "12": Aab * Vp * Abc - (Aq * Aac * Vr + Vq * Aac * Ar),
                    "13": Aab * Ap * Vbc + Vab * Ap * Abc - Aq * Vac * Ar,
                    "14": Bab * Bp * Abc + Bab * Vp * Vbc
                          - (Aq * Bac * Br + Vq * Vac * Br),
                    "15": Aab * Bp * Bbc + Vab * Vp * Bbc
                          - (Bq * Bac * Ar + Bq * Vac * Vr),
                    "16": Bab * Bp * Vbc + Bab * Vp * Abc - Aq * Bac * Vr,
                    "17": Aab * Bp * Vbc - (Bq * Bac * Vr + Bq * Vac * Ar),
                    "18": Vab * Bp * Abc - (Aq * Vac * Br + Vq * Bac * Br),
                    "19": Aab * Vp * Bbc + Vab * Bp * Bbc - Vq * Bac * Ar,
                    "20": Vab * Vp * Abc - Aq * Vac * Vr,
                    "21": Aab * Vp * Vbc - Vq * Vac * Ar,
                    "22": Vab * Bp * Vbc - Vq * Bac * Vr,
                    "23": Vab * Vp * Vbc - Vq * Vac * Vr,
                }
                for key, val in triple_eqs.items():
                    if val % m:
                        bad.append((key, (a + 1, b + 1, c + 1)))
    return AxiomReport(not bad, tuple(bad))


# -- state enumeration ---------------------------------------------------------

@dataclass(frozen=True)
class State:
    """One smoothing choice per classical crossing id, plus the component
    count m of the smoothed curve (closed circles + the open segment)."""
    smoothings: tuple[tuple[int, str], ...]
    components: int


def smooth_components(diagram: KnotoidDiagram,
                      smoothing: dict[int, str]) -> int:
    """Component count of the smoothed curve via union-find over pass ports.

    Virtual crossings (and virtual smoothings) are pass-throughs; the two
    planar smoothings reconnect the four crossing ports as described in the
    module docstring.  The open component always counts, so the minimum is 1.
    """
    crossings = diagram.crossings()
    c = diagram.classical_count
    npass = 2 * c
    size = 2 * npass + 2
    tail, head = size - 2, size - 1
    parent = list(range(size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    # semi-arc k joins the out-port of pass k-1 to the in-port of pass k
    for k in range(npass + 1):
        a = tail if k == 0 else 2 * (k - 1) + 1
        b = head if k == npass else 2 * k
        union(a, b)
    for cid, cr in crossings.items():
        u_in, u_out = 2 * cr.under_pass, 2 * cr.under_pass + 1
        o_in, o_out = 2 * cr.over_pass, 2 * cr.over_pass + 1
        kind = smoothing[cid]
        if kind == "vertical":
            union(u_in, o_out)
            union(o_in, u_out)
        elif kind == "horizontal":
            union(u_in, o_in)
            union(u_out, o_out)
        elif kind == "virtual":
            union(u_in, u_out)
            union(o_in, o_out)
        else:
            raise ValueError("unknown smoothing %r" % kind)
    return len({find(i) for i in range(size)})


def enumerate_states(diagram: KnotoidDiagram) -> list[State]:
    """All 3^c states in mixed-radix order over ascending crossing ids."""
    cids = sorted(diagram.crossings())
    out = []
    for combo in itertools.product(SMOOTHINGS, repeat=len(cids)):
        sm = dict(zip(cids, combo))
        out.append(State(tuple(zip(cids, combo)), smooth_components(diagram, sm)))
    return out


# -- evaluation ----------------------------------------------------------------

def state_components(diagram: KnotoidDiagram) -> bytes:
    """Component count of every state, in :func:`enumerate_states` order.

    Union-find over the 2c+1 semi-arcs: semi-arc k is both the out-port of
    pass k-1 and the in-port of pass k, so each smoothing joins two pairs of
    semi-arcs.  The walk descends through the crossings in ascending id,
    copies the parent list at each level and subtracts the successful unions
    from the component count; the last level only counts.
    """
    crossings = diagram.crossings()
    joins = []
    for cid in sorted(crossings):
        cr = crossings[cid]
        joins.append((((cr.u_in, cr.o_out), (cr.o_in, cr.u_out)),    # vertical
                      ((cr.u_in, cr.o_in), (cr.u_out, cr.o_out)),    # horizontal
                      ((cr.u_in, cr.u_out), (cr.o_in, cr.o_out))))   # virtual
    if not joins:
        return bytes([1])
    out = bytearray()
    last = len(joins) - 1

    def walk(level: int, parent: list[int], comps: int) -> None:
        for (a, b), (c, d) in joins[level]:
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            while parent[c] != c:
                c = parent[c]
            while parent[d] != d:
                d = parent[d]
            k = comps
            if a != b:           # join root a under b
                k -= 1
                if c == a:
                    c = b
                if d == a:
                    d = b
            if c != d:
                k -= 1
            if level == last:
                out.append(k)
            else:
                p = parent[:]
                p[a] = b
                p[c] = d
                walk(level + 1, p, k)

    walk(0, list(range(diagram.semi_arc_count)), diagram.semi_arc_count)
    return bytes(out)


class _StatePlan(NamedTuple):
    """Per-diagram cache: the writhe, per classical crossing in ascending id
    its sign and coefficient argument pair, and the state_components table."""
    writhe: int
    crossings: tuple[tuple[int, tuple[int, int]], ...]
    components: bytes


_PLANS: dict[tuple, _StatePlan] = {}


def _plan(diagram: KnotoidDiagram) -> _StatePlan:
    key = diagram.passes
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    crossings = diagram.crossings()
    plan = _StatePlan(writhe(diagram),
                      tuple((crossings[cid].sign, crossings[cid].pair())
                            for cid in sorted(crossings)),
                      state_components(diagram))
    if len(_PLANS) > 64:
        _PLANS.clear()
    _PLANS[key] = plan
    return plan


def _evaluator(plan: _StatePlan, br: VirtualBracket):
    """The state sum of one diagram under one bracket, as a function from a
    coloring to its value in range(m).

    Per coloring it reads the three coefficients of each crossing, expands
    the products of all states level by level in the order of the component
    table, and weighs each by delta^components * omega^(-writhe), reducing
    mod m once at the end.
    """
    m = br.modulus.m

    def triples(t0: Table, t1: Table, t2: Table) -> tuple:
        return tuple(tuple(zip(*rows)) for rows in zip(t0, t1, t2))

    by_sign = {1: triples(br.A, br.B, br.V), -1: triples(br.C, br.D, br.U)}
    steps = [(by_sign[sign], i, j) for sign, (i, j) in plan.crossings]
    wfac = pow(br.omega, -plan.writhe, m)
    scale = [pow(br.delta, k, m) * wfac % m for k in range(max(plan.components) + 1)]
    weights = [scale[k] for k in plan.components]

    def value(coloring: tuple[int, ...]) -> int:
        prods = [1]
        for table, i, j in steps:
            coeffs = table[coloring[i]][coloring[j]]
            prods = [p * c for p in prods for c in coeffs]
        return sum(map(mul, weights, prods)) % m

    return value


def _check_coloring(diagram: KnotoidDiagram, coloring: tuple[int, ...],
                    x: FiniteBiquandle) -> None:
    for cr in diagram.crossings().values():
        c = coloring
        if cr.sign > 0:
            ok = (c[cr.u_out] == x.under_op(c[cr.u_in], c[cr.o_out])
                  and c[cr.o_in] == x.over_op(c[cr.o_out], c[cr.u_in]))
        else:
            ok = (c[cr.u_in] == x.under_op(c[cr.u_out], c[cr.o_in])
                  and c[cr.o_out] == x.over_op(c[cr.o_in], c[cr.u_out]))
        if not ok:
            raise ColoringMismatch("coloring violates a crossing relation")


def evaluate(diagram: KnotoidDiagram, coloring: tuple[int, ...],
             br: VirtualBracket) -> RingElement:
    """State-sum value of one colored diagram."""
    _check_coloring(diagram, coloring, br.biquandle)
    return br.modulus.element(_evaluator(_plan(diagram), br)(coloring))


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
        if self.bracket_matrix is None:
            return None
        return reduce(poly_add, (p for row in self.bracket_matrix for p in row))


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
    return Invariants([[sum(c.values()) for c in row] for row in cells],
                      [[BracketPolynomial.from_dict(br.modulus, c) for c in row]
                       for row in cells])


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


def fundamental_bracket(diagram: KnotoidDiagram) -> SymbolicBracket:
    """Symbolic state sum over the identity coloring: one term per state,
    exactly 3^c of them."""
    crossings = diagram.crossings()
    wr = writhe(diagram)
    terms = []
    for st in enumerate_states(diagram):
        facs = []
        for cid, kind in st.smoothings:
            cr = crossings[cid]
            i, j = cr.pair()
            facs.append((LETTER[(cr.sign, kind)], (i + 1, j + 1)))
        terms.append(SymbolicTerm(-wr, st.components, tuple(facs)))
    return SymbolicBracket(diagram.classical_count, tuple(terms))


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
                      br: VirtualBracket) -> RingElement:
    """Substitute a concrete coloring and bracket into the symbolic sum."""
    m = br.modulus.m
    total = 0
    for t in sym.terms:
        prod = pow(br.delta, t.delta_exp, m)
        for letter, (i, j) in t.factors:
            prod = prod * br.table(letter)[coloring[i - 1]][coloring[j - 1]] % m
        total = (total + prod) % m
    # all terms share the same omega exponent (-writhe)
    oexp = sym.terms[0].omega_exp if sym.terms else 0
    wfac = pow(br.omega, oexp, m) if oexp >= 0 \
        else pow(inverse_mod(br.omega, m), -oexp, m)
    return br.modulus.element(total * wfac)
