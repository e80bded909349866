"""Open Gauss codes for oriented virtual knotoid diagrams.

A diagram is a sequence of crossing passes read from tail to head.  Classical
crossings appear twice (once over, once under, same sign both times); virtual
crossings appear twice as sign-less V passes.  Any such code is accepted:
planarity is never required, which is exactly what makes every code a legal
virtual knotoid diagram.

Semi-arcs are the maximal pieces between consecutive *classical* passes;
virtual passes do not cut them.  With c classical crossings there are 2c+1
semi-arcs, indexed 0 (tail) .. 2c (head).

Crossing conventions (these orientations are load-bearing; the whole test
suite pins them):

* positive crossing:  u_out = u_in under o_out,   o_in = o_out over u_in
* negative crossing:  u_in  = u_out under o_in,   o_out = o_in over u_out

so the operation argument pair of a positive crossing is (u_in, o_out) and
of a negative crossing (u_out, o_in).  Coloring enumeration reads the two
relations together as one sideways relation (see :mod:`vknotoid.coloring`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .biquandle import FiniteBiquandle


class DiagramError(Exception):
    """Base class for diagram failures."""


class DiagramSyntaxError(DiagramError):
    """Unparseable diagram text."""


class PairingError(DiagramError):
    """A crossing id does not occur exactly twice in the required roles."""


class SignError(DiagramError):
    """A classical crossing's two passes disagree on the sign, or its sign is
    not +1 or -1."""


class PositionError(DiagramError):
    """A move insertion position is out of range."""


class Pass(NamedTuple):
    kind: str        # "O", "U" or "V"
    crossing: int    # id within its namespace (classical vs virtual)
    sign: int        # +1/-1 for classical, 0 for virtual


class Crossing(NamedTuple):
    """Classical crossing resolved to its two pass positions.

    under_pass/over_pass index into the classical-pass sequence; the segment
    entering pass k is semi-arc k, the segment leaving it is semi-arc k+1.
    """
    sign: int
    under_pass: int
    over_pass: int

    @property
    def u_in(self) -> int:
        return self.under_pass

    @property
    def u_out(self) -> int:
        return self.under_pass + 1

    @property
    def o_in(self) -> int:
        return self.over_pass

    @property
    def o_out(self) -> int:
        return self.over_pass + 1

    def relations(self) -> tuple[tuple[str, int, int, int], ...]:
        """The crossing's two relations ``x op y = result`` as
        (op, x, y, result) with semi-arc indices, under relation first."""
        if self.sign > 0:
            return (("under", self.u_in, self.o_out, self.u_out),
                    ("over", self.o_out, self.u_in, self.o_in))
        return (("under", self.u_out, self.o_in, self.u_in),
                ("over", self.o_in, self.u_out, self.o_out))

    def pair(self) -> tuple[int, int]:
        """Semi-arc indices of the operation argument pair (x, y): the
        arguments of the under relation."""
        _, x, y, _ = self.relations()[0]
        return (x, y)


_TOKEN_RE = re.compile(r"^(?:([OU])([+-])(\d+)|V(\d+))$")


@dataclass(frozen=True)
class KnotoidDiagram:
    name: str
    passes: tuple[Pass, ...]

    def __post_init__(self) -> None:
        classical: dict[int, list[Pass]] = {}
        virtual: dict[int, int] = {}
        for p in self.passes:
            if p.kind == "V":
                virtual[p.crossing] = virtual.get(p.crossing, 0) + 1
            else:
                classical.setdefault(p.crossing, []).append(p)
        for cid, seen in classical.items():
            if len(seen) != 2 or {q.kind for q in seen} != {"O", "U"}:
                raise PairingError(
                    "classical crossing %d needs exactly one over and one "
                    "under pass" % cid)
            if seen[0].sign != seen[1].sign:
                raise SignError("classical crossing %d has mismatched signs" % cid)
            if seen[0].sign not in (1, -1):
                raise SignError("classical crossing %d has sign %r, not +1 or -1"
                                % (cid, seen[0].sign))
        for vid, count in virtual.items():
            if count != 2:
                raise PairingError("virtual crossing %d occurs %d times" % (vid, count))

    # -- derived structure -------------------------------------------------

    @property
    def classical_passes(self) -> tuple[Pass, ...]:
        return tuple(p for p in self.passes if p.kind != "V")

    @property
    def classical_count(self) -> int:
        return len(self.classical_passes) // 2

    @property
    def virtual_count(self) -> int:
        return sum(1 for p in self.passes if p.kind == "V") // 2

    @property
    def semi_arc_count(self) -> int:
        return 2 * self.classical_count + 1

    @property
    def tail_arc(self) -> int:
        return 0

    @property
    def head_arc(self) -> int:
        return 2 * self.classical_count

    def crossings(self) -> dict[int, Crossing]:
        """Classical crossings keyed by id, ports as semi-arc indices."""
        where: dict[int, dict[str, int]] = {}
        sign: dict[int, int] = {}
        for k, p in enumerate(self.classical_passes):
            where.setdefault(p.crossing, {})[p.kind] = k
            sign[p.crossing] = p.sign
        return {cid: Crossing(sign[cid], spots["U"], spots["O"])
                for cid, spots in where.items()}



def writhe(diagram: KnotoidDiagram) -> int:
    """Sum of classical crossing signs; virtual crossings contribute nothing.
    Each classical crossing has two passes of its sign, so this is half the
    sum over the classical passes."""
    return sum([p.sign for p in diagram.passes if p.kind != "V"]) // 2


# -- parsing and rendering ---------------------------------------------------

def _parse_tokens(code: str) -> tuple[Pass, ...]:
    code = code.strip()
    if code in ("", "-"):
        return ()
    out = []
    for raw in code.split(","):
        tok = raw.strip()
        m = _TOKEN_RE.match(tok)
        if not m:
            raise DiagramSyntaxError("bad token %r" % tok)
        if m.group(4) is not None:
            out.append(Pass("V", int(m.group(4)), 0))
        else:
            out.append(Pass(m.group(1), int(m.group(3)),
                            1 if m.group(2) == "+" else -1))
    return tuple(out)


@lru_cache(maxsize=128)
def parse_diagram(text: str, name: str = "") -> KnotoidDiagram:
    """Parse a diagram.

    Accepts either the two-line file grammar::

        name <identifier>
        code <token>(,<token>)*      (or "code -" for the trivial diagram)

    with each line at most once and the code line required, or a bare
    comma-separated token list (possibly empty).

    Memoized on the text and name, so a process that reads a file again
    parses it once; the diagram is immutable, so every caller may share it.
    The memo holds 128 diagrams, twice the plan cache's bound; an entry
    takes about 20 times its text (5.6 KB at c = 30).
    """
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
    if any(ln.split()[0] in ("name", "code") for ln in lines):
        fields: dict[str, str] = {}
        for ln in lines:
            head, _, rest = ln.partition(" ")
            if head not in ("name", "code"):
                raise DiagramSyntaxError("unexpected line %r" % ln)
            if head in fields:
                raise DiagramSyntaxError("repeated %s line" % head)
            fields[head] = rest.strip()
        if "code" not in fields:
            raise DiagramSyntaxError("missing code line")
        return KnotoidDiagram(fields.get("name", name),
                              _parse_tokens(fields["code"]))
    return KnotoidDiagram(name, _parse_tokens(",".join(lines)))


def render_diagram(diagram: KnotoidDiagram) -> str:
    toks = []
    for p in diagram.passes:
        if p.kind == "V":
            toks.append("V%d" % p.crossing)
        else:
            toks.append("%s%s%d" % (p.kind, "+" if p.sign > 0 else "-", p.crossing))
    code = ",".join(toks) if toks else "-"
    return "name %s\ncode %s\n" % (diagram.name or "unnamed", code)


# -- fundamental presentation -------------------------------------------------

@dataclass(frozen=True)
class Relation:
    """x op y = result, with op "under" or "over"; generators are 1-based
    semi-arc labels a_1 .. a_{2c+1}."""
    op: str
    x: int
    y: int
    result: int

    def __str__(self) -> str:
        sym = "ub" if self.op == "under" else "ob"
        return "a%d %s a%d = a%d" % (self.x, sym, self.y, self.result)


@dataclass(frozen=True)
class Presentation:
    generators: tuple[int, ...]
    relations: tuple[Relation, ...]


def crossing_relations(diagram: KnotoidDiagram) -> Presentation:
    """Two relations per classical crossing (:meth:`Crossing.relations`, in
    ascending crossing id), none for virtual ones."""
    crossings = diagram.crossings()
    rels = tuple(Relation(op, x + 1, y + 1, result + 1)
                 for cid in sorted(crossings)
                 for op, x, y, result in crossings[cid].relations())
    return Presentation(tuple(range(1, diagram.semi_arc_count + 1)), rels)


def relation_holds(rel: Relation, colors: tuple[int, ...],
                   x: FiniteBiquandle) -> bool:
    """Check one relation against a concrete coloring (0-based colors)."""
    lhs = (x.under_op if rel.op == "under" else x.over_op)(
        colors[rel.x - 1], colors[rel.y - 1])
    return lhs == colors[rel.result - 1]


# -- product -------------------------------------------------------------------

def _largest_ids(diagram: KnotoidDiagram) -> tuple[int, int]:
    """The largest classical and the largest virtual crossing id, 0 if none."""
    passes = diagram.passes
    return (max((p.crossing for p in passes if p.kind != "V"), default=0),
            max((p.crossing for p in passes if p.kind == "V"), default=0))


def product(d1: KnotoidDiagram, d2: KnotoidDiagram) -> KnotoidDiagram:
    """Head-to-tail concatenation; d2's crossing ids are renumbered clear of
    d1's so the token lists can simply be joined."""
    shift_c, shift_v = _largest_ids(d1)
    moved = tuple(
        Pass(p.kind, p.crossing + (shift_v if p.kind == "V" else shift_c), p.sign)
        for p in d2.passes)
    name = "%s*%s" % (d1.name or "?", d2.name or "?")
    return KnotoidDiagram(name, d1.passes + moved)


# -- Reidemeister-move insertions ----------------------------------------------

def _check_gap(diagram: KnotoidDiagram, gap: int) -> None:
    if not 0 <= gap <= len(diagram.passes):
        raise PositionError("gap %d outside 0..%d" % (gap, len(diagram.passes)))


def insert_move(diagram: KnotoidDiagram, move: str, gap: int,
                gap2: int | None = None, sign: int = 1,
                over_first: bool = True, parallel: bool = True) -> KnotoidDiagram:
    """Insert an invariance-preserving move at token gap positions.

    move is one of "R1", "VR1", "R2", "VR2".  R1 inserts an adjacent kink
    pair (over then under when over_first).  R2 needs two gaps gap <= gap2;
    the block at the first gap is the over strand when over_first; the pair
    uses signs (sign, -sign), and the second block is reversed for the
    antiparallel variant.  VR1 inserts an adjacent virtual pair, VR2 a
    canceling virtual pair split across two gaps.  All variants were pinned
    by requiring the counting and bracket matrices to be preserved.
    """
    _check_gap(diagram, gap)
    if move in ("R2", "VR2"):
        if gap2 is None:
            raise PositionError("%s needs two gap positions" % move)
        _check_gap(diagram, gap2)
        if gap2 < gap:
            gap, gap2 = gap2, gap
    toks = list(diagram.passes)
    # the new crossings take the ids after the largest ones in use
    k, v = _largest_ids(diagram)
    if move == "R1":
        block = [Pass("O", k + 1, sign), Pass("U", k + 1, sign)]
        if not over_first:
            block.reverse()
        toks[gap:gap] = block
    elif move == "VR1":
        toks[gap:gap] = [Pass("V", v + 1, 0), Pass("V", v + 1, 0)]
    elif move == "R2":
        over_block = [Pass("O", k + 1, sign), Pass("O", k + 2, -sign)]
        under_block = [Pass("U", k + 1, sign), Pass("U", k + 2, -sign)]
        if not parallel:
            under_block.reverse()
        first, second = (over_block, under_block) if over_first \
            else (under_block, over_block)
        toks[gap2:gap2] = second
        toks[gap:gap] = first
    elif move == "VR2":
        toks[gap2:gap2] = [Pass("V", v + 2, 0), Pass("V", v + 1, 0)]
        toks[gap:gap] = [Pass("V", v + 1, 0), Pass("V", v + 2, 0)]
    else:
        raise ValueError("unknown move %r" % move)
    return KnotoidDiagram(diagram.name, tuple(toks))
