"""Reference plan compilers, kept as oracles for the library's.

``solve_plan`` compiles a diagram's coloring plan for one biquandle in one
piece, and ``compile_sweep`` builds the frontier sweep by scoring every
remaining crossing at every step.  They are the straightforward forms of
:func:`vknotoid.coloring._solve_plan` (a skeleton shared by all biquandles,
then bound to one) and :func:`vknotoid.bracket._compile_sweep` (scores kept
per crossing and updated only next to the swept one); both pairs must emit
equal plans.
"""

from functools import cache

from vknotoid.bracket import _StatePlan
from vknotoid.diagram import writhe


def solve_plan(diagram, x) -> list:
    """Plan steps in run order.  A branch step is the list of its stack
    entries (index of the next step, semi-arc, color); a derive step is
    (table, s0, s1, t0, t1, check0, check1): table[colors[s0]][colors[s1]]
    gives the colors of t0 and t1, each checked if already known, else
    assigned."""
    nseg = diagram.semi_arc_count
    tables = x.solvers() if nseg > 1 else ()
    # per crossing in order of first pass: its solvers as (table index,
    # known pair, derived pair), from S(a, b) = (c, d)
    solves = []
    for cr in sorted(diagram.crossings().values(),
                     key=lambda cr: min(cr.u_in, cr.o_in)):
        a, b, c, d = cr.sideways
        solves.append(((0, a, b, c, d), (1, c, d, a, b),
                       (2, a, c, b, d), (3, b, d, a, c)))
    touching: list[list[int]] = [[] for _ in range(nseg)]
    for i, sol in enumerate(solves):
        for k in sol[0][1:]:
            touching[k].append(i)
    known = [False] * nseg
    done = [False] * len(solves)
    steps: list = []

    def branch(k: int) -> None:
        steps.append([(len(steps) + 1, k, v) for v in range(x.n - 1, -1, -1)])
        known[k] = True
        queue = [k]
        while queue:
            for i in touching[queue.pop()]:
                if done[i]:
                    continue
                for t, s0, s1, t0, t1 in solves[i]:
                    if known[s0] and known[s1]:
                        # at a kink two of the four semi-arcs coincide
                        steps.append((tables[t], s0, s1, t0, t1, known[t0],
                                      known[t1] or t1 == t0))
                        done[i] = True
                        for u in (t0, t1):
                            if not known[u]:
                                known[u] = True
                                queue.append(u)
                        break

    branch(0)
    for i, sol in enumerate(solves):
        while not done[i]:
            # the first unfinished crossing always has a known semi-arc: the
            # one entering its first pass leaves a finished crossing or is
            # the tail
            branch(next(s1 if known[s0] else s0
                        for _, s0, s1, _, _ in sol
                        if known[s0] != known[s1]))
    return steps


# A crossing's four ports as slots 0 u_in, 1 u_out, 2 o_in, 3 o_out, and the
# slot each smoothing joins to each slot, in the order vertical, horizontal,
# virtual.
_JOIN = ((3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2))


@cache
def smooth(outside):
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


def width_after(cr, unswept, width):
    """Boundary size after sweeping ``cr``: a semi-arc is on the boundary
    while exactly one of its two ends is unswept."""
    ports = (cr.u_in, cr.u_out, cr.o_in, cr.o_out)
    for a in set(ports):
        width += (unswept[a] > ports.count(a)) - (unswept[a] == 1)
    return width


def compile_sweep(diagram) -> _StatePlan:
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
            width_after(item[1], unswept, len(boundary)),
            max(item[1].u_in, item[1].o_in)))
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
            for kind, (loops, pairs) in enumerate(smooth(tuple(outside))):
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
        levels.append((cr.sign, cr.sideways[:2], tuple(map(tuple, incoming))))
    assert len(states) == 1
    return _StatePlan(writhe(diagram), tuple(sweep), tuple(levels))

