"""Seeded input generation for the benchmark workloads.

Every function takes a ``random.Random`` and returns diagrams built with the
library's own constructors, so the same seed always yields the same codes.
Codes are never selected by how long they take to evaluate: the heavy tail
of coloring enumeration stays in the inputs.
"""

from __future__ import annotations

import random

MOVES = ("R1", "VR1", "R2", "VR2")
# Share of each frontier width among cut-free codes drawn by fresh_code with
# two virtual crossings: 40,000 draws from random.Random(0) per crossing number.
WIDTH_SHARES = {
    7: {2: 0.0006, 3: 0.0562, 4: 0.2802, 5: 0.3987, 6: 0.2202, 7: 0.0442},
    8: {2: 0.0001, 3: 0.0178, 4: 0.155, 5: 0.3431, 6: 0.3227, 7: 0.1391, 8: 0.0222},
}


def cut_positions(passes) -> list[int]:
    """Zero-frontier cuts: interior gaps of the classical-pass sequence that
    no classical crossing straddles (one pass before the gap, one after)."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    k = 0
    for p in passes:
        if p.kind == "V":
            continue
        first.setdefault(p.crossing, k)
        last[p.crossing] = k
        k += 1
    open_at = [0] * (k + 1)
    for cid, lo in first.items():
        open_at[lo + 1] += 1
        open_at[last[cid] + 1] -= 1
    cuts, frontier = [], 0
    for gap in range(1, k):
        frontier += open_at[gap]
        if frontier == 0:
            cuts.append(gap)
    return cuts


def frontier_width(passes) -> int:
    """The most classical crossings open at once along the code, that is,
    met once and not yet twice.  Coloring enumeration over an n-element
    biquandle costs about n^width."""
    met: set[int] = set()
    width = 0
    for p in passes:
        if p.kind != "V":
            met ^= {p.crossing}
            width = max(width, len(met))
    return width


def fresh_code(vk, rng: random.Random, crossings: int, virtual: int, name: str):
    """A uniformly shuffled open Gauss code with random signs, redrawn until
    it has no zero-frontier cut, so that it cannot be split into factors."""
    Pass = vk.diagram.Pass
    while True:
        toks = []
        for cid in range(1, crossings + 1):
            sign = rng.choice((1, -1))
            toks += [Pass("O", cid, sign), Pass("U", cid, sign)]
        for vid in range(1, virtual + 1):
            toks += [Pass("V", vid, 0), Pass("V", vid, 0)]
        rng.shuffle(toks)
        if not cut_positions(toks):
            return vk.diagram.KnotoidDiagram(name, tuple(toks))


def fresh_codes(vk, rng: random.Random, crossings: int, virtual: int, count: int):
    """``count`` codes of fresh_code, stratified by frontier width.

    The first codes drawn, as many as the rounding below leaves over, are
    kept whatever their width.  Then each width w gets floor(count * share)
    codes of WIDTH_SHARES, drawn until that many of width w came up.  So
    every seed gets nearly the same mix of widths, the wide and slow codes
    among them at their natural share, and within a width the codes stay
    uniformly random.  Widths are never chosen by measured time.
    """
    quota = {w: int(count * share)
             for w, share in WIDTH_SHARES.get(crossings, {}).items()}
    free = count - sum(quota.values())
    out = [fresh_code(vk, rng, crossings, virtual, "") for _ in range(free)]
    while len(out) < count:
        d = fresh_code(vk, rng, crossings, virtual, "")
        w = frontier_width(d.passes)
        if quota.get(w, 0):
            quota[w] -= 1
            out.append(d)
    rng.shuffle(out)
    return out


def corpus_product(vk, rng: random.Random, corpus: dict, crossings: int):
    """Product of two corpus diagrams whose crossing counts sum to
    ``crossings``; returns (diagram, (left name, right name))."""
    pairs = [(a, b) for a in sorted(corpus) for b in sorted(corpus)
             if corpus[a].classical_count + corpus[b].classical_count == crossings]
    a, b = rng.choice(pairs)
    return vk.diagram.product(corpus[a], corpus[b]), (a, b)


def _insert(vk, rng: random.Random, d, move: str, gap: int, gap2: int):
    return vk.diagram.insert_move(
        d, move, gap, gap2 if move in ("R2", "VR2") else None,
        sign=rng.choice((1, -1)), over_first=rng.choice((True, False)),
        parallel=rng.choice((True, False)))


def inflated(vk, rng: random.Random, corpus: dict, crossings: int):
    """A corpus diagram grown to ``crossings`` classical crossings by random
    R1/VR1/R2/VR2 insertions; returns (diagram, original name).

    The last move is an R1 or R2 placed at one end of the code, so the result
    has a zero-frontier cut next to it; the earlier moves go to uniform gaps.
    """
    origin = rng.choice([n for n in sorted(corpus)
                         if corpus[n].classical_count < crossings])
    d = corpus[origin]
    anchor = "R1" if crossings - d.classical_count == 1 else rng.choice(("R1", "R2"))
    target = crossings - (1 if anchor == "R1" else 2)
    while d.classical_count < target:
        room = target - d.classical_count
        move = rng.choice(MOVES if room >= 2 else ("R1", "VR1", "VR2"))
        d = _insert(vk, rng, d, move, rng.randint(0, len(d.passes)),
                    rng.randint(0, len(d.passes)))
    gap = rng.choice((0, len(d.passes)))
    return _insert(vk, rng, d, anchor, gap, gap), origin
