"""Moduli and the formal u-exponent polynomials used by the bracket invariants.

Residues of Z_m are plain ints in range(m); a :class:`Modulus` only names
and checks m.  A :class:`BracketPolynomial` is a multiset of such residues,
written as a sum of u^r terms.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class RingError(Exception):
    """Base class for ring related failures."""


class NotAUnit(RingError):
    """A parameter that must be a unit mod m has no multiplicative inverse."""


@dataclass(frozen=True)
class Modulus:
    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("modulus must be >= 2, got %d" % self.m)


@dataclass(frozen=True)
class BracketPolynomial:
    """Formal multiset of exponents: sum of u^r terms with multiplicities.

    Exponents are residues mod m, so u^a and u^b collide exactly when
    a == b in Z_m.  The total multiplicity equals the number of colorings
    that contributed.
    """

    modulus: Modulus
    terms: tuple[tuple[int, int], ...] = field(default=())

    @staticmethod
    def from_dict(modulus: Modulus, terms: dict[int, int]) -> "BracketPolynomial":
        norm: dict[int, int] = {}
        for e, mult in terms.items():
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult:
                norm[e % modulus.m] = norm.get(e % modulus.m, 0) + mult
        return BracketPolynomial(modulus, tuple(sorted(norm.items(), reverse=True)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)


def poly_render(p: BracketPolynomial) -> str:
    """Canonical text form: descending exponents, unit multiplicities omitted,
    exponent 1 written "u", exponent 0 written as a bare integer, empty "0"."""
    if not p.terms:
        return "0"
    parts = []
    for e, mult in p.terms:
        if e == 0:
            parts.append(str(mult))
            continue
        head = "" if mult == 1 else str(mult)
        parts.append(head + ("u" if e == 1 else "u^%d" % e))
    return "+".join(parts)


_TERM_RE = re.compile(r"^(\d+)?(u(\^(\d+))?)?$")


def poly_parse(text: str, modulus: Modulus) -> BracketPolynomial:
    """Parse the poly_render grammar back into a polynomial."""
    text = text.strip()
    if text == "0":
        return BracketPolynomial(modulus)
    acc: dict[int, int] = {}
    for raw in text.split("+"):
        m = _TERM_RE.match(raw.strip())
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError("bad polynomial term: %r" % raw)
        mult = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            expo = 0
        elif m.group(4) is None:
            expo = 1
        else:
            expo = int(m.group(4))
        acc[expo % modulus.m] = acc.get(expo % modulus.m, 0) + mult
    return BracketPolynomial.from_dict(modulus, acc)
