"""Output checks: golden digests, mathematical oracles and consistency rules.

``Checker.check`` returns None for a correct job output and a one-line
reason otherwise; every reason counts as one failed job.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def corpus_key(biquandle: str, bracket: str | None, no_verify: bool) -> str:
    return "corpus %s %s%s" % (biquandle, Path(bracket).name if bracket else "-",
                               " no-verify" if no_verify else "")


def invariants_key(biquandle: str, bracket: str | None, diagram_text: str) -> str:
    return "invariants %s %s %s" % (biquandle, bracket or "-",
                                    hashlib.sha256(diagram_text.encode()).hexdigest()[:16])


def search_key(biquandle: str, modulus: int, ansatz: str) -> str:
    """An exhaustive search finds the same solutions in any value order, so
    the seed is not part of the key."""
    return "search %s p=%d %s" % (biquandle, modulus, ansatz)


def axiom_instances(br) -> int:
    """Equation instances one verify_bracket_axioms call checks: families
    (1)-(2) per element, (3)-(8) per pair and (9)-(23) per triple."""
    n = br.biquandle.n
    return 2 * n + 6 * n * n + 15 * n ** 3


def solution_digest(vk, brackets) -> str:
    return digest(sorted(vk.bracket.render_bracket(b) for b in brackets))


def _power_of(base: int, value: int) -> bool:
    while value > 1 and value % base == 0:
        value //= base
    return value == 1


class Checker:
    """Checks job outputs; with ``golden`` None (while the golden data is
    being made) every check except the golden digests applies."""

    def __init__(self, st, golden: dict | None):
        self.st = st
        self.vk = st.vk
        self.golden = golden
        self.golden_hits = 0
        self._refs: dict = {}

    def check_golden(self, table: str, key: str, got, required: bool) -> str | None:
        if self.golden is None:
            return None
        want = self.golden[table].get(key)
        if want is None:
            return "no golden digest for %s" % key if required else None
        self.golden_hits += 1
        return None if got == want else "%s differs from the golden value %s" % (got, want)

    def check(self, job, out: dict) -> str | None:
        if out["rc"] != 0:
            return "exit code %d: %s" % (out["rc"], out.get("stderr", "").strip())
        if job.kind == "search":
            return self.check_search(job, out["search"])
        if out["errors"]:
            return "reported errors: %s" % "; ".join(out["errors"])
        results = out["results"]
        corpus = job.argv[0] == "corpus"
        problem = self.check_golden("results", job.key, digest(results), corpus)
        if problem:
            return problem
        if corpus:
            return self.check_corpus(job, results)
        return self.check_invariants(job, results[0])

    # -- corpus ----------------------------------------------------------------

    def check_corpus(self, job, records: list) -> str | None:
        if len(records) != len(self.st.corpus):
            return "%d records for %d corpus diagrams" % (len(records), len(self.st.corpus))
        for rec in records:
            problem = self.check_record(rec, job.biquandle)
            if problem:
                return "%s: %s" % (rec["name"], problem)
        if job.biquandle == "z3_shift":
            mod = self.vk.ring.Modulus(37)
            for rec in records:
                entry = self.st.manifest[rec["name"]]
                diag = [self.vk.ring.poly_parse(rec["bracket_matrix"][i][i], mod)
                        for i in range(3)]
                want = [self.vk.ring.poly_parse(s, mod) for s in entry["reference_row"]]
                if entry["status"] == "verified" and diag != want:
                    return "%s: bracket matrix diagonal is not the reference_row %s" % (
                        rec["name"], entry["reference_row"])
        return None

    # -- single diagrams -------------------------------------------------------

    def check_record(self, rec: dict, biquandle: str) -> str | None:
        """Rules every invariants record obeys, whatever the diagram."""
        cm = rec["counting_matrix"]
        if sum(map(sum, cm)) != rec["counting_invariant"]:
            return "counting matrix does not sum to the counting invariant"
        n = len(cm)
        if biquandle == "z3_involution":
            # both operations are the involution x -> 2x+1: a coloring is fixed
            # by its tail color and its head color equals it
            if cm != [[int(i == j) for j in range(n)] for i in range(n)]:
                return "z3_involution counting matrix is not the identity"
        if biquandle == "z5_alexander" and not _power_of(5, rec["counting_invariant"]):
            return "z5_alexander coloring count %d is not a power of 5" \
                % rec["counting_invariant"]
        if "bracket_matrix" in rec:
            mod = self.vk.ring.Modulus(37 if biquandle == "z3_shift" else 5)
            mult = lambda s: self.vk.ring.poly_parse(s, mod).total_multiplicity()
            if mult(rec["bracket_polynomial"]) != rec["counting_invariant"]:
                return "bracket polynomial multiplicity differs from the count"
            if [[mult(s) for s in row] for row in rec["bracket_matrix"]] != cm:
                return "bracket matrix multiplicities differ from the counting matrix"
        return None

    def reference(self, name: str, biquandle: str, bracket: str | None):
        """Counting matrix, rendered bracket polynomial and matrix of a corpus
        diagram, from the library functions."""
        key = (name, biquandle, bracket)
        if key not in self._refs:
            vk, st = self.vk, self.st
            d, x = st.corpus[name], st.biquandles[biquandle]
            ref = {"counting_matrix": vk.coloring.counting_matrix(d, x)}
            if bracket:
                br = vk.bracket.parse_bracket(Path(bracket).read_text(encoding="utf-8"), x)
                ref["bracket_polynomial"] = vk.ring.poly_render(
                    vk.bracket.bracket_polynomial(d, x, br))
                ref["bracket_matrix"] = [[vk.ring.poly_render(p) for p in row]
                                         for row in vk.bracket.bracket_matrix(d, x, br)]
            self._refs[key] = ref
        return self._refs[key]

    def check_invariants(self, job, rec: dict) -> str | None:
        if rec["classical_crossings"] != job.diagram.classical_count:
            return "crossing count %d, input has %d" % (
                rec["classical_crossings"], job.diagram.classical_count)
        problem = self.check_record(rec, job.biquandle)
        if problem or not job.oracle:
            return problem
        if job.oracle[0] == "product":
            a = self.reference(job.oracle[1], job.biquandle, None)["counting_matrix"]
            b = self.reference(job.oracle[2], job.biquandle, None)["counting_matrix"]
            if rec["counting_matrix"] != self.vk.coloring.matrix_product(a, b):
                return "product counting matrix is not the factors' matrix product"
            return None
        ref = self.reference(job.oracle[1], job.biquandle, job.bracket)
        for field, want in ref.items():
            if rec[field] != want:
                return "%s differs from that of %s before the moves" % (field, job.oracle[1])
        return None

    # -- searches ----------------------------------------------------------------

    def check_search(self, job, result) -> str | None:
        if result.exhausted:
            return "search budget exhausted"
        if job.biquandle == "singleton":
            key = ("singleton", job.modulus)
            if key not in self._refs:
                self._refs[key] = solution_digest(
                    self.vk, self.vk.search.brute_force_singleton(job.modulus))
            if solution_digest(self.vk, result.brackets) != self._refs[key]:
                return "singleton solutions differ from the brute-force oracle"
            return None
        return self.check_golden("searches", job.key, [
            len(result.brackets), solution_digest(self.vk, result.brackets)], True)
