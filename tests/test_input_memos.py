"""The input memos: ``parse_diagram``, ``parse_operation_matrix``,
``axiom_verdict`` and ``parse_bracket`` each pay once per distinct input in
a process.  A memoized result equals a fresh parse, a changed file is parsed
again, a failure is not remembered, and every memo, the factories of the
bracket verifier's memos too, is bounded.

The tests need no pytest fixture but ``tmp_path``, so that they also run
under an interpreter without pytest."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from vknotoid.biquandle import axiom_verdict, parse_operation_matrix
from vknotoid.bracket import (invariants, parse_bracket, row_verdicts,
                              triple_verdicts)
from vknotoid.cli import main
from vknotoid.data import corpus_dir, data_dir
from vknotoid.diagram import parse_diagram
from vknotoid.ring import poly_render

BIQ = data_dir() / "biquandles"
BRK = data_dir() / "brackets"
# the biquandle of each bundled bracket
BRACKET_BIQUANDLE = {"z5_involution": "z3_involution", "z37_shift": "z3_shift"}
MEMOS = (parse_diagram, parse_operation_matrix, axiom_verdict, parse_bracket,
         triple_verdicts, row_verdicts)


def run(args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([str(a) for a in args])
    return rc, out.getvalue(), err.getvalue()


def parse_all() -> dict:
    """Every bundled table, its axiom verdict, bracket and corpus diagram,
    parsed through the memos."""
    got = {}
    for path in sorted(BIQ.glob("*.biq")):
        x = parse_operation_matrix(path.read_text(encoding="utf-8"))
        got[path.name] = x
        got[path.name, "axioms"] = axiom_verdict(x)
    for path in sorted(BRK.glob("*.bvb")):
        x = got[BRACKET_BIQUANDLE[path.stem] + ".biq"]
        got[path.name] = parse_bracket(path.read_text(encoding="utf-8"), x)
    for path in sorted(corpus_dir().glob("*.knd")):
        got[path.name] = parse_diagram(path.read_text(encoding="utf-8"),
                                       name=path.stem)
    return got


def test_memoized_parses_equal_fresh_ones():
    assert set(BRACKET_BIQUANDLE) == {p.stem for p in BRK.glob("*.bvb")}
    warm = parse_all()
    again = parse_all()
    assert all(again[k] is v for k, v in warm.items())
    for memo in MEMOS:
        memo.cache_clear()
    fresh = parse_all()
    assert len(fresh) == 4 * 2 + 2 + 32        # tables and verdicts, brackets, diagrams
    for key, value in warm.items():
        assert fresh[key] == value
        assert fresh[key] is not value


def test_a_reused_bracket_keeps_its_weights():
    x = parse_operation_matrix((BIQ / "z3_involution.biq").read_text())
    text = (BRK / "z5_involution.bvb").read_text()
    weights = parse_bracket(text, x)._weights
    assert parse_bracket(text, x)._weights is weights


def test_a_rewritten_diagram_file_is_parsed_again(tmp_path):
    path = tmp_path / "d.knd"
    argv = ["invariants", path, "--biquandle", BIQ / "z3_involution.biq",
            "--bracket", BRK / "z5_involution.bvb", "--format", "json"]
    x = parse_operation_matrix((BIQ / "z3_involution.biq").read_text())
    br = parse_bracket((BRK / "z5_involution.bvb").read_text(), x)
    seen = []
    for name in ("2.1.1", "4.1.5", "2.1.1"):
        text = (corpus_dir() / (name + ".knd")).read_text()
        path.write_text(text)
        rc, out, _ = run(argv)
        assert rc == 0
        rec = json.loads(out)["results"][0]
        d = parse_diagram(text)
        inv = invariants(d, x, br)
        assert rec["classical_crossings"] == d.classical_count
        assert rec["counting_matrix"] == inv.counting_matrix
        assert rec["bracket_polynomial"] == poly_render(inv.bracket_polynomial)
        seen.append(rec)
    assert seen[0] != seen[1] and seen[0] == seen[2]


def test_a_bad_file_fails_alike_every_time(tmp_path):
    bad_diagram = tmp_path / "bad.knd"
    bad_diagram.write_text("code O+1,U+2\n")
    bad_biquandle = tmp_path / "bad.biq"
    bad_biquandle.write_text("2\n1 2 2 1\n")
    bad_bracket = tmp_path / "bad.bvb"
    bad_bracket.write_text("3 5\n0 0 0\ndelta 1 omega 1\n")
    z3 = BIQ / "z3_involution.biq"
    for memo, argv, message in (
            (parse_diagram, ["invariants", bad_diagram, "--biquandle", z3],
             "error: bad diagram file %s: classical crossing 1 needs exactly "
             "one over and one under pass\n" % bad_diagram),
            (parse_operation_matrix,
             ["invariants", corpus_dir() / "2.1.1.knd", "--biquandle",
              bad_biquandle],
             "error: bad biquandle file %s: expected 2 matrix rows\n"
             % bad_biquandle),
            (parse_bracket, ["bracket", "check", bad_bracket, "--biquandle", z3],
             "error: bad bracket file %s: expected 3 coefficient rows\n"
             % bad_bracket)):
        assert run(argv) == (2, "", message)
        before = memo.cache_info()
        assert run(argv) == (2, "", message)
        # the failure was not remembered: the bad text was parsed again
        after = memo.cache_info()
        assert after.misses == before.misses + 1
        assert after.currsize == before.currsize


def random_code(rng: random.Random, classical: int, virtual: int) -> str:
    """A seeded code: every classical crossing passes once over and once
    under with one sign, and every virtual crossing twice, in random order;
    any such code is a diagram."""
    tokens = []
    for k in range(1, classical + 1):
        sign = rng.choice("+-")
        tokens += ["O%s%d" % (sign, k), "U%s%d" % (sign, k)]
    tokens += ["V%d" % k for k in range(1, virtual + 1)] * 2
    rng.shuffle(tokens)
    return ",".join(tokens)


def test_the_diagram_memo_is_bounded():
    rng = random.Random(7)
    codes = {random_code(rng, rng.randrange(2, 7), rng.randrange(3))
             for _ in range(400)}
    codes = sorted(codes)[:300]
    assert len(codes) == 300
    parse_diagram.cache_clear()
    parsed = [parse_diagram(code) for code in codes]
    info = parse_diagram.cache_info()
    assert info.misses == 300
    assert info.currsize <= info.maxsize < 300
    # the most recent ones are held, the first ones were let go
    assert parse_diagram(codes[-1]) is parsed[-1]
    assert parse_diagram(codes[0]) is not parsed[0]
    assert parse_diagram(codes[0]) == parsed[0]
    for memo in MEMOS:
        assert memo.cache_info().maxsize is not None
