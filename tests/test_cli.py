import csv
import dataclasses
import hashlib
import json
import re

import pytest

from vknotoid import bracket, cli
from vknotoid.bracket import render_bracket
from vknotoid.cli import build_parser, main
from vknotoid.data import data_dir, corpus_dir
from vknotoid.search import SearchResult

BIQ = data_dir() / "biquandles"
BRK = data_dir() / "brackets"


def run(args):
    return main([str(a) for a in args])


def test_biquandle_check_ok(capsys):
    assert run(["biquandle", "check", BIQ / "z3_coloring.biq"]) == 0
    assert "all axioms hold" in capsys.readouterr().out


def test_biquandle_check_violations(tmp_path, capsys):
    bad = tmp_path / "bad.biq"
    bad.write_text("3\n1 2 1 3 3 3\n2 1 3 1 1 1\n1 3 2 2 2 2\n")
    assert run(["biquandle", "check", bad]) == 1
    assert "violation" in capsys.readouterr().out


def test_biquandle_check_parse_error(tmp_path):
    empty = tmp_path / "empty.biq"
    empty.write_text("")
    assert run(["biquandle", "check", empty]) == 2
    assert run(["biquandle", "check", tmp_path / "missing.biq"]) == 2


@pytest.mark.parametrize("count", [0, -3])
def test_biquandle_check_rejects_a_count_below_one(tmp_path, capsys, count):
    bad = tmp_path / "bad.biq"
    bad.write_text("%d\n" % count)
    assert run(["biquandle", "check", bad]) == 2
    err = capsys.readouterr().err
    assert err == "error: bad biquandle file %s: element count must be " \
                  "positive, got %d\n" % (bad, count)


def test_biquandle_alexander_emits_table(tmp_path, capsys):
    out = tmp_path / "a.biq"
    assert run(["biquandle", "alexander", 5, 2, 4, "--out", out]) == 0
    assert run(["biquandle", "check", out]) == 0
    assert run(["biquandle", "alexander", 4, 2, 1]) == 2


def test_biquandle_alexander_warns_on_a_table_that_fails(capsys):
    # the shift breaks the axioms; the table is written all the same
    assert run(["biquandle", "alexander", 5, 2, 4, "--shift-under", 1]) == 1
    captured = capsys.readouterr()
    assert captured.err == "warning: table does not satisfy the axioms\n"
    assert captured.out.splitlines()[:2] == ["5", "5 2 4 1 3 4 4 4 4 4"]
    assert len(captured.out.splitlines()) == 6


def test_invariants_text(capsys):
    rc = run(["invariants", corpus_dir() / "2.1.1.knd",
              "--biquandle", BIQ / "z3_involution.biq",
              "--bracket", BRK / "z5_involution.bvb"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "colorings: 3" in out
    assert "2u^3+u^2" in out


def test_invariants_csv(capsys):
    rc = run(["invariants", corpus_dir() / "2.1.1.knd",
              "--biquandle", BIQ / "z3_involution.biq",
              "--bracket", BRK / "z5_involution.bvb", "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 1
    rec = rows[0]
    assert (rec["name"], rec["counting_invariant"], rec["bracket_polynomial"]) \
        == ("2.1.1", "3", "2u^3+u^2")
    assert [rec["MB_%d_%d" % (i, i)] for i in (1, 2, 3)] == ["u^3", "u^2", "u^3"]
    assert "status" not in rec


def test_invariants_json_round_trip(tmp_path):
    out = tmp_path / "res.json"
    rc = run(["invariants", corpus_dir() / "2.1.1.knd",
              "--biquandle", BIQ / "z3_involution.biq",
              "--bracket", BRK / "z5_involution.bvb",
              "--format", "json", "--out", out])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload == json.loads(json.dumps(payload))
    rec = payload["results"][0]
    assert rec["counting_invariant"] == 3
    assert rec["bracket_polynomial"] == "2u^3+u^2"
    assert payload["manifest"]["command"] == "invariants"
    assert payload["manifest"]["version"]


def test_invariants_rejects_invalid_bracket(capsys):
    rc = run(["invariants", corpus_dir() / "2.1.1.knd",
              "--biquandle", BIQ / "z3_shift.biq",
              "--bracket", BRK / "z37_shift.bvb"])
    assert rc == 1
    rc = run(["invariants", corpus_dir() / "2.1.1.knd",
              "--biquandle", BIQ / "z3_shift.biq",
              "--bracket", BRK / "z37_shift.bvb", "--no-verify"])
    assert rc == 0


def test_invariants_size_mismatch():
    rc = run(["invariants", corpus_dir() / "2.1.1.knd",
              "--biquandle", BIQ / "z5_alexander.biq",
              "--bracket", BRK / "z5_involution.bvb"])
    assert rc == 2


def test_corpus_json(tmp_path):
    out = tmp_path / "table.json"
    rc = run(["corpus", "--dir", corpus_dir(),
              "--biquandle", BIQ / "z3_shift.biq",
              "--bracket", BRK / "z37_shift.bvb", "--no-verify",
              "--out", out])
    assert rc == 0
    payload = json.loads(out.read_text())
    rows = {r["name"]: r for r in payload["results"]}
    assert len(rows) == 32
    assert rows["2.1.1"]["status"] == "verified"
    mb = rows["2.1.1"]["bracket_matrix"]
    assert [mb[i][i] for i in range(3)] == ["u^19", "u^34", "u^27"]
    assert payload["errors"] == []


def test_corpus_csv(tmp_path, capsys):
    rc = run(["corpus", "--dir", corpus_dir(),
              "--biquandle", BIQ / "z3_coloring.biq", "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header.startswith("name,")
    assert "M_1_1" in header
    assert len(out.strip().splitlines()) == 33


def test_corpus_csv_with_a_bracket(capsys):
    rc = run(["corpus", "--dir", corpus_dir(),
              "--biquandle", BIQ / "z3_involution.biq",
              "--bracket", BRK / "z5_involution.bvb", "--format", "csv"])
    assert rc == 0
    rows = {r["name"]: r for r in csv.DictReader(
        capsys.readouterr().out.splitlines())}
    assert len(rows) == 32
    rec = rows["2.1.1"]
    assert (rec["status"], rec["bracket_polynomial"]) == ("verified", "2u^3+u^2")
    assert [rec["MB_%d_%d" % (i, j)] for i in (1, 2, 3) for j in (1, 2, 3)] \
        == ["u^3", "0", "0", "0", "u^2", "0", "0", "0", "u^3"]
    assert all(r["bracket_polynomial"] for r in rows.values())


# sha256 of each config's "results", as json.dumps(..., sort_keys=True), over
# the bundled corpus; the figures were taken before the coloring plans moved
# into the plan cache
CORPUS_DIGESTS = {
    "z3_involution+z5_involution": (
        ["--biquandle", BIQ / "z3_involution.biq",
         "--bracket", BRK / "z5_involution.bvb"],
        "21bc928584cbfdf0f36fd001f9d025a1627d3009e9d7012c9801ff321e658abc"),
    "z3_shift+z37_shift": (
        ["--biquandle", BIQ / "z3_shift.biq",
         "--bracket", BRK / "z37_shift.bvb", "--no-verify"],
        "1b8286242572dd3c141d9cac3518fc27579842fd40583da904956dbe1a28b6b8"),
    "z5_alexander": (
        ["--biquandle", BIQ / "z5_alexander.biq"],
        "af34f5671094d908918c536bdb6958081696c0e2cd9e16e6a7628321780a937e"),
    "z3_coloring": (
        ["--biquandle", BIQ / "z3_coloring.biq"],
        "3d4e1b6e10c13ef8ade4dd9f84bfbb45b6ddc7d9785263a10add6e137cce0366"),
}


@pytest.mark.parametrize("config", list(CORPUS_DIGESTS))
def test_corpus_results_are_pinned(capsys, config):
    extra, digest = CORPUS_DIGESTS[config]

    def corpus_json():
        assert run(["corpus", "--dir", corpus_dir(), *extra,
                    "--format", "json"]) == 0
        out = capsys.readouterr().out
        return out, re.sub(r'"wall_time_s": [^,\n]*', "", out)

    out, first = corpus_json()
    results = json.loads(out)["results"]
    assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()
                          ).hexdigest() == digest
    # warm, then with every plan forgotten
    assert corpus_json()[1] == first
    bracket._PLANS.clear()
    assert corpus_json()[1] == first


def test_corpus_empty_dir(tmp_path):
    rc = run(["corpus", "--dir", tmp_path,
              "--biquandle", BIQ / "z3_coloring.biq"])
    assert rc == 0


def test_corpus_dir_must_be_a_directory(capsys):
    path = corpus_dir() / "2.1.1.knd"
    rc = run(["corpus", "--dir", path, "--biquandle", BIQ / "z3_coloring.biq"])
    assert rc == 2
    assert capsys.readouterr().err == "error: not a directory: %s\n" % path


def test_corpus_reports_bad_file_and_continues(tmp_path, capsys):
    (tmp_path / "good.knd").write_text("name good\ncode O+1,U+1\n")
    (tmp_path / "bad.knd").write_text("name bad\ncode O+1,U-1\n")
    rc = run(["corpus", "--dir", tmp_path,
              "--biquandle", BIQ / "z3_coloring.biq"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "bad.knd" in err


def test_selftest_pass(capsys):
    rc = run(["selftest", corpus_dir() / "2.1.1.knd",
              "--biquandle", BIQ / "z3_involution.biq",
              "--bracket", BRK / "z5_involution.bvb",
              "--trials", 25, "--seed", 3])
    assert rc == 0
    assert "ok: 25 random move insertions" in capsys.readouterr().out


def test_selftest_trivial(capsys):
    rc = run(["selftest", corpus_dir() / "2.1.1.knd",
              "--biquandle", BIQ / "z3_coloring.biq",
              "--trials", 10, "--seed", 1])
    assert rc == 0


@pytest.mark.parametrize("seed, trial", [(0, 11), (1, 7), (2, 1)])
def test_selftest_reports_a_failure(capsys, seed, trial):
    # z37_shift fails the bracket axioms, so its state sum is not
    # R2-invariant and a random R2 insertion changes the invariants
    rc = run(["selftest", corpus_dir() / "2.1.1.knd",
              "--biquandle", BIQ / "z3_shift.biq",
              "--bracket", BRK / "z37_shift.bvb", "--no-verify",
              "--trials", 20, "--seed", seed])
    assert rc == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "FAIL at trial %d (R2): rewritten code below" % trial
    assert out[1] == "name 2.1.1" and out[2].startswith("code ")


def test_search_cli(tmp_path, capsys):
    outdir = tmp_path / "found"
    rc = run(["search", "--biquandle", BIQ / "z3_involution.biq",
              "--modulus", 5, "--ansatz", "diagonal", "--seed", 1,
              "--out-dir", outdir])
    assert rc == 0
    files = list(outdir.glob("bracket_*.bvb"))
    # 19,456 solutions: five-digit indices, so the names sort in solution order
    assert sorted(f.name for f in files) \
        == ["bracket_%05d.bvb" % k for k in range(19_456)]
    for f in files:
        assert run(["bracket", "check", f,
                    "--biquandle", BIQ / "z3_involution.biq"]) == 0


@pytest.mark.parametrize("count, last", [(1, "bracket_000.bvb"),
                                         (1000, "bracket_999.bvb"),
                                         (1001, "bracket_1000.bvb")])
def test_search_file_names_sort_in_solution_order(monkeypatch, tmp_path,
                                                  z5_bracket, count, last):
    # up to 1,000 solutions keep three-digit names; past that every index is
    # padded to the width of the last one
    brackets = [dataclasses.replace(z5_bracket, delta=k % 5)
                for k in range(count)]
    monkeypatch.setattr(cli, "search_brackets",
                        lambda x, cfg: SearchResult(brackets, False, count))
    assert run(["search", "--biquandle", BIQ / "z3_involution.biq",
                "--modulus", 5, "--out-dir", tmp_path]) == 0
    names = sorted(f.name for f in tmp_path.iterdir())
    assert len(names) == count and names[-1] == last
    assert [(tmp_path / name).read_text() for name in names] \
        == [render_bracket(br) for br in brackets]


def test_search_rejects_composite_modulus():
    # 10^400 is past the largest float, so a primality test through a
    # float square root overflows instead of rejecting it
    for modulus in (4, "1" + "0" * 400):
        assert run(["search", "--biquandle", BIQ / "z3_involution.biq",
                    "--modulus", modulus]) == 2


def test_search_budget_exhausted(tmp_path):
    rc = run(["search", "--biquandle", BIQ / "z3_involution.biq",
              "--modulus", 5, "--budget", 10, "--out-dir", tmp_path])
    assert rc == 3


def test_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    # a 37-element table has 1,369 cells; the search runs out of budget
    # (exit 3) and reports it, with no traceback
    table = tmp_path / "a37.biq"
    assert run(["biquandle", "alexander", 37, 2, 1, "--out", table]) == 0
    assert run(["search", "--biquandle", table, "--modulus", 2,
                "--budget", 5000]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] \
        == "searched 5000 nodes, 1 solution(s), budget exhausted"
    assert err == ""


def test_search_within_budget_exits_zero(tmp_path):
    # this search takes exactly 1594 nodes, so that budget is enough
    rc = run(["search", "--biquandle", BIQ / "z3_coloring.biq",
              "--modulus", 3, "--ansatz", "full", "--budget", 1594,
              "--out-dir", tmp_path])
    assert rc == 0
    assert len(list(tmp_path.glob("bracket_*.bvb"))) == 40


def test_moves_insert(tmp_path, capsys):
    out = tmp_path / "moved.knd"
    rc = run(["moves", "insert", corpus_dir() / "2.1.1.knd",
              "--move", "R2", "--gap", 0, "--gap2", 3, "--out", out])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("name 2.1.1")
    rc = run(["moves", "insert", corpus_dir() / "2.1.1.knd",
              "--move", "R2", "--gap", 99])
    assert rc == 2


def test_bracket_check(capsys):
    rc = run(["bracket", "check", BRK / "z5_involution.bvb",
              "--biquandle", BIQ / "z3_involution.biq"])
    assert rc == 0
    rc = run(["bracket", "check", BRK / "z37_shift.bvb",
              "--biquandle", BIQ / "z3_shift.biq"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "fails" in out


def test_bracket_fundamental(capsys):
    rc = run(["bracket", "fundamental", corpus_dir() / "2.1.1.knd"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "states: 9" in out
    assert "C[a4,a1]" in out


# -- input hardening: each bad input ends with exit 1 or 2 and one line -------------

NOT_A_BIQUANDLE = "3\n1 2 1 3 3 3\n2 1 3 1 1 1\n1 3 2 2 2 2\n"


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    return err


def bracket_with(tmp_path, header=None, tail=None):
    lines = (BRK / "z5_involution.bvb").read_text().splitlines()
    lines[0] = header or lines[0]
    lines[-1] = tail or lines[-1]
    path = tmp_path / "b.bvb"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_bracket_modulus_below_two(tmp_path, capsys):
    for m in (0, 1, -5):
        bad = bracket_with(tmp_path, header="3 %d" % m)
        assert run(["invariants", corpus_dir() / "2.1.1.knd",
                    "--biquandle", BIQ / "z3_involution.biq", "--bracket", bad]) == 2
        assert "modulus" in one_line_error(capsys)


def test_bracket_omega_not_a_unit(tmp_path, capsys):
    bad = bracket_with(tmp_path, header="3 4", tail="delta 2 omega 4")
    assert run(["invariants", corpus_dir() / "2.1.1.knd",
                "--biquandle", BIQ / "z3_involution.biq", "--bracket", bad]) == 2
    assert "omega" in one_line_error(capsys)


def test_bracket_non_integer_field(tmp_path, capsys):
    bad = bracket_with(tmp_path, tail="delta 2 omega x")
    assert run(["invariants", corpus_dir() / "2.1.1.knd",
                "--biquandle", BIQ / "z3_involution.biq", "--bracket", bad]) == 2
    assert "non-integer omega" in one_line_error(capsys)


def test_diagram_with_a_repeated_line(tmp_path, capsys):
    bad = tmp_path / "twice.knd"
    bad.write_text("name a\ncode O+1,U+1\ncode -\nname b\n")
    assert run(["invariants", bad, "--biquandle", BIQ / "z3_involution.biq"]) == 2
    assert "repeated code line" in one_line_error(capsys)


def test_corpus_and_selftest_check_the_biquandle(tmp_path, capsys):
    bad = tmp_path / "bad.biq"
    bad.write_text(NOT_A_BIQUANDLE)
    assert run(["corpus", "--dir", corpus_dir(), "--biquandle", bad]) == 1
    assert "biquandle fails axioms" in one_line_error(capsys)
    assert run(["selftest", corpus_dir() / "2.1.1.knd", "--biquandle", bad]) == 1
    assert "biquandle fails axioms" in one_line_error(capsys)


def test_corpus_malformed_manifest(tmp_path, capsys):
    (tmp_path / "good.knd").write_text("name good\ncode O+1,U+1\n")
    for text in ("{not json", "[1, 2]", '{"good": 3}'):
        (tmp_path / "manifest.json").write_text(text)
        assert run(["corpus", "--dir", tmp_path,
                    "--biquandle", BIQ / "z3_coloring.biq"]) == 2
        assert "bad manifest" in one_line_error(capsys)


def test_invariants_of_a_deep_code(tmp_path, capsys):
    kinks = ",".join("O+%d,U+%d" % (k, k) for k in range(1, 700))
    deep = tmp_path / "kinks.knd"
    deep.write_text("name kinks\ncode %s\n" % kinks)
    assert run(["invariants", deep, "--biquandle", BIQ / "z3_involution.biq"]) == 0
    assert "colorings: 3" in capsys.readouterr().out


def test_search_checks_the_biquandle(tmp_path, capsys):
    bad = tmp_path / "bad.biq"
    bad.write_text(NOT_A_BIQUANDLE)
    assert run(["search", "--biquandle", bad, "--modulus", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""                         # no "solutions" printed
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: biquandle fails axioms")


def test_unwritable_output_paths(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    inv = ["invariants", corpus_dir() / "2.1.1.knd",
           "--biquandle", BIQ / "z3_coloring.biq"]
    for argv in (["biquandle", "alexander", 5, 2, 3, "--out", tmp_path],
                 inv + ["--out", tmp_path],
                 inv + ["--format", "json", "--out", tmp_path / "missing" / "x"],
                 ["search", "--biquandle", BIQ / "z3_involution.biq",
                  "--modulus", 3, "--out-dir", blocker]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""                         # the search did not run
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1


def test_search_reports_an_unwritable_bracket_file(tmp_path, capsys):
    (tmp_path / "bracket_000.bvb").mkdir()
    assert run(["search", "--biquandle", BIQ / "z3_involution.biq",
                "--modulus", 3, "--out-dir", tmp_path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1


def test_selftest_rejects_negative_trials(capsys):
    assert run(["selftest", corpus_dir() / "2.1.1.knd",
                "--biquandle", BIQ / "z3_coloring.biq", "--trials", -3]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --trials") and len(err.splitlines()) == 1


# -- one parser per process: no call sees another's options ------------------------

def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_carries_no_option_over(capsys):
    argv = ["invariants", corpus_dir() / "2.1.1.knd",
            "--biquandle", BIQ / "z3_shift.biq"]
    bracket = ["--bracket", BRK / "z37_shift.bvb"]
    assert run(argv + bracket + ["--no-verify", "--format", "json"]) == 0
    assert "bracket_matrix" in capsys.readouterr().out
    assert run(argv + bracket) == 1              # verified again, and fails
    assert "bracket fails" in one_line_error(capsys)
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("name: 2.1.1\n")        # text, the default format
    assert "bracket" not in out


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["invariants", corpus_dir() / "2.1.1.knd", "--format", "xml"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert run(["invariants", corpus_dir() / "2.1.1.knd",
                "--biquandle", BIQ / "z3_involution.biq"]) == 0
    assert "colorings: 3" in capsys.readouterr().out
