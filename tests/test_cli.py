import csv
import dataclasses
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vknotoid import bracket, cli
from vknotoid.biquandle import (FiniteBiquandle, parse_operation_matrix,
                                render_operation_matrix,
                                verify_biquandle_axioms)
from vknotoid.bracket import (fundamental_bracket, parse_bracket,
                              render_bracket, symbolic_terms,
                              verify_bracket_axioms)
from vknotoid.cli import build_parser, main
from vknotoid.data import data_dir, corpus_dir
from vknotoid.diagram import parse_diagram
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



# sha256 of each command's whole stdout with the manifest's wall_time_s
# masked.  The commands run in a directory of copied inputs, so the paths in
# a JSON manifest are the same on every machine; "bad" holds one diagram
# that parses and one that does not, so its "errors" list is not empty.  The
# figures were taken before invariants and corpus shared one table writer.
INVARIANTS = ["invariants", "corpus/2.1.1.knd", "--biquandle", "z3.biq"]
CORPUS = ["corpus", "--biquandle", "z3.biq", "--dir"]
BRACKET = ["--bracket", "z5.bvb"]
OUTPUT_DIGESTS = {
    "invariants text": (
        INVARIANTS,
        "5b27bf1a046fe77c3ffe7086c13612e7bae911bfd15efcd2b364977d02b9ac78"),
    "invariants text bracket": (
        INVARIANTS + BRACKET,
        "a94b171ac43ecb847ec4d2594e9fc93e387db9aedcfd9c3d3e8c5d1f03c9598f"),
    "invariants csv": (
        INVARIANTS + ["--format", "csv"],
        "2497ccd7db1defa342530dd7fc24d1e15efc2f4fb010dc1b349980dfc94b3738"),
    "invariants csv bracket": (
        INVARIANTS + BRACKET + ["--format", "csv"],
        "ba2ae3fa8f6add43a304cc9120ca04875e842d95e5158089cb54be94dac38edf"),
    "invariants json": (
        INVARIANTS + ["--format", "json"],
        "928fefe90423a6a0d8b0893d303d2b254eda2426a34f1501a649189968196476"),
    "invariants json bracket": (
        INVARIANTS + BRACKET + ["--format", "json"],
        "22110fc2761741a8b18ce12d311312a95bd3b6d3fdedde1852b94517edc2c634"),
    "corpus csv": (
        CORPUS + ["corpus", "--format", "csv"],
        "9ccc4b025c7e1deffd394b3c3af7d62b26937817719fcb62fb58ff2e1c82d2da"),
    "corpus csv bracket": (
        CORPUS + ["corpus", "--format", "csv"] + BRACKET,
        "f2f591f5c10dd48d075e87d3ec7708bb129d663c2027c03c8b0b8c98126a9a53"),
    "corpus csv empty": (
        CORPUS + ["empty", "--format", "csv"],
        "95443cb4e91196bd64ddd4391b93e97cd3de92b6287e24d276500021d641b916"),
    "corpus csv bad": (
        CORPUS + ["bad", "--format", "csv"],
        "d1780ed1b43ebd39c3e9a34f2d60d63fae17c0778ec61fb75d342f64893c8456"),
    "corpus json": (
        CORPUS + ["corpus"],
        "de77cbfe898edd010e31d1cfad480277b1d5c4fdd1e2a0d022089789f04417eb"),
    "corpus json bracket": (
        CORPUS + ["corpus"] + BRACKET,
        "1805d6e7c0be065e478bf26bfe64010c8781ed0caedc47fb4e515e72763c317b"),
    "corpus json empty": (
        CORPUS + ["empty"],
        "874b62db2b59d3cbf73e1fcdd98e82b9350755fd4f4871ce3cb92c438a1ec4cd"),
    "corpus json bad": (
        CORPUS + ["bad"],
        "7083c5f8e4760f469c0e403fc371b9add9008f8fb0cedaa2c4506abc04b4ed18"),
    "corpus csv listing": (
        CORPUS + ["listing", "--format", "csv"],
        "a2ed404043558dd1af941071a64b49bce37ef44fc8bc3589f0d41f4ae1b7c129"),
    "corpus json listing": (
        CORPUS + ["listing"],
        "9a766b167abcc2d1730fb96116545942607805c0eaf0dbe4fd0080c872986b34"),
}

# "listing" holds names that sort, match or split into stems in less common
# ways: dot files, a file named exactly ".knd", separators on both sides of
# ".", a non-ASCII name, an upper-case suffix that "*.knd" does not match, a
# directory named like a diagram, a link to no file, a file that is not
# UTF-8 and a name line that differs from its file's stem.  Its manifest gives some of them a
# status, keyed by stem.  Its digests were taken while corpus still listed
# the directory with Path.glob.
LISTING = {".h.knd": "2.1.1", ".knd": "3.1.1", "A.knd": "3.1.2",
           "a-b.knd": "4.1.5", "a.b.knd": "2.1.2", "a_b.knd": "3.1.5",
           "\u00e9.knd": "4.1.1", "B.KND": "2.1.1"}
LISTING_STATUSES = {"A": "verified", "renamed": "open", "other": "unused",
                    ".knd": "dot", ".h": "hidden", "\u00e9": "accent"}
LISTING_ERRORS = (
    "error: gone.knd: [Errno 2] No such file or directory: "
    "'listing/gone.knd'\n"
    "error: latin1.knd: 'utf-8' codec can't decode byte 0xe9 in position 18: "
    "invalid continuation byte\n"
    "error: sub.knd: [Errno 21] Is a directory: 'listing/sub.knd'\n")


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    shutil.copytree(corpus_dir(), root / "corpus")
    shutil.copy(BIQ / "z3_involution.biq", root / "z3.biq")
    shutil.copy(BRK / "z5_involution.bvb", root / "z5.bvb")
    (root / "empty").mkdir()
    (root / "bad").mkdir()
    (root / "bad" / "good.knd").write_text("name good\ncode O+1,U+1\n")
    (root / "bad" / "bad.knd").write_text("name bad\ncode O+1,U-1\n")
    listing = root / "listing"
    listing.mkdir()
    for name, source in LISTING.items():
        text = (corpus_dir() / (source + ".knd")).read_text(encoding="utf-8")
        (listing / name).write_text(text.splitlines()[1] + "\n",
                                    encoding="utf-8")
    (listing / "sub.knd").mkdir()
    (listing / "sub.knd" / "inner.knd").write_text("code O+1,U+1\n")
    (listing / "latin1.knd").write_bytes(b"code O+1,U+1\n# caf\xe9\n")
    (listing / "gone.knd").symlink_to("missing.knd")
    (listing / "renamed.knd").write_text("name other\ncode O+1,V1,U+1,V1\n")
    (listing / "manifest.json").write_text(json.dumps(
        {stem: {"status": status} for stem, status in LISTING_STATUSES.items()}))
    return root


@pytest.mark.parametrize("name", list(OUTPUT_DIGESTS))
def test_whole_outputs_are_pinned(inputs_dir, monkeypatch, capsys, name):
    argv, digest = OUTPUT_DIGESTS[name]
    monkeypatch.chdir(inputs_dir)
    assert run(argv) == 0
    out = re.sub(r'"wall_time_s": [^,\n]*', '"wall_time_s": 0',
                 capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest, name


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("where, spelled, prefix", [
    ("", "listing", "listing/"), ("", "listing/", "listing/"),
    ("listing", ".", ""), ("listing", "./", "")])
def test_corpus_listing_errors_are_pinned(inputs_dir, monkeypatch, capsys,
                                          fmt, where, spelled, prefix):
    # an unreadable file is named by its path as pathlib spells it under
    # --dir: "." adds no prefix and a trailing "/" is dropped
    monkeypatch.chdir(inputs_dir / where)
    argv = ["corpus", "--biquandle", inputs_dir / "z3.biq", "--dir", spelled]
    assert run(argv + ["--format", fmt]) == 0
    assert capsys.readouterr().err == LISTING_ERRORS.replace(
        "'listing/", "'" + prefix)


def test_corpus_names_a_file_as_invariants_does(tmp_path, capsys):
    # "...knd" and "..knd" have the stems ".." and ".", as pathlib splits
    # them; corpus names each record and looks up its status by that stem
    code = (corpus_dir() / "2.1.1.knd").read_text().splitlines()[1] + "\n"
    statuses = {".": "dots", "..": "more dots"}
    files = ("...knd", "..knd")             # in name order
    for name in files:
        (tmp_path / name).write_text(code)
    (tmp_path / "manifest.json").write_text(json.dumps(
        {stem: {"status": status} for stem, status in statuses.items()}))
    biq = BIQ / "z3_involution.biq"
    names = []
    for name in files:
        assert run(["invariants", tmp_path / name, "--biquandle", biq,
                    "--format", "json"]) == 0
        names += [r["name"] for r in json.loads(capsys.readouterr().out)["results"]]
    assert names == ["..", "."]
    assert run(["corpus", "--dir", tmp_path, "--biquandle", biq,
                "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [(r["name"], r["status"]) for r in results] \
        == [(name, statuses[name]) for name in names]


@pytest.fixture(scope="module")
def newline_dirs(tmp_path_factory):
    """The same inputs twice, under the same relative names: "lf" as
    bundled, "crlf" with every line ending turned into "\\r\\n"."""
    root = tmp_path_factory.mktemp("newlines")
    sources = [(p, "corpus/" + p.name) for p in corpus_dir().iterdir()]
    sources += [(BIQ / "z3_involution.biq", "z3.biq"),
                (BIQ / "z3_shift.biq", "z3s.biq"),
                (BRK / "z5_involution.bvb", "z5.bvb"),
                (BRK / "z37_shift.bvb", "z37.bvb")]
    for sub, ending in (("lf", b"\n"), ("crlf", b"\r\n")):
        (root / sub / "corpus").mkdir(parents=True)
        for source, name in sources:
            data = source.read_bytes()
            assert b"\r" not in data
            (root / sub / name).write_bytes(data.replace(b"\n", ending))
    return root


@pytest.mark.parametrize("argv", [
    INVARIANTS, INVARIANTS + BRACKET,
    INVARIANTS + BRACKET + ["--format", "csv"],
    INVARIANTS + BRACKET + ["--format", "json"],
    CORPUS + ["corpus"] + BRACKET, CORPUS + ["corpus", "--format", "csv"],
    ["biquandle", "check", "z3.biq"],
    ["bracket", "check", "z5.bvb", "--biquandle", "z3.biq"],
    ["bracket", "check", "z37.bvb", "--biquandle", "z3s.biq"]],
    ids=" ".join)
def test_crlf_inputs_give_the_same_output(newline_dirs, monkeypatch, capsys,
                                          argv):
    outputs = []
    for sub in ("lf", "crlf"):
        monkeypatch.chdir(newline_dirs / sub)
        rc = run(argv)
        out, err = capsys.readouterr()
        outputs.append((rc, re.sub(r'"wall_time_s": [^,\n]*',
                                   '"wall_time_s": 0', out), err))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (0, 1) and outputs[0][1]


# the error lines of a directory given as an input file, as the commands
# printed them while every input was still read through pathlib
DIRECTORY_ERRORS = {
    "diagram": (["invariants", "d", "--biquandle", "z3.biq"],
                "error: cannot read d: [Errno 21] Is a directory: 'd'\n"),
    "biquandle": (["invariants", "corpus/2.1.1.knd", "--biquandle", "d"],
                  "error: cannot read d: [Errno 21] Is a directory: 'd'\n"),
    "bracket": (INVARIANTS + ["--bracket", "d"],
                "error: cannot read d: [Errno 21] Is a directory: 'd'\n"),
    "manifest": (["corpus", "--dir", "m", "--biquandle", "z3.biq"],
                 "error: cannot read m/manifest.json: [Errno 21] Is a "
                 "directory: 'm/manifest.json'\n"),
}


@pytest.mark.parametrize("what", list(DIRECTORY_ERRORS))
def test_a_directory_as_input_is_one_error_line(inputs_dir, tmp_path,
                                                monkeypatch, capsys, what):
    argv, line = DIRECTORY_ERRORS[what]
    for name in ("corpus", "z3.biq", "z5.bvb"):
        (tmp_path / name).symlink_to(inputs_dir / name)
    (tmp_path / "d").mkdir()
    (tmp_path / "m" / "manifest.json").mkdir(parents=True)
    shutil.copy(corpus_dir() / "2.1.1.knd", tmp_path / "m")
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize("target", ["nowhere.json", "manifest.json"])
def test_a_manifest_link_to_nothing_is_no_manifest(tmp_path, capsys, target):
    # a link to no file, or to itself, is absent to Path.exists
    shutil.copy(corpus_dir() / "2.1.1.knd", tmp_path)
    (tmp_path / "manifest.json").symlink_to(target)
    assert run(["corpus", "--dir", tmp_path, "--biquandle",
                BIQ / "z3_involution.biq", "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and ",unlisted," in out.splitlines()[1]


@pytest.mark.parametrize("name", ["x", "x.knd", "a.b.knd", ".knd", ".h.knd",
                                  "a.b.", "..a", "...", ".a.b", "é.knd"])
def test_a_diagram_is_named_by_its_path_stem(tmp_path, monkeypatch, name):
    # the default name of a diagram without a name line is Path(path).stem,
    # however the path is spelled
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / name).write_text("code O+1,U+1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for path in (tmp_path / "sub" / name, "sub/" + name, "./sub//" + name):
        assert cli._load_diagram(str(path)).name == Path(path).stem


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


@pytest.mark.parametrize("flag, last, deltas", [
    ([], "searched 1594 nodes, 40 solution(s)", {"0", "1", "2"}),
    (["--require-delta-unit"], "searched 1480 nodes, 32 solution(s)",
     {"1", "2"})])
def test_search_require_delta_unit(capsys, flag, last, deltas):
    # z3_coloring has 8 brackets over Z_3 with delta = 0; the flag skips
    # that delta and its 114 nodes
    assert run(["search", "--biquandle", BIQ / "z3_coloring.biq",
                "--modulus", 3, "--ansatz", "full"] + flag) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == last
    assert {re.search(r" delta=(\d+) ", line)[1] for line in out
            if line.startswith("solution ")} == deltas


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


@pytest.mark.parametrize("sign", [0, 2, 7])
def test_moves_insert_takes_only_sign_1_or_minus_1(sign, capsys):
    # the library raises SignError for such a sign; the command line refuses
    # it as a usage error instead of writing a positive crossing
    with pytest.raises(SystemExit) as exc:
        run(["moves", "insert", corpus_dir() / "2.1.1.knd", "--move", "R1",
             "--gap", 0, "--sign", sign])
    assert exc.value.code == 2
    assert "argument --sign: invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("sign, tokens", [(1, "O+3,U+3,"), (-1, "O-3,U-3,")])
def test_moves_insert_writes_the_sign(tmp_path, sign, tokens):
    # 2.1.1 has crossings 1 and 2, so the kink at gap 0 is crossing 3
    out = tmp_path / "kink.knd"
    assert run(["moves", "insert", corpus_dir() / "2.1.1.knd", "--move", "R1",
                "--gap", 0, "--sign", sign, "--out", out]) == 0
    assert out.read_text().splitlines()[1] \
        == "code " + tokens + "O-1,V1,U-2,U-1,V1,O-2"


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


def r2_grown_code(tmp_path):
    """4.1.5 with two R2 moves inserted: a code file with 8 classical
    crossings, so 6,561 states."""
    code = corpus_dir() / "4.1.5.knd"
    for k, (gap, gap2) in enumerate(((0, 3), (2, 7))):
        out = tmp_path / ("r2_%d.knd" % k)
        assert run(["moves", "insert", code, "--move", "R2", "--gap", gap,
                    "--gap2", gap2, "--out", out]) == 0
        code = out
    return code


def test_bracket_fundamental_writes_the_rendered_sum(tmp_path, capsys):
    # the command writes its terms as they are rendered, and what it writes
    # is the whole sum, its terms joined by " + "
    code = r2_grown_code(tmp_path)
    capsys.readouterr()
    assert run(["bracket", "fundamental", code]) == 0
    sym = fundamental_bracket(parse_diagram(code.read_text()))
    assert len(sym.components) == 3 ** 8
    assert capsys.readouterr().out \
        == "states: %d\n" % 3 ** 8 + " + ".join(symbolic_terms(sym)) + "\n"


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


@pytest.mark.parametrize("lines, message", [
    (1, "truncated bracket file"),
    (None, "final line must be 'delta <int> omega <int>'"),
])
def test_bracket_file_cut_short(tmp_path, capsys, lines, message):
    # the header alone, or the final line without its omega
    bad = bracket_with(tmp_path, tail="delta 2 omega")
    if lines:
        bad.write_text("\n".join(bad.read_text().splitlines()[:lines]) + "\n")
    assert run(["bracket", "check", bad,
                "--biquandle", BIQ / "z3_involution.biq"]) == 2
    assert one_line_error(capsys) \
        == "error: bad bracket file %s: %s\n" % (bad, message)


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    # a table too large for the machine: no traceback, and not exit 1, which
    # would claim an axiom failure
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "alexander_biquandle", exhausted)
    assert run(["biquandle", "alexander", 20000, 1, 1]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.parametrize("command", ["bracket fundamental", "search",
                                     "biquandle check"])
def test_a_closed_output_pipe_is_one_error_line(tmp_path, command):
    # each command writes more than a 64 KB pipe buffer; the reader takes
    # one byte and closes the pipe, as `| head -c 1` does.  Exit 2, as for
    # an unwritable --out, and no traceback
    if command == "bracket fundamental":
        args = ["bracket", "fundamental", r2_grown_code(tmp_path)]
    elif command == "search":
        args = ["search", "--biquandle", BIQ / "z3_involution.biq",
                "--modulus", 5, "--seed", 1]        # 19,456 brackets
    else:
        table = tmp_path / "a37s.biq"
        assert run(["biquandle", "alexander", 37, 2, 1, "--shift-under", 1,
                    "--out", table]) == 1
        args = ["biquandle", "check", table]        # some 5 * 10^4 violations
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "vknotoid.cli"]
                          + [str(a) for a in args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
        assert p.stdout.read(1)
        p.stdout.close()
        err = p.stderr.read().decode()
    assert p.returncode == 2, err
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1, err


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


def test_failing_biquandle_is_named_in_one_short_line(tmp_path, capsys):
    # a seeded random n = 37 table fails some 10^5 axiom instances; the
    # gate names their count and the first, not every one
    rng = random.Random(37)
    x = FiniteBiquandle(*(tuple(tuple(rng.randrange(37) for _ in range(37))
                                for _ in range(37)) for _ in range(2)))
    count = len(verify_biquandle_axioms(x).violations)
    bad = tmp_path / "random37.biq"
    bad.write_text(render_operation_matrix(x))
    assert run(["invariants", corpus_dir() / "2.1.1.knd",
                "--biquandle", bad]) == 1
    err = one_line_error(capsys)
    assert len(err.encode()) < 300
    assert err.startswith("error: biquandle fails axioms: %d violations, "
                          "first " % count)


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


# a 2-element table failing 5 axiom instances, and a bracket satisfying all
# 23 equation families over it
TWO_CONSTANTS = "2\n1 1 1 1\n1 1 1 1\n"
BRACKET_OVER_TWO_CONSTANTS = "2 3\n" + "0 0 0 0 1 1 0 0 0 0 1 1\n" * 2 \
    + "delta 2 omega 1\n"


@pytest.mark.parametrize("command", [
    ["invariants", corpus_dir() / "2.1.1.knd"],
    ["corpus", "--dir", corpus_dir()],
    ["selftest", corpus_dir() / "2.1.1.knd"],
    ["search", "--modulus", "3"],
    ["bracket", "check", "nb.bvb"],
], ids=lambda command: command[0])
def test_every_command_reading_a_table_checks_its_axioms(
        tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    Path("nb.biq").write_text(TWO_CONSTANTS)
    Path("nb.bvb").write_text(BRACKET_OVER_TWO_CONSTANTS)
    x = parse_operation_matrix(TWO_CONSTANTS)
    assert verify_bracket_axioms(
        parse_bracket(BRACKET_OVER_TWO_CONSTANTS, x)).passed
    assert run(command + ["--biquandle", "nb.biq"]) == 1
    out, err = capsys.readouterr()
    assert err == "error: biquandle fails axioms: 5 violations, first " \
        "under-column at (1,) (vknotoid biquandle check lists them)\n"
    assert "ok:" not in out
    # the one command that reads the table unchecked lists the violations
    assert run(["biquandle", "check", "nb.biq"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("violation: axiom ") for line in lines)


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


def test_search_help_says_what_the_budget_bounds(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["search", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--budget BUDGET most assignments to examine (default 1000000)" \
        in text
    assert "pair solutions of each delta come first and are not bounded" \
        in text
