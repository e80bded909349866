"""Command line front end.

Exit codes are a stable contract: 0 success, 1 invariant/axiom failure,
2 input error (running out of memory and an output closed by its reader
count as one), 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import os
import random
import sys
import time
from pathlib import Path

from . import __version__
from ._reader import read_input
from .biquandle import (BiquandleError, FiniteBiquandle, alexander_biquandle,
                        axiom_verdict, axiom_violations,
                        parse_operation_matrix, render_operation_matrix)
from .bracket import (BracketError, VirtualBracket, fundamental_bracket,
                      invariants, parse_bracket, render_bracket,
                      symbolic_terms, verify_bracket_axioms)
from .diagram import (DiagramError, KnotoidDiagram, insert_move, parse_diagram,
                      render_diagram, writhe)
from .ring import RingError, poly_render
from .search import SearchConfig, search_brackets

OK, FAIL, INPUT_ERROR, BUDGET = 0, 1, 2, 3


class CliExit(Exception):
    """Ends a command with ``code`` after printing the message to stderr."""

    def __init__(self, message: str, code: int = INPUT_ERROR):
        super().__init__(message)
        self.code = code


def _load(path: str, what: str, parse, *args, **kwargs):
    """``parse`` of the file's text, read as every input file is read; a
    file that cannot be read or parsed is an input error naming it."""
    try:
        text = read_input(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliExit("cannot read %s: %s" % (path, exc))
    try:
        return parse(text, *args, **kwargs)
    except (BiquandleError, BracketError, DiagramError, RingError) as exc:
        raise CliExit("bad %s file %s: %s" % (what, path, exc))


def _stem(path: str) -> str:
    """``Path(path).stem`` for a path that names a readable file, whose last
    component is its base name: the name up to its last dot, unless that dot
    leads it or ends it."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def _verified_biquandle(path: str) -> FiniteBiquandle:
    """A table that colorings and brackets may rely on: every axiom checked.
    Every ``--biquandle`` is read through here; only ``biquandle check``
    reads a table without it, to list the violations.  A failing table is
    named by its count and first violation only; a random n = 37 table has
    some 10^5 of them, and none is held."""
    x = _load(path, "biquandle", parse_operation_matrix)
    count, first = axiom_verdict(x)
    if count:
        raise CliExit("biquandle fails axioms: %d violations, first %s at %s "
                      "(vknotoid biquandle check lists them)"
                      % (count, *first), FAIL)
    return x


def _load_diagram(path: str) -> KnotoidDiagram:
    return _load(path, "diagram", parse_diagram, name=_stem(path))


def _write(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliExit("cannot write %s: %s" % (path, exc))


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


# -- subcommands ----------------------------------------------------------------

def cmd_biquandle_check(args) -> int:
    x = _load(args.file, "biquandle", parse_operation_matrix)
    code = OK
    for axiom, witness in axiom_violations(x):     # written as found
        print("violation: axiom %s at %s" % (axiom, witness))
        code = FAIL
    if code == OK:
        print("ok: %d-element biquandle, all axioms hold" % x.n)
    return code


def cmd_biquandle_alexander(args) -> int:
    try:
        x = alexander_biquandle(args.modulus, args.t, args.r,
                                shift_under=args.shift_under,
                                shift_over=args.shift_over)
    except (BiquandleError, RingError, ValueError) as exc:
        raise CliExit(str(exc))
    count, _ = axiom_verdict(x)
    _emit(render_operation_matrix(x), args.out)
    if count:
        print("warning: table does not satisfy the axioms", file=sys.stderr)
        return FAIL
    return OK


def _invariant_record(d: KnotoidDiagram, x: FiniteBiquandle,
                      br: VirtualBracket | None) -> dict:
    inv = invariants(d, x, br)
    rec = {
        "name": d.name,
        "classical_crossings": d.classical_count,
        "virtual_crossings": d.virtual_count,
        "writhe": writhe(d),
        "counting_invariant": inv.counting_invariant,
        "counting_matrix": inv.counting_matrix,
    }
    if br is not None:
        rec["bracket_polynomial"] = poly_render(inv.bracket_polynomial)
        rec["bracket_matrix"] = [[poly_render(p) for p in row]
                                 for row in inv.bracket_matrix]
    return rec


def _format_text(rec: dict) -> str:
    buf = [
        "name: %s" % rec["name"],
        "crossings: %d classical, %d virtual, writhe %d"
        % (rec["classical_crossings"], rec["virtual_crossings"], rec["writhe"]),
        "colorings: %d" % rec["counting_invariant"],
        "counting matrix:",
    ]
    for row in rec["counting_matrix"]:
        buf.append("  " + " ".join("%3d" % v for v in row))
    if "bracket_polynomial" in rec:
        buf.append("bracket polynomial: %s" % rec["bracket_polynomial"])
        buf.append("bracket matrix:")
        width = max(len(s) for row in rec["bracket_matrix"] for s in row)
        for row in rec["bracket_matrix"]:
            buf.append("  " + "  ".join(s.rjust(width) for s in row))
    return "\n".join(buf) + "\n"


def _format_csv(records: list[dict]) -> str:
    # every record of one table has the same keys, so the first decides the
    # status and bracket columns
    keys = records[0].keys() if records else ()
    n = len(records[0]["counting_matrix"]) if records else 0
    cells = [(i, j) for i in range(n) for j in range(n)]
    fields = ["name", "classical_crossings", "virtual_crossings", "writhe",
              "counting_invariant"] + (["status"] if "status" in keys else [])
    has_bracket = "bracket_matrix" in keys
    header = fields + ["M_%d_%d" % (i + 1, j + 1) for i, j in cells]
    if has_bracket:
        header += ["bracket_polynomial"] + ["MB_%d_%d" % (i + 1, j + 1)
                                            for i, j in cells]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for rec in records:
        row = [rec[f] for f in fields]
        row += [rec["counting_matrix"][i][j] for i, j in cells]
        if has_bracket:
            row.append(rec["bracket_polynomial"])
            row += [rec["bracket_matrix"][i][j] for i, j in cells]
        writer.writerow(row)
    return buf.getvalue()


def _table(args: argparse.Namespace, started: float, inputs: list[str],
           records: list[dict], **extra) -> None:
    """The one place a table is written, to ``--out`` or stdout: the records
    as text, as CSV, or as JSON after a manifest of the run and before the
    ``extra`` keys."""
    if args.format == "csv":
        text = _format_csv(records)
    elif args.format == "text":
        text = "".join(map(_format_text, records))
    else:
        manifest = {
            "command": args.command,
            "inputs": inputs,
            "config": {k: v for k, v in vars(args).items()
                       if k not in ("func", "command") and v is not None},
            "version": __version__,
            "wall_time_s": round(time.time() - started, 6),
        }
        text = json.dumps({"manifest": manifest, "results": records, **extra},
                          indent=2) + "\n"
    _emit(text, args.out)


def _verified_bracket(args, x: FiniteBiquandle) -> VirtualBracket | None:
    if not args.bracket:
        return None
    br = _load(args.bracket, "bracket", parse_bracket, x)
    if not args.no_verify:
        report = verify_bracket_axioms(br)
        if not report.passed:
            raise CliExit("bracket fails %d axiom instances (use --no-verify "
                          "to force)" % len(report.violations), FAIL)
    return br


def cmd_invariants(args) -> int:
    started = time.time()
    x = _verified_biquandle(args.biquandle)
    d = _load_diagram(args.diagram)
    br = _verified_bracket(args, x)
    _table(args, started,
           [p for p in (args.diagram, args.biquandle, args.bracket) if p],
           [_invariant_record(d, x, br)])
    return OK


def _statuses(path: Path) -> dict[str, str]:
    """File stem -> status from a corpus manifest, if there is one.  The
    manifest is absent where ``Path.exists`` finds nothing: no entry, or a
    link to none or to itself."""
    try:
        text = read_input(path)
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, OSError) and exc.errno in (errno.ENOENT,
                                                      errno.ELOOP):
            return {}
        raise CliExit("cannot read %s: %s" % (path, exc))
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        raise CliExit("bad manifest %s: %s" % (path, exc))
    if not (isinstance(manifest, dict)
            and all(isinstance(v, dict) for v in manifest.values())):
        raise CliExit("bad manifest %s: expected an object of objects" % path)
    return {k: v.get("status", "") for k, v in manifest.items()}


def cmd_corpus(args) -> int:
    started = time.time()
    x = _verified_biquandle(args.biquandle)
    br = _verified_bracket(args, x)
    root = Path(args.dir)
    if not root.is_dir():
        raise CliExit("not a directory: %s" % root)
    statuses = _statuses(root / "manifest.json")
    # every entry whose name ends in ".knd", dot files and directories too,
    # in name order; a path is spelled as pathlib spells root / name (no
    # "./" under "."), since a read error names it, and a directory that
    # cannot be listed has no entries
    prefix = "" if str(root) == "." else os.path.join(root, "")
    try:
        names = sorted([n for n in os.listdir(root) if n.endswith(".knd")])
    except PermissionError:
        names = []
    records, errors = [], []
    for name in names:
        stem = _stem(name)
        try:
            d = parse_diagram(read_input(prefix + name), name=stem)
        except (OSError, UnicodeDecodeError, DiagramError) as exc:
            errors.append("%s: %s" % (name, exc))
            continue
        rec = _invariant_record(d, x, br)
        rec["status"] = statuses.get(stem, "unlisted")
        records.append(rec)
    for err in errors:
        print("error: %s" % err, file=sys.stderr)
    _table(args, started, [str(root)], records, errors=errors)
    return OK


def cmd_selftest(args) -> int:
    if args.trials < 0:
        raise CliExit("--trials must be at least 0, not %d" % args.trials)
    x = _verified_biquandle(args.biquandle)
    d = _load_diagram(args.diagram)
    br = _verified_bracket(args, x)
    rng = random.Random(args.seed)
    base = invariants(d, x, br)
    for trial in range(args.trials):
        move = rng.choice(["R1", "VR1", "R2", "VR2"])
        gap = rng.randint(0, len(d.passes))
        gap2 = rng.randint(0, len(d.passes)) if move in ("R2", "VR2") else None
        rewritten = insert_move(
            d, move, gap, gap2,
            sign=rng.choice([1, -1]),
            over_first=rng.choice([True, False]),
            parallel=rng.choice([True, False]))
        if invariants(rewritten, x, br) != base:
            print("FAIL at trial %d (%s): rewritten code below" % (trial, move))
            print(render_diagram(rewritten))
            return FAIL
    print("ok: %d random move insertions preserved all invariants" % args.trials)
    return OK


def cmd_search(args) -> int:
    x = _verified_biquandle(args.biquandle)
    try:
        cfg = SearchConfig(modulus=args.modulus, ansatz=args.ansatz,
                           budget=args.budget, seed=args.seed,
                           require_delta_unit=args.require_delta_unit)
    except ValueError as exc:
        raise CliExit(str(exc))
    outdir = Path(args.out_dir) if args.out_dir else None
    if outdir:
        # before the search, which can take seconds
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliExit("cannot write %s: %s" % (outdir, exc))
    result = search_brackets(x, cfg)
    # indices padded to the width of the last one, so that the names sort in
    # solution order
    width = max(3, len(str(len(result.brackets) - 1)))
    for k, br in enumerate(result.brackets):
        text = render_bracket(br)
        if outdir:
            _write(outdir / ("bracket_%0*d.bvb" % (width, k)), text)
        print("solution %d: p=%d delta=%d omega=%d ansatz=%s"
              % (k, cfg.modulus, br.delta, br.omega, cfg.ansatz))
        if not outdir:
            sys.stdout.write(text)
    print("searched %d nodes, %d solution(s)%s"
          % (result.nodes, len(result.brackets),
             ", budget exhausted" if result.exhausted else ""))
    return BUDGET if result.exhausted else OK


def cmd_moves_insert(args) -> int:
    d = _load_diagram(args.diagram)
    try:
        rewritten = insert_move(d, args.move, args.gap, args.gap2,
                                sign=args.sign,
                                over_first=not args.under_first,
                                parallel=not args.antiparallel)
    except DiagramError as exc:
        raise CliExit(str(exc))
    _emit(render_diagram(rewritten), args.out)
    return OK


def cmd_bracket_check(args) -> int:
    x = _verified_biquandle(args.biquandle)
    br = _load(args.file, "bracket", parse_bracket, x)
    report = verify_bracket_axioms(br)
    if report.passed:
        print("ok: bracket satisfies all 23 equation families")
        return OK
    families = sorted({a for a, _ in report.violations}, key=int)
    print("bracket fails %d instances in families %s"
          % (len(report.violations), ", ".join(families)))
    for axiom, witness in report.violations[:20]:
        print("  equation %s at %s" % (axiom, witness))
    if len(report.violations) > 20:
        print("  ... %d more" % (len(report.violations) - 20))
    return FAIL


def cmd_bracket_fundamental(args) -> int:
    d = _load_diagram(args.diagram)
    sym = fundamental_bracket(d)
    # the terms joined by " + ", written one by one as they are rendered
    terms = symbolic_terms(sym)
    write = sys.stdout.write
    write("states: %d\n%s" % (len(sym.components), next(terms)))
    for term in terms:
        write(" + " + term)
    write("\n")
    return OK


# -- argument parsing -----------------------------------------------------------

def _table_options(p: argparse.ArgumentParser) -> None:
    """The table, and the bracket over it, of a command that computes
    invariants."""
    p.add_argument("--biquandle", required=True)
    p.add_argument("--bracket")
    p.add_argument("--no-verify", action="store_true")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused for the life of the
    process; ``parse_args`` returns a fresh namespace on every call."""
    ap = argparse.ArgumentParser(
        prog="vknotoid",
        description="Biquandle invariants of virtual knotoids")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    bq = sub.add_parser("biquandle", help="biquandle utilities")
    bqsub = bq.add_subparsers(dest="subcommand", required=True)
    p = bqsub.add_parser("check", help="verify the axioms of a table file")
    p.add_argument("file")
    p.set_defaults(func=cmd_biquandle_check)
    p = bqsub.add_parser("alexander", help="emit an affine biquandle table")
    p.add_argument("modulus", type=int)
    p.add_argument("t", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--shift-under", type=int, default=0)
    p.add_argument("--shift-over", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_biquandle_alexander)

    p = sub.add_parser("invariants", help="compute invariants of one diagram")
    p.add_argument("diagram")
    _table_options(p)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser(
        "corpus", help="tabulate invariants for a directory",
        description="Tabulate the invariants of every *.knd file in --dir, in "
        "name order.  A record's name is its file's name line, or the file's "
        "stem if it has none.  Its status is the entry for the file's stem in "
        "--dir/manifest.json, or 'unlisted' if there is none, so a file whose "
        "name line differs from its stem takes its stem's status.")
    p.add_argument("--dir", required=True)
    _table_options(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("selftest", help="randomized move-invariance check")
    p.add_argument("diagram")
    _table_options(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("search", help="search brackets over a prime field")
    p.add_argument("--biquandle", required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--ansatz", choices=["diagonal", "full"],
                   default=SearchConfig.ansatz)
    p.add_argument("--budget", type=int, default=SearchConfig.budget,
                   help="most assignments to examine (default %(default)s); "
                   "a search that needs more stops and exits 3.  It counts "
                   "every assignment of the full enumeration, also those of a "
                   "subtree replayed as a scaled copy of one walked before.  "
                   "It bounds assignments only: the O(p^2) pair solutions of "
                   "each delta come first and are not bounded, so --modulus "
                   "1000003 runs until it is killed, whatever the budget")
    p.add_argument("--seed", type=int, default=SearchConfig.seed)
    p.add_argument("--require-delta-unit", action="store_true")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_search)

    mv = sub.add_parser("moves", help="Reidemeister move rewrites")
    mvsub = mv.add_subparsers(dest="subcommand", required=True)
    p = mvsub.add_parser("insert", help="insert a move at token gaps")
    p.add_argument("diagram")
    p.add_argument("--move", choices=["R1", "VR1", "R2", "VR2"], required=True)
    p.add_argument("--gap", type=int, required=True)
    p.add_argument("--gap2", type=int)
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--under-first", action="store_true")
    p.add_argument("--antiparallel", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_moves_insert)

    brk = sub.add_parser("bracket", help="bracket utilities")
    brksub = brk.add_subparsers(dest="subcommand", required=True)
    p = brksub.add_parser("check", help="verify bracket axioms")
    p.add_argument("file")
    p.add_argument("--biquandle", required=True)
    p.set_defaults(func=cmd_bracket_check)
    p = brksub.add_parser(
        "fundamental", help="print the symbolic state sum",
        description="Print the symbolic state sum: one term per state, 3^c "
        "terms for c classical crossings, written as they are rendered.  At "
        "c = 9 that is 19,683 terms (2 MB of text, 18 MB peak memory), at "
        "c = 11 177,147 terms (21 MB of text, 26 MB peak); each added "
        "crossing triples the output.")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_bracket_fundamental)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout, e.g. ``| head``; stdout goes to devnull so
        # that the interpreter's final flush fails silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed by its reader", file=sys.stderr)
        return INPUT_ERROR
    except CliExit as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except MemoryError:
        # an input too large for this machine, e.g. a huge table size
        print("error: out of memory", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
