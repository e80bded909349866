"""Command line front end.

Exit codes are a stable contract: 0 success, 1 invariant/axiom failure,
2 input error, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
import time
from pathlib import Path

from . import __version__
from .biquandle import (BiquandleError, FiniteBiquandle, alexander_biquandle,
                        parse_operation_matrix, render_operation_matrix,
                        verify_biquandle_axioms)
from .bracket import (BracketError, VirtualBracket, fundamental_bracket,
                      invariants, parse_bracket, render_bracket,
                      render_symbolic, verify_bracket_axioms)
from .diagram import (DiagramError, KnotoidDiagram, insert_move, parse_diagram,
                      render_diagram, writhe)
from .ring import RingError, poly_render
from .search import SearchConfig, search_brackets

OK, FAIL, INPUT_ERROR, BUDGET = 0, 1, 2, 3


def _manifest(args: argparse.Namespace, started: float,
              inputs: list[str]) -> dict:
    return {
        "command": args.command,
        "inputs": inputs,
        "config": {k: v for k, v in vars(args).items()
                   if k not in ("func", "command") and v is not None},
        "version": __version__,
        "wall_time_s": round(time.time() - started, 6),
    }


class CliExit(Exception):
    """Ends a command with ``code`` after printing the message to stderr."""

    def __init__(self, message: str, code: int = INPUT_ERROR):
        super().__init__(message)
        self.code = code


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliExit("cannot read %s: %s" % (path, exc))


def _load_biquandle(path: str) -> FiniteBiquandle:
    try:
        return parse_operation_matrix(_read(path))
    except BiquandleError as exc:
        raise CliExit("bad biquandle file %s: %s" % (path, exc))


def _verified_biquandle(path: str) -> FiniteBiquandle:
    """A table that the colorings may rely on: every axiom checked."""
    x = _load_biquandle(path)
    report = verify_biquandle_axioms(x)
    if not report.passed:
        raise CliExit("biquandle fails axioms: %s" % report, FAIL)
    return x


def _load_diagram(path: str) -> KnotoidDiagram:
    try:
        return parse_diagram(_read(path), name=Path(path).stem)
    except DiagramError as exc:
        raise CliExit("bad diagram file %s: %s" % (path, exc))


def _load_bracket(path: str, x: FiniteBiquandle) -> VirtualBracket:
    try:
        return parse_bracket(_read(path), x)
    except (BracketError, RingError, ValueError) as exc:
        raise CliExit("bad bracket file %s: %s" % (path, exc))


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
    x = _load_biquandle(args.file)
    report = verify_biquandle_axioms(x)
    if report.passed:
        print("ok: %d-element biquandle, all axioms hold" % x.n)
        return OK
    for axiom, witness in report.violations:
        print("violation: axiom %s at %s" % (axiom, witness))
    return FAIL


def cmd_biquandle_alexander(args) -> int:
    try:
        x = alexander_biquandle(args.modulus, args.t, args.r,
                                shift_under=args.shift_under,
                                shift_over=args.shift_over)
    except (BiquandleError, RingError, ValueError) as exc:
        raise CliExit(str(exc))
    report = verify_biquandle_axioms(x)
    _emit(render_operation_matrix(x), args.out)
    if not report.passed:
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
    buf = io.StringIO()
    fields = ["name", "classical_crossings", "virtual_crossings", "writhe",
              "counting_invariant"]
    extra = ["status"] if any("status" in r for r in records) else []
    n = len(records[0]["counting_matrix"]) if records else 0
    mat_fields = ["M_%d_%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    has_bracket = any("bracket_matrix" in r for r in records)
    bfields = (["bracket_polynomial"]
               + ["MB_%d_%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
               ) if has_bracket else []
    writer = csv.writer(buf)
    writer.writerow(fields + extra + mat_fields + bfields)
    for rec in records:
        row = [rec[f] for f in fields] + [rec.get("status", "") for _ in extra]
        row += [rec["counting_matrix"][i][j] for i in range(n) for j in range(n)]
        if has_bracket:
            row.append(rec.get("bracket_polynomial", ""))
            mb = rec.get("bracket_matrix")
            row += [mb[i][j] if mb else "" for i in range(n) for j in range(n)]
        writer.writerow(row)
    return buf.getvalue()


def _verified_bracket(args, x: FiniteBiquandle) -> VirtualBracket | None:
    if not getattr(args, "bracket", None):
        return None
    br = _load_bracket(args.bracket, x)
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
    rec = _invariant_record(d, x, br)
    if args.format == "json":
        payload = {"manifest": _manifest(args, started,
                                         [args.diagram, args.biquandle]
                                         + ([args.bracket] if args.bracket else [])),
                   "results": [rec]}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit(_format_csv([rec]), args.out)
    else:
        _emit(_format_text(rec), args.out)
    return OK


def _statuses(path: Path) -> dict[str, str]:
    """Diagram name -> status from a corpus manifest, if there is one."""
    if not path.exists():
        return {}
    try:
        manifest = json.loads(_read(path))
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
    records, errors = [], []
    for path in sorted(root.glob("*.knd")):
        try:
            d = parse_diagram(path.read_text(encoding="utf-8"), name=path.stem)
        except (OSError, UnicodeDecodeError, DiagramError) as exc:
            errors.append("%s: %s" % (path.name, exc))
            continue
        rec = _invariant_record(d, x, br)
        rec["status"] = statuses.get(path.stem, "unlisted")
        records.append(rec)
    for err in errors:
        print("error: %s" % err, file=sys.stderr)
    payload = {"manifest": _manifest(args, started, [str(root)]),
               "results": records, "errors": errors}
    if args.format == "csv":
        _emit(_format_csv(records), args.out)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
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
    for k, br in enumerate(result.brackets):
        text = render_bracket(br)
        if outdir:
            _write(outdir / ("bracket_%03d.bvb" % k), text)
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
                                sign=1 if args.sign >= 0 else -1,
                                over_first=not args.under_first,
                                parallel=not args.antiparallel)
    except DiagramError as exc:
        raise CliExit(str(exc))
    _emit(render_diagram(rewritten), args.out)
    return OK


def cmd_bracket_check(args) -> int:
    x = _load_biquandle(args.biquandle)
    br = _load_bracket(args.file, x)
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
    print("states: %d" % len(sym.terms))
    print(render_symbolic(sym))
    return OK


# -- argument parsing -----------------------------------------------------------

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
    p.set_defaults(func=cmd_biquandle_check, command="biquandle check")
    p = bqsub.add_parser("alexander", help="emit an affine biquandle table")
    p.add_argument("modulus", type=int)
    p.add_argument("t", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--shift-under", type=int, default=0)
    p.add_argument("--shift-over", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_biquandle_alexander, command="biquandle alexander")

    p = sub.add_parser("invariants", help="compute invariants of one diagram")
    p.add_argument("diagram")
    p.add_argument("--biquandle", required=True)
    p.add_argument("--bracket")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_invariants, command="invariants")

    p = sub.add_parser("corpus", help="tabulate invariants for a directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--biquandle", required=True)
    p.add_argument("--bracket")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_corpus, command="corpus")

    p = sub.add_parser("selftest", help="randomized move-invariance check")
    p.add_argument("diagram")
    p.add_argument("--biquandle", required=True)
    p.add_argument("--bracket")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest, command="selftest")

    p = sub.add_parser("search", help="search brackets over a prime field")
    p.add_argument("--biquandle", required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--ansatz", choices=["diagonal", "full"], default="diagonal")
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--require-delta-unit", action="store_true")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_search, command="search")

    mv = sub.add_parser("moves", help="Reidemeister move rewrites")
    mvsub = mv.add_subparsers(dest="subcommand", required=True)
    p = mvsub.add_parser("insert", help="insert a move at token gaps")
    p.add_argument("diagram")
    p.add_argument("--move", choices=["R1", "VR1", "R2", "VR2"], required=True)
    p.add_argument("--gap", type=int, required=True)
    p.add_argument("--gap2", type=int)
    p.add_argument("--sign", type=int, default=1)
    p.add_argument("--under-first", action="store_true")
    p.add_argument("--antiparallel", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_moves_insert, command="moves insert")

    brk = sub.add_parser("bracket", help="bracket utilities")
    brksub = brk.add_subparsers(dest="subcommand", required=True)
    p = brksub.add_parser("check", help="verify bracket axioms")
    p.add_argument("file")
    p.add_argument("--biquandle", required=True)
    p.set_defaults(func=cmd_bracket_check, command="bracket check")
    p = brksub.add_parser("fundamental", help="print the symbolic state sum")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_bracket_fundamental, command="bracket fundamental")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliExit as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
