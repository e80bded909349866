"""vknotoid benchmark: one workload per run, all in this one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from that
checkout's ``src/``.  A workload's job list comes from ``--seed`` alone and
does not depend on ``--seconds``.  The run executes the list in rounds for
about ``--seconds`` and times each job by the median over the rounds of its
time scaled to a reference machine speed (see speed.py).  Every job's
output in every round is checked (see checks.py).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the untraced rounds are followed
by one traced round, and the per-layer metrics are reported instead.
The lines before it are a report for people.  README.md says why each
workload exists.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
from speed import Speed
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 9
VIRTUAL = 2                                 # virtual crossings of a fresh code
# A run repeats the workload's job list in rounds for --seconds, at least
# MIN_ROUNDS, and times each job by the median of its calibrated times over
# the rounds.  The list is PASSES passes, fixed per workload, so a seed
# defines the same jobs at any --seconds; a pass is what wall_s times: every
# corpus call, one generated diagram's jobs, or the whole search list.
PASSES = {"corpus_table": 1, "fresh_codes": 33, "composite_codes": 17,
          "search_reference": 1}
MIN_ROUNDS = 2
WARM = {"corpus_table"}                     # the plan cache stays warm across rounds
FRESH_CODES = (7, 7, 8)                     # crossing number of pass p's diagram: [p % 3]
COMPOSITE_CODES = (9,) + (7,) * 16          # the same for composite_codes
SINGLETONS = {2: 4, 3: 8}                   # singleton searches per pass, by p
REFERENCE_MODULUS = 5
DIAGONAL_MODULUS = 3
DIAGONAL_SEARCHES = 20                      # per pass
# The self-test's small version of each workload.
TINY_CODES = {"fresh_codes": {4: 1, 5: 1}, "composite_codes": {5: 1, 6: 1}}
TINY_SINGLETONS = {2: 1, 3: 1}
TINY_BRACKETS = 2
TINY_REFERENCE_MODULUS = 3
TINY_DIAGONAL_MODULUS = 2

BRACKET_JOB = ("z3_involution", "z5_involution")   # (biquandle, bracket)
COUNT_JOB = ("z5_alexander", None)
WORKLOADS = tuple(PASSES)


@dataclass
class Job:
    id: str
    kind: str                      # "cli" or "search"
    code: str                      # what the job computes, for the report
    key: str = ""                  # golden-digest key
    argv: list[str] = field(default_factory=list)
    biquandle: str = ""
    bracket: str | None = None     # bracket file
    no_verify: bool = False
    diagram: object = None         # input of an invariants job
    path: str = ""                 # its file
    oracle: tuple = ()             # ("product", a, b) or ("moved", origin)
    modulus: int = 0               # search jobs
    ansatz: str = ""
    seed: int = 0


# -- set-up --------------------------------------------------------------------------

def import_vknotoid():
    """Import the package from this checkout's src/, first dropping a copy
    that an earlier set-up imported, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "vknotoid"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    vk = importlib.import_module("vknotoid")
    for sub in ("cli", "data"):
        importlib.import_module("vknotoid." + sub)
    if Path(vk.__file__).resolve().parent != SRC / "vknotoid":
        raise ImportError("vknotoid was not imported from %s" % SRC)
    return vk


@dataclass
class Setup:
    vk: object
    biquandles: dict
    corpus: dict
    manifest: dict
    passes: list = field(default_factory=list)
    inputs: list = field(default_factory=list)     # diagrams the jobs evaluate
    fresh: dict = field(default_factory=dict)      # crossing number -> iterator of codes
    failures: list = field(default_factory=list)


def biquandle_path(vk, name: str) -> str:
    return str(vk.data.data_dir() / "biquandles" / (name + ".biq"))


def bundled_bracket_path(vk, name: str) -> str:
    return str(vk.data.data_dir() / "brackets" / (name + ".bvb"))


def setup(workload: str, seed: int, npasses: int, tiny: bool, tr: Tracer,
          workdir: Path) -> Setup:
    vk = import_vknotoid()
    with tr.span("data.load"):
        st = Setup(vk, {n: vk.data.load_biquandle(n) for n in
                        ("z3_involution", "z3_shift", "z3_coloring", "z5_alexander")},
                   {n: vk.data.load_corpus(n) for n in vk.data.corpus_names()},
                   vk.data.corpus_manifest())
    rng = random.Random(seed)
    if workload == "corpus_table":
        files = sorted((BENCH / "brackets").glob("*.bvb"))[:TINY_BRACKETS if tiny else None]
        for path in files:
            with tr.span("data.load"):
                br = vk.bracket.parse_bracket(path.read_text(encoding="utf-8"),
                                              st.biquandles["z3_involution"])
            with tr.span("bracket.verify") as span:
                span[5] = checks.axiom_instances(br)
                if not vk.bracket.verify_bracket_axioms(br).passed:
                    st.failures.append("committed bracket %s fails the axioms" % path.name)
        st.inputs = list(st.corpus.values())
        st.passes = [corpus_pass(vk, rng, p, files) for p in range(npasses)]
    elif workload == "search_reference":
        st.passes = [search_pass(rng, p, tiny) for p in range(npasses)]
    else:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        cycle = FRESH_CODES if workload == "fresh_codes" else COMPOSITE_CODES
        plans = [TINY_CODES[workload] if tiny else {cycle[p % len(cycle)]: 1}
                 for p in range(npasses)]
        if workload == "fresh_codes":
            # codes are drawn per crossing number for the whole list at once,
            # so that inputs.fresh_codes can stratify them by width
            need: dict[int, int] = {}
            for plan in plans:
                for c, count in plan.items():
                    need[c] = need.get(c, 0) + count
            with tr.span("diagram.build"):
                st.fresh = {c: iter(inputs.fresh_codes(vk, rng, c, VIRTUAL, count))
                            for c, count in sorted(need.items())}
        st.passes = [code_pass(st, workload, rng, p, plan, tr, workdir)
                     for p, plan in enumerate(plans)]
    return st


def corpus_pass(vk, rng: random.Random, p: int, files) -> list[Job]:
    """One `corpus` call per committed bracket, one with the bundled z37_shift
    data (not a valid bracket, hence --no-verify), two counting-only."""
    configs = [("z3_involution", str(f), False) for f in files]
    configs += [("z3_shift", bundled_bracket_path(vk, "z37_shift"), True),
                ("z5_alexander", None, False), ("z3_coloring", None, False)]
    jobs = []
    for biq, bracket, no_verify in configs:
        argv = ["corpus", "--dir", str(vk.data.corpus_dir()),
                "--biquandle", biquandle_path(vk, biq)]
        argv += ["--bracket", bracket] if bracket else []
        argv += ["--no-verify"] if no_verify else []
        key = checks.corpus_key(biq, bracket, no_verify)
        jobs.append(Job("p%d %s" % (p, key), "cli", key, key, argv, biq, bracket,
                        no_verify))
    rng.shuffle(jobs)
    return jobs


def code_pass(st: Setup, workload: str, rng: random.Random, p: int, plan: dict,
              tr: Tracer, workdir: Path) -> list[Job]:
    """Per generated diagram an `invariants` job with the bundled valid
    bracket over z3_involution and, except for moved corpus diagrams, a
    counting-only job over z5_alexander."""
    vk = st.vk
    jobs = []
    for c, count in sorted(plan.items()):
        for i in range(count):
            name = "p%dc%di%d" % (p, c, i)
            with tr.span("diagram.build"):
                if workload == "fresh_codes":
                    d, oracle = next(st.fresh[c]), ()
                elif (i + p) % 2 == 0:
                    d, (a, b) = inputs.corpus_product(vk, rng, st.corpus, c)
                    oracle = ("product", a, b)
                else:
                    d, origin = inputs.inflated(vk, rng, st.corpus, c)
                    oracle = ("moved", origin)
                d = vk.diagram.KnotoidDiagram(name, d.passes)
            text = vk.diagram.render_diagram(d)
            path = workdir / (name + ".knd")
            path.write_text(text, encoding="utf-8")
            st.inputs.append(d)
            # a moved diagram's oracle needs only the bracket job's record
            for biq, bracket in (BRACKET_JOB,) if oracle[:1] == ("moved",) \
                    else (BRACKET_JOB, COUNT_JOB):
                argv = ["invariants", str(path), "--biquandle", biquandle_path(vk, biq),
                        "--format", "json"]
                bpath = bundled_bracket_path(vk, bracket) if bracket else None
                argv += ["--bracket", bpath] if bracket else []
                jobs.append(Job("%s %s" % (name, biq), "cli", text.split()[-1],
                                checks.invariants_key(biq, bracket, text), argv, biq,
                                bpath, diagram=d, path=str(path), oracle=oracle))
    rng.shuffle(jobs)
    return jobs


def search_pass(rng: random.Random, p: int, tiny: bool) -> list[Job]:
    """The reference search first, then, in a seeded order, z3_involution
    searches at a smaller modulus, whose many jobs spread over the run and
    hold the job percentiles, and singleton full searches.  All but the
    reference search draw their value order from the seed; no solution set
    depends on it."""
    ref = TINY_REFERENCE_MODULUS if tiny else REFERENCE_MODULUS
    key = checks.search_key("z3_involution", ref, "diagonal")
    jobs = [Job("p%d reference" % p, "search", key, key, biquandle="z3_involution",
                modulus=ref, ansatz="diagonal", seed=1)]
    modulus, count = (TINY_DIAGONAL_MODULUS, 1) if tiny else (DIAGONAL_MODULUS, DIAGONAL_SEARCHES)
    key = checks.search_key("z3_involution", modulus, "diagonal")
    for i in range(count):
        seed = rng.randrange(10 ** 6)
        jobs.append(Job("p%d diagonal.%d" % (p, i), "search", "%s seed=%d" % (key, seed),
                        key, biquandle="z3_involution", modulus=modulus,
                        ansatz="diagonal", seed=seed))
    for q, count in sorted((TINY_SINGLETONS if tiny else SINGLETONS).items()):
        for i in range(count):
            seed = rng.randrange(10 ** 6)
            jobs.append(Job("p%d singleton%d.%d" % (p, q, i), "search",
                            "singleton p=%d full seed=%d" % (q, seed),
                            biquandle="singleton", modulus=q, ansatz="full", seed=seed))
    rest = jobs[1:]
    rng.shuffle(rest)
    return jobs[:1] + rest


# -- running jobs ----------------------------------------------------------------------

def search(st: Setup, job: Job) -> dict:
    vk = st.vk
    x = (vk.biquandle.FiniteBiquandle(((0,),), ((0,),)) if job.biquandle == "singleton"
         else st.biquandles[job.biquandle])
    cfg = vk.search.SearchConfig(modulus=job.modulus, ansatz=job.ansatz, seed=job.seed)
    return {"rc": 0, "search": vk.search.search_brackets(x, cfg)}


def run_untraced(st: Setup, job: Job) -> tuple[float, dict]:
    """Invariant jobs go through the command line entry point in this
    process; search jobs call the search directly."""
    if job.kind == "search":
        t0 = time.perf_counter()
        out = search(st, job)
        return time.perf_counter() - t0, out
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        rc = st.vk.cli.main(job.argv)
    dt = time.perf_counter() - t0
    if rc != 0:
        return dt, {"rc": rc, "stderr": stderr.getvalue()}
    payload = json.loads(stdout.getvalue())
    return dt, {"rc": rc, "results": payload["results"],
                "errors": payload.get("errors", [])}


class TracedRunner:
    """Runs jobs through the library's public functions, composed as the
    command line composes them, with a span around each layer call.  Layers
    that other layers call internally are traced by swapping the module
    attribute that the caller looks up."""

    def __init__(self, st: Setup, tr: Tracer):
        self.st, self.tr = st, tr
        self.job_spans: list[tuple[Job, int]] = []
        self.matrix_seen: set = set()
        self.evaluations = 0
        self.solutions = 0
        vk = st.vk
        tr.patch(vk.coloring, "enumerate_colorings", "coloring.enumerate",
                 lambda args, res: len(res))
        tr.patch(vk.bracket, "enumerate_states", "bracket.states",
                 lambda args, res: len(res))
        tr.patch(vk.search, "verify_bracket_axioms", "bracket.verify",
                 lambda args, res: checks.axiom_instances(args[0]))

    def close(self) -> None:
        self.tr.unpatch()

    def load(self, job: Job):
        vk, tr = self.st.vk, self.tr
        with tr.span("data.load"):
            x = vk.biquandle.parse_operation_matrix(
                Path(biquandle_path(vk, job.biquandle)).read_text(encoding="utf-8"))
            br = None
            if job.bracket:
                br = vk.bracket.parse_bracket(Path(job.bracket).read_text(encoding="utf-8"), x)
        if br is not None and not job.no_verify:
            with tr.span("bracket.verify") as span:
                span[5] = checks.axiom_instances(br)
                if not vk.bracket.verify_bracket_axioms(br).passed:
                    raise RuntimeError("bracket fails the axioms")
        return x, br

    def parse(self, path: Path):
        with self.tr.span("diagram.parse"):
            return self.st.vk.diagram.parse_diagram(path.read_text(encoding="utf-8"),
                                                    name=path.stem)

    def record(self, d, x, br) -> dict:
        """The same record as the command line's, layer by layer."""
        vk, tr = self.st.vk, self.tr
        rec = {"name": d.name, "classical_crossings": d.classical_count,
               "virtual_crossings": d.virtual_count, "writhe": vk.diagram.writhe(d)}
        with tr.span("coloring.count"):
            rec["counting_invariant"] = vk.coloring.counting_invariant(d, x)
        with tr.span("coloring.count"):
            rec["counting_matrix"] = vk.coloring.counting_matrix(d, x)
        if br is None:
            return rec
        with tr.span("bracket.polynomial"):
            poly = vk.bracket.bracket_polynomial(d, x, br)
        cold = d.passes not in self.matrix_seen
        self.matrix_seen.add(d.passes)
        with tr.span("bracket.matrix_cold" if cold else "bracket.matrix_warm"):
            mat = vk.bracket.bracket_matrix(d, x, br)
        self.evaluations += 2 * rec["counting_invariant"] * 3 ** d.classical_count
        with tr.span("ring.render") as span:
            rec["bracket_polynomial"] = vk.ring.poly_render(poly)
            rec["bracket_matrix"] = [[vk.ring.poly_render(q) for q in row] for row in mat]
            span[5] = 1 + len(mat) ** 2
        return rec

    def __call__(self, st: Setup, job: Job) -> tuple[float, dict]:
        vk, tr = st.vk, self.tr
        tr.job = job.id
        t0 = time.perf_counter()
        with tr.span("job"):
            self.job_spans.append((job, len(tr.spans) - 1))
            if job.kind == "search":
                with tr.span("search") as span:
                    out = search(st, job)
                    span[5] = out["search"].nodes
                self.solutions += len(out["search"].brackets)
            elif job.argv[0] == "invariants":
                x, br = self.load(job)
                with tr.span("biquandle.verify"):
                    if not vk.biquandle.verify_biquandle_axioms(x).passed:
                        raise RuntimeError("biquandle fails the axioms")
                records = [self.record(self.parse(Path(job.path)), x, br)]
            else:
                x, br = self.load(job)
                root = vk.data.corpus_dir()
                statuses = {k: v.get("status", "") for k, v in json.loads(
                    (root / "manifest.json").read_text()).items()}
                records = []
                for path in sorted(root.glob("*.knd")):
                    rec = self.record(self.parse(path), x, br)
                    rec["status"] = statuses.get(path.stem, "unlisted")
                    records.append(rec)
            if job.kind != "search":
                json.dumps({"results": records}, indent=2)
                out = {"rc": 0, "results": records, "errors": []}
        tr.job = ""
        return time.perf_counter() - t0, out


def reset_plan_cache(vk) -> None:
    """Forget the state plans that the untraced phase cached, so that the
    traced phase starts as cold as the untraced one did."""
    plans = getattr(vk.bracket, "_PLANS", None)
    if plans is not None:
        plans.clear()


# -- one run -------------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with ten samples or fewer, the smallest."""
    s = sorted(values)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s)


class Run:
    def __init__(self, st: Setup, checker: checks.Checker):
        self.st, self.checker = st, checker
        self.failures: list[str] = list(st.failures)
        self.attempted = len(st.failures)

    def execute(self, jobs: list[Job], runner, before_job=None) -> list[tuple[float, Job]]:
        """Run and check a pass; a job that raises or fails a check counts
        as failed.  Only the job itself is timed; ``before_job()`` is called
        before each job, outside the timing."""
        times = []
        for job in jobs:
            if before_job is not None:
                before_job()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                dt, out = runner(self.st, job)
            except Exception:
                times.append((time.perf_counter() - t0, job))
                self.failures.append("%s raised: %s" % (job.id, traceback.format_exc()))
                continue
            times.append((dt, job))
            problem = self.checker.check(job, out)
            if problem:
                self.failures.append("%s: %s" % (job.id, problem))
            del out          # the next job runs without this one's result
        return times


def timed_setup(workload: str, seed: int, npasses: int, tiny: bool, tr: Tracer,
                workdir: Path) -> tuple[float, Setup]:
    """Time one set-up.  Objects that earlier passes left on the heap are
    frozen meanwhile, so the collector does not traverse them, as it would
    not in a process that is only starting."""
    gc.freeze()
    try:
        t0 = time.perf_counter()
        st = setup(workload, seed, npasses, tiny, tr, workdir)
        return time.perf_counter() - t0, st
    finally:
        gc.unfreeze()


def median_of_rounds(rounds: list) -> list:
    """[round][pass][job] (time, job) to [pass][job]: each job with the
    median of its times over the rounds."""
    return [[(statistics.median(t for t, _ in tjs), tjs[0][1]) for tjs in zip(*passes)]
            for passes in zip(*rounds)]


def calibrated(rounds: list, speed: Speed, first: int = 0) -> list:
    """The rounds with each time scaled to the reference speed; the k-th
    job run of the rounds follows probe sample first + k."""
    out, k = [], first
    for passes in rounds:
        out.append([])
        for tjs in passes:
            out[-1].append([(t * speed.scale(k + i), job) for i, (t, job) in enumerate(tjs)])
            k += len(tjs)
    return out


def figures(passes: list) -> tuple[float, float, float, float]:
    """wall (geometric mean of the pass times), job median, job tail and
    its percentile."""
    times = [t for p in passes for t, _ in p]
    tail, tail_pct = tail_percentile(times)
    wall = statistics.geometric_mean(sum(t for t, _ in p) for p in passes)
    return wall, statistics.median(times), tail, tail_pct


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, log=sys.stdout) -> dict:
    npasses = PASSES[workload]
    workdir = WORK / ("%s-%d" % (workload, seed))
    speed = Speed()
    # Set-up is repeated between jobs, evenly over the run, so that its
    # median spans the run instead of one moment of the machine's speed.
    # Those repeats only time set-up: the run keeps the modules and inputs
    # of the first one.  Each set-up time goes with the probe sample after it.
    tr = Tracer(enabled=trace)
    try:
        first, st = timed_setup(workload, seed, npasses, tiny, tr, workdir)
        setups = [(first, 0)]
        modules = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "vknotoid"}
        start = time.perf_counter()
        marks = [start + i * seconds / (SETUP_REPEATS - 1) for i in range(SETUP_REPEATS - 1)]

        def repeat_setups(until: float) -> None:
            while marks and marks[0] <= until:
                marks.pop(0)
                setups.append((timed_setup(workload, seed, npasses, tiny,
                                           Tracer(enabled=False), workdir / "again")[0],
                               len(speed.took)))
                sys.modules.update(modules)

        def before_job() -> None:
            repeat_setups(time.perf_counter())
            speed.sample()

        run = Run(st, checks.Checker(st, json.loads(
            (BENCH / "golden.json").read_text(encoding="utf-8"))))
        # Another round starts while the time left holds one at the mean
        # round time so far; every run does at least MIN_ROUNDS.
        rounds = []
        while len(rounds) < MIN_ROUNDS or now + (now - start) / len(rounds) <= start + seconds:
            if workload not in WARM:
                reset_plan_cache(st.vk)
            rounds.append([run.execute(jobs, run_untraced, before_job) for jobs in st.passes])
            now = time.perf_counter()
        repeat_setups(math.inf)          # the set-ups of marks the rounds did not reach
        if trace:
            # the traced round starts as warm or cold as the untraced ones
            if workload not in WARM:
                reset_plan_cache(st.vk)
            first_traced = len(speed.took)
            runner = TracedRunner(st, tr)
            try:
                traced = [run.execute(jobs, runner, speed.sample) for jobs in st.passes]
            finally:
                runner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = median_of_rounds(rounds)
    jobs = [tj for p in raw for tj in p]
    cal = median_of_rounds(calibrated(rounds, speed))
    wall, p50, tail, tail_pct = figures(cal)
    raw_wall, raw_p50, raw_tail, _ = figures(raw)
    setup_times = [t * speed.scale(k) for t, k in setups]
    report(log, workload, seed, st, run, jobs, len(rounds), tail_pct)
    if trace:
        metrics = layer_metrics(log, st, tr, runner, [tj for p in cal for tj in p],
                                calibrated([traced], speed, first_traced)[0],
                                [speed.scale(first_traced + i)
                                 for i in range(len(runner.job_spans))], tail_pct)
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / ("trace-%s-%d.jsonl" % (workload, seed)))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "job_p50_ms": (1000 * p50, "ms"),
            "job_tail_ms": (1000 * tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        log.write("setup_s per set-up: %s\n" % " ".join("%.4f" % t for t in setup_times))
        log.write("round times: %s\n" % " ".join(
            "%.3f" % sum(t for p in r for t, _ in p) for r in rounds))
        log.write("probe ms: median %.3f, range %.3f-%.3f over %d samples\n"
                  % (1000 * statistics.median(speed.took), 1000 * min(speed.took),
                     1000 * max(speed.took), len(speed.took)))
        log.write("uncalibrated: setup_s %.4f wall_s %.4f job_p50_ms %.2f job_tail_ms %.2f\n"
                  % (statistics.median(t for t, _ in setups), raw_wall, 1000 * raw_p50,
                     1000 * raw_tail))
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# -- reporting -------------------------------------------------------------------------

def report(log, workload: str, seed: int, st: Setup, run: Run, jobs, nrounds: int,
           tail_pct: float):
    log.write("workload %s seed %d: %d passes, %d jobs, %d rounds\n"
              % (workload, seed, len(st.passes), len(jobs), nrounds))
    if st.inputs:
        hist: dict[int, int] = {}
        for d in st.inputs:
            hist[d.classical_count] = hist.get(d.classical_count, 0) + 1
        with_cut = sum(bool(inputs.cut_positions(d.passes)) for d in st.inputs)
        log.write("inputs: %d diagrams, crossings %s, with a cut %d (%.0f%%)\n"
                  % (len(st.inputs), " ".join("c=%d:%d" % kv for kv in sorted(hist.items())),
                     with_cut, 100.0 * with_cut / len(st.inputs)))
    log.write("job_tail_ms is the p%.1f of %d jobs; golden digests matched: %d\n"
              % (tail_pct, len(jobs), run.checker.golden_hits))
    log.write("fail_frac %d/%d = %.4f\n" % (len(run.failures), run.attempted,
                                             len(run.failures) / max(1, run.attempted)))
    for f in run.failures[:10]:
        log.write("FAILED %s\n" % f.rstrip())
    log.write("slowest jobs:\n")
    for t, job in sorted(jobs, key=lambda tj: -tj[0])[:10]:
        log.write("  %9.1f ms  %s  %s\n" % (1000 * t, job.id, job.code))


# Layer shares: self time of these spans over the time of all traced jobs.
SHARES = {
    "share.diagram": ("diagram.parse",),
    "share.coloring": ("coloring.count", "coloring.enumerate"),
    "share.plan": ("bracket.states",),
    "share.evaluation": ("bracket.polynomial", "bracket.matrix_cold",
                         "bracket.matrix_warm"),
    "share.verify": ("bracket.verify", "biquandle.verify"),
    "share.render": ("ring.render",),
    "share.search": ("search",),
    "share.data": ("data.load",),
    "share.cli": ("job",),
}


def layer_metrics(log, st: Setup, tr: Tracer, runner: TracedRunner, jobs, traced,
                  scales: list[float], tail_pct: float) -> dict:
    """Per-layer figures of the traced round.  ``jobs`` are the untraced
    jobs and ``traced`` the traced round's passes, both calibrated;
    ``scales`` are the traced jobs' calibration factors, which the
    comparisons of the two apply to the spans.  Span times are raw."""
    totals = tr.totals()
    in_jobs = tr.totals(jobs_only=True)

    def total(name, key="total_s"):
        return totals.get(name, {}).get(key, 0)

    def self_s(*names):
        return sum(in_jobs.get(n, {}).get("self_s", 0.0) for n in names)

    covered = tr.child_times()
    untraced = {job.id: t for t, job in jobs}
    spans = tr.spans
    cli_overhead = sum(untraced[job.id] - covered[k] * f
                       for (job, k), f in zip(runner.job_spans, scales))
    job_time = sum(spans[k][2] - spans[k][1] for _, k in runner.job_spans)
    eval_s = self_s(*SHARES["share.evaluation"])
    nodes = total("search", "count")
    search_s = total("search")
    m = {
        "diagram.parse_s": (total("diagram.parse"), "s"),
        "diagram.build_s": (total("diagram.build"), "s"),
        "coloring.enumerate_s": (total("coloring.enumerate"), "s"),
        "coloring.enumerate_calls": (total("coloring.enumerate", "calls"), "count"),
        "coloring.colorings": (total("coloring.enumerate", "count"), "count"),
        "bracket.states_s": (total("bracket.states"), "s"),
        "bracket.states": (total("bracket.states", "count"), "count"),
        "bracket.matrix_cold_s": (total("bracket.matrix_cold"), "s"),
        "bracket.matrix_warm_s": (total("bracket.matrix_warm"), "s"),
        "bracket.polynomial_s": (total("bracket.polynomial"), "s"),
        "bracket.evaluations": (runner.evaluations, "count"),
        "bracket.evaluations_per_s": (runner.evaluations / eval_s if eval_s else 0.0, "1/s"),
        "bracket.verify_s": (total("bracket.verify"), "s"),
        "bracket.verify_calls": (total("bracket.verify", "calls"), "count"),
        "bracket.verify_instances": (total("bracket.verify", "count"), "count"),
        "biquandle.verify_s": (total("biquandle.verify"), "s"),
        "ring.render_s": (total("ring.render"), "s"),
        "ring.render_calls": (total("ring.render", "count"), "count"),
        "search.s": (search_s, "s"),
        "search.nodes": (nodes, "count"),
        "search.solutions": (runner.solutions, "count"),
        "search.solutions_per_node": (runner.solutions / nodes if nodes else 0.0, "ratio"),
        "search.nodes_per_s": (nodes / search_s if search_s else 0.0, "1/s"),
        "cli.overhead_s": (cli_overhead, "s"),
        "data.load_s": (total("data.load"), "s"),
        "trace.overhead_s": (sum(t for p in traced for t, _ in p)
                             - sum(t for t, _ in jobs), "s"),
        "input.cut_share": (sum(bool(inputs.cut_positions(d.passes)) for d in st.inputs)
                            / len(st.inputs) if st.inputs else 0.0, "ratio"),
        "job.count": (len(jobs), "count"),
        "job.tail_percentile": (tail_pct, "%"),
    }
    for share, names in SHARES.items():
        m[share] = (self_s(*names) / job_time if job_time else 0.0, "ratio")
    log.write("layer self time over %.3f s of traced jobs:\n" % job_time)
    for share in SHARES:
        log.write("  %-18s %6.1f%%\n" % (share, 100 * m[share][0]))
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print("cannot import vknotoid from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
