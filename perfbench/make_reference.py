"""Regenerate the benchmark's reference data from the current code.

    python3 perfbench/make_reference.py

Writes perfbench/brackets/*.bvb, a fixed-seed sample of the solutions of the
reference search, and perfbench/golden.json, the digests of every job output
that does not depend on the seed plus those of the seeded jobs of seeds
0..GOLDEN_SEEDS-1.  A job output that fails any other check is an error,
not a golden value.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import checks
import run
from tracer import Tracer

BRACKETS = 16
SAMPLE_SEED = 2507
GOLDEN_SEEDS = 16


def main() -> int:
    vk = run.import_vknotoid()
    golden = {"results": {}, "searches": {}}

    x = vk.data.load_biquandle("z3_involution")
    for p in (run.REFERENCE_MODULUS, run.DIAGONAL_MODULUS, run.TINY_DIAGONAL_MODULUS):
        found = vk.search.search_brackets(x, vk.search.SearchConfig(p, "diagonal", seed=1))
        key = checks.search_key("z3_involution", p, "diagonal")
        golden["searches"][key] = [len(found.brackets),
                                   checks.solution_digest(vk, found.brackets)]
        print(key, golden["searches"][key], "nodes", found.nodes)
        if p == run.REFERENCE_MODULUS:
            texts = sorted(vk.bracket.render_bracket(b) for b in found.brackets)
            sample = random.Random(SAMPLE_SEED).sample(texts, BRACKETS)
            shutil.rmtree(run.BENCH / "brackets", ignore_errors=True)
            (run.BENCH / "brackets").mkdir()
            for k, text in enumerate(sorted(sample)):
                (run.BENCH / "brackets" / ("z5_%02d.bvb" % k)).write_text(
                    text, encoding="utf-8")

    failed = 0
    for workload in ("corpus_table", "fresh_codes", "composite_codes"):
        # every corpus_table seed runs the same jobs, in another order
        seeds = [0] if workload == "corpus_table" else range(GOLDEN_SEEDS)
        for seed in seeds:
            workdir = run.WORK / ("reference-%s-%d" % (workload, seed))
            st = run.setup(workload, seed, run.PASSES[workload],
                           False, Tracer(enabled=False), workdir)
            checker = checks.Checker(st, None)
            try:
                for job in (j for p in st.passes for j in p):
                    _, out = run.run_untraced(st, job)
                    problem = checker.check(job, out)
                    if problem:
                        failed += 1
                        print("FAILED", job.id, problem, file=sys.stderr)
                    else:
                        golden["results"][job.key] = checks.digest(out["results"])
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(workload, seed, len(golden["results"]), "digests", flush=True)
    (run.BENCH / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
