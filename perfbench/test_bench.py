"""Self-test of the benchmark: every workload passes at a tiny size, traced
and untraced, a corrupted job output is counted as failed, job times are
calibrated and taken over rounds as documented, and fresh codes fill their
width quotas.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_passes(workload, trace):
    log = io.StringIO()
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace, tiny=True,
                              log=log)
    assert result["correct"], log.getvalue()
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {"setup_s", "wall_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb"}
    if trace:
        assert {"coloring.enumerate_s", "bracket.verify_instances", "search.nodes",
                "cli.overhead_s", "share.cli"} <= set(result["metrics"])
    else:
        assert set(result["metrics"]) == want
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt(out: dict) -> dict:
    if "search" in out:
        out["search"].brackets.pop()
    else:
        out["results"][0]["counting_matrix"][0][0] += 1
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_output_counts_as_failed(workload, monkeypatch):
    honest = run.run_untraced
    corrupted = []

    def corrupt_first(st, job):
        dt, out = honest(st, job)
        if not corrupted:
            corrupted.append(job.id)
            out = _corrupt(out)
        return dt, out

    monkeypatch.setattr(run, "run_untraced", corrupt_first)
    log = io.StringIO()
    result = run.run_workload(workload, seed=3, seconds=0, trace=False, tiny=True,
                              log=log)
    assert not result["correct"]
    assert result["failed"] == 1, log.getvalue()
    assert "FAILED %s" % corrupted[0] in log.getvalue()


def test_tail_percentile_leaves_ten_beyond():
    value, pct = run.tail_percentile([float(v) for v in range(100)])
    assert value == 89.0 and pct == 90.0
    value, pct = run.tail_percentile([3.0, 1.0, 2.0])
    assert value == 1.0


def test_median_of_rounds_per_job():
    a, b, c = "abc"
    rounds = [[[(3.0, a), (1.0, b)], [(5.0, c)]],
              [[(2.0, a), (4.0, b)], [(6.0, c)]],
              [[(9.0, a), (2.0, b)], [(7.0, c)]]]
    assert run.median_of_rounds(rounds) == [[(3.0, a), (2.0, b)], [(6.0, c)]]


def test_calibration_scales_by_the_nearby_probe_samples():
    sp = speed.Speed()
    sp.took = [2 * speed.REFERENCE_S] * 10 + [speed.REFERENCE_S] * 10
    rounds = [[[(1.0, "a")] * 10], [[(1.0, "b")] * 10]]
    times = [t for r in run.calibrated(rounds, sp) for p in r for t, _ in p]
    assert times[0] == 0.5 and times[-1] == 1.0
    sp.sample()
    assert len(sp.took) == 21 and sp.took[-1] > 0


def test_fresh_codes_fill_the_width_quotas():
    vk = run.import_vknotoid()
    codes = inputs.fresh_codes(vk, random.Random(5), 7, 2, 28)
    widths = [inputs.frontier_width(d.passes) for d in codes]
    assert len(codes) == 28
    assert not any(inputs.cut_positions(d.passes) for d in codes)
    for w, share in inputs.WIDTH_SHARES[7].items():
        assert widths.count(w) >= int(28 * share)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    without printing a result."""
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "%s/run.py" % run.BENCH.name, "--workload", "corpus_table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    with pytest.raises((IndexError, json.JSONDecodeError)):
        json.loads(lines[-1])
