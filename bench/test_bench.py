"""Tests of the benchmark itself.  Run with `python3 -m pytest bench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# `qkc verify --n 2 --suite all --json` at the seed commit.
N2 = run.Workload(
    ("verify", "--n", "2", "--suite", "all", "--json"),
    "aae518fd1d88ff68276aa38cf6d1e2118c9a609354732d3496b88bb5ca8f374d")


def bench(capsys, workload, trace):
    code = run.main(["--workload", "n2", "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)], workloads={"n2": workload})
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"),
                                             (1, "per_layer")])
def test_metric_names_and_units(capsys, trace, declared):
    code, result, _ = bench(capsys, N2, trace)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[declared]}
    if trace:
        assert result["metrics"]["weylc.length.calls"]["value"] > 0
        assert result["metrics"]["verify.qbg.self_s"]["value"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_wrong_reference_digest_fails_every_run(capsys, trace):
    code, result, lines = bench(capsys, run.Workload(N2.args, "0" * 64),
                                trace)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    fail_rate = next(line for line in lines if line.startswith("fail_rate"))
    assert float(fail_rate.split()[1]) == 1.0


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "n4-exact", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pool_spans_are_charged_to_the_open_suite():
    t = tracer.Tracer()

    def busy(seconds):
        end = time.thread_time() + seconds
        while time.thread_time() < end:
            pass

    layer = t.wrap(busy, "layer")

    def task(fn):
        busy(0.02)  # check code outside any layer span
        return fn()

    run_task = t.wrap_task(task)

    def run_suite(suite):
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_task, lambda: layer(0.05))
                       for _ in range(4)]
            return [f.result() for f in futures]

    start = time.perf_counter()
    t.wrap_suite(run_suite)("x")
    wall = time.perf_counter() - start
    stats = t.stats()
    assert stats["layer"][0] == 4
    assert stats["layer"][1] == pytest.approx(0.2, rel=0.2)
    assert stats["verify.x"][1] == pytest.approx(0.08, rel=0.3)
    self_sum = sum(rec[1] for rec in stats.values())
    assert self_sum == pytest.approx(wall, rel=run.CLOSURE_MARGIN)
    assert t.walls["verify.x"] == pytest.approx(wall, rel=0.05)
