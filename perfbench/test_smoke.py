"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced for about a second each
and checks that every metric named in BENCHMARK.json prints with its unit,
that no op fails and the byte-identity replay passes, and that the traced
split has the shape the workloads are built for.
"""
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
RUN = [sys.executable, str(HERE / "run.py")]


@functools.lru_cache(maxsize=None)
def run(workload, trace):
    out = subprocess.run(RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                "--trace", str(trace), "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1]), out.stderr


def spans(workload):
    run(workload, 1)
    path = ROOT / ".perfbench" / "traces" / f"{workload}-seed7.json"
    return json.loads(path.read_text(encoding="utf-8"))


def test_layer_table_matches_benchmark():
    table = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in table] == BENCH["per_layer"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    result, text, _ = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"] {m['name']} " in text and f" {m['unit']}" in text
    assert "fail_frac" in text and "max_rel_err" in text


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_no_failures_and_replay_passes(workload, trace):
    result, text, stderr = run(workload, trace)
    assert result["correct"] and result["failed"] == 0, stderr
    assert result["attempted"] >= 2
    assert f"[{workload}] fail_frac    0 ratio" in text
    assert "replay ok" in text


def test_designs_never_reach_optimize():
    assert not [s for s in spans("designs") if s["name"].startswith("optimize.")]


def test_marching_squares_only_on_contour():
    for workload in WORKLOADS:
        value = run(workload, 1)[0]["metrics"]["optimize.marching_squares.s"]["value"]
        assert (value > 0) == (workload == "contour"), workload


@pytest.mark.parametrize("workload, layer", [("sweep", "optimize.sweep.self_s"),
                                             ("designs", "cli.main.self_s")])
def test_largest_layer(workload, layer):
    metrics = run(workload, 1)[0]["metrics"]
    times = {k: v["value"] for k, v in metrics.items()
             if v["unit"] == "s" and not k.startswith("trace.")}
    assert max(times, key=times.get) == layer


def test_fails_without_the_library():
    """A directory holding only BENCHMARK.json and the benchmark exits non-zero."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert not out.stdout.strip()
