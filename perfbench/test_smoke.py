"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run is correct and prints every metric BENCHMARK.json
names, that the benchmark refuses to run without the source tree, and that
self time is span time minus the time child spans cover.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "crowd", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans(tmp_path):
    t = tracer.Tracer()
    names = {n: t.intern(n) for n in (tracer.PASS_ROOT, "a", "b")}
    # root [0, 10] > a [1, 6] > b [2, 3] and b [4, 5]; b [7, 9] directly under root.
    layout = [("cli.pass", -1, 0, 10), ("a", 0, 1, 6), ("b", 1, 2, 3), ("b", 1, 4, 5),
              ("b", 0, 7, 9)]
    for name, parent, start, end in layout:
        t.name.append(names[name])
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
        t.work.append(0.0)
        t.out.append(0.0)
    t.dump(tmp_path / "trace.npz")
    spans = tracer.Spans(tmp_path / "trace.npz")
    assert spans.self_time.tolist() == [10 - 5 - 2, 5 - 2, 1, 1, 2]
    assert spans.select("b").sum() == 3
    assert spans.select("b", parent="a").sum() == 2


def test_times_scale_by_the_host_reference():
    import calibrate
    import run

    res = run.PassResult(kind="plain", data={"reference_s": {"setup_s": 0.05, "wall_s": 0.2,
                                                             "eval_s": 0.1}})
    assert res.scale("wall_s") == calibrate.NOMINAL_S / 0.2
    assert res.scale("setup_s") == calibrate.NOMINAL_S / 0.05
    assert calibrate.reference_s() > 0
