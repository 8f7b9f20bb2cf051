"""The part of the library that the benchmark under `perfbench/` reaches.

The benchmark imports object forms (`synth.generate`, the MOT object
writers and readers) and hooks functions by name, so a change to the
library can break it without a benchmark run; these checks catch that in
the ordinary test run.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("owner", sorted({hook[0] for hook in tracer.HOOKS}))
def test_every_tracer_hook_owner_resolves(owner):
    # A missing module or class crashes every traced run; a missing
    # attribute is only reported and skipped.
    assert tracer._resolve(owner) is not None


# The hooked attributes that name functions already gone from the library;
# the tracer reports each as not found and its metrics read 0 until the
# benchmark's hooks are rewired to the column functions.
STALE_HOOKS = {
    ("intertrack.hierarchy", "run_detailed"),
    ("intertrack.hierarchy", "associate_tracklets"),
    ("intertrack.hierarchy", "chain_predictors"),
    ("intertrack.hierarchy", "pair_similarity"),
    ("intertrack.motion:FitCache", "get"),
    ("intertrack.motion", "fit"),
    ("intertrack.geometry:SimilarityKernel", "pair"),
    ("intertrack.cli", "split_at_discontinuities"),
    ("intertrack.cli", "interpolate"),
    ("intertrack.cli", "gaussian_smooth"),
    ("intertrack.mot_io", "read_mot_detections"),
    ("intertrack.hierarchy", "solve"),
    ("intertrack.geometry:SimilarityKernel", "matrix"),
}


@pytest.mark.parametrize("owner, attr", sorted({hook[:2] for hook in tracer.HOOKS}))
def test_every_live_tracer_hook_resolves(owner, attr):
    # A hook that stops resolving silently zeroes the metrics it feeds, so
    # only the known stale ones may be missing, and those must stay missing
    # until they are rewired here.
    assert hasattr(tracer._resolve(owner), attr) == ((owner, attr) not in STALE_HOOKS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds_its_tiny_inputs(name, tmp_path):
    prepared = workloads.WORKLOADS[name](3, tmp_path, True)
    assert prepared.name == name and prepared.input_boxes > 0
    # `track --det SRC` or `refine --in SRC`; `eval --gt GT`.
    assert Path(prepared.pass_args[2]).exists()
    assert Path(prepared.eval_args[2]).exists()


def test_identity_tool_specs_validate():
    import identity_cases

    for spec in (identity_cases.PAN, identity_cases.CROWD, identity_cases.DIPS,
                 identity_cases.LONG, *identity_cases.KITTI, *identity_cases.KITTI_LOW):
        spec.validate()
