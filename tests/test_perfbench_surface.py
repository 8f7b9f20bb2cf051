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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds_its_tiny_inputs(name, tmp_path):
    prepared = workloads.WORKLOADS[name](3, tmp_path, True)
    assert prepared.name == name and prepared.input_boxes > 0
    # `track --det SRC` or `refine --in SRC`; `eval --gt GT`.
    assert Path(prepared.pass_args[2]).exists()
    assert Path(prepared.eval_args[2]).exists()


def test_identity_tool_specs_validate():
    import identity_cases

    for spec in (identity_cases.PAN, identity_cases.CROWD, *identity_cases.KITTI,
                 *identity_cases.KITTI_LOW):
        spec.validate()
