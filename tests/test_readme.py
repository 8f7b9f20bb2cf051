"""README's Library example, run as written on a synthetic scene."""

import re
from pathlib import Path

from intertrack.synth import ScenarioSpec, write_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    write_scenario(ScenarioSpec(n_targets=4, n_frames=40, seed=3), tmp_path)
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(example, str(README), "exec"), names)
    assert (tmp_path / "tracks.txt").stat().st_size > 0
    assert names["windowed"].per_class and names["report"].idf1 > 0.5
    assert names["refined"].per_class[0].levels[0].label == "input tracklets"
