"""The benchmark's workloads: inputs made from a seed, the CLI pass that
consumes them, and the checks each pass output must meet.

Each workload writes its generated files into a work directory and returns
a `Prepared` value; the program under test only ever sees those files.
Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from intertrack import mot_io, synth
from intertrack.synth import Motion, ScenarioSpec

from foreign import ForeignStyle, foreign_output


@dataclass(frozen=True)
class ClassSummary:
    """One `class N: levels a -> b -> ...; camera KIND (...)` line."""
    counts: tuple[int, ...]
    camera: str


_CLASS_LINE = re.compile(r"class \d+: levels ([\d >-]+); camera (\w+)")


def parse_summary(stdout: str) -> list[ClassSummary]:
    """Per-class level counts and camera decision from `track`/`refine` output."""
    out = []
    for match in _CLASS_LINE.finditer(stdout):
        counts = tuple(int(tok) for tok in match.group(1).split("->"))
        out.append(ClassSummary(counts=counts, camera=match.group(2)))
    return out


@dataclass
class Prepared:
    """A workload's generated inputs and how to run and judge one pass."""
    name: str
    pass_args: list[str]          # track/refine arguments, without --workers
    workers: int                  # --workers of the untraced pass
    eval_args: list[str]
    outputs: list[Path]           # one output file per sequence
    input_boxes: int
    # Floors on accuracy: a pass scoring below them counts as wrong output.
    min_mota: float
    min_idf1: float
    # pass stdout -> list of failed self-checks
    self_check: Callable[[str], list[str]] = lambda stdout: []


def _write_scene(spec: ScenarioSpec, det_path: Path, gt_path: Path) -> int:
    gt, dets = synth.generate(spec)
    mot_io.write_mot_results(gt, gt_path)
    mot_io.write_mot_detections(dets, det_path)
    return len(dets)


def crowd(seed: int, work: Path, tiny: bool) -> Prepared:
    """Many small targets, heavy dropout and noise: ~800 short level-1
    tracklets, so the gap-bridging levels (`hierarchy_pass`) dominate."""
    n_targets, n_frames = (10, 60) if tiny else (36, 180)
    spec = ScenarioSpec(n_targets=n_targets, n_frames=n_frames, seed=seed,
                        arena=(800.0, 600.0), box_size=(10.0, 24.0), max_speed=3.0,
                        miss_prob=0.15, noise_sigma=0.6, size_jitter=0.03)
    det, gt, out = work / "det.txt", work / "gt.txt", work / "out.txt"
    boxes = _write_scene(spec, det, gt)
    min_ratio = 5

    def check(stdout: str) -> list[str]:
        classes = parse_summary(stdout)
        level1 = sum(c.counts[1] for c in classes if len(c.counts) > 1)
        if level1 < min_ratio * n_targets:
            return [f"crowd: {level1} level-1 tracklets for {n_targets} targets "
                    f"(want at least {min_ratio}x)"]
        return []

    return Prepared("crowd", ["track", "--det", str(det), "--out", str(out)], 1,
                    ["eval", "--gt", str(gt), "--pred", str(out), "--kv"], [out],
                    boxes, min_mota=0.75, min_idf1=0.5, self_check=check)


def long_pan(seed: int, work: Path, tiny: bool) -> Prepared:
    """Few targets over a long sequence under a panning camera: long
    tracklets, so frame-adjacent matrices and Kalman work dominate."""
    n_frames = 120 if tiny else 800
    spec = ScenarioSpec(n_targets=8, n_frames=n_frames, seed=seed,
                        arena=(1280.0, 720.0), box_size=(40.0, 90.0), max_speed=1.5,
                        motion=Motion.SINUSOIDAL, sine_amplitude=40.0, sine_period=100.0,
                        miss_prob=0.03, noise_sigma=1.0,
                        camera_pan=(25.0, 0.0), pan_reversal_frame=n_frames // 2)
    det, gt, out = work / "det.txt", work / "gt.txt", work / "out.txt"
    boxes = _write_scene(spec, det, gt)

    def check(stdout: str) -> list[str]:
        cameras = [c.camera for c in parse_summary(stdout)]
        if not cameras or any(cam != "moving" for cam in cameras):
            return [f"long_pan: camera decision {cameras}, want moving"]
        return []

    return Prepared("long_pan", ["track", "--det", str(det), "--out", str(out)], 1,
                    ["eval", "--gt", str(gt), "--pred", str(out), "--kv"], [out],
                    boxes, min_mota=0.9, min_idf1=0.7, self_check=check)


def recombine(seed: int, work: Path, tiny: bool) -> Prepared:
    """Another tracker's fragmented output through `refine --interp --smooth`."""
    n_targets, n_frames = (6, 80) if tiny else (16, 400)
    spec = ScenarioSpec(n_targets=n_targets, n_frames=n_frames, seed=seed,
                        arena=(1280.0, 720.0), box_size=(20.0, 60.0), max_speed=2.0)
    gt, _ = synth.generate(spec)
    # Tiny scenes lose a larger share of boxes to the cut holes, hence the
    # lower accuracy floor.
    style = ForeignStyle(run_length=(6, 15), swaps=2) if tiny else ForeignStyle()
    min_mota = 0.5 if tiny else 0.85
    foreign, swaps = foreign_output(gt, seed, style)
    src, gt_path, out = work / "theirs.txt", work / "gt.txt", work / "out.txt"
    mot_io.write_mot_results(gt, gt_path)
    mot_io.write_mot_results(foreign, src)
    boxes = sum(len(t.entries) for t in foreign)
    min_ratio = 3

    def check(stdout: str) -> list[str]:
        problems = []
        fragments = sum(c.counts[0] for c in parse_summary(stdout))
        if fragments < min_ratio * n_targets:
            problems.append(f"recombine: {fragments} fragments for {n_targets} "
                            f"identities (want at least {min_ratio}x)")
        if swaps < 1:
            problems.append("recombine: the foreign output has no identity swap")
        return problems

    return Prepared("recombine",
                    ["refine", "--in", str(src), "--out", str(out), "--interp", "--smooth"], 1,
                    ["eval", "--gt", str(gt_path), "--pred", str(out), "--kv"], [out],
                    boxes, min_mota=min_mota, min_idf1=0.5 if tiny else 0.6,
                    self_check=check)


def multiseq(seed: int, work: Path, tiny: bool) -> Prepared:
    """A directory of short sequences through `track --workers 2`: the
    CLI's sequence parallelism."""
    n_seqs = 4 if tiny else 24
    det_dir, gt_dir, out_dir = work / "det", work / "gt", work / "out"
    det_dir.mkdir()
    gt_dir.mkdir()
    boxes = 0
    outputs = []
    for k in range(n_seqs):
        spec = ScenarioSpec(n_targets=5, n_frames=60, seed=seed * 1000 + k,
                            arena=(1280.0, 720.0), box_size=(30.0, 70.0), max_speed=2.0,
                            miss_prob=0.05, noise_sigma=0.5)
        name = f"seq{k:02d}.txt"
        boxes += _write_scene(spec, det_dir / name, gt_dir / name)
        outputs.append(out_dir / name)
    return Prepared("multiseq", ["track", "--det", str(det_dir), "--out", str(out_dir)], 2,
                    ["eval", "--gt", str(gt_dir), "--pred", str(out_dir), "--kv"], outputs,
                    boxes, min_mota=0.85, min_idf1=0.8)


WORKLOADS: dict[str, Callable[[int, Path, bool], Prepared]] = {
    "crowd": crowd,
    "long_pan": long_pan,
    "recombine": recombine,
    "multiseq": multiseq,
}
