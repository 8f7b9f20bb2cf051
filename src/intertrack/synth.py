"""Deterministic synthetic scene generation.

Produces (ground truth, detections) pairs with controllable motion, dropout,
noise, detector-score behaviour, and camera pan, so tracking properties can
be asserted against known identities without any dataset.  Everything is a
pure function of the scenario spec, including its seed.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import mot_io
from .geometry import iou_kernel
from .model import BoundingBox, Detection, Trajectory, stack_boxes


class Motion(enum.Enum):
    LINEAR = "linear"
    SINUSOIDAL = "sinusoidal"
    CROSSING = "crossing"


# miss_intervals / score_dips are keyed by 0-based target index; intervals
# are inclusive frame ranges.
MissSchedule = Mapping[int, Sequence[tuple[int, int]]]
DipSchedule = Mapping[int, Sequence[tuple[int, int, float]]]


@dataclass(frozen=True)
class ScenarioSpec:
    n_targets: int
    n_frames: int
    motion: Motion = Motion.LINEAR
    seed: int = 0
    arena: tuple[float, float] = (1920.0, 1080.0)
    box_size: tuple[float, float] = (30.0, 60.0)
    max_speed: float = 2.0
    miss_intervals: MissSchedule = field(default_factory=dict)
    miss_prob: float = 0.0
    noise_sigma: float = 0.0
    size_jitter: float = 0.0
    base_score: float = 0.9
    score_dips: DipSchedule = field(default_factory=dict)
    camera_pan: tuple[float, float] = (0.0, 0.0)
    pan_reversal_frame: Optional[int] = None
    crossing_speeds: tuple[float, float] = (16.0, -4.0)
    crossing_frame: Optional[int] = None
    sine_amplitude: float = 40.0
    sine_period: float = 50.0
    class_id: int = 0

    def validate(self) -> None:
        """Raise ValueError naming the first field that does not fit."""
        for f in fields(self):
            value, whole = getattr(self, f.name), f.type in ("int", "Optional[int]")
            if (whole or f.type == "float") and not (
                    _number(value, whole) or (value is None and f.type != "int")):
                raise ValueError(f"{f.name} must be {'an integer' if whole else 'a number'}, "
                                 f"got {value!r}")
            if f.type == "tuple[float, float]" and not _numbers(value, 2):
                raise ValueError(f"{f.name} must be two numbers, got {value!r}")
        for name, n in (("miss_intervals", 2), ("score_dips", 3)):
            if not all(_numbers(entry, n) for entries in getattr(self, name).values()
                       for entry in entries):
                raise ValueError(f"each of {name}'s entries must be {n} numbers")
        dip_scores = [score for entries in self.score_dips.values() for *_, score in entries]
        for name, value in [("miss_prob", self.miss_prob), ("base_score", self.base_score),
                            *(("a score_dips score", score) for score in dip_scores)]:
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        for name in ("max_speed", "noise_sigma", "size_jitter"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.n_targets < 1 or self.n_frames < 1:
            raise ValueError("need at least one target and one frame")
        if self.motion is Motion.CROSSING and self.n_targets != 2:
            raise ValueError("crossing scenes are defined for exactly 2 targets")
        lo, hi = self.box_size
        if lo <= 0 or hi < lo:
            raise ValueError(f"invalid box_size range {self.box_size}")
        if self.motion is Motion.SINUSOIDAL and self.sine_period == 0:
            raise ValueError("sine_period must not be 0")


def _number(value, whole: bool = False) -> bool:
    """Whether `value` is a real number (an integer if `whole`); a bool is neither."""
    return (isinstance(value, numbers.Integral if whole else numbers.Real)
            and not isinstance(value, bool))


def _numbers(value, n: int) -> bool:
    """Whether `value` is a tuple of `n` real numbers."""
    return isinstance(value, tuple) and len(value) == n and all(map(_number, value))


def _pan_offsets(spec: ScenarioSpec) -> list[tuple[float, float]]:
    """Cumulative camera shift per frame, zero at frame 1.

    With pan_reversal_frame set, the per-frame pan negates from that frame
    on (the camera swings back).
    """
    px, py = spec.camera_pan
    out = [(0.0, 0.0)]
    cx = cy = 0.0
    for t in range(1, spec.n_frames):
        if spec.pan_reversal_frame is not None and t >= spec.pan_reversal_frame:
            cx, cy = cx - px, cy - py
        else:
            cx, cy = cx + px, cy + py
        out.append((cx, cy))
    return out


def _world_paths(spec: ScenarioSpec, rng: np.random.Generator) -> list[list[BoundingBox]]:
    """Per-target box sequences in world coordinates (before camera pan)."""
    w_lo, w_hi = spec.box_size
    arena_w, arena_h = spec.arena
    paths = []
    if spec.motion is Motion.CROSSING:
        t_cross = spec.crossing_frame or max(spec.n_frames // 2, 2)
        size = max(w_hi, 60.0)
        yc = arena_h / 2
        xc = arena_w / 2
        for v in spec.crossing_speeds:
            paths.append([BoundingBox(xc + v * (t - t_cross), yc, size, size)
                          for t in range(1, spec.n_frames + 1)])
        return paths

    cols = math.ceil(math.sqrt(spec.n_targets))
    rows = math.ceil(spec.n_targets / cols)
    for i in range(spec.n_targets):
        cx0 = arena_w * ((i % cols) + 1) / (cols + 1)
        cy0 = arena_h * ((i // cols) + 1) / (rows + 1)
        w = rng.uniform(w_lo, w_hi)
        h = rng.uniform(w_lo, w_hi)
        vx, vy = rng.uniform(-spec.max_speed, spec.max_speed, size=2)
        if spec.motion is Motion.LINEAR:
            paths.append([BoundingBox(cx0 + vx * (t - 1), cy0 + vy * (t - 1), w, h)
                          for t in range(1, spec.n_frames + 1)])
        else:  # SINUSOIDAL
            paths.append([
                BoundingBox(cx0 + vx * (t - 1),
                            cy0 + spec.sine_amplitude
                            * math.sin(2 * math.pi * (t - 1) / spec.sine_period),
                            w, h)
                for t in range(1, spec.n_frames + 1)])
    return paths


def _in_miss_interval(spec: ScenarioSpec, target: int, frame: int) -> bool:
    return any(lo <= frame <= hi
               for lo, hi in spec.miss_intervals.get(target, ()))


def _score_at(spec: ScenarioSpec, target: int, frame: int) -> float:
    for lo, hi, value in spec.score_dips.get(target, ()):
        if lo <= frame <= hi:
            return value
    return spec.base_score


def generate(spec: ScenarioSpec) -> tuple[list[Trajectory], list[Detection]]:
    """Build (ground-truth trajectories, detection list) for the scenario.

    Ground truth is continuous over all frames and expressed in image
    coordinates (camera pan included), matching what a detector would see.
    Detections are the ground-truth boxes with dropout, noise, score model,
    and nothing else.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    pan = _pan_offsets(spec)
    world = _world_paths(spec, rng)
    arena_w, arena_h = spec.arena

    gt = []
    for i, path in enumerate(world):
        entries = []
        on_screen = 0
        for t in range(1, spec.n_frames + 1):
            box = path[t - 1].translated(*pan[t - 1])
            if 0 <= box.cx <= arena_w and 0 <= box.cy <= arena_h:
                on_screen += 1
            entries.append(Detection(frame=t, box=box, score=1.0,
                                     class_id=spec.class_id))
        if on_screen == 0:
            raise ValueError(f"target {i} never appears inside the arena")
        gt.append(Trajectory(track_id=i + 1, entries=tuple(entries)))

    if spec.motion is Motion.CROSSING:
        a, b = (stack_boxes(e.box for e in t.entries) for t in gt)
        hot = int(np.count_nonzero(iou_kernel(a, b) > 0.5))
        if hot != 1:
            raise ValueError(
                f"crossing construction yields {hot} frames with IoU > 0.5; "
                "increase the closing speed or box size")

    detections = []
    for t in range(1, spec.n_frames + 1):
        for i in range(spec.n_targets):
            if _in_miss_interval(spec, i, t):
                continue
            if spec.miss_prob > 0 and rng.uniform() < spec.miss_prob:
                continue
            box = gt[i].entries[t - 1].box
            if spec.noise_sigma > 0:
                dx, dy = rng.normal(0.0, spec.noise_sigma, size=2)
                box = box.translated(dx, dy)
            if spec.size_jitter > 0:
                box = box.expanded(float(np.exp(rng.normal(0.0, spec.size_jitter))))
            detections.append(Detection(
                frame=t, box=box, score=_score_at(spec, i, t),
                class_id=spec.class_id, det_id=len(detections) + 1))
    return gt, detections


def write_scenario(spec: ScenarioSpec, out_dir) -> tuple[Path, Path]:
    """Generate and write gt.txt / det.txt in MOT format; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gt, dets = generate(spec)
    gt_path = out / "gt.txt"
    det_path = out / "det.txt"
    mot_io.write_mot_results(gt, gt_path)
    mot_io.write_mot_detections(dets, det_path)
    return gt_path, det_path


def _target(key: str, index: str) -> int:
    try:
        return int(index)
    except ValueError:
        raise ValueError(f"{key} key {index!r} is not an integer target index") from None


def spec_from_json(path) -> ScenarioSpec:
    """Load and validate a ScenarioSpec from a JSON file.

    Interval maps use string target indices (JSON keys are strings); tuples
    are given as arrays.  Unknown keys are rejected to catch typos.  Every
    fault of the file's text or values raises ValueError naming `path`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object of scenario keys")
        unknown = set(raw) - {f.name for f in fields(ScenarioSpec)}
        if unknown:
            raise ValueError(f"unknown scenario keys {sorted(unknown)}")
        if "motion" in raw:
            raw["motion"] = Motion(raw["motion"])
        for key in ("arena", "box_size", "camera_pan", "crossing_speeds"):
            if key in raw:
                raw[key] = tuple(raw[key])
        for key in ("miss_intervals", "score_dips"):
            if key in raw:
                if not isinstance(raw[key], dict):
                    raise ValueError(f"{key} must be a JSON object keyed by target index, "
                                     f"got {raw[key]!r}")
                raw[key] = {_target(key, k): [tuple(iv) for iv in v] for k, v in raw[key].items()}
        spec = ScenarioSpec(**raw)
        spec.validate()
    except (AttributeError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"{path}: {exc}") from None
    return spec
