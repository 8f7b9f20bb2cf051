"""Core value types shared by the whole tracker, plus the run configuration.

The program works on `BoxTable` columns; `table_of`/`tracks_table` and
`trajectories_of` alone convert to and from the objects.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np


class ConfigError(ValueError):
    """Raised by validate_config with one message per violated field."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("invalid config: " + "; ".join(self.problems))


# The two box conventions of the interchange formats, as (cx, cy, w, h).  They
# run elementwise on floats and on numpy columns alike, so a box read as a
# column equals its BoundingBox bit for bit.

def ltwh_to_center(left, top, w, h):
    return left + w / 2, top + h / 2, w, h


def corners_to_center(x1, y1, x2, y2):
    return (x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in center+size form (pixels)."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    def expanded(self, ratio: float) -> "BoundingBox":
        """Scale width and height by `ratio` about the fixed center."""
        return BoundingBox(self.cx, self.cy, self.w * ratio, self.h * ratio)

    def translated(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.cx + dx, self.cy + dy, self.w, self.h)


@dataclass(frozen=True)
class Detection:
    """One detector output box at one frame; the atomic tracking input."""

    frame: int
    box: BoundingBox
    score: float
    class_id: int = 0
    det_id: int = -1

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class Trajectory:
    """Final per-identity sequence of boxes over frames: entries strictly
    increasing in frame."""
    track_id: int
    entries: tuple[Detection, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("trajectory needs at least one entry")
        frames = [d.frame for d in self.entries]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError("trajectory entries must be strictly increasing in frame")

    @property
    def t_min(self) -> int:
        return self.entries[0].frame

    @property
    def t_max(self) -> int:
        return self.entries[-1].frame

    def __len__(self) -> int:
        return len(self.entries)


class BoxTable(NamedTuple):
    """Boxes as columns, one row per box; `id` is a file's track id, the
    engine's det_id or an output track id, as its holder says."""
    frame: np.ndarray     # (N,) int64, 1-based
    id: np.ndarray        # (N,) int64
    score: np.ndarray     # (N,) float64
    class_id: np.ndarray  # (N,) int64
    boxes: np.ndarray     # (N, 4) float64, rows [cx, cy, w, h]

    def take(self, rows) -> "BoxTable":
        return BoxTable(*(column[rows] for column in self))


def stack_boxes(boxes: Iterable[BoundingBox]) -> np.ndarray:
    return np.array([[b.cx, b.cy, b.w, b.h] for b in boxes], dtype=np.float64).reshape(-1, 4)


def table_of(detections: Sequence[Detection], ids: Optional[np.ndarray] = None) -> BoxTable:
    """Objects -> table: one row per detection, in the given order; `id` is
    the det_id unless `ids` gives the column."""
    n = len(detections)
    return BoxTable(np.fromiter((d.frame for d in detections), np.int64, n),
                    np.fromiter((d.det_id for d in detections), np.int64, n) if ids is None
                    else np.asarray(ids, dtype=np.int64),
                    np.fromiter((d.score for d in detections), np.float64, n),
                    np.fromiter((d.class_id for d in detections), np.int64, n),
                    stack_boxes(d.box for d in detections))


def tracks_table(trajectories: Iterable[Trajectory]) -> BoxTable:
    """The entries of trajectories in order, `id` their track_id."""
    trajectories = list(trajectories)
    return table_of([e for t in trajectories for e in t.entries],
                    np.repeat([t.track_id for t in trajectories],
                              [len(t) for t in trajectories]))


def trajectories_of(table: BoxTable, track: np.ndarray) -> list[Trajectory]:
    """Table -> objects: the rows grouped into one Trajectory per value of
    `track`, in track order, each in frame order; det_id from `id`."""
    order = np.lexsort((table.frame, track))  # stable: ties keep row order
    entries = [Detection(f, BoundingBox(*box), s, c, d)  # positional: the fastest call
               for f, d, s, c, box in zip(*(column.tolist() for column in table.take(order)))]
    track = track[order]
    starts = np.flatnonzero(np.diff(track, prepend=track[:1] - 1)).tolist()
    return [Trajectory(int(track[a]), tuple(entries[a:b]))
            for a, b in zip(starts, starts[1:] + [len(entries)])]


class Strategy(enum.Enum):
    """How association passes are scheduled across hierarchy levels."""

    INTERVAL = "interval"
    WINDOW = "window"


class Stage(NamedTuple):
    """One hierarchy level: a frame bound plus an overlap allowance.

    For the interval strategy `bound` is the maximum admissible tracklet
    gap; for the window strategy it is the window size. `overlap` frames of
    tracklet overlap are admitted only in the final stage.
    """

    bound: int
    overlap: int = 0


# Each strategy's default gap bounds (window sizes) and final overlap.
_DEFAULT_SCHEDULE = {Strategy.INTERVAL: ((1, 5, 10, 15, 20, 30), 5),
                     Strategy.WINDOW: (tuple(2 ** k for k in range(1, 8)), 0)}


@dataclass(frozen=True)
class TrackerConfig:
    """All tunables of the tracking pipeline.

    Defaults follow the reference operating point: match gate 0.2, small-box
    expansion below width 64 with scaling factor 0.2, camera-movement gate
    0.65, and the 7-stage interval schedule ending in a 5-frame-overlap merge
    pass.  The schedule is three fields, `strategy`, `stage_bounds` and
    `final_overlap`, a None taking the strategy's default; `stages` builds
    its levels.  The field names are the config-file keys.
    """

    match_threshold: float = 0.2
    ci_width_threshold: float = 64.0
    ci_scaling_factor: float = 0.2
    cc_threshold: float = 0.65
    score_high: float = 0.6
    score_low: float = 0.1
    use_hm_iou: bool = False
    enable_ci: bool = True
    enable_cc: bool = True
    enable_cm: bool = True
    strategy: Strategy = Strategy.INTERVAL
    stage_bounds: Optional[tuple[int, ...]] = None
    final_overlap: Optional[int] = None
    interpolation_max_gap: int = 20
    smoothing_sigma: float = 5.0
    kf_position_weight: float = 1.0 / 20.0
    kf_velocity_weight: float = 1.0 / 160.0

    @property
    def stages(self) -> tuple[Stage, ...]:
        """One stage per bound; a nonzero final overlap adds a final stage
        that re-admits the last bound with that overlap."""
        bounds, overlap = _schedule(self)
        stages = [Stage(int(b), 0) for b in bounds]
        if overlap and stages:
            stages.append(Stage(stages[-1].bound, int(overlap)))
        return tuple(stages)


def _schedule(cfg: TrackerConfig) -> tuple[Sequence[int], int]:
    """The gap bounds and the final overlap, the strategy's defaults filling in."""
    bounds, overlap = _DEFAULT_SCHEDULE[cfg.strategy]
    return (bounds if cfg.stage_bounds is None else cfg.stage_bounds,
            overlap if cfg.final_overlap is None else cfg.final_overlap)


def validate_config(cfg: TrackerConfig) -> TrackerConfig:
    """Return cfg unchanged if every invariant holds, else raise ConfigError.

    All violations are collected so the error lists every bad field at once,
    one problem per field: a number that is not finite is reported as such,
    and no range check reads it.
    """
    nonfinite = [f.name for f in fields(cfg)
                 if f.type == "float" and not math.isfinite(getattr(cfg, f.name))]
    problems = [f"{name} must be finite, got {getattr(cfg, name)}" for name in nonfinite]
    checks = [  # (the fields read, whether they pass, the problem)
        (("match_threshold",), 0.0 < cfg.match_threshold < 1.0,
         f"match_threshold must be in (0, 1), got {cfg.match_threshold}"),
        (("ci_width_threshold",), cfg.ci_width_threshold > 0,
         f"ci_width_threshold must be > 0, got {cfg.ci_width_threshold}"),
        (("ci_scaling_factor",), cfg.ci_scaling_factor > 0,
         f"ci_scaling_factor must be > 0, got {cfg.ci_scaling_factor}"),
        (("cc_threshold",), 0.0 <= cfg.cc_threshold <= 1.0,
         f"cc_threshold must be in [0, 1], got {cfg.cc_threshold}"),
        (("score_low", "score_high"), 0.0 <= cfg.score_low <= cfg.score_high <= 1.0,
         "scores must satisfy 0 <= score_low <= score_high <= 1, got "
         f"low={cfg.score_low}, high={cfg.score_high}"),
        ((), cfg.interpolation_max_gap >= 0,
         f"interpolation_max_gap must be >= 0, got {cfg.interpolation_max_gap}"),
        (("smoothing_sigma",), cfg.smoothing_sigma >= 0,
         f"smoothing_sigma must be >= 0, got {cfg.smoothing_sigma}"),
        (("kf_position_weight", "kf_velocity_weight"),
         cfg.kf_position_weight > 0 and cfg.kf_velocity_weight > 0,
         "Kalman noise weights must be > 0"),
    ]
    problems += [problem for names, ok, problem in checks
                 if not ok and not any(name in nonfinite for name in names)]
    bounds, overlap = _schedule(cfg)
    if not bounds:
        problems.append("schedule must contain at least one stage")
    else:
        if any(b < 1 for b in bounds):
            problems.append("stage bounds must be >= 1")
        if any(b < a for a, b in zip(bounds, bounds[1:])):
            problems.append("stage bounds must be non-decreasing")
        if overlap < 0:
            problems.append("overlap allowances must be >= 0")
        if cfg.strategy is Strategy.WINDOW and overlap > 0:
            problems.append("the window strategy admits no overlap")
    if problems:
        raise ConfigError(problems)
    return cfg
