"""Camera-movement detection and compensation from detections alone.

A sequence is flagged as moving-camera when the mean IoU of frame-adjacent
matched detection pairs falls below a threshold: a shaking or panning camera
drags every box, so even correct matches overlap poorly.  The per-frame
camera shift is then estimated as the mean center displacement of matched
pairs, accumulated into a running offset, and all detections are shifted
into a stabilized coordinate frame where association runs; final results are
shifted back.  No pixels or visual features are involved.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import iou_kernel, stack_boxes
from .model import BoundingBox, Detection

log = logging.getLogger(__name__)

Offset = tuple[float, float]
MatchPairs = Mapping[int, Sequence[tuple[Detection, Detection]]]


@dataclass(frozen=True)
class CameraProfile:
    """Estimated camera behaviour over one sequence.

    per_frame_offset[t] is the camera displacement between frames t and t+1;
    cumulative_offset[t] is the total shift since the first frame (zero
    there).  Both are all-zero when the camera is judged static.
    """
    mean_match_iou: float
    moving: bool
    per_frame_offset: dict[int, Offset]
    cumulative_offset: dict[int, Offset]
    frame_range: tuple[int, int]

    def offset_at(self, frame: int) -> Offset:
        lo, hi = self.frame_range
        if not lo <= frame <= hi:
            raise ValueError(f"frame {frame} outside profile range [{lo}, {hi}]")
        return self.cumulative_offset[frame]


def static_profile(frame_range: tuple[int, int], mean_match_iou: float = 1.0) -> CameraProfile:
    lo, hi = frame_range
    zero: Offset = (0.0, 0.0)
    return CameraProfile(
        mean_match_iou=mean_match_iou,
        moving=False,
        per_frame_offset={t: zero for t in range(lo, hi)},
        cumulative_offset={t: zero for t in range(lo, hi + 1)},
        frame_range=frame_range,
    )


def estimate(adjacent_matches: MatchPairs, threshold: float,
             frame_range: tuple[int, int]) -> CameraProfile:
    """Build a CameraProfile from frame-adjacent matched detection pairs.

    adjacent_matches maps frame t to pairs (detection at t, detection at
    t+1).  The movement statistic is the mean raw IoU over every pair, kept
    deliberately free of the small-box expansion so it is comparable across
    sequences with different target sizes.  Frames without matches get a
    zero displacement rather than an extrapolated one.
    """
    lo, hi = frame_range
    matched = [pair for pairs in adjacent_matches.values() for pair in pairs]
    ious = iou_kernel(stack_boxes([a.box for a, _ in matched]),
                      stack_boxes([b.box for _, b in matched])).tolist()
    if not ious:
        log.warning("no adjacent matches in [%d, %d]; assuming static camera", lo, hi)
        return static_profile(frame_range)
    mean_iou = float(sum(ious) / len(ious))
    if mean_iou >= threshold:
        return static_profile(frame_range, mean_match_iou=mean_iou)

    per_frame: dict[int, Offset] = {}
    for t in range(lo, hi):
        pairs = adjacent_matches.get(t, ())
        if pairs:
            dx = sum(b.box.cx - a.box.cx for a, b in pairs) / len(pairs)
            dy = sum(b.box.cy - a.box.cy for a, b in pairs) / len(pairs)
            per_frame[t] = (dx, dy)
        else:
            per_frame[t] = (0.0, 0.0)

    cumulative: dict[int, Offset] = {lo: (0.0, 0.0)}
    cx = cy = 0.0
    for t in range(lo, hi):
        dx, dy = per_frame[t]
        cx += dx
        cy += dy
        cumulative[t + 1] = (cx, cy)
    return CameraProfile(
        mean_match_iou=mean_iou,
        moving=True,
        per_frame_offset=per_frame,
        cumulative_offset=cumulative,
        frame_range=frame_range,
    )


def _shift(detections: Iterable[Detection], profile: CameraProfile,
           sign: float) -> list[Detection]:
    """Move every detection's centre by sign times its frame's offset, all in
    one array operation; detections at a zero offset are returned as is."""
    dets = list(detections)
    offsets = np.array([profile.offset_at(d.frame) for d in dets]).reshape(-1, 2)
    centres = np.array([(d.box.cx, d.box.cy) for d in dets]).reshape(-1, 2)
    moved = (centres + sign * offsets).tolist()
    still = (offsets == 0.0).all(axis=1).tolist()
    return [d if keep else Detection(d.frame, BoundingBox(cx, cy, d.box.w, d.box.h), d.score,
                                     d.class_id, d.det_id, d.interpolated)
            for d, (cx, cy), keep in zip(dets, moved, still)]


def stabilize(detections: Iterable[Detection], profile: CameraProfile) -> list[Detection]:
    """Shift detections into the stabilized frame (camera motion removed)."""
    return _shift(detections, profile, -1.0)


def destabilize(detections: Iterable[Detection], profile: CameraProfile) -> list[Detection]:
    """Inverse of stabilize: restore original image coordinates."""
    return _shift(detections, profile, 1.0)
