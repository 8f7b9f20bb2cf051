"""Camera-movement detection and compensation from detections alone.

A sequence is flagged as moving-camera when the mean IoU of frame-adjacent
matched detection pairs falls below a threshold: a shaking or panning camera
drags every box, so even correct matches overlap poorly.  The per-frame
camera shift is then estimated as the mean center displacement of matched
pairs, accumulated into a running offset, and subtracted from the box column
of the engine's detection table: association runs on the stabilized boxes,
while the results keep the caller's own boxes, so nothing is shifted back.
No pixels or visual features are involved.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import iou_kernel

log = logging.getLogger(__name__)

Offset = tuple[float, float]


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


def estimate(frame: np.ndarray, a: np.ndarray, b: np.ndarray, threshold: float,
             frame_range: tuple[int, int]) -> CameraProfile:
    """Build a CameraProfile from frame-adjacent matched box pairs.

    Pair k matches box a[k] at frame[k] with box b[k] at frame[k] + 1 (boxes
    are [cx, cy, w, h] rows).  The movement statistic is the mean raw IoU
    over every pair, kept deliberately free of the small-box expansion so it
    is comparable across sequences with different target sizes; it sums the
    pairs frame by frame, frames in order of first appearance.  A frame's
    displacement is the mean over its pairs, summed in the given order.
    Frames without matches get a zero displacement rather than an
    extrapolated one.
    """
    lo, hi = frame_range
    if not len(frame):
        log.warning("no adjacent matches in [%d, %d]; assuming static camera", lo, hi)
        return static_profile(frame_range)
    _, first, inverse = np.unique(frame, return_index=True, return_inverse=True)
    in_appearance = np.argsort(first[inverse], kind="stable")
    ious = iou_kernel(a[in_appearance], b[in_appearance]).tolist()
    mean_iou = float(sum(ious) / len(ious))
    if mean_iou >= threshold:
        return static_profile(frame_range, mean_match_iou=mean_iou)

    by_frame = np.argsort(frame, kind="stable")
    dx, dy = (b[by_frame, :2] - a[by_frame, :2]).T.tolist()
    frames, counts = np.unique(frame, return_counts=True)
    per_frame: dict[int, Offset] = {t: (0.0, 0.0) for t in range(lo, hi)}
    for t, end, n in zip(frames.tolist(), np.cumsum(counts).tolist(), counts.tolist()):
        per_frame[t] = (sum(dx[end - n:end]) / n, sum(dy[end - n:end]) / n)

    cumulative: dict[int, Offset] = {lo: (0.0, 0.0)}
    cx = cy = 0.0
    for t in range(lo, hi):
        dx_t, dy_t = per_frame[t]
        cx += dx_t
        cy += dy_t
        cumulative[t + 1] = (cx, cy)
    return CameraProfile(
        mean_match_iou=mean_iou,
        moving=True,
        per_frame_offset=per_frame,
        cumulative_offset=cumulative,
        frame_range=frame_range,
    )


def stabilize(frame: np.ndarray, boxes: np.ndarray, profile: CameraProfile) -> np.ndarray:
    """[cx, cy, w, h] rows at the given frames with the camera motion removed:
    each centre minus its frame's cumulative offset."""
    lo, hi = profile.frame_range
    outside = (frame < lo) | (frame > hi)
    if outside.any():
        raise ValueError(f"frame {frame[outside][0]} outside profile range [{lo}, {hi}]")
    offsets = np.array([profile.cumulative_offset[t] for t in range(lo, hi + 1)])
    out = boxes.copy()
    out[:, :2] -= offsets[frame - lo]
    return out
