"""Camera-movement detection and compensation from detections alone.

A sequence is flagged as moving-camera when the mean IoU of frame-adjacent
matched detection pairs falls below a threshold: a shaking or panning camera
drags every box, so even correct matches overlap poorly.  The per-frame
camera shift is then estimated as the mean center displacement of matched
pairs, accumulated into one array of running offsets (a row per frame), and
subtracted from the box column of the engine's detection table: association
runs on the stabilized boxes, while the results keep the caller's own boxes,
so nothing is shifted back.
No pixels or visual features are involved.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import iou_kernel

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CameraProfile:
    """Estimated camera behaviour over one sequence.

    offsets[k] is the camera's total (x, y) shift from `first_frame` to
    frame first_frame + k, zero at k = 0 and everywhere when the camera is
    judged static; its np.diff is the per-frame displacement.
    """
    mean_match_iou: float
    moving: bool
    first_frame: int
    offsets: np.ndarray  # (frames, 2) float64


def static_profile(frame_range: tuple[int, int], mean_match_iou: float = 1.0) -> CameraProfile:
    lo, hi = frame_range
    return CameraProfile(mean_match_iou, False, lo, np.zeros((hi - lo + 1, 2)))


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

    # bincount adds each frame's pairs one by one in the given order.
    t, n = frame - lo, hi - lo
    counts = np.bincount(t, minlength=n)[:n, None]
    step = b[:, :2] - a[:, :2]
    sums = np.stack([np.bincount(t, weights=step[:, k], minlength=n)[:n] for k in (0, 1)],
                    axis=1)
    steps = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return CameraProfile(mean_iou, True, lo, np.cumsum(np.vstack([np.zeros(2), steps]), axis=0))


def stabilize(frame: np.ndarray, boxes: np.ndarray, profile: CameraProfile) -> np.ndarray:
    """[cx, cy, w, h] rows at the given frames with the camera motion removed:
    each centre minus its frame's cumulative offset."""
    lo = profile.first_frame
    hi = lo + len(profile.offsets) - 1
    outside = (frame < lo) | (frame > hi)
    if outside.any():
        raise ValueError(f"frame {frame[outside][0]} outside profile range [{lo}, {hi}]")
    out = boxes.copy()
    out[:, :2] -= profile.offsets[frame - lo]
    return out
