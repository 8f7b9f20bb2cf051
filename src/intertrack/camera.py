"""Camera-movement detection and compensation from detections alone.

A sequence is flagged as moving-camera when the mean IoU of frame-adjacent
matched detection pairs falls below a threshold: a shaking or panning camera
drags every box, so even correct matches overlap poorly.  The per-frame
camera shift is then estimated as the mean center displacement of matched
pairs, accumulated into running offsets, one row for each frame that holds
rows (a frame without rows needs none, so a sparse sequence costs no more
than a dense one), and subtracted from the box column of the engine's
detection table: association runs on the stabilized boxes, while the results
keep the caller's own boxes, so nothing is shifted back.
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

    offsets[k] is the camera's total (x, y) shift from the first of `frames`
    to frames[k], zero at k = 0 and everywhere when the camera is judged
    static; `frames` are the sequence's frames that hold rows, ascending.
    """
    mean_match_iou: float
    moving: bool
    frames: np.ndarray   # (F,) int64
    offsets: np.ndarray  # (F, 2) float64


def static_profile(frames: np.ndarray, mean_match_iou: float = 1.0) -> CameraProfile:
    return CameraProfile(mean_match_iou, False, frames, np.zeros((len(frames), 2)))


def estimate(frame: np.ndarray, a: np.ndarray, b: np.ndarray, threshold: float,
             frames: np.ndarray) -> CameraProfile:
    """Build a CameraProfile over `frames` (ascending) from frame-adjacent
    matched box pairs.

    Pair k matches box a[k] at frame[k] with box b[k] at frame[k] + 1 (boxes
    are [cx, cy, w, h] rows).  The movement statistic is the mean raw IoU
    over every pair, kept deliberately free of the small-box expansion so it
    is comparable across sequences with different target sizes; it adds the
    pairs left to right, frames in order of first appearance.  A frame's
    displacement is the mean over its pairs, summed in the given order.
    Frames without matches get a zero displacement rather than an
    extrapolated one, so a frame's offset is the sum of the displacements of
    the matched frames before it, in frame order.
    """
    if not len(frame):
        log.warning("no adjacent matches in [%d, %d]; assuming static camera",
                    frames[0], frames[-1])
        return static_profile(frames)
    matched, first, inverse = np.unique(frame, return_index=True, return_inverse=True)
    in_appearance = np.argsort(first[inverse], kind="stable")
    iou = iou_kernel(a[in_appearance], b[in_appearance])
    # cumsum adds left to right on every Python; the builtin sum compensates
    # from 3.12 on, which moves the last digit.
    mean_iou = float(np.cumsum(iou)[-1] / iou.size)
    if mean_iou >= threshold:
        return static_profile(frames, mean_match_iou=mean_iou)

    # bincount adds each frame's pairs one by one in the given order.
    step = b[:, :2] - a[:, :2]
    steps = np.stack([np.bincount(inverse, weights=step[:, k]) for k in (0, 1)],
                     axis=1) / np.bincount(inverse)[:, None]
    running = np.cumsum(np.vstack([np.zeros(2), steps]), axis=0)
    return CameraProfile(mean_iou, True, frames,
                         running[np.searchsorted(matched, frames, "left")])


def stabilize(frame: np.ndarray, boxes: np.ndarray, profile: CameraProfile) -> np.ndarray:
    """[cx, cy, w, h] rows at the given frames with the camera motion removed:
    each centre minus its frame's cumulative offset."""
    at = np.minimum(np.searchsorted(profile.frames, frame), len(profile.frames) - 1)
    outside = profile.frames[at] != frame
    if outside.any():
        raise ValueError(f"frame {frame[outside][0]} is not one of the profile's frames")
    out = boxes.copy()
    out[:, :2] -= profile.offsets[at]
    return out
