"""Trajectory post-processing and the split step of the recombination mode.

An external tracker's output (or this engine's own) is refined by splitting
every trajectory at frame discontinuities and class changes, re-associating
the pieces with the hierarchical engine, then optionally filling small gaps
by linear interpolation and smoothing the box sequence with a Gaussian
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import stack_boxes
from .model import BoundingBox, Detection, Tracklet


@dataclass(frozen=True)
class Trajectory:
    """Final per-identity sequence of boxes over frames."""
    track_id: int
    entries: tuple[Detection, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("trajectory needs at least one entry")
        frames = [e.frame for e in self.entries]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError("trajectory frames must be strictly increasing")

    @property
    def t_min(self) -> int:
        return self.entries[0].frame

    @property
    def t_max(self) -> int:
        return self.entries[-1].frame

    @property
    def class_id(self) -> int:
        return self.entries[0].class_id

    def __len__(self) -> int:
        return len(self.entries)


def split_at_discontinuities(trajectories: Iterable[Trajectory]) -> list[Tracklet]:
    """Cut each trajectory into maximal runs of consecutive frames of one class.

    Frame list [1,2,4,5,6] becomes the runs [1,2] and [4,5,6]; a class change
    between two consecutive frames cuts as well, since every class is
    associated by an engine of its own.  Tracklet ids are reassigned
    sequentially in (track_id, time) order, so the result is deterministic
    and ids carry no history.
    """
    tracklets = []
    next_id = 1
    for traj in sorted(trajectories, key=lambda t: t.track_id):
        run: list[Detection] = []
        for det in traj.entries:
            if run and (det.frame != run[-1].frame + 1 or det.class_id != run[-1].class_id):
                tracklets.append(Tracklet.build(next_id, run))
                next_id += 1
                run = []
            run.append(det)
        tracklets.append(Tracklet.build(next_id, run))
        next_id += 1
    return tracklets


def interpolate(trajectory: Trajectory, max_gap: int) -> Trajectory:
    """Fill internal frame gaps of up to max_gap missing frames linearly.

    Inserted detections carry the mean of the bracketing scores, are flagged
    as interpolated, and never extend the trajectory beyond its ends.
    """
    if max_gap <= 0 or len(trajectory) < 2:
        return trajectory
    out: list[Detection] = [trajectory.entries[0]]
    for prev, nxt in zip(trajectory.entries, trajectory.entries[1:]):
        missing = nxt.frame - prev.frame - 1
        if 1 <= missing <= max_gap:
            pb, nb = prev.box, nxt.box
            span = nxt.frame - prev.frame
            for k in range(1, missing + 1):
                a = k / span
                box = BoundingBox(
                    pb.cx + a * (nb.cx - pb.cx),
                    pb.cy + a * (nb.cy - pb.cy),
                    pb.w + a * (nb.w - pb.w),
                    pb.h + a * (nb.h - pb.h),
                )
                out.append(Detection(
                    frame=prev.frame + k, box=box,
                    score=0.5 * (prev.score + nxt.score),
                    class_id=prev.class_id, det_id=-1, interpolated=True))
        out.append(nxt)
    return Trajectory(track_id=trajectory.track_id, entries=tuple(out))


def gaussian_smooth(trajectory: Trajectory, sigma: float) -> Trajectory:
    """Smooth cx, cy, w, h with a normalized Gaussian kernel of radius 2*sigma.

    The kernel is truncated and renormalized near the ends, so a constant
    signal passes through unchanged.  Assumes a uniform frame grid (run
    interpolate first); frames and scores are untouched, sizes are clamped to
    stay positive.
    """
    radius = int(np.ceil(2 * sigma))
    n = len(trajectory)
    if sigma <= 0 or radius == 0 or n < 2:
        return trajectory
    values = stack_boxes(e.box for e in trajectory.entries)
    offsets = np.arange(-radius, radius + 1)
    base = np.exp(-0.5 * (offsets / sigma) ** 2)
    smoothed = np.empty_like(values)
    for i in range(n):
        lo = max(0, i - radius)
        hi = min(n, i + radius + 1)
        w = base[lo - i + radius:hi - i + radius]
        smoothed[i] = (w[:, None] * values[lo:hi]).sum(axis=0) / w.sum()
    entries = []
    for e, row in zip(trajectory.entries, smoothed):
        box = BoundingBox(row[0], row[1], max(row[2], 1.0), max(row[3], 1.0))
        entries.append(e.with_box(box))
    return Trajectory(track_id=trajectory.track_id, entries=tuple(entries))
