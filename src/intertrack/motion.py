"""Constant-velocity Kalman filtering over tracklets and the bidirectional
prediction similarity used when linking tracklets across a temporal gap.

The state tracks (cx, cy, w, h) plus per-frame velocities.  The four
components are independent under the constant-velocity model, so the filter
runs four identical 2-state (value, velocity) filters side by side; the full
8-vector mean and block-structured 8x8 covariance are materialized only when
a MotionState is exported.  Noise scales with box height (position terms
~ h/20, velocity terms ~ h/160), the usual convention for this family of
trackers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import stack_boxes
from .model import BoundingBox, Detection, Tracklet, TrackerConfig


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class MotionState:
    """Filtered kinematic state anchored at one end of a tracklet.

    mean: (cx, cy, w, h, v_cx, v_cy, v_w, v_h); velocities are per frame in
    the filter's own time direction (a Backward state's velocities describe
    motion toward earlier frames).
    """
    mean: np.ndarray
    covariance: np.ndarray
    anchor_frame: int
    direction: Direction

    def box(self) -> BoundingBox:
        cx, cy, w, h = self.mean[:4]
        return BoundingBox(cx, cy, max(w, 1.0), max(h, 1.0))


# Initial-uncertainty multipliers.  Velocity starts effectively diffuse
# (the classic trick for unobservable initial velocities); this is what lets
# the filter lock onto noise-free linear motion within a few updates instead
# of dragging a zero-velocity prior along.
_INIT_POS_FACTOR = 2.0
_INIT_VEL_FACTOR = 1000.0


class _ComponentFilter:
    """Four parallel scalar constant-velocity Kalman filters.

    Arrays of shape (4,) hold the value, velocity, and the three distinct
    covariance entries per component.
    """

    def __init__(self, box: BoundingBox, cfg: TrackerConfig):
        self.wp = cfg.kf_position_weight
        self.wv = cfg.kf_velocity_weight
        self.x = np.array([box.cx, box.cy, box.w, box.h], dtype=np.float64)
        self.v = np.zeros(4)
        h = box.h
        self.p00 = np.full(4, (_INIT_POS_FACTOR * self.wp * h) ** 2)
        self.p01 = np.zeros(4)
        self.p11 = np.full(4, (_INIT_VEL_FACTOR * self.wv * h) ** 2)

    def predict(self) -> None:
        h = max(self.x[3], 1.0)
        q00 = (self.wp * h) ** 2
        q11 = (self.wv * h) ** 2
        self.x = self.x + self.v
        self.p00 = self.p00 + 2 * self.p01 + self.p11 + q00
        self.p01 = self.p01 + self.p11
        self.p11 = self.p11 + q11

    def update(self, box: BoundingBox) -> None:
        z = np.array([box.cx, box.cy, box.w, box.h], dtype=np.float64)
        h = max(self.x[3], 1.0)
        r = (self.wp * h) ** 2
        gain_den = self.p00 + r
        k0 = self.p00 / gain_den
        k1 = self.p01 / gain_den
        innov = z - self.x
        self.x = self.x + k0 * innov
        self.v = self.v + k1 * innov
        p01_old = self.p01
        self.p00 = (1 - k0) * self.p00
        self.p01 = (1 - k0) * p01_old
        self.p11 = self.p11 - k1 * p01_old

    def export(self, anchor_frame: int, direction: Direction) -> MotionState:
        mean = np.concatenate([self.x, self.v])
        cov = np.zeros((8, 8))
        for i in range(4):
            cov[i, i] = self.p00[i]
            cov[i, 4 + i] = cov[4 + i, i] = self.p01[i]
            cov[4 + i, 4 + i] = self.p11[i]
        return MotionState(mean=mean, covariance=cov,
                           anchor_frame=anchor_frame, direction=direction)


def _run_filter(entries: Sequence[Detection], cfg: TrackerConfig) -> _ComponentFilter:
    flt = _ComponentFilter(entries[0].box, cfg)
    prev_frame = entries[0].frame
    for det in entries[1:]:
        for _ in range(abs(det.frame - prev_frame)):
            flt.predict()
        flt.update(det.box)
        prev_frame = det.frame
    return flt


def fit(tracklet: Tracklet, direction: Direction, cfg: TrackerConfig) -> MotionState:
    """Filter the tracklet in frame order (Forward) or reverse (Backward).

    Missing intermediate frames cost extra predict steps, inflating the
    covariance across gaps.  The returned state is anchored at t_max for
    Forward and t_min for Backward.
    """
    entries = tracklet.entries if direction is Direction.FORWARD else tracklet.entries[::-1]
    flt = _run_filter(entries, cfg)
    return flt.export(entries[-1].frame, direction)


def _advance(mean: np.ndarray, steps) -> np.ndarray:
    """[cx, cy, w, h] of states moved `steps` frames along their velocities;
    broadcasts over stacked (n, 8) means with (n, 1) steps.  Sizes are
    clamped at 1 pixel."""
    box = mean[..., :4] + steps * mean[..., 4:]
    box[..., 2:] = np.maximum(box[..., 2:], 1.0)
    return box


def predict(state: MotionState, target_frame: int) -> BoundingBox:
    """Propagate the state's box to target_frame under constant velocity."""
    if state.direction is Direction.FORWARD:
        steps = target_frame - state.anchor_frame
        if steps < 0:
            raise ValueError(
                f"forward state at frame {state.anchor_frame} cannot predict "
                f"earlier frame {target_frame}")
    else:
        steps = state.anchor_frame - target_frame
        if steps < 0:
            raise ValueError(
                f"backward state at frame {state.anchor_frame} cannot predict "
                f"later frame {target_frame}")
    return BoundingBox(*_advance(state.mean, steps))


class FitCache:
    """Memoizes directional fits by tracklet id (ids are never reused)."""

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self._states: dict[tuple[int, Direction], MotionState] = {}

    def get(self, tracklet: Tracklet, direction: Direction) -> MotionState:
        key = (tracklet.tid, direction)
        state = self._states.get(key)
        if state is None:
            state = fit(tracklet, direction, self.cfg)
            self._states[key] = state
        return state


def pair_scores(pairs: Sequence[tuple[Tracklet, Tracklet]], kernel,
                cache: FitCache) -> np.ndarray:
    """Similarities in [0, 1] of (earlier, later) tracklet pairs, each in
    canonical time order, scored in one batch.

    Disjoint tracklets are scored by cross prediction: forward-predict the
    earlier one to the later's first frame and backward-predict the later one
    to the earlier's last frame, averaging the two kernel values.  Tracklets
    that share frames are scored by the mean kernel over co-occurring actual
    boxes; overlapping spans without any shared frame fall back to the
    prediction form (extrapolating backward over the short overlap).  Each
    form evaluates the kernel once, over the aligned boxes of all its pairs.
    """
    if any(e.t_min > l.t_min for e, l in pairs):
        raise ValueError("tracklets must be given in canonical time order")
    shared = {k: sorted(set(e.by_frame) & set(l.by_frame))
              for k, (e, l) in enumerate(pairs) if l.t_min <= e.t_max}
    shared = {k: frames for k, frames in shared.items() if frames}
    scores = np.empty(len(pairs))
    cross = [k for k in range(len(pairs)) if k not in shared]
    if cross:
        earlier = [pairs[k][0] for k in cross]
        later = [pairs[k][1] for k in cross]
        fwd = np.array([cache.get(t, Direction.FORWARD).mean for t in earlier])
        bwd = np.array([cache.get(t, Direction.BACKWARD).mean for t in later])
        # Forward states are anchored at t_max, backward ones at t_min.
        steps = np.array([[l.t_min - e.t_max] for e, l in zip(earlier, later)], float)
        s_fwd = kernel(_advance(fwd, steps), stack_boxes([t.first.box for t in later]))
        s_bwd = kernel(stack_boxes([t.last.box for t in earlier]), _advance(bwd, steps))
        scores[cross] = 0.5 * (s_fwd + s_bwd)
    if shared:
        boxes = [stack_boxes([pairs[k][side].by_frame[f].box
                              for k, frames in shared.items() for f in frames])
                 for side in (0, 1)]
        sizes = [len(frames) for frames in shared.values()]
        for k, vals in zip(shared, np.split(kernel(*boxes), np.cumsum(sizes)[:-1])):
            scores[k] = np.mean(vals)
    return scores


@dataclass(frozen=True)
class ChainPredictor:
    """Lightweight per-detection predictor extracted from a running filter.

    Velocity is stored per real-time frame regardless of the direction the
    filter ran in, so `at()` can step to any nearby frame directly.
    """
    anchor_frame: int
    pos: np.ndarray
    vel: np.ndarray

    def at(self, target_frame: int) -> BoundingBox:
        steps = target_frame - self.anchor_frame
        cx, cy, w, h = self.pos + steps * self.vel
        return BoundingBox(cx, cy, max(w, 1.0), max(h, 1.0))


def chain_predictors(chain: Sequence[Detection], cfg: TrackerConfig,
                     direction: Direction) -> list[ChainPredictor]:
    """One predictor per chain entry, filtered up to (and including) it.

    Forward predictors at entry k use entries [0..k]; Backward predictors use
    entries [k..end] filtered in reverse.  The list is indexed like `chain`
    regardless of direction.  A predictor whose history is a single entry has
    zero velocity, so its prediction degenerates to the entry's own box.
    """
    sign = 1.0 if direction is Direction.FORWARD else -1.0
    order = chain if direction is Direction.FORWARD else chain[::-1]
    flt = _ComponentFilter(order[0].box, cfg)
    snapshots = [ChainPredictor(order[0].frame, flt.x.copy(), sign * flt.v)]
    prev_frame = order[0].frame
    for det in order[1:]:
        for _ in range(abs(det.frame - prev_frame)):
            flt.predict()
        flt.update(det.box)
        prev_frame = det.frame
        snapshots.append(ChainPredictor(det.frame, flt.x.copy(), sign * flt.v))
    if direction is Direction.BACKWARD:
        snapshots.reverse()
    return snapshots
