"""Constant-velocity Kalman filtering over tracklets and the bidirectional
prediction similarity used when linking tracklets across a temporal gap.

The state tracks (cx, cy, w, h) plus per-frame velocities.  The four
components are independent under the constant-velocity model and start with
the same uncertainty and receive the same noise, so they share one 2x2
(value, velocity) covariance, kept as three scalars (p00, p01, p11).  One
function, `kalman_states`, filters many runs of detections in lockstep.
Noise scales with box height (position terms ~ h/20, velocity terms
~ h/160), the usual convention for this family of trackers.
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


def _predict(st: np.ndarray, wp: float, wv: float) -> np.ndarray:
    """One constant-velocity step of stacked states (see `kalman_states`)."""
    h = np.maximum(st[:, 3], 1.0)
    p00, p01, p11 = st[:, 8], st[:, 9], st[:, 10]
    return np.column_stack([st[:, :4] + st[:, 4:8], st[:, 4:8],
                            p00 + 2 * p01 + p11 + (wp * h) ** 2, p01 + p11,
                            p11 + (wv * h) ** 2])


def _update(st: np.ndarray, z: np.ndarray, wp: float) -> np.ndarray:
    """Correct stacked states with measured boxes z (n, 4)."""
    h = np.maximum(st[:, 3], 1.0)
    p00, p01, p11 = st[:, 8], st[:, 9], st[:, 10]
    gain_den = p00 + (wp * h) ** 2
    k0, k1 = p00 / gain_den, p01 / gain_den
    innov = z - st[:, :4]
    return np.column_stack([st[:, :4] + k0[:, None] * innov, st[:, 4:8] + k1[:, None] * innov,
                            (1 - k0) * p00, (1 - k0) * p01, p11 - k1 * p01])


def kalman_states(runs: Sequence[Sequence[Detection]], cfg: TrackerConfig) -> np.ndarray:
    """Filter every run of detections in the order given, all in one batch.

    Returns one row per entry, the runs' entries concatenated in input
    order: the state after filtering the run up to and including that entry,
    as (cx, cy, w, h, v_cx, v_cy, v_w, v_h, p00, p01, p11).  Velocities are
    per frame in the run's own time direction.  Missing intermediate frames
    cost one predict step each, inflating the covariance across gaps.

    The runs advance in lockstep by entry index, longest first, so the runs
    still active at step s are a prefix of the batch; a row whose gap is
    shorter than the step's longest one keeps its state through the extra
    predict steps.  Every row goes through the same floating-point operations
    as when it is filtered alone, so its states do not depend on the batch.
    """
    wp, wv = cfg.kf_position_weight, cfg.kf_velocity_weight
    lengths = np.array([len(run) for run in runs])
    order = np.argsort(-lengths, kind="stable")
    # Step-major layout: step s holds entry s of the `active[s]` longest runs.
    active = len(runs) - np.cumsum(np.bincount(lengths))[:-1]
    offset = np.concatenate([[0], np.cumsum(active)])
    rank = np.empty(len(runs), dtype=np.intp)
    rank[order] = np.arange(len(runs))
    step = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    slot = offset[step] + np.repeat(rank, lengths)
    entries = [d for run in runs for d in run]
    z = np.empty((len(entries), 4))
    z[slot] = stack_boxes([d.box for d in entries])
    frames = np.empty(len(entries), dtype=np.int64)
    frames[slot] = [d.frame for d in entries]

    first = z[:len(runs)]
    state = np.column_stack([first, np.zeros((len(runs), 4)),
                             (_INIT_POS_FACTOR * wp * first[:, 3]) ** 2, np.zeros(len(runs)),
                             (_INIT_VEL_FACTOR * wv * first[:, 3]) ** 2])
    out = np.empty((len(entries), 11))
    out[:len(runs)] = state
    for s in range(1, len(active)):
        m, lo, prev = active[s], offset[s], offset[s - 1]
        st = state[:m]
        gaps = np.abs(frames[lo:lo + m] - frames[prev:prev + m])
        for k in range(int(gaps.max())):
            moved = _predict(st, wp, wv)
            st = np.where((gaps > k)[:, None], moved, st)
        state[:m] = out[lo:lo + m] = _update(st, z[lo:lo + m], wp)
    return out[slot]


def _directed(tracklet: Tracklet, direction: Direction) -> Sequence[Detection]:
    return tracklet.entries if direction is Direction.FORWARD else tracklet.entries[::-1]


def fit(tracklet: Tracklet, direction: Direction, cfg: TrackerConfig) -> MotionState:
    """Filter the tracklet in frame order (Forward) or reverse (Backward).

    The returned state is anchored at t_max for Forward and t_min for
    Backward.
    """
    entries = _directed(tracklet, direction)
    return MotionState(kalman_states([entries], cfg)[-1, :8], entries[-1].frame, direction)


def _advance(states: np.ndarray, steps) -> np.ndarray:
    """[cx, cy, w, h] of states moved `steps` frames along their velocities;
    broadcasts over stacked (n, 8+) states with (n, 1) steps.  Sizes are
    clamped at 1 pixel."""
    box = states[..., :4] + steps * states[..., 4:8]
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
    """Final filter states by (tracklet id, is forward); ids are never reused.

    `states` fits every (tracklet, direction) of a request that is not yet
    cached in one `kalman_states` batch.  A state does not depend on the
    batch it was fitted in, so the cache is deterministic whatever the
    requests.  The key holds a bool, not the Direction: hashing an Enum
    runs Python code, and every request looks its key up twice.
    """

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self._states: dict[tuple[int, bool], np.ndarray] = {}

    def states(self, requests: Sequence[tuple[Tracklet, Direction]]) -> np.ndarray:
        """Stacked (cx, cy, w, h, velocities, p00, p01, p11) per request."""
        keys = [(t.tid, d is Direction.FORWARD) for t, d in requests]
        missing = {key: _directed(t, d) for key, (t, d) in zip(keys, requests)
                   if key not in self._states}
        if missing:
            runs = list(missing.values())
            last = np.cumsum([len(run) for run in runs]) - 1
            self._states.update(zip(missing, kalman_states(runs, self.cfg)[last]))
        return np.array([self._states[key] for key in keys])


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
    form evaluates the kernel once, over the aligned boxes of all its pairs,
    and the states the cross form still lacks are fitted in one batch.
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
        states = cache.states([(t, Direction.FORWARD) for t in earlier]
                              + [(t, Direction.BACKWARD) for t in later])
        fwd, bwd = states[:len(cross)], states[len(cross):]
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
