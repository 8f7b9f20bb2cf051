"""Constant-velocity Kalman filtering over runs of table rows and the
bidirectional prediction similarity used when linking tracklets across a
temporal gap.

The engine keeps its detections in one table: a frame column and an (N, 4)
box column of [cx, cy, w, h] rows, among others.  A run is an array of row
indices into that table, in the order the filter visits them: a tracklet's
frame-sorted rows for the forward direction, the same rows reversed for the
backward one.  Every function here gathers boxes and frames by row.

The state tracks (cx, cy, w, h) plus per-frame velocities.  The four
components are independent under the constant-velocity model and start with
the same uncertainty and receive the same noise, so they share one 2x2
(value, velocity) covariance, kept as three scalars (p00, p01, p11).  One
function, `kalman_states`, filters many runs in lockstep.  Noise scales with
box height (position terms ~ h/20, velocity terms ~ h/160), the usual
convention for this family of trackers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import TrackerConfig


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


def kalman_states(frame: np.ndarray, boxes: np.ndarray, runs: Sequence[np.ndarray],
                  cfg: TrackerConfig) -> np.ndarray:
    """Filter every run of table rows in the order given, all in one batch.

    `frame` and `boxes` are the table's columns.  Returns one row per entry,
    the runs' entries concatenated in input order: the state after filtering
    the run up to and including that entry, as (cx, cy, w, h, v_cx, v_cy,
    v_w, v_h, p00, p01, p11).  Velocities are per frame in the run's own
    time direction.  Missing intermediate frames cost one predict step each,
    inflating the covariance across gaps.

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
    rows = np.concatenate(runs)
    z = np.empty((len(rows), 4))
    z[slot] = boxes[rows]
    frames = np.empty(len(rows), dtype=np.int64)
    frames[slot] = frame[rows]

    first = z[:len(runs)]
    state = np.column_stack([first, np.zeros((len(runs), 4)),
                             (_INIT_POS_FACTOR * wp * first[:, 3]) ** 2, np.zeros(len(runs)),
                             (_INIT_VEL_FACTOR * wv * first[:, 3]) ** 2])
    out = np.empty((len(rows), 11))
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


def _advance(states: np.ndarray, steps) -> np.ndarray:
    """[cx, cy, w, h] of states moved `steps` frames along their velocities;
    broadcasts over stacked (n, 8+) states with (n, 1) steps.  Sizes are
    clamped at 1 pixel."""
    box = states[..., :4] + steps * states[..., 4:8]
    box[..., 2:] = np.maximum(box[..., 2:], 1.0)
    return box


class FitCache:
    """Final filter states by (tracklet id, is forward); ids are never reused.

    The cache belongs to one table, whose frame and box columns it keeps.
    `states` fits every (tracklet, direction) of a request that is not yet
    cached in one `kalman_states` batch.  A state does not depend on the
    batch it was fitted in, so the cache is deterministic whatever the
    requests.
    """

    def __init__(self, cfg: TrackerConfig, frame: np.ndarray, boxes: np.ndarray):
        self.cfg = cfg
        self.frame = frame
        self.boxes = boxes
        self._states: dict[tuple[int, bool], np.ndarray] = {}

    def states(self, requests: Sequence[tuple]) -> np.ndarray:
        """Stacked (cx, cy, w, h, velocities, p00, p01, p11) per (tracklet,
        is forward) request; a forward state is anchored at the tracklet's
        last frame, a backward one at its first."""
        keys = [(t.tid, forward) for t, forward in requests]
        missing = {key: t.rows if forward else t.rows[::-1]
                   for key, (t, forward) in zip(keys, requests) if key not in self._states}
        if missing:
            runs = list(missing.values())
            last = np.cumsum([len(run) for run in runs]) - 1
            self._states.update(zip(missing, kalman_states(self.frame, self.boxes, runs,
                                                           self.cfg)[last]))
        return np.array([self._states[key] for key in keys])


def pair_scores(pairs: Sequence[tuple], kernel, cache: FitCache) -> np.ndarray:
    """Similarities in [0, 1] of (earlier, later) tracklet pairs, each in
    canonical time order, scored in one batch.

    A tracklet is a `tid`, a frame-sorted `rows` array into the cache's table
    and its `t_min`/`t_max`.  Disjoint tracklets are scored by cross
    prediction: forward-predict the earlier one to the later's first frame
    and backward-predict the later one to the earlier's last frame, averaging
    the two kernel values.  Tracklets that share frames are scored by the
    mean kernel over co-occurring actual boxes; overlapping spans without any
    shared frame fall back to the prediction form (extrapolating backward
    over the short overlap).  Each form evaluates the kernel once, over the
    aligned boxes of all its pairs, and the states the cross form still lacks
    are fitted in one batch.
    """
    if any(e.t_min > l.t_min for e, l in pairs):
        raise ValueError("tracklets must be given in canonical time order")
    frame, boxes = cache.frame, cache.boxes
    shared = {}  # pair index -> (earlier rows, later rows) at the shared frames
    for k, (e, l) in enumerate(pairs):
        if l.t_min <= e.t_max:
            _, ie, il = np.intersect1d(frame[e.rows], frame[l.rows], assume_unique=True,
                                       return_indices=True)
            if ie.size:
                shared[k] = (e.rows[ie], l.rows[il])
    scores = np.empty(len(pairs))
    cross = [k for k in range(len(pairs)) if k not in shared]
    if cross:
        earlier = [pairs[k][0] for k in cross]
        later = [pairs[k][1] for k in cross]
        states = cache.states([(t, True) for t in earlier] + [(t, False) for t in later])
        fwd, bwd = states[:len(cross)], states[len(cross):]
        # Forward states are anchored at t_max, backward ones at t_min.
        steps = np.array([[l.t_min - e.t_max] for e, l in zip(earlier, later)], float)
        s_fwd = kernel(_advance(fwd, steps), boxes[[t.rows[0] for t in later]])
        s_bwd = kernel(boxes[[t.rows[-1] for t in earlier]], _advance(bwd, steps))
        scores[cross] = 0.5 * (s_fwd + s_bwd)
    if shared:
        rows = [np.concatenate([r[side] for r in shared.values()]) for side in (0, 1)]
        sizes = [len(r[0]) for r in shared.values()]
        vals = kernel(boxes[rows[0]], boxes[rows[1]])
        for k, part in zip(shared, np.split(vals, np.cumsum(sizes)[:-1])):
            scores[k] = np.mean(part)
    return scores
