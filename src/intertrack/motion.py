"""Constant-velocity Kalman filtering over runs of table rows and the
bidirectional prediction similarity used when linking tracklets across a
temporal gap.

The engine keeps its detections in one table: a frame column and an (N, 4)
box column of [cx, cy, w, h] rows, among others.  A run is row indices into
that table in the order the filter visits them: a tracklet's frame-sorted
rows forward, reversed (`reversed_runs`) backward.  Runs travel laid end to
end with their lengths, as a `TrackletTable` holds them.

The state tracks (cx, cy, w, h) plus per-frame velocities.  The four
components are independent under the constant-velocity model and start with
the same uncertainty and receive the same noise, so they share one 2x2
(value, velocity) covariance, kept as three scalars (p00, p01, p11).  One
function, `kalman_states`, filters many runs in lockstep, each from the fresh
state of its first box or from a given state.  Noise scales with box height
(position terms ~ h/20, velocity terms ~ h/160), the usual convention for
this family of trackers.

`FitCache` keeps each tracklet's final forward and backward state.  A merge
that lays its parts' rows end to end continues its parts' states over the
rows it adds, bit for bit the filter of all its rows; every other tracklet
is filtered from its first row.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .assignment import distinct, pair_chunks
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
    out = np.empty_like(st)
    np.add(st[:, :4], st[:, 4:8], out=out[:, :4])
    out[:, 4:8] = st[:, 4:8]
    out[:, 8] = p00 + 2 * p01 + p11 + (wp * h) ** 2
    out[:, 9] = p01 + p11
    out[:, 10] = p11 + (wv * h) ** 2
    return out


def _update(st: np.ndarray, z: np.ndarray, wp: float) -> np.ndarray:
    """Correct stacked states with measured boxes z (n, 4)."""
    h = np.maximum(st[:, 3], 1.0)
    p00, p01, p11 = st[:, 8], st[:, 9], st[:, 10]
    gain_den = p00 + (wp * h) ** 2
    k0, k1 = p00 / gain_den, p01 / gain_den
    innov = z - st[:, :4]
    out = np.empty_like(st)
    out[:, :4] = st[:, :4] + k0[:, None] * innov
    out[:, 4:8] = st[:, 4:8] + k1[:, None] * innov
    out[:, 8] = (1 - k0) * p00
    out[:, 9] = (1 - k0) * p01
    out[:, 10] = p11 - k1 * p01
    return out


def reversed_runs(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs laid end to end in `rows` with the given lengths, each one
    reversed in its place."""
    ends = np.cumsum(lengths)
    return rows[np.repeat(2 * ends - lengths - 1, lengths) - np.arange(rows.size)]


def kalman_states(frame: np.ndarray, boxes: np.ndarray, rows: np.ndarray, lengths: np.ndarray,
                  cfg: TrackerConfig, initial: Optional[np.ndarray] = None) -> np.ndarray:
    """Filter the runs of table rows laid end to end in `rows`, of the given
    integer `lengths` (each >= 1; none for no runs), in one batch.

    `frame` and `boxes` are the table's columns.  Returns one row per entry
    of `rows`, in its order: the state after filtering the run up to and
    including that entry, as (cx, cy, w, h, v_cx, v_cy, v_w, v_h, p00, p01,
    p11).  Velocities are per frame in the run's own
    time direction.  Missing intermediate frames cost one predict step each,
    inflating the covariance across gaps.

    A run starts from the fresh state of its first box, or, where `initial`
    (one row per run) is not NaN, from that state, taken as the state at its
    first entry.  So a run that continues the final state of a run ending at
    that entry gets the states the two runs filtered as one would get.

    The runs advance in lockstep by entry index, longest first, so the runs
    still active at step s are a prefix of the batch.  Every step's frame
    gaps are taken at once; the predicts below a step's smallest gap move
    every active run, and a row whose gap is shorter than the step's largest
    one keeps its state through the rest.  Every row goes through the same
    floating-point operations as when it is filtered alone, so its states do
    not depend on the batch.
    """
    wp, wv = cfg.kf_position_weight, cfg.kf_velocity_weight
    count = lengths.size
    order = np.argsort(-lengths, kind="stable")
    # Step-major layout: step s holds entry s of the `active[s]` longest runs.
    active = count - np.cumsum(np.bincount(lengths))[:-1]
    offset = np.concatenate([[0], np.cumsum(active)])
    rank = np.empty(count, dtype=np.intp)
    rank[order] = np.arange(count)
    step = np.arange(len(rows)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    slot = offset[step] + np.repeat(rank, lengths)
    z = np.empty((len(rows), 4))
    z[slot] = boxes[rows]
    frames = np.empty(len(rows), dtype=np.int64)
    frames[slot] = frame[rows]

    first = z[:count]
    state = np.column_stack([first, np.zeros((count, 4)),
                             (_INIT_POS_FACTOR * wp * first[:, 3]) ** 2, np.zeros(count),
                             (_INIT_VEL_FACTOR * wv * first[:, 3]) ** 2])
    if initial is not None:
        given = ~np.isnan(initial[:, 0])
        state[rank[given]] = initial[given]
    out = np.empty((len(rows), 11))
    out[:count] = state
    # Each entry's frame gap from its run's previous entry (0 at a run's
    # first), in slot order, and each step's smallest and largest one.
    gaps = np.zeros(len(rows), np.int64)
    gaps[count:] = np.abs(frames[count:] - frames[np.arange(count, len(rows))
                                                  - np.repeat(active[:-1], active[1:])])
    at = offset[1:-1]
    low, high = ((np.minimum.reduceat(gaps, at).tolist(), np.maximum.reduceat(gaps, at).tolist())
                 if at.size else ([], []))
    for m, lo, below, top in zip(active[1:].tolist(), at.tolist(), low, high):
        st = state[:m]
        for _ in range(below):
            st = _predict(st, wp, wv)
        for k in range(below, top):
            st = np.where((gaps[lo:lo + m] > k)[:, None], _predict(st, wp, wv), st)
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
    """Final filter states of a class's tracklets in one array per
    direction, indexed by tracklet id; ids are never reused, and a
    tracklet's rows never change under one id.

    The cache belongs to one table, whose frame and box columns it keeps.
    `states` fits the states of a request not yet cached in one
    `kalman_states` batch.  A state does not depend on the batch it was
    fitted in, so the cache is deterministic whatever the requests.

    A merge that lays its parts' rows end to end tells the cache, by
    `merged`, the tid and size of the new tracklet's first and last part.
    Its forward state then continues the first part's cached forward state
    over the rows after that part, and its backward state the last part's
    cached backward state over the reversed rows before that part; each
    equals the filter of all its rows bit for bit.  A tracklet the cache
    was told nothing of, or whose part has no cached state, is filtered
    from its first row.  `work` counts, since the cache was made, the
    states fitted, those of them continued, the entries filtered and the
    lockstep steps, each `kalman_states` batch's longest run.
    """

    def __init__(self, cfg: TrackerConfig, frame: np.ndarray, boxes: np.ndarray):
        self.cfg = cfg
        self.frame = frame
        self.boxes = boxes
        # [0, tid] and [1, tid]: the forward and backward state of tracklet
        # tid, NaN until fitted.
        self._states = np.empty((2, 0, 11))
        # [0, tid] and [1, tid]: the (tid, size) of tracklet tid's first and
        # last part, (-1, -1) where it has none.
        self._parts = np.empty((2, 0, 2), np.intp)
        self.work = np.zeros(4, np.int64)

    def _grow(self, tids: int) -> None:
        """Room for the tracklet ids below `tids`."""
        grow = tids - self._states.shape[1]
        if grow > 0:
            self._states = np.concatenate([self._states, np.full((2, grow, 11), np.nan)], 1)
            self._parts = np.concatenate([self._parts, np.full((2, grow, 2), -1)], 1)

    def merged(self, tid: np.ndarray, first: np.ndarray, first_size: np.ndarray,
               last: np.ndarray, last_size: np.ndarray) -> None:
        """Record that the new tracklets `tid` hold their parts' rows laid
        end to end: first the `first_size` rows of tracklet `first`, last
        the `last_size` rows of tracklet `last`."""
        self._grow(int(tid.max(initial=-1)) + 1)
        self._parts[0, tid] = np.column_stack([first, first_size])
        self._parts[1, tid] = np.column_stack([last, last_size])

    def states(self, tracklets, forward: np.ndarray,
               backward: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The forward states of the tracklets `forward` and the backward
        states of the tracklets `backward`, index arrays into `tracklets` (a
        `hierarchy.TrackletTable` over the cache's table), as stacked (cx,
        cy, w, h, velocities, p00, p01, p11); a forward state is anchored at
        the tracklet's last frame, a backward one at its first."""
        tid = tracklets.tid
        self._grow(int(tid.max(initial=-1)) + 1)
        missing = [side[np.isnan(self._states[d, tid[side], 0])]
                   for d, side in enumerate((forward, backward))]
        if missing[0].size or missing[1].size:
            ahead, back = tracklets.take(missing[0]), tracklets.take(missing[1])
            size = np.concatenate([ahead.size, back.size])
            runs = np.concatenate([ahead.rows, reversed_runs(back.rows, back.size)])
            part, part_size = np.concatenate([self._parts[0, ahead.tid],
                                              self._parts[1, back.tid]]).T
            initial = np.concatenate([self._states[0, part[:ahead.tid.size]],
                                      self._states[1, part[ahead.tid.size:]]])
            initial[part < 0] = np.nan
            # A continued run starts at its part's last entry.
            given = ~np.isnan(initial[:, 0])
            skip = np.where(given, part_size - 1, 0)
            entry = np.arange(runs.size) - np.repeat(np.cumsum(size) - size, size)
            rows, lengths = runs[entry >= np.repeat(skip, size)], size - skip
            fitted = kalman_states(self.frame, self.boxes, rows, lengths, self.cfg,
                                   initial)[np.cumsum(lengths) - 1]
            self.work += [lengths.size, np.count_nonzero(given), rows.size, lengths.max()]
            self._states[0, tid[missing[0]]], self._states[1, tid[missing[1]]] = np.split(
                fitted, [missing[0].size])
        return self._states[0, tid[forward]], self._states[1, tid[backward]]


def _shared_frames(tracklets, a: np.ndarray, b: np.ndarray,
                   frame: np.ndarray) -> tuple[np.ndarray, ...]:
    """The frames shared by the pairs of tracklets (a[k], b[k]), each in
    canonical time order: per shared frame, in (k, frame) order, k and the
    two tracklets' rows at that frame.

    Only the later tracklet's rows up to the earlier one's last frame can be
    shared; each is looked up among the earlier one's rows by a key that
    increases along every tracklet's rows and from tracklet to tracklet."""
    t_min, t_max = tracklets.t_min, tracklets.t_max
    pairs = np.flatnonzero(t_min[b] <= t_max[a])
    if not pairs.size:
        return pairs, pairs, pairs
    rows, size, start = tracklets.rows, tracklets.size, tracklets.start()
    span = t_max - t_min + 1
    base = np.cumsum(span) - span - t_min  # key of tracklet k's frame f: base[k] + f
    key = np.repeat(base, size) + frame[rows]
    x, y = a[pairs], b[pairs]
    head = np.searchsorted(key, base[y] + np.minimum(t_max[x], t_max[y]), "right") - start[y]
    k = np.repeat(pairs, head)
    pos = np.arange(head.sum()) - np.repeat(np.cumsum(head) - head - start[y], head)
    want = np.repeat(base[x], head) + frame[rows[pos]]
    at = np.searchsorted(key, want)
    hit = key[at] == want
    return k[hit], rows[at[hit]], rows[pos[hit]]


def pair_scores(tracklets, a: np.ndarray, b: np.ndarray, kernel,
                cache: FitCache) -> np.ndarray:
    """Similarities in [0, 1] of the pairs of tracklets (a[k], b[k]), index
    arrays into `tracklets`, each pair in canonical time order.

    `tracklets` is a `hierarchy.TrackletTable` over the cache's table.
    Disjoint tracklets are scored by cross prediction: forward-predict the
    earlier one to the later's first frame and backward-predict the later
    one to the earlier's last frame, averaging the two kernel values.
    Tracklets that share frames are scored by the mean kernel over
    co-occurring actual boxes; overlapping spans without any shared frame
    fall back to the prediction form (extrapolating backward over the short
    overlap).

    The cache is asked once, for the forward states of the distinct earlier
    tracklets of the cross pairs and the backward states of the distinct
    later ones.  The kernel then runs over `pair_chunks` of the aligned
    boxes, so its temporaries stay bounded whatever the number of pairs.
    """
    t_min, t_max = tracklets.t_min, tracklets.t_max
    if (t_min[a] > t_min[b]).any():
        raise ValueError("tracklets must be given in canonical time order")
    frame, boxes = cache.frame, cache.boxes
    pair, row_a, row_b = _shared_frames(tracklets, a, b, frame)
    shared = np.zeros(len(a), bool)
    shared[pair] = True
    scores = np.empty(len(a))
    cross = np.flatnonzero(~shared)
    if cross.size:
        earlier, later = (np.flatnonzero(np.bincount(side[cross], minlength=t_min.size))
                          for side in (a, b))
        # Per tracklet: its forward and backward state, where a pair needs it.
        fwd, bwd = np.empty((2, t_min.size, 11))
        fwd[earlier], bwd[later] = cache.states(tracklets, earlier, later)
        first, last = tracklets.first(), tracklets.last()
        for part in pair_chunks(cross.size):
            e, l = a[cross[part]], b[cross[part]]
            # Forward states are anchored at t_max, backward ones at t_min.
            steps = (t_min[l] - t_max[e]).astype(float)[:, None]
            s_fwd = kernel(_advance(fwd[e], steps), boxes[first[l]])
            s_bwd = kernel(boxes[last[e]], _advance(bwd[l], steps))
            scores[cross[part]] = 0.5 * (s_fwd + s_bwd)
    if pair.size:
        vals = np.concatenate([kernel(boxes[row_a[part]], boxes[row_b[part]])
                               for part in pair_chunks(pair.size)])
        done, at, count = np.unique(pair, return_index=True, return_counts=True)
        # One mean per shared-frame count, so each sums as np.mean of its pair.
        for size in distinct(count)[0].tolist():
            sel = count == size
            scores[done[sel]] = vals[at[sel][:, None] + np.arange(size)].mean(axis=1)
    return scores
