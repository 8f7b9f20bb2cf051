"""The hierarchical association engine.

Detections become singleton tracklets which are merged level by level, each
level admitting pairs separated by a larger temporal gap (1, 5, 10, ...
frames by default; the final level also tolerates a few overlapping frames
so doubly-tracked segments can be joined).  The first level is special: it
runs frame-by-frame, can exploit per-detection motion histories from a
preliminary static pass (the two-pass scheme that untangles crossing
targets), absorbs low-confidence detections into tracklet endpoints, and
feeds the detection-only camera-movement estimate that stabilizes all later
levels.  A window-scheduled variant (non-overlapping temporal windows per
level) is included as the ablation baseline.

One function runs each class, `_run_class`: `track` starts it from
detections, `refine` from pre-formed tracklets.  Both share one camera step,
one stage loop and one merge-to-fixpoint loop, which the two schedule
strategies differ in only by which admissible pairs they keep; both
frame-adjacent passes share one frame-linking loop and differ only in their
score matrix.

Tracklet intervals are the priors that bound each level's candidates.  The
merge loop never scans all pairs and builds no per-pair object: since the
tracklets are sorted by t_min, a binary search finds, for every tracklet at
once, the index range of those whose first frame lies in its admissible
window (a gap of at most the level's bound, or a bounded overlap), and one
elementwise test filters the pairs of those ranges.  A round's pairs are
scored in one `score` call, which fits the missing motion states in one
Kalman batch and runs the box kernel in chunks of at most
`assignment._CHUNK_CELLS` pairs.  `solve_pairs` then matches the pairs one
connected component of pairs above 0 at a time, on the first level's
chunker and certificates; no tracklets x tracklets matrix is built.

The first level scores its frame pairs in chunks, not one pair at a time,
on the chunker it shares with `eval`, `assignment.padded_chunks`: the
(t, t+1) blocks are sorted by shape and cut into chunks of at most
`assignment._CHUNK_CELLS` padded cells, so the kernel's temporaries stay
bounded on long or crowded sequences.  Each chunk is one kernel call over
boxes gathered by row; a block smaller than its chunk's largest is padded by
repeating one of its own frame's detections, so padded cells are finite, and
they are never read.  Each chunk is also one `solve_blocks` call: a
connected component of a block's cells whose rows' (or columns') best cells
are unique and distinct is matched by that argmax, which the `assignment`
module shows is optimal, and only the other components are solved by
augmenting paths.

The engine runs on one `BoxTable`, `id` the det_id, with rows in (frame,
det_id) order, so each frame is one row range.  `run_table` and
`associate_table` return the output track id of each row kept.  Each class
runs on its own table of the class's rows.  Its tracklets are one
`TrackletTable` of arrays, which every pass takes with the class table and
reads by column: the rows of all tracklets laid end to end, and per
tracklet its size, tid, t_min and t_max.  Links, between tracklets or rows
of adjacent frames, are chained as their connected components, laid out by
one stable sort.  Camera stabilization returns a class table with a new box
column, so the results keep the input boxes exactly.

Each class keeps one record of its levels: a tuple of `LevelTrace`s, each
holding the level's `TrackletTable` and the class table's frame and det_id
columns.  A level's tracklet count and its (frame, det_id) members, which
only `--dump-hierarchy` and library callers read, are computed when read,
and `ClassRunResult.counts` (N_1..N_l) is derived from the same tuple: every
trace but the low-score recovery, which is its own trace in both schedules
and only grows the first level's tracklets.

Every pass is deterministic: tracklets are kept in (t_min, t_max, id) order,
ids are never reused, and matching ties are broken toward low indices.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import camera as camera_mod
from .assignment import (connected_components, pair_chunks, padded_chunks, solve, solve_blocks,
                         solve_pairs)
from .geometry import SimilarityKernel
from .model import BoxTable, Strategy, TrackerConfig, validate_config
from .motion import FitCache, _advance, kalman_states, pair_scores

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# The table, the tracklet table and trace types
# ---------------------------------------------------------------------------


def engine_order(table: BoxTable) -> np.ndarray:
    """Rows sorted stably by (frame, det_id, cx, cy, score), so rows that
    share a det_id still get a deterministic order."""
    return np.lexsort((table.score, table.boxes[:, 1], table.boxes[:, 0], table.id,
                       table.frame))


class TrackletTable(NamedTuple):
    """A class's tracklets, in (t_min, t_max, tid) order: the rows of
    all of them laid end to end, each tracklet's in frame order, and per
    tracklet its size (row count), tid, t_min and t_max."""
    rows: np.ndarray
    size: np.ndarray
    tid: np.ndarray
    t_min: np.ndarray
    t_max: np.ndarray

    def start(self) -> np.ndarray:  # each tracklet's first position in `rows`
        return np.cumsum(self.size) - self.size

    def first(self) -> np.ndarray:
        return self.rows[self.start()]

    def last(self) -> np.ndarray:
        return self.rows[np.cumsum(self.size) - 1]

    def take(self, k: np.ndarray) -> TrackletTable:
        """The tracklets k (indices or a mask), in the order of k."""
        size = self.size[k]
        shift = self.start()[k] - (np.cumsum(size) - size)
        return TrackletTable(self.rows[np.repeat(shift, size) + np.arange(size.sum())], size,
                             self.tid[k], self.t_min[k], self.t_max[k])


def _tracklet_table(frame: np.ndarray, rows: np.ndarray, size: np.ndarray,
                    tid: np.ndarray) -> TrackletTable:
    """The tracklets whose frame-ordered rows, laid end to end, are `rows`,
    with the given sizes and tids, put in (t_min, t_max, tid) order."""
    end = np.cumsum(size)
    t_min, t_max = frame[rows[end - size]], frame[rows[end - 1]]
    return TrackletTable(rows, size, tid, t_min, t_max).take(np.lexsort((tid, t_max, t_min)))


# Batched pair scorer: (tracklets, a, b) -> the similarity of each pair of
# tracklets (a[k], b[k]), earlier tracklet first.
PairScorer = Callable[[TrackletTable, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LevelTrace:
    """A class's tracklets after one level, as rows of the class table;
    its (frame, det_id) members are built only when read."""
    label: str
    tracklets: TrackletTable
    frame: np.ndarray
    det_id: np.ndarray

    @property
    def tracklet_count(self) -> int:
        return int(self.tracklets.size.size)

    @property
    def members(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per tracklet, its (frame, det_id) pairs in frame order."""
        t = self.tracklets
        pairs = tuple(zip(self.frame[t.rows].tolist(), self.det_id[t.rows].tolist()))
        return tuple(pairs[s:s + n] for s, n in zip(t.start().tolist(), t.size.tolist()))


# The label of the trace taken after low-score rows are absorbed into the
# first level's tracklets: its own trace in both schedules, but no level.
_RECOVERY = "low-score recovery"


@dataclass(frozen=True)
class ClassRunResult:
    class_id: int
    levels: tuple[LevelTrace, ...]
    camera: Optional[camera_mod.CameraProfile]

    @property
    def counts(self) -> tuple[int, ...]:
        """The tracklet counts N_1..N_l of the levels, leaving out the
        low-score recovery, its own trace in both schedules; (0,) for a
        class without high-score rows, which has no levels."""
        return tuple(lv.tracklet_count for lv in self.levels
                     if lv.label != _RECOVERY) or (0,)


class TableRun(NamedTuple):
    """The engine's table, the rows it keeps in (track, frame) order, and
    each kept row's output track id 1..K."""
    table: BoxTable
    rows: np.ndarray
    track: np.ndarray
    per_class: tuple[ClassRunResult, ...]

    def output(self) -> BoxTable:
        """The kept rows, `id` their track id."""
        return self.table.take(self.rows)._replace(id=self.track)


# ---------------------------------------------------------------------------
# Generic association machinery
# ---------------------------------------------------------------------------


def resolve_overlap(table: BoxTable, a: np.ndarray, b: np.ndarray,
                    max_overlap: int = 5) -> np.ndarray:
    """The frame-ordered rows of the merge of two matched tracklets, given by
    their frame-ordered rows, whose spans may overlap by a few frames.

    For a frame claimed by both, the higher-confidence detection wins; ties
    go to the tracklet that starts earlier, then to the box that is smaller
    in (cx, cy, w, h) order, then to the smaller det_id, so that the input
    row order only decides between equal boxes.  An overlap beyond
    max_overlap means the engine admitted an illegal pair and is treated as
    a bug, not a data condition.
    """
    frame = table.frame
    if frame[b[0]] < frame[a[0]]:
        a, b = b, a
    overlap = int(frame[a[-1]] - frame[b[0]]) + 1
    if overlap > max_overlap:
        raise ValueError(
            f"tracklets overlap by {overlap} frames (allowed {max_overlap})")
    rows = np.concatenate([a, b])
    if overlap <= 0:
        return rows
    # A frame's winner sorts first: the higher score, then `a` (the earlier
    # start after the swap above) unless both start together, then the
    # smaller box and det_id; an exact tie keeps `a` first.
    later = np.repeat([0, int(frame[a[0]] != frame[b[0]])], [a.size, b.size])
    rows = rows[np.lexsort((table.id[rows], *table.boxes[rows].T[::-1], later,
                            -table.score[rows], frame[rows]))]
    # Within one table, frame-sorted rows are ascending rows.
    return rows[np.r_[True, frame[rows[1:]] != frame[rows[:-1]]]]


def _chain_layout(count: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain the links a[k] -> b[k] (a[k] < b[k], at most one link into and
    one out of each of the nodes 0..count-1) as their connected components:
    the nodes laid out chain by chain in link order, the chains ordered by
    their lowest nodes, their heads; and each chain's node count."""
    chains, label = connected_components(count, a, b)
    return np.argsort(label, kind="stable"), np.bincount(label, minlength=chains)


def _merge_round(table: BoxTable, tracklets: TrackletTable, a: np.ndarray, b: np.ndarray,
                 max_overlap: int) -> TrackletTable:
    """Merge each chain of the matches a[k] -> b[k] into one tracklet with a
    new tid: its parts' rows laid end to end, or `resolve_overlap` of its
    parts in turn for a chain with an overlapping link."""
    order, parts = _chain_layout(tracklets.tid.size, a, b)
    head = np.cumsum(parts) - parts
    chained = tracklets.take(order)
    rows, size, tid = chained.rows, np.add.reduceat(chained.size, head), chained.tid[head]
    tid[parts > 1] = tracklets.tid.max() + 1 + np.arange(np.count_nonzero(parts > 1))
    overlaps = np.zeros(order.size, bool)
    overlaps[a[tracklets.t_min[b] <= tracklets.t_max[a]]] = True
    redo = np.flatnonzero(np.logical_or.reduceat(overlaps[order], head)).tolist()
    if redo:
        runs = np.split(rows, np.cumsum(chained.size)[:-1])
        pieces = np.split(rows, np.cumsum(size)[:-1])
        for c in redo:
            pieces[c] = functools.reduce(lambda x, y: resolve_overlap(table, x, y, max_overlap),
                                         runs[head[c]:head[c] + parts[c]])
        rows, size = np.concatenate(pieces), np.array([len(p) for p in pieces])
    return _tracklet_table(table.frame, rows, size, tid)


def _interval_admissible(dt_bound: int, overlap_allowance: int, tracklets: TrackletTable,
                         a, b):
    """Whether tracklet b may follow tracklet a at a level, elementwise over
    index arrays a and b into `tracklets`; a call on two indices is a
    one-element call.  b must come after a in (t_min, t_max, tid) order,
    which is the table's, and either start within dt_bound frames after a
    ends or share at most overlap_allowance frames with it."""
    gap = tracklets.t_min[b] - tracklets.t_max[a]
    # Shared frames, counted as resolve_overlap counts them.
    shared = 1 - gap
    return (np.asarray(a) < b) & (((0 < gap) & (gap <= dt_bound))
                                  | ((0 < shared) & (shared <= overlap_allowance)))


def _admissible_pairs(tracklets: TrackletTable, dt_bound: int,
                      overlap_allowance: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b) of `tracklets` that `_interval_admissible` admits,
    as two arrays in sorted (a, b) order.

    Only b with t_min in [t_max[a] - overlap_allowance + 1, t_max[a] +
    dt_bound] can be admitted, and since t_min is sorted each a's window is
    one index range, found by a binary search.  The windows, laid end to end,
    are expanded into pairs and filtered `pair_chunks` candidates at a time."""
    t_min, t_max = tracklets.t_min, tracklets.t_max
    lo = np.searchsorted(t_min, t_max - overlap_allowance + 1, "left")
    count = np.searchsorted(t_min, t_max + dt_bound, "right") - lo
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    a, b = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for part in pair_chunks(total):
        at = np.arange(part.start, min(part.stop, total))
        x = np.searchsorted(ends, at, "right")
        y = at - ends[x] + count[x] + lo[x]
        keep = _interval_admissible(dt_bound, overlap_allowance, tracklets, x, y)
        a.append(x[keep])
        b.append(y[keep])
    return np.concatenate(a), np.concatenate(b)


def _merge_to_fixpoint(table: BoxTable, tracklets: TrackletTable,
                       pairs: Callable[[TrackletTable], tuple[np.ndarray, np.ndarray]],
                       overlap_allowance: int, score: PairScorer, gate: float,
                       label: str) -> TrackletTable:
    """Score the index pairs `pairs` admits in one `score` call, match them
    with `solve_pairs`, merge the matches, and repeat until a round matches
    nothing.  Logs, at INFO, one line per round."""
    for round_ in itertools.count(1):
        a, b = pairs(tracklets)
        scores = score(tracklets, a, b) if a.size else np.zeros(0)
        found = solve_pairs(a, b, scores, gate)
        log.info("merge level (%s) round %d: %d pairs admitted, %d above 0, %d components "
                 "solved (largest %d nodes), %d by augmenting paths, %d matches",
                 label, round_, a.size, int((scores > 0).sum()), found.components,
                 found.largest, found.exact, found.a.size)
        if not found.a.size:
            return tracklets
        tracklets = _merge_round(table, tracklets, found.a, found.b, overlap_allowance)


def _bounds_label(bound: int, overlap: int, window: bool) -> str:
    if window:
        return f"window {bound}"
    return f"gap {bound}, overlap {overlap}" if overlap else f"gap {bound}"


def hierarchy_pass(table: BoxTable, tracklets: TrackletTable, dt_bound: int,
                   overlap_allowance: int, score: PairScorer, gate: float) -> TrackletTable:
    """One interval-scheduled level: admit pairs with gap in (0, dt_bound]
    (plus a bounded overlap on the final level) and merge until fixpoint."""
    return _merge_to_fixpoint(table, tracklets,
                              lambda t: _admissible_pairs(t, dt_bound, overlap_allowance),
                              overlap_allowance, score, gate,
                              _bounds_label(dt_bound, overlap_allowance, False))


def _window_pairs(tracklets: TrackletTable,
                  window_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs `_admissible_pairs` admits at a gap bound of window_size
    that lie inside one window: b starts after a ends, so a's first frame
    and b's last one do.  Straddling tracklets sit the level out."""
    a, b = _admissible_pairs(tracklets, window_size, 0)
    keep = (tracklets.t_min[a] - 1) // window_size == (tracklets.t_max[b] - 1) // window_size
    return a[keep], b[keep]


def window_strategy_pass(table: BoxTable, tracklets: TrackletTable, window_size: int,
                         score: PairScorer, gate: float) -> TrackletTable:
    """One window-scheduled level: tracklets may merge only when both lie
    entirely inside the same window of the given size."""
    return _merge_to_fixpoint(table, tracklets, lambda t: _window_pairs(t, window_size), 0,
                              score, gate, _bounds_label(window_size, 0, True))


# ---------------------------------------------------------------------------
# First level: frame-adjacent chaining, motion second pass, low-score rescue
# ---------------------------------------------------------------------------


# Block scorer: padded (pairs, n) row and (pairs, m) column positions into
# the frame-sorted rows being linked -> (pairs, n, m) similarities.
BlockScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]
# Chains of rows: their rows laid end to end, each chain in frame order and
# the chains in the order of their first rows, and each chain's size.
Chains = tuple[np.ndarray, np.ndarray]


def _block_scores(kernel: SimilarityKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel of every row of each (pairs, n, 4) block of `a` against every
    row of the same block of `b` (pairs, m, 4): (pairs, n, m)."""
    return kernel(a[:, :, None], b[:, None, :])


def _link_frames(frame: np.ndarray, score: BlockScorer, gate: float) -> Chains:
    """Match every frame t against frame t+1 and chain the links; returns
    the chains of positions into `frame` (`_chain_layout`), each covering a
    run of consecutive frames.

    `frame` is sorted, so each frame is one position range.  The (t, t+1)
    blocks are scored and matched a chunk at a time (`padded_chunks`):
    `score` gets a chunk's row and column position ranges padded to its
    largest block, and one `solve_blocks` call reads only each block's real
    [k, :n, :m] cells.  Logs, at INFO, the pass's frame pairs, chunks and
    the components solved by augmenting paths.
    """
    ts, first, size = np.unique(frame, return_index=True, return_counts=True)
    # Index into ts of the earlier frame of each (t, t+1) pair.
    lead = np.flatnonzero(ts[1:] == ts[:-1] + 1)
    n, m = size[lead], size[lead + 1]
    link_a, link_b = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    chunks = exact = 0
    for blocks, rows, cols in padded_chunks(first[lead], n, first[lead + 1], m):
        found, searched = solve_blocks(score(rows, cols), n[blocks], m[blocks], gate)
        blk, i, j = found.T
        link_a.append(rows[blk, i])
        link_b.append(cols[blk, j])
        chunks += 1
        exact += searched
    log.info("first level: %d frame pairs in %d chunks, %d components solved by augmenting "
             "paths", lead.size, chunks, exact)
    return _chain_layout(len(frame), np.concatenate(link_a), np.concatenate(link_b))


def adjacent_pass(table: BoxTable, rows: np.ndarray, kernel: SimilarityKernel,
                  gate: float) -> Chains:
    """Static frame-to-next-frame chaining of the given rows (in table order).

    Matches each frame against the following one with the configured kernel
    and links the optimal matches into chains of rows; every chain covers
    a run of consecutive frames.  Each chunk of frame pairs is one kernel
    call over boxes gathered by row.
    """
    boxes = table.boxes[rows]
    order, size = _link_frames(table.frame[rows],
                               lambda r, c: _block_scores(kernel, boxes[r], boxes[c]), gate)
    return rows[order], size


def consistent_motion_pass(table: BoxTable, rows: np.ndarray, preliminary_chains: Chains,
                           cfg: TrackerConfig, kernel: SimilarityKernel) -> Chains:
    """Re-run the frame-adjacent association of `rows` (in table order) with
    motion-informed similarity.

    The preliminary chains partition `rows`.  Every chain is Kalman-filtered
    forward and backward in one `kalman_states` batch, so each row carries
    the state accumulated along its chain up to it from either side.
    Candidates in the next frame are compared against the forward prediction
    of the earlier row, and the earlier box against the backward prediction
    of the candidate, averaging the two kernel values.  Rows with
    single-entry histories predict their own box, which reduces to the
    static similarity.  Both one-frame predictions of every row are made
    once per pass; each chunk of frame pairs gathers them by position.
    Preliminary links are discarded; only the second-pass links survive.
    """
    chains = np.split(preliminary_chains[0], np.cumsum(preliminary_chains[1])[:-1])
    runs = [*chains, *(chain[::-1] for chain in chains)]
    states = kalman_states(table.frame, table.boxes, runs, cfg)
    # entry[0, row] and entry[1, row]: the row's forward and backward state.
    entry = np.empty((2, len(table.frame)), np.intp)
    entry[np.repeat([0, 1], len(states) // 2), np.concatenate(runs)] = np.arange(len(states))
    boxes = table.boxes[rows]
    # Both predictions step one frame in their filter's own direction.
    ahead = _advance(states[entry[0, rows]], 1)
    behind = _advance(states[entry[1, rows]], 1)

    def score(r, c):
        return 0.5 * (_block_scores(kernel, ahead[r], boxes[c])
                      + _block_scores(kernel, boxes[r], behind[c]))
    order, size = _link_frames(table.frame[rows], score, cfg.match_threshold)
    return rows[order], size


def byte_recovery(table: BoxTable, tracklets: TrackletTable, low: np.ndarray,
                  kernel: SimilarityKernel, gate: float) -> TrackletTable:
    """Absorb low-confidence rows (in table order) into temporally adjacent
    tracklet endpoints, a frame at a time; leftovers are dropped and never
    start a trajectory.  A tracklet that absorbs a row gets a new tid.

    A frame's candidates are found by masks over the endpoint arrays.  A
    tracklet's end moves as it absorbs, so a later frame can extend it
    again; its start need not, since no later frame lies before it.  Logs,
    at INFO, the low rows, the frames with candidates and the rows absorbed."""
    if not len(low):
        return tracklets
    t = tracklets
    tid, t_max, first, last = t.tid.copy(), t.t_max.copy(), t.first(), t.last()
    # Per tracklet index, the rows it holds or absorbs.
    absorbed = [(np.repeat(np.arange(tid.size), t.size), t.rows)]
    ts, start, size = np.unique(table.frame[low], return_index=True, return_counts=True)
    busy = 0
    for f, s, n in zip(ts.tolist(), start.tolist(), size.tolist()):
        ahead = t_max == f - 1
        candidates = np.flatnonzero(ahead | (t.t_min == f + 1))
        if not candidates.size:
            continue
        busy += 1
        ends = np.where(ahead[candidates], last[candidates], first[candidates])
        found = solve(kernel.matrix(table.boxes[ends], table.boxes[low[s:s + n]]), gate)
        k, row = candidates[[i for i, _ in found]], low[s:s + n][[j for _, j in found]]
        t_max[k[ahead[k]]], last[k[ahead[k]]] = f, row[ahead[k]]
        tid[k] = tid.max() + 1 + np.arange(k.size)
        absorbed.append((k, row))
    log.info("low-score recovery: %d low rows, %d frames with candidates, %d rows absorbed",
             len(low), busy, sum(k.size for k, _ in absorbed[1:]))
    owner, rows = map(np.concatenate, zip(*absorbed))
    # Each tracklet's rows ascending: within one table, its frame order.
    order = np.lexsort((rows, owner))
    return _tracklet_table(table.frame, rows[order], np.bincount(owner, minlength=tid.size), tid)


# ---------------------------------------------------------------------------
# Full pipelines
# ---------------------------------------------------------------------------


def _adjacent_pairs(frame: np.ndarray, rows: np.ndarray,
                    size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(earlier, later) rows of the frame-adjacent entries inside each run of
    the runs laid end to end in `rows` with the given sizes, in run order."""
    inside = np.ones(max(len(rows) - 1, 0), dtype=bool)
    inside[np.cumsum(size)[:-1] - 1] = False
    a, b = rows[:-1], rows[1:]
    keep = inside & (frame[b] == frame[a] + 1)
    return a[keep], b[keep]


def _camera(cfg: TrackerConfig, table: BoxTable, rows: np.ndarray,
            size: np.ndarray) -> tuple[Optional[camera_mod.CameraProfile], BoxTable]:
    """Estimate camera movement from the frame-adjacent pairs inside the runs
    of the given sizes laid end to end in `rows`; returns the profile, None
    when disabled, and the table, its boxes stabilized when the camera
    moves."""
    if not cfg.enable_cc:
        return None, table
    frame, boxes = table.frame, table.boxes
    a, b = _adjacent_pairs(frame, rows, size)
    profile = camera_mod.estimate(frame[a], boxes[a], boxes[b], cfg.cc_threshold,
                                  (int(frame.min()), int(frame.max())))
    if profile.moving:
        table = table._replace(boxes=camera_mod.stabilize(frame, boxes, profile))
    return profile, table


def _run_class(cfg: TrackerConfig, class_id: int, table: BoxTable,
               given: Optional[TrackletTable]) -> ClassRunResult:
    """Run the pipeline on the table of one class's rows and keep the log of
    its levels.  `refine` gives the class's pre-formed tracklets, which
    every level merges.  `track` gives none: the high-score rows start as
    singletons, the interval schedule's level 1 is their frame-adjacent
    chaining, and the low-score rows are absorbed right after level 1."""
    kernel, gate = SimilarityKernel(cfg), cfg.match_threshold
    window = cfg.strategy is Strategy.WINDOW
    low, chained = np.zeros(0, np.intp), None
    if given is None:
        high = np.flatnonzero(table.score >= cfg.score_high)
        low = np.flatnonzero((cfg.score_low <= table.score) & (table.score < cfg.score_high))
        if not high.size:
            return ClassRunResult(class_id, (), None)
        chains = adjacent_pass(table, high, kernel, gate)
        start = _tracklet_table(table.frame, high, np.ones(high.size, np.intp),
                                np.arange(1, high.size + 1))
    else:
        start, chains = given, (given.rows, given.size)
    profile, table = _camera(cfg, table, *chains)
    if given is None and not window:
        if profile is not None and profile.moving:
            chains = adjacent_pass(table, high, kernel, gate)
        if cfg.enable_cm:
            chains = consistent_motion_pass(table, high, chains, cfg, kernel)
        chained = _tracklet_table(table.frame, *chains, np.arange(1, chains[1].size + 1))
    score: PairScorer = functools.partial(pair_scores, kernel=kernel,
                                          cache=FitCache(cfg, table.frame, table.boxes))

    def steps(tracklets):  # (label, tracklets) after each step
        yield ("singletons" if given is None else "input tracklets"), tracklets
        for k, stage in enumerate(cfg.stages, start=1):
            if k == 1 and chained is not None:
                tracklets = chained
            elif window:
                tracklets = window_strategy_pass(table, tracklets, stage.bound, score, gate)
            else:
                tracklets = hierarchy_pass(table, tracklets, stage.bound, stage.overlap, score,
                                           gate)
            yield f"level-{k} ({_bounds_label(stage.bound, stage.overlap, window)})", tracklets
            if k == 1 and low.size:
                tracklets = byte_recovery(table, tracklets, low, kernel, gate)
                yield _RECOVERY, tracklets
    return ClassRunResult(class_id, tuple(LevelTrace(label, tracklets, table.frame, table.id)
                                          for label, tracklets in steps(start)), profile)


def _run_per_class(table: BoxTable, cfg: TrackerConfig,
                   given: Optional[TrackletTable] = None) -> TableRun:
    """Run `_run_class` on each class's rows of `table`, with its tracklets
    of `given` when given, and number the combined tracks of the classes'
    last levels in (t_min, t_max, class) order."""
    results, finals = [], [TrackletTable(*[np.zeros(0, np.intp)] * 5)]
    for class_id in np.unique(table.class_id).tolist():
        rows = np.flatnonzero(table.class_id == class_id)
        mine = None
        if given is not None:
            mine = given.take(table.class_id[given.first()] == class_id)
            mine = mine._replace(rows=np.searchsorted(rows, mine.rows))
        result = _run_class(cfg, class_id, table.take(rows), mine)
        log.debug("class %d: tracklet counts per level %s", class_id, result.counts)
        results.append(result)
        if result.levels:
            final = result.levels[-1].tracklets
            finals.append(final._replace(rows=rows[final.rows]))
    final = TrackletTable(*map(np.concatenate, zip(*finals)))
    # lexsort is stable: (t_min, t_max) ties keep the class, then the tid order.
    final = final.take(np.lexsort((final.t_max, final.t_min)))
    return TableRun(table, final.rows, np.repeat(np.arange(1, final.size.size + 1), final.size),
                    tuple(results))


def run_table(table: BoxTable, cfg: TrackerConfig) -> TableRun:
    """Track one sequence, `id` the det_id: BYTE split, camera handling, all
    hierarchy levels, each class on its own.  The engine numbers the rows
    1..N in its order."""
    validate_config(cfg)
    table = table.take(engine_order(table))
    return _run_per_class(table._replace(id=np.arange(1, table.frame.size + 1)), cfg)


def associate_table(table: BoxTable, tracklets: Sequence[np.ndarray],
                    cfg: TrackerConfig) -> TableRun:
    """Hierarchically associate pre-formed tracklets (recombination mode):
    frame-sorted row arrays of `table`, in tid order, that hold every row
    once; `id` is the det_id.

    Fitting is memoized by tracklet id, so the tracklets are renumbered 1..K
    in (t_min, t_max, tid) order.  Camera estimation uses the frame-adjacent
    pairs inside them; every row is kept.
    """
    validate_config(cfg)
    order = engine_order(table)
    table, row_of = table.take(order), np.argsort(order)
    size = np.array([len(rows) for rows in tracklets], np.intp)
    whole = _tracklet_table(table.frame, row_of[np.concatenate([np.zeros(0, np.intp),
                                                                *tracklets])],
                            size, np.arange(size.size))._replace(tid=np.arange(1, size.size + 1))
    return _run_per_class(table, cfg, whole)
