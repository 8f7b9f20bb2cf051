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

One function runs the pipeline, `_run_segments`: `track` starts it from
detections, `refine` from pre-formed tracklets.  Both share one camera step,
one stage loop and one merge level, `hierarchy_pass`, to which each stage
gives its schedule's pair rule (`_admissible_pairs` for intervals,
`_window_pairs` for windows) and its label; both frame-adjacent passes share
one frame-linking loop and differ only in their scorer and supports.

Tracklet intervals are the priors that bound each level's candidates.  The
merge loop never scans all pairs and builds no per-pair object: since the
tracklets are sorted by t_min, a binary search finds, for every tracklet at
once, the index range of those whose first frame lies in its admissible
window (a gap of at most the level's bound, or a bounded overlap); the
level's pairs are the pairs of those ranges in table order.  A round's pairs
are scored in one `score` call, which fits the missing motion states in one
Kalman batch and runs the box kernel in chunks of at most
`assignment._CHUNK_CELLS` pairs.  `solve_pairs` then matches the pairs; no
tracklets x tracklets matrix is built.

The motion states live in one `FitCache` per batch, by tid.  A merge whose
parts' rows are laid end to end tells the cache its first and last part, so
the merged tracklet's states continue theirs over the rows it adds
(`FitCache.merged`).  The engine refits from the first row where a
tracklet's rows are not its parts' laid end to end or where it has no
parts: a merge through `resolve_overlap`, a tracklet that `byte_recovery`
extended (it gets a new tid), and the level-1 and input tracklets.

The first level scores only the row pairs of frames t and t+1 whose
`SimilarityKernel.support`s overlap, found by `assignment.overlap_cells` as
`eval`'s hits are, and its cells above 0 go to one `solve_pairs` call per
pass.  No component spans two frame pairs, so each is matched as if alone.
Low-score recovery scores its candidates in one such sweep too, and matches
them a frame at a time.  A merge round resolves the shared frames of all its
chains with an overlapping link in one sort (`resolve_overlap`).

The engine runs on one `BoxTable`, `id` the det_id, with rows in (frame,
det_id) order, so each frame is one row range.  `run_table` returns the
output track id of each row kept.  The tracklets are one `TrackletTable` of
arrays, which every pass takes with the table and reads by column: the rows
of all tracklets laid end to end, and per tracklet its size, tid, t_min and
t_max.
Every run of rows has that layout (`Runs`): `refine`'s tracklets, the first
level's chains and the runs `kalman_states` filters.  Links, between
tracklets or rows of adjacent frames, are chained as their connected
components, laid out by one stable sort.  Camera stabilization returns a
table with a new box column, so the results keep the input boxes exactly.

Each class of a sequence keeps one record of its levels: a tuple of
`LevelTrace`s, each holding the level's `TrackletTable` and the batch
table's frame and det_id columns.  A level's tracklet count and its (frame,
det_id) members, which only `--dump-hierarchy` and library callers read,
are computed when read, and `ClassRunResult.counts` (N_1..N_l) is derived
from the same tuple: every trace but the low-score recovery, which is its
own trace in both schedules and only grows the first level's tracklets.

Each class of a sequence is associated on its own, and so is each sequence
of a run, by one mechanism: `run_tables` lays each (sequence, class) pair
out as one segment of one frame axis, starting `gap` frames after the
previous one ends, the gap being the largest stage bound plus the final
overlap plus 2.  No level can bridge such a gap: frame linking and
low-score recovery reach one frame, a merge level its bound plus its
overlap.  So the engine runs once per batch, and every segment's links,
components, merges and tie breaks are those its rows get alone: every step
is elementwise over rows, pairs or blocks, and every order the engine keeps
(rows, tracklets, chains, new tids) lists a segment's items in its own
relative order.  The first segment keeps its frames, so a sequence of one
class is a batch of one segment, and a batch closes before its axis would
pass `_AXIS_LIMIT`.  Three things read more than frame gaps, so they stay
per segment, in its own frames: the camera profile, the window schedule's
window index, and the bookkeeping of a segment without high-score rows,
which reports no levels.  The results are split back per sequence, which
keeps its own frames, det_ids and tracks 1..K.

Every pass is deterministic: tracklets are kept in (t_min, t_max, id) order,
ids are never reused, and exact ties follow the matcher's search order.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import camera as camera_mod
from .assignment import connected_components, distinct, overlap_cells, range_pairs, solve_pairs
from .geometry import SimilarityKernel
from .model import BoxTable, Strategy, TrackerConfig, validate_config
from .motion import FitCache, _advance, kalman_states, pair_scores, reversed_runs

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
    """A batch's tracklets, in (t_min, t_max, tid) order: the rows of
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


class _Axis(NamedTuple):
    """The segments of a batch laid end to end on one frame axis, one per
    (sequence, class): each one's first frame on the axis, ascending, the
    amount added to its own frames, and its sequence's position in the
    batch."""
    start: np.ndarray
    shift: np.ndarray
    sequence: np.ndarray

    def segment(self, frame: np.ndarray) -> np.ndarray:
        """The segment of each frame on the axis."""
        return np.searchsorted(self.start, frame, "right") - 1

    def edges(self, frame: np.ndarray) -> np.ndarray:
        """Where each segment starts and the last one ends in the ascending
        frames `frame` of the axis: (segments + 1,) positions."""
        return np.append(np.searchsorted(frame, self.start), len(frame))


# The axis a batch may fill: a sequence ending beyond it closes the batch.
_AXIS_LIMIT = 2 ** 62


# Runs of rows, the engine's one layout of them: their rows laid end to
# end, each run in frame order, and each run's size.
Runs = tuple[np.ndarray, np.ndarray]

# Batched pair scorer: (tracklets, a, b) -> the similarity of each pair of
# tracklets (a[k], b[k]), earlier tracklet first.
PairScorer = Callable[[TrackletTable, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LevelTrace:
    """The tracklets of one class of one sequence after one level, as rows
    of the batch's table, whose det_id column and frame column (each row's
    frame in its own sequence) it holds; its (frame, det_id) members are
    built only when read."""
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
    """One sequence's run: the engine's table of its rows, in class order
    and then engine order, the rows it keeps in (track, frame) order, each
    kept row's output track id 1..K, and the record of each class."""
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


def resolve_overlap(table: BoxTable, parts: TrackletTable, count: np.ndarray,
                    max_overlap: int = 5) -> Runs:
    """The merges of chains of matched tracklets whose spans may overlap by a
    few frames: the parts laid chain by chain in link order, `count[c]` of
    them in chain c, none starting before the one before it; each merge's
    frame-ordered rows, as runs in chain order.

    For a frame claimed by several parts, the higher-confidence detection
    wins; ties go to the part of lower rank, 0 if it starts on its chain's
    first frame and its position in the chain otherwise, then to the box
    smaller in (cx, cy, w, h) order, to the smaller det_id and to the earlier
    part: the pairwise merges folded along the chain, in which the next part
    wins a tie by box only if it starts on the chain's first frame too.  A
    link overlapping beyond max_overlap means the engine admitted an illegal
    pair and is treated as a bug, not a data condition.
    """
    rows, first, last, frame = parts.rows, parts.t_min, parts.t_max, table.frame
    chain = np.repeat(np.arange(count.size), count)
    position = np.arange(first.size) - (np.cumsum(count) - count)[chain]
    overlap = (last[:-1] - first[1:] + 1)[position[1:] > 0]
    if overlap.max(initial=0) > max_overlap:
        raise ValueError(f"tracklets overlap by {overlap.max()} frames (allowed {max_overlap})")
    rank = np.where(first == first[position == 0][chain], 0, position)
    part = np.repeat(np.arange(first.size), parts.size)
    # A frame's winner sorts first in its chain; an exact tie keeps the
    # earlier part first.
    order = np.lexsort((table.id[rows], *table.boxes[rows].T[::-1], rank[part],
                        -table.score[rows], frame[rows], chain[part]))
    rows, owner = rows[order], chain[part[order]]
    # Within one table, frame-sorted rows are ascending rows.
    won = np.r_[True, (frame[rows[1:]] != frame[rows[:-1]]) | (owner[1:] != owner[:-1])]
    return rows[won], np.bincount(owner[won], minlength=count.size)


def _chain_layout(count: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain the links a[k] -> b[k] (a[k] < b[k], at most one link into and
    one out of each of the nodes 0..count-1) as their connected components:
    the nodes laid out chain by chain in link order, the chains ordered by
    their lowest nodes, their heads; and each chain's node count."""
    chains, label = connected_components(count, a, b)
    return np.argsort(label, kind="stable"), np.bincount(label, minlength=chains)


def _merge_round(table: BoxTable, tracklets: TrackletTable, a: np.ndarray, b: np.ndarray,
                 max_overlap: int, cache: FitCache) -> TrackletTable:
    """Merge each chain of the matches a[k] -> b[k] into one tracklet with a
    new tid: its parts' rows laid end to end, or, for every chain with an
    overlapping link at once, `resolve_overlap` of its parts.  The cache is
    told the first and last part of each tracklet laid end to end
    (`FitCache.merged`); one made by `resolve_overlap` is refitted."""
    order, parts = _chain_layout(tracklets.tid.size, a, b)
    head = np.cumsum(parts) - parts
    chained = tracklets.take(order)
    rows, size, tid = chained.rows, np.add.reduceat(chained.size, head), chained.tid[head]
    joined = parts > 1
    tid[joined] = tracklets.tid.max() + 1 + np.arange(np.count_nonzero(joined))
    overlaps = np.zeros(order.size, bool)
    overlaps[a[tracklets.t_min[b] <= tracklets.t_max[a]]] = True
    redo = np.logical_or.reduceat(overlaps[order], head)
    laid = np.flatnonzero(joined & ~redo)
    first, last = head[laid], head[laid] + parts[laid] - 1
    cache.merged(tid[laid], chained.tid[first], chained.size[first], chained.tid[last],
                 chained.size[last])
    if redo.any():
        merged, merged_size = resolve_overlap(table, chained.take(np.repeat(redo, parts)),
                                              parts[redo], max_overlap)
        # `_tracklet_table` puts the tracklets in order, so the resolved
        # chains may follow the others.
        rows = np.concatenate([rows[np.repeat(~redo, size)], merged])
        size, tid = np.r_[size[~redo], merged_size], np.r_[tid[~redo], tid[redo]]
    return _tracklet_table(table.frame, rows, size, tid)


def _admissible_pairs(tracklets: TrackletTable, dt_bound: int,
                      overlap_allowance: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (a, b) of `tracklets` that a level admits, in sorted
    (a, b) order: a < b, the table's (t_min, t_max, tid) order, and b's t_min
    in a's window [t_max[a] - overlap_allowance + 1, t_max[a] + dt_bound], so
    b starts within dt_bound frames after a ends or shares at most
    overlap_allowance frames with it.  t_min is sorted, so each window is one
    index range, found by a binary search; the ranges are expanded by
    `range_pairs`."""
    t_min, t_max = tracklets.t_min, tracklets.t_max
    lo = np.searchsorted(t_min, t_max - overlap_allowance + 1, "left")
    count = np.searchsorted(t_min, t_max + dt_bound, "right") - lo
    a, b = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for x, y in range_pairs(lo, count):
        a.append(x[x < y])
        b.append(y[x < y])
    return np.concatenate(a), np.concatenate(b)


def _window_pairs(tracklets: TrackletTable, window_size: int,
                  axis: _Axis) -> tuple[np.ndarray, np.ndarray]:
    """The pairs `_admissible_pairs` admits at a gap bound of window_size
    that lie inside one window of their segment's own frames: b starts
    after a ends, so a's first frame and b's last one do.  Straddling
    tracklets sit the level out."""
    a, b = _admissible_pairs(tracklets, window_size, 0)
    # A pair's tracklets share a segment, so a's shift is b's too.
    first = tracklets.t_min[a]
    shift = axis.shift[axis.segment(first)]
    keep = (first - shift - 1) // window_size == (tracklets.t_max[b] - shift - 1) // window_size
    return a[keep], b[keep]


def hierarchy_pass(table: BoxTable, tracklets: TrackletTable,
                   pairs: Callable[[TrackletTable], tuple[np.ndarray, np.ndarray]],
                   overlap_allowance: int, score: PairScorer, cache: FitCache, gate: float,
                   label: str) -> TrackletTable:
    """One merge level: score the index pairs the level's rule `pairs`
    admits (`_admissible_pairs` or `_window_pairs`) in one `score` call,
    match them with `solve_pairs`, merge the matches, whose spans share at
    most overlap_allowance frames, and repeat until a round matches nothing.
    `cache` is the `FitCache` that `score` fits with, told of every merge.
    Logs, at INFO, one line per round, naming the level by `label`, with the
    Kalman work of its scoring (`FitCache.work`)."""
    for round_ in itertools.count(1):
        before = cache.work.copy()
        a, b = pairs(tracklets)
        scores = score(tracklets, a, b) if a.size else np.zeros(0)
        found = solve_pairs(a, b, scores, gate)
        log.info("merge level (%s) round %d: %d pairs admitted, %d above 0, %d components "
                 "solved (largest %d nodes), %d by augmenting paths, %d matches; Kalman: %d "
                 "states fitted, %d continued, %d entries in %d steps",
                 label, round_, a.size, int((scores > 0).sum()), found.components,
                 found.largest, found.exact, found.a.size, *(cache.work - before).tolist())
        if not found.a.size:
            return tracklets
        tracklets = _merge_round(table, tracklets, found.a, found.b, overlap_allowance, cache)


# ---------------------------------------------------------------------------
# First level: frame-adjacent chaining, motion second pass, low-score rescue
# ---------------------------------------------------------------------------


def _link_frames(frame: np.ndarray, earlier: np.ndarray, later: np.ndarray,
                 score: Callable[[np.ndarray, np.ndarray], np.ndarray], gate: float) -> Runs:
    """Match every frame t against frame t+1 and chain the links into runs of
    consecutive frames (`_chain_layout` of positions into `frame`).  `score`
    scores the pairs (a, b), b in the frame after a's, whose supports overlap,
    a's in `earlier` and b's in `later`; those above 0 go to one `solve_pairs`
    call.  Logs, at INFO, the counts of both."""
    a, b, scores, candidates = overlap_cells(*np.split(distinct(np.r_[frame + 1, frame])[1], 2),
                                             earlier, later, score, lambda s: s > 0)
    found = solve_pairs(a, b, scores, gate)
    log.info("first level: %d candidate pairs, %d cells above 0, %d components solved "
             "(largest %d nodes), %d by augmenting paths, %d links", candidates, scores.size,
             found.components, found.largest, found.exact, found.a.size)
    return _chain_layout(len(frame), found.a, found.b)


def adjacent_pass(table: BoxTable, rows: np.ndarray, kernel: SimilarityKernel,
                  gate: float) -> Runs:
    """Static frame-to-next-frame chaining of the given rows (in table order).

    Matches each frame against the following one with the configured kernel
    and links the optimal matches into chains of rows; every chain covers
    a run of consecutive frames.
    """
    boxes = table.boxes[rows]
    support = kernel.support(boxes)
    order, size = _link_frames(table.frame[rows], support, support,
                               lambda a, b: kernel(boxes[a], boxes[b]), gate)
    return rows[order], size


def consistent_motion_pass(table: BoxTable, rows: np.ndarray, preliminary_chains: Runs,
                           cfg: TrackerConfig, kernel: SimilarityKernel) -> Runs:
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
    once per pass and gathered by position.
    Preliminary links are discarded; only the second-pass links survive.
    """
    chained, size = preliminary_chains
    runs = np.concatenate([chained, reversed_runs(chained, size)])
    states = kalman_states(table.frame, table.boxes, runs, np.tile(size, 2), cfg)
    # entry[0, row] and entry[1, row]: the row's forward and backward state.
    entry = np.empty((2, len(table.frame)), np.intp)
    entry[np.repeat([0, 1], chained.size), runs] = np.arange(runs.size)
    boxes = table.boxes[rows]
    # Both predictions step one frame in their filter's own direction.
    ahead = _advance(states[entry[0, rows]], 1)
    behind = _advance(states[entry[1, rows]], 1)

    # A pair scores above 0 only if one of its kernels does, so a row's
    # support spans its box's and the prediction its side's kernel reads:
    # the least left and top, and the greatest right and bottom.
    own, fwd, bwd = kernel.support(np.stack([boxes, ahead, behind]))
    earlier, later = (np.where(np.arange(4) < 2, np.minimum(own, p), np.maximum(own, p))
                      for p in (fwd, bwd))

    def score(a, b):
        return 0.5 * (kernel(ahead[a], boxes[b]) + kernel(boxes[a], behind[b]))
    order, size = _link_frames(table.frame[rows], earlier, later, score, cfg.match_threshold)
    return rows[order], size


def byte_recovery(table: BoxTable, tracklets: TrackletTable, low: np.ndarray,
                  kernel: SimilarityKernel, gate: float) -> TrackletTable:
    """Absorb low-confidence rows (in table order) into temporally adjacent
    tracklet endpoints, a frame at a time; leftovers are dropped and never
    start a trajectory.  A tracklet that absorbs a row gets a new tid.

    One `overlap_cells` sweep scores each tracklet's last row against the
    next frame's low rows, its first row against the previous frame's, and
    each low row against the next frame's: a tracklet's cell once it absorbs
    that row forward.  A frame's cells, keyed (tracklet index, low row), go
    to one `solve_pairs` call; a start need not move, since no later frame
    lies before it.  Logs, at INFO, the low rows, the candidate pairs, the
    cells above 0 and the rows absorbed."""
    if not len(low):
        return tracklets
    t, frame, boxes, n = tracklets, table.frame, table.boxes, tracklets.tid.size
    tid, t_max = t.tid.copy(), t.t_max.copy()
    # Side a: the last rows, keyed by the frame after them, the first rows,
    # by the frame before them, and the low rows, by the frame after them;
    # side b: the low rows, by their frame.
    ends = np.concatenate([t.last(), t.first(), low])
    rank = distinct(np.concatenate([t.t_max + 1, t.t_min - 1, frame[low] + 1, frame[low]]))[1]
    support = kernel.support(boxes[ends])
    a, b, scores, candidates = overlap_cells(rank[:ends.size], rank[ends.size:], support,
                                             support[2 * n:],
                                             lambda i, j: kernel(boxes[ends[i]], boxes[low[j]]),
                                             lambda s: s > 0)
    # Per side-a entry, the tracklet index whose cells it gives, -1 for a
    # low row no tracklet absorbed forward.
    holder = np.concatenate([np.arange(n), np.arange(n), np.full(low.size, -1)])
    # Per tracklet index, the rows it holds or absorbs.
    absorbed = [(np.repeat(np.arange(n), t.size), t.rows)]
    at = frame[low[b]]
    order = np.argsort(at, kind="stable")
    for cells in np.split(order, np.flatnonzero(np.diff(at[order])) + 1) if b.size else ():
        k, f = holder[a[cells]], at[cells[0]]
        found = solve_pairs(k[k >= 0], b[cells][k >= 0], scores[cells][k >= 0], gate)
        forward = t_max[found.a] == f - 1
        t_max[found.a[forward]], holder[2 * n + found.b[forward]] = f, found.a[forward]
        tid[found.a] = tid.max(initial=0) + 1 + np.arange(found.a.size)
        absorbed.append((found.a, low[found.b]))
    log.info("low-score recovery: %d low rows, %d candidate pairs, %d cells above 0, "
             "%d rows absorbed", len(low), candidates, scores.size,
             sum(k.size for k, _ in absorbed[1:]))
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


def _camera(cfg: TrackerConfig, table: BoxTable, rows: np.ndarray, size: np.ndarray,
            axis: _Axis, started: np.ndarray) -> tuple[list, BoxTable]:
    """Estimate camera movement in each segment that started, from the
    frame-adjacent pairs inside the runs of the given sizes laid end to end
    in `rows`, in the segment's own frames; returns each segment's profile,
    None where it did not start or when disabled, and the table, its boxes
    stabilized in the segments where the camera moves."""
    profiles: list = [None] * started.size
    if not cfg.enable_cc:
        return profiles, table
    frame, boxes = table.frame, table.boxes
    a, b = _adjacent_pairs(frame, rows, size)
    seq = axis.segment(frame[a])
    order = np.argsort(seq, kind="stable")  # each segment's pairs in their given order
    a, b = a[order], b[order]
    pair_edges = np.searchsorted(seq[order], np.arange(started.size + 1))
    row_edges = axis.edges(frame)
    for s in np.flatnonzero(started).tolist():
        x, y = (side[pair_edges[s]:pair_edges[s + 1]] for side in (a, b))
        here = slice(row_edges[s], row_edges[s + 1])
        own = frame[here] - axis.shift[s]
        profiles[s] = camera_mod.estimate(frame[x] - axis.shift[s], boxes[x], boxes[y],
                                          cfg.cc_threshold, distinct(own)[0])
        if profiles[s].moving:
            boxes = boxes.copy() if boxes is table.boxes else boxes
            boxes[here] = camera_mod.stabilize(own, boxes[here], profiles[s])
    return profiles, table._replace(boxes=boxes)


def _run_segments(cfg: TrackerConfig, table: BoxTable, given: Optional[TrackletTable],
                  axis: _Axis) -> tuple[list[tuple[str, TrackletTable, np.ndarray]], list]:
    """Run the pipeline on a batch's table, each segment of its axis the
    rows of one class of one sequence; returns each trace as (label,
    tracklets, the segments that record it), and each segment's camera
    profile.  `refine` gives the pre-formed tracklets, which every level
    merges, and starts every segment.  `track` gives none: the high-score
    rows start as singletons, the interval schedule's level 1 is their
    frame-adjacent chaining, and the low-score rows are absorbed right after
    level 1; the segments with high-score rows start, and only those of them
    with low-score rows record the recovery."""
    kernel, gate = SimilarityKernel(cfg), cfg.match_threshold
    window = cfg.strategy is Strategy.WINDOW
    low, chained = np.zeros(0, np.intp), None
    if given is None:
        high = np.flatnonzero(table.score >= cfg.score_high)
        low = np.flatnonzero((cfg.score_low <= table.score) & (table.score < cfg.score_high))
        if not high.size:
            return [], [None] * axis.start.size
        chains = adjacent_pass(table, high, kernel, gate)
        start = _tracklet_table(table.frame, high, np.ones(high.size, np.intp),
                                np.arange(1, high.size + 1))
    else:
        start, chains = given, (given.rows, given.size)
    started = np.bincount(axis.segment(start.t_min), minlength=axis.start.size) > 0
    recovers = started & (np.bincount(axis.segment(table.frame[low]),
                                      minlength=axis.start.size) > 0)
    profiles, table = _camera(cfg, table, *chains, axis, started)
    if given is None and not window:
        if any(profile is not None and profile.moving for profile in profiles):
            chains = adjacent_pass(table, high, kernel, gate)
        if cfg.enable_cm:
            chains = consistent_motion_pass(table, high, chains, cfg, kernel)
        chained = _tracklet_table(table.frame, *chains, np.arange(1, chains[1].size + 1))
    cache = FitCache(cfg, table.frame, table.boxes)
    score: PairScorer = functools.partial(pair_scores, kernel=kernel, cache=cache)

    def steps(tracklets):  # (label, tracklets, recorded by) after each step
        yield ("singletons" if given is None else "input tracklets"), tracklets, started
        # A window schedule has no overlap stage (`validate_config`).
        for k, (bound, overlap) in enumerate(cfg.stages, start=1):
            bounds = (f"window {bound}" if window else
                      f"gap {bound}, overlap {overlap}" if overlap else f"gap {bound}")
            if k == 1 and chained is not None:
                tracklets = chained
            else:
                pairs = ((lambda t: _window_pairs(t, bound, axis)) if window else
                         (lambda t: _admissible_pairs(t, bound, overlap)))
                tracklets = hierarchy_pass(table, tracklets, pairs, overlap, score, cache, gate,
                                           bounds)
            yield f"level-{k} ({bounds})", tracklets, started
            if k == 1 and low.size:
                tracklets = byte_recovery(table, tracklets, low, kernel, gate)
                yield _RECOVERY, tracklets, recovers
    return list(steps(start)), profiles


def _pieces(tracklets: TrackletTable, edges: np.ndarray) -> list[TrackletTable]:
    """The tracklets cut at the (pieces + 1,) positions `edges`: each piece
    is one range of tracklets, so its rows are one range too."""
    at = np.append(0, np.cumsum(tracklets.size))[edges].tolist()
    return [TrackletTable(tracklets.rows[r:q], *(column[i:j] for column in tracklets[1:]))
            for i, j, r, q in zip(edges[:-1].tolist(), edges[1:].tolist(), at, at[1:])]


class _Batch(NamedTuple):
    """Sequences laid out on one frame axis: their positions in the run, the
    table of their rows on the axis, the given tracklets as one
    `TrackletTable` of that table, and the axis of their segments."""
    sequences: list[int]
    table: BoxTable
    given: Optional[TrackletTable]
    axis: _Axis


def _batches(tables: Sequence[BoxTable], cfg: TrackerConfig,
             tracklets: Optional[Sequence[Runs]] = None) -> Iterator[_Batch]:
    """Lay the sequences out in batches, in the given order (see the module
    notes).  A sequence's rows are sorted in engine order, which numbers its
    det_ids when no `tracklets` are given, then stably by class: one segment
    per class.  A batch closes before a sequence would end beyond
    `_AXIS_LIMIT`, unless it is the batch's first; one whose own segments
    would end at or beyond 2**63 raises ValueError.  The axis is laid out in
    Python ints, which cannot wrap."""
    gap = max(stage.bound + stage.overlap for stage in cfg.stages) + 2
    batch, parts, rows, laid = [], [], [], []  # laid: each segment's (start, shift, sequence)
    end = 0

    def laid_out() -> _Batch:
        table = BoxTable(*map(np.concatenate, zip(*parts)))
        given = None
        if tracklets is not None:
            size = np.concatenate([tracklets[k][1] for k in batch])
            given = _tracklet_table(table.frame, np.concatenate(rows), size, np.arange(size.size))
            given = given._replace(tid=np.arange(1, size.size + 1))
        return _Batch(batch, table, given, _Axis(*np.array(laid, np.int64).reshape(-1, 3).T))

    for k, table in enumerate(tables):
        order = engine_order(table)
        part = table.take(order)
        if tracklets is None:  # the engine numbers the rows
            part = part._replace(id=np.arange(1, order.size + 1))
        by_class = np.argsort(part.class_id, kind="stable")
        order, part = order[by_class], part.take(by_class)
        cls, frame = part.class_id, part.frame
        # Each segment's first row and row count.
        first = np.flatnonzero(np.r_[cls.size > 0, cls[1:] != cls[:-1]])
        size = np.diff(np.append(first, cls.size))
        lo, hi = frame[first].tolist(), frame[first + size - 1].tolist()
        if lo:
            steps = [h - f + gap for f, h in zip(lo, hi)]
            if laid and end + sum(steps) > _AXIS_LIMIT:
                yield laid_out()
                batch, parts, rows, laid = [], [], [], []
            at = list(itertools.accumulate(steps, initial=end + gap if laid else lo[0]))
            end = at.pop() - gap
            if end >= 2 ** 63:
                raise ValueError(f"the {len(lo)} classes of sequence {k} laid end to end "
                                 f"reach frame {end}, beyond the int64 frame axis")
            own = [a - f for a, f in zip(at, lo)]
            laid += zip(at, own, [len(batch)] * len(lo))
            part = part._replace(frame=frame + np.repeat(np.array(own, np.int64), size))
        if tracklets is not None:
            rows.append(np.argsort(order)[tracklets[k][0]] + sum(p.frame.size for p in parts))
        batch.append(k)
        parts.append(part)
    if batch:
        yield laid_out()


def _run_batch(batch: _Batch, cfg: TrackerConfig) -> list[TableRun]:
    """Run the engine once on `batch` and split the results per sequence:
    its table in its own frames, one `ClassRunResult` per segment, and its
    tracks, those of the last level, numbered 1..K in (t_min, t_max, class)
    order in its own frames."""
    table, axis = batch.table, batch.axis
    traces, profiles = _run_segments(cfg, table, batch.given, axis)
    edges = axis.edges(table.frame)
    frame = table.frame - np.repeat(axis.shift, np.diff(edges))  # in its own sequence
    pieces = [_pieces(tracklets, axis.edges(tracklets.t_min)) for _, tracklets, _ in traces]
    # One record per segment, of the class of its rows.
    records = [ClassRunResult(class_id, tuple(LevelTrace(label, piece[s], frame, table.id)
                                              for (label, _, recorded), piece
                                              in zip(traces, pieces) if recorded[s]),
                              profiles[s])
               for s, class_id in enumerate(table.class_id[edges[:-1]].tolist())]
    final = traces[-1][1] if traces else TrackletTable(*[np.zeros(0, np.intp)] * 5)
    # lexsort is stable: (t_min, t_max) ties keep the segment (class) order,
    # then the tid order.
    seq = axis.sequence[axis.segment(final.t_min)]
    order = np.lexsort((frame[final.last()], frame[final.first()], seq))
    n = np.arange(len(batch.sequences) + 1)
    tracks = _pieces(final.take(order), np.searchsorted(seq[order], n))
    segments = np.searchsorted(axis.sequence, n)
    at = edges[segments]  # each sequence's rows
    return [TableRun(table.take(slice(at[q], at[q + 1]))._replace(frame=frame[at[q]:at[q + 1]]),
                     t.rows - at[q], np.repeat(np.arange(1, t.size.size + 1), t.size),
                     tuple(records[segments[q]:segments[q + 1]]))
            for q, t in enumerate(tracks)]


def run_tables(tables: Sequence[BoxTable], cfg: TrackerConfig,
               tracklets: Optional[Sequence[Runs]] = None) -> list[TableRun]:
    """Track sequences, each one's `id` its det_ids: BYTE split, camera
    handling, all hierarchy levels, each class of each sequence as if alone,
    but all of a batch in one engine run (see the module notes).  Without
    `tracklets` the engine numbers each sequence's rows 1..N in its order.

    With `tracklets` it associates pre-formed tracklets (recombination
    mode), per sequence the (rows, sizes) `Runs` of `refine.split_rows`
    that hold every row of its table once.  They are renumbered 1..K in
    (t_min, t_max, tid) order, since fitting is memoized by tracklet id;
    camera estimation uses the frame-adjacent pairs inside them."""
    validate_config(cfg)
    return [run for batch in _batches(tables, cfg, tracklets) for run in _run_batch(batch, cfg)]


def run_table(table: BoxTable, cfg: TrackerConfig,
              tracklets: Optional[Runs] = None) -> TableRun:
    """`run_tables` of one sequence."""
    return run_tables([table], cfg, None if tracklets is None else [tracklets])[0]
