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
one stage loop and one merge level, `hierarchy_pass`, to which each stage
gives its schedule's pair rule (`_admissible_pairs` for intervals,
`_window_pairs` for windows) and its label; both frame-adjacent passes share
one frame-linking loop and differ only in their score matrix.

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
bounded on long or crowded sequences.  Each chunk is one
`SimilarityKernel.matrix` call over its (blocks, n, 4) and (blocks, m, 4)
boxes gathered by row; a block smaller than its chunk's largest is padded by
repeating one of its own frame's detections, so padded cells are finite, and
they are never read.  Each chunk is also one `solve_blocks` call: a
connected component of a block's cells whose rows' (or columns') best cells
are unique and distinct is matched by that argmax, which the `assignment`
module shows is optimal, and only the other components are solved by
augmenting paths.

The engine runs on one `BoxTable`, `id` the det_id, with rows in (frame,
det_id) order, so each frame is one row range.  `run_table` returns the
output track id of each row kept.  Each class runs on its own table of the
class's rows.  Its tracklets are one `TrackletTable` of arrays, which every
pass takes with the class table and reads by column: the rows of all
tracklets laid end to end, and per tracklet its size, tid, t_min and t_max.
Every run of rows has that layout (`Runs`): `refine`'s tracklets, the first
level's chains and the runs `kalman_states` filters.  Links, between
tracklets or rows of adjacent frames, are chained as their connected
components, laid out by one stable sort.  Camera stabilization returns a
class table with a new box column, so the results keep the input boxes
exactly.

Each class keeps one record of its levels: a tuple of `LevelTrace`s, each
holding the level's `TrackletTable` and the class table's frame and det_id
columns.  A level's tracklet count and its (frame, det_id) members, which
only `--dump-hierarchy` and library callers read, are computed when read,
and `ClassRunResult.counts` (N_1..N_l) is derived from the same tuple: every
trace but the low-score recovery, which is its own trace in both schedules
and only grows the first level's tracklets.

Many sequences run as one batch: `run_tables` lays them end to end on one
frame axis, each sequence's frames shifted so that it starts `gap` frames
after the previous one ends, the gap being the largest stage bound plus the
final overlap plus 2.  No level can bridge such a gap:
frame linking and low-score recovery reach one frame, a merge level its
bound plus its overlap.  So each class runs once over the rows of every
sequence, and every sequence's links, components, merges and tie breaks are
those it gets alone: every step is elementwise over rows, pairs or blocks,
and every order the engine keeps (rows, tracklets, chains, new tids) lists
a sequence's items in its own relative order.  The first sequence keeps its
frames, so a single sequence is a batch of one, and a batch closes before
its axis would pass `_AXIS_LIMIT`.  Three things read more than frame gaps,
so they stay per sequence: the camera profile, estimated and applied per
(sequence, class) in the sequence's own frames; the window schedule's window
index, taken from the sequence's own frames; and the bookkeeping of a class
that holds no high-score rows in a sequence, which reports no levels there.
The results are split back per sequence, which keeps its own frames, det_ids
and tracks 1..K.

Every pass is deterministic: tracklets are kept in (t_min, t_max, id) order,
ids are never reused, and matching ties are broken toward low indices.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import camera as camera_mod
from .assignment import (connected_components, pair_chunks, padded_chunks, solve, solve_blocks,
                         solve_pairs)
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


class _Axis(NamedTuple):
    """Sequences laid end to end on one frame axis: each one's first frame on
    the axis, ascending, and the amount added to its own frames."""
    start: np.ndarray
    shift: np.ndarray

    def seq(self, frame: np.ndarray) -> np.ndarray:
        """The sequence of each frame on the axis."""
        return np.searchsorted(self.start, frame, "right") - 1

    def edges(self, frame: np.ndarray) -> np.ndarray:
        """Where each sequence starts and the last one ends in the ascending
        frames `frame` of the axis: (sequences + 1,) positions."""
        return np.append(np.searchsorted(frame, self.start), len(frame))


# The axis a batch of sequences may fill: a frame beyond it closes the batch.
_AXIS_LIMIT = 2 ** 62


# Runs of rows, the engine's one layout of them: their rows laid end to
# end, each run in frame order, and each run's size.
Runs = tuple[np.ndarray, np.ndarray]

# Batched pair scorer: (tracklets, a, b) -> the similarity of each pair of
# tracklets (a[k], b[k]), earlier tracklet first.
PairScorer = Callable[[TrackletTable, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LevelTrace:
    """A class's tracklets in one sequence after one level, as rows of the
    class's table in the batch, whose det_id column and frame column (each
    row's frame in its own sequence) it holds; its (frame, det_id) members
    are built only when read."""
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


def _window_pairs(tracklets: TrackletTable, window_size: int,
                  axis: _Axis) -> tuple[np.ndarray, np.ndarray]:
    """The pairs `_admissible_pairs` admits at a gap bound of window_size
    that lie inside one window of their sequence's own frames: b starts
    after a ends, so a's first frame and b's last one do.  Straddling
    tracklets sit the level out."""
    a, b = _admissible_pairs(tracklets, window_size, 0)
    # A pair's tracklets share a sequence, so a's shift is b's too.
    first = tracklets.t_min[a]
    shift = axis.shift[axis.seq(first)]
    keep = (first - shift - 1) // window_size == (tracklets.t_max[b] - shift - 1) // window_size
    return a[keep], b[keep]


def hierarchy_pass(table: BoxTable, tracklets: TrackletTable,
                   pairs: Callable[[TrackletTable], tuple[np.ndarray, np.ndarray]],
                   overlap_allowance: int, score: PairScorer, gate: float,
                   label: str) -> TrackletTable:
    """One merge level: score the index pairs the level's rule `pairs`
    admits (`_admissible_pairs` or `_window_pairs`) in one `score` call,
    match them with `solve_pairs`, merge the matches, whose spans share at
    most overlap_allowance frames, and repeat until a round matches nothing.
    Logs, at INFO, one line per round, naming the level by `label`."""
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


# ---------------------------------------------------------------------------
# First level: frame-adjacent chaining, motion second pass, low-score rescue
# ---------------------------------------------------------------------------


# Block scorer: padded (pairs, n) row and (pairs, m) column positions into
# the frame-sorted rows being linked -> (pairs, n, m) similarities.
BlockScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _link_frames(frame: np.ndarray, score: BlockScorer, gate: float) -> Runs:
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
                  gate: float) -> Runs:
    """Static frame-to-next-frame chaining of the given rows (in table order).

    Matches each frame against the following one with the configured kernel
    and links the optimal matches into chains of rows; every chain covers
    a run of consecutive frames.  Each chunk of frame pairs is one kernel
    call over boxes gathered by row.
    """
    boxes = table.boxes[rows]
    order, size = _link_frames(table.frame[rows], lambda r, c: kernel.matrix(boxes[r], boxes[c]),
                               gate)
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
    once per pass; each chunk of frame pairs gathers them by position.
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

    def score(r, c):
        return 0.5 * (kernel.matrix(ahead[r], boxes[c]) + kernel.matrix(boxes[r], behind[c]))
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


def _camera(cfg: TrackerConfig, table: BoxTable, rows: np.ndarray, size: np.ndarray,
            axis: _Axis, started: np.ndarray) -> tuple[list, BoxTable]:
    """Estimate camera movement in each sequence the class started in, from
    the frame-adjacent pairs inside the runs of the given sizes laid end to
    end in `rows`, in the sequence's own frames; returns each sequence's
    profile, None where the class did not start or when disabled, and the
    table, its boxes stabilized in the sequences where the camera moves."""
    profiles: list = [None] * started.size
    if not cfg.enable_cc:
        return profiles, table
    frame, boxes = table.frame, table.boxes
    a, b = _adjacent_pairs(frame, rows, size)
    seq = axis.seq(frame[a])
    order = np.argsort(seq, kind="stable")  # each sequence's pairs in their given order
    a, b = a[order], b[order]
    pair_edges = np.searchsorted(seq[order], np.arange(started.size + 1))
    row_edges = axis.edges(frame)
    for s in np.flatnonzero(started).tolist():
        x, y = (side[pair_edges[s]:pair_edges[s + 1]] for side in (a, b))
        here = slice(row_edges[s], row_edges[s + 1])
        own = frame[here] - axis.shift[s]
        profiles[s] = camera_mod.estimate(frame[x] - axis.shift[s], boxes[x], boxes[y],
                                          cfg.cc_threshold, np.unique(own))
        if profiles[s].moving:
            boxes = boxes.copy() if boxes is table.boxes else boxes
            boxes[here] = camera_mod.stabilize(own, boxes[here], profiles[s])
    return profiles, table._replace(boxes=boxes)


def _run_class(cfg: TrackerConfig, table: BoxTable, given: Optional[TrackletTable],
               axis: _Axis) -> tuple[list[tuple[str, TrackletTable, np.ndarray]], list]:
    """Run the pipeline on the table of one class's rows of a batch of
    sequences; returns each trace as (label, tracklets, the sequences that
    record it), and each sequence's camera profile.  `refine` gives the
    class's pre-formed tracklets, which every level merges, and starts the
    class in every sequence it holds rows in.  `track` gives none: the
    high-score rows start as singletons, the interval schedule's level 1 is
    their frame-adjacent chaining, and the low-score rows are absorbed right
    after level 1; the class starts in the sequences with high-score rows,
    and only those with low-score rows record the recovery."""
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
    started = np.bincount(axis.seq(start.t_min), minlength=axis.start.size) > 0
    recovers = started & (np.bincount(axis.seq(table.frame[low]),
                                      minlength=axis.start.size) > 0)
    profiles, table = _camera(cfg, table, *chains, axis, started)
    if given is None and not window:
        if any(profile is not None and profile.moving for profile in profiles):
            chains = adjacent_pass(table, high, kernel, gate)
        if cfg.enable_cm:
            chains = consistent_motion_pass(table, high, chains, cfg, kernel)
        chained = _tracklet_table(table.frame, *chains, np.arange(1, chains[1].size + 1))
    score: PairScorer = functools.partial(pair_scores, kernel=kernel,
                                          cache=FitCache(cfg, table.frame, table.boxes))

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
                tracklets = hierarchy_pass(table, tracklets, pairs, overlap, score, gate, bounds)
            yield f"level-{k} ({bounds})", tracklets, started
            if k == 1 and low.size:
                tracklets = byte_recovery(table, tracklets, low, kernel, gate)
                yield _RECOVERY, tracklets, recovers
    return list(steps(start)), profiles


def _by_sequence(tracklets: TrackletTable, axis: _Axis) -> list[TrackletTable]:
    """The tracklets of each sequence: in (t_min, t_max, tid) order, one
    range each, so their rows are one range too."""
    edges = axis.edges(tracklets.t_min)
    at = np.append(0, np.cumsum(tracklets.size))[edges].tolist()
    return [TrackletTable(tracklets.rows[r:q], *(column[i:j] for column in tracklets[1:]))
            for i, j, r, q in zip(edges[:-1].tolist(), edges[1:].tolist(), at, at[1:])]


def _run_per_class(table: BoxTable, cfg: TrackerConfig, axis: _Axis,
                   given: Optional[TrackletTable] = None) -> list[TableRun]:
    """Run `_run_class` on each class's rows of the batch `table` (frame
    sorted, on the axis), with its tracklets of `given` when given, and
    split the results per sequence: its table in its own frames, its
    classes' level logs over their own rows, and its tracks, those of the
    classes' last levels, numbered 1..K in (t_min, t_max, class) order."""
    edges = axis.edges(table.frame)
    per_class: list[list[ClassRunResult]] = [[] for _ in axis.start]
    finals = [TrackletTable(*[np.zeros(0, np.intp)] * 5)]
    for class_id in np.unique(table.class_id).tolist():
        rows = np.flatnonzero(table.class_id == class_id)
        mine = None
        if given is not None:
            mine = given.take(table.class_id[given.first()] == class_id)
            mine = mine._replace(rows=np.searchsorted(rows, mine.rows))
        own = table.take(rows)
        traces, profiles = _run_class(cfg, own, mine, axis)
        # A sequence's traces share the class's columns, each row's frame in
        # its own sequence's frames.
        seq = axis.seq(own.frame)
        frame = own.frame - axis.shift[seq]
        pieces = [_by_sequence(tracklets, axis) for _, tracklets, _ in traces]
        for s in np.unique(seq).tolist():
            levels = tuple(LevelTrace(label, piece[s], frame, own.id)
                           for (label, _, recorded), piece in zip(traces, pieces) if recorded[s])
            per_class[s].append(ClassRunResult(class_id, levels, profiles[s]))
        if traces:
            final = traces[-1][1]
            finals.append(final._replace(rows=rows[final.rows]))
    final = TrackletTable(*map(np.concatenate, zip(*finals)))
    # lexsort is stable: (t_min, t_max) ties keep the class, then the tid order.
    final = final.take(np.lexsort((final.t_max, final.t_min)))
    runs = []
    for s, tracks in enumerate(_by_sequence(final, axis)):
        here = table.take(slice(edges[s], edges[s + 1]))
        runs.append(TableRun(here._replace(frame=here.frame - axis.shift[s]),
                             tracks.rows - edges[s],
                             np.repeat(np.arange(1, tracks.size.size + 1), tracks.size),
                             tuple(per_class[s])))
    return runs


def _batches(tables: Sequence[BoxTable], cfg: TrackerConfig) -> Iterator[tuple[list[int], _Axis]]:
    """Lay the sequences end to end on one frame axis, in the given order:
    the indices of each batch's sequences and its axis.  The first sequence
    of a batch keeps its frames; each next one starts `gap` frames after the
    last one ends (see the module notes).  A batch closes before a sequence
    would end beyond `_AXIS_LIMIT`, unless that sequence is its first: the
    readers keep frames below 2**53, so a sequence alone always fits."""
    gap = max(stage.bound + stage.overlap for stage in cfg.stages) + 2
    batch: list[int] = []
    start: list[int] = []
    shift: list[int] = []
    end = 0
    for k, table in enumerate(tables):
        # An empty sequence spans [at, at - 1]: no frame.
        lo, hi = (int(table.frame.min()), int(table.frame.max())) if table.frame.size else (1, 0)
        at = end + gap if batch else lo
        if batch and at + hi - lo > _AXIS_LIMIT:
            yield batch, _Axis(np.array(start), np.array(shift))
            batch, start, shift, at = [], [], [], lo
        batch.append(k)
        start.append(at)
        shift.append(at - lo)
        end = at + hi - lo
    if batch:
        yield batch, _Axis(np.array(start), np.array(shift))


def _laid_out(tables: Sequence[BoxTable], tracklets: Optional[Sequence[Runs]],
              axis: _Axis) -> tuple[BoxTable, Optional[TrackletTable]]:
    """The batch's table, each sequence's rows in engine order and its frames
    shifted onto the axis, and its tracklets, when given, as one
    `TrackletTable` of that table."""
    parts, rows, base = [], [], 0
    for k, (table, shift) in enumerate(zip(tables, axis.shift.tolist())):
        order = engine_order(table)
        part = table.take(order)
        if tracklets is None:  # the engine numbers the rows
            part = part._replace(id=np.arange(1, order.size + 1))
        else:
            rows.append(np.argsort(order)[tracklets[k][0]] + base)
        parts.append(part._replace(frame=part.frame + shift))
        base += order.size
    table = BoxTable(*map(np.concatenate, zip(*parts)))
    if tracklets is None:
        return table, None
    size = np.concatenate([size for _, size in tracklets])
    return table, _tracklet_table(table.frame, np.concatenate(rows), size,
                                  np.arange(size.size))._replace(tid=np.arange(1, size.size + 1))


def run_tables(tables: Sequence[BoxTable], cfg: TrackerConfig,
               tracklets: Optional[Sequence[Runs]] = None) -> list[TableRun]:
    """Track sequences, each one's `id` its det_ids: BYTE split, camera
    handling, all hierarchy levels, each class on its own, every sequence
    as if alone but in batches (see the module notes).  Without `tracklets`
    the engine numbers each sequence's rows 1..N in its order.

    With `tracklets` it associates pre-formed tracklets (recombination
    mode), per sequence the (rows, sizes) `Runs` of `refine.split_rows`
    that hold every row of its table once.  They are renumbered 1..K in
    (t_min, t_max, tid) order, since fitting is memoized by tracklet id;
    camera estimation uses the frame-adjacent pairs inside them."""
    validate_config(cfg)
    runs = []
    for batch, axis in _batches(tables, cfg):
        table, given = _laid_out([tables[k] for k in batch],
                                 None if tracklets is None else [tracklets[k] for k in batch],
                                 axis)
        runs += _run_per_class(table, cfg, axis, given)
    return runs


def run_table(table: BoxTable, cfg: TrackerConfig,
              tracklets: Optional[Runs] = None) -> TableRun:
    """`run_tables` of one sequence."""
    return run_tables([table], cfg, None if tracklets is None else [tracklets])[0]
