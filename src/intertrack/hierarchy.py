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

One engine serves both entry modes: `track` starts it from detections,
`refine` from pre-formed tracklets.  Both share one camera step, one stage
loop and one merge-to-fixpoint loop, which the two schedule strategies
differ in only by how they group candidate tracklets; both frame-adjacent
passes share one frame-linking loop and differ only in their score matrix.

Tracklet intervals are the priors that bound each level's candidates.  The
merge loop never scans all pairs and builds no per-pair object: each round
gathers the tracklets' (tid, t_min, t_max) into arrays, and since they are
sorted by t_min a binary search finds, for every tracklet at once, the index
range of those whose first frame lies in its admissible window (a gap of at
most the level's bound, or a bounded overlap).  The windows are expanded
into (earlier, later) index arrays and filtered by one elementwise
admissibility test.  A group's pairs are scored in one `score` call, which
gathers per-tracklet attributes once, fits the missing motion states of its
distinct tracklets in one Kalman batch and evaluates the box kernel over the
aligned predictions in chunks of at most `assignment._CHUNK_CELLS` pairs.
`solve_pairs` then matches the pairs as the sparse matrix they are, one
connected component of pairs above 0 at a time, on the first level's chunker
and certificates; no tracklets x tracklets matrix is built.
The motion-informed first level filters all its preliminary chains in one
Kalman batch as well.

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
`associate_table` return the output track id of each row kept, and
`run_detailed` and `associate_tracklets` wrap them in objects.  Inside the
engine a tracklet is a `TrackletRows`: its id, the frame-sorted array of its
rows, and its t_min/t_max; every pass gathers boxes, frames and scores by
row.  Camera stabilization replaces the box column of a class engine's own
table, so the results keep the input boxes exactly.

Each class engine keeps one record of its levels: a list of `LevelTrace`s,
each holding the level's `TrackletRows` and the table's frame and det_id
columns.  A level's tracklet count and its (frame, det_id) members, which
only `--dump-hierarchy` and library callers read, are computed when read, and
`ClassRunResult.counts` (N_1..N_l) is derived from the same list: every
trace but the interval schedule's low-score recovery, which only grows the
first level's tracklets.

Every pass is deterministic: tracklets are kept in (t_min, t_max, id) order,
ids are never reused, and matching ties are broken toward low indices.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import camera as camera_mod
from .assignment import pair_chunks, padded_chunks, solve, solve_blocks, solve_pairs
from .geometry import SimilarityKernel
from .model import (BoxTable, Detection, Stage, Strategy, Tracklet, TrackerConfig, Trajectory,
                    table_of, trajectories_of, validate_config)
from .motion import FitCache, _advance, kalman_states, pair_scores

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# The table, engine tracklets, state and trace types
# ---------------------------------------------------------------------------


def engine_order(table: BoxTable) -> np.ndarray:
    """Rows sorted stably by (frame, det_id, cx, cy, score), so rows that
    share a det_id still get a deterministic order."""
    return np.lexsort((table.score, table.boxes[:, 1], table.boxes[:, 0], table.id,
                       table.frame))


class TrackletRows(NamedTuple):
    """A tracklet inside the engine: frame-sorted rows of its table."""
    tid: int
    rows: np.ndarray
    t_min: int
    t_max: int


def _tracklet(frame: np.ndarray, tid: int, rows: np.ndarray) -> TrackletRows:
    return TrackletRows(tid, rows, int(frame[rows[0]]), int(frame[rows[-1]]))


# Batched pair scorer: (members, a, b) -> the similarity of each pair
# (members[a[k]], members[b[k]]), earlier tracklet first.
PairScorer = Callable[[Sequence[TrackletRows], np.ndarray, np.ndarray], np.ndarray]
# Candidate grouping: tracklets -> index groups; pairs are only scored
# (and matched) inside one group.
Grouping = Callable[[Sequence[TrackletRows]], Sequence[Sequence[int]]]


@dataclass(frozen=True)
class HierarchyState:
    """Tracklet population over one table between levels, in (t_min, t_max,
    tid) order."""
    table: BoxTable
    tracklets: tuple[TrackletRows, ...]
    next_tid: int


@dataclass(frozen=True)
class LevelTrace:
    """A class's tracklets after one level, as rows of the engine's table;
    its (frame, det_id) members are built only when read."""
    label: str
    tracklets: tuple[TrackletRows, ...]
    frame: np.ndarray
    det_id: np.ndarray

    @property
    def tracklet_count(self) -> int:
        return len(self.tracklets)

    @property
    def members(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per tracklet, its (frame, det_id) pairs in frame order."""
        return tuple(tuple(zip(self.frame[t.rows].tolist(), self.det_id[t.rows].tolist()))
                     for t in self.tracklets)


# The label of the trace taken after low-score rows are absorbed into the
# interval schedule's first level; it is no level of its own.
_RECOVERY = "low-score recovery"


@dataclass(frozen=True)
class ClassRunResult:
    class_id: int
    levels: tuple[LevelTrace, ...]
    camera: Optional[camera_mod.CameraProfile]

    @property
    def counts(self) -> tuple[int, ...]:
        """The tracklet counts N_1..N_l of the levels; (0,) for a class
        without high-score rows, which has no levels."""
        return tuple(lv.tracklet_count for lv in self.levels
                     if lv.label != _RECOVERY) or (0,)


@dataclass(frozen=True)
class RunResult:
    trajectories: list[Trajectory]
    per_class: tuple[ClassRunResult, ...]


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

    def result(self) -> RunResult:
        return RunResult(trajectories_of(self.table.take(self.rows), self.track),
                         self.per_class)


def _ordered(tracklets: Iterable[TrackletRows]) -> tuple[TrackletRows, ...]:
    return tuple(sorted(tracklets, key=lambda t: (t.t_min, t.t_max, t.tid)))


# ---------------------------------------------------------------------------
# Generic association machinery
# ---------------------------------------------------------------------------


def resolve_overlap(table: BoxTable, a: TrackletRows, b: TrackletRows, new_tid: int,
                    max_overlap: int = 5) -> TrackletRows:
    """Merge two matched tracklets whose spans may overlap by a few frames.

    For a frame claimed by both, the higher-confidence detection wins; ties
    go to the tracklet that starts earlier, then to the box that is smaller
    in (cx, cy, w, h) order, then to the smaller det_id, so that the input
    row order only decides between equal boxes.  An overlap beyond
    max_overlap means the engine admitted an illegal pair and is treated as
    a bug, not a data condition.
    """
    if b.t_min < a.t_min:
        a, b = b, a
    overlap = a.t_max - b.t_min + 1
    if overlap > max_overlap:
        raise ValueError(
            f"tracklets overlap by {overlap} frames (allowed {max_overlap})")
    if overlap <= 0:
        return TrackletRows(new_tid, np.concatenate([a.rows, b.rows]), a.t_min, b.t_max)
    chosen = dict(zip(table.frame[a.rows].tolist(), a.rows.tolist()))
    score = table.score
    same_start = a.t_min == b.t_min

    def tie_key(row: int) -> tuple:
        return (*table.boxes[row].tolist(), table.id[row])
    for frame, row in zip(table.frame[b.rows].tolist(), b.rows.tolist()):
        rival = chosen.get(frame)
        # Equal scores normally fall to the earlier-starting tracklet (`a`
        # after the swap above); when both start together the box decides.
        if (rival is None or score[row] > score[rival]
                or (score[row] == score[rival] and same_start
                    and tie_key(row) < tie_key(rival))):
            chosen[frame] = row
    # Within one table, frame-sorted rows are ascending rows.
    return _tracklet(table.frame, new_tid, np.array(sorted(chosen.values())))


def _chains(link: dict[int, int], nodes: Iterable[int]) -> list[list[int]]:
    """Follow the links (earlier -> later) from each of `nodes` that no link
    points to; one chain per such node, in the order of `nodes`."""
    has_pred = set(link.values())
    chains = []
    for start in nodes:
        if start in has_pred:
            continue
        chain = [start]
        while chain[-1] in link:
            chain.append(link[chain[-1]])
        chains.append(chain)
    return chains


def _merge_round(table: BoxTable, tracklets: Sequence[TrackletRows],
                 matches: Sequence[tuple[int, int]], next_tid: int,
                 max_overlap: int) -> tuple[tuple[TrackletRows, ...], int]:
    link = dict(matches)
    paths = _chains(link, sorted(link))
    consumed = {idx for path in paths for idx in path}
    merged = [t for k, t in enumerate(tracklets) if k not in consumed]
    for path in paths:
        acc = tracklets[path[0]]
        for idx in path[1:]:
            acc = resolve_overlap(table, acc, tracklets[idx], next_tid, max_overlap)
        merged.append(acc)
        next_tid += 1
    return _ordered(merged), next_tid


class _Spans(NamedTuple):
    """The tid, t_min and t_max arrays of a sequence of tracklets."""
    tid: np.ndarray
    t_min: np.ndarray
    t_max: np.ndarray

    @classmethod
    def of(cls, tracklets: Sequence[TrackletRows]) -> _Spans:
        return cls(np.array([t.tid for t in tracklets], np.int64),
                   np.array([t.t_min for t in tracklets], np.int64),
                   np.array([t.t_max for t in tracklets], np.int64))

    def take(self, k: np.ndarray) -> _Spans:
        return _Spans(self.tid[k], self.t_min[k], self.t_max[k])


def _interval_admissible(dt_bound: int, overlap_allowance: int, a, b):
    """Whether tracklet b may follow tracklet a at a level, elementwise over
    `_Spans` (or any objects with tid, t_min and t_max); a call on two
    tracklets is a one-element call.  b must come after a in (t_min, t_max,
    tid) order and either start within dt_bound frames after a ends or share
    at most overlap_allowance frames with it."""
    after = ((a.t_min < b.t_min)
             | ((a.t_min == b.t_min) & ((a.t_max < b.t_max)
                                         | ((a.t_max == b.t_max) & (a.tid < b.tid)))))
    gap = b.t_min - a.t_max
    # Shared frames, counted as resolve_overlap counts them.
    shared = 1 - gap
    return after & (((0 < gap) & (gap <= dt_bound))
                    | ((0 < shared) & (shared <= overlap_allowance)))


def _admissible_pairs(spans: _Spans, dt_bound: int,
                      overlap_allowance: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b) of tracklets in (t_min, t_max, tid) order, given by
    their `spans`, that `_interval_admissible` admits, as two arrays in
    sorted (a, b) order.

    Only b with t_min in [t_max[a] - overlap_allowance + 1, t_max[a] +
    dt_bound] can be admitted, and since t_min is sorted each a's window is
    one index range, found by a binary search.  The windows, laid end to end,
    are expanded into pairs and filtered `pair_chunks` candidates at a time."""
    lo = np.searchsorted(spans.t_min, spans.t_max - overlap_allowance + 1, "left")
    count = np.searchsorted(spans.t_min, spans.t_max + dt_bound, "right") - lo
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    a, b = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for part in pair_chunks(total):
        at = np.arange(part.start, min(part.stop, total))
        x = np.searchsorted(ends, at, "right")
        y = at - ends[x] + count[x] + lo[x]
        keep = _interval_admissible(dt_bound, overlap_allowance, spans.take(x), spans.take(y))
        a.append(x[keep])
        b.append(y[keep])
    return np.concatenate(a), np.concatenate(b)


def _merge_to_fixpoint(state: HierarchyState, groups: Grouping, dt_bound: int,
                       overlap_allowance: int, score: PairScorer, gate: float,
                       label: str) -> HierarchyState:
    """Solve each candidate group's admissible pairs, merge the matches, and
    repeat until a round matches nothing.

    Each round gathers the tracklets' spans into arrays once, sweeps every
    group's time-ordered members for the index pairs whose intervals are
    admissible, scores them in one `score` call, and matches them with
    `solve_pairs`, one connected component of pairs above 0 at a time.
    Logs, at INFO, one line per round."""
    tracklets = state.tracklets
    next_tid = state.next_tid
    for round_ in itertools.count(1):
        spans = _Spans.of(tracklets)
        matches: list[tuple[int, int]] = []
        admitted = positive = components = largest = exact = 0
        for group in groups(tracklets):
            group = np.asarray(group, dtype=np.intp)
            a, b = _admissible_pairs(spans.take(group), dt_bound, overlap_allowance)
            if not a.size:
                continue
            scores = score([tracklets[k] for k in group.tolist()], a, b)
            found = solve_pairs(a, b, scores, gate)
            matches += zip(group[found.a].tolist(), group[found.b].tolist())
            admitted += a.size
            positive += int((scores > 0).sum())
            components += found.components
            largest = max(largest, found.largest)
            exact += found.exact
        log.info("merge level (%s) round %d: %d pairs admitted, %d above 0, %d components "
                 "solved (largest %d nodes), %d by augmenting paths, %d matches",
                 label, round_, admitted, positive, components, largest, exact, len(matches))
        if not matches:
            return HierarchyState(state.table, tracklets, next_tid)
        tracklets, next_tid = _merge_round(state.table, tracklets, matches, next_tid,
                                           overlap_allowance)


def _bounds_label(bound: int, overlap: int, window: bool) -> str:
    if window:
        return f"window {bound}"
    return f"gap {bound}, overlap {overlap}" if overlap else f"gap {bound}"


def hierarchy_pass(state: HierarchyState, dt_bound: int, overlap_allowance: int,
                   score: PairScorer, gate: float) -> HierarchyState:
    """One interval-scheduled level: admit pairs with gap in (0, dt_bound]
    (plus a bounded overlap on the final level) and merge until fixpoint."""
    return _merge_to_fixpoint(state, lambda ts: [np.arange(len(ts))], dt_bound, overlap_allowance,
                              score, gate, _bounds_label(dt_bound, overlap_allowance, False))


def _window_groups(tracklets: Sequence[TrackletRows], window_size: int) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for k, t in enumerate(tracklets):
        w_lo = (t.t_min - 1) // window_size
        w_hi = (t.t_max - 1) // window_size
        if w_lo == w_hi:  # straddling tracklets sit this level out
            groups.setdefault(w_lo, []).append(k)
    return [groups[w] for w in sorted(groups)]


def window_strategy_pass(state: HierarchyState, window_size: int,
                         score: PairScorer, gate: float) -> HierarchyState:
    """One window-scheduled level: tracklets may merge only when both lie
    entirely inside the same window of the given size."""
    return _merge_to_fixpoint(state, lambda ts: _window_groups(ts, window_size),
                              window_size, 0, score, gate, _bounds_label(window_size, 0, True))


# ---------------------------------------------------------------------------
# First level: frame-adjacent chaining, motion second pass, low-score rescue
# ---------------------------------------------------------------------------


# Block scorer: padded (pairs, n) row and (pairs, m) column positions into
# the frame-sorted rows being linked -> (pairs, n, m) similarities.
BlockScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _block_scores(kernel: SimilarityKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel of every row of each (pairs, n, 4) block of `a` against every
    row of the same block of `b` (pairs, m, 4): (pairs, n, m)."""
    return kernel(a[:, :, None], b[:, None, :])


def _link_frames(frame: np.ndarray, score: BlockScorer, gate: float) -> list[list[int]]:
    """Match every frame t against frame t+1 and chain the links;
    returns chains of positions into `frame`, each covering a run of
    consecutive frames, in the order of their first position.

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
    link: dict[int, int] = {}
    chunks = exact = 0
    for blocks, rows, cols in padded_chunks(first[lead], n, first[lead + 1], m):
        found, searched = solve_blocks(score(rows, cols), n[blocks], m[blocks], gate)
        blk, i, j = found.T
        link.update(zip(rows[blk, i].tolist(), cols[blk, j].tolist()))
        chunks += 1
        exact += searched
    log.info("first level: %d frame pairs in %d chunks, %d components solved by augmenting "
             "paths", lead.size, chunks, exact)
    return _chains(link, range(len(frame)))


def adjacent_pass(table: BoxTable, rows: np.ndarray, kernel: SimilarityKernel,
                  gate: float) -> list[np.ndarray]:
    """Static frame-to-next-frame chaining of the given rows (in table order).

    Matches each frame against the following one with the configured kernel
    and links the optimal matches into chains of rows; every chain covers
    a run of consecutive frames.  Each chunk of frame pairs is one kernel
    call over boxes gathered by row.
    """
    boxes = table.boxes[rows]
    chains = _link_frames(table.frame[rows],
                          lambda r, c: _block_scores(kernel, boxes[r], boxes[c]), gate)
    return [rows[chain] for chain in chains]


def consistent_motion_pass(table: BoxTable, rows: np.ndarray,
                           preliminary_chains: Sequence[np.ndarray], cfg: TrackerConfig,
                           kernel: SimilarityKernel) -> list[np.ndarray]:
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
    runs = [*preliminary_chains, *(chain[::-1] for chain in preliminary_chains)]
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
    return [rows[chain] for chain in _link_frames(table.frame[rows], score, cfg.match_threshold)]


def byte_recovery(state: HierarchyState, low: np.ndarray, kernel: SimilarityKernel,
                  gate: float) -> HierarchyState:
    """Absorb low-confidence rows (in table order) into temporally adjacent
    tracklet endpoints; leftovers are dropped and never start a trajectory."""
    if not len(low):
        return state
    table = state.table
    tracklets = list(state.tracklets)
    next_tid = state.next_tid
    ts, first, size = np.unique(table.frame[low], return_index=True, return_counts=True)
    for t, start, n in zip(ts.tolist(), first.tolist(), size.tolist()):
        lows = low[start:start + n]
        candidates: list[tuple[int, int]] = []  # (tracklet index, endpoint row)
        for k, trk in enumerate(tracklets):
            if trk.t_max == t - 1:
                candidates.append((k, trk.rows[-1]))
            elif trk.t_min == t + 1:
                candidates.append((k, trk.rows[0]))
        if not candidates:
            continue
        scores = kernel.matrix(table.boxes[[row for _, row in candidates]], table.boxes[lows])
        for i, j in solve(scores, gate):
            k = candidates[i][0]
            rows = np.sort(np.append(tracklets[k].rows, lows[j]))  # ascending rows: frame order
            tracklets[k] = _tracklet(table.frame, next_tid, rows)
            next_tid += 1
    return HierarchyState(table, _ordered(tracklets), next_tid)


# ---------------------------------------------------------------------------
# Full pipelines
# ---------------------------------------------------------------------------


def _adjacent_pairs(frame: np.ndarray, runs: Sequence[np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(earlier, later) rows of the frame-adjacent entries inside each run,
    in run order."""
    rows = np.concatenate(runs)
    inside = np.ones(max(len(rows) - 1, 0), dtype=bool)
    inside[np.cumsum([len(run) for run in runs])[:-1] - 1] = False
    a, b = rows[:-1], rows[1:]
    keep = inside & (frame[b] == frame[a] + 1)
    return a[keep], b[keep]


def _stage_label(index: int, stage: Stage, window: bool) -> str:
    return f"level-{index} ({_bounds_label(stage.bound, stage.overlap, window)})"


class _ClassEngine:
    """Runs the full pipeline on the table of one class's detections and
    keeps the log of its levels."""

    def __init__(self, cfg: TrackerConfig, class_id: int, table: BoxTable):
        self.cfg = cfg
        self.class_id = class_id
        self.table = table
        self.kernel = SimilarityKernel(cfg)
        self.window = cfg.strategy is Strategy.WINDOW
        self.levels: list[LevelTrace] = []

    def run_detections(self) -> ClassRunResult:
        cfg = self.cfg
        score = self.table.score
        high = np.flatnonzero(score >= cfg.score_high)
        low = np.flatnonzero((cfg.score_low <= score) & (score < cfg.score_high))
        if not high.size:
            return ClassRunResult(self.class_id, (), None)

        chains = adjacent_pass(self.table, high, self.kernel, cfg.match_threshold)
        profile = self._camera(chains)
        # `high` is in (frame, det_id) order, which is also the singletons'
        # (t_min, t_max, tid) order.
        frame = self.table.frame
        state = HierarchyState(self.table, tuple(
            TrackletRows(tid, high[tid - 1:tid], t, t)
            for tid, t in enumerate(frame[high].tolist(), 1)), len(high) + 1)
        self._record("singletons", state)
        if self.window:  # the window schedule starts from singletons
            return self._stages(state, 0, profile, low)
        if profile is not None and profile.moving:
            chains = adjacent_pass(self.table, high, self.kernel, cfg.match_threshold)
        if cfg.enable_cm:
            chains = consistent_motion_pass(self.table, high, chains, cfg, self.kernel)
        # Interval level 1 is the frame-adjacent chaining itself.
        state = HierarchyState(self.table, _ordered(
            _tracklet(frame, tid, chain) for tid, chain in enumerate(chains, 1)), len(chains) + 1)
        self._record(_stage_label(1, cfg.stages[0], False), state)
        if len(low):
            state = byte_recovery(state, low, self.kernel, cfg.match_threshold)
            self._record(_RECOVERY, state)
        return self._stages(state, 1, profile)

    def run_tracklets(self, tracklets: Sequence[TrackletRows]) -> ClassRunResult:
        """Associate pre-formed tracklets (the recombination mode)."""
        profile = self._camera([t.rows for t in tracklets])
        state = HierarchyState(self.table, _ordered(tracklets),
                               max(t.tid for t in tracklets) + 1)
        self._record("input tracklets", state)
        return self._stages(state, 0, profile)

    def _camera(self, runs: Sequence[np.ndarray]) -> Optional[camera_mod.CameraProfile]:
        """Estimate camera movement from the frame-adjacent pairs inside
        `runs`, and stabilize the table's boxes when the camera moves;
        returns the profile, None when disabled."""
        if not self.cfg.enable_cc:
            return None
        frame, boxes = self.table.frame, self.table.boxes
        a, b = _adjacent_pairs(frame, runs)
        profile = camera_mod.estimate(frame[a], boxes[a], boxes[b], self.cfg.cc_threshold,
                                      (int(frame.min()), int(frame.max())))
        if profile.moving:
            self.table = self.table._replace(boxes=camera_mod.stabilize(frame, boxes, profile))
        return profile

    def _record(self, label: str, state: HierarchyState) -> None:
        self.levels.append(LevelTrace(label, state.tracklets, state.table.frame,
                                      state.table.id))

    def _stages(self, state: HierarchyState, first: int,
                profile: Optional[camera_mod.CameraProfile],
                low: Sequence[int] = ()) -> ClassRunResult:
        """Run the schedule from stage index `first` on, recording each level,
        and return the class's result with its camera `profile`; `low` rows
        are absorbed right after the first stage."""
        gate = self.cfg.match_threshold
        cache = FitCache(self.cfg, state.table.frame, state.table.boxes)
        score: PairScorer = lambda members, a, b: pair_scores(members, a, b, self.kernel, cache)
        for k, stage in enumerate(self.cfg.stages[first:], start=first + 1):
            if self.window:
                state = window_strategy_pass(state, stage.bound, score, gate)
            else:
                state = hierarchy_pass(state, stage.bound, stage.overlap, score, gate)
            if k == 1 and len(low):
                state = byte_recovery(state, low, self.kernel, gate)
            self._record(_stage_label(k, stage, self.window), state)
        return ClassRunResult(self.class_id, tuple(self.levels), profile)


def _run_per_class(table: BoxTable, cfg: TrackerConfig,
                   start: Callable[[_ClassEngine, np.ndarray], ClassRunResult]) -> TableRun:
    """Run one engine per class on its rows of `table`, and number the
    combined tracks of the classes' last levels in (t_min, t_max, class)
    order.  `start(engine, rows)` runs the engine of the class's `rows`."""
    results = []
    ranked = []
    for class_id in np.unique(table.class_id).tolist():
        rows = np.flatnonzero(table.class_id == class_id)
        result = start(_ClassEngine(cfg, class_id, table.take(rows)), rows)
        log.debug("class %d: tracklet counts per level %s", class_id, result.counts)
        results.append(result)
        final = result.levels[-1].tracklets if result.levels else ()
        ranked += [((t.t_min, t.t_max, class_id, t.tid), rows[t.rows]) for t in final]
    ranked.sort(key=lambda r: r[0])
    sizes = [len(rows) for _, rows in ranked]
    kept = np.concatenate([rows for _, rows in ranked]) if ranked else np.zeros(0, np.intp)
    return TableRun(table, kept, np.repeat(np.arange(1, len(sizes) + 1), sizes),
                    tuple(results))


def run_table(table: BoxTable, cfg: TrackerConfig) -> TableRun:
    """Track one sequence, `id` the det_id: BYTE split, camera handling, all
    hierarchy levels, each class on its own.  The engine numbers the rows
    1..N in its order."""
    validate_config(cfg)
    table = table.take(engine_order(table))
    return _run_per_class(table._replace(id=np.arange(1, table.frame.size + 1)), cfg,
                          lambda engine, rows: engine.run_detections())


def run_detailed(detections: Iterable[Detection], cfg: TrackerConfig) -> RunResult:
    """`run_table` on the table of `detections`; the output entries carry the
    engine's det_ids with the caller's own boxes."""
    return run_table(table_of(list(detections)), cfg).result()


def run(detections: Iterable[Detection], cfg: TrackerConfig) -> list[Trajectory]:
    return run_detailed(detections, cfg).trajectories


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
    runs = sorted((row_of[rows] for rows in tracklets),  # stable: ties keep tid order
                  key=lambda rows: (table.frame[rows[0]], table.frame[rows[-1]]))

    def start(engine: _ClassEngine, class_rows: np.ndarray) -> ClassRunResult:
        return engine.run_tracklets([_tracklet(engine.table.frame, tid,
                                               np.searchsorted(class_rows, rows))
                                     for tid, rows in enumerate(runs, 1)
                                     if table.class_id[rows[0]] == engine.class_id])
    return _run_per_class(table, cfg, start)


def associate_tracklets(tracklets: Sequence[Tracklet], cfg: TrackerConfig) -> RunResult:
    """`associate_table` on the table of the tracklets' entries; the output
    entries carry the input detections' det_ids and boxes."""
    ordered = sorted(tracklets, key=lambda t: (t.t_min, t.t_max, t.tid))
    ends = np.cumsum([len(t) for t in ordered], dtype=np.intp).tolist()
    return associate_table(table_of([e for t in ordered for e in t.entries]),
                           [np.arange(end - len(t), end) for t, end in zip(ordered, ends)],
                           cfg).result()
