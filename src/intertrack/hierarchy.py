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
merge loop never scans all pairs: tracklets are sorted by t_min, so a
bisect finds, for each tracklet, the few whose first frame lies in its
admissible window (a gap of at most the level's bound, or a bounded
overlap).  All pairs a round admits in one candidate group are then scored
in one batched call, which fits the missing motion states in one Kalman
batch, extrapolates the cached states together and evaluates the box kernel
once over the aligned predictions.  The motion-informed first level filters
all its preliminary chains in one Kalman batch as well.

The first level scores its frame pairs in chunks, not one pair at a time:
the (t, t+1) blocks are sorted by shape and cut into chunks of at most
`_CHUNK_CELLS` padded cells, so the kernel's temporaries stay bounded on long
or crowded sequences.  Each chunk is one kernel call over boxes gathered by
index; a block smaller than its chunk's largest is padded by repeating one of
its own frame's detections, so padded cells are finite, and they are never
read.  Only the assignment still runs once per frame pair.

Every pass is deterministic: tracklets are kept in (t_min, t_max, id) order,
ids are never reused, and matching ties are broken toward low indices.
"""

from __future__ import annotations

import bisect
import dataclasses
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import camera as camera_mod
from .assignment import solve
from .geometry import SimilarityKernel, stack_boxes
from .model import (
    Detection,
    Stage,
    Strategy,
    Tracklet,
    TrackerConfig,
    validate_config,
)
from .motion import FitCache, _advance, kalman_states, pair_scores
from .refine import Trajectory, from_tracklet, resolve_overlap

log = logging.getLogger(__name__)

# Batched pair scorer: (earlier, later) tracklet pairs -> similarity per pair.
PairScorer = Callable[[Sequence[tuple[Tracklet, Tracklet]]], np.ndarray]
# Candidate grouping: tracklets -> index groups; pairs are only scored
# (and matched) inside one group.
Grouping = Callable[[Sequence[Tracklet]], Sequence[Sequence[int]]]


# ---------------------------------------------------------------------------
# State and trace types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HierarchyState:
    """Tracklet population between levels, with the count history N_1..N_l."""
    level: int
    tracklets: tuple[Tracklet, ...]
    counts: tuple[int, ...]
    next_tid: int

    @staticmethod
    def initial(tracklets: Sequence[Tracklet], next_tid: int) -> "HierarchyState":
        ordered = _ordered(tracklets)
        return HierarchyState(level=1, tracklets=tuple(ordered),
                              counts=(len(ordered),), next_tid=next_tid)

    def advanced(self, tracklets: Sequence[Tracklet], next_tid: int) -> "HierarchyState":
        return HierarchyState(level=self.level + 1,
                              tracklets=tuple(_ordered(tracklets)),
                              counts=self.counts + (len(tracklets),),
                              next_tid=next_tid)


@dataclass(frozen=True)
class LevelTrace:
    label: str
    tracklet_count: int
    members: tuple[tuple[tuple[int, int], ...], ...]  # per tracklet: (frame, det_id)


@dataclass(frozen=True)
class ClassRunResult:
    class_id: int
    tracklets: tuple[Tracklet, ...]
    counts: tuple[int, ...]
    levels: tuple[LevelTrace, ...]
    camera: Optional[camera_mod.CameraProfile]


@dataclass(frozen=True)
class RunResult:
    trajectories: list[Trajectory]
    per_class: tuple[ClassRunResult, ...]


def _ordered(tracklets: Iterable[Tracklet]) -> list[Tracklet]:
    return sorted(tracklets, key=lambda t: (t.t_min, t.t_max, t.tid))


def _snapshot(label: str, tracklets: Sequence[Tracklet]) -> LevelTrace:
    members = tuple(tuple((e.frame, e.det_id) for e in t.entries) for t in tracklets)
    return LevelTrace(label=label, tracklet_count=len(tracklets), members=members)


# ---------------------------------------------------------------------------
# Generic association machinery
# ---------------------------------------------------------------------------


def _matches_to_paths(matches: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Chain up matching links (i earlier -> j later) into merge paths."""
    succ = dict(matches)
    has_pred = {j for _, j in matches}
    paths = []
    for start in sorted(succ):
        if start in has_pred:
            continue
        path = [start]
        node = start
        while node in succ:
            node = succ[node]
            path.append(node)
        paths.append(path)
    return paths


def _merge_round(tracklets: list[Tracklet], matches: Sequence[tuple[int, int]],
                 next_tid: int, max_overlap: int) -> tuple[list[Tracklet], int]:
    paths = _matches_to_paths(matches)
    consumed = {idx for path in paths for idx in path}
    merged = [t for k, t in enumerate(tracklets) if k not in consumed]
    for path in paths:
        acc = tracklets[path[0]]
        for idx in path[1:]:
            acc = resolve_overlap(acc, tracklets[idx], next_tid, max_overlap)
        merged.append(acc)
        next_tid += 1
    return _ordered(merged), next_tid


def _interval_admissible(dt_bound: int, overlap_allowance: int,
                         a: Tracklet, b: Tracklet) -> bool:
    if a.class_id != b.class_id:
        return False
    if (a.t_min, a.t_max, a.tid) >= (b.t_min, b.t_max, b.tid):
        return False
    gap = b.t_min - a.t_max
    if 0 < gap <= dt_bound:
        return True
    # Shared frames, counted as resolve_overlap counts them.
    return 0 < a.t_max - b.t_min + 1 <= overlap_allowance


def _admissible_pairs(members: Sequence[Tracklet], dt_bound: int,
                      overlap_allowance: int) -> list[tuple[int, int]]:
    """Index pairs (a, b) of `members`, which are in (t_min, t_max, tid)
    order, that `_interval_admissible` admits, in sorted order.

    Only b with t_min in [a.t_max - overlap_allowance + 1, a.t_max + dt_bound]
    can be admitted, so a bisect over the members' t_min bounds the scan."""
    starts = [t.t_min for t in members]
    pairs = []
    for a, x in enumerate(members):
        lo = bisect.bisect_left(starts, x.t_max - overlap_allowance + 1)
        hi = bisect.bisect_right(starts, x.t_max + dt_bound)
        pairs += [(a, b) for b in range(lo, hi)
                  if _interval_admissible(dt_bound, overlap_allowance, x, members[b])]
    return pairs


def _merge_to_fixpoint(state: HierarchyState, groups: Grouping, dt_bound: int,
                       overlap_allowance: int, score: PairScorer,
                       gate: float) -> HierarchyState:
    """Solve each candidate group's admissible pairs, merge the matches, and
    repeat until a round matches nothing; the result is one level further.

    Each round sweeps every group's time-ordered members for the pairs whose
    intervals are admissible and scores all of a group's pairs in one batched
    `score` call."""
    tracklets = list(state.tracklets)
    next_tid = state.next_tid
    while True:
        matches: list[tuple[int, int]] = []
        for group in groups(tracklets):
            members = [tracklets[k] for k in group]
            pairs = _admissible_pairs(members, dt_bound, overlap_allowance)
            if not pairs:
                continue
            scores = np.full((len(members), len(members)), -np.inf)
            rows, cols = zip(*pairs)
            scores[rows, cols] = score([(members[a], members[b]) for a, b in pairs])
            matches += [(group[a], group[b]) for a, b in solve(scores, gate)]
        if not matches:
            return state.advanced(tracklets, next_tid)
        tracklets, next_tid = _merge_round(tracklets, matches, next_tid,
                                           overlap_allowance)


def hierarchy_pass(state: HierarchyState, dt_bound: int, overlap_allowance: int,
                   score: PairScorer, gate: float) -> HierarchyState:
    """One interval-scheduled level: admit pairs with gap in (0, dt_bound]
    (plus a bounded overlap on the final level) and merge until fixpoint."""
    return _merge_to_fixpoint(state, lambda ts: [range(len(ts))], dt_bound,
                              overlap_allowance, score, gate)


def _window_groups(tracklets: Sequence[Tracklet], window_size: int) -> list[list[int]]:
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
                              window_size, 0, score, gate)


# ---------------------------------------------------------------------------
# First level: frame-adjacent chaining, motion second pass, low-score rescue
# ---------------------------------------------------------------------------


def _by_frame(detections: Iterable[Detection]) -> dict[int, list[Detection]]:
    grouped: dict[int, list[Detection]] = {}
    for det in detections:
        grouped.setdefault(det.frame, []).append(det)
    for frame in grouped:
        grouped[frame].sort(key=lambda d: d.det_id)
    return grouped


def _boxes(detections: Sequence[Detection]) -> np.ndarray:
    return stack_boxes([d.box for d in detections])


def _frame_order(detections: Iterable[Detection]) -> list[Detection]:
    return sorted(detections, key=lambda d: (d.frame, d.det_id))


# Upper bound on the padded (pairs, n_max, m_max) cells of one block-scorer
# call of the first level: the kernel's temporaries scale with it, so it
# bounds memory on long or crowded sequences.  At 1 << 16 the temporaries
# raised peak RSS by about 2 MB on a 6,200-detection sequence; at 1 << 14
# they stay within noise and a call still holds hundreds of small blocks.
_CHUNK_CELLS = 1 << 14

# Block scorer: padded (pairs, n) row and (pairs, m) column indices into the
# detections, in (frame, det_id) order -> (pairs, n, m) similarities.
BlockScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _block_scores(kernel: SimilarityKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel of every row of each (pairs, n, 4) block of `a` against every
    row of the same block of `b` (pairs, m, 4): (pairs, n, m)."""
    return kernel(a[:, :, None], b[:, None, :])


def _chunks(shapes: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Indices of blocks of the given (n, m) shapes, sorted by shape and cut
    into chunks whose padded cell count stays within `_CHUNK_CELLS`; a block
    larger than that by itself is a chunk of its own."""
    chunks: list[list[int]] = []
    n_max = m_max = 0
    for k in sorted(range(len(shapes)), key=lambda k: shapes[k]):
        n, m = shapes[k]
        if chunks and (len(chunks[-1]) + 1) * max(n_max, n) * max(m_max, m) <= _CHUNK_CELLS:
            chunks[-1].append(k)
            n_max, m_max = max(n_max, n), max(m_max, m)
        else:
            chunks.append([k])
            n_max, m_max = n, m
    return chunks


def _padded(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(blocks, max size) indices start + i; slots past a block's size repeat
    its last index, so every padded cell scores real boxes."""
    return starts[:, None] + np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)


def _link_frames(ordered: Sequence[Detection], score: BlockScorer,
                 gate: float) -> list[list[Detection]]:
    """Match every frame t against frame t+1 and chain the Hungarian links;
    every chain covers a run of consecutive frames.

    `ordered` is in (frame, det_id) order, so each frame is one index range.
    The (t, t+1) blocks are sorted by shape and scored a chunk at a time:
    `score` gets a chunk's row and column index ranges padded to its largest
    block, and `solve` reads only each block's real [k, :n, :m] cells.
    Links are keyed by det_id, so the order of the solves does not matter.
    """
    frames = np.array([d.frame for d in ordered], dtype=np.int64)
    ts, first, size = np.unique(frames, return_index=True, return_counts=True)
    # Index into ts of the earlier frame of each (t, t+1) pair.
    lead = np.flatnonzero(ts[1:] == ts[:-1] + 1)
    shapes = list(zip(size[lead].tolist(), size[lead + 1].tolist()))
    link: dict[int, Detection] = {}
    has_pred: set[int] = set()
    for chunk in _chunks(shapes):
        b = lead[chunk]
        r0, n, c0, m = first[b], size[b], first[b + 1], size[b + 1]
        scores = score(_padded(r0, n), _padded(c0, m))
        for k in range(len(chunk)):
            for i, j in solve(scores[k, :n[k], :m[k]], gate):
                link[ordered[r0[k] + i].det_id] = ordered[c0[k] + j]
                has_pred.add(ordered[c0[k] + j].det_id)
    chains = []
    for det in ordered:
        if det.det_id in has_pred:
            continue
        chain = [det]
        while chain[-1].det_id in link:
            chain.append(link[chain[-1].det_id])
        chains.append(chain)
    return chains


def adjacent_pass(detections: Sequence[Detection], kernel: SimilarityKernel,
                  gate: float) -> list[list[Detection]]:
    """Static frame-to-next-frame chaining of detections.

    Matches each frame against the following one with the configured kernel
    and links the Hungarian matches into chains; every chain covers a run of
    consecutive frames.  The boxes are stacked once per pass; each chunk of
    frame pairs is one kernel call over boxes gathered by index.
    """
    ordered = _frame_order(detections)
    boxes = _boxes(ordered)
    return _link_frames(
        ordered, lambda rows, cols: _block_scores(kernel, boxes[rows], boxes[cols]), gate)


def consistent_motion_pass(preliminary_chains: Sequence[Sequence[Detection]],
                           detections: Sequence[Detection], cfg: TrackerConfig,
                           kernel: SimilarityKernel) -> list[list[Detection]]:
    """Re-run the frame-adjacent association with motion-informed similarity.

    Every preliminary chain is Kalman-filtered forward and backward in one
    `kalman_states` batch, so each detection carries the state accumulated
    along its chain up to it from either side.  Candidates in the next frame
    are compared against the forward prediction of the earlier detection,
    and the earlier box against the backward prediction of the candidate,
    averaging the two kernel values.  Detections with single-entry histories
    predict their own box, which reduces to the static similarity.  Both
    one-frame predictions of every detection are made once per pass; each
    chunk of frame pairs gathers them by index.  Preliminary links are
    discarded; only the second-pass links survive.
    """
    runs = [*preliminary_chains, *(chain[::-1] for chain in preliminary_chains)]
    states = kalman_states(runs, cfg)
    entries = [det for run in runs for det in run]
    half = len(entries) // 2
    fwd = {det.det_id: k for k, det in enumerate(entries[:half])}
    bwd = {det.det_id: k for k, det in enumerate(entries[half:], half)}
    ordered = _frame_order(detections)
    boxes = _boxes(ordered)
    # Both predictions step one frame in their filter's own direction.
    ahead = _advance(states[[fwd[d.det_id] for d in ordered]], 1)
    behind = _advance(states[[bwd[d.det_id] for d in ordered]], 1)

    def score(rows, cols):
        return 0.5 * (_block_scores(kernel, ahead[rows], boxes[cols])
                      + _block_scores(kernel, boxes[rows], behind[cols]))
    return _link_frames(ordered, score, cfg.match_threshold)


def byte_recovery(state: HierarchyState, low_score_detections: Sequence[Detection],
                  kernel: SimilarityKernel, gate: float) -> HierarchyState:
    """Absorb low-confidence detections into temporally adjacent tracklet
    endpoints; leftovers are dropped and never start a trajectory."""
    if not low_score_detections:
        return state
    tracklets = list(state.tracklets)
    next_tid = state.next_tid
    low_by_frame = _by_frame(low_score_detections)
    for t in sorted(low_by_frame):
        lows = low_by_frame[t]
        candidates: list[tuple[int, Detection]] = []  # (tracklet index, endpoint)
        for k, trk in enumerate(tracklets):
            if trk.t_max == t - 1:
                candidates.append((k, trk.last))
            elif trk.t_min == t + 1:
                candidates.append((k, trk.first))
        candidates = [(k, e) for k, e in candidates
                      if tracklets[k].class_id == lows[0].class_id]
        if not candidates:
            continue
        scores = kernel.matrix(_boxes([e for _, e in candidates]), _boxes(lows))
        for i, j in solve(scores, gate):
            k = candidates[i][0]
            extended = list(tracklets[k].entries) + [lows[j]]
            tracklets[k] = Tracklet.build(next_tid, extended)
            next_tid += 1
    return HierarchyState(level=state.level, tracklets=tuple(_ordered(tracklets)),
                          counts=state.counts, next_tid=next_tid)


# ---------------------------------------------------------------------------
# Full pipelines
# ---------------------------------------------------------------------------


def _renumber(detections: Iterable[Detection]) -> list[Detection]:
    """Internal copies with unique sequential det_ids in stable input order."""
    ordered = sorted(detections,
                     key=lambda d: (d.frame, d.det_id, d.box.cx, d.box.cy, d.score))
    return [Detection(d.frame, d.box, d.score, d.class_id, k + 1, d.interpolated)
            for k, d in enumerate(ordered)]


def _adjacent_pairs(runs: Iterable[Sequence[Detection]]
                    ) -> dict[int, list[tuple[Detection, Detection]]]:
    """Frame-adjacent (t, t+1) detection pairs inside each run, keyed by t."""
    pairs: dict[int, list[tuple[Detection, Detection]]] = {}
    for dets in runs:
        for a, b in zip(dets, dets[1:]):
            if b.frame == a.frame + 1:
                pairs.setdefault(a.frame, []).append((a, b))
    return pairs


def _stage_label(index: int, stage: Stage, window: bool) -> str:
    if window:
        return f"level-{index} (window {stage.bound})"
    if stage.overlap:
        return f"level-{index} (gap {stage.bound}, overlap {stage.overlap})"
    return f"level-{index} (gap {stage.bound})"


class _ClassEngine:
    """Runs the full pipeline for the detections or tracklets of one class."""

    def __init__(self, cfg: TrackerConfig, class_id: int):
        self.cfg = cfg
        self.class_id = class_id
        self.kernel = SimilarityKernel(cfg)
        self.window = cfg.schedule.strategy is Strategy.WINDOW
        self.levels: list[LevelTrace] = []
        cache = FitCache(cfg)
        self.score: PairScorer = lambda pairs: pair_scores(pairs, self.kernel, cache)

    def run_detections(self, detections: Sequence[Detection]) -> ClassRunResult:
        cfg = self.cfg
        high = [d for d in detections if d.score >= cfg.score_high]
        low = [d for d in detections
               if cfg.score_low <= d.score < cfg.score_high]
        if not high:
            return self._result(HierarchyState.initial((), 1), None)
        frames = [d.frame for d in detections]

        chains = adjacent_pass(high, self.kernel, cfg.match_threshold)
        profile, (high, low) = self._camera(chains, (min(frames), max(frames)),
                                            [high, low])
        if self.window:  # the window schedule starts from singletons
            chains = [[d] for d in high]
        else:
            if profile is not None and profile.moving:
                chains = adjacent_pass(high, self.kernel, cfg.match_threshold)
            if cfg.enable_cm:
                chains = consistent_motion_pass(chains, high, cfg, self.kernel)

        # `high` is in (frame, det_id) order, which is also the singletons'
        # (t_min, t_max, tid) order.
        self.levels.append(LevelTrace("singletons", len(high),
                                      tuple(((d.frame, d.det_id),) for d in high)))
        state = HierarchyState.initial(
            [Tracklet.build(tid, chain) for tid, chain in enumerate(chains, start=1)],
            next_tid=len(chains) + 1)
        if self.window:
            return self._result(self._stages(state, 0, low), profile)
        # Interval level 1 is the frame-adjacent chaining itself.
        state = dataclasses.replace(state, counts=(len(high),) + state.counts)
        self.levels.append(_snapshot(_stage_label(1, cfg.schedule.stages[0], False),
                                     state.tracklets))
        state = byte_recovery(state, low, self.kernel, cfg.match_threshold)
        if low:
            self.levels.append(_snapshot("low-score recovery", state.tracklets))
        return self._result(self._stages(state, 1), profile)

    def run_tracklets(self, tracklets: Sequence[Tracklet]) -> ClassRunResult:
        """Associate pre-formed tracklets (the recombination mode)."""
        frames = [f for t in tracklets for f in (t.t_min, t.t_max)]
        runs = [t.entries for t in tracklets]
        profile, runs = self._camera(runs, (min(frames), max(frames)), runs)
        work = [Tracklet.build(t.tid, dets) for t, dets in zip(tracklets, runs)]
        state = HierarchyState.initial(work, next_tid=max(t.tid for t in work) + 1)
        self.levels.append(_snapshot("input tracklets", state.tracklets))
        return self._result(self._stages(state, 0), profile)

    def _camera(self, runs: Sequence[Sequence[Detection]], frame_range: tuple[int, int],
                groups: list) -> tuple[Optional[camera_mod.CameraProfile], list]:
        """Estimate camera movement from the frame-adjacent pairs inside
        `runs`; returns the profile (None when disabled) and `groups` of
        detections, stabilized when the camera moves."""
        if not self.cfg.enable_cc:
            return None, groups
        profile = camera_mod.estimate(_adjacent_pairs(runs), self.cfg.cc_threshold,
                                      frame_range)
        if profile.moving:
            groups = [camera_mod.stabilize(g, profile) for g in groups]
        return profile, groups

    def _stages(self, state: HierarchyState, first: int,
                low: Sequence[Detection] = ()) -> HierarchyState:
        """Run the schedule from stage index `first` on, tracing each level;
        `low` detections are absorbed right after the first stage."""
        gate = self.cfg.match_threshold
        for k, stage in enumerate(self.cfg.schedule.stages[first:], start=first + 1):
            if self.window:
                state = window_strategy_pass(state, stage.bound, self.score, gate)
            else:
                state = hierarchy_pass(state, stage.bound, stage.overlap,
                                       self.score, gate)
            if k == 1 and low:
                state = byte_recovery(state, low, self.kernel, gate)
            self.levels.append(_snapshot(_stage_label(k, stage, self.window),
                                         state.tracklets))
        return state

    def _result(self, state: HierarchyState,
                profile: Optional[camera_mod.CameraProfile]) -> ClassRunResult:
        tracklets = state.tracklets
        if profile is not None and profile.moving:
            tracklets = tuple(
                Tracklet.build(t.tid, camera_mod.destabilize(t.entries, profile))
                for t in tracklets)
        return ClassRunResult(self.class_id, tracklets, state.counts,
                              tuple(self.levels), profile)


def _run_per_class(items: Sequence, cfg: TrackerConfig,
                   run_class: Callable[[_ClassEngine, list], ClassRunResult]) -> RunResult:
    """Partition detections or tracklets by class, run one engine per class,
    and number the combined tracks in (t_min, t_max, class) order."""
    by_class: dict[int, list] = {}
    for item in items:
        by_class.setdefault(item.class_id, []).append(item)
    results = []
    for class_id in sorted(by_class):
        result = run_class(_ClassEngine(cfg, class_id), by_class[class_id])
        log.debug("class %d: tracklet counts per level %s", class_id, result.counts)
        results.append(result)
    ranked = sorted([((t.t_min, t.t_max, res.class_id, t.tid), t)
                     for res in results for t in res.tracklets], key=lambda r: r[0])
    trajectories = [from_tracklet(t, track_id=k + 1)
                    for k, (_, t) in enumerate(ranked)]
    return RunResult(trajectories=trajectories, per_class=tuple(results))


def run_detailed(detections: Iterable[Detection], cfg: TrackerConfig) -> RunResult:
    """Track one sequence: BYTE split, camera handling, all hierarchy levels.

    Multi-class input is partitioned and tracked per class; output track ids
    are assigned over the combined result in (t_min, t_max, class) order.
    """
    validate_config(cfg)
    return _run_per_class(_renumber(detections), cfg, _ClassEngine.run_detections)


def run(detections: Iterable[Detection], cfg: TrackerConfig) -> list[Trajectory]:
    return run_detailed(detections, cfg).trajectories


def associate_tracklets(tracklets: Sequence[Tracklet], cfg: TrackerConfig) -> RunResult:
    """Hierarchically associate pre-formed tracklets (recombination mode).

    Camera estimation uses the frame-adjacent pairs inside the input
    tracklets; there is no score partition here — every input detection is
    kept.
    """
    validate_config(cfg)
    # Fitting is memoized by tracklet id, so ids must be unique here.
    fresh = [Tracklet.build(k + 1, list(t.entries)) for k, t in enumerate(_ordered(tracklets))]
    return _run_per_class(fresh, cfg, _ClassEngine.run_tracklets)
