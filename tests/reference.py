"""Per-entry reference versions of the column steps of `refine` and of the
`mot_io` writers: one loop per trajectory entry or output row.  The tests
require the column code to match them bit for bit, on the trajectories that
`trajectories()` draws.  `eval_counts` is the frame-by-frame form of
`metrics.eval_counts`, one IoU block and one CLEAR step per frame.
`scipy_matching` is the square Hungarian form of the ungated
`assignment.solve`, by scipy's `linear_sum_assignment`, and
`unique_optimum` tells whether a matrix has only the one optimum that every
exact solver must then return.  `chains` follows links through a dict,
`resolve_overlap` picks each shared frame's row through a dict, and
`byte_recovery` absorbs low-score rows one tracklet object at a time: the
forms of the engine's chaining, overlap merges and low-score recovery before
its tracklets became one table of arrays.  `plan_chunks` is the block-by-block
loop that planned `assignment`'s padded chunks before one scan per chunk
did."""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable, NamedTuple

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from intertrack.assignment import _TIE_EPS, _tie_bias, solve
from intertrack.geometry import iou_kernel
from intertrack.metrics import EvalCounts
from intertrack.model import BoundingBox, BoxTable, Detection, Trajectory, stack_boxes
from intertrack.mot_io import KITTI_CLASSES


# Large finite stand-in for -inf inside the padded solve (scipy rejects
# matrices that make every complete assignment infeasible).
_BIG = 1.0e6


def scipy_matching(scores: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-total-weight partial matching of a rectangular matrix.

    Entries of -inf (or NaN) are inadmissible.  Leaving a row or column
    unmatched costs nothing, so only pairs that raise the total are taken.
    Implemented as a square (n+m)x(n+m) assignment where each row and column
    owns a zero-weight dummy partner.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n, m = scores.shape
    if n == 0 or m == 0:
        return []
    admissible = np.isfinite(scores)
    size = n + m
    padded = np.full((size, size), -_BIG)
    padded[:n, :m] = np.where(admissible, scores, -_BIG)
    padded[np.arange(n), m + np.arange(n)] = 0.0
    padded[n + np.arange(m), np.arange(m)] = 0.0
    padded[n:, m:] = 0.0
    # Nudge real entries toward lexicographically small (row, col) choices
    # among equal-total optima.
    padded[:n, :m] -= _tie_bias(n, m, size)
    rows, cols = linear_sum_assignment(padded, maximize=True)
    out = []
    for i, j in zip(rows, cols):
        if i < n and j < m and admissible[i, j]:
            out.append((int(i), int(j)))
    out.sort()
    return out


def unique_optimum(scores: np.ndarray) -> bool:
    """Whether `scipy_matching(scores)` is the only partial matching of
    its biased total (scores less the tie bias).

    Any other optimum either leaves out one of its pairs, and then the
    optimum with that pair made inadmissible reaches the same total, or
    holds all of its pairs and more, each joining a row and a column it
    leaves unmatched at a biased score of 0.  Totals closer than a quarter
    of the tie bias's smallest step count as equal."""
    scores = np.asarray(scores, dtype=np.float64)
    n, m = scores.shape
    if n == 0 or m == 0:
        return True
    biased = np.where(np.isfinite(scores), scores - _tie_bias(n, m, n + m), -np.inf)
    tol = _TIE_EPS / (4 * (n + m) ** 2)
    best = scipy_matching(scores)
    total = math.fsum(biased[i, j] for i, j in best)
    for i, j in best:
        without = scores.copy()
        without[i, j] = -np.inf
        if math.fsum(biased[p] for p in scipy_matching(without)) > total - tol:
            return False
    rows = np.setdiff1d(np.arange(n), [i for i, _ in best])
    cols = np.setdiff1d(np.arange(m), [j for _, j in best])
    return not (np.abs(biased[np.ix_(rows, cols)]) <= tol).any()


def plan_chunks(n: list[int], m: list[int], cells: int) -> list[list[int]]:
    """Indices of blocks of the given (n, m) shapes, sorted by shape, put
    greedily into chunks: a block joins the current chunk while the chunk's
    padded cell count, blocks x largest n x largest m, stays within
    `cells`, and starts a new one otherwise."""
    chunks: list[list[int]] = []
    n_max = m_max = 0
    for k in sorted(range(len(n)), key=lambda k: (n[k], m[k])):
        if chunks and (len(chunks[-1]) + 1) * max(n_max, n[k]) * max(m_max, m[k]) <= cells:
            chunks[-1].append(k)
            n_max, m_max = max(n_max, n[k]), max(m_max, m[k])
        else:
            chunks.append([k])
            n_max, m_max = n[k], m[k]
    return chunks


def chains(link: dict[int, int], nodes: Iterable[int]) -> list[list[int]]:
    """Follow the links (earlier -> later) from each of `nodes` that no link
    points to; one chain per such node, in the order of `nodes`."""
    has_pred = set(link.values())
    out = []
    for start in nodes:
        if start in has_pred:
            continue
        chain = [start]
        while chain[-1] in link:
            chain.append(link[chain[-1]])
        out.append(chain)
    return out


def resolve_overlap(table: BoxTable, a: np.ndarray, b: np.ndarray,
                    max_overlap: int = 5) -> np.ndarray:
    """`hierarchy.resolve_overlap` one shared frame at a time, through a dict
    of each frame's chosen row."""
    frame = table.frame
    if frame[b[0]] < frame[a[0]]:
        a, b = b, a
    overlap = int(frame[a[-1]] - frame[b[0]]) + 1
    if overlap > max_overlap:
        raise ValueError(f"tracklets overlap by {overlap} frames (allowed {max_overlap})")
    if overlap <= 0:
        return np.concatenate([a, b])
    chosen = dict(zip(frame[a].tolist(), a.tolist()))
    score = table.score
    same_start = frame[a[0]] == frame[b[0]]

    def tie_key(row: int) -> tuple:
        return (*table.boxes[row].tolist(), table.id[row])
    for f, row in zip(frame[b].tolist(), b.tolist()):
        rival = chosen.get(f)
        if (rival is None or score[row] > score[rival]
                or (score[row] == score[rival] and same_start
                    and tie_key(row) < tie_key(rival))):
            chosen[f] = row
    return np.array(sorted(chosen.values()))


class TrackletRows(NamedTuple):
    """A tracklet as one object: its id, the frame-sorted array of its rows
    of a table, and its t_min/t_max."""
    tid: int
    rows: np.ndarray
    t_min: int
    t_max: int


def byte_recovery(table: BoxTable, tracklets: list[TrackletRows], next_tid: int,
                  low: np.ndarray, kernel, gate: float) -> list[TrackletRows]:
    """`hierarchy.byte_recovery` over tracklet objects, in (t_min, t_max,
    tid) order: per frame of low rows, a loop over every tracklet for the
    endpoints next to that frame, one `solve` of their boxes against the
    frame's low rows, and a new tracklet object with a new tid per match."""
    tracklets = list(tracklets)
    ts, first, size = np.unique(table.frame[low], return_index=True, return_counts=True)
    for t, start, n in zip(ts.tolist(), first.tolist(), size.tolist()):
        lows = low[start:start + n]
        candidates = []  # (tracklet index, endpoint row)
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
            tracklets[k] = TrackletRows(next_tid, rows, int(table.frame[rows[0]]),
                                        int(table.frame[rows[-1]]))
            next_tid += 1
    return sorted(tracklets, key=lambda t: (t.t_min, t.t_max, t.tid))


def split_runs(trajectories):
    """Each trajectory, in track_id order (ties in input order), cut into its
    maximal runs of consecutive frames of one class: one entry list per run."""
    runs = []
    for traj in sorted(trajectories, key=lambda t: t.track_id):
        run = []
        for det in traj.entries:
            if run and (det.frame != run[-1].frame + 1 or det.class_id != run[-1].class_id):
                runs.append(run)
                run = []
            run.append(det)
        runs.append(run)
    return runs


def interpolate_track(trajectory, max_gap):
    if max_gap <= 0 or len(trajectory) < 2:
        return trajectory
    out = [trajectory.entries[0]]
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
                    class_id=prev.class_id, det_id=-1))
        out.append(nxt)
    return Trajectory(track_id=trajectory.track_id, entries=tuple(out))


def smooth_track(trajectory, sigma):
    """Each run of consecutive frames of the trajectory smoothed on its own."""
    radius = int(np.ceil(2 * sigma))
    if sigma <= 0 or radius == 0:
        return trajectory
    base = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    entries, run = [], []
    for e in (*trajectory.entries, None):
        if run and (e is None or e.frame != run[-1].frame + 1):
            entries += _smooth_run(run, base, radius)
            run = []
        run.append(e)
    return Trajectory(track_id=trajectory.track_id, entries=tuple(entries))


def _smooth_run(run, base, radius):
    n = len(run)
    if n < 2:
        return run
    values = stack_boxes(e.box for e in run)
    smoothed = np.empty_like(values)
    for i in range(n):
        lo = max(0, i - radius)
        hi = min(n, i + radius + 1)
        w = base[lo - i + radius:hi - i + radius]
        smoothed[i] = (w[:, None] * values[lo:hi]).sum(axis=0) / w.sum()
    return [dataclasses.replace(e, box=BoundingBox(row[0], row[1], max(row[2], 1.0),
                                                   max(row[3], 1.0)))
            for e, row in zip(run, smoothed)]


def eval_counts(gt: BoxTable, pred: BoxTable, iou_threshold: float,
                match: Callable[[np.ndarray], list[tuple[int, int]]] = scipy_matching,
                ) -> tuple[EvalCounts, bool]:
    """CLEAR and identity counts of one sequence, in one walk over its frames
    with `match` as the solver, and whether some frame's optimal step had
    more than one optimum (`unique_optimum`).

    Raises ValueError unless 0 < iou_threshold <= 1 (NaN included).

    After such a tie the counts may depend on the solver: the tie bias does
    not order the matchings of one set of rows onto one set of columns
    (their biases sum alike), identity switches follow the pick, and so do
    the correspondences that later frames keep alive.  Only idtp, len_gt
    and len_pred never do."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    gt_ids, gt_of = np.unique(gt.id, return_inverse=True)
    pred_ids, pred_of = np.unique(pred.id, return_inverse=True)
    potential = np.zeros((gt_ids.size, pred_ids.size))
    last_hyp = np.full(gt_ids.size, -1)
    frames = np.union1d(gt.frame, pred.frame)
    # Row ranges of each frame: [g0, g1) in gt, [p0, p1) in pred.
    bounds = [np.searchsorted(tracks.frame, frames, side).tolist()
              for tracks in (gt, pred) for side in ("left", "right")]
    fp = fn = idsw = 0
    tied = False
    for g0, g1, p0, p1 in zip(*bounds):
        n, m = g1 - g0, p1 - p0
        matched = 0
        if n and m:
            gi, pj = gt_of[g0:g1], pred_of[p0:p1]
            overlap = iou_kernel(gt.boxes[g0:g1, None], pred.boxes[None, p0:p1])
            hit = overlap >= iou_threshold
            np.add.at(potential, (gi[:, None], pj), hit)
            # Keep alive each correspondence that still overlaps; a prediction
            # claimed by several gt tracks stays with the lowest gt id.
            hyp = last_hyp[gi]
            col = np.minimum(np.searchsorted(pj, hyp), m - 1)
            alive = np.flatnonzero((pj[col] == hyp) & hit[np.arange(n), col])
            owner = np.full(m, n)  # per prediction: the gt row keeping it, n if none
            np.minimum.at(owner, col[alive], alive)
            kept = owner < n
            # The optimal step matches the gt rows and predictions left over.
            rows = np.flatnonzero(np.bincount(owner[kept], minlength=n) == 0)
            cols = np.flatnonzero(~kept)
            matched = int(kept.sum())
            block = np.where(hit, overlap, -np.inf)[np.ix_(rows, cols)]
            tied = tied or not unique_optimum(block)
            for i, j in match(block) if np.isfinite(block).any() else ():
                g, p = gi[rows[i]], pj[cols[j]]
                idsw += bool(last_hyp[g] >= 0 and last_hyp[g] != p)
                last_hyp[g] = p
                matched += 1
        fn += n - matched
        fp += m - matched
    admissible = np.where(potential > 0, potential, -np.inf)
    idtp = int(sum(potential[i, j] for i, j in match(admissible)))
    return EvalCounts(fp=fp, fn=fn, idsw=idsw, idtp=idtp,
                      len_gt=gt.frame.size, len_pred=pred.frame.size), tied



def _mot_row(frame, track_id, box, score):
    left, top, w, h = box.cx - box.w / 2, box.cy - box.h / 2, box.w, box.h
    return (f"{frame},{track_id},{left:.6f},{top:.6f},{w:.6f},{h:.6f},"
            f"{score:.6f},-1,-1,-1\n")


def write_mot_results(trajectories, path):
    rows = [(e.frame, t.track_id, e.box, e.score)
            for t in trajectories for e in t.entries]
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for frame, tid, box, score in rows:
            fh.write(_mot_row(frame, tid, box, score))


def write_mot_detections(detections, path):
    rows = sorted(detections, key=lambda d: (d.frame, d.det_id))
    with open(path, "w", encoding="utf-8") as fh:
        for det in rows:
            fh.write(_mot_row(det.frame, -1, det.box, det.score))


def write_kitti(trajectories, path):
    rows = []
    for t in trajectories:
        for e in t.entries:
            rows.append((e.frame - 1, t.track_id, KITTI_CLASSES[e.class_id], e.box, e.score))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for frame, tid, cls, box, score in rows:
            x1, y1, x2, y2 = (box.cx - box.w / 2, box.cy - box.h / 2, box.cx + box.w / 2,
                              box.cy + box.h / 2)
            fh.write(f"{frame} {tid} {cls} -1 -1 -10 "
                     f"{x1:.6f} {y1:.6f} {x2:.6f} {y2:.6f} "
                     f"-1000 -1000 -1000 -1000 -1000 -1000 -10 {score:.6f}\n")


# Frame steps of 1 (no gap) up to 8 (7 missing frames), so that gaps fall on
# both sides of a drawn max_gap; boxes reach negative lefts and tops.
_STEPS = st.sampled_from([1, 1, 1, 2, 3, 4, 8])
_COORDS = st.floats(-60.0, 400.0, allow_nan=False)
_SIZES = st.floats(0.25, 120.0)


@st.composite
def trajectories(draw, classes=(0,), max_tracks=4, unique_ids=True):
    """Trajectories with ids in increasing order when `unique_ids`, else ids
    drawn from 1..3; one to 12 entries each, of the given classes, det_ids
    1..N over all entries."""
    out = []
    det_id = 0
    for k in range(draw(st.integers(0, max_tracks))):
        n = draw(st.integers(1, 12))
        frame = draw(st.integers(1, 5))
        entries = []
        for i in range(n):
            frame += draw(_STEPS) if i else 0
            det_id += 1
            box = BoundingBox(draw(_COORDS), draw(_COORDS), draw(_SIZES), draw(_SIZES))
            entries.append(Detection(frame, box, draw(st.floats(0.0, 1.0)),
                                     draw(st.sampled_from(classes)), det_id))
        out.append(Trajectory(k + 1 if unique_ids else draw(st.integers(1, 3)),
                              tuple(entries)))
    return out
