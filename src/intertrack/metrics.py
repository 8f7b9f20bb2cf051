"""Tracking evaluation on columns: CLEAR accuracy and identity metrics.

`sequence_counts` scores pairs of `BoxTable`s, ground truth and prediction,
`id` the track id.  A gt row and a prediction in one frame hit when they
share a class and their IoU reaches the threshold, so a match never crosses
classes (KITTI and TrackEval score Car and Pedestrian apart; here the
classes' counts pool).  CLEAR goes frame by frame: a correspondence persists
while it is still a hit (gt tracks in id order, each prediction kept once),
the rest is matched optimally over the hits, and a gt track whose hypothesis
changes counts an identity switch.  Identity: each hit adds one to its (gt,
pred) track pair's potential, and one global one-to-one assignment on it
gives IDTP, behind IDF1/IDP/IDR.

The hits, as (gt row, pred row, IoU), come from one `assignment.overlap_cells`
sweep over the gt and pred rows of each frame whose extents overlap, since
a hit's IoU is above 0.  Call a frame forced when no gt track and
no prediction track has two hits in it.  In a forced frame the hits are a
one-to-one matching: the keep-alive step keeps only hits, and the optimal
step then takes every hit left, since each adds an IoU at or above the
threshold, which is above 0, and none shares a row or column with another.
So a forced frame's matches are exactly its hits, whatever came before — the
rule TrackEval's CLEAR relies on.  Only the other, conflict frames run the
step on their hits, in frame order, each from the last match of every gt
track before it.  Every matching, a step's (gated at the IoU threshold) and
IDTP's, is one `assignment.solve_pairs` call on hits, so no gt x pred matrix
is built.  The identity switches are the changes in each gt track's sequence
of matched predictions.

Sequences are segments of one batch's frame axis, as in `hierarchy.run_tables`:
`sequence_counts` lays every (gt, pred) pair out in one table per side,
sorted by (sequence, frame, id), and ranks frames and track ids within
their sequence, so that no two sequences share a frame or a track, whatever
ids they reuse, and no key grows with the ids' values.  One sweep, one
conflict-frame loop and one IDTP `solve_pairs` call then serve the batch:
no hit, frame or matching component spans two sequences, so each
sequence's counts are those it gets alone.  Each sequence's counts, and its
INFO line, are tallies over the sequence of each row, track, frame and
scored candidate.  The public functions take tables in any row order;
sequences pool by summing their counts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .assignment import distinct, overlap_cells, solve_pairs
from .geometry import extents, iou_kernel
from .model import BoxTable, table_of

log = logging.getLogger(__name__)


class EvalCounts(NamedTuple):
    """What one sequence contributes to the pooled metrics."""
    fp: int = 0
    fn: int = 0
    idsw: int = 0
    idtp: int = 0
    len_gt: int = 0
    len_pred: int = 0


@dataclass(frozen=True)
class EvalReport:
    mota: float
    idf1: float
    idp: float
    idr: float
    fp: int
    fn: int
    idsw: int
    gt_count: int
    per_sequence: dict = field(default_factory=dict)


def sequence_counts(pairs: Sequence[tuple[BoxTable, BoxTable]],
                    iou_threshold: float) -> list[EvalCounts]:
    """The CLEAR and identity counts of each (gt, pred) pair of tables, in
    any row order, the sequences laid out as one batch and all their frames
    scored at once.

    Raises ValueError unless 0 < iou_threshold <= 1 (NaN included).  Logs, at
    INFO, each sequence's frames, candidates, and forced and conflict frames."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    sequences = len(pairs)
    (gt, gt_seq), (pred, pred_seq) = (_laid_out([pair[side] for pair in pairs])
                                      for side in (0, 1))
    # Frames and track ids are ranked within their sequence, so no two
    # sequences share one.
    gt_track_seq, gt_of = _by_sequence(gt_seq, sequences, *np.unique(gt.id, return_inverse=True))
    pred_track_seq, pred_of = _by_sequence(pred_seq, sequences,
                                           *np.unique(pred.id, return_inverse=True))
    frame_seq, frame_of = _by_sequence(np.concatenate([gt_seq, pred_seq]), sequences,
                                       *distinct(np.concatenate([gt.frame, pred.frame])))
    candidates = np.zeros(sequences, np.intp)

    def score(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        candidates[:] += np.bincount(gt_seq[r], minlength=sequences) if sequences > 1 else r.size
        # A pair of two classes scores 0, below every threshold: no hit.
        return iou_kernel(gt.boxes[r], pred.boxes[c]) * (gt.class_id[r] == pred.class_id[c])

    # Every hit as (gt row, pred row, IoU).
    r, c, iou, _ = overlap_cells(
        *np.split(frame_of, [gt.frame.size]), extents(gt.boxes), extents(pred.boxes),
        score, lambda iou: iou >= iou_threshold)
    order = np.argsort(r * pred.frame.size + c)  # gt row order, so frame order
    t, r, c, iou = frame_of[r[order]], r[order], c[order], iou[order]  # gt rows lead frame_of
    g, p = gt_of[r], pred_of[c]
    conflict = np.zeros(frame_seq.size, bool)
    # The hits are in gt row order, so a gt track's hits in a frame are adjacent.
    conflict[t[1:][(t[1:] == t[:-1]) & (g[1:] == g[:-1])]] = True
    key, count = np.unique(t * pred_track_seq.size + p, return_counts=True)
    conflict[key[count > 1] // pred_track_seq.size] = True
    forced = ~conflict[t]
    # A gt track's hypothesis lives on its pred track's first row in a frame.
    lead = np.r_[True, (pred.frame[1:] != pred.frame[:-1]) | (pred_of[1:] != pred_of[:-1])][c]
    matches = [(t[forced], g[forced], p[forced])]
    forced_t, forced_g, forced_p = matches[0]
    # Conflict frames in frame order, each after the forced matches before it.
    last_hyp = np.full(gt_track_seq.size, -1)
    done = 0
    for f in np.flatnonzero(conflict).tolist():
        upto = np.searchsorted(forced_t, f)
        _remember(last_hyp, forced_g[done:upto], forced_p[done:upto])
        done = upto
        lo, hi = np.searchsorted(t, [f, f + 1])
        k = lo + _step(r[lo:hi], c[lo:hi], iou[lo:hi], g[lo:hi], p[lo:hi], lead[lo:hi],
                       last_hyp, iou_threshold)
        matches.append((t[k], g[k], p[k]))
    mt, mg, mp = (np.concatenate(x) for x in zip(*matches))
    # A gt track's matches in frame order; a frame's own matches keep their order.
    order = np.lexsort((mt, mg))
    mg, mp = mg[order], mp[order]
    switched = mg[1:][(mg[1:] == mg[:-1]) & (mp[1:] != mp[:-1])]
    # Each (gt, pred) track pair's potential: its number of hits.
    pair, potential = np.unique(g * pred_track_seq.size + p, return_counts=True)
    found = solve_pairs(pair // pred_track_seq.size, pair % pred_track_seq.size,
                        potential.astype(float), 1.0)
    idtp = potential[np.searchsorted(pair, found.a * pred_track_seq.size + found.b)]
    # Per sequence: gt rows, pred rows, matches, switches, frames and conflict
    # frames, each counted on its items' sequences, which run in order, and IDTP.
    len_gt, len_pred, matched, idsw, frames, conflicts = (
        np.diff(np.searchsorted(seq, np.arange(sequences + 1))).tolist() for seq in (
            gt_seq, pred_seq, gt_track_seq[mg], gt_track_seq[switched], frame_seq,
            frame_seq[conflict]))
    idtp = np.bincount(gt_track_seq[found.a], idtp, sequences).astype(np.int64).tolist()
    for k in range(sequences):
        log.info("eval: %d frames, %d candidate pairs, %d forced, %d conflict frames stepped",
                 frames[k], candidates[k], frames[k] - conflicts[k], conflicts[k])
    return [EvalCounts(fp=n_pred - m, fn=n_gt - m, idsw=sw, idtp=tp, len_gt=n_gt, len_pred=n_pred)
            for n_gt, n_pred, m, sw, tp in zip(len_gt, len_pred, matched, idsw, idtp)]


def _laid_out(tables: list[BoxTable]) -> tuple[BoxTable, np.ndarray]:
    """The rows of `tables` as one table sorted by (table, frame, id), and
    each row's table."""
    seq = np.repeat(np.arange(len(tables)), [t.frame.size for t in tables])
    # Each table sorts alone: cheaper than one lexsort with the table as a key.
    tables = [frame_sorted(t) for t in tables] or [table_of([])]
    return tables[0] if len(tables) == 1 else BoxTable(*map(np.concatenate, zip(*tables))), seq


def _by_sequence(seq: np.ndarray, sequences: int, values: np.ndarray, rank: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The ranks of `values`, as `np.unique` gives them, of rows in sequences
    `seq`, made ranks of the distinct (sequence, value) pairs in that order:
    each rank's sequence and each row's rank.  A batch of one keeps them."""
    if sequences == 1:
        return np.zeros(values.size, np.intp), rank
    # Below sequences x rows, so the keys cannot overflow.
    key, rank = distinct(seq * values.size + rank)
    return key // values.size, rank


def _remember(last_hyp: np.ndarray, g: np.ndarray, p: np.ndarray) -> None:
    """last_hyp[g[k]] = p[k] for k in order, so a repeated g keeps its last p."""
    g, p = g[::-1], p[::-1]
    tracks, last = np.unique(g, return_index=True)
    last_hyp[tracks] = p[last]


def _step(r: np.ndarray, c: np.ndarray, iou: np.ndarray, g: np.ndarray, p: np.ndarray,
          lead: np.ndarray, last_hyp: np.ndarray, gate: float) -> np.ndarray:
    """The CLEAR matching of one frame on its hits in (r, c) order: gt row
    r[k], of gt track g[k], hits pred row c[k], of pred track p[k] and its
    first row in the frame where lead[k], at IoU iou[k].  Returns the matched
    hits' indices, the kept-alive ones first, and updates `last_hyp`."""
    # The nodes are rows, not tracks: a gt track may hold two rows in a frame.
    # Keep alive each hit on its gt track's last hypothesis; a pred row
    # claimed by several gt rows stays with the first.
    alive = np.flatnonzero((last_hyp[g] == p) & lead)
    kept = alive[np.unique(c[alive], return_index=True)[1]]
    # The optimal step matches the gt rows and pred rows left over.
    free = np.flatnonzero(~np.isin(r, r[kept]) & ~np.isin(c, c[kept]))
    found = solve_pairs(r[free], c[free], iou[free], gate)
    # Each match's hit, by its (r, c) key: the hits are in (r, c) order.
    width = c.max() + 1
    stepped = free[np.searchsorted(r[free] * width + c[free], found.a * width + found.b)]
    _remember(last_hyp, g[stepped], p[stepped])
    return np.concatenate([kept, stepped])


def frame_sorted(table: BoxTable) -> BoxTable:
    """`table` with its rows sorted stably by (frame, id)."""
    return table.take(np.lexsort((table.id, table.frame)))


def _report(counts: Sequence[EvalCounts], per_sequence: dict | None = None) -> EvalReport:
    """The metrics of `counts` pooled."""
    fp, fn, idsw, idtp, len_gt, len_pred = EvalCounts(*map(sum, zip(*counts)))
    denom = len_gt + len_pred
    return EvalReport(
        mota=1.0 - (fp + fn + idsw) / max(len_gt, 1),
        idf1=2 * idtp / denom if denom else 1.0,
        idp=idtp / len_pred if len_pred else 0.0,
        idr=idtp / len_gt if len_gt else 0.0,
        fp=fp, fn=fn, idsw=idsw, gt_count=len_gt,
        per_sequence=per_sequence or {})


def evaluate(gt: BoxTable, pred: BoxTable, iou_threshold: float = 0.5) -> EvalReport:
    """Score `pred` against `gt`, each a table whose `id` is the track id."""
    return _report(sequence_counts([(gt, pred)], iou_threshold))


def evaluate_sequences(pairs: Mapping[str, tuple[BoxTable, BoxTable]],
                       iou_threshold: float = 0.5) -> EvalReport:
    """Aggregate evaluation over named sequences (counts pooled, not averaged)."""
    counts = sequence_counts(list(pairs.values()), iou_threshold)
    return _report(counts, {name: _report([c]) for name, c in zip(pairs, counts)})


def format_report(report: EvalReport) -> str:
    """Aligned human-readable rendering of an EvalReport."""
    rows = [("MOTA", f"{report.mota:.4f}"), ("IDF1", f"{report.idf1:.4f}"),
            ("IDP", f"{report.idp:.4f}"), ("IDR", f"{report.idr:.4f}"),
            ("FP", str(report.fp)), ("FN", str(report.fn)),
            ("IDSW", str(report.idsw)), ("GT", str(report.gt_count))]
    width = max(len(k) for k, _ in rows)
    lines = [f"{k:<{width}}  {v}" for k, v in rows]
    for name, sub in report.per_sequence.items():
        lines.append(f"-- {name}: MOTA {sub.mota:.4f}  IDF1 {sub.idf1:.4f}  "
                     f"IDSW {sub.idsw}")
    return "\n".join(lines)


def report_kv_lines(report: EvalReport) -> list[str]:
    """Machine-readable key=value lines."""
    out = [f"mota={report.mota:.6f}", f"idf1={report.idf1:.6f}",
           f"idp={report.idp:.6f}", f"idr={report.idr:.6f}",
           f"fp={report.fp}", f"fn={report.fn}", f"idsw={report.idsw}",
           f"gt_count={report.gt_count}"]
    for name, sub in report.per_sequence.items():
        out.append(f"seq.{name}.mota={sub.mota:.6f}")
        out.append(f"seq.{name}.idf1={sub.idf1:.6f}")
        out.append(f"seq.{name}.idsw={sub.idsw}")
    return out
