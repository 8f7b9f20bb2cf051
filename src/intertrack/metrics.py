"""Tracking evaluation on columns: CLEAR accuracy and identity metrics.

`eval_counts` scores two (frame, id)-sorted `BoxTable`s, ground truth and
prediction, `id` the track id.  A gt row and a prediction in one frame hit
when their IoU reaches the threshold.  CLEAR goes frame by frame: a
correspondence persists while it is still a hit (gt tracks in id order, each
prediction kept once), the rest is matched optimally over the hits, and a gt
track whose hypothesis changes counts an identity switch.  Identity: each hit
adds one to its (gt, pred) track pair's potential, and one global one-to-one
assignment on it gives IDTP, behind IDF1/IDP/IDR.

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

The public functions take tables in any row order and sort them; sequences
pool by summing their counts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .assignment import distinct, overlap_cells, solve_pairs
from .geometry import extents, iou_kernel
from .model import BoxTable

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


def eval_counts(gt: BoxTable, pred: BoxTable, iou_threshold: float) -> EvalCounts:
    """CLEAR and identity counts of one sequence, all frames scored at once.

    Raises ValueError unless 0 < iou_threshold <= 1 (NaN included).  Logs, at
    INFO, the sequence's frames, candidates, and forced and conflict frames."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    gt_ids, gt_of = np.unique(gt.id, return_inverse=True)
    pred_ids, pred_of = np.unique(pred.id, return_inverse=True)
    frames, frame_of = distinct(np.concatenate([gt.frame, pred.frame]))
    # Every hit as (gt row, pred row, IoU).
    r, c, iou, candidates = overlap_cells(
        *np.split(frame_of, [gt.frame.size]), extents(gt.boxes), extents(pred.boxes),
        lambda r, c: iou_kernel(gt.boxes[r], pred.boxes[c]), lambda iou: iou >= iou_threshold)
    order = np.argsort(r * pred.frame.size + c)  # gt row order, so frame order
    t, r, c, iou = frame_of[r[order]], r[order], c[order], iou[order]  # gt rows lead frame_of
    g, p = gt_of[r], pred_of[c]
    conflict = np.zeros(frames.size, bool)
    for ids, size in ((g, gt_ids.size), (p, pred_ids.size)):
        key, count = np.unique(t * size + ids, return_counts=True)
        conflict[key[count > 1] // size] = True
    forced = ~conflict[t]
    # A gt track's hypothesis lives on its pred track's first row in a frame.
    lead = np.r_[True, (pred.frame[1:] != pred.frame[:-1]) | (pred_of[1:] != pred_of[:-1])][c]
    matches = [(t[forced], g[forced], p[forced])]
    forced_t, forced_g, forced_p = matches[0]
    # Conflict frames in frame order, each after the forced matches before it.
    last_hyp = np.full(gt_ids.size, -1)
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
    idsw = int(np.count_nonzero((mg[1:] == mg[:-1]) & (mp[1:] != mp[:-1])))
    n_conflict = int(conflict.sum())
    log.info("eval: %d frames, %d candidate pairs, %d forced, %d conflict frames stepped",
             frames.size, candidates, frames.size - n_conflict, n_conflict)
    # Each (gt, pred) track pair's potential: its number of hits.
    pair, potential = np.unique(g * pred_ids.size + p, return_counts=True)
    found = solve_pairs(pair // pred_ids.size, pair % pred_ids.size, potential.astype(float), 1.0)
    idtp = int(potential[np.searchsorted(pair, found.a * pred_ids.size + found.b)].sum())
    return EvalCounts(fp=pred.frame.size - mg.size, fn=gt.frame.size - mg.size, idsw=idsw,
                      idtp=idtp, len_gt=gt.frame.size, len_pred=pred.frame.size)


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


def _report(counts: EvalCounts, per_sequence: dict | None = None) -> EvalReport:
    fp, fn, idsw, idtp, len_gt, len_pred = counts
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
    return _report(eval_counts(frame_sorted(gt), frame_sorted(pred), iou_threshold))


def evaluate_sequences(pairs: Mapping[str, tuple[BoxTable, BoxTable]],
                       iou_threshold: float = 0.5) -> EvalReport:
    """Aggregate evaluation over named sequences (counts pooled, not averaged)."""
    counts = {name: eval_counts(frame_sorted(gt), frame_sorted(pred), iou_threshold)
              for name, (gt, pred) in pairs.items()}
    pooled = EvalCounts(*map(sum, zip(*counts.values())))
    return _report(pooled, {name: _report(c) for name, c in counts.items()})


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
