"""Tracking evaluation on columns: CLEAR accuracy and identity metrics.

`eval_counts` walks the frames of two (frame, id)-sorted `BoxTable`s (ground
truth and prediction, `id` the track id) once and scores each frame's gt x
pred IoU block with one kernel call; a pair overlaps when its IoU reaches
the threshold.  The block serves both metrics.  CLEAR: a correspondence
persists while it still overlaps (gt tracks in id order, each prediction
kept once), the rest is matched optimally, and a gt track whose hypothesis
changes counts an identity switch.  Identity: each overlapping pair adds one
to its (gt, pred) track pair's potential; one global one-to-one assignment
on it gives IDTP, behind IDF1/IDP/IDR.  The public functions take tables in
any row order, or Trajectory lists, and sort them; sequences pool by summing
their counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Union

import numpy as np

from .assignment import max_weight_matching
from .geometry import iou_kernel
from .model import BoxTable, Trajectory, tracks_table

Tracks = Union[BoxTable, Iterable[Trajectory]]


class ClearMot(NamedTuple):
    mota: float
    fp: int
    fn: int
    idsw: int


class IdMetrics(NamedTuple):
    idf1: float
    idp: float
    idr: float


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
    """CLEAR and identity counts of one sequence, in one walk over its frames.

    Raises ValueError unless 0 < iou_threshold <= 1 (NaN included)."""
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
            for i, j in max_weight_matching(block) if np.isfinite(block).any() else ():
                g, p = gi[rows[i]], pj[cols[j]]
                idsw += bool(last_hyp[g] >= 0 and last_hyp[g] != p)
                last_hyp[g] = p
                matched += 1
        fn += n - matched
        fp += m - matched
    admissible = np.where(potential > 0, potential, -np.inf)
    idtp = int(sum(potential[i, j] for i, j in max_weight_matching(admissible)))
    return EvalCounts(fp=fp, fn=fn, idsw=idsw, idtp=idtp,
                      len_gt=gt.frame.size, len_pred=pred.frame.size)


def frame_sorted(tracks: Tracks) -> BoxTable:
    """The table of `tracks` with its rows sorted stably by (frame, id);
    trajectories sharing a track_id are one identity."""
    table = tracks if isinstance(tracks, BoxTable) else tracks_table(tracks)
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


def evaluate(gt: Tracks, pred: Tracks, iou_threshold: float = 0.5) -> EvalReport:
    return _report(eval_counts(frame_sorted(gt), frame_sorted(pred), iou_threshold))


def clear_mot(gt: Tracks, pred: Tracks, iou_threshold: float = 0.5) -> ClearMot:
    report = evaluate(gt, pred, iou_threshold)
    return ClearMot(mota=report.mota, fp=report.fp, fn=report.fn, idsw=report.idsw)


def id_metrics(gt: Tracks, pred: Tracks, iou_threshold: float = 0.5) -> IdMetrics:
    report = evaluate(gt, pred, iou_threshold)
    return IdMetrics(idf1=report.idf1, idp=report.idp, idr=report.idr)


def evaluate_sequences(pairs: Mapping[str, tuple[Tracks, Tracks]],
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
