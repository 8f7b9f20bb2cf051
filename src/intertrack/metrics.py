"""Desk-scale tracking evaluation: CLEAR accuracy and identity metrics.

clear_mot follows the CLEAR protocol: correspondences persist while both
sides keep overlapping, the remainder is matched optimally per frame, and an
identity switch is counted whenever a ground-truth track's hypothesis
differs from its last known one.  id_metrics performs the global
identity assignment (one hypothesis per ground-truth track for the whole
sequence) behind IDF1/IDP/IDR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .assignment import max_weight_matching
from .geometry import iou_kernel, stack_boxes
from .refine import Trajectory


class ClearMot(NamedTuple):
    mota: float
    fp: int
    fn: int
    idsw: int


class IdMetrics(NamedTuple):
    idf1: float
    idp: float
    idr: float


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


def _frame_index(tracks: Iterable[Trajectory]) -> dict[int, list[tuple[int, object]]]:
    index: dict[int, list[tuple[int, object]]] = {}
    for t in tracks:
        for e in t.entries:
            index.setdefault(e.frame, []).append((t.track_id, e.box))
    for frame in index:
        index[frame].sort(key=lambda pair: pair[0])
    return index


def _clear_counts(gt, pred, iou_threshold):
    gt_idx = _frame_index(gt)
    pred_idx = _frame_index(pred)
    fp = fn = idsw = 0
    gt_count = sum(len(entries) for entries in gt_idx.values())
    last_hyp: dict[int, int] = {}
    for frame in sorted(set(gt_idx) | set(pred_idx)):
        gts = gt_idx.get(frame, [])
        preds = pred_idx.get(frame, [])
        pred_boxes = {pid: box for pid, box in preds}
        taken_g: set[int] = set()
        taken_p: set[int] = set()
        matches: list[tuple[int, int]] = []
        # Keep alive any correspondence that still overlaps.
        alive = [(gid, box, last_hyp[gid]) for gid, box in gts
                 if last_hyp.get(gid) in pred_boxes]
        overlaps = iou_kernel(stack_boxes([box for _, box, _ in alive]),
                              stack_boxes([pred_boxes[pid] for _, _, pid in alive]))
        for (gid, _, pid), overlap in zip(alive, overlaps):
            if pid not in taken_p and overlap >= iou_threshold:
                matches.append((gid, pid))
                taken_g.add(gid)
                taken_p.add(pid)
        rest_g = [(gid, box) for gid, box in gts if gid not in taken_g]
        rest_p = [(pid, box) for pid, box in preds if pid not in taken_p]
        if rest_g and rest_p:
            overlaps = iou_kernel(stack_boxes([b for _, b in rest_g])[:, None],
                                  stack_boxes([b for _, b in rest_p])[None, :])
            admissible = np.where(overlaps >= iou_threshold, overlaps, -np.inf)
            for i, j in max_weight_matching(admissible):
                gid, pid = rest_g[i][0], rest_p[j][0]
                matches.append((gid, pid))
                taken_g.add(gid)
                taken_p.add(pid)
        for gid, pid in matches:
            prev = last_hyp.get(gid)
            if prev is not None and prev != pid:
                idsw += 1
            last_hyp[gid] = pid
        fn += len(gts) - len(matches)
        fp += len(preds) - len(matches)
    return fp, fn, idsw, gt_count


def clear_mot(gt: Iterable[Trajectory], pred: Iterable[Trajectory],
              iou_threshold: float = 0.5) -> ClearMot:
    gt, pred = list(gt), list(pred)
    fp, fn, idsw, gt_count = _clear_counts(gt, pred, iou_threshold)
    mota = 1.0 - (fp + fn + idsw) / max(gt_count, 1)
    return ClearMot(mota=mota, fp=fp, fn=fn, idsw=idsw)


def _id_counts(gt, pred, iou_threshold):
    """(IDTP, total gt boxes, total predicted boxes) under the best global
    one-to-one identity assignment."""
    gt, pred = list(gt), list(pred)
    len_gt = sum(len(t) for t in gt)
    len_pred = sum(len(t) for t in pred)
    if not gt or not pred:
        return 0, len_gt, len_pred
    # Per-pair IDTP potential: frames where both are present and overlap.
    potential = np.zeros((len(gt), len(pred)))
    pred_frames = [{e.frame: e.box for e in t.entries} for t in pred]
    for i, t in enumerate(gt):
        for j, frames in enumerate(pred_frames):
            both = [(e.box, frames[e.frame]) for e in t.entries if e.frame in frames]
            if not both:
                continue
            overlaps = iou_kernel(stack_boxes([a for a, _ in both]),
                                  stack_boxes([b for _, b in both]))
            potential[i, j] = int((overlaps >= iou_threshold).sum())
    admissible = np.where(potential > 0, potential, -np.inf)
    idtp = int(sum(potential[i, j] for i, j in max_weight_matching(admissible)))
    return idtp, len_gt, len_pred


def id_metrics(gt: Iterable[Trajectory], pred: Iterable[Trajectory],
               iou_threshold: float = 0.5) -> IdMetrics:
    idtp, len_gt, len_pred = _id_counts(gt, pred, iou_threshold)
    idp = idtp / len_pred if len_pred else 0.0
    idr = idtp / len_gt if len_gt else 0.0
    denom = len_gt + len_pred
    idf1 = 2 * idtp / denom if denom else 1.0
    return IdMetrics(idf1=idf1, idp=idp, idr=idr)


def evaluate(gt: Iterable[Trajectory], pred: Iterable[Trajectory],
             iou_threshold: float = 0.5) -> EvalReport:
    gt, pred = list(gt), list(pred)
    fp, fn, idsw, gt_count = _clear_counts(gt, pred, iou_threshold)
    mota = 1.0 - (fp + fn + idsw) / max(gt_count, 1)
    ids = id_metrics(gt, pred, iou_threshold)
    return EvalReport(mota=mota, idf1=ids.idf1, idp=ids.idp, idr=ids.idr,
                      fp=fp, fn=fn, idsw=idsw, gt_count=gt_count)


def evaluate_sequences(pairs: Mapping[str, tuple[Iterable[Trajectory], Iterable[Trajectory]]],
                       iou_threshold: float = 0.5) -> EvalReport:
    """Aggregate evaluation over named sequences (counts pooled, not averaged)."""
    fp = fn = idsw = gt_count = 0
    idtp = len_gt = len_pred = 0
    per_sequence = {}
    for name, (gt, pred) in pairs.items():
        gt, pred = list(gt), list(pred)
        per_sequence[name] = evaluate(gt, pred, iou_threshold)
        f, n, s, g = _clear_counts(gt, pred, iou_threshold)
        fp, fn, idsw, gt_count = fp + f, fn + n, idsw + s, gt_count + g
        tp, lg, lp = _id_counts(gt, pred, iou_threshold)
        idtp, len_gt, len_pred = idtp + tp, len_gt + lg, len_pred + lp
    mota = 1.0 - (fp + fn + idsw) / max(gt_count, 1)
    denom = len_gt + len_pred
    return EvalReport(
        mota=mota,
        idf1=2 * idtp / denom if denom else 1.0,
        idp=idtp / len_pred if len_pred else 0.0,
        idr=idtp / len_gt if len_gt else 0.0,
        fp=fp, fn=fn, idsw=idsw, gt_count=gt_count,
        per_sequence=per_sequence)


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
