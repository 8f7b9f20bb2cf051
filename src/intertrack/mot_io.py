"""Text I/O for the two tracking interchange formats.

MOTChallenge lines: ``frame,id,bb_left,bb_top,w,h,conf[,x,y,z]`` with 1-based
frames.  KITTI tracking label lines: 17 (18 with score) space-separated
fields with 0-based frames, mapped to the internal 1-based convention on
read and back on write.  Readers fail with file/line context on malformed
input and drop degenerate boxes with a logged count; writers sort rows by
(frame, id) and emit a fixed six-decimal format so a write→read→write cycle
is byte-identical.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .model import BoundingBox, Detection
from .refine import Trajectory

log = logging.getLogger(__name__)

PathLike = Union[str, Path]

KITTI_CLASSES = ("Car", "Van", "Truck", "Pedestrian", "Person_sitting",
                 "Cyclist", "Tram", "Misc")


def _clamp_score(value: float) -> float:
    return min(max(value, 0.0), 1.0)


def _parse_mot_line(line: str, path: PathLike, lineno: int):
    fields = line.split(",")
    if not 7 <= len(fields) <= 10:
        raise ValueError(
            f"{path}:{lineno}: expected 7-10 comma-separated fields, "
            f"got {len(fields)}")
    try:
        frame = int(float(fields[0]))
        track_id = int(float(fields[1]))
        left, top, w, h = (float(v) for v in fields[2:6])
        conf = float(fields[6])
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    if frame < 1:
        raise ValueError(f"{path}:{lineno}: frame index {frame} must be >= 1")
    return frame, track_id, left, top, w, h, conf


def read_mot_detections(path: PathLike) -> list[Detection]:
    """Read a MOT detection file; the id column is ignored (-1 convention)."""
    detections = []
    rejected = 0
    next_id = 1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            frame, _, left, top, w, h, conf = _parse_mot_line(line, path, lineno)
            if w <= 0 or h <= 0:
                rejected += 1
                continue
            detections.append(Detection(
                frame=frame, box=BoundingBox.from_ltwh(left, top, w, h),
                score=_clamp_score(conf), det_id=next_id))
            next_id += 1
    if rejected:
        log.warning("%s: rejected %d records with non-positive size", path, rejected)
    return detections


def read_mot_tracks(path: PathLike) -> list[Trajectory]:
    """Read a MOT result/ground-truth file into per-identity trajectories."""
    rows: list[tuple[int, Detection]] = []
    rejected = 0
    next_id = 1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            frame, track_id, left, top, w, h, conf = _parse_mot_line(line, path, lineno)
            if w <= 0 or h <= 0:
                rejected += 1
                continue
            if track_id < 0:
                raise ValueError(
                    f"{path}:{lineno}: track id {track_id} invalid in a track file")
            det = Detection(frame=frame, box=BoundingBox.from_ltwh(left, top, w, h),
                            score=_clamp_score(conf), det_id=next_id)
            next_id += 1
            rows.append((track_id, det))
    if rejected:
        log.warning("%s: rejected %d records with non-positive size", path, rejected)
    return _group_tracks(path, rows)


def _group_tracks(path: PathLike,
                  rows: Iterable[tuple[int, Detection]]) -> list[Trajectory]:
    """Group (track_id, detection) rows into trajectories in id order."""
    by_id: dict[int, list[Detection]] = {}
    for track_id, det in rows:
        by_id.setdefault(track_id, []).append(det)
    out = []
    for track_id in sorted(by_id):
        entries = sorted(by_id[track_id], key=lambda d: d.frame)
        for a, b in zip(entries, entries[1:]):
            if a.frame == b.frame:
                raise ValueError(
                    f"{path}: track {track_id} has two boxes at frame {a.frame}")
        out.append(Trajectory(track_id=track_id, entries=tuple(entries)))
    return out


def _mot_row(frame: int, track_id: int, box: BoundingBox, score: float) -> str:
    left, top, w, h = box.as_ltwh()
    return (f"{frame},{track_id},{left:.6f},{top:.6f},{w:.6f},{h:.6f},"
            f"{score:.6f},-1,-1,-1\n")


def write_mot_results(trajectories: Iterable[Trajectory], path: PathLike) -> None:
    rows = [(e.frame, t.track_id, e.box, e.score)
            for t in trajectories for e in t.entries]
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for frame, tid, box, score in rows:
            fh.write(_mot_row(frame, tid, box, score))


def write_mot_detections(detections: Iterable[Detection], path: PathLike) -> None:
    rows = sorted(detections, key=lambda d: (d.frame, d.det_id))
    with open(path, "w", encoding="utf-8") as fh:
        for det in rows:
            fh.write(_mot_row(det.frame, -1, det.box, det.score))


def read_kitti_tracking(path: PathLike,
                        class_filter: Union[str, Sequence[str], None] = None
                        ) -> list[tuple[int, Detection]]:
    """Read KITTI tracking labels as (track_id, detection) pairs.

    Frames are converted from KITTI's 0-based to the internal 1-based
    convention.  DontCare rows and unknown class strings are skipped (the
    latter with a warning); class_filter keeps only the named classes.
    """
    if isinstance(class_filter, str):
        class_filter = (class_filter,)
    keep = set(class_filter) if class_filter else None
    out = []
    unknown = 0
    next_id = 1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            tok = line.split()
            if len(tok) not in (17, 18):
                raise ValueError(
                    f"{path}:{lineno}: expected 17 or 18 fields, got {len(tok)}")
            cls = tok[2]
            if cls == "DontCare":
                continue
            if cls not in KITTI_CLASSES:
                unknown += 1
                continue
            if keep is not None and cls not in keep:
                continue
            try:
                frame = int(tok[0]) + 1
                track_id = int(tok[1])
                x1, y1, x2, y2 = (float(v) for v in tok[6:10])
                score = float(tok[17]) if len(tok) == 18 else 1.0
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if x2 <= x1 or y2 <= y1:
                log.warning("%s:%d: degenerate box skipped", path, lineno)
                continue
            out.append((track_id, Detection(
                frame=frame, box=BoundingBox.from_corners(x1, y1, x2, y2),
                score=_clamp_score(score), class_id=KITTI_CLASSES.index(cls),
                det_id=next_id)))
            next_id += 1
    if unknown:
        log.warning("%s: skipped %d rows with unknown class strings", path, unknown)
    return out


def read_kitti_tracks(path: PathLike,
                      class_filter: Union[str, Sequence[str], None] = None
                      ) -> list[Trajectory]:
    """Read KITTI tracking labels into per-identity trajectories."""
    return _group_tracks(path, read_kitti_tracking(path, class_filter))


def write_kitti_tracking(trajectories: Iterable[Trajectory], path: PathLike,
                         class_name: Optional[str] = None) -> None:
    """Write trajectories as KITTI tracking rows with placeholder 3-D fields."""
    rows = []
    for t in trajectories:
        for e in t.entries:
            cls = class_name or KITTI_CLASSES[e.class_id]
            rows.append((e.frame - 1, t.track_id, cls, e.box, e.score))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for frame, tid, cls, box, score in rows:
            x1, y1, x2, y2 = box.as_corners()
            fh.write(f"{frame} {tid} {cls} -1 -1 -10 "
                     f"{x1:.6f} {y1:.6f} {x2:.6f} {y2:.6f} "
                     f"-1000 -1000 -1000 -1000 -1000 -1000 -10 {score:.6f}\n")
