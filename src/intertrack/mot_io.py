"""Text I/O for the two tracking interchange formats.

MOTChallenge lines: ``frame,id,bb_left,bb_top,w,h,conf[,x,y,z]`` with 1-based
frames.  KITTI tracking label lines: 17 (18 with score) space-separated
fields with 0-based frames, mapped to the internal 1-based convention on
read and back on write.

A MOT file is parsed once into frame, id, [cx, cy, w, h] box and score
columns.  `read_mot_columns` sorts a track file's columns into
`TrackColumns` for `eval`; `read_mot_tracks` and `read_mot_detections` build
their objects from the same columns.  Readers fail with `file:line` context
on malformed input, on a NaN or infinite frame, box or score (one
`np.isfinite` check over the parsed columns), on a frame or id of magnitude
2**53 or more, on a frame before the format's first and on a track with two
boxes in one frame, and drop degenerate boxes with a logged count; writers
sort rows by (frame, id) and emit a fixed six-decimal format so
write→read→write is byte-identical.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .geometry import stack_boxes
from .model import BoundingBox, Detection
from .refine import Trajectory

log = logging.getLogger(__name__)

PathLike = Union[str, Path]

KITTI_CLASSES = ("Car", "Van", "Truck", "Pedestrian", "Person_sitting",
                 "Cyclist", "Tram", "Misc")


def _parse_mot_line(line: str, path: PathLike, lineno: int):
    fields = line.split(",")
    if not 7 <= len(fields) <= 10:
        raise ValueError(
            f"{path}:{lineno}: expected 7-10 comma-separated fields, "
            f"got {len(fields)}")
    try:
        frame = int(float(fields[0]))
        track_id = int(float(fields[1]))
        left, top, w, h, conf = (float(v) for v in fields[2:7])
    except (ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    if frame < 1:
        raise ValueError(f"{path}:{lineno}: frame index {frame} must be >= 1")
    return frame, track_id, left, top, w, h, conf, lineno


# Frames and ids pass through float64 and int64 columns.  float64 holds every
# integer only below 2**53: past it distinct ids collide, and the int64 cast
# can wrap.
_INDEX_LIMIT = 2 ** 53
_INDEX_RANGE = "frame and id must be below 2**53 in magnitude"


def _require_finite(path: PathLike, values: np.ndarray, lineno: Sequence[float]) -> None:
    """Fail at the line of the first row of `values` holding NaN or ±inf."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{int(lineno[bad[0]])}: box size and confidence must be "
                         "finite numbers, as must the box position")


class TrackColumns(NamedTuple):
    """The boxes of a track file as columns, rows sorted by (frame, track_id).

    `boxes` rows are [cx, cy, w, h], derived with the operations of
    `BoundingBox.from_ltwh`, so a row's overlaps equal its BoundingBox's.
    """

    frame: np.ndarray
    track_id: np.ndarray
    boxes: np.ndarray

    @classmethod
    def of(cls, frame: np.ndarray, track_id: np.ndarray, boxes: np.ndarray) -> "TrackColumns":
        order = np.lexsort((track_id, frame))
        return cls(frame[order], track_id[order], boxes[order])

    @classmethod
    def from_trajectories(cls, trajectories: Iterable[Trajectory]) -> "TrackColumns":
        """Columns of trajectories; trajectories sharing a track_id are one identity."""
        rows = [(t.track_id, e) for t in trajectories for e in t.entries]
        return cls.of(np.array([e.frame for _, e in rows], dtype=np.int64),
                      np.array([tid for tid, _ in rows], dtype=np.int64),
                      stack_boxes(e.box for _, e in rows))


def _read_mot_rows(path: PathLike, track_file: bool) -> tuple[np.ndarray, ...]:
    """Parse a MOT file once into frame, id, [cx, cy, w, h] box and clamped
    score columns in file order, dropping rows of non-positive size.  A
    non-finite box or score value is an error, and so is a negative id in a
    track file."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [_parse_mot_line(line, path, lineno)
                for lineno, line in enumerate(map(str.strip, fh), 1) if line]
    table = np.array(rows, dtype=np.float64).reshape(-1, 8)
    lineno = table[:, 7]
    _require_finite(path, table[:, 2:7], lineno)
    huge = np.flatnonzero((np.abs(table[:, :2]) >= _INDEX_LIMIT).any(axis=1))
    if huge.size:
        raise ValueError(f"{path}:{int(lineno[huge[0]])}: {_INDEX_RANGE}")
    frame, track_id, left, top, w, h, conf = table[:, :7].T
    kept = (w > 0) & (h > 0)
    negative = np.flatnonzero(kept & (track_id < 0))
    if track_file and negative.size:
        raise ValueError(f"{path}:{int(lineno[negative[0]])}: track id "
                         f"{int(track_id[negative[0]])} invalid in a track file")
    if not kept.all():
        log.warning("%s: rejected %d records with non-positive size", path,
                    np.count_nonzero(~kept))
    boxes = np.stack([left + w / 2, top + h / 2, w, h], axis=1)[kept]
    return (frame[kept].astype(np.int64), track_id[kept].astype(np.int64), boxes,
            np.clip(conf[kept], 0.0, 1.0))


def _detections(frame: np.ndarray, boxes: np.ndarray, score: np.ndarray) -> list[Detection]:
    """One Detection per row; det_id numbers the rows in file order from 1."""
    return [Detection(frame=f, box=BoundingBox(*box), score=s, det_id=det_id)
            for det_id, (f, box, s)
            in enumerate(zip(frame.tolist(), boxes.tolist(), score.tolist()), 1)]


def read_mot_detections(path: PathLike) -> list[Detection]:
    """Read a MOT detection file; the id column is ignored (-1 convention)."""
    frame, _, boxes, score = _read_mot_rows(path, track_file=False)
    return _detections(frame, boxes, score)


def read_mot_columns(path: PathLike) -> TrackColumns:
    """Read a MOT result/ground-truth file as TrackColumns."""
    frame, track_id, boxes, _ = _read_mot_rows(path, track_file=True)
    _track_order(path, frame, track_id)
    return TrackColumns.of(frame, track_id, boxes)


def read_mot_tracks(path: PathLike) -> list[Trajectory]:
    """Read a MOT result/ground-truth file into per-identity trajectories."""
    frame, track_id, boxes, score = _read_mot_rows(path, track_file=True)
    return _group_tracks(path, track_id, _detections(frame, boxes, score))


def _track_order(path: PathLike, frame: np.ndarray, track_id: np.ndarray) -> np.ndarray:
    """Row order by (track_id, frame); the first repeated (track, frame) is an error."""
    order = np.lexsort((frame, track_id))
    f, t = frame[order], track_id[order]
    repeats = np.flatnonzero((t[1:] == t[:-1]) & (f[1:] == f[:-1]))
    if repeats.size:
        raise ValueError(f"{path}: track {t[repeats[0]]} has two boxes at frame {f[repeats[0]]}")
    return order


def _group_tracks(path: PathLike, track_id: Sequence[int],
                  entries: Sequence[Detection]) -> list[Trajectory]:
    """Group rows into trajectories in id order, each in frame order."""
    track_id = np.asarray(track_id, dtype=np.int64)
    order = _track_order(path, np.array([d.frame for d in entries], dtype=np.int64), track_id)
    runs = np.split(order, np.flatnonzero(np.diff(track_id[order])) + 1) if entries else []
    return [Trajectory(track_id=int(track_id[run[0]]),
                       entries=tuple(entries[k] for k in run.tolist()))
            for run in runs]


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
    rows = []  # (lineno, frame, track_id, class index, x1, y1, x2, y2, score)
    unknown = 0
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
                frame, track_id = int(tok[0]), int(tok[1])
                rows.append((lineno, frame + 1, track_id, KITTI_CLASSES.index(cls),
                             *(float(v) for v in tok[6:10]),
                             float(tok[17]) if len(tok) == 18 else 1.0))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if max(abs(frame), abs(track_id)) >= _INDEX_LIMIT:
                raise ValueError(f"{path}:{lineno}: {_INDEX_RANGE}")
            if frame < 0:
                raise ValueError(f"{path}:{lineno}: frame index {frame} must be >= 0")
    _require_finite(path, np.array([row[4:] for row in rows], dtype=np.float64).reshape(-1, 5),
                    [row[0] for row in rows])
    out = []
    for lineno, frame, track_id, class_id, x1, y1, x2, y2, score in rows:
        if x2 <= x1 or y2 <= y1:
            log.warning("%s:%d: degenerate box skipped", path, lineno)
            continue
        out.append((track_id, Detection(
            frame=frame, box=BoundingBox.from_corners(x1, y1, x2, y2),
            score=min(max(score, 0.0), 1.0), class_id=class_id, det_id=len(out) + 1)))
    if unknown:
        log.warning("%s: skipped %d rows with unknown class strings", path, unknown)
    return out


def read_kitti_tracks(path: PathLike,
                      class_filter: Union[str, Sequence[str], None] = None
                      ) -> list[Trajectory]:
    """Read KITTI tracking labels into per-identity trajectories."""
    rows = read_kitti_tracking(path, class_filter)
    return _group_tracks(path, [tid for tid, _ in rows], [d for _, d in rows])


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
