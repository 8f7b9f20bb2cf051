"""Text I/O for the two tracking interchange formats; no other module knows
either one.  `read_detections`, `read_tracks`, `read_columns` and
`write_tracks` take the format's name, "mot" or "kitti".

MOTChallenge lines: ``frame,id,bb_left,bb_top,w,h,conf[,x,y,z]`` with 1-based
frames.  KITTI tracking label lines: 17 (18 with score) space-separated
fields with 0-based frames, mapped to the internal 1-based convention on
read and back on write.

A format supplies only its line parser (field count, number conversions and
the rows it skips), its box convention and its first frame.  Both parse into
the same columns, checked once with the line numbers alongside: each check
fails at the `file:line` of its first faulty row, in this order: a NaN or
infinite box or score, a frame or id of magnitude 2**53 or more, a frame
before the format's first, a negative id in a track file.  Rows of
non-positive size are then dropped with one counted warning per file and
scores clamped to [0, 1]; a track with two boxes in one frame fails at the
line of the later one.  Writers sort rows by (frame, id) and emit a fixed
six-decimal format so write→read→write is byte-identical.
"""

from __future__ import annotations

import logging
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .geometry import stack_boxes
from .model import BoundingBox, Detection, corners_to_center, ltwh_to_center
from .refine import Trajectory

log = logging.getLogger(__name__)

PathLike = Union[str, Path]

KITTI_CLASSES = ("Car", "Van", "Truck", "Pedestrian", "Person_sitting",
                 "Cyclist", "Tram", "Misc")

# A parsed line is one table row: frame, id, the four box numbers of the
# format's convention, score, class index and line number.  A skipped line
# keeps a row whose class index is _SKIPPED, or _UNKNOWN for a class name
# outside KITTI_CLASSES.
_SKIPPED, _UNKNOWN = -1, -2


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
    return frame, track_id, left, top, w, h, conf, 0, lineno


def _parse_kitti_line(line: str, path: PathLike, lineno: int,
                      keep: Optional[frozenset[str]]):
    tok = line.split()
    if len(tok) not in (17, 18):
        raise ValueError(f"{path}:{lineno}: expected 17 or 18 fields, got {len(tok)}")
    cls = tok[2]
    if cls not in KITTI_CLASSES:
        return (0.0,) * 7 + (_SKIPPED if cls == "DontCare" else _UNKNOWN, lineno)
    if keep is not None and cls not in keep:
        return (0.0,) * 7 + (_SKIPPED, lineno)
    try:
        # int() rejects a fractional frame or id; float() of the same text
        # keeps a huge one within the range check, as inf at worst.
        int(tok[0]), int(tok[1])
        return (float(tok[0]), float(tok[1]), *(float(v) for v in tok[6:10]),
                float(tok[17]) if len(tok) == 18 else 1.0, KITTI_CLASSES.index(cls), lineno)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


class _Format(NamedTuple):
    """What a file format decides; everything else is shared."""
    parse: Callable[[str, PathLike, int], tuple]
    to_center: Callable  # the four box columns -> cx, cy, w, h
    first_frame: int


_MOT = _Format(_parse_mot_line, ltwh_to_center, 1)


def _format(fmt: str, class_filter: Optional[Sequence[str]] = None) -> _Format:
    if fmt == "mot":
        return _MOT
    if fmt == "kitti":
        keep = frozenset(class_filter) if class_filter else None
        return _Format(partial(_parse_kitti_line, keep=keep), corners_to_center, 0)
    raise ValueError(f"unknown format {fmt!r}, expected mot or kitti")


# Frames and ids pass through float64 and int64 columns.  float64 holds every
# integer only below 2**53: past it distinct ids collide, and the int64 cast
# can wrap.
_INDEX_LIMIT = 2 ** 53


class _Rows(NamedTuple):
    """The kept rows of a file in file order; frames are 1-based."""
    frame: np.ndarray
    track_id: np.ndarray
    boxes: np.ndarray  # [cx, cy, w, h]
    score: np.ndarray
    class_id: np.ndarray
    lineno: np.ndarray


def _read_rows(path: PathLike, fmt: _Format, track_file: bool) -> _Rows:
    """Parse a file once into columns and check them (see the module notes)."""
    parse = fmt.parse
    with open(path, "r", encoding="utf-8") as fh:
        rows = [parse(line, path, lineno)
                for lineno, line in enumerate(map(str.strip, fh), 1) if line]
    table = np.array(rows, dtype=np.float64).reshape(-1, 9)
    unknown = np.count_nonzero(table[:, 7] == _UNKNOWN)
    if (table[:, 7] < 0).any():
        table = table[table[:, 7] >= 0]
    frame, track_id, *box, score, class_id, lineno = table.T

    def fail_at(bad: np.ndarray, message: Callable[[int], str]) -> None:
        first = np.flatnonzero(bad)
        if first.size:
            raise ValueError(f"{path}:{int(lineno[first[0]])}: {message(first[0])}")

    fail_at(~np.isfinite(table[:, 2:7]).all(axis=1),
            lambda k: "box size and confidence must be finite numbers, as must the box position")
    fail_at((np.abs(table[:, :2]) >= _INDEX_LIMIT).any(axis=1),
            lambda k: "frame and id must be below 2**53 in magnitude")
    fail_at(frame < fmt.first_frame,
            lambda k: f"frame index {int(frame[k])} must be >= {fmt.first_frame}")
    boxes = np.stack(fmt.to_center(*box), axis=1)
    kept = (boxes[:, 2] > 0) & (boxes[:, 3] > 0)
    if track_file:
        fail_at(kept & (track_id < 0),
                lambda k: f"track id {int(track_id[k])} invalid in a track file")
    if not kept.all():
        log.warning("%s: rejected %d records with non-positive size", path,
                    np.count_nonzero(~kept))
    if unknown:
        log.warning("%s: skipped %d rows with unknown class strings", path, unknown)
    return _Rows((frame[kept] + (1 - fmt.first_frame)).astype(np.int64),
                 track_id[kept].astype(np.int64), boxes[kept],
                 np.clip(score[kept], 0.0, 1.0), class_id[kept].astype(np.int64),
                 lineno[kept].astype(np.int64))


def _detections(rows: _Rows) -> list[Detection]:
    """One Detection per row; det_id numbers the rows in file order from 1."""
    return [Detection(f, BoundingBox(*box), s, c, det_id)  # positional: the fastest call
            for det_id, (f, box, s, c)
            in enumerate(zip(rows.frame.tolist(), rows.boxes.tolist(), rows.score.tolist(),
                             rows.class_id.tolist()), 1)]


def _track_order(path: PathLike, rows: _Rows) -> np.ndarray:
    """Row order by (track_id, frame); the first repeated (track, frame) is an
    error at the line of its later row."""
    order = np.lexsort((rows.frame, rows.track_id))  # stable: ties keep file order
    f, t = rows.frame[order], rows.track_id[order]
    repeats = np.flatnonzero((t[1:] == t[:-1]) & (f[1:] == f[:-1]))
    if repeats.size:
        k = repeats[0]
        raise ValueError(f"{path}:{rows.lineno[order[k + 1]]}: "
                         f"track {t[k]} has two boxes at frame {f[k]}")
    return order


def _group_tracks(path: PathLike, rows: _Rows) -> list[Trajectory]:
    """Group rows into trajectories in id order, each in frame order."""
    order = _track_order(path, rows)
    entries = _detections(rows)
    runs = np.split(order, np.flatnonzero(np.diff(rows.track_id[order])) + 1) if entries else []
    return [Trajectory(track_id=int(rows.track_id[run[0]]),
                       entries=tuple(entries[k] for k in run.tolist()))
            for run in runs]


class TrackColumns(NamedTuple):
    """The boxes of a track file as columns, rows sorted by (frame, track_id).

    `boxes` rows are [cx, cy, w, h], derived with the operations of the
    format's BoundingBox constructor, so a row's overlaps equal its box's.
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


# The MOT readers are module globals that the format readers below look up at
# call time, so a wrapper installed on one of them sees every MOT read.

def read_mot_detections(path: PathLike) -> list[Detection]:
    """Read a MOT detection file; the id column is ignored (-1 convention)."""
    return _detections(_read_rows(path, _MOT, track_file=False))


def read_mot_tracks(path: PathLike) -> list[Trajectory]:
    """Read a MOT result/ground-truth file into per-identity trajectories."""
    return _group_tracks(path, _read_rows(path, _MOT, track_file=True))


def read_detections(path: PathLike, fmt: str = "mot",
                    class_filter: Optional[Sequence[str]] = None) -> list[Detection]:
    """Read a detection file; a track id column is ignored.  `class_filter`
    keeps only the named KITTI classes."""
    if fmt == "mot":
        return read_mot_detections(path)
    return _detections(_read_rows(path, _format(fmt, class_filter), track_file=False))


def read_tracks(path: PathLike, fmt: str = "mot",
                class_filter: Optional[Sequence[str]] = None) -> list[Trajectory]:
    """Read a result/ground-truth file into per-identity trajectories."""
    if fmt == "mot":
        return read_mot_tracks(path)
    return _group_tracks(path, _read_rows(path, _format(fmt, class_filter), track_file=True))


def read_columns(path: PathLike, fmt: str = "mot",
                 class_filter: Optional[Sequence[str]] = None) -> TrackColumns:
    """Read a result/ground-truth file as TrackColumns."""
    rows = _read_rows(path, _format(fmt, class_filter), track_file=True)
    _track_order(path, rows)
    return TrackColumns.of(rows.frame, rows.track_id, rows.boxes)


def write_tracks(trajectories: Iterable[Trajectory], path: PathLike, fmt: str = "mot") -> None:
    writer = write_mot_results if _format(fmt) is _MOT else write_kitti_tracking
    writer(trajectories, path)


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
