"""Text I/O for the two tracking interchange formats; no other module knows
either one.  Readers and writers take the format's name, "mot" or "kitti".

MOTChallenge lines: ``frame,id,bb_left,bb_top,w,h,conf[,x,y,z]`` with 1-based
frames.  KITTI tracking label lines: 17 (18 with score) space-separated
fields with 0-based frames, mapped to the internal 1-based convention on
read and back on write.

A format supplies only its line parser (field count, number conversions and
the rows it skips), its box convention, its first frame and its row writer;
MOT adds a bulk parser, one `np.loadtxt` call over all lines.  numpy converts
each field with the function behind Python `float()`, so the numbers are the
line parser's, bit for bit.  The line parser alone names a faulty line, and
reads the file whenever the bulk parse cannot stand for it: an empty file, a
`loadtxt` error or warning, a blank line (numpy skips it, which shifts the
line numbers), a field count outside 7-10 or varying, a frame or id that is
not a finite whole number, or an ASCII separator \\x1c-\\x1f in the text
(numpy strips these around a number, `float()` does not).  KITTI's frame and
id rules take `int()` of the text, so KITTI files are read line by line.
Each read logs one INFO line: its lines, the rows kept and the parser used.

Both parse into one `BoxTable` in file order, checked once with the line
numbers alongside: after a line whose fields do not parse (or whose frame or
id is not whole) has failed, each check fails at the `file:line` of its
first faulty row, in this order: a NaN or infinite box or score, a frame or
id of magnitude 2**53 or more, a frame before the format's first, a negative
id in a track file.  Rows of non-positive size are then dropped with one
counted warning per file and scores clamped to [0, 1]; a track with two
boxes in one frame fails at the line of the later one.  The kept rows are
numbered 1..N in file order as det_ids.  Writers sort rows by (frame, id)
and emit a fixed six-decimal format so write→read→write is byte-identical.
"""

from __future__ import annotations

import logging
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .model import (BoxTable, ConfigError, Detection, Trajectory, corners_to_center,
                    ltwh_to_center, table_of, trajectories_of, tracks_table)

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
        frame_value, id_value, left, top, w, h, conf = map(float, fields[:7])
        frame, track_id = int(frame_value), int(id_value)
    except (ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    if frame != frame_value or track_id != id_value:
        raise ValueError(f"{path}:{lineno}: frame and id must be whole numbers, "
                         f"got {fields[0]} and {fields[1]}")
    return frame, track_id, left, top, w, h, conf, 0, lineno


def _parse_mot_bulk(lines: list[str]) -> Optional[np.ndarray]:
    """The rows `_parse_mot_line` makes of `lines`, from one numpy parse, or
    None wherever that parse cannot stand for it (see the module notes)."""
    import warnings  # loaded with numpy; loadtxt warns when it finds no rows
    text = "".join(lines)
    if any(sep in text for sep in "\x1c\x1d\x1e\x1f"):  # float() does not strip these
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                                ndmin=2, encoding="utf-8")
    except (ValueError, UserWarning):
        return None
    n, fields = values.shape
    frame_id = values[:, :2]
    # A skipped blank line would shift the line numbers of the later rows.
    if (n != len(lines) or not 7 <= fields <= 10 or not np.isfinite(frame_id).all()
            or (np.trunc(frame_id) != frame_id).any()):
        return None
    return np.column_stack((values[:, :7], np.zeros(n), np.arange(1, n + 1)))


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


def _mot_rows(table: BoxTable) -> Iterator[str]:
    cx, cy, w, h = table.boxes.T
    return map("{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f},-1,-1,-1\n".format,
               table.frame.tolist(), table.id.tolist(), (cx - w / 2).tolist(),
               (cy - h / 2).tolist(), w.tolist(), h.tolist(), table.score.tolist())


def _kitti_rows(table: BoxTable) -> Iterator[str]:
    cx, cy, w, h = table.boxes.T
    return map("{} {} {} -1 -1 -10 {:.6f} {:.6f} {:.6f} {:.6f} "
               "-1000 -1000 -1000 -1000 -1000 -1000 -10 {:.6f}\n".format,
               (table.frame - 1).tolist(), table.id.tolist(),
               np.array(KITTI_CLASSES)[table.class_id].tolist(),
               (cx - w / 2).tolist(), (cy - h / 2).tolist(), (cx + w / 2).tolist(),
               (cy + h / 2).tolist(), table.score.tolist())


class _Format(NamedTuple):
    """What a file format decides; everything else is shared."""
    parse: Callable[[str, PathLike, int], tuple]
    # All lines -> the parsed rows, or None to parse line by line.
    bulk: Optional[Callable[[list[str]], Optional[np.ndarray]]]
    to_center: Callable  # the four box columns -> cx, cy, w, h
    first_frame: int
    rows: Callable[[BoxTable], Iterator[str]]  # one output line per table row


_MOT = _Format(_parse_mot_line, _parse_mot_bulk, ltwh_to_center, 1, _mot_rows)


def check_class_filter(fmt: str, class_filter: Optional[Sequence[str]]) -> None:
    """Raise ConfigError unless `class_filter` is empty or names KITTI classes."""
    if not class_filter:
        return
    if fmt != "kitti":
        raise ConfigError([f"a class filter applies to kitti input only, not {fmt}"])
    unknown = [name for name in class_filter if name not in KITTI_CLASSES]
    if unknown:
        raise ConfigError([f"unknown class name {', '.join(map(repr, unknown))}; "
                           f"the KITTI classes are {', '.join(KITTI_CLASSES)}"])


def _format(fmt: str, class_filter: Optional[Sequence[str]] = None) -> _Format:
    if fmt not in ("mot", "kitti"):
        raise ValueError(f"unknown format {fmt!r}, expected mot or kitti")
    check_class_filter(fmt, class_filter)
    if fmt == "mot":
        return _MOT
    keep = frozenset(class_filter) if class_filter else None
    return _Format(partial(_parse_kitti_line, keep=keep), None, corners_to_center, 0, _kitti_rows)


# Frames and ids pass through float64 and int64 columns.  float64 holds every
# integer only below 2**53: past it distinct ids collide, and the int64 cast
# can wrap.
_INDEX_LIMIT = 2 ** 53


def _read(path: PathLike, fmt: _Format, track_file: bool) -> BoxTable:
    """Parse and check a file (see the module notes); `id` is its id column."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    table = fmt.bulk(lines) if fmt.bulk else None
    how = "line by line" if table is None else "bulk"
    if table is None:
        rows = [fmt.parse(line, path, lineno)
                for lineno, line in enumerate(map(str.strip, lines), 1) if line]
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
    out = BoxTable((frame[kept] + (1 - fmt.first_frame)).astype(np.int64),
                   track_id[kept].astype(np.int64), np.clip(score[kept], 0.0, 1.0),
                   class_id[kept].astype(np.int64), boxes[kept])
    if track_file:
        # In (track, frame) order the first repeat fails at its later row.
        order = np.lexsort((out.frame, out.id))  # stable: ties keep file order
        f, t = out.frame[order], out.id[order]
        repeats = np.flatnonzero((t[1:] == t[:-1]) & (f[1:] == f[:-1]))
        if repeats.size:
            k = repeats[0]
            raise ValueError(f"{path}:{int(lineno[kept][order[k + 1]])}: "
                             f"track {t[k]} has two boxes at frame {f[k]}")
    log.info("read %s: %d lines, %d rows kept, %s", path, len(lines), out.frame.size, how)
    return out


def numbered(table: BoxTable) -> BoxTable:
    """`table` with `id` numbering its rows 1..N: the det_ids of a file's rows."""
    return table._replace(id=np.arange(1, table.frame.size + 1))


def read_detection_table(path: PathLike, fmt: str = "mot",
                         class_filter: Optional[Sequence[str]] = None) -> BoxTable:
    """Read a detection file, `id` its det_ids; `class_filter` keeps only the
    named KITTI classes."""
    return numbered(_read(path, _format(fmt, class_filter), track_file=False))


def read_track_table(path: PathLike, fmt: str = "mot",
                     class_filter: Optional[Sequence[str]] = None) -> BoxTable:
    """Read a result/ground-truth file in file order; `id` is the track id."""
    return _read(path, _format(fmt, class_filter), track_file=True)


def read_mot_tracks(path: PathLike) -> list[Trajectory]:
    """Read a MOT result/ground-truth file into per-identity trajectories."""
    table = read_track_table(path, "mot")
    return trajectories_of(numbered(table), table.id)


def write_table(table: BoxTable, path: PathLike, fmt: str = "mot") -> None:
    """Write `table`, whose `id` is the track id, sorted by (frame, id)."""
    rows = _format(fmt).rows(table.take(np.lexsort((table.id, table.frame))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(rows)


def write_mot_results(trajectories: Iterable[Trajectory], path: PathLike) -> None:
    write_table(tracks_table(trajectories), path, "mot")


def write_mot_detections(detections: Iterable[Detection], path: PathLike) -> None:
    """Write detections sorted by (frame, det_id), with track id -1."""
    table = table_of(list(detections))
    table = table.take(np.lexsort((table.id, table.frame)))
    write_table(table._replace(id=np.full_like(table.id, -1)), path, "mot")
