"""Trajectory post-processing and the split step of the recombination mode.

An external tracker's output (or this engine's own) is refined by splitting
every trajectory at frame discontinuities and class changes, re-associating
the pieces with the hierarchical engine, then optionally filling small gaps
by linear interpolation and smoothing the box sequence with a Gaussian
kernel.

Each step runs on all tracks at once, over a `BoxTable` whose `id` is the
track id.
"""

from __future__ import annotations

import numpy as np

from .model import BoxTable


def split_rows(table: BoxTable) -> list[np.ndarray]:
    """Cut each track (`id`) into maximal runs of consecutive frames of one
    class, since every class is associated by an engine of its own: the
    runs' rows in (track id, time) order, each in frame order.  A track
    holds one row per frame."""
    order = np.lexsort((table.frame, table.id))
    frame, track, cls = table.frame[order], table.id[order], table.class_id[order]
    cuts = np.flatnonzero((track[1:] != track[:-1]) | (frame[1:] != frame[:-1] + 1)
                          | (cls[1:] != cls[:-1])) + 1
    return np.split(order, cuts) if order.size else []


def interpolate_rows(table: BoxTable, max_gap: int) -> BoxTable:
    """Fill each track's internal frame gaps of up to max_gap missing frames
    linearly, in a table sorted by (id, frame): boxes p + (k/span)(n - p),
    the mean of the bracketing scores and the earlier row's class.  Returns
    `table` itself when nothing is inserted."""
    frame, track = table.frame, table.id
    gap = frame[1:] - frame[:-1] - 1
    after = np.flatnonzero((track[1:] == track[:-1]) & (gap >= 1) & (gap <= max_gap))
    if not after.size:
        return table
    count = gap[after]
    prev = np.repeat(after, count)  # the earlier row of each inserted row
    k = np.arange(prev.size) - np.repeat(np.cumsum(count) - count, count) + 1
    a = (k / (frame[prev + 1] - frame[prev]))[:, None]
    p, n = table.boxes[prev], table.boxes[prev + 1]
    inserted = BoxTable(frame[prev] + k, track[prev],
                        0.5 * (table.score[prev] + table.score[prev + 1]),
                        table.class_id[prev], p + a * (n - p))
    both = BoxTable(*(np.concatenate(pair) for pair in zip(table, inserted)))
    # Stable: each row, then the rows inserted after it in frame order.
    return both.take(np.argsort(np.concatenate([np.arange(frame.size), prev]),
                                kind="stable"))


def smooth_rows(table: BoxTable, sigma: float) -> BoxTable:
    """Smooth cx, cy, w, h over each run of consecutive frames of a track
    with a normalized Gaussian kernel of radius 2*sigma, truncated and
    renormalized near the run's ends, in a table sorted by (id, frame).  A
    frame gap ends a run as a track change does, so no window reaches across
    it (interpolate first to bridge gaps).  Sizes are clamped to stay >= 1;
    frames, scores and one-row runs are untouched.  Returns `table` itself
    when nothing is smoothed.

    The weighted rows of a window are added in ascending offset order, as
    numpy's axis-0 `sum` adds them, and divided by the 1-D `sum` of its
    weights, which is not a sequential sum."""
    radius = int(np.ceil(2 * sigma))
    if sigma <= 0 or radius == 0:
        return table
    frame, track = table.frame, table.id
    starts = np.flatnonzero((np.diff(track, prepend=track[:1] - 1) != 0)
                            | (np.diff(frame, prepend=frame[:1] - 1) != 1))
    lengths = np.diff(np.append(starts, track.size))
    length = np.repeat(lengths, lengths)
    if not (length >= 2).any():
        return table
    pos = np.arange(track.size) - np.repeat(starts, lengths)  # row within its run
    base = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    values = table.boxes
    total = np.zeros_like(values)
    reach = min(radius, int(lengths.max()) - 1)  # offsets past it reach no row
    for o in range(-reach, reach + 1):
        inside = np.flatnonzero((pos + o >= 0) & (pos + o < length))
        total[inside] = total[inside] + base[o + radius] * values[inside + o]
    # The window of a row is base[lo:hi]; rows share the few distinct windows.
    lo = np.maximum(radius - pos, 0)
    hi = np.minimum(length - pos + radius, 2 * radius + 1)
    windows, which = np.unique(lo * (2 * radius + 2) + hi, return_inverse=True)
    norm = np.array([base[w // (2 * radius + 2):w % (2 * radius + 2)].sum()
                     for w in windows.tolist()])[which.reshape(-1)]
    smoothed = total / norm[:, None]
    smoothed[:, 2:] = np.maximum(smoothed[:, 2:], 1.0)
    return table._replace(boxes=np.where((length >= 2)[:, None], smoothed, values))
