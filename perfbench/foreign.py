"""Deterministic stand-in for another tracker's output, made from ground truth.

The `recombine` workload feeds `intertrack refine` with what a weaker
tracker would write: identities broken into fragments by short holes, boxes
jittered, a fresh id per fragment, and a few identity swaps where two
fragments side by side exchange their tails.  Everything is a function of
the ground truth and the seed.  Only public intertrack names are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from intertrack import BoundingBox, Detection, Trajectory


HOLE_LENGTH = (2, 12)   # frames cut between kept runs, inclusive range
JITTER_PX = 1.5         # sd of the box center shift
SIZE_JITTER = 0.03      # sd of the log box size factor


@dataclass(frozen=True)
class ForeignStyle:
    """How the foreign tracker breaks identities."""
    run_length: tuple[int, int] = (15, 50)   # frames per kept run, inclusive range
    swaps: int = 4                           # tail exchanges between fragments


def _fragments(gt: Sequence[Trajectory], style: ForeignStyle,
               rng: np.random.Generator) -> list[list[Detection]]:
    pieces = []
    for traj in gt:
        entries = list(traj.entries)
        pos = int(rng.integers(0, HOLE_LENGTH[1] + 1))
        while pos < len(entries):
            length = int(rng.integers(style.run_length[0], style.run_length[1] + 1))
            pieces.append(entries[pos:pos + length])
            pos += length + int(rng.integers(HOLE_LENGTH[0], HOLE_LENGTH[1] + 1))
    return pieces


def _swap_tails(pieces: list[list[Detection]], count: int,
                rng: np.random.Generator) -> int:
    """Exchange tails of the two closest fragments that both cover frames
    f-1 and f, at `count` random frames; returns the swaps made."""
    last_frame = max(p[-1].frame for p in pieces)
    made = 0
    for _ in range(count):
        frame = int(rng.integers(2, last_frame + 1))
        covering = []
        for k, piece in enumerate(pieces):
            if piece[0].frame <= frame - 1 and piece[-1].frame >= frame:
                covering.append(k)
        if len(covering) < 2:
            continue
        best = None
        for a_pos, a in enumerate(covering):
            for b in covering[a_pos + 1:]:
                box_a = pieces[a][frame - pieces[a][0].frame].box
                box_b = pieces[b][frame - pieces[b][0].frame].box
                dist = (box_a.cx - box_b.cx) ** 2 + (box_a.cy - box_b.cy) ** 2
                if best is None or dist < best[0]:
                    best = (dist, a, b)
        _, a, b = best
        cut_a = frame - pieces[a][0].frame
        cut_b = frame - pieces[b][0].frame
        pieces[a], pieces[b] = (pieces[a][:cut_a] + pieces[b][cut_b:],
                                pieces[b][:cut_b] + pieces[a][cut_a:])
        made += 1
    return made


def _jittered(det: Detection, rng: np.random.Generator) -> Detection:
    dx, dy = rng.normal(0.0, JITTER_PX, size=2)
    scale = float(np.exp(rng.normal(0.0, SIZE_JITTER)))
    box = det.box
    return Detection(frame=det.frame,
                     box=BoundingBox(box.cx + dx, box.cy + dy, box.w * scale, box.h * scale),
                     score=round(float(rng.uniform(0.5, 1.0)), 6),
                     class_id=det.class_id)


def foreign_output(gt: Sequence[Trajectory], seed: int,
                   style: ForeignStyle = ForeignStyle()) -> tuple[list[Trajectory], int]:
    """Fragmented, jittered, id-scrambled copy of `gt`; returns it and the
    number of identity swaps applied."""
    rng = np.random.default_rng(seed)
    pieces = [p for p in _fragments(gt, style, rng) if p]
    swaps = _swap_tails(pieces, style.swaps, rng)
    ids = rng.permutation(len(pieces)) + 1
    out = [Trajectory(track_id=int(tid), entries=tuple(_jittered(d, rng) for d in piece))
           for tid, piece in zip(ids, pieces)]
    out.sort(key=lambda t: t.track_id)
    return out, swaps
