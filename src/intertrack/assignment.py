"""Gated maximum-similarity bipartite matching.

Similarity matrices use -inf as the sentinel for inadmissible pairs (class
mismatch, interval violation).  The solver finds the maximum-total-similarity
partial matching over the admissible entries — rows and columns may stay
unmatched at zero cost — and then applies the acceptance gate.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

# Large finite stand-in for -inf inside the padded solve (scipy rejects
# matrices that make every complete assignment infeasible).
_BIG = 1.0e6

# Scale of the deterministic tie-break bias.  Small enough to never override
# a real similarity difference, large enough to steer float-equal optima
# toward low-index pairs.
_TIE_EPS = 1.0e-10


def max_weight_matching(scores: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-total-weight partial matching of a rectangular matrix.

    Entries of -inf (or NaN) are inadmissible.  Leaving a row or column
    unmatched costs nothing, so only pairs that raise the total are taken.
    Implemented as a square (n+m)x(n+m) assignment where each row and column
    owns a zero-weight dummy partner.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n, m = scores.shape
    if n == 0 or m == 0:
        return []
    admissible = np.isfinite(scores)
    size = n + m
    padded = np.full((size, size), -_BIG)
    padded[:n, :m] = np.where(admissible, scores, -_BIG)
    padded[np.arange(n), m + np.arange(n)] = 0.0
    padded[n + np.arange(m), np.arange(m)] = 0.0
    padded[n:, m:] = 0.0
    # Nudge real entries toward lexicographically small (row, col) choices
    # among equal-total optima.
    idx = np.arange(n)[:, None] * size + np.arange(m)[None, :]
    padded[:n, :m] -= _TIE_EPS * idx / (size * size)
    rows, cols = linear_sum_assignment(padded, maximize=True)
    out = []
    for i, j in zip(rows, cols):
        if i < n and j < m and admissible[i, j]:
            out.append((int(i), int(j)))
    out.sort()
    return out


def solve(scores: np.ndarray, gate: float) -> list[tuple[int, int]]:
    """Match rows to columns, keeping only pairs with similarity >= gate.

    The gate acts after optimization: a matched pair below the gate is
    simply dropped, it does not steer which pairs the optimum selects.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        return []
    matches = max_weight_matching(scores)
    return [(i, j) for i, j in matches if scores[i, j] >= gate]
