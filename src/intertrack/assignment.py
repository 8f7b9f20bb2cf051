"""Gated maximum-similarity bipartite matching.

Similarity matrices use -inf as the sentinel for inadmissible pairs (class
mismatch, interval violation).  The solver finds the maximum-total-similarity
partial matching over the admissible entries — rows and columns may stay
unmatched at zero cost — and then applies the acceptance gate.

Many small blocks — the first level's (t, t+1) frame pairs, `eval`'s gt x
pred frames — are scored and solved a chunk at a time by one chunker,
`padded_chunks`: the blocks are sorted by shape and cut into chunks of at
most `_CHUNK_CELLS` padded cells, and each chunk gives its blocks' row and
column positions padded to its largest block.  A padded slot repeats its
block's last position, so padded cells score real boxes and stay finite;
`real_cells` masks them out.

`solve_blocks` solves every block of a padded chunk at once, and `solve` is
its one-block case.  Most blocks need no Hungarian solve: subtract
`max_weight_matching`'s own tie bias and take each row's best cell.  Call a
block certified when every row whose best biased score is above 0 has one
unique best cell and those cells lie in distinct columns.  No matching can
give a row more than max(0, best), since an unmatched row gains 0; the
argmax gives every row exactly that, and any other matching gives some row
less, so the argmax is the unique optimum.  A row whose best is below 0
stays unmatched.  A row whose best is exactly 0 may be matched either way,
but only at a cell whose score equals its bias, below `_TIE_EPS`, so the
gate drops it unless the gate is that small too.  Only the blocks that are
not certified go to `max_weight_matching`.

The merge levels match a sparse matrix: their admissible (earlier, later)
pairs are a small share of all tracklet pairs.  `solve_pairs` takes it as
cell arrays and solves it as the dense `solve` would, one connected
component at a time.  It drops every cell whose score is not above 0: a
dropped cell's biased score is below the 0 that leaving its row and column
unmatched gains, so no optimum takes it, except a 0 at the bias-free cell
(0, 0), which the gate (above 0) drops anyway.  Cells above 0 but below the
gate stay, because they steer which matching is optimal.  The remaining
cells fall apart into connected components of rows and columns, and a
matching of the whole is optimal exactly when it is optimal on each
component.  A component without a cell at or above the gate is not solved:
the gate would drop whatever it matched.  Each other component is one block
of its rows x its columns in ascending order, and these blocks go through
`padded_chunks` and `solve_blocks` like any other blocks, so no array grows
with the square of the row count unless one component does.

Ties may resolve differently from the dense `solve`.  The tie bias is
block-local: a cell's bias depends on its position in its component, not in
the whole matrix.  So two matchings whose real totals differ by less than
about `_TIE_EPS` can go either way.  With distinct totals both find the one
optimum.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# Large finite stand-in for -inf inside the padded solve (scipy rejects
# matrices that make every complete assignment infeasible).
_BIG = 1.0e6

# Scale of the deterministic tie-break bias.  Small enough to never override
# a real similarity difference, large enough to steer float-equal optima
# toward low-index pairs.
_TIE_EPS = 1.0e-10


# Upper bound on the padded (blocks, n_max, m_max) cells of one chunk: the
# kernel's temporaries scale with it, so it bounds memory on long or crowded
# sequences.  At 1 << 16 the temporaries raised peak RSS by about 2 MB on a
# 6,200-detection sequence; at 1 << 14 they stay within noise and a chunk
# still holds hundreds of small blocks.
_CHUNK_CELLS = 1 << 14


def _chunks(n: list[int], m: list[int]) -> list[list[int]]:
    """Indices of blocks of the given (n, m) shapes, sorted by shape and cut
    into chunks whose padded cell count stays within `_CHUNK_CELLS`; a block
    larger than that by itself is a chunk of its own."""
    chunks: list[list[int]] = []
    n_max = m_max = 0
    for k in sorted(range(len(n)), key=lambda k: (n[k], m[k])):
        if chunks and (len(chunks[-1]) + 1) * max(n_max, n[k]) * max(m_max, m[k]) <= _CHUNK_CELLS:
            chunks[-1].append(k)
            n_max, m_max = max(n_max, n[k]), max(m_max, m[k])
        else:
            chunks.append([k])
            n_max, m_max = n[k], m[k]
    return chunks


def pair_chunks(count: int) -> Iterator[slice]:
    """Consecutive slices of `count` items, `_CHUNK_CELLS` to a slice: the
    chunks in which a batch of single cells, such as tracklet pairs, is
    scored."""
    return (slice(s, s + _CHUNK_CELLS) for s in range(0, count, _CHUNK_CELLS))


def _padded(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(blocks, max size) positions start + i; slots past a block's size
    repeat its last position."""
    return starts[:, None] + np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)


def padded_chunks(r0: np.ndarray, n: np.ndarray, c0: np.ndarray,
                  m: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The blocks k of rows [r0[k], r0[k] + n[k]) x columns [c0[k], c0[k] +
    m[k]), every n[k] and m[k] at least 1, a chunk at a time (see `_chunks`):
    per chunk, the indices of its blocks and their (blocks, n_max) row and
    (blocks, m_max) column positions, padded by `_padded`."""
    for chunk in _chunks(n.tolist(), m.tolist()):
        b = np.array(chunk, dtype=np.intp)
        yield b, _padded(r0[b], n[b]), _padded(c0[b], m[b])


def real_cells(n: np.ndarray, m: np.ndarray, n_max: int, m_max: int) -> np.ndarray:
    """The (blocks, n_max, m_max) mask of each block's real cells [k, :n[k], :m[k]]."""
    return (np.arange(n_max)[:, None] < n[:, None, None]) & (np.arange(m_max) < m[:, None, None])


def _tie_bias(n: int, m: int, size: int | np.ndarray) -> np.ndarray:
    """The bias subtracted from cell (i, j) of a block whose padded square
    has side `size` (n + m); `size` may be a (k, 1, 1) array of sides."""
    idx = np.arange(n)[:, None] * size + np.arange(m)[None, :]
    return _TIE_EPS * idx / (size * size)


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
    padded[:n, :m] -= _tie_bias(n, m, size)
    rows, cols = linear_sum_assignment(padded, maximize=True)
    out = []
    for i, j in zip(rows, cols):
        if i < n and j < m and admissible[i, j]:
            out.append((int(i), int(j)))
    out.sort()
    return out


def solve_blocks(scores: np.ndarray, n: Sequence[int], m: Sequence[int],
                 gate: float) -> tuple[np.ndarray, int]:
    """`solve` of every block scores[k, :n[k], :m[k]] of a padded
    (blocks, n_max, m_max) chunk; the padded cells are never read.

    Returns the matches as a (matches, 3) array of (block, row, col) in
    (block, row) order, and the number of blocks that were not certified
    (see the module docstring) and so went to `max_weight_matching`."""
    scores = np.asarray(scores, dtype=np.float64)
    n, m = np.asarray(n, dtype=np.intp), np.asarray(m, dtype=np.intp)
    k, n_max, m_max = scores.shape
    if not scores.size:
        return np.zeros((0, 3), np.intp), 0
    real = real_cells(n, m, n_max, m_max)
    # An empty block (n + m = 0) has no cells; its side of 1 only avoids 0 / 0.
    size = np.maximum(n + m, 1)[:, None, None]
    biased = np.where(real & np.isfinite(scores), scores - _tie_bias(n_max, m_max, size), -np.inf)
    col, best = biased.argmax(axis=2), biased.max(axis=2)
    unique = (biased == best[..., None]).sum(axis=2) == 1
    del biased  # the fallback of a large block needs the memory
    blk, row = np.nonzero(best > 0)
    taken = np.bincount(blk * m_max + col[blk, row], minlength=k * m_max).reshape(k, m_max)
    # A row above 0 needs a unique best; a row at exactly 0 needs a gate that
    # drops whatever it matches.
    certified = (np.where(best > 0, unique, (best < 0) | (gate > _TIE_EPS)).all(axis=1)
                 & (taken <= 1).all(axis=1))
    found = [np.stack([blk, row, col[blk, row]], axis=1)[certified[blk]]]
    fallback = np.flatnonzero(~certified).tolist()
    for b in fallback:
        found.append(np.array([(b, i, j) for i, j in max_weight_matching(scores[b, :n[b], :m[b]])],
                              np.intp).reshape(-1, 3))
    found = np.concatenate(found)
    found = found[np.lexsort((found[:, 1], found[:, 0]))]
    return found[scores[tuple(found.T)] >= gate], len(fallback)


def solve(scores: np.ndarray, gate: float) -> list[tuple[int, int]]:
    """Match rows to columns, keeping only pairs with similarity >= gate.

    The gate acts after optimization: a matched pair below the gate is
    simply dropped, it does not steer which pairs the optimum selects.
    """
    scores = np.asarray(scores, dtype=np.float64)
    found, _ = solve_blocks(scores[None], [scores.shape[0]], [scores.shape[1]], gate)
    return [(i, j) for _, i, j in found.tolist()]


class PairMatches(NamedTuple):
    """The result of `solve_pairs`: the matched cells (a[k], b[k]) in
    ascending a, the number of connected components solved, the rows plus
    columns (nodes) of the largest of them, and the number of them that went
    to the Hungarian fallback."""
    a: np.ndarray
    b: np.ndarray
    components: int
    largest: int
    fallback: int


def solve_pairs(a: np.ndarray, b: np.ndarray, scores: np.ndarray, gate: float) -> PairMatches:
    """`solve` of the sparse matrix whose distinct cells (a[k], b[k]) hold
    scores[k] and whose other cells are inadmissible, for a gate above 0,
    solved one connected component at a time (see the module docstring)."""
    keep = np.isfinite(scores) & (scores > 0)
    a, b, scores = a[keep], b[keep], scores[keep]
    rows, row = np.unique(a, return_inverse=True)
    cols, col = np.unique(b, return_inverse=True)
    nodes = rows.size + cols.size
    graph = coo_matrix((np.ones(scores.size), (row, rows.size + col)), shape=(nodes, nodes))
    count, label = connected_components(graph, directed=False)
    comp = label[row]
    # Only components holding a cell at or above the gate can yield a match.
    solved = np.flatnonzero(np.bincount(comp[scores >= gate], minlength=count))
    if not solved.size:
        return PairMatches(a[:0], b[:0], 0, 0, 0)
    # Rows, then columns, ordered by component and ascending within one; each
    # component's rows and columns are one contiguous range of that order.
    r_label, c_label = label[:rows.size], label[rows.size:]
    r_order, c_order = np.argsort(r_label, kind="stable"), np.argsort(c_label, kind="stable")
    n, m = np.bincount(r_label, minlength=count), np.bincount(c_label, minlength=count)
    r0, c0 = np.cumsum(n) - n, np.cumsum(m) - m
    r_local, c_local = np.empty_like(row), np.empty_like(col)
    r_local[r_order] = np.arange(rows.size) - r0[r_label[r_order]]
    c_local[c_order] = np.arange(cols.size) - c0[c_label[c_order]]
    chunks = list(padded_chunks(r0[solved], n[solved], c0[solved], m[solved]))
    # Per component, its chunk (len(chunks) if it is not solved) and its
    # block's index in that chunk.
    chunk_of, slot = np.full(count, len(chunks)), np.empty(count, np.intp)
    for k, (blocks, _, _) in enumerate(chunks):
        chunk_of[solved[blocks]], slot[solved[blocks]] = k, np.arange(blocks.size)
    by_chunk = np.argsort(chunk_of[comp], kind="stable")
    ends = np.cumsum(np.bincount(chunk_of[comp], minlength=len(chunks) + 1))
    found_a, found_b, fallback = [], [], 0
    for (blocks, r_pos, c_pos), cells in zip(chunks, np.split(by_chunk, ends[:-1])):
        dense = np.full((blocks.size, r_pos.shape[1], c_pos.shape[1]), -np.inf)
        dense[slot[comp[cells]], r_local[row[cells]], c_local[col[cells]]] = scores[cells]
        found, failed = solve_blocks(dense, n[solved[blocks]], m[solved[blocks]], gate)
        blk, i, j = found.T
        found_a.append(rows[r_order[r_pos[blk, i]]])
        found_b.append(cols[c_order[c_pos[blk, j]]])
        fallback += failed
    found_a, found_b = np.concatenate(found_a), np.concatenate(found_b)
    order = np.argsort(found_a)
    return PairMatches(found_a[order], found_b[order], solved.size,
                       int((n + m)[solved].max()), fallback)
