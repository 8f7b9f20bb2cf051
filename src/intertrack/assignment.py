"""Gated maximum-similarity bipartite matching, in numpy alone.

A cell is admissible only if its score is finite and above 0; any other
cell, such as the -inf that fills a dense block off the given cells, can
never beat leaving its row and column unmatched, which gains 0.  The solver finds the maximum-total-similarity partial matching over the
admissible cells, then applies the acceptance gate: no pair scoring 0 or
less is ever matched.

There is one solver, `solve_pairs`.  It takes a sparse matrix as cells
(a[k], b[k]) holding scores[k], every other cell inadmissible: the merge
levels' admissible tracklet pairs, the `overlap_cells` above 0 of the first
level and of each frame of low-score recovery, and `eval`'s hits.  A gate
of -inf keeps every pair matched.  The steps:

1. Cells.  The inadmissible cells are dropped; when none is left, nothing
   is matched and nothing more runs.
2. Components.  The cells join rows and columns into connected components,
   labelled once (`connected_components`); a matching is optimal exactly
   when it is optimal on each component.
3. Certificates.  A component is row-certified when each of its rows has
   one unique best cell and no two rows share that cell's column.  No
   matching can give a row more than its best, and any matching other than
   the rows' best cells gives some row less, so they are the one optimum.
   The column certificate swaps rows and columns.  One scatter of the
   cells' scores finds each row's best cell and whether it is unique
   (`_best_cells`), one more each column's.  A row-certified component
   takes its rows' best cells, else a column-certified one its columns'.
4. Augmenting paths.  Cells below the gate stay, because they steer which
   matching is optimal, but a component without a cell at or above the gate
   is not searched: the gate would drop whatever it matched.  Each other
   component that holds neither certificate is packed once, as a block of
   its rows x its columns in ascending order, into padded chunks
   (`_component_chunks`), so no array grows with the square of the row
   count unless one component does.  `_augmenting_paths` solves a chunk's
   blocks in lockstep, each as if alone.
5. The gate drops the matched cells scoring below it.

The search is the shortest augmenting path method of Crouse, "On
implementing 2D rectangular assignment algorithms" (IEEE TAES 2016), the
method of scipy's `linear_sum_assignment`.  Every row owns an implicit
unmatched slot of weight 0, so an n x m block needs O(n * m) memory.  A
larger total wins however small the difference; exact ties — matchings
whose totals are equal as floats — resolve by the order of search: rows
join in ascending order, each by a shortest augmenting path; a column keeps
the first path that reached it at its distance; and of the columns at equal
distance the search settles a free real column first (the lowest), then an
unmatched slot (of the row reached first), else the lowest assigned column.
scipy's square Hungarian form may pick other optima.

Each step reads one component alone, its rows and columns in ascending
order, so its matching depends neither on the rest of the matrix nor on
its ids beyond their order: the admissible cells of a dense matrix match
as the matrix does, ties included, and the cells of several frame pairs,
as `overlap_cells` returns them, match as each pair does alone.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

import numpy as np

# Upper bound on the padded (blocks, n_max, m_max) cells of one chunk: the
# kernel's temporaries scale with it, so it bounds memory on long or crowded
# sequences.  At 1 << 16 the temporaries raised peak RSS by about 2 MB on a
# 6,200-detection sequence; at 1 << 14 they stay within noise and a chunk
# still holds hundreds of small blocks.
_CHUNK_CELLS = 1 << 14


def _chunks(n: np.ndarray, m: np.ndarray) -> list[np.ndarray]:
    """Indices of blocks of the given (n, m) shapes, sorted by shape and cut
    into chunks whose padded cell count stays within `_CHUNK_CELLS`; a block
    larger than that by itself is a chunk of its own.  In (n, m) order, a
    chunk's padded size after its j-th block, j * n * the running maximum of
    m, never falls as j grows, so one scan finds the first block that
    overflows; it need read no more than `_CHUNK_CELLS` // (n * m) blocks of
    the chunk's first shape."""
    order = np.lexsort((m, n))
    n, m = n[order], m[order]
    chunks, s = [], 0
    while s < order.size:
        reach = min(order.size - s, _CHUNK_CELLS // (n[s] * m[s]) + 1)
        cells = np.arange(1, reach + 1) * n[s:s + reach] * np.maximum.accumulate(m[s:s + reach])
        # The chunk ends before the first block after its first that
        # overflows, or after `reach` blocks when none does.
        end = s + 1 + int(np.argmax(np.append(cells[1:] > _CHUNK_CELLS, True)))
        chunks.append(order[s:end])
        s = end
    return chunks


def pair_chunks(count: int) -> Iterator[slice]:
    """Consecutive slices of `count` items, `_CHUNK_CELLS` to a slice: the
    chunks in which a batch of single cells, such as tracklet pairs, is
    scored."""
    return (slice(s, s + _CHUNK_CELLS) for s in range(0, count, _CHUNK_CELLS))


def range_pairs(lo: np.ndarray, count: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs (k, lo[k] + i), i < count[k], in order, `pair_chunks` at a time."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    for part in pair_chunks(total):
        at = np.arange(part.start, min(part.stop, total))
        k = np.searchsorted(ends, at, "right")
        yield k, at - ends[k] + count[k] + lo[k]


def distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(values, return_inverse=True)` of a 1-D array by one sort;
    the plain `np.unique` imports `numpy.ma` on its first call."""
    order = np.argsort(values, kind="stable")  # fast on the sorted runs of frames
    values = values[order]
    first = np.ones(values.size, bool)
    first[1:] = values[1:] != values[:-1]
    rank = np.empty(values.size, np.intp)
    rank[order] = np.cumsum(first) - 1
    return values[first], rank


def overlap_cells(group_a: np.ndarray, group_b: np.ndarray, ext_a: np.ndarray,
                  ext_b: np.ndarray, score: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  keep: Callable[[np.ndarray], np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The pairs (i, j), group_a[i] == group_b[j] (ranks, as from `distinct`),
    whose extents [left, top, right, bottom] overlap, each left and top below
    the other's right and bottom, and that `keep` admits by `score(i, j)`: i,
    j and scores, unordered, and the number scored.  Sort and sweep (Baraff
    1992) on integer keys (group, x code), x <= y giving code(x) <= code(y):
    key(left_a) <= key(left_b) <= key(right_a) or else key(left_b) <
    key(left_a) <= key(right_b) for a pair overlapping in x."""
    n_a, n_b = len(group_a), len(group_b)
    # An x code is the float's bits, counted down for negatives (+ 0.0 makes
    # -0.0 0.0), less their low bits to leave room for the group.
    drop = int(max(group_a.max(initial=0), group_b.max(initial=0))).bit_length() + 2
    x = (np.concatenate([ext_a[:, 0], ext_a[:, 2], ext_b[:, 0], ext_b[:, 2]]) + 0.0).view(np.int64)
    x = ((x ^ ((x >> 63) & np.int64(2 ** 63 - 1))) >> drop) + (1 << (63 - drop))
    key = np.concatenate([group_a, group_a, group_b, group_b]) << (64 - drop) | x
    (lo_a, hi_a), (lo_b, hi_b) = key[:2 * n_a].reshape(2, -1), key[2 * n_a:].reshape(2, -1)
    by_a, by_b = np.argsort(lo_a, kind="stable"), np.argsort(lo_b, kind="stable")
    lo_a, hi_a, lo_b, hi_b = lo_a[by_a], hi_a[by_a], lo_b[by_b], hi_b[by_b]  # in key order
    # Ranges 0..n_a-1 run over a's partners among b's lefts, the rest over
    # b's among a's.  An a's left is at most the j-th b's left exactly when
    # first[a] <= j, so counting `first` gives b's starts.
    first = np.searchsorted(lo_b, lo_a)
    start = np.concatenate([first, np.cumsum(np.bincount(first, minlength=n_b + 1))[:n_b] + n_b])
    stop = np.concatenate([np.searchsorted(lo_b, hi_a, "right"),
                           np.searchsorted(lo_a, hi_b, "right") + n_b])
    owners, partners = np.concatenate([by_a, by_b]), np.concatenate([by_b, by_a])
    cells, candidates = [(np.zeros(0, np.intp),) * 2 + (np.zeros(0),)], 0
    for k, at in range_pairs(start, np.maximum(stop - start, 0)):
        own, partner = owners[k], partners[at]
        i, j = np.where(k < n_a, own, partner), np.where(k < n_a, partner, own)
        # Edge by edge, as gathers from an (n, 4) array by row are slow.
        hit = ((ext_a[:, 0][i] < ext_b[:, 2][j]) & (ext_b[:, 0][j] < ext_a[:, 2][i])
               & (ext_a[:, 1][i] < ext_b[:, 3][j]) & (ext_b[:, 1][j] < ext_a[:, 3][i]))
        i, j = i[hit], j[hit]
        values, candidates = score(i, j), candidates + i.size
        ok = keep(values)
        cells.append((i[ok], j[ok], values[ok]))
    i, j, values = map(np.concatenate, zip(*cells))
    return i, j, values, candidates


def _padded(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(blocks, max size) positions start + i; slots past a block's size
    repeat its last position."""
    return starts[:, None] + np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)


def _admissible(scores: np.ndarray) -> np.ndarray:
    """Which scores count: finite and above 0 (see the module docstring)."""
    return np.isfinite(scores) & (scores > 0)


def connected_components(count: int, u: np.ndarray, v: np.ndarray) -> tuple[int, np.ndarray]:
    """The connected components of the undirected graph on nodes 0..count-1
    with edges (u[k], v[k]): their number, and each node's component label,
    components numbered in the order of their lowest nodes.

    Every node points at a node no higher than itself.  Each round hooks the
    root of each edge's higher end onto the lower root, then follows the
    pointers until every node points at its root, and drops the edges whose
    ends now share one; each component ends rooted at its lowest node."""
    parent = np.arange(count)
    while u.size:
        ru, rv = parent[u], parent[v]
        low = np.minimum(ru, rv)
        np.minimum.at(parent, ru, low)
        np.minimum.at(parent, rv, low)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        cross = parent[u] != parent[v]
        u, v = u[cross], v[cross]
    root = parent == np.arange(count)
    return int(root.sum()), (np.cumsum(root) - 1)[parent]


def _component_order(label: np.ndarray, picked: np.ndarray, comps: np.ndarray,
                     count: int) -> tuple[np.ndarray, ...]:
    """The nodes whose component is picked, grouped by component in the
    order of `comps` and ascending within one; every such node's position
    within its component; and each component's first position and size."""
    node = np.flatnonzero(picked[label])
    node = node[np.argsort(label[node], kind="stable")]
    size = np.bincount(label[node], minlength=count)[comps]
    start = np.cumsum(size) - size
    at = np.empty(label.size, np.intp)
    at[node] = np.arange(node.size) - np.repeat(start, size)
    return node, at, start, size


def _component_chunks(row: np.ndarray, col: np.ndarray, values: np.ndarray,
                      row_label: np.ndarray, col_label: np.ndarray, count: int,
                      comps: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The components `comps` (ascending labels, of `count`) of the cells
    (row[c], col[c]) holding values[c], each as one block of its row nodes x
    its column nodes in ascending order, a chunk of `_chunks` at a
    time: per chunk, the (blocks, n_max, m_max) values (-inf off the cells),
    the blocks' row and column counts, and their padded (blocks, n_max) row
    and (blocks, m_max) column nodes."""
    if not comps.size:
        return
    picked = np.zeros(count, bool)
    picked[comps] = True
    r_node, r_at, r0, n = _component_order(row_label, picked, comps, count)
    c_node, c_at, c0, m = _component_order(col_label, picked, comps, count)
    chunks = [(b, _padded(r0[b], n[b]), _padded(c0[b], m[b])) for b in _chunks(n, m)]
    # Per component, its chunk (len(chunks) if it is not picked) and its
    # block's index in that chunk.
    chunk_of, slot = np.full(count, len(chunks)), np.empty(count, np.intp)
    for k, (blocks, _, _) in enumerate(chunks):
        chunk_of[comps[blocks]], slot[comps[blocks]] = k, np.arange(blocks.size)
    comp = row_label[row]
    by_chunk = np.argsort(chunk_of[comp], kind="stable")
    ends = np.cumsum(np.bincount(chunk_of[comp], minlength=len(chunks) + 1))
    for (blocks, r_pos, c_pos), cells in zip(chunks, np.split(by_chunk, ends[:-1])):
        dense = np.full((blocks.size, r_pos.shape[1], c_pos.shape[1]), -np.inf)
        dense[slot[comp[cells]], r_at[row[cells]], c_at[col[cells]]] = values[cells]
        yield dense, n[blocks], m[blocks], r_node[r_pos], c_node[c_pos]


def _augmenting_paths(weights: np.ndarray, n: np.ndarray,
                      m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximum-total-weight partial matching of every block
    weights[k, :n[k], :m[k]] of a padded chunk, finite on the admissible
    cells and -inf elsewhere, as (block, row, col) arrays of its matches.

    Shortest augmenting paths (Crouse 2016) on cost = -weight: each row in
    turn is assigned by a Dijkstra search over reduced costs, which the dual
    update keeps non-negative, to a free column or to its own unmatched slot
    of cost 0.  A row's slot is reachable only from the row itself, so it is
    free whenever the search reaches it and its dual stays 0; the slots of
    one block share one extra column, m_max, which holds the nearest slot of
    the rows the search has reached, and which no row ever holds.  The
    blocks of the chunk take each search step together; a block whose search
    has ended waits for the others."""
    k, n_max, m_max = weights.shape
    cost = np.zeros((k, n_max, m_max + 1))
    np.negative(weights, out=cost[:, :, :m_max])
    u = cost.min(axis=2)  # feasible duals: no reduced cost below 0
    v = np.zeros((k, m_max + 1))
    col4row, row4col = np.full((k, n_max), m_max), np.full((k, m_max + 1), -1)
    for cur in range(n_max):
        act = np.flatnonzero(n > cur)
        shortest = np.full((act.size, m_max + 1), np.inf)
        path = np.zeros((act.size, m_max + 1), np.intp)
        settled = np.zeros((act.size, m_max + 1), bool)
        min_val, row, sink = np.zeros(act.size), np.full(act.size, cur), np.empty(act.size, np.intp)
        live = np.arange(act.size)
        while live.size:
            b, i = act[live], row[live]
            reduced = min_val[live, None] + cost[b, i] - u[b, i][:, None] - v[b]
            better = (reduced < shortest[live]) & ~settled[live]
            shortest[live] = np.where(better, reduced, shortest[live])
            path[live] = np.where(better, i[:, None], path[live])
            dist = np.where(settled[live], np.inf, shortest[live])
            low = dist.min(axis=1)
            tie = dist == low[:, None]
            free = tie & (row4col[b] < 0)
            to_free = free.any(axis=1)
            j = np.where(to_free, free.argmax(axis=1), tie.argmax(axis=1))
            min_val[live], sink[live] = low, j
            settled[live, j] = True
            row[live] = row4col[b, j]
            live = live[~to_free]
        # Each settled column's dual falls, and the row holding it gains, by
        # the search's final distance less the column's.
        sb, sj = np.nonzero(settled)
        delta = min_val[sb] - shortest[sb, sj]
        v[act[sb], sj] -= delta
        held = row4col[act[sb], sj] >= 0
        u[act[sb[held]], row4col[act[sb[held]], sj[held]]] += delta[held]
        u[act, cur] += min_val
        # Augment back from each sink; the slot column m_max leaves its row
        # unmatched.
        live, j = np.arange(act.size), sink
        while live.size:
            b, jj = act[live], j[live]
            i = path[live, jj]
            row4col[b, jj] = np.where(jj < m_max, i, -1)
            j[live], col4row[b, i] = col4row[b, i], jj
            live = live[i != cur]
    blk, i = np.nonzero(col4row < m_max)
    return blk, i, col4row[blk, i]


def _best_cells(line: np.ndarray, other: np.ndarray, scores: np.ndarray, lines: int,
                others: int) -> tuple[np.ndarray, np.ndarray]:
    """Per line 0..lines-1 (a row or a column) of the cells (line[c],
    other[c]) holding scores[c], each holding at least one: the index of a
    best cell, and whether the line keeps the argmax certificate (its best
    cell is unique, and no other line's best shares its `other`).  Which of
    tied best cells is taken changes nothing: the tie breaks the component's
    certificate, and any line whose best shares that `other` is in it too."""
    best = np.full(lines, -np.inf)
    np.maximum.at(best, line, scores)
    top = np.flatnonzero(scores == best[line])
    cell = np.empty(lines, np.intp)
    cell[line[top]] = top
    partner = other[cell]
    unique = np.bincount(line[top], minlength=lines) == 1
    return cell, unique & (np.bincount(partner, minlength=others)[partner] == 1)


class PairMatches(NamedTuple):
    """The result of `solve_pairs`: the matched cells (a[k], b[k]) in
    ascending a, the number of connected components solved (those holding a
    cell at or above the gate), the rows plus columns (nodes) of the largest
    of them, and the number of them solved by augmenting paths."""
    a: np.ndarray
    b: np.ndarray
    components: int
    largest: int
    exact: int


def solve_pairs(a: np.ndarray, b: np.ndarray, scores: np.ndarray, gate: float) -> PairMatches:
    """Match the sparse matrix whose distinct cells (a[k], b[k]) hold
    scores[k] and whose other cells are inadmissible, keeping only pairs
    with similarity >= gate (see the module docstring)."""
    keep = _admissible(scores)
    a, b, scores = a[keep], b[keep], scores[keep]
    if not a.size:
        return PairMatches(a, b, 0, 0, 0)
    rows, row = np.unique(a, return_inverse=True)
    cols, col = np.unique(b, return_inverse=True)
    count, label = connected_components(rows.size + cols.size, row, rows.size + col)
    row_label, col_label = label[:rows.size], label[rows.size:]
    row_best, row_ok = _best_cells(row, col, scores, rows.size, cols.size)
    col_best, col_ok = _best_cells(col, row, scores, cols.size, rows.size)
    by_rows = np.bincount(row_label[~row_ok], minlength=count) == 0
    by_cols = ~by_rows & (np.bincount(col_label[~col_ok], minlength=count) == 0)
    # Only components holding a cell at or above the gate can yield a match.
    solved = np.bincount(row_label[row[scores >= gate]], minlength=count) > 0
    search = np.flatnonzero(solved & ~by_rows & ~by_cols)
    cell = np.concatenate([row_best[by_rows[row_label]], col_best[by_cols[col_label]]])
    found = [(row[cell], col[cell], scores[cell])]
    for dense, n, m, r_node, c_node in _component_chunks(row, col, scores, row_label, col_label,
                                                         count, search):
        blk, i, j = _augmenting_paths(dense, n, m)
        found.append((r_node[blk, i], c_node[blk, j], dense[blk, i, j]))
    r, c, s = map(np.concatenate, zip(*found))
    r, c = r[s >= gate], c[s >= gate]
    order = np.argsort(r)
    nodes = np.bincount(label, minlength=count)
    return PairMatches(rows[r[order]], cols[c[order]], int(solved.sum()),
                       int(nodes[solved].max(initial=0)), search.size)
