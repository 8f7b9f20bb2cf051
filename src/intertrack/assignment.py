"""Gated maximum-similarity bipartite matching, in numpy alone.

A cell is admissible only if its score is finite and above 0; any other
cell, such as the -inf that marks a class mismatch or an interval
violation, can never beat leaving its row and column unmatched, which gains
0.  The solver finds the maximum-total-similarity partial matching over the
admissible cells, then applies the acceptance gate: no pair scoring 0 or
less is ever matched.

Many small blocks — the first level's (t, t+1) frame pairs, `eval`'s gt x
pred frames — are scored and solved a chunk at a time by one chunker,
`padded_chunks`: the blocks are sorted by shape and cut into chunks of at
most `_CHUNK_CELLS` padded cells, and each chunk gives its blocks' row and
column positions padded to its largest block; `_chunks` plans each chunk by
one numpy scan.  A padded slot repeats its block's last position, so padded
cells score real boxes and stay finite; `real_cells` masks them out.

`solve_blocks` solves every block of a padded chunk at once, and `solve` is
its one-block case; `solve(scores, -np.inf)` keeps every pair matched.  The
admissible cells fall apart into connected components of rows and columns
(`connected_components`), and a matching is optimal exactly when it is
optimal on each component.  Most components need no search.  Call a
component row-certified when every row with an admissible cell has one
unique best cell and those cells lie in distinct columns.  No matching can
give a row more than its best, or 0 if it has no admissible cell; the
row-wise argmax gives every row exactly that, and any other matching gives
some row less, so the argmax is the one optimum.  The column certificate is
the same with rows and columns swapped, and a component that holds either
is matched by that argmax.

Only the components left over are solved exactly, by the shortest augmenting
path method of Crouse, "On implementing 2D rectangular assignment
algorithms" (IEEE TAES 2016), the method of scipy's `linear_sum_assignment`.
Each of them is one block of its rows x its columns in ascending order;
these blocks go through `padded_chunks`, and `_augmenting_paths` solves a
chunk's blocks in lockstep, each as if alone.  Every row owns an implicit
unmatched slot of weight 0, so an n x m block needs O(n * m) memory.  A
larger total wins however small the difference; exact ties — matchings
whose totals are equal as floats — resolve by the order of search: rows
join in ascending order, each by a shortest augmenting path; a column keeps
the first path that reached it at its distance; and of the columns at equal
distance the search settles a free real column first (the lowest), then an
unmatched slot (of the row reached first), else the lowest assigned column.
scipy's square Hungarian form may pick other optima.

The merge levels match a sparse matrix: their admissible (earlier, later)
pairs are a small share of all tracklet pairs.  `solve_pairs` takes it as
cell arrays, drops the inadmissible cells and solves the rest one connected
component at a time.  Cells below the gate stay, because they steer which
matching is optimal, but a component without a cell at or above the gate is
not solved: the gate would drop whatever it matched.  A component of one
cell is matched by it.  Each other one is a block of its rows x its columns
in ascending order, and these blocks go through `padded_chunks` and
`solve_blocks` like any other blocks, so no array grows with the square of
the row count unless one component does.

The two solvers agree by construction, ties included: each step — the row
and column certificates, the split into components and `_augmenting_paths`
— reads one component alone, its rows and columns in ascending order.  So
`solve_pairs` returns exactly what `solve` of the dense matrix returns, and
a padded chunk solved by `solve_blocks` equals `solve_pairs` of its cells
with global row and column ids.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

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
    for b in _chunks(n, m):
        yield b, _padded(r0[b], n[b]), _padded(c0[b], m[b])


def real_cells(n: np.ndarray, m: np.ndarray, n_max: int, m_max: int) -> np.ndarray:
    """The (blocks, n_max, m_max) mask of each block's real cells [k, :n[k], :m[k]]."""
    return (np.arange(n_max)[:, None] < n[:, None, None]) & (np.arange(m_max) < m[:, None, None])


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


def _argmax_certificate(weights: np.ndarray,
                        axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row (axis 2) or column (axis 1) of each block of a (blocks, n, m)
    array of weights, -inf off the admissible cells: its best partner,
    whether it is matched (has an admissible cell), and whether it keeps the
    argmax certificate (see the module docstring)."""
    best, partner = weights.max(axis=axis), weights.argmax(axis=axis)
    matched = best > 0
    ok = ~matched | ((weights == np.expand_dims(best, axis)).sum(axis=axis) == 1)
    # Matched lines that share their best partner break the certificate.
    blk, line = np.nonzero(matched)
    key = blk * weights.shape[axis] + partner[blk, line]
    shared = np.bincount(key, minlength=weights.shape[0] * weights.shape[axis])[key] > 1
    ok[blk[shared], line[shared]] = False
    return partner, matched, ok


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
    its column nodes in ascending order, a chunk of `padded_chunks` at a
    time: per chunk, the (blocks, n_max, m_max) values (-inf off the cells),
    the blocks' row and column counts, and their padded (blocks, n_max) row
    and (blocks, m_max) column nodes."""
    if not comps.size:
        return
    picked = np.zeros(count, bool)
    picked[comps] = True
    r_node, r_at, r0, n = _component_order(row_label, picked, comps, count)
    c_node, c_at, c0, m = _component_order(col_label, picked, comps, count)
    chunks = list(padded_chunks(r0, n, c0, m))
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


def _match_components(weights: np.ndarray,
                      row_ok: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The matches of a (blocks, n_max, m_max) chunk of weights, -inf off
    the admissible cells, that its rows' argmax does not give, one connected
    component of its admissible cells at a time: by the column argmax where
    that certificate holds, else by augmenting paths.
    `row_ok` is the row certificate of each row (`_argmax_certificate`).

    Returns those matches as a (matches, 3) array of (block, row, col); per
    row, whether its component keeps the row certificate, so that the row
    argmax matches it; and the number of components solved by augmenting
    paths."""
    k, n_max, m_max = weights.shape
    col_row, col_on, col_ok = _argmax_certificate(weights, 1)
    # Row nodes blk * n_max + i, column nodes blk * m_max + j.
    blk, i, j = np.nonzero(weights > 0)
    row, col = blk * n_max + i, blk * m_max + j
    count, label = connected_components(k * (n_max + m_max), row, k * n_max + col)
    row_label, col_label = label[:k * n_max], label[k * n_max:]
    by_rows = np.bincount(row_label[~row_ok.ravel()], minlength=count) == 0
    by_cols = ~by_rows & (np.bincount(col_label[~col_ok.ravel()], minlength=count) == 0)
    exact = np.flatnonzero(~by_rows & ~by_cols)
    cb, cj = np.nonzero(col_on & by_cols[col_label].reshape(k, m_max))
    found = [np.stack([cb, col_row[cb, cj], cj], axis=1)]
    for dense, dn, dm, r_node, c_node in _component_chunks(row, col, weights[blk, i, j], row_label,
                                                           col_label, count, exact):
        b, bi, bj = _augmenting_paths(dense, dn, dm)
        r, c = r_node[b, bi], c_node[b, bj]
        found.append(np.stack([r // n_max, r % n_max, c % m_max], axis=1))
    return np.concatenate(found), by_rows[row_label].reshape(k, n_max), exact.size


def solve_blocks(scores: np.ndarray, n: Sequence[int], m: Sequence[int],
                 gate: float) -> tuple[np.ndarray, int]:
    """`solve` of every block scores[k, :n[k], :m[k]] of a padded
    (blocks, n_max, m_max) chunk; the padded cells are never read.

    Returns the matches as a (matches, 3) array of (block, row, col) in
    (block, row) order, and the number of components that neither argmax
    certificate settled (see the module docstring) and so were solved by
    augmenting paths."""
    scores = np.asarray(scores, dtype=np.float64)
    n, m = np.asarray(n, dtype=np.intp), np.asarray(m, dtype=np.intp)
    k, n_max, m_max = scores.shape
    if not scores.size:
        return np.zeros((0, 3), np.intp), 0
    weights = np.where(real_cells(n, m, n_max, m_max) & _admissible(scores), scores, -np.inf)
    row_col, row_on, row_ok = _argmax_certificate(weights, 2)
    # Every component of a block whose rows all keep the row certificate
    # keeps it too, so only the other blocks are split into components: on
    # the first level most blocks keep it and are never labelled.
    split = np.flatnonzero(~row_ok.all(axis=1))
    by_rows, found, exact = np.ones((k, n_max), bool), [], 0
    if split.size:
        weights = weights[split]  # rebound, so that a large chunk is held once
        part, by_rows[split], exact = _match_components(weights, row_ok[split])
        part[:, 0] = split[part[:, 0]]
        found.append(part)
    rb, ri = np.nonzero(row_on & by_rows)
    found.append(np.stack([rb, ri, row_col[rb, ri]], axis=1))
    found = np.concatenate(found)
    found = found[np.lexsort((found[:, 1], found[:, 0]))]
    return found[scores[tuple(found.T)] >= gate], exact


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
    columns (nodes) of the largest of them, and the number of components
    solved by augmenting paths."""
    a: np.ndarray
    b: np.ndarray
    components: int
    largest: int
    exact: int


def solve_pairs(a: np.ndarray, b: np.ndarray, scores: np.ndarray, gate: float) -> PairMatches:
    """`solve` of the sparse matrix whose distinct cells (a[k], b[k]) hold
    scores[k] and whose other cells are inadmissible, solved one connected
    component at a time (see the module docstring)."""
    keep = _admissible(scores)
    a, b, scores = a[keep], b[keep], scores[keep]
    rows, row = np.unique(a, return_inverse=True)
    cols, col = np.unique(b, return_inverse=True)
    count, label = connected_components(rows.size + cols.size, row, rows.size + col)
    row_label, col_label = label[:rows.size], label[rows.size:]
    nodes = np.bincount(label, minlength=count)
    # Only components holding a cell at or above the gate can yield a match.
    solved = np.flatnonzero(np.bincount(row_label[row[scores >= gate]], minlength=count))
    # A component of one cell is matched by it; the others are solved as blocks.
    alone = (nodes[row_label[row]] == 2) & (scores >= gate)
    found_a, found_b, exact = [a[alone]], [b[alone]], 0
    for dense, n, m, r_node, c_node in _component_chunks(row, col, scores, row_label, col_label,
                                                         count, solved[nodes[solved] > 2]):
        found, failed = solve_blocks(dense, n, m, gate)
        blk, i, j = found.T
        found_a.append(rows[r_node[blk, i]])
        found_b.append(cols[c_node[blk, j]])
        exact += failed
    found_a, found_b = np.concatenate(found_a), np.concatenate(found_b)
    order = np.argsort(found_a)
    return PairMatches(found_a[order], found_b[order], solved.size,
                       int(nodes[solved].max(initial=0)), exact)
