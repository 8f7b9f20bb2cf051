import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as scipy_components

import reference
from intertrack import assignment
from intertrack.assignment import connected_components, solve_pairs
from reference import solve

_PERM_CACHE = {}


def brute_force_total(scores):
    """Optimal partial-matching total by enumerating injections.

    Inadmissible (-inf) cells contribute zero, which is the same as leaving
    the row unmatched since all admissible similarities are >= 0.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape[0] > scores.shape[1]:
        scores = scores.T
    n, m = scores.shape
    if (n, m) not in _PERM_CACHE:
        _PERM_CACHE[(n, m)] = np.array(
            list(itertools.permutations(range(m), n)), dtype=np.intp)
    perms = _PERM_CACHE[(n, m)]
    gains = np.where(np.isfinite(scores), scores, 0.0)
    totals = gains[np.arange(n)[None, :], perms].sum(axis=1)
    return float(totals.max())


def matched_total(scores, matches):
    return float(sum(scores[i, j] for i, j in matches))


def test_identity_matrix():
    assert solve(np.array([[1.0, 0.0], [0.0, 1.0]]), gate=0.2) == [(0, 0), (1, 1)]


def test_gate_rejects_everything():
    scores = np.full((3, 3), 0.15)
    assert solve(scores, gate=0.2) == []


def test_empty_matrices():
    assert solve(np.zeros((0, 4)), gate=0.2) == []
    assert solve(np.zeros((4, 0)), gate=0.2) == []


def test_post_gate_differs_from_pre_gate():
    # Ungated optimum pairs (0,1)+(1,0); post-gating drops the 0.19 leg.
    # Gating before the solve would have removed that cell up front and
    # shifted the optimum to (0,0).
    scores = np.array([[0.5, 0.45], [0.19, 0.0]])
    assert solve(scores, gate=0.2) == [(0, 1)]


def test_sentinel_pairs_never_matched():
    scores = np.array([[0.9, -np.inf], [-np.inf, -np.inf]])
    assert solve(scores, -np.inf) == [(0, 0)]
    # Forcing through the sentinel would beat skipping, but it is inadmissible.
    scores = np.array([[-np.inf]])
    assert solve(scores, -np.inf) == []


def test_unmatched_rows_allowed_when_profitable():
    # Row 1 can only reach 0.4 by stealing column 0 from row 0 (total 0.8).
    # Leaving row 1 unmatched keeps the 0.9.
    scores = np.array([[0.9, 0.4], [0.4, -np.inf]])
    assert solve(scores, -np.inf) == [(0, 0)]


def test_matches_are_injective():
    rng = np.random.RandomState(42)
    for _ in range(100):
        n, m = rng.randint(1, 8, size=2)
        scores = rng.uniform(0, 1, (n, m))
        matches = solve(scores, gate=0.0)
        rows = [i for i, _ in matches]
        cols = [j for _, j in matches]
        assert len(rows) == len(set(rows))
        assert len(cols) == len(set(cols))


def test_brute_force_oracle_small():
    rng = np.random.RandomState(7)
    for _ in range(300):
        n, m = rng.randint(1, 6, size=2)
        scores = rng.uniform(0, 1, (n, m))
        # Sprinkle sentinels.
        mask = rng.uniform(size=(n, m)) < 0.25
        scores[mask] = -np.inf
        matches = solve(scores, -np.inf)
        # Summation order differs between the two routes, hence the epsilon.
        assert abs(matched_total(scores, matches) - brute_force_total(scores)) < 1e-12


def test_scaling_preserves_argmax():
    rng = np.random.RandomState(19)
    for _ in range(50):
        scores = rng.uniform(0, 1, (5, 5))
        base = solve(scores, -np.inf)
        assert solve(scores * 7.5, -np.inf) == base
        assert solve(scores * 0.01, -np.inf) == base


def test_tie_break_prefers_low_indices():
    assert solve(np.array([[0.5, 0.5]]), -np.inf) == [(0, 0)]
    assert solve(np.array([[0.5], [0.5]]), -np.inf) == [(0, 0)]


def test_deterministic():
    rng = np.random.RandomState(3)
    scores = rng.uniform(0, 1, (6, 7))
    first = solve(scores, gate=0.1)
    for _ in range(5):
        assert solve(scores, gate=0.1) == first


# Cell values of the property test: zeros, repeated values (float ties),
# the gates themselves and non-finite sentinels.
_CELLS = [0.0, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, -np.inf, np.nan, np.inf]
_GATES = [1e-12, 0.2, 0.3, 0.75]
# Padded cells must never be read, however attractive they look.
_GARBAGE = [-1.0, 2.0, 1e6, 1e300, np.inf, -np.inf, np.nan]


@st.composite
def _block(draw, n, m):
    # A few values per block, so that sparse blocks of zeros and -inf occur.
    palette = draw(st.lists(st.sampled_from(_CELLS), min_size=1, max_size=3))
    cells = st.one_of(st.sampled_from(palette), st.floats(0.0, 1.0))
    block = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m)),
                     dtype=float).reshape(n, m)
    if not n or not m:
        return block
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        block[i] = draw(st.sampled_from([-np.inf, np.nan, 0.0]))
    for _ in range(draw(st.integers(0, 2)) if m > 1 else 0):
        # Cells of one row at one base, some 1e-12 above it: exact ties, and
        # near-ties that the larger total must win.  On a base of 0 the
        # nudged cells are tiny but admissible, and the others are not.
        i = draw(st.integers(0, n - 1))
        base = draw(st.sampled_from([0.0, 0.75]))
        for j in draw(st.sets(st.integers(0, m - 1), min_size=2)):
            block[i, j] = base + draw(st.sampled_from([0.0, 1e-12]))
    return block


@st.composite
def _chunks(draw):
    """(scores, n, m, gate): ragged blocks padded with garbage to one
    (blocks, n_max, m_max) array."""
    k = draw(st.integers(1, 5))
    n_max, m_max = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    n = draw(st.lists(st.integers(0, n_max), min_size=k, max_size=k))
    m = draw(st.lists(st.integers(0, m_max), min_size=k, max_size=k))
    garbage = draw(st.lists(st.sampled_from(_GARBAGE), min_size=k * n_max * m_max,
                            max_size=k * n_max * m_max))
    scores = np.array(garbage, dtype=float).reshape(k, n_max, m_max)
    for b in range(k):
        scores[b, :n[b], :m[b]] = draw(_block(n[b], m[b]))
    return scores, n, m, draw(st.sampled_from(_GATES))


def _hungarian(block, gate):
    """The reference: the exact matching of the whole block, then the gate.
    The matching is scipy's where the block's optimum is unique;
    where it ties, the solvers may pick different optima, and the
    package's one-block solve stands in, so that a chunk must resolve ties
    as its blocks solved alone do."""
    unique = reference.unique_optimum(block)
    matches = reference.scipy_matching(block) if unique else solve(block, -np.inf)
    return [(i, j) for i, j in matches if block[i, j] >= gate]


def _weights(block):
    """The block with every cell that is not finite and above 0 at -inf."""
    return np.where(np.isfinite(block) & (block > 0), block, -np.inf)


def _uncertified_components(block, gate):
    """The number of connected components (by scipy) of the block's
    admissible cells that hold a cell at or above the gate and that neither
    the row-wise nor the column-wise argmax certificate settles, line by
    line as the `assignment` docstring states them."""
    n, m = block.shape
    weights = _weights(block)
    i, j = np.nonzero(weights > 0)
    graph = coo_matrix((np.ones(i.size), (i, n + j)), shape=(n + m, n + m))
    label = scipy_components(graph, directed=False)[1]
    gated = {label[r] for r, c in zip(i, j) if weights[r, c] >= gate}

    def failing(lines, labels):
        """The labels of the components holding a line that breaks the certificate."""
        best = [max(line, default=-np.inf) for line in lines]
        partner = [int(np.argmax(line)) if best[r] > 0 else -1 for r, line in enumerate(lines)]
        return {labels[r] for r, line in enumerate(lines)
                if best[r] > 0 and (sum(x == best[r] for x in line) > 1
                                    or partner.count(partner[r]) > 1)}

    return len(failing(list(weights), label[:n]) & failing(list(weights.T), label[n:]) & gated)


def _chunk_pairs(scores, n, m, gate):
    """`solve_pairs` of a padded chunk's real cells, block k's row i and
    column j renumbered k * n_max + i and k * m_max + j; and its matches as
    (block, row, col) triples."""
    _, n_max, m_max = scores.shape
    n, m = np.array(n), np.array(m)
    real = (np.arange(n_max)[:, None] < n[:, None, None]) & (np.arange(m_max) < m[:, None, None])
    blk, i, j = np.nonzero(real)
    got = solve_pairs(blk * n_max + i, blk * m_max + j, scores[blk, i, j], gate)
    pairs = zip(got.a.tolist(), got.b.tolist())
    return got, [[a // n_max, a % n_max, b % m_max] for a, b in pairs]


@settings(max_examples=1000, deadline=None)
@given(_chunks())
def test_a_chunk_matches_hungarian_block_by_block(chunk):
    """The cells of several blocks with global ids match as each block does
    alone, ties included."""
    scores, n, m, gate = chunk
    got, found = _chunk_pairs(scores, n, m, gate)
    # The count is of components, several of which a block may hold.
    assert 0 <= got.exact == sum(_uncertified_components(scores[k, :n[k], :m[k]], gate)
                                 for k in range(len(n)))
    # In (block, row) order, each block's matches as `solve` lists them.
    assert [[k, i, j] for k in range(len(n))
            for i, j in _hungarian(scores[k, :n[k], :m[k]], gate)] == found
    assert all(scores[k, i, j] > 0 for k, i, j in found)
    for k in range(len(n)):
        block = scores[k, :n[k], :m[k]]
        assert solve(block, gate) == _hungarian(block, gate)


def _totals(block):
    """The total of every partial matching of the block's admissible cells,
    by enumeration."""
    n, m = block.shape
    weights = _weights(block)
    totals = []

    def extend(i, free, total):
        if i == n:
            totals.append(total)
            return
        extend(i + 1, free, total)
        for j in free:
            if weights[i, j] > 0:
                extend(i + 1, free - {j}, total + weights[i, j])
    extend(0, frozenset(range(m)), 0.0)
    return totals


@settings(max_examples=1000, deadline=None)
@given(_chunks())
def test_a_chunk_matches_the_scipy_reference(chunk):
    """A unique optimum gives the reference's matches; a tie gives matches
    of the same total."""
    scores, n, m, gate = chunk
    _, found = _chunk_pairs(scores, n, m, gate)
    for k in range(len(n)):
        block = scores[k, :n[k], :m[k]]
        want, got = reference.scipy_matching(block), solve(block, -np.inf)
        gated = [(i, j) for b, i, j in found if b == k]
        if got == want and gated == [(i, j) for i, j in want if block[i, j] >= gate]:
            continue
        totals = _totals(block)
        best = max(totals)
        assert sum(t > best - reference.TIE_TOL for t in totals) > 1
        for matches in (want, got):
            assert abs(math.fsum(block[i, j] for i, j in matches) - best) < reference.TIE_TOL


def _dense_pairs(scores, gate):
    """`solve_pairs` of every cell of a dense matrix."""
    a, b = np.indices(scores.shape).reshape(2, -1)
    return solve_pairs(a, b, scores[a, b], gate)


def test_column_certificate_settles_a_shared_column():
    # Both rows want column 0, so the row argmax fails; column 0's unique
    # best is row 1, so the column argmax holds and nothing is searched.
    got = _dense_pairs(np.array([[0.6], [0.9]]), 0.2)
    assert (got.a.tolist(), got.b.tolist(), got.exact) == ([1], [0], 0)


def test_an_exact_solve_allocates_its_block_not_the_square():
    # Every row's best is column 0 and every column's best is row 0, so
    # neither certificate holds and the one component is searched.
    n, m = 4, 4000
    scores = np.full((n, m), 0.5)
    scores[:, 0] = 0.9
    a, b = np.indices(scores.shape).reshape(2, -1)
    cells = scores[a, b]
    tracemalloc.start()
    try:
        got = solve_pairs(a, b, cells, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.exact == 1
    assert (got.a.tolist(), got.b.tolist()) == (list(range(n)), list(range(n)))
    # A few temporaries of the block's size, where the (n + m)^2 square
    # alone would take 8 * 4004^2 bytes, some 128 MB.
    assert peak < 32 * scores.nbytes


def _scipy_labels(count, u, v):
    graph = coo_matrix((np.ones(u.size), (u, v)), shape=(count, count))
    return scipy_components(graph, directed=False)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2 ** 32 - 1), st.sampled_from(["chain", "random", "none"]))
def test_connected_components_match_scipy(count, seed, kind):
    """Long chains over shuffled nodes, random edges with isolated nodes, and
    no edges at all."""
    rng = np.random.default_rng(seed)
    if kind == "chain":
        nodes = rng.permutation(count)[:rng.integers(1, count + 1)]
        u, v = nodes[:-1], nodes[1:]
    elif kind == "random":
        u, v = rng.integers(0, count, (2, rng.integers(0, count)))
    else:
        u = v = np.zeros(0, np.intp)
    flip = rng.random(u.size) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    got_count, got = connected_components(count, u, v)
    want_count, want = _scipy_labels(count, u, v)
    assert got_count == want_count
    assert got.tolist() == want.tolist()


def test_connected_components_of_a_long_chain():
    count = 20_000
    nodes = np.random.default_rng(5).permutation(count)
    assert connected_components(count, nodes[:-1], nodes[1:])[0] == 1
    assert connected_components(count, nodes[1:], nodes[:-1])[1].tolist() == [0] * count


def test_zero_score_at_first_cell_is_never_matched():
    # A cell at or below 0 can never beat leaving its row and column
    # unmatched, so no gate, not even -inf, lets one through.
    scores = np.array([[0.0, -np.inf], [0.0, 0.6]])
    for gate in (-np.inf, -1.0, 0.0, 1e-12, 0.2):
        assert solve(scores, gate) == _hungarian(scores, gate) == [(1, 1)]
    assert solve(np.zeros((1, 1)), -np.inf) == []
    assert solve(np.array([[-0.5, -0.0], [0.0, -1e-300]]), -np.inf) == []


def test_tied_row_best_goes_to_the_fallback():
    # Row 1's two cells tie exactly, so neither argmax certifies the
    # component.  The exact solve spends column 0 on row 0 and gives row 1
    # column 2; taking row 1's first best would give it column 0.
    scores = np.array([[0.5, -np.inf, -np.inf], [0.75, -np.inf, 0.75]])
    assert solve(scores, gate=0.2) == _hungarian(scores, 0.2) == [(0, 0), (1, 2)]
    assert _dense_pairs(scores, 0.2).exact == 1


def test_certified_blocks_skip_the_fallback():
    # Block 0: distinct unique row bests.  Block 1: both rows want column 0,
    # and both columns want row 0.
    scores = np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.9, 0.5], [0.8, 0.1]]])
    got, found = _chunk_pairs(scores, [2, 2], [2, 2], 0.3)
    assert got.exact == 1
    assert found == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_row_takes_a_tiny_cell_over_staying_unmatched():
    # Row 0's only admissible cells are (0, 1), scored just above 0, and
    # (0, 2), which row 1 needs more.  Any admissible cell gains more than
    # leaving its row unmatched, so row 0 takes (0, 1); the zeros stay out.
    scores = np.array([[0.0, 4e-12, 0.5], [0.0, 0.0, 1.0]])
    assert reference.unique_optimum(scores)
    assert solve(scores, -np.inf) == _hungarian(scores, -np.inf) == [(0, 1), (1, 2)]
    assert solve(scores, 1e-12) == [(0, 1), (1, 2)]
    assert solve(scores, 0.2) == [(1, 2)]


def test_a_near_tie_goes_to_the_larger_total():
    # No bias overrides a real difference, however small, on either path.
    assert solve(np.array([[0.5, 0.5 + 1e-12]]), 0.2) == [(0, 1)]
    assert solve(np.array([[0.5, 0.5], [0.5, 0.5 + 1e-12]]), 0.2) == [(0, 0), (1, 1)]
    got = solve_pairs(np.array([0, 0]), np.array([0, 1]), np.array([0.5, 0.5 + 1e-12]), 0.2)
    assert (got.a.tolist(), got.b.tolist()) == ([0], [1])


def test_one_block_may_hold_several_searched_components():
    # Rows 0 and 2 x columns 0 and 3 tie exactly, so neither certificate
    # settles them.  Rows 1 and 3 both want column 2, and row 1 is the best
    # of both columns 1 and 2.  The zeros are inadmissible.
    scores = np.array([[0.25, 0.0, 0.0, 0.25], [0.0, 0.5, 1.0, 0.0],
                       [0.25, 0.0, 0.0, 0.25], [0.0, 0.0, 1.0, 0.0]])
    got = _dense_pairs(scores, 0.2)
    assert got.exact == 2 == _uncertified_components(scores, 0.2)
    assert (got.a.tolist(), got.b.tolist()) == ([0, 1, 2, 3], [0, 1, 3, 2])
    assert solve(scores, 0.2) == [(0, 0), (1, 1), (2, 3), (3, 2)]


# Scores in place of a continuous draw: inadmissible or never taken.
_SPECIAL = [-np.inf, np.nan, -0.5, 0.0]
# Scores on a grid of quarters, so that distinct matchings tie exactly.
_TIED = [-np.inf, np.nan, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0]


@st.composite
def _sparse_pairs(draw):
    """(a, b, scores, gate, shape): distinct cells of an n x m matrix in
    random order, either a band that makes one large component or a random
    set that also leaves cells isolated.  Continuous scores hold at most one
    cell equal to the gate, so no two matchings tie; tied scores lie on a
    grid of quarters, so many do; near-tied scores lie within 1e-10 of two
    values, so many matchings differ by less than that."""
    n, m = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        step = np.arange(m) - np.arange(n)[:, None]
        a, b = np.nonzero((step == 0) | (step == 1))
    else:
        a, b = np.nonzero(rng.random((n, m)) < draw(st.sampled_from([0.05, 0.2, 0.5])))
    order = rng.permutation(a.size)
    a, b = a[order], b[order]
    kind = draw(st.sampled_from(["tied", "near", "continuous"]))
    if kind == "tied":
        gate = draw(st.sampled_from([0.1, 0.25]))
        scores = rng.choice(_TIED, a.size)
    elif kind == "near":
        gate = 0.6
        scores = rng.choice([0.5, 0.75], a.size) + rng.choice([0.0, 1e-12, 1e-11, 1e-10], a.size)
    else:
        gate = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
        scores = rng.uniform(0.001, 1.0, a.size)
        special = rng.random(a.size) < 0.2
        scores[special] = rng.choice(_SPECIAL, special.sum())
        if a.size and draw(st.booleans()):
            scores[draw(st.integers(0, a.size - 1))] = gate
    return a, b, scores, gate, (n, m)


@settings(max_examples=600, deadline=None)
@given(_sparse_pairs())
def test_solve_pairs_matches_the_dense_solve(case):
    """The same pairs, ties included."""
    a, b, scores, gate, shape = case
    dense = np.full(shape, -np.inf)
    dense[a, b] = scores
    want = solve(dense, gate)
    got = solve_pairs(a, b, scores, gate)
    pairs = list(zip(got.a.tolist(), got.b.tolist()))
    assert pairs == sorted(pairs)
    assert len(set(got.a.tolist())) == len(set(got.b.tolist())) == len(pairs)
    assert all(dense[i, j] >= gate for i, j in pairs)
    assert pairs == want


@settings(max_examples=600, deadline=None)
@given(_sparse_pairs())
def test_solve_pairs_searches_the_gated_uncertified_components(case):
    """The certificates on cells count what scipy's labels of the dense
    embedding and the line-by-line certificates count."""
    a, b, scores, gate, shape = case
    dense = np.full(shape, -np.inf)
    dense[a, b] = scores
    assert solve_pairs(a, b, scores, gate).exact == _uncertified_components(dense, gate)


def test_nothing_admissible_labels_nothing(monkeypatch):
    # Many solves see no admissible cell, such as `eval` steps whose rows
    # and columns have no hit left; they return before any labelling.
    def refuse(*args):
        raise AssertionError("labelled components of no cell")
    monkeypatch.setattr(assignment, "connected_components", refuse)
    for scores in (np.zeros((0, 4)), np.zeros((4, 0)), np.zeros((0, 0)),
                   np.full((3, 4), -np.inf), np.array([[0.0, np.nan], [-0.5, -np.inf]])):
        assert solve(scores, 0.2) == []
    for cells in (np.zeros(0), np.array([0.0, -np.inf, np.nan])):
        got = solve_pairs(np.arange(cells.size), np.arange(cells.size), cells, 0.2)
        assert (got.a.tolist(), got.b.tolist(), got[2:]) == ([], [], (0, 0, 0))


def test_solve_pairs_skips_components_below_the_gate():
    # Rows 0-1 x columns 0-1 hold nothing at the gate; row 2 x column 2 does.
    a, b = np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2])
    got = solve_pairs(a, b, np.array([0.3, 0.1, 0.2, 0.6]), 0.5)
    assert (got.a.tolist(), got.b.tolist()) == ([2], [2])
    assert (got.components, got.largest, got.exact) == (1, 2, 0)


def test_cells_below_the_gate_steer_the_match():
    # (0, 0) + (1, 1) = 1.0 beats (0, 1) = 0.6, though (1, 1) is gated away.
    a, b = np.array([0, 0, 1]), np.array([0, 1, 1])
    got = solve_pairs(a, b, np.array([0.55, 0.6, 0.45]), 0.5)
    assert (got.a.tolist(), got.b.tolist()) == ([0], [0])


@settings(max_examples=500, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)), max_size=80),
       budget=st.sampled_from([1, 6, 64, 700, assignment._CHUNK_CELLS]))
def test_chunk_plan_matches_the_greedy_loop(shapes, budget):
    # Few distinct shapes and small budgets give ties, lone oversized
    # blocks and chunks that close on either side's growth.
    n = np.array([s for s, _ in shapes], np.intp)
    m = np.array([s for _, s in shapes], np.intp)
    with mock.patch.object(assignment, "_CHUNK_CELLS", budget):
        planned = [chunk.tolist() for chunk in assignment._chunks(n, m)]
    assert planned == reference.plan_chunks(n.tolist(), m.tolist(), budget)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.integers(-3, 3), st.sampled_from([2**62, -2**62])),
                       max_size=30),
       as_float=st.booleans())
def test_distinct_is_unique_with_its_inverse(values, as_float):
    values = np.array(values, float if as_float else np.int64)
    got, want = assignment.distinct(values), np.unique(values, return_inverse=True)
    assert got[0].dtype == values.dtype
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


def test_sweep_finds_pairs_that_overlap_by_one_ulp():
    """A large group drops the low bits of the x codes, so a left edge one
    ulp below the other box's right edge can share that edge's code; the
    sweep still finds the pair, from either side."""
    x = 1000.1
    assert np.float64(x).view(np.int64) % 2 ** 23 != 0  # one ulp below shares the code
    near, far = [[0.0, 0.0, x, 1.0]], [[np.nextafter(x, 0.0), 0.0, 2 * x, 1.0]]
    group = np.array([2 ** 20])
    for ext_a, ext_b in ((near, far), (far, near)):
        a, b, _, candidates = assignment.overlap_cells(
            group, group, np.array(ext_a), np.array(ext_b), lambda i, j: np.ones(i.size),
            lambda s: s > 0)
        assert (a.tolist(), b.tolist(), candidates) == ([0], [0], 1)
