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
from intertrack.assignment import (_TIE_EPS, _tie_bias, connected_components, solve, solve_blocks,
                                   solve_pairs)

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
    if draw(st.booleans()):
        block[0, 0] = 0.0  # the one cell whose tie bias is 0
    for _ in range(draw(st.integers(0, 2)) if m > 1 else 0):
        # Cells of one row at base + c * bias: c = 1 ties them exactly after
        # the tie bias, c = 0.5 makes the bias decide against the raw score,
        # and base 0 with c = 1 puts the biased score at exactly 0, which a
        # matching may take or leave at no cost.
        i = draw(st.integers(0, n - 1))
        base = draw(st.sampled_from([0.0, 0.75]))
        c = draw(st.sampled_from([0.0, 0.5, 1.0]))
        bias = _tie_bias(n, m, n + m)
        for j in draw(st.sets(st.integers(0, m - 1), min_size=2)):
            block[i, j] = base + c * bias[i, j]
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
    The matching is scipy's where the block's biased optimum is unique;
    where it ties, the solvers may pick different optima, and the
    package's one-block solve stands in, so that a chunk must resolve ties
    as its blocks solved alone do."""
    unique = reference.unique_optimum(block)
    matches = reference.scipy_matching(block) if unique else solve(block, -np.inf)
    return [(i, j) for i, j in matches if block[i, j] >= gate]


def _uncertified_components(block, gate):
    """The number of connected components (by scipy) of the block's cells
    with biased score >= 0 that neither the row-wise nor the column-wise
    argmax certificate settles, line by line as the `assignment` docstring
    states them."""
    n, m = block.shape
    biased = np.where(np.isfinite(block), block - _tie_bias(n, m, n + m), -np.inf)
    i, j = np.nonzero(biased >= 0)
    graph = coo_matrix((np.ones(i.size), (i, n + j)), shape=(n + m, n + m))
    label = scipy_components(graph, directed=False)[1]

    def failing(lines, labels):
        """The labels of the components holding a line that breaks the certificate."""
        best = [max(line, default=-np.inf) for line in lines]
        partner = [int(np.argmax(line)) if best[r] > 0 else -1 for r, line in enumerate(lines)]
        fail = set()
        for r, line in enumerate(lines):
            if best[r] > 0:
                ok = sum(x == best[r] for x in line) == 1 and partner.count(partner[r]) == 1
            else:
                ok = best[r] < 0 or gate > _TIE_EPS
            if not ok:
                fail.add(labels[r])
        return fail

    return len(failing(list(biased), label[:n]) & failing(list(biased.T), label[n:]))


@settings(max_examples=1000, deadline=None)
@given(_chunks())
def test_solve_blocks_matches_hungarian_block_by_block(chunk):
    scores, n, m, gate = chunk
    found, fallback = solve_blocks(scores, n, m, gate)
    assert found.shape == (len(found), 3)
    # The count is of components, several of which a block may hold.
    assert 0 <= fallback == sum(_uncertified_components(scores[k, :n[k], :m[k]], gate)
                                for k in range(len(n)))
    # In (block, row) order, each block's matches as `solve` lists them.
    assert [[k, i, j] for k in range(len(n))
            for i, j in _hungarian(scores[k, :n[k], :m[k]], gate)] == found.tolist()
    for k in range(len(n)):
        block = scores[k, :n[k], :m[k]]
        assert solve(block, gate) == _hungarian(block, gate)


def _biased_totals(block):
    """The biased total of every partial matching of `block`, by enumeration."""
    n, m = block.shape
    biased = np.where(np.isfinite(block), block - _tie_bias(n, m, n + m), -np.inf)
    totals = []

    def extend(i, free, total):
        if i == n:
            totals.append(total)
            return
        extend(i + 1, free, total)
        for j in free:
            if np.isfinite(biased[i, j]):
                extend(i + 1, free - {j}, total + biased[i, j])
    extend(0, frozenset(range(m)), 0.0)
    return biased, totals


# Matchings whose biased totals differ by less than this tie: the bias of a
# block of at most 10 rows plus columns steps by 1e-12, float sums of at most
# five cells err by about 1e-15.
_TIE_TOL = 1e-13


@settings(max_examples=1000, deadline=None)
@given(_chunks())
def test_solve_blocks_matches_the_scipy_reference(chunk):
    """A unique biased optimum gives the reference's matches; a tie gives
    matches of the same biased total."""
    scores, n, m, gate = chunk
    found, _ = solve_blocks(scores, n, m, gate)
    for k in range(len(n)):
        block = scores[k, :n[k], :m[k]]
        want, got = reference.scipy_matching(block), solve(block, -np.inf)
        gated = [(i, j) for b, i, j in found.tolist() if b == k]
        if got == want and gated == [(i, j) for i, j in want if block[i, j] >= gate]:
            continue
        biased, totals = _biased_totals(block)
        best = max(totals)
        assert sum(t > best - _TIE_TOL for t in totals) > 1
        for matches in (want, got):
            assert abs(math.fsum(biased[i, j] for i, j in matches) - best) < _TIE_TOL


def test_column_certificate_settles_a_shared_column():
    # Both rows want column 0, so the row argmax fails; column 0's unique
    # best is row 1, so the column argmax holds and nothing is searched.
    found, exact = solve_blocks(np.array([[[0.6], [0.9]]]), [2], [1], 0.2)
    assert (found.tolist(), exact) == ([[0, 1, 0]], 0)


def test_an_exact_solve_allocates_its_block_not_the_square():
    # Every row's best is column 0 and every column's best is row 0, so
    # neither certificate holds and the one component is searched.
    n, m = 4, 4000
    scores = np.full((n, m), 0.5)
    scores[:, 0] = 0.9
    tracemalloc.start()
    try:
        found, exact = solve_blocks(scores[None], [n], [m], 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exact == 1
    assert found.tolist() == [[0, i, i] for i in range(n)]
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
    # The tie bias of cell (0, 0) is 0, so its biased score is exactly 0.
    scores = np.array([[0.0, -np.inf], [0.0, 0.6]])
    assert solve(scores, gate=0.2) == _hungarian(scores, 0.2) == [(1, 1)]
    assert solve(np.zeros((1, 1)), gate=0.2) == []


def test_tied_row_best_goes_to_the_fallback():
    # Row 1's two cells tie after the bias.  The exact solve spends
    # column 0 on row 0's zero, which costs nothing, and gives row 1 column
    # 2; taking row 1's first best would give it column 0.
    bias = _tie_bias(2, 3, 5)
    scores = np.array([[0.0, -np.inf, -np.inf], [0.75 + bias[1, 0], -np.inf, 0.75 + bias[1, 2]]])
    assert solve(scores, gate=0.2) == _hungarian(scores, 0.2) == [(1, 2)]
    assert solve_blocks(scores[None], [2], [3], 0.2)[1] == 1


def test_certified_blocks_skip_the_fallback():
    # Block 0: distinct unique row bests.  Block 1: both rows want column 0.
    scores = np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.9, 0.5], [0.8, 0.1]]])
    found, fallback = solve_blocks(scores, [2, 2], [2, 2], 0.3)
    assert fallback == 1
    assert found.tolist() == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_zero_biased_row_takes_its_lowest_cell():
    # Row 0's best biased score is exactly 0, at (0, 0) and at (0, 1), whose
    # score is its own tie bias: taking either costs nothing.  The search
    # takes the lowest, (0, 0), which even a gate below the tie bias drops,
    # so row 0 stays unmatched; scipy's square form takes (0, 1), which that
    # gate keeps.
    bias = _tie_bias(2, 3, 5)
    scores = np.array([[0.0, bias[0, 1], 0.5], [0.0, 0.0, 1.0]])
    assert not reference.unique_optimum(scores)
    assert solve(scores, -np.inf) == [(0, 0), (1, 2)]
    assert solve(scores, 1e-12) == [(1, 2)]


def test_one_block_may_hold_several_searched_components():
    # Cell (0, 0)'s biased score is exactly 0, so at a gate below the tie
    # bias neither certificate settles it.  Rows 1 and 3 both want column
    # 2, and row 1 is the best of both columns 1 and 2.
    scores = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.5, 1.0, 0.0],
                       [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    found, exact = solve_blocks(scores[None], [4], [4], 1e-12)
    assert exact == 2 == _uncertified_components(scores, 1e-12)
    assert found.tolist() == [[0, 1, 1], [0, 3, 2]]


# Scores in place of a continuous draw: inadmissible or never taken.
_SPECIAL = [-np.inf, np.nan, -0.5, 0.0]
# Scores on a grid of quarters, so that distinct matchings tie exactly.
_TIED = [-np.inf, np.nan, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0]


@st.composite
def _sparse_pairs(draw):
    """(a, b, scores, gate, tied, shape): distinct cells of an n x m matrix
    in random order, either a band that makes one large component or a
    random set that also leaves cells isolated.  Continuous scores (`tied`
    False) hold at most one cell equal to the gate, so no two matchings tie;
    tied scores lie on a grid of quarters at or above the gate, so many do."""
    n, m = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        step = np.arange(m) - np.arange(n)[:, None]
        a, b = np.nonzero((step == 0) | (step == 1))
    else:
        a, b = np.nonzero(rng.random((n, m)) < draw(st.sampled_from([0.05, 0.2, 0.5])))
    order = rng.permutation(a.size)
    a, b = a[order], b[order]
    tied = draw(st.booleans())
    if tied:
        gate = draw(st.sampled_from([0.1, 0.25]))
        scores = rng.choice(_TIED, a.size)
    else:
        gate = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
        scores = rng.uniform(0.001, 1.0, a.size)
        special = rng.random(a.size) < 0.2
        scores[special] = rng.choice(_SPECIAL, special.sum())
        if a.size and draw(st.booleans()):
            scores[draw(st.integers(0, a.size - 1))] = gate
    return a, b, scores, gate, tied, (n, m)


@settings(max_examples=600, deadline=None)
@given(_sparse_pairs())
def test_solve_pairs_matches_the_dense_solve(case):
    a, b, scores, gate, tied, shape = case
    dense = np.full(shape, -np.inf)
    dense[a, b] = scores
    want = solve(dense, gate)
    got = solve_pairs(a, b, scores, gate)
    pairs = list(zip(got.a.tolist(), got.b.tolist()))
    assert pairs == sorted(pairs)
    assert len(set(got.a.tolist())) == len(set(got.b.tolist())) == len(pairs)
    assert all(dense[i, j] >= gate for i, j in pairs)
    if tied:
        assert sum(dense[i, j] for i, j in pairs) == sum(dense[i, j] for i, j in want)
    else:
        assert pairs == want


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
