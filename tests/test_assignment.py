import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from intertrack.assignment import (_tie_bias, max_weight_matching, solve, solve_blocks,
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
    assert max_weight_matching(scores) == [(0, 0)]
    # Forcing through the sentinel would beat skipping, but it is inadmissible.
    scores = np.array([[-np.inf]])
    assert max_weight_matching(scores) == []


def test_unmatched_rows_allowed_when_profitable():
    # Row 1 can only reach 0.4 by stealing column 0 from row 0 (total 0.8).
    # Leaving row 1 unmatched keeps the 0.9.
    scores = np.array([[0.9, 0.4], [0.4, -np.inf]])
    assert max_weight_matching(scores) == [(0, 0)]


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
        matches = max_weight_matching(scores)
        # Summation order differs between the two routes, hence the epsilon.
        assert abs(matched_total(scores, matches) - brute_force_total(scores)) < 1e-12


def test_scaling_preserves_argmax():
    rng = np.random.RandomState(19)
    for _ in range(50):
        scores = rng.uniform(0, 1, (5, 5))
        base = max_weight_matching(scores)
        assert max_weight_matching(scores * 7.5) == base
        assert max_weight_matching(scores * 0.01) == base


def test_tie_break_prefers_low_indices():
    assert max_weight_matching(np.array([[0.5, 0.5]])) == [(0, 0)]
    assert max_weight_matching(np.array([[0.5], [0.5]])) == [(0, 0)]


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
    """The reference: the Hungarian matching of the whole block, then the gate."""
    return [(i, j) for i, j in max_weight_matching(block) if block[i, j] >= gate]


@settings(max_examples=1000, deadline=None)
@given(_chunks())
def test_solve_blocks_matches_hungarian_block_by_block(chunk):
    scores, n, m, gate = chunk
    found, fallback = solve_blocks(scores, n, m, gate)
    assert found.shape == (len(found), 3)
    assert 0 <= fallback <= len(n)
    # In (block, row) order, each block's matches as `solve` lists them.
    assert [[k, i, j] for k in range(len(n))
            for i, j in _hungarian(scores[k, :n[k], :m[k]], gate)] == found.tolist()
    for k in range(len(n)):
        block = scores[k, :n[k], :m[k]]
        assert solve(block, gate) == _hungarian(block, gate)


def test_zero_score_at_first_cell_is_never_matched():
    # The tie bias of cell (0, 0) is 0, so its biased score is exactly 0.
    scores = np.array([[0.0, -np.inf], [0.0, 0.6]])
    assert solve(scores, gate=0.2) == _hungarian(scores, 0.2) == [(1, 1)]
    assert solve(np.zeros((1, 1)), gate=0.2) == []


def test_tied_row_best_goes_to_the_fallback():
    # Row 1's two cells tie after the bias.  The Hungarian solve spends
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
    assert (got.components, got.largest, got.fallback) == (1, 2, 0)


def test_cells_below_the_gate_steer_the_match():
    # (0, 0) + (1, 1) = 1.0 beats (0, 1) = 0.6, though (1, 1) is gated away.
    a, b = np.array([0, 0, 1]), np.array([0, 1, 1])
    got = solve_pairs(a, b, np.array([0.55, 0.6, 0.45]), 0.5)
    assert (got.a.tolist(), got.b.tolist()) == ([0], [0])
