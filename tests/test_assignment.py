import itertools

import numpy as np

from intertrack.assignment import max_weight_matching, solve

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
