import collections
import dataclasses
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from intertrack import assignment, hierarchy
from intertrack.assignment import solve, solve_blocks
from intertrack.geometry import SimilarityKernel
from intertrack.hierarchy import (
    _admissible_pairs,
    _chain_layout,
    _interval_admissible,
    _tracklet_table,
    _window_pairs,
    adjacent_pass,
    byte_recovery,
    consistent_motion_pass,
    engine_order,
    hierarchy_pass,
    resolve_overlap,
    run_table,
)
from intertrack.model import (
    BoundingBox,
    Detection,
    Strategy,
    TrackerConfig,
    stack_boxes,
    table_of,
    tracks_table,
)
from intertrack.metrics import evaluate
from intertrack.motion import FitCache, _advance, kalman_states, pair_scores
from intertrack.mot_io import numbered, read_detection_table, write_mot_detections
from intertrack.refine import split_rows
from intertrack.synth import Motion, ScenarioSpec, generate


def det(frame, x, y=200.0, w=40.0, h=80.0, score=0.9, det_id=None, class_id=0):
    if det_id is None:
        det_id = frame * 1000 + int(x)
    return Detection(frame=frame, box=BoundingBox(x, y, w, h), score=score,
                     det_id=det_id, class_id=class_id)


def piece(frames, x, dx=0.0, **kw):
    """The detections of one tracklet, in frame order."""
    return [det(f, x + dx * (f - frames[0]), **kw) for f in frames]


def constant_sim(tracklets, a, b):
    return np.ones(len(a))


def spans(tracklets):
    return sorted(zip(tracklets.t_min.tolist(), tracklets.t_max.tolist()))


def pieces(rows, size):
    """Runs laid end to end in `rows` with the given sizes, one array each."""
    return np.split(rows, np.cumsum(size)[:-1])


def detection_table(dets):
    """The engine's table of `dets` and, per row, the index of its detection."""
    table = table_of(dets)
    order = engine_order(table)
    return table.take(order), order


def state_of(pieces, low=(), first_tid=1):
    """The engine's table of the pieces' entries and the `low` detections,
    the pieces as its `TrackletTable` with tids first_tid, first_tid + 1, ...
    in piece order, and the low detections' rows in table order."""
    entries = [e for p in pieces for e in p] + list(low)
    table, order = detection_table(entries)
    row_of = np.argsort(order)
    size = np.array([len(p) for p in pieces], np.intp)
    rows = row_of[:size.sum()]
    low_rows = np.sort(row_of[len(entries) - len(low):])
    tid = np.arange(first_tid, first_tid + size.size)
    return table, _tracklet_table(table.frame, rows, size, tid), low_rows


def tracklet_input(*pieces):
    """The table of the pieces' entries, `id` their det_ids, and the
    pieces as runs of its rows (rows, sizes): the input of `run_table` in
    recombination mode."""
    size = np.array([len(p) for p in pieces], np.intp)
    return table_of([e for p in pieces for e in p]), (np.arange(size.sum()), size)


# The frame axis of one sequence on its own frames.
ALONE = hierarchy._Axis(np.zeros(1, np.int64), np.zeros(1, np.int64))


def interval_pass(table, tracklets, dt_bound, overlap_allowance, score, gate):
    """`hierarchy_pass` under the interval schedule's pair rule."""
    return hierarchy_pass(table, tracklets,
                          lambda t: _admissible_pairs(t, dt_bound, overlap_allowance),
                          overlap_allowance, score, gate, f"gap {dt_bound}")


def window_pass(table, tracklets, window_size, score, gate):
    """`hierarchy_pass` under the window schedule's pair rule."""
    return hierarchy_pass(table, tracklets, lambda t: _window_pairs(t, window_size, ALONE), 0,
                          score, gate, f"window {window_size}")


def tracks_of(result):
    """Each output track's rows of the engine's table, in track id order."""
    return np.split(result.rows, np.flatnonzero(np.diff(result.track)) + 1) \
        if result.rows.size else []


def table_rows(dets):
    """The table of `dets` and all its rows."""
    table, _ = detection_table(dets)
    return table, np.arange(len(dets))


class TestAdjacentPass:
    def test_obvious_targets_chain_fully(self):
        cfg = TrackerConfig()
        dets = [det(f, x, det_id=f * 10 + k)
                for f in range(1, 6) for k, x in enumerate([100.0, 400.0])]
        table, rows = table_rows(dets)
        chains = pieces(*adjacent_pass(table, rows, SimilarityKernel(cfg), cfg.match_threshold))
        assert len(chains) == 2
        for chain in chains:
            frames = table.frame[chain].tolist()
            assert frames == list(range(1, 6))

    def test_gap_breaks_chain(self):
        cfg = TrackerConfig()
        dets = [det(f, 100.0) for f in (1, 2, 4, 5)]
        _, size = adjacent_pass(*table_rows(dets), SimilarityKernel(cfg), cfg.match_threshold)
        assert sorted(size.tolist()) == [2, 2]

    def test_non_overlapping_boxes_stay_apart(self):
        cfg = TrackerConfig()
        dets = [det(1, 100.0), det(2, 900.0)]
        _, size = adjacent_pass(*table_rows(dets), SimilarityKernel(cfg), cfg.match_threshold)
        assert size.size == 2


class TestHierarchyPassAdmissibility:
    def make_state(self, pieces, first_tid=1):
        return state_of(pieces, first_tid=first_tid)[:2]

    def test_gap_equal_to_bound_merges(self):
        a = piece(range(1, 5), 100.0)
        b = piece(range(10, 14), 100.0)  # gap = 10 - 4 = 6
        out = interval_pass(*self.make_state([a, b]), 6, 0, constant_sim, gate=0.2)
        assert out.tid.size == 1
        assert out.t_min[0] == 1 and out.t_max[0] == 13

    def test_gap_above_bound_does_not_merge(self):
        a = piece(range(1, 5), 100.0)
        b = piece(range(11, 15), 100.0)  # gap = 7
        out = interval_pass(*self.make_state([a, b]), 6, 0, constant_sim, gate=0.2)
        assert out.tid.size == 2

    def test_zero_gap_needs_overlap_allowance(self):
        a = piece(range(1, 5), 100.0)
        b = piece(range(4, 8), 100.0, det_id=50)  # b starts on a's last frame
        no_overlap = interval_pass(*self.make_state([a, b]), 5, 0, constant_sim, 0.2)
        assert no_overlap.tid.size == 2
        with_overlap = interval_pass(*self.make_state([a, b]), 5, 5, constant_sim, 0.2)
        assert with_overlap.tid.size == 1

    def test_overlap_beyond_allowance_not_admitted(self):
        a = piece(range(1, 10), 100.0)
        b = piece(range(3, 12), 100.0, det_id=50)  # overlap of 7 frames
        out = interval_pass(*self.make_state([a, b]), 5, 5, constant_sim, 0.2)
        assert out.tid.size == 2

    def test_overlap_allowance_counts_shared_frames(self):
        a = piece(range(1, 11), 100.0)
        six = piece(range(5, 13), 100.0, det_id=50)   # shares frames 5..10
        five = piece(range(6, 13), 100.0, det_id=50)  # shares frames 6..10
        out = interval_pass(*self.make_state([a, six]), 30, 5, constant_sim, 0.2)
        assert spans(out) == [(1, 10), (5, 12)]
        out = interval_pass(*self.make_state([a, five]), 30, 5, constant_sim, 0.2)
        assert spans(out) == [(1, 12)]

    def test_classes_never_mix(self):
        # Each class runs an engine of its own, on its own table.
        a = piece(range(1, 5), 100.0, class_id=0)
        b = piece(range(6, 10), 100.0, class_id=1)
        table, runs = tracklet_input(a, b)
        out = run_table(table, TrackerConfig(), runs)
        assert len(tracks_of(out)) == 2

    def test_fixpoint_chains_fragments_within_one_level(self):
        frags = [piece(range(1 + 7 * i, 5 + 7 * i), 100.0) for i in range(3)]
        out = interval_pass(*self.make_state(frags), 5, 0, constant_sim, 0.2)
        assert out.tid.size == 1
        assert out.size.tolist() == [12]

    def test_pass_returns_a_new_state_three_to_one(self):
        # A merge takes the tid after the highest one, which is never reused.
        frags = [piece(range(1 + 7 * i, 5 + 7 * i), 100.0) for i in range(3)]
        table, tracklets = self.make_state(frags, first_tid=97)
        out = interval_pass(table, tracklets, 5, 0, constant_sim, 0.2)
        assert tracklets.tid.tolist() == [97, 98, 99]
        assert out.tid.tolist() == [100]


# A tracklet population: per tracklet a first frame and the frame steps to
# its later entries.  Narrow start ranges give many equal t_min ties.
_populations = st.lists(st.tuples(st.integers(1, 30), st.lists(st.integers(1, 3), max_size=6)),
                        min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(population=_populations, dt_bound=st.integers(1, 30),
       overlap_allowance=st.integers(0, 5))
def test_sweep_admits_exactly_the_all_pairs_scan(population, dt_bound, overlap_allowance):
    fragments = []
    for tid, (start, steps) in enumerate(population, start=1):
        frames = np.cumsum([start, *steps]).tolist()
        fragments.append([det(f, 100.0, det_id=100 * tid + k) for k, f in enumerate(frames)])
    table, ordered, _ = state_of(fragments)
    n = ordered.tid.size
    scan = [(a, b) for a in range(n) for b in range(n)
            if a != b and _interval_admissible(dt_bound, overlap_allowance, ordered, a, b)]
    a, b = _admissible_pairs(ordered, dt_bound, overlap_allowance)
    assert list(zip(a.tolist(), b.tolist())) == scan
    # The window schedule's pairs: both tracklets inside one window.
    window = (ordered.t_min - 1) // dt_bound
    inside = window == (ordered.t_max - 1) // dt_bound
    a, b = _window_pairs(ordered, dt_bound, ALONE)
    assert list(zip(a.tolist(), b.tolist())) == [
        (x, y) for x, y in scan if inside[x] and inside[y] and window[x] == window[y]
        and _interval_admissible(dt_bound, 0, ordered, x, y)]
    rows = pieces(ordered.rows, ordered.size)
    for a, b in scan:
        resolve_overlap(table, rows[a], rows[b], overlap_allowance)


def _lanes(lanes=40, frames=60):
    """Singletons in lanes 100 px apart, one per lane and frame, each box
    1.5 px right of its lane's box a frame earlier."""
    return [piece([f], 100.0 + 100 * lane + 1.5 * f, det_id=lane * 100 + f)
            for lane in range(lanes) for f in range(1, frames + 1)]


@pytest.mark.parametrize("gate, survivors", [(0.999, 2400), (0.9, 40)])
def test_merge_level_work_is_bounded_by_components_and_chunks(monkeypatch, gate, survivors):
    """2,400 singletons at a gap bound of 5 admit 456,000 pairs, of which
    only the 11,400 inside a lane score above 0.  At gate 0.999 no pair
    links and no block is solved; at 0.9 each lane is one block, its frames
    1..59 as earlier ends by 2..60 as later ones, and merges whole.  No
    kernel call in the scoring takes more than one chunk of pairs."""
    table, tracklets, _ = state_of(_lanes())
    cfg = TrackerConfig()
    kernel, calls, blocks = SimilarityKernel(cfg), [], []

    def recording_kernel(x, y):
        calls.append(len(x))
        return kernel(x, y)

    def recording_solve(scores, n, m, gate):
        blocks.extend(zip(n.tolist(), m.tolist()))
        return solve_blocks(scores, n, m, gate)
    monkeypatch.setattr(assignment, "solve_blocks", recording_solve)
    cache = FitCache(cfg, table.frame, table.boxes)
    out = interval_pass(table, tracklets, 5, 0,
                        lambda tracklets, a, b: pair_scores(tracklets, a, b, recording_kernel,
                                                            cache),
                        gate)
    assert out.tid.size == survivors
    assert max(calls) == assignment._CHUNK_CELLS
    assert blocks == ([] if survivors == 2400 else [(59, 59)] * 40)


@st.composite
def _scenes(draw):
    """Small synthetic scenes: a few targets, crowded in the small arena,
    dropout, noise, score dips below score_high and score_low, and sometimes
    a panning camera."""
    n_targets = draw(st.integers(1, 5))
    n_frames = draw(st.integers(2, 40))
    dips = {}
    for k in range(n_targets):
        if draw(st.booleans()):
            lo = draw(st.integers(1, n_frames))
            dips[k] = [(lo, lo + draw(st.integers(0, 8)), draw(st.sampled_from([0.05, 0.3, 0.5])))]
    return ScenarioSpec(n_targets=n_targets, n_frames=n_frames, seed=draw(st.integers(0, 999)),
                        arena=draw(st.sampled_from([(150.0, 120.0), (400.0, 300.0)])),
                        box_size=(10.0, 50.0),
                        max_speed=draw(st.sampled_from([0.5, 2.0, 5.0])),
                        miss_prob=draw(st.sampled_from([0.0, 0.1, 0.3])),
                        noise_sigma=draw(st.sampled_from([0.0, 1.0])), score_dips=dips,
                        camera_pan=(draw(st.sampled_from([0.0, 10.0])), 0.0))


def assert_tracklet_table(level):
    """A level's table holds each row at most once, every tracklet strictly
    increasing in frame, its t_min, t_max, first and last rows agreeing with
    its rows, and unique tids in (t_min, t_max, tid) order."""
    t = level.tracklets
    assert t.size.min() >= 1 and t.size.sum() == t.rows.size
    assert np.unique(t.rows).size == t.rows.size
    runs = pieces(t.rows, t.size)
    for rows in runs:
        assert (np.diff(level.frame[rows]) > 0).all()
    assert t.first().tolist() == [rows[0] for rows in runs]
    assert t.last().tolist() == [rows[-1] for rows in runs]
    assert t.t_min.tolist() == [level.frame[rows[0]] for rows in runs]
    assert t.t_max.tolist() == [level.frame[rows[-1]] for rows in runs]
    keys = list(zip(t.t_min.tolist(), t.t_max.tolist(), t.tid.tolist()))
    assert keys == sorted(keys) and len(set(t.tid.tolist())) == len(keys)


@settings(max_examples=100, deadline=None)
@given(scene=_scenes(), strategy=st.sampled_from(list(Strategy)))
def test_engine_invariants_on_synth_scenes(scene, strategy):
    cfg = TrackerConfig()
    if strategy is Strategy.WINDOW:
        cfg = dataclasses.replace(cfg, strategy=Strategy.WINDOW)
    _, dets = generate(scene)
    result = run_table(table_of(dets), cfg)
    for level in (level for info in result.per_class for level in info.levels):
        assert_tracklet_table(level)
    # The engine's table: its rows in (frame, det_id) order, det_ids 1..N.
    frame, score = result.table.frame, result.table.score
    assert result.table.id.tolist() == list(range(1, len(dets) + 1))
    placed = collections.Counter(result.rows.tolist())
    for rows in tracks_of(result):
        assert np.unique(frame[rows]).size == rows.size
        assert (score[rows] >= cfg.score_high).any()
    final_overlap = cfg.stages[-1].overlap
    for row in range(len(dets)):
        if score[row] < cfg.score_high:
            assert placed[row] <= 1
        elif placed[row] == 0 and final_overlap:
            # Only the final overlap level drops a high-score detection: for
            # a frame two merged tracklets share it keeps the higher score.
            kept = result.rows
            assert ((frame[kept] == frame[row]) & (score[kept] >= score[row])).any()
        else:
            assert placed[row] == 1


@settings(max_examples=60, deadline=None)
@given(scene=_scenes(), strategy=st.sampled_from(list(Strategy)),
       shuffler=st.randoms(use_true_random=False))
# Two targets whose equal-score boxes share their first frames meet at the
# final overlap level; with the tie decided by det_id, file order picked the
# surviving box.
@example(scene=ScenarioSpec(n_targets=4, n_frames=35, seed=999, arena=(150.0, 120.0),
                            box_size=(10.0, 50.0), max_speed=0.5, miss_prob=0.3,
                            camera_pan=(10.0, 0.0)),
         strategy=Strategy.INTERVAL, shuffler=random.Random(0))
def test_row_order_keeps_the_partition(tmp_path_factory, scene, strategy, shuffler):
    """Shuffling a detection file's rows keeps every track as a set of
    (frame, box) and the MOTA/IDF1 against ground truth.  Track ids and
    output row order may differ: det_id follows file order."""
    cfg = TrackerConfig()
    if strategy is Strategy.WINDOW:
        cfg = dataclasses.replace(cfg, strategy=Strategy.WINDOW)
    gt, dets = generate(scene)
    path = tmp_path_factory.mktemp("rows") / "det.txt"
    write_mot_detections(dets, path)
    rows = path.read_text().splitlines(keepends=True)
    ordered = run_table(read_detection_table(path), cfg)
    path.write_text("".join(shuffler.sample(rows, len(rows))))
    shuffled = run_table(read_detection_table(path), cfg)

    def partition(result):
        frame, boxes = result.table.frame.tolist(), result.table.boxes.tolist()
        return {frozenset((frame[r], tuple(boxes[r])) for r in rows.tolist())
                for rows in tracks_of(result)}

    assert partition(shuffled) == partition(ordered)
    truth = tracks_table(gt)
    a, b = evaluate(truth, ordered.output()), evaluate(truth, shuffled.output())
    assert (a.mota, a.idf1) == (b.mota, b.idf1)


class TestWindowPass:
    def test_merges_only_inside_window(self):
        a = piece([7], 100.0)
        b = piece([8], 100.0)   # frames 7,8 share window (8,...) of size 8
        c = piece([9], 100.0)   # next window
        table, tracklets, _ = state_of([a, b, c])
        out = window_pass(table, tracklets, 8, constant_sim, 0.2)
        assert spans(out) == [(7, 8), (9, 9)]

    def test_straddling_tracklet_sits_out(self):
        straddler = piece([8, 9], 100.0)   # crosses the window-8 boundary
        a = piece([2], 100.0)
        b = piece([4], 100.0)
        table, tracklets, _ = state_of([straddler, a, b])
        out = window_pass(table, tracklets, 8, constant_sim, 0.2)
        assert spans(out) == [(2, 4), (8, 9)]

    def test_adjacent_windows_not_bridged(self):
        a = piece([1, 2], 100.0)
        b = piece([3, 4], 100.0)
        table, tracklets, _ = state_of([a, b])
        out = window_pass(table, tracklets, 2, constant_sim, 0.2)
        assert out.tid.size == 2


class TestByteRecovery:
    def recover(self, frames, low):
        cfg = TrackerConfig()
        table, tracklets, low_rows = state_of([piece(frames, 100.0)], low=low)
        return table, byte_recovery(table, tracklets, low_rows, SimilarityKernel(cfg),
                                    cfg.match_threshold)

    def test_low_extends_tracklet_forward(self):
        table, out = self.recover(range(1, 4), [det(4, 100.0, score=0.3)])
        assert out.tid.size == 1
        assert out.t_max[0] == 4
        assert table.score[out.last()[0]] == pytest.approx(0.3)

    def test_low_extends_tracklet_backward(self):
        _, out = self.recover(range(5, 8), [det(4, 100.0, score=0.3)])
        assert out.t_min[0] == 4

    def test_non_adjacent_low_is_dropped(self):
        _, out = self.recover(range(1, 4), [det(9, 100.0, score=0.3)])
        assert out.tid.size == 1
        assert out.t_max[0] == 3

    def test_far_away_low_is_dropped(self):
        _, out = self.recover(range(1, 4), [det(4, 1500.0, score=0.3)])
        assert out.t_max[0] == 3

    def test_chained_absorption_across_frames(self):
        _, out = self.recover(range(1, 4), [det(4, 100.0, score=0.3), det(5, 100.0, score=0.3)])
        assert out.t_max[0] == 5


@st.composite
def _recovery_scenes(draw):
    """Tracklets of high-score rows on a few nearby lanes, and low-score rows
    chained forward after their ends and backward before their starts, plus
    stray ones, several to a frame."""
    ids = iter(range(1, 1000))
    near = st.floats(-25.0, 25.0)
    tracks, low = [], []
    for _ in range(draw(st.integers(1, 5))):
        start, length = draw(st.integers(4, 16)), draw(st.integers(1, 5))
        x = draw(st.sampled_from([100.0, 115.0, 140.0]))
        tracks.append([det(f, x + 2.0 * (f - start), det_id=next(ids))
                       for f in range(start, start + length)])
        for k in range(draw(st.integers(0, 3))):
            low.append(det(start + length + k, x + draw(near), score=0.3, det_id=next(ids)))
        for k in range(draw(st.integers(0, 3))):
            low.append(det(start - 1 - k, x + draw(near), score=0.3, det_id=next(ids)))
    for _ in range(draw(st.integers(0, 6))):
        low.append(det(draw(st.integers(1, 24)), draw(st.floats(80.0, 160.0)), score=0.3,
                       det_id=next(ids)))
    return tracks, low


@settings(max_examples=200, deadline=None)
@given(scene=_recovery_scenes())
def test_byte_recovery_matches_the_per_tracklet_loop(scene):
    tracks, low = scene
    cfg = TrackerConfig()
    table, t, low_rows = state_of(tracks, low=low)
    objects = [reference.TrackletRows(tid, rows, t_min, t_max) for tid, rows, t_min, t_max in
               zip(t.tid.tolist(), pieces(t.rows, t.size), t.t_min.tolist(), t.t_max.tolist())]
    kernel = SimilarityKernel(cfg)
    want = reference.byte_recovery(table, objects, int(t.tid.max()) + 1, low_rows, kernel,
                                   cfg.match_threshold)
    got = byte_recovery(table, t, low_rows, kernel, cfg.match_threshold)
    assert got.tid.tolist() == [o.tid for o in want]
    assert [rows.tolist() for rows in pieces(got.rows, got.size)] == \
        [o.rows.tolist() for o in want]


@st.composite
def _matchings(draw):
    """Links a -> b among nodes 0..count-1, a < b, with at most one link into
    and one out of each node, in drawn order."""
    count = draw(st.integers(1, 30))
    node = st.integers(0, count - 1)
    link, into = {}, set()
    for a, b in draw(st.lists(st.tuples(node, node), max_size=40)):
        if a < b and a not in link and b not in into:
            link[a] = b
            into.add(b)
    return count, link


@settings(max_examples=300, deadline=None)
@given(matching=_matchings())
def test_component_chains_follow_the_links(matching):
    count, link = matching
    order, parts = _chain_layout(count, np.array(list(link), np.intp),
                                 np.array(list(link.values()), np.intp))
    chains = [chain.tolist() for chain in pieces(order, parts)]
    # Every position, as the first level chains its frame links.
    assert chains == reference.chains(link, range(count))
    # The linked nodes only, as a merge round chains its matches.
    assert [chain for chain in chains if len(chain) > 1] == reference.chains(link, sorted(link))


class TestConsistentMotionPass:
    def test_unambiguous_scene_matches_static_result(self):
        cfg = TrackerConfig()
        kernel = SimilarityKernel(cfg)
        dets = [det(f, x, det_id=f * 10 + k)
                for f in range(1, 8) for k, x in enumerate([100.0, 500.0])]
        table, rows = table_rows(dets)
        static = adjacent_pass(table, rows, kernel, cfg.match_threshold)
        refined = consistent_motion_pass(table, rows, static, cfg, kernel)
        key = lambda chains: sorted(tuple(table.id[c].tolist()) for c in pieces(*chains))
        assert key(refined) == key(static)

    def test_chains_stay_frame_consecutive(self):
        cfg = TrackerConfig()
        kernel = SimilarityKernel(cfg)
        rng = np.random.RandomState(7)
        dets = []
        for f in range(1, 10):
            for k, x in enumerate([100.0, 240.0, 380.0]):
                dets.append(det(f, x + rng.uniform(-2, 2), det_id=f * 10 + k))
        table, rows = table_rows(dets)
        static = adjacent_pass(table, rows, kernel, cfg.match_threshold)
        refined = consistent_motion_pass(table, rows, static, cfg, kernel)
        for chain in pieces(*refined):
            frames = table.frame[chain].tolist()
            assert frames == list(range(frames[0], frames[0] + len(frames)))


def _per_frame_link(detections, score, gate):
    """Reference first level: one `solve(score(rows, cols))` per frame pair."""
    grouped = {}
    for d in sorted(detections, key=lambda d: (d.frame, d.det_id)):
        grouped.setdefault(d.frame, []).append(d)
    link, has_pred = {}, set()
    for t in sorted(grouped):
        rows, cols = grouped[t], grouped.get(t + 1)
        if not cols:
            continue
        for i, j in solve(score(rows, cols), gate):
            link[rows[i].det_id] = cols[j]
            has_pred.add(cols[j].det_id)
    chains = []
    for d in sorted(detections, key=lambda d: (d.frame, d.det_id)):
        if d.det_id not in has_pred:
            chain = [d]
            while chain[-1].det_id in link:
                chain.append(link[chain[-1].det_id])
            chains.append(chain)
    return chains


def _per_frame_motion_score(chains, cfg, kernel):
    """Reference motion-consistent frame-pair score, one pair at a time."""
    runs = [*chains, *(chain[::-1] for chain in chains)]
    entries = [d for run in runs for d in run]
    states = kalman_states(np.array([d.frame for d in entries]),
                           stack_boxes([d.box for d in entries]), np.arange(len(entries)),
                           np.array([len(run) for run in runs], np.intp), cfg)
    half = len(entries) // 2
    fwd = {d.det_id: k for k, d in enumerate(entries[:half])}
    bwd = {d.det_id: k for k, d in enumerate(entries[half:], half)}

    def score(rows, cols):
        ahead = _advance(states[[fwd[d.det_id] for d in rows]], 1)
        behind = _advance(states[[bwd[d.det_id] for d in cols]], 1)
        return 0.5 * (kernel.matrix(ahead, stack_boxes([d.box for d in cols]))
                      + kernel.matrix(stack_boxes([d.box for d in rows]), behind))
    return score


@st.composite
def _frame_sets(draw):
    """Detections on ragged frames: gaps leave frames missing and others
    without a successor, some frames hold one detection, and sometimes one
    frame holds far more than the rest.  det_ids do not follow input order."""
    frames, t = [], 0
    for _ in range(draw(st.integers(1, 12))):
        t += draw(st.sampled_from([1, 1, 1, 2, 3]))
        frames.append(t)
    sizes = [draw(st.integers(1, 6)) for _ in frames]
    if draw(st.booleans()):
        sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(20, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    ids = rng.permutation(sum(sizes)) + 1
    dets = []
    for f, n in zip(frames, sizes):
        for cx, cy, w, h in zip(rng.uniform(0, 200, n), rng.uniform(0, 150, n),
                                rng.uniform(8, 80, n), rng.uniform(8, 80, n)):
            dets.append(Detection(frame=f, box=BoundingBox(cx, cy, w, h), score=0.9,
                                  det_id=int(ids[len(dets)])))
    return dets


@settings(max_examples=100, deadline=None)
@given(dets=_frame_sets(),
       cfg=st.sampled_from([TrackerConfig(), TrackerConfig(use_hm_iou=True),
                            TrackerConfig(enable_ci=False)]))
def test_chunked_first_level_matches_per_frame_pairs(dets, cfg):
    kernel = SimilarityKernel(cfg)
    gate = cfg.match_threshold
    ids = lambda chains: [[d.det_id for d in chain] for chain in chains]
    table, rows = table_rows(dets)
    row_ids = lambda chains: [table.id[chain].tolist() for chain in pieces(*chains)]
    static = _per_frame_link(
        dets, lambda rows, cols: kernel.matrix(stack_boxes([d.box for d in rows]),
                                               stack_boxes([d.box for d in cols])), gate)
    motion = _per_frame_link(dets, _per_frame_motion_score(static, cfg, kernel), gate)
    link_frames = hierarchy._link_frames
    for budget in (1, 7, 64):
        calls = []

        def recording(frame, score, gate):
            def scored(rows, cols):
                out = score(rows, cols)
                assert out.shape == (len(rows), rows.shape[1], cols.shape[1])
                assert np.isfinite(out).all()
                calls.append((out.size, len(rows)))
                return out
            return link_frames(frame, scored, gate)

        with mock.patch.object(assignment, "_CHUNK_CELLS", budget), \
                mock.patch.object(hierarchy, "_link_frames", recording):
            chains = adjacent_pass(table, rows, kernel, gate)
            assert row_ids(chains) == ids(static)
            assert row_ids(consistent_motion_pass(table, rows, chains, cfg, kernel)) == ids(motion)
        # Only a block larger than the budget by itself exceeds it.
        assert all(cells <= budget or pairs == 1 for cells, pairs in calls)


@settings(max_examples=50, deadline=None)
@given(sets=st.lists(_frame_sets(), min_size=2, max_size=4), gap=st.integers(2, 40),
       cfg=st.sampled_from([TrackerConfig(), TrackerConfig(use_hm_iou=True)]))
def test_first_level_links_sequences_as_if_alone(sets, gap, cfg):
    # Frame sets of different sequences laid end to end, each `gap` frames
    # after the last one ends: both first-level passes link each alone.
    kernel, gate = SimilarityKernel(cfg), cfg.match_threshold
    laid, end = [], 0
    for k, dets in enumerate(sets):
        shift = end + gap - dets[0].frame if k else 0
        laid += [dataclasses.replace(d, frame=d.frame + shift, det_id=d.det_id + 1000 * k)
                 for d in dets]
        end = laid[-1].frame

    def both_passes(dets):
        table, rows = table_rows(dets)
        chains = adjacent_pass(table, rows, kernel, gate)
        motion = consistent_motion_pass(table, rows, chains, cfg, kernel)
        return [[table.id[chain].tolist() for chain in pieces(*found)]
                for found in (chains, motion)]
    alone = [both_passes([dataclasses.replace(d, det_id=d.det_id + 1000 * k) for d in dets])
             for k, dets in enumerate(sets)]
    assert both_passes(laid) == [sum((a[p] for a in alone), []) for p in (0, 1)]


class TestFullRun:
    def three_targets_one_gap(self):
        # 3 targets over 4 frames; the middle one is missed at frame 3.
        dets = []
        did = 0
        for f in range(1, 5):
            for k, x in enumerate([100.0, 300.0, 500.0]):
                if k == 1 and f == 3:
                    continue
                did += 1
                dets.append(det(f, x, det_id=did))
        return dets

    def test_gap_is_bridged_at_second_level(self):
        res = run_table(table_of(self.three_targets_one_gap()), TrackerConfig())
        info = res.per_class[0]
        assert info.counts[0] == 11          # singletons
        assert info.counts[1] == 4           # after frame-adjacent level
        assert info.counts[2] == 3           # gap bridged at the second level
        assert len(tracks_of(res)) == 3
        by_label = {lv.label: lv for lv in info.levels}
        level1 = by_label["level-1 (gap 1)"]
        assert sorted(len(m) for m in level1.members) == [1, 2, 4, 4]
        level2 = by_label["level-2 (gap 5)"]
        frames_per_tracklet = sorted(sorted(f for f, _ in m) for m in level2.members)
        assert frames_per_tracklet == [[1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 4]]

    def test_counts_monotone_and_entries_conserved(self):
        spec = ScenarioSpec(n_targets=6, n_frames=60, motion=Motion.LINEAR, seed=3,
                            miss_intervals={2: [(20, 24)], 4: [(31, 33)]})
        gt, dets = generate(spec)
        res = run_table(table_of(dets), TrackerConfig())
        counts = res.per_class[0].counts
        assert all(b <= a for a, b in zip(counts[1:], counts[2:]))
        assert res.rows.size == len(dets)

    def test_empty_input(self):
        res = run_table(table_of([]), TrackerConfig())
        assert res.rows.size == 0 and res.output().frame.size == 0

    def test_all_low_scores_give_no_tracks(self):
        dets = [det(f, 100.0, score=0.3) for f in range(1, 6)]
        assert run_table(table_of(dets), TrackerConfig()).rows.size == 0

    def test_classes_tracked_separately(self):
        dets = []
        for f in range(1, 5):
            dets.append(det(f, 100.0, det_id=f * 10, class_id=0))
            dets.append(det(f, 100.0, det_id=f * 10 + 1, class_id=1))
        res = run_table(table_of(dets), TrackerConfig())
        tracks = tracks_of(res)
        assert len(tracks) == 2
        assert sorted(int(res.table.class_id[rows[0]]) for rows in tracks) == [0, 1]

    def test_track_ids_sequential_from_one(self):
        res = run_table(table_of(self.three_targets_one_gap()), TrackerConfig())
        assert np.unique(res.track).tolist() == [1, 2, 3]

    def test_deterministic_under_input_shuffle(self):
        spec = ScenarioSpec(n_targets=5, n_frames=40, motion=Motion.SINUSOIDAL,
                            seed=11, noise_sigma=0.5)
        _, dets = generate(spec)
        rng = np.random.RandomState(0)
        shuffled = list(dets)
        rng.shuffle(shuffled)
        a = run_table(table_of(dets), TrackerConfig()).output()
        b = run_table(table_of(shuffled), TrackerConfig()).output()
        fingerprint = lambda out: list(zip(out.id.tolist(), out.frame.tolist(),
                                           out.boxes.tolist()))
        assert fingerprint(a) == fingerprint(b)

    def test_static_scene_reports_static_camera(self):
        _, dets = generate(ScenarioSpec(n_targets=3, n_frames=30, max_speed=0.0,
                                        motion=Motion.LINEAR, seed=5))
        res = run_table(table_of(dets), TrackerConfig())
        profile = res.per_class[0].camera
        assert profile is not None and not profile.moving

    def test_panning_scene_keeps_input_boxes_exactly(self):
        # Association runs on stabilized boxes; the output keeps the input's.
        for seed in range(1, 9):
            _, dets = generate(ScenarioSpec(n_targets=4, n_frames=60, seed=seed,
                                            camera_pan=(20.3, 1.7)))
            res = run_table(table_of(dets), TrackerConfig())
            assert res.per_class[0].camera.moving
            _, order = detection_table(dets)  # engine row k is dets[order[k]]
            assert res.rows.size == len(dets)
            out = res.output()
            want = [dets[k] for k in order[res.rows]]
            assert out.frame.tolist() == [d.frame for d in want]
            assert out.boxes.tolist() == [[d.box.cx, d.box.cy, d.box.w, d.box.h] for d in want]

    def test_low_score_detections_never_start_tracks(self):
        dets = [det(f, 100.0, score=0.9, det_id=f) for f in range(1, 5)]
        dets += [det(f, 900.0, score=0.3, det_id=100 + f) for f in range(1, 5)]
        out = run_table(table_of(dets), TrackerConfig()).output()
        assert np.unique(out.id).tolist() == [1]
        assert (out.boxes[:, 0] < 500.0).all()


class TestWindowScheduleRun:
    def test_panning_scene_chains_detections_once(self, monkeypatch):
        calls = []
        adjacent = hierarchy.adjacent_pass
        monkeypatch.setattr(hierarchy, "adjacent_pass",
                            lambda *args: calls.append(1) or adjacent(*args))
        _, dets = generate(ScenarioSpec(n_targets=4, n_frames=40, seed=3, max_speed=0.0,
                                        box_size=(48.0, 48.0), camera_pan=(20.0, 0.0)))
        cfg = dataclasses.replace(TrackerConfig(),
                                  strategy=Strategy.WINDOW)
        res = run_table(table_of(dets), cfg)
        assert res.per_class[0].camera.moving
        assert len(calls) == 1


    def test_window_schedule_end_to_end(self):
        cfg = dataclasses.replace(TrackerConfig(),
                                  strategy=Strategy.WINDOW)
        _, dets = generate(ScenarioSpec(n_targets=4, n_frames=50,
                                        motion=Motion.LINEAR, seed=2))
        res = run_table(table_of(dets), cfg)
        counts = res.per_class[0].counts
        assert counts[0] == len(dets)
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert len(tracks_of(res)) >= 4

    def test_low_scores_absorbed_right_after_level_one(self):
        cfg = dataclasses.replace(TrackerConfig(),
                                  strategy=Strategy.WINDOW)
        dets = [det(f, 100.0, det_id=f) for f in range(1, 5)]
        dets.append(det(5, 100.0, score=0.3, det_id=5))
        info = run_table(table_of(dets), cfg).per_class[0]
        labels = [lv.label for lv in info.levels]
        assert labels[:3] == ["singletons", "level-1 (window 2)", "low-score recovery"]
        frames = sorted(tuple(f for f, _ in m) for m in info.levels[1].members)
        assert frames == [(1, 2), (3, 4)]
        frames = sorted(tuple(f for f, _ in m) for m in info.levels[2].members)
        assert frames == [(1, 2), (3, 4, 5)]


class TestRecombination:
    def test_fragments_rejoin(self):
        a = piece(range(1, 5), 100.0, dx=2.0)
        b = piece(range(9, 14), 100.0 + 2.0 * 8, dx=2.0, det_id=50)
        table, runs = tracklet_input(a, b)
        res = run_table(table, TrackerConfig(), runs)
        (rows,) = tracks_of(res)
        assert res.table.frame[rows].tolist() == [*range(1, 5), *range(9, 14)]

    def test_distinct_targets_stay_apart(self):
        a = piece(range(1, 5), 100.0)
        b = piece(range(9, 14), 900.0)
        table, runs = tracklet_input(a, b)
        res = run_table(table, TrackerConfig(), runs)
        assert len(tracks_of(res)) == 2

    def test_duplicate_input_ids_are_tolerated(self):
        # One input track id over both fragments: split into two tracklets,
        # which rejoin.
        a = piece(range(1, 5), 100.0)
        b = piece(range(9, 14), 100.0, det_id=50)
        table = table_of(a + b)
        runs = split_rows(table._replace(id=np.full_like(table.id, 7)))
        assert runs[1].tolist() == [4, 5]
        res = run_table(table, TrackerConfig(), runs)
        assert len(tracks_of(res)) == 1

    def test_empty_input(self):
        nothing = np.zeros(0, np.intp)
        res = run_table(table_of([]), TrackerConfig(), (nothing, nothing))
        assert res.rows.size == 0 and res.output().frame.size == 0

    def test_panning_scene_is_stabilized_and_restored(self):
        # Association runs on stabilized boxes; the output keeps the input's.
        for pan in ((20.0, 0.0), (20.3, 1.7)):
            gt, _ = generate(ScenarioSpec(n_targets=4, n_frames=60, seed=3, max_speed=0.0,
                                          box_size=(48.0, 48.0), camera_pan=pan))
            fragments = []
            for k, traj in enumerate(gt):
                entries = [dataclasses.replace(e, det_id=100 * k + i)
                           for i, e in enumerate(traj.entries)]
                fragments += [entries[:25], entries[30:]]
            boxes_in = {e.det_id: e.box for p in fragments for e in p}
            table, runs = tracklet_input(*fragments)
            res = run_table(table, TrackerConfig(), runs)
            assert res.per_class[0].camera.moving
            assert res.rows.size == len(boxes_in)
            for det_id, box in zip(res.table.id[res.rows].tolist(),
                                   res.table.boxes[res.rows].tolist()):
                b = boxes_in[det_id]
                assert box == [b.cx, b.cy, b.w, b.h]


class TestLevelRecord:
    """`ClassRunResult.counts` read against the class's level log."""

    RECOVERY = "low-score recovery"

    def dets(self):
        # Class 0: one target over frames 1-8 plus a low-score box at frame 9,
        # and a second target over frames 12-15; class 1: low-score boxes only.
        dets = [det(f, 100.0, det_id=f) for f in range(1, 9)]
        dets.append(det(9, 100.0, score=0.3, det_id=9))
        dets += [det(f, 600.0, det_id=f) for f in range(12, 16)]
        dets += [det(f, 300.0, score=0.3, det_id=100 + f, class_id=1) for f in range(1, 5)]
        return table_of(dets)

    @staticmethod
    def check_log(info, n_stages):
        assert len(info.levels) == n_stages + 1
        for lv in info.levels:
            assert lv.tracklet_count == len(lv.members)

    def test_interval_records_recovery_but_leaves_it_out_of_counts(self):
        cfg = TrackerConfig()
        cls0, cls1 = run_table(self.dets(), cfg).per_class
        labels = [lv.label for lv in cls0.levels]
        assert labels[:3] == ["singletons", "level-1 (gap 1)", self.RECOVERY]
        assert len(cls0.levels) == len(cfg.stages) + 2
        assert cls0.counts == tuple(lv.tracklet_count for lv in cls0.levels
                                    if lv.label != self.RECOVERY)
        assert cls0.counts[:2] == (12, 2)
        recovery = cls0.levels[2]
        assert recovery.tracklet_count == 2
        assert sorted(sorted(f for f, _ in m) for m in recovery.members) == \
            [list(range(1, 10)), list(range(12, 16))]
        # A class with only low-score rows never reaches the engine's levels.
        assert (cls1.class_id, cls1.counts, cls1.levels, cls1.camera) == (1, (0,), (), None)

    def test_window_records_recovery_but_leaves_it_out_of_counts(self):
        cfg = dataclasses.replace(TrackerConfig(), strategy=Strategy.WINDOW)
        cls0, cls1 = run_table(self.dets(), cfg).per_class
        self.check_log(cls0, len(cfg.stages) + 1)
        labels = [lv.label for lv in cls0.levels]
        assert labels[:3] == ["singletons", "level-1 (window 2)", self.RECOVERY]
        assert cls0.counts == tuple(lv.tracklet_count for lv in cls0.levels
                                    if lv.label != self.RECOVERY)
        assert cls0.counts[0] == 12
        level1, recovery = cls0.levels[1:3]
        assert recovery.tracklet_count == level1.tracklet_count == 7
        # The low-score box at frame 9 extends the level-1 tracklet 7-8.
        assert sorted(sorted(f for f, _ in m) for m in recovery.members) == \
            [[1, 2], [3, 4], [5, 6], [7, 8, 9], [12], [13, 14], [15]]
        assert (cls1.counts, cls1.levels, cls1.camera) == ((0,), (), None)

    # A panning scene whose targets 0 and 2 dip below the high-score gate.
    PAN = ScenarioSpec(n_targets=4, n_frames=60, seed=5, max_speed=1.0, miss_prob=0.05,
                       camera_pan=(20.0, 1.5),
                       score_dips={0: [(20, 26, 0.3)], 2: [(40, 44, 0.3)]})

    @pytest.mark.parametrize("strategy", [Strategy.INTERVAL, Strategy.WINDOW])
    @pytest.mark.parametrize("command", ["track", "refine"])
    def test_level_log(self, command, strategy):
        cfg = dataclasses.replace(TrackerConfig(), strategy=strategy)
        gt, dets = generate(self.PAN)
        if command == "track":
            res = run_table(table_of(dets), cfg)
            start = "singletons"
        else:  # the ground truth, each track cut in two at frame 30
            tracks = tracks_table(gt)
            tracks = tracks._replace(id=2 * tracks.id + (tracks.frame > 30))
            res = run_table(numbered(tracks), cfg, split_rows(tracks))
            start = "input tracklets"
        (info,) = res.per_class
        assert info.camera.moving
        labels = [lv.label for lv in info.levels]
        stages = [f"level-{k}" for k in range(1, len(cfg.stages) + 1)]
        if command == "track":
            stages.insert(1, self.RECOVERY)
        assert [label.split(" (")[0] for label in labels] == [start, *stages]
        assert info.counts == tuple(lv.tracklet_count for lv in info.levels
                                    if lv.label != self.RECOVERY)
        if command == "track":
            level1, recovery = info.levels[1:3]
            assert recovery.tracklet_count == level1.tracklet_count
            t = res.table  # its ids number the rows, as the members' det_ids do
            high = set(zip(t.frame[t.score >= cfg.score_high].tolist(),
                           t.id[t.score >= cfg.score_high].tolist()))
            before = {pair for m in level1.members for pair in m}
            after = {pair for m in recovery.members for pair in m}
            assert before == high and before < after
        kept = sorted(zip(res.table.frame[res.rows].tolist(), res.table.id[res.rows].tolist()))
        assert sorted(pair for m in info.levels[-1].members for pair in m) == kept

    def test_refine_counts_start_at_the_input_tracklets(self):
        cfg = TrackerConfig()
        fragments = [piece(range(1, 5), 100.0), piece(range(7, 11), 100.0, det_id=50),
                     piece(range(1, 11), 600.0, det_id=80)]
        table, runs = tracklet_input(*fragments)
        (info,) = run_table(table, cfg, runs).per_class
        self.check_log(info, len(cfg.stages))
        assert info.levels[0].label == "input tracklets"
        assert info.counts == tuple(lv.tracklet_count for lv in info.levels)
        assert info.counts[0] == 3 and info.counts[-1] == 2
