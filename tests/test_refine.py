import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from intertrack import hierarchy
from intertrack.hierarchy import engine_order
from intertrack.model import BoundingBox, Detection, Trajectory, table_of, tracks_table
from intertrack.refine import interpolate_rows, smooth_rows, split_rows


def det(frame, cx=50.0, cy=50.0, w=20.0, h=30.0, score=0.9, det_id=-1):
    return Detection(frame=frame, box=BoundingBox(cx, cy, w, h), score=score,
                     det_id=det_id)


def traj(track_id, frames, **kw):
    return Trajectory(track_id=track_id, entries=tuple(det(f, **kw) for f in frames))


def merge_two(table, x, y, **kw):
    """`hierarchy.resolve_overlap` of the one chain of the tracklets whose
    frame-ordered rows are x and y: y first if it starts before x, else x."""
    if table.frame[y[0]] < table.frame[x[0]]:
        x, y = y, x
    chain = hierarchy.TrackletTable(np.r_[x, y], np.array([x.size, y.size]), np.array([1, 2]),
                                    table.frame[[x[0], y[0]]], table.frame[[x[-1], y[-1]]])
    rows, size = hierarchy.resolve_overlap(table, chain, np.array([2]), **kw)
    assert size.tolist() == [rows.size]
    return rows


def resolve_overlap(a, b, **kw):
    """`merge_two` on one table of both tracklets' entries; the merged rows
    come back as their entries, in frame order."""
    entries = [*a, *b]
    order = engine_order(table_of(entries))
    table = table_of(entries).take(order)
    row_of = np.argsort(order)
    rows = merge_two(table, row_of[:len(a)], row_of[len(a):], **kw)
    return [entries[k] for k in order[rows]]


def split_pieces(table):
    """The `split_rows` runs of the table, one row array each."""
    rows, size = split_rows(table)
    assert size.sum() == rows.size and (size >= 1).all()
    return np.split(rows, np.cumsum(size)[:-1]) if size.size else []


def runs_of(*trajectories):
    """The table of the trajectories, each its own track, and its
    `split_rows` runs."""
    table = tracks_table(trajectories)
    return table, split_pieces(table)


def frames_of(table, runs):
    return [table.frame[run].tolist() for run in runs]


class TestSplit:
    def test_reference_example(self):
        assert frames_of(*runs_of(traj(1, [1, 2, 4, 5, 6]))) == [[1, 2], [4, 5, 6]]

    def test_continuous_is_identity(self):
        assert frames_of(*runs_of(traj(1, [3, 4, 5]))) == [[3, 4, 5]]

    def test_all_gaps_split_to_singletons(self):
        _, runs = runs_of(traj(1, [1, 3, 5]))
        assert [len(run) for run in runs] == [1, 1, 1]

    def test_ids_sequential_and_order_stable(self):
        # Runs come in (track id, time) order: track 1's run comes first.
        table, runs = runs_of(traj(2, [5, 7]), traj(1, [1, 2]))
        assert frames_of(table, runs) == [[1, 2], [5], [7]]
        assert [int(table.id[run[0]]) for run in runs] == [1, 2, 2]

    def test_no_detection_lost(self):
        table, runs = runs_of(traj(1, [1, 2, 9, 10]), traj(2, [4, 6, 8]))
        assert sorted(np.concatenate(runs).tolist()) == list(range(7))

    def test_class_change_splits(self):
        entries = [dataclasses.replace(det(f), class_id=0 if f < 4 else 3) for f in range(1, 7)]
        table, runs = runs_of(Trajectory(1, tuple(entries)))
        assert frames_of(table, runs) == [[1, 2, 3], [4, 5, 6]]
        assert [int(table.class_id[run[0]]) for run in runs] == [0, 3]


class TestResolveOverlap:
    def test_disjoint_concatenation(self):
        a = [det(1), det(2)]
        b = [det(4), det(5)]
        # The merge's tid is the merge round's to give (test_hierarchy).
        merged = resolve_overlap(a, b)
        assert [e.frame for e in merged] == [1, 2, 4, 5]
        assert merged == a + b

    def test_higher_score_wins_shared_frames(self):
        a = [det(f, cx=10.0, score=0.9) for f in (1, 2, 3, 4, 5)]
        b = [det(f, cx=90.0, score=0.5) for f in (3, 4, 5, 6)]
        merged = resolve_overlap(a, b)
        by_frame = {e.frame: e for e in merged}
        for f in (3, 4, 5):
            assert by_frame[f].box.cx == 10.0
        assert by_frame[6].box.cx == 90.0

    def test_equal_scores_earlier_tracklet_wins(self):
        a = [det(f, cx=10.0) for f in (1, 2, 3)]
        b = [det(f, cx=90.0) for f in (3, 4)]
        merged = resolve_overlap(a, b)
        assert {e.frame: e.box.cx for e in merged}[3] == 10.0

    def test_argument_order_does_not_matter(self):
        a = [det(f, cx=10.0) for f in (1, 2, 3)]
        b = [det(f, cx=90.0) for f in (3, 4)]
        m1 = resolve_overlap(a, b)
        m2 = resolve_overlap(b, a)
        assert [e.box.cx for e in m1] == [e.box.cx for e in m2]

    @pytest.mark.parametrize("small, large", [(dict(cx=10.0), dict(cx=90.0)),
                                              (dict(w=20.0), dict(w=24.0))])
    def test_same_start_equal_scores_smaller_box_wins(self, small, large):
        # Whichever det_ids the boxes carry and in whichever argument order.
        for small_ids, large_ids in (((1, 2), (3, 4)), ((3, 4), (1, 2))):
            a = [det(f, det_id=k, **small) for f, k in zip((3, 4), small_ids)]
            b = [det(f, det_id=k, **large) for f, k in zip((3, 4, 5), (*large_ids, 5))]
            for merged in (resolve_overlap(a, b), resolve_overlap(b, a)):
                assert [e.box for e in merged] == [a[0].box, a[1].box, b[2].box]

    def test_overlap_beyond_allowance_is_an_error(self):
        a = [det(f) for f in range(1, 10)]
        b = [det(f, cx=51.0) for f in range(2, 11)]
        with pytest.raises(ValueError):
            resolve_overlap(a, b, max_overlap=5)

    def test_result_frames_strictly_increasing(self):
        a = [det(f, score=0.4) for f in (1, 2, 3, 4)]
        b = [det(f, cx=52.0, score=0.8) for f in (2, 3, 4, 5)]
        merged = resolve_overlap(a, b, max_overlap=5)
        frames = [e.frame for e in merged]
        assert frames == sorted(set(frames)) == [1, 2, 3, 4, 5]


_CX = st.sampled_from([10.0, 12.0])
_W = st.sampled_from([20.0, 24.0])
_SCORE = st.sampled_from([0.5, 0.9])


@st.composite
def _overlapping_pairs(draw):
    """Two tracklets, the second starting anywhere from the first's start to
    two frames after its end, with boxes, scores and det_ids drawn from few
    values so that ties are common."""
    start, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    later, m = draw(st.integers(start, start + n + 1)), draw(st.integers(1, 8))
    return [[det(f, cx=draw(_CX), w=draw(_W), score=draw(_SCORE),
                  det_id=draw(st.integers(1, 3))) for f in range(s, s + k)]
            for s, k in ((start, n), (later, m))]


@settings(max_examples=300, deadline=None)
@given(pair=_overlapping_pairs())
def test_resolve_overlap_matches_the_frame_by_frame_loop(pair):
    a, b = pair
    entries = [*a, *b]
    order = engine_order(table_of(entries))
    table = table_of(entries).take(order)
    row_of = np.argsort(order)
    rows = row_of[:len(a)], row_of[len(a):]
    for x, y in (rows, rows[::-1]):
        try:
            want = reference.resolve_overlap(table, x, y).tolist()
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                merge_two(table, x, y)
        else:
            assert merge_two(table, x, y).tolist() == want


def one_track(*entries):
    return tracks_table([Trajectory(1, entries)])


class TestInterpolate:
    def test_midpoint_single_gap(self):
        out = interpolate_rows(one_track(det(1, cx=0.0), det(3, cx=10.0)), max_gap=5)
        assert out.frame.tolist() == [1, 2, 3]
        assert out.boxes[1, 0] == pytest.approx(5.0)
        assert out.id.tolist() == [1, 1, 1]  # the inserted row keeps its track

    def test_three_frame_gap_values(self):
        out = interpolate_rows(one_track(det(10, cx=0.0), det(14, cx=8.0)), max_gap=20)
        inserted = np.isin(out.frame, [10, 14], invert=True)
        assert out.frame[inserted].tolist() == [11, 12, 13]
        assert out.boxes[inserted, 0].tolist() == pytest.approx([2.0, 4.0, 6.0])

    def test_gap_beyond_limit_untouched(self):
        table = one_track(det(1), det(6))  # 4 missing frames
        assert interpolate_rows(table, max_gap=3) is table

    def test_never_extrapolates(self):
        out = interpolate_rows(one_track(det(5), det(6)), max_gap=10)
        assert out.frame.tolist() == [5, 6]

    def test_score_is_mean_of_brackets(self):
        out = interpolate_rows(one_track(det(1, score=0.8), det(3, score=0.4)), max_gap=5)
        assert out.score[1] == pytest.approx(0.6)


class TestGaussianSmooth:
    def test_constant_unchanged(self):
        out = smooth_rows(tracks_table([traj(1, range(1, 20), cx=77.0)]), sigma=3.0)
        assert out.boxes[:, 0].tolist() == pytest.approx([77.0] * 19, abs=1e-9)

    def test_zero_sigma_is_identity(self):
        table = tracks_table([traj(1, range(1, 10))])
        assert smooth_rows(table, sigma=0.0) is table

    def test_spike_reduced(self):
        entries = [det(f, cx=50.0) for f in range(1, 16)]
        entries[7] = det(8, cx=150.0)
        table = one_track(*entries)
        out = smooth_rows(table, sigma=2.0)
        assert 50.0 < out.boxes[7, 0] < 150.0
        # Mass moved to the neighbours, not lost: interior window sum is close.
        window = slice(3, 12)
        assert out.boxes[window, 0].sum() == pytest.approx(table.boxes[window, 0].sum(),
                                                           rel=0.02)

    def test_commutes_with_translation(self):
        rng = np.random.RandomState(2)
        table = one_track(*(det(f, cx=float(50 + rng.uniform(-5, 5))) for f in range(1, 25)))
        moved = table._replace(boxes=table.boxes + [100.0, -40.0, 0.0, 0.0])
        a = smooth_rows(table, sigma=2.5).boxes
        b = smooth_rows(moved, sigma=2.5).boxes
        assert b[:, 0].tolist() == pytest.approx((a[:, 0] + 100.0).tolist(), abs=1e-9)
        assert b[:, 1].tolist() == pytest.approx((a[:, 1] - 40.0).tolist(), abs=1e-9)

    def test_sizes_stay_positive(self):
        out = smooth_rows(tracks_table([traj(1, range(1, 10), w=2.0, h=2.0)]), sigma=3.0)
        assert (out.boxes[:, 2:] >= 1.0).all()

    def test_frames_and_scores_untouched(self):
        out = smooth_rows(tracks_table([traj(1, [1, 2, 3, 4, 5], score=0.7)]), sigma=1.0)
        assert out.frame.tolist() == [1, 2, 3, 4, 5]
        assert out.score.tolist() == [0.7] * 5

    def test_frame_gap_ends_the_window(self):
        # One track over frames 1-10 and 36-45 with left = 100 + 2f: each run
        # smooths as it would alone, so frame 10 takes no pull from frame 36 on.
        table = tracks_table([traj(1, [*range(1, 11), *range(36, 46)])])
        table.boxes[:, 0] = 100.0 + 2.0 * table.frame + 10.0
        out = smooth_rows(table, sigma=5.0)
        for run in (slice(0, 10), slice(10, 20)):
            assert _bits(out.take(run)) == _bits(smooth_rows(table.take(run), sigma=5.0))
        assert out.boxes[9, 0] - 10.0 == pytest.approx(113.5, abs=0.005)


class TestTrajectoryType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(1, ())
        with pytest.raises(ValueError):
            Trajectory(1, (det(3), det(3)))


def _bits(table):
    """Every column of a table as bytes, so that -0.0 differs from 0.0."""
    return [np.ascontiguousarray(column).tobytes() for column in table]


class TestColumnsMatchPerEntryReference:
    """The column steps, run on one table of all tracks, against the
    per-entry reference run on each trajectory."""

    @settings(max_examples=300, deadline=None)
    @given(trajs=reference.trajectories(classes=(0, 0, 3), unique_ids=False))
    def test_split(self, trajs):
        ordered = sorted(trajs, key=lambda t: t.track_id)
        entries = [e for t in ordered for e in t.entries]
        # Trajectories that share a track_id are tracks of their own.
        table = table_of(entries, np.repeat(np.arange(len(ordered)), [len(t) for t in ordered]))
        assert [[entries[k] for k in run] for run in split_pieces(table)] == \
            reference.split_runs(trajs)

    @settings(max_examples=300, deadline=None)
    @given(trajs=reference.trajectories(classes=(0, 3)), max_gap=st.integers(0, 6),
           sigma=st.one_of(st.just(0.0), st.floats(0.05, 6.0)))
    def test_interpolate_then_smooth(self, trajs, max_gap, sigma):
        filled = [reference.interpolate_track(t, max_gap) for t in trajs]
        smoothed = [reference.smooth_track(t, sigma) for t in filled]
        table = interpolate_rows(tracks_table(trajs), max_gap)
        assert _bits(table) == _bits(tracks_table(filled))
        assert _bits(smooth_rows(table, sigma)) == _bits(tracks_table(smoothed))

    @pytest.mark.parametrize("sigma", [0.0, 0.2, 1.0, 2.5])
    def test_single_row_tracks_are_left_as_they_are(self, sigma):
        # A one-row track of width 0.5 keeps it; longer tracks clamp to 1.
        trajs = [traj(1, [4], w=0.5), traj(2, [1, 2, 3], w=0.5)]
        table = tracks_table(trajs)
        out = smooth_rows(table, sigma)
        want = [reference.smooth_track(t, sigma) for t in trajs]
        assert _bits(out) == _bits(tracks_table(want))
        assert out.boxes[0, 2] == 0.5
