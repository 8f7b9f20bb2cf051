import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from intertrack import hierarchy
from intertrack.hierarchy import engine_order
from intertrack.model import BoundingBox, Detection, Tracklet, table_of, tracks_table
from intertrack.refine import (
    Trajectory,
    gaussian_smooth,
    interpolate,
    interpolate_rows,
    smooth_rows,
    split_at_discontinuities,
)


def det(frame, cx=50.0, cy=50.0, w=20.0, h=30.0, score=0.9, det_id=-1):
    return Detection(frame=frame, box=BoundingBox(cx, cy, w, h), score=score,
                     det_id=det_id)


def traj(track_id, frames, **kw):
    return Trajectory(track_id=track_id, entries=tuple(det(f, **kw) for f in frames))


def resolve_overlap(a, b, **kw):
    """`hierarchy.resolve_overlap` on one table of both tracklets' entries;
    the merged rows come back as the entries of a Tracklet of tid 0."""
    entries = [*a.entries, *b.entries]
    order = engine_order(table_of(entries))
    table = table_of(entries).take(order)
    row_of = np.argsort(order)
    rows = hierarchy.resolve_overlap(table, row_of[:len(a)], row_of[len(a):], **kw)
    return Tracklet(0, tuple(entries[k] for k in order[rows]))


class TestSplit:
    def test_reference_example(self):
        pieces = split_at_discontinuities([traj(1, [1, 2, 4, 5, 6])])
        assert [[e.frame for e in t.entries] for t in pieces] == [[1, 2], [4, 5, 6]]

    def test_continuous_is_identity(self):
        pieces = split_at_discontinuities([traj(1, [3, 4, 5])])
        assert len(pieces) == 1
        assert [e.frame for e in pieces[0].entries] == [3, 4, 5]

    def test_all_gaps_split_to_singletons(self):
        pieces = split_at_discontinuities([traj(1, [1, 3, 5])])
        assert [len(t) for t in pieces] == [1, 1, 1]

    def test_ids_sequential_and_order_stable(self):
        pieces = split_at_discontinuities([traj(2, [5, 7]), traj(1, [1, 2])])
        assert [t.tid for t in pieces] == [1, 2, 3]
        # Sorted by source track id first: track 1's run comes first.
        assert pieces[0].t_min == 1

    def test_no_detection_lost(self):
        trajectories = [traj(1, [1, 2, 9, 10]), traj(2, [4, 6, 8])]
        pieces = split_at_discontinuities(trajectories)
        total = sum(len(t) for t in pieces)
        assert total == sum(len(t.entries) for t in trajectories)

    def test_class_change_splits(self):
        entries = [dataclasses.replace(det(f), class_id=0 if f < 4 else 3) for f in range(1, 7)]
        pieces = split_at_discontinuities([Trajectory(1, tuple(entries))])
        assert [[e.frame for e in t.entries] for t in pieces] == [[1, 2, 3], [4, 5, 6]]
        assert [t.class_id for t in pieces] == [0, 3]


class TestResolveOverlap:
    def test_disjoint_concatenation(self):
        a = Tracklet.build(1, [det(1), det(2)])
        b = Tracklet.build(2, [det(4), det(5)])
        # The merge's tid is the merge round's to give (test_hierarchy).
        merged = resolve_overlap(a, b)
        assert [e.frame for e in merged.entries] == [1, 2, 4, 5]
        assert merged.entries == a.entries + b.entries

    def test_higher_score_wins_shared_frames(self):
        a = Tracklet.build(1, [det(f, cx=10.0, score=0.9) for f in (1, 2, 3, 4, 5)])
        b = Tracklet.build(2, [det(f, cx=90.0, score=0.5) for f in (3, 4, 5, 6)])
        merged = resolve_overlap(a, b)
        by_frame = {e.frame: e for e in merged.entries}
        for f in (3, 4, 5):
            assert by_frame[f].box.cx == 10.0
        assert by_frame[6].box.cx == 90.0

    def test_equal_scores_earlier_tracklet_wins(self):
        a = Tracklet.build(1, [det(f, cx=10.0) for f in (1, 2, 3)])
        b = Tracklet.build(2, [det(f, cx=90.0) for f in (3, 4)])
        merged = resolve_overlap(a, b)
        assert {e.frame: e.box.cx for e in merged.entries}[3] == 10.0

    def test_argument_order_does_not_matter(self):
        a = Tracklet.build(1, [det(f, cx=10.0) for f in (1, 2, 3)])
        b = Tracklet.build(2, [det(f, cx=90.0) for f in (3, 4)])
        m1 = resolve_overlap(a, b)
        m2 = resolve_overlap(b, a)
        assert [e.box.cx for e in m1.entries] == [e.box.cx for e in m2.entries]

    @pytest.mark.parametrize("small, large", [(dict(cx=10.0), dict(cx=90.0)),
                                              (dict(w=20.0), dict(w=24.0))])
    def test_same_start_equal_scores_smaller_box_wins(self, small, large):
        # Whichever det_ids the boxes carry and in whichever argument order.
        for small_ids, large_ids in (((1, 2), (3, 4)), ((3, 4), (1, 2))):
            a = Tracklet.build(1, [det(f, det_id=k, **small)
                                   for f, k in zip((3, 4), small_ids)])
            b = Tracklet.build(2, [det(f, det_id=k, **large)
                                   for f, k in zip((3, 4, 5), (*large_ids, 5))])
            for merged in (resolve_overlap(a, b), resolve_overlap(b, a)):
                assert [e.box for e in merged.entries] == [
                    a.entries[0].box, a.entries[1].box, b.entries[2].box]

    def test_overlap_beyond_allowance_is_an_error(self):
        a = Tracklet.build(1, [det(f) for f in range(1, 10)])
        b = Tracklet.build(2, [det(f, cx=51.0) for f in range(2, 11)])
        with pytest.raises(ValueError):
            resolve_overlap(a, b, max_overlap=5)

    def test_result_frames_strictly_increasing(self):
        a = Tracklet.build(1, [det(f, score=0.4) for f in (1, 2, 3, 4)])
        b = Tracklet.build(2, [det(f, cx=52.0, score=0.8) for f in (2, 3, 4, 5)])
        merged = resolve_overlap(a, b, max_overlap=5)
        frames = [e.frame for e in merged.entries]
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
    return [Tracklet.build(tid, [det(f, cx=draw(_CX), w=draw(_W), score=draw(_SCORE),
                                     det_id=draw(st.integers(1, 3))) for f in range(s, s + k)])
            for tid, s, k in ((1, start, n), (2, later, m))]


@settings(max_examples=300, deadline=None)
@given(pair=_overlapping_pairs())
def test_resolve_overlap_matches_the_frame_by_frame_loop(pair):
    a, b = pair
    entries = [*a.entries, *b.entries]
    order = engine_order(table_of(entries))
    table = table_of(entries).take(order)
    row_of = np.argsort(order)
    rows = row_of[:len(a)], row_of[len(a):]
    for x, y in (rows, rows[::-1]):
        try:
            want = reference.resolve_overlap(table, x, y).tolist()
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                hierarchy.resolve_overlap(table, x, y)
        else:
            assert hierarchy.resolve_overlap(table, x, y).tolist() == want


class TestInterpolate:
    def test_midpoint_single_gap(self):
        t = Trajectory(1, (det(1, cx=0.0, det_id=1), det(3, cx=10.0, det_id=2)))
        out = interpolate(t, max_gap=5)
        assert [e.frame for e in out.entries] == [1, 2, 3]
        mid = out.entries[1]
        assert mid.box.cx == pytest.approx(5.0)
        assert mid.det_id == -1

    def test_three_frame_gap_values(self):
        t = Trajectory(1, (det(10, cx=0.0, det_id=1), det(14, cx=8.0, det_id=2)))
        out = interpolate(t, max_gap=20)
        inserted = [e for e in out.entries if e.det_id == -1]
        assert [e.frame for e in inserted] == [11, 12, 13]
        assert [e.box.cx for e in inserted] == pytest.approx([2.0, 4.0, 6.0])

    def test_gap_beyond_limit_untouched(self):
        t = Trajectory(1, (det(1), det(6)))  # 4 missing frames
        out = interpolate(t, max_gap=3)
        assert len(out.entries) == 2

    def test_never_extrapolates(self):
        t = Trajectory(1, (det(5), det(6)))
        out = interpolate(t, max_gap=10)
        assert out.t_min == 5 and out.t_max == 6 and len(out) == 2

    def test_score_is_mean_of_brackets(self):
        t = Trajectory(1, (det(1, score=0.8), det(3, score=0.4)))
        out = interpolate(t, max_gap=5)
        assert out.entries[1].score == pytest.approx(0.6)


class TestGaussianSmooth:
    def test_constant_unchanged(self):
        t = traj(1, range(1, 20), cx=77.0)
        out = gaussian_smooth(t, sigma=3.0)
        for e in out.entries:
            assert e.box.cx == pytest.approx(77.0, abs=1e-9)

    def test_zero_sigma_is_identity(self):
        t = traj(1, range(1, 10))
        assert gaussian_smooth(t, sigma=0.0) is t

    def test_spike_reduced(self):
        entries = [det(f, cx=50.0) for f in range(1, 16)]
        entries[7] = det(8, cx=150.0)
        t = Trajectory(1, tuple(entries))
        out = gaussian_smooth(t, sigma=2.0)
        assert out.entries[7].box.cx < 150.0
        assert out.entries[7].box.cx > 50.0
        # Mass moved to the neighbours, not lost: interior window sum is close.
        window = slice(3, 12)
        before = sum(e.box.cx for e in t.entries[window])
        after = sum(e.box.cx for e in out.entries[window])
        assert after == pytest.approx(before, rel=0.02)

    def test_commutes_with_translation(self):
        rng = np.random.RandomState(2)
        entries = tuple(det(f, cx=float(50 + rng.uniform(-5, 5))) for f in range(1, 25))
        t = Trajectory(1, entries)
        moved = Trajectory(1, tuple(e.with_box(e.box.translated(100.0, -40.0))
                                    for e in entries))
        a = gaussian_smooth(t, sigma=2.5)
        b = gaussian_smooth(moved, sigma=2.5)
        for ea, eb in zip(a.entries, b.entries):
            assert eb.box.cx == pytest.approx(ea.box.cx + 100.0, abs=1e-9)
            assert eb.box.cy == pytest.approx(ea.box.cy - 40.0, abs=1e-9)

    def test_sizes_stay_positive(self):
        entries = [det(f, w=2.0, h=2.0) for f in range(1, 10)]
        t = Trajectory(1, tuple(entries))
        out = gaussian_smooth(t, sigma=3.0)
        assert all(e.box.w >= 1.0 and e.box.h >= 1.0 for e in out.entries)

    def test_frames_and_scores_untouched(self):
        t = traj(1, [1, 2, 3, 4, 5], score=0.7)
        out = gaussian_smooth(t, sigma=1.0)
        assert [e.frame for e in out.entries] == [1, 2, 3, 4, 5]
        assert all(e.score == 0.7 for e in out.entries)


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
        assert split_at_discontinuities(trajs) == reference.split_at_discontinuities(trajs)

    @settings(max_examples=300, deadline=None)
    @given(trajs=reference.trajectories(classes=(0, 3)), max_gap=st.integers(0, 6),
           sigma=st.one_of(st.just(0.0), st.floats(0.05, 6.0)))
    def test_interpolate_then_smooth(self, trajs, max_gap, sigma):
        filled = [reference.interpolate(t, max_gap) for t in trajs]
        smoothed = [reference.gaussian_smooth(t, sigma) for t in filled]
        table = interpolate_rows(tracks_table(trajs), max_gap)
        assert _bits(table) == _bits(tracks_table(filled))
        assert _bits(smooth_rows(table, sigma)) == _bits(tracks_table(smoothed))
        # The object wrappers keep the entries' det_ids; inserted entries get -1.
        for t, want in zip(trajs, filled):
            assert interpolate(t, max_gap) == want
        for t, want in zip(filled, smoothed):
            got = gaussian_smooth(t, sigma)
            assert got == want
            assert _bits(tracks_table([got])) == _bits(tracks_table([want]))

    @pytest.mark.parametrize("sigma", [0.0, 0.2, 1.0, 2.5])
    def test_single_row_tracks_are_left_as_they_are(self, sigma):
        # A one-row track of width 0.5 keeps it; longer tracks clamp to 1.
        trajs = [traj(1, [4], w=0.5), traj(2, [1, 2, 3], w=0.5)]
        table = tracks_table(trajs)
        out = smooth_rows(table, sigma)
        want = [reference.gaussian_smooth(t, sigma) for t in trajs]
        assert _bits(out) == _bits(tracks_table(want))
        assert out.boxes[0, 2] == 0.5
