import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intertrack import motion
from intertrack.geometry import SimilarityKernel, consistent_iou_kernel
from intertrack.hierarchy import TrackletTable
from intertrack.model import BoundingBox, Detection, TrackerConfig, Trajectory, stack_boxes
from intertrack.motion import FitCache, _advance, kalman_states, pair_scores, reversed_runs

CFG = TrackerConfig()


def linear_tracklet(tid, frames, x0=100.0, y0=200.0, vx=3.0, vy=-2.0, w=40.0, h=50.0):
    dets = [Detection(frame=f, box=BoundingBox(x0 + vx * f, y0 + vy * f, w, h), score=0.9)
            for f in frames]
    return Trajectory(tid, tuple(dets))


def columns(entries):
    """The frame and box columns of a table holding `entries` in order."""
    return (np.array([e.frame for e in entries], dtype=np.int64),
            stack_boxes([e.box for e in entries]))


def table_of(*tracklets):
    """One table of the tracklets' entries, in order, and the TrackletTable
    of the tracklets (frame-sorted Trajectories, track_id the tid), in the
    order given."""
    frame, boxes = columns([e for t in tracklets for e in t.entries])
    return frame, boxes, TrackletTable(
        np.arange(len(frame)), np.array([len(t) for t in tracklets]),
        *(np.array([getattr(t, key) for t in tracklets])
          for key in ("track_id", "t_min", "t_max")))


def states_of(runs):
    """`kalman_states` of runs of detections, each run filtered in its order."""
    frame, boxes = columns([d for run in runs for d in run])
    return kalman_states(frame, boxes, np.arange(len(frame)),
                         np.array([len(run) for run in runs], np.intp), CFG)


def final_state(tracklet, forward=True):
    """The tracklet filtered in frame order (forward) or reverse: a forward
    state is anchored at t_max, a backward one at t_min."""
    entries = tracklet.entries if forward else tracklet.entries[::-1]
    return states_of([entries])[-1]


def assert_psd(state):
    # The (value, velocity) covariance every box component shares.
    p00, p01, p11 = state[8:]
    assert np.linalg.eigvalsh(np.array([[p00, p01], [p01, p11]])).min() >= -1e-9


class TestFit:
    def test_single_entry_state(self):
        t = linear_tracklet(1, [4])
        state = final_state(t)
        np.testing.assert_allclose(state[4:8], 0.0)
        np.testing.assert_allclose(state[:4], [112, 192, 40, 50])
        # Anchored at the entry's own frame: a zero step is its box.
        np.testing.assert_allclose(_advance(state, 0), [112, 192, 40, 50])
        assert_psd(state)
        # No velocity evidence yet: velocity variance dwarfs position variance.
        p00, _, p11 = state[8:]
        assert p11 > p00

    def test_linear_velocity_recovered(self):
        t = linear_tracklet(1, range(1, 6))
        state = final_state(t)
        assert abs(state[4] - 3.0) < 1e-3
        assert abs(state[5] - (-2.0)) < 1e-3
        # Anchored at t_max = 5: one step lands on frame 6.
        assert _advance(state, 1)[0] == pytest.approx(100 + 3.0 * 6, abs=1e-2)
        assert_psd(state)

    def test_backward_negates_velocity(self):
        t = linear_tracklet(1, range(1, 9))
        fwd = final_state(t, forward=True)
        bwd = final_state(t, forward=False)
        # Anchored at t_min = 1: one backward step lands on frame 0.
        assert _advance(bwd, 1)[0] == pytest.approx(100.0, abs=1e-2)
        np.testing.assert_allclose(bwd[4:6], -fwd[4:6], atol=1e-6)

    def test_gap_in_frames_handled(self):
        t = linear_tracklet(1, [1, 2, 3, 7, 8, 9, 10])
        assert abs(final_state(t)[4] - 3.0) < 1e-3

    def test_covariance_psd_along_the_run(self):
        # The state after every entry (each prefix's fit) stays PSD, with a
        # gap in the run included.
        t = linear_tracklet(1, list(range(1, 9)) + list(range(15, 21)))
        for state in states_of([t.entries]):
            assert_psd(state)


class TestPredict:
    # A forward state predicts frame f by moving f - t_max steps.

    def test_zero_step_returns_own_box(self):
        state = final_state(linear_tracklet(1, range(1, 6)))
        np.testing.assert_allclose(_advance(state, 0), state[:4])

    def test_linear_prediction_accuracy(self):
        state = final_state(linear_tracklet(1, range(1, 11)))
        cx, cy, _, _ = _advance(state, 20 - 10)
        assert abs(cx - (100 + 3.0 * 20)) < 1e-2
        assert abs(cy - (200 - 2.0 * 20)) < 1e-2

    def test_stationary_prediction_is_identity(self):
        dets = [Detection(frame=f, box=BoundingBox(50, 60, 20, 30), score=0.9)
                for f in range(1, 8)]
        state = final_state(Trajectory(1, tuple(dets)))
        for horizon in (7, 10, 50):
            np.testing.assert_allclose(_advance(state, horizon - 7), [50, 60, 20, 30],
                                       atol=1e-9)

    def test_size_clamped_positive(self):
        # Shrinking boxes extrapolated far enough would go negative.
        dets = [Detection(frame=f, box=BoundingBox(100, 100, 50 - 4 * f, 50 - 4 * f),
                          score=0.9) for f in range(1, 8)]
        _, _, w, h = _advance(final_state(Trajectory(1, tuple(dets))), 40 - 7)
        assert w >= 1.0 and h >= 1.0

    def test_more_updates_never_hurt(self):
        # Prediction error at a fixed target frame shrinks with history.
        target = 30
        errs = []
        for n in (3, 8):
            state = final_state(linear_tracklet(1, range(1, n + 1)))
            true_cx = 100 + 3.0 * target
            errs.append(abs(_advance(state, target - n)[0] - true_cx))
        assert errs[1] <= errs[0]


class TestPairSimilarity:
    def sim(self, a, b):
        frame, boxes, tracklets = table_of(a, b)
        return float(pair_scores(tracklets, np.array([0]), np.array([1]), SimilarityKernel(CFG),
                                 FitCache(CFG, frame, boxes))[0])

    def test_stationary_gap_one_is_perfect(self):
        dets = [Detection(frame=f, box=BoundingBox(50, 60, 80, 80), score=0.9)
                for f in range(1, 4)]
        a = Trajectory(1, tuple(dets))
        b = Trajectory(2, (Detection(frame=4, box=BoundingBox(50, 60, 80, 80), score=0.9),))
        assert self.sim(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_far_apart_is_zero(self):
        a = Trajectory(1, (Detection(frame=1, box=BoundingBox(0, 0, 10, 10), score=0.9),))
        b = Trajectory(2, (Detection(frame=2, box=BoundingBox(900, 900, 10, 10), score=0.9),))
        assert self.sim(a, b) == 0.0

    def test_linear_bridge_over_gap(self):
        a = linear_tracklet(1, range(1, 11), w=80, h=80)
        b = linear_tracklet(2, range(21, 31), w=80, h=80)
        sim = self.sim(a, b)
        assert sim > CFG.match_threshold
        assert sim > 0.9  # noise-free linear: predictions land on target

    def test_translation_invariance(self):
        a = linear_tracklet(1, range(1, 8))
        b = linear_tracklet(2, range(12, 19))
        base = self.sim(a, b)
        shift = lambda t, tid: Trajectory(tid, tuple(
            dataclasses.replace(d, box=d.box.translated(37.0, -12.0)) for d in t.entries))
        moved = self.sim(shift(a, 3), shift(b, 4))
        assert moved == pytest.approx(base, abs=1e-9)

    def test_overlap_uses_shared_frames(self):
        a = linear_tracklet(1, range(1, 10))
        b = linear_tracklet(2, range(7, 15))  # shares frames 7..9 with a
        sim = self.sim(a, b)
        assert sim == pytest.approx(1.0, abs=1e-9)  # identical boxes on shared frames

    def test_many_shared_frames_score_as_np_mean(self):
        # From eight values on, np.mean sums pairwise, not left to right.
        rng = np.random.RandomState(7)

        def jittered(tid, frames):
            return Trajectory(tid, tuple(Detection(frame=f, box=BoundingBox(
                100 + rng.uniform(-3, 3), 100 + rng.uniform(-3, 3), 40, 40), score=0.9)
                for f in frames))
        a, b = jittered(1, range(1, 15)), jittered(2, range(4, 20))  # share frames 4..14
        kernel = SimilarityKernel(CFG)
        want = np.mean(kernel(stack_boxes([e.box for e in a.entries[3:]]),
                              stack_boxes([e.box for e in b.entries[:11]])))
        assert self.sim(a, b) == want

    def test_overlap_conflicting_boxes(self):
        a = linear_tracklet(1, range(1, 10))
        conflict = [Detection(frame=f, box=BoundingBox(1000, 1000, 10, 10), score=0.9)
                    for f in range(8, 12)]
        b = Trajectory(2, tuple(conflict))
        assert self.sim(a, b) == 0.0

    def test_interleaved_overlap_falls_back_to_prediction(self):
        a = linear_tracklet(1, [1, 3, 5, 7])
        b = linear_tracklet(2, [6, 8, 10])  # spans overlap, no shared frame
        sim = self.sim(a, b)
        assert sim > 0.9

    def test_rejects_wrong_order(self):
        a = linear_tracklet(1, range(5, 10))
        b = linear_tracklet(2, range(1, 4))
        with pytest.raises(ValueError):
            self.sim(a, b)

    def test_batch_scores_each_pair_as_alone(self):
        a = linear_tracklet(1, range(1, 10))
        pairs = [(a, linear_tracklet(2, range(12, 19))),     # gap: cross prediction
                 (a, linear_tracklet(3, range(7, 15))),      # shares frames 7..9
                 (linear_tracklet(4, [1, 3, 5, 7]), linear_tracklet(5, [6, 8, 10])),
                 (a, Trajectory(6, tuple(Detection(frame=f, box=BoundingBox(900, 900, 10, 10),
                                                   score=0.9) for f in (8, 9))))]
        kernel = SimilarityKernel(CFG)
        frame, boxes, tracklets = table_of(*(t for pair in pairs for t in pair))
        earlier = np.arange(0, tracklets.tid.size, 2)
        batch = pair_scores(tracklets, earlier, earlier + 1, kernel, FitCache(CFG, frame, boxes))
        alone = [pair_scores(tracklets, np.array([k]), np.array([k + 1]), kernel,
                             FitCache(CFG, frame, boxes))[0] for k in earlier.tolist()]
        assert batch.tolist() == alone
        assert batch[1] == pytest.approx(1.0, abs=1e-9) and batch[3] == 0.0

    def test_batch_matches_per_pair_loop(self):
        # Reference: one pair at a time through one-run filters and the scalar
        # kernel, for small boxes (expansion active) across gaps of 1..8 frames.
        rng = np.random.RandomState(4)
        tracks = []
        for tid in range(1, 17):
            start = int(rng.randint(1, 30))
            frames = range(start, start + int(rng.randint(1, 6)))
            tracks.append(linear_tracklet(tid, frames, x0=rng.uniform(50, 90),
                                          vx=rng.uniform(-2, 2), w=rng.uniform(8, 30),
                                          h=rng.uniform(8, 30)))
        pairs = [(e, l) for e in tracks for l in tracks if 0 < l.t_min - e.t_max <= 8]

        def one(e, l):
            fwd = _advance(final_state(e, True), l.t_min - e.t_max)
            bwd = _advance(final_state(l, False), l.t_min - e.t_max)
            first, last = stack_boxes([l.entries[0].box, e.entries[-1].box])
            return 0.5 * (consistent_iou_kernel(fwd, first, CFG)
                          + consistent_iou_kernel(last, bwd, CFG))
        frame, boxes, tracklets = table_of(*tracks)
        index = {tid: k for k, tid in enumerate(tracklets.tid.tolist())}
        a, b = (np.array([index[t.track_id] for t in side]) for side in zip(*pairs))
        got = pair_scores(tracklets, a, b, SimilarityKernel(CFG), FitCache(CFG, frame, boxes))
        assert len(pairs) > 10 and got.max() > CFG.match_threshold
        assert got.tolist() == [one(e, l) for e, l in pairs]

    def test_fit_cache_reuses_states(self, monkeypatch):
        batches = []

        def counted(frame, boxes, rows, lengths, cfg):
            batches.append(lengths.size)
            return kalman_states(frame, boxes, rows, lengths, cfg)
        monkeypatch.setattr(motion, "kalman_states", counted)
        frame, boxes, t = table_of(linear_tracklet(9, range(1, 6)))
        cache = FitCache(CFG, frame, boxes)
        none, one, two = (np.zeros(n, np.intp) for n in range(3))
        s1, _ = cache.states(t, one, none)
        s2, (back,) = cache.states(t, two, one)
        # The second request fits only the missing backward state.
        assert batches == [1, 1]
        assert s2[0].tobytes() == s2[1].tobytes() == s1[0].tobytes()
        assert back.tobytes() != s1[0].tobytes()


def chain_states(chain, forward):
    """Per-entry states of a chain filtered forward or backward, indexed like the chain."""
    if forward:
        return states_of([chain])
    return states_of([chain[::-1]])[::-1]


class TestChainPredictors:
    def chain(self, frames, vx=2.0):
        return [Detection(frame=f, box=BoundingBox(10 + vx * f, 50, 30, 30), score=0.9)
                for f in frames]

    def test_forward_histories_are_prefixes(self):
        chain = self.chain(range(1, 8))
        states = chain_states(chain, True)
        assert len(states) == len(chain)
        for k in range(len(chain)):
            assert states[k].tobytes() == states_of([chain[:k + 1]])[-1].tobytes()
        # First entry has no velocity evidence.
        np.testing.assert_allclose(states[0, 4:8], 0.0)
        # A converged state lands on the true next position.
        nxt = _advance(states[-1], 1)
        assert abs(nxt[0] - (10 + 2.0 * 8)) < 1e-2

    def test_backward_predictors_step_in_real_time(self):
        chain = self.chain(range(1, 8))
        states = chain_states(chain, False)
        for k in range(len(chain)):
            suffix = chain[k:][::-1]
            assert states[k].tobytes() == states_of([suffix])[-1].tobytes()
        # One step from the first entry's suffix history predicts the frame
        # before the chain start, against the motion direction.
        prev = _advance(states[0], 1)
        assert abs(prev[0] - 10.0) < 1e-2
        # Backward velocities point toward earlier frames: negated, they are
        # the real-time velocity per frame.
        assert -states[0, 4] == pytest.approx(2.0, abs=1e-2)

    def test_single_entry_chain_predicts_own_box(self):
        chain = self.chain([5])
        for forward in (True, False):
            (state,) = chain_states(chain, forward)
            b = _advance(state, 1)
            assert (b[0], b[1]) == (chain[0].box.cx, chain[0].box.cy)

    def test_advance_is_linear(self):
        state = np.array([100.0, 50.0, 20.0, 30.0, 2.0, -1.0, 0.0, -40.0])
        assert _advance(state, 5).tolist() == [110.0, 45.0, 20.0, 1.0]


def reference_states(run, cfg):
    """The filter written one row and one frame at a time: the same
    operations in the same order as `kalman_states`, on scalars."""
    wp, wv = cfg.kf_position_weight, cfg.kf_velocity_weight
    x = np.array([run[0].box.cx, run[0].box.cy, run[0].box.w, run[0].box.h])
    v = np.zeros(4)
    sd_pos, sd_vel = 2.0 * wp * x[3], 1000.0 * wv * x[3]
    p00, p01, p11 = sd_pos * sd_pos, 0.0, sd_vel * sd_vel
    out = [np.concatenate([x, v, [p00, p01, p11]])]
    for prev, det in zip(run, run[1:]):
        for _ in range(abs(det.frame - prev.frame)):
            h = max(x[3], 1.0)
            p00 = p00 + 2 * p01 + p11 + (wp * h) * (wp * h)
            p01 = p01 + p11
            p11 = p11 + (wv * h) * (wv * h)
            x = x + v
        h = max(x[3], 1.0)
        gain_den = p00 + (wp * h) * (wp * h)
        k0, k1 = p00 / gain_den, p01 / gain_den
        innov = np.array([det.box.cx, det.box.cy, det.box.w, det.box.h]) - x
        x, v = x + k0 * innov, v + k1 * innov
        p00, p01, p11 = (1 - k0) * p00, (1 - k0) * p01, p11 - k1 * p01
        out.append(np.concatenate([x, v, [p00, p01, p11]]))
    return np.array(out)


@st.composite
def runs(draw):
    """1-40 entries, gaps of 1-30 frames, in either time direction; heights
    and widths reach below 1 px so the size clamp is hit."""
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.integers(1, 30), min_size=n - 1, max_size=n - 1))
    frames = np.cumsum([draw(st.integers(1, 500))] + gaps)
    size = st.one_of(st.floats(0.05, 2.0), st.floats(2.0, 300.0))
    pos = st.floats(-2000.0, 2000.0)
    run = [Detection(frame=int(f), box=BoundingBox(draw(pos), draw(pos), draw(size), draw(size)),
                     score=0.9) for f in frames]
    return run[::-1] if draw(st.booleans()) else run


class TestKalmanStates:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(runs(), min_size=0, max_size=6), st.randoms(use_true_random=False))
    def test_batch_invariance(self, batch, rnd):
        # A row's states are bit-identical alone, in any batch and in any
        # row order, and equal the one-frame-at-a-time reference.
        alone = [states_of([run]) for run in batch]
        for run, states in zip(batch, alone):
            assert states.tobytes() == reference_states(run, CFG).tobytes()
        order = list(range(len(batch)))
        rnd.shuffle(order)
        expected = np.concatenate([np.zeros((0, 11)), *(alone[k] for k in order)])
        assert states_of([batch[k] for k in order]).tobytes() == expected.tobytes()
        # The runs laid end to end as rows of a table that holds their
        # entries in any order; zero runs give an empty integer `lengths`.
        entries = [d for k in order for d in batch[k]]
        place = np.array(rnd.sample(range(len(entries)), len(entries)), np.intp)
        held = [None] * len(entries)
        for entry, row in zip(entries, place.tolist()):
            held[row] = entry
        frame, boxes = columns(held)
        lengths = np.array([len(batch[k]) for k in order], np.intp)
        got = kalman_states(frame, boxes, place, lengths, CFG)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(runs(), min_size=1, max_size=5),
           st.lists(st.integers(0, 2 ** 62 - 2 ** 20), min_size=5, max_size=5))
    def test_batch_invariance_across_sequences(self, batch, shifts):
        # Runs of different sequences, laid end to end on one frame axis:
        # each run's frames shifted by its own amount, up to the axis limit.
        # A state reads only frame differences, so nothing changes.
        shifted = [[dataclasses.replace(d, frame=d.frame + shift) for d in run]
                   for run, shift in zip(batch, shifts)]
        assert states_of(shifted).tobytes() == states_of(batch).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 99), max_size=6), max_size=8))
@example([])
def test_reversed_runs(runs):
    # Each run is reversed in its place, and reversing twice is the identity;
    # no runs give no rows.
    rows = np.array([x for run in runs for x in run], np.intp)
    lengths = np.array([len(run) for run in runs], np.intp)
    back = reversed_runs(rows, lengths)
    assert back.dtype == rows.dtype
    assert back.tolist() == [x for run in runs for x in run[::-1]]
    assert reversed_runs(back, lengths).tolist() == rows.tolist()
