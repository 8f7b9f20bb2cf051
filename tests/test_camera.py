import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertrack.camera import destabilize, estimate, stabilize, static_profile
from intertrack.geometry import iou
from intertrack.model import BoundingBox, Detection
from intertrack.synth import ScenarioSpec, generate


def det(frame, cx, cy, w=40.0, h=40.0):
    return Detection(frame=frame, box=BoundingBox(cx, cy, w, h), score=0.9)


def pan_scene(n_frames, pan=(20.0, 0.0), targets=((100.0, 100.0), (400.0, 300.0))):
    """World-static targets observed under a constant camera pan.

    Returns (detections, adjacent matches keyed by frame).
    """
    dets = {}
    for t in range(1, n_frames + 1):
        ox, oy = pan[0] * (t - 1), pan[1] * (t - 1)
        dets[t] = [det(t, x + ox, y + oy) for x, y in targets]
    matches = {t: list(zip(dets[t], dets[t + 1])) for t in range(1, n_frames)}
    all_dets = [d for frame in sorted(dets) for d in dets[frame]]
    return all_dets, matches


class TestEstimate:
    def test_static_scene_not_moving(self):
        dets, matches = pan_scene(10, pan=(0.0, 0.0))
        profile = estimate(matches, threshold=0.65, frame_range=(1, 10))
        assert profile.mean_match_iou == pytest.approx(1.0)
        assert not profile.moving
        assert all(v == (0.0, 0.0) for v in profile.per_frame_offset.values())
        assert all(v == (0.0, 0.0) for v in profile.cumulative_offset.values())

    def test_pan_detected_and_measured(self):
        dets, matches = pan_scene(10, pan=(20.0, 0.0))
        profile = estimate(matches, threshold=0.65, frame_range=(1, 10))
        # 20px shift on 40px boxes: IoU = (20*40)/(2*1600-800) = 1/3 < 0.65.
        assert profile.mean_match_iou == pytest.approx(1 / 3, abs=1e-9)
        assert profile.moving
        for t in range(1, 10):
            assert profile.per_frame_offset[t] == pytest.approx((20.0, 0.0), abs=1e-9)
        assert profile.cumulative_offset[1] == (0.0, 0.0)
        assert profile.cumulative_offset[10] == pytest.approx((180.0, 0.0), abs=1e-9)

    def test_single_pair_per_frame_mean(self):
        matches = {t: [(det(t, 10.0 + 5 * t, 50.0), det(t + 1, 15.0 + 5 * t, 50.0))]
                   for t in range(1, 5)}
        profile = estimate(matches, threshold=0.99, frame_range=(1, 5))
        for t in range(1, 5):
            assert profile.per_frame_offset[t] == pytest.approx((5.0, 0.0))

    def test_two_pair_displacement_mean(self):
        a1, b1 = det(1, 100, 100), det(2, 104, 102)   # (+4, +2)
        a2, b2 = det(1, 300, 100), det(2, 306, 98)    # (+6, -2)
        profile = estimate({1: [(a1, b1), (a2, b2)]}, threshold=0.999,
                           frame_range=(1, 2))
        assert profile.moving
        assert profile.per_frame_offset[1] == pytest.approx((5.0, 0.0), abs=1e-12)

    def test_frames_without_matches_get_zero(self):
        _, matches = pan_scene(6, pan=(20.0, 0.0))
        del matches[3]
        profile = estimate(matches, threshold=0.65, frame_range=(1, 6))
        assert profile.per_frame_offset[3] == (0.0, 0.0)
        assert profile.per_frame_offset[2] == pytest.approx((20.0, 0.0))
        # Prefix-sum relation still holds around the hole.
        c3 = profile.cumulative_offset[3]
        c4 = profile.cumulative_offset[4]
        assert (c4[0] - c3[0], c4[1] - c3[1]) == (0.0, 0.0)

    def test_empty_matches_log_and_stay_static(self, caplog):
        with caplog.at_level("WARNING"):
            profile = estimate({}, threshold=0.65, frame_range=(1, 5))
        assert not profile.moving
        assert profile.mean_match_iou == 1.0
        assert any("static" in r.message for r in caplog.records)

    def test_cumulative_is_prefix_sum(self):
        _, matches = pan_scene(8, pan=(20.0, -10.0))
        profile = estimate(matches, threshold=0.65, frame_range=(1, 8))
        for t in range(1, 8):
            ct = profile.cumulative_offset[t]
            cn = profile.cumulative_offset[t + 1]
            dt = profile.per_frame_offset[t]
            assert (cn[0] - ct[0], cn[1] - ct[1]) == pytest.approx(dt, abs=1e-12)


class TestStabilize:
    def test_identity_when_static(self):
        dets, _ = pan_scene(5, pan=(0.0, 0.0))
        profile = static_profile((1, 5))
        assert stabilize(dets, profile) == dets

    def test_pan_removed(self):
        dets, matches = pan_scene(10, pan=(20.0, 0.0))
        profile = estimate(matches, threshold=0.65, frame_range=(1, 10))
        stable = stabilize(dets, profile)
        # Every target is pixel-static after stabilization.
        by_target = {}
        for d in stable:
            by_target.setdefault((round(d.box.cy), d.box.w), []).append(d)
        for group in by_target.values():
            cxs = {d.box.cx for d in group}
            assert max(cxs) - min(cxs) < 1e-9

    def test_round_trip(self):
        dets, matches = pan_scene(10, pan=(20.0, 5.0))
        profile = estimate(matches, threshold=0.65, frame_range=(1, 10))
        back = destabilize(stabilize(dets, profile), profile)
        for orig, restored in zip(dets, back):
            assert restored.box.cx == pytest.approx(orig.box.cx, abs=1e-9)
            assert restored.box.cy == pytest.approx(orig.box.cy, abs=1e-9)

    def test_frame_outside_profile_rejected(self):
        profile = static_profile((1, 5))
        with pytest.raises(ValueError):
            stabilize([det(6, 10, 10)], profile)

    def test_stabilized_match_iou_improves(self):
        dets, matches = pan_scene(10, pan=(20.0, 0.0))
        profile = estimate(matches, threshold=0.65, frame_range=(1, 10))
        stable = stabilize(dets, profile)
        # Rebuild the same adjacency on stabilized detections by position.
        per_frame = {}
        for d in stable:
            per_frame.setdefault(d.frame, []).append(d)
        raw_iou = profile.mean_match_iou
        stab_ious = []
        for t in range(1, 10):
            for a, b in zip(per_frame[t], per_frame[t + 1]):
                stab_ious.append(iou(a.box, b.box))
        assert sum(stab_ious) / len(stab_ious) >= raw_iou


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 999), n_frames=st.integers(2, 60),
       pan=st.tuples(st.sampled_from([-25.0, -3.3, 0.0, 7.5, 40.0]),
                     st.sampled_from([-6.1, 0.0, 2.0])),
       reversal=st.sampled_from([None, 10, 30]))
def test_stabilization_round_trips_on_panned_synth_scenes(seed, n_frames, pan, reversal):
    gt, dets = generate(ScenarioSpec(n_targets=4, n_frames=n_frames, seed=seed,
                                     camera_pan=pan, pan_reversal_frame=reversal,
                                     miss_prob=0.1, noise_sigma=1.0, size_jitter=0.05))
    # Ground-truth frame-adjacent pairs; a threshold of 1 flags any motion.
    matches = {}
    for traj in gt:
        for a, b in zip(traj.entries, traj.entries[1:]):
            matches.setdefault(a.frame, []).append((a, b))
    profile = estimate(matches, threshold=1.0, frame_range=(1, n_frames))
    stable = stabilize(dets, profile)
    back = destabilize(stable, profile)
    assert len(stable) == len(back) == len(dets)
    for a, s, b in zip(dets, stable, back):
        for d in (s, b):  # only the centre moves
            assert (d.frame, d.score, d.class_id, d.det_id, d.box.w, d.box.h) == \
                (a.frame, a.score, a.class_id, a.det_id, a.box.w, a.box.h)
        assert math.isclose(b.box.cx, a.box.cx, rel_tol=1e-9)
        assert math.isclose(b.box.cy, a.box.cy, rel_tol=1e-9)
    static = static_profile((1, n_frames))
    for shift in (stabilize, destabilize):
        out = shift(dets, static)
        assert len(out) == len(dets) and all(x is y for x, y in zip(out, dets))
