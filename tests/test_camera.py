import functools
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertrack.camera import estimate, stabilize, static_profile
from intertrack.geometry import iou_kernel
from intertrack.model import BoundingBox, Detection, stack_boxes
from intertrack.synth import ScenarioSpec, generate


def det(frame, cx, cy, w=40.0, h=40.0):
    return Detection(frame=frame, box=BoundingBox(cx, cy, w, h), score=0.9)


def columns(dets):
    """The frame and box columns of a table holding `dets` in order."""
    return np.array([d.frame for d in dets], dtype=np.int64), stack_boxes([d.box for d in dets])


def pairs_of(matches):
    """`estimate`'s pair arrays from matched detection pairs keyed by frame,
    in the mapping's order."""
    pairs = [pair for frame_pairs in matches.values() for pair in frame_pairs]
    return (np.array([a.frame for a, _ in pairs], dtype=np.int64),
            stack_boxes([a.box for a, _ in pairs]), stack_boxes([b.box for _, b in pairs]))


def steps(profile):
    """The per-frame displacements: row k is the shift from the profile's
    k-th frame to the next (its frames, in these tests, are 1..n)."""
    return np.diff(profile.offsets, axis=0)


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


def neumaier_sum(values, start=0):
    """The builtin sum of floats as Python 3.12 computes it: compensated."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


class TestEstimate:
    def test_mean_iou_adds_left_to_right_on_every_python(self):
        rng, n = np.random.default_rng(4), 500
        a = np.column_stack([rng.uniform(0, 100, (n, 2)), rng.uniform(5, 30, (n, 2))])
        b = a + np.column_stack([rng.normal(0, 3, (n, 2)), np.zeros((n, 2))])
        frame = np.repeat(np.arange(1, 51), n // 50)
        ious = iou_kernel(a, b).tolist()
        left_to_right = functools.reduce(operator.add, ious) / n
        assert neumaier_sum(ious) / n != left_to_right  # compensation shows here
        with mock.patch("builtins.sum", neumaier_sum):
            profile = estimate(frame, a, b, threshold=0.0, frames=np.arange(1, 52))
        assert profile.mean_match_iou == left_to_right

    def test_static_scene_not_moving(self):
        dets, matches = pan_scene(10, pan=(0.0, 0.0))
        profile = estimate(*pairs_of(matches), threshold=0.65, frames=np.arange(1, 11))
        assert profile.mean_match_iou == pytest.approx(1.0)
        assert not profile.moving
        assert profile.frames.tolist() == list(range(1, 11))
        assert profile.offsets.shape == (10, 2)
        assert not profile.offsets.any()

    def test_pan_detected_and_measured(self):
        dets, matches = pan_scene(10, pan=(20.0, 0.0))
        profile = estimate(*pairs_of(matches), threshold=0.65, frames=np.arange(1, 11))
        # 20px shift on 40px boxes: IoU = (20*40)/(2*1600-800) = 1/3 < 0.65.
        assert profile.mean_match_iou == pytest.approx(1 / 3, abs=1e-9)
        assert profile.moving
        for step in steps(profile):
            assert step == pytest.approx((20.0, 0.0), abs=1e-9)
        assert profile.offsets[0].tolist() == [0.0, 0.0]
        assert profile.offsets[9] == pytest.approx((180.0, 0.0), abs=1e-9)

    def test_single_pair_per_frame_mean(self):
        matches = {t: [(det(t, 10.0 + 5 * t, 50.0), det(t + 1, 15.0 + 5 * t, 50.0))]
                   for t in range(1, 5)}
        profile = estimate(*pairs_of(matches), threshold=0.99, frames=np.arange(1, 6))
        assert len(steps(profile)) == 4
        for step in steps(profile):
            assert step == pytest.approx((5.0, 0.0))

    def test_two_pair_displacement_mean(self):
        a1, b1 = det(1, 100, 100), det(2, 104, 102)   # (+4, +2)
        a2, b2 = det(1, 300, 100), det(2, 306, 98)    # (+6, -2)
        profile = estimate(*pairs_of({1: [(a1, b1), (a2, b2)]}), threshold=0.999,
                           frames=np.arange(1, 3))
        assert profile.moving
        assert steps(profile)[0] == pytest.approx((5.0, 0.0), abs=1e-12)

    def test_frames_without_matches_get_zero(self):
        _, matches = pan_scene(6, pan=(20.0, 0.0))
        del matches[3]
        profile = estimate(*pairs_of(matches), threshold=0.65, frames=np.arange(1, 7))
        # Frame 3 is row 2; the running offset stays put across the hole.
        assert steps(profile)[2].tolist() == [0.0, 0.0]
        assert steps(profile)[1] == pytest.approx((20.0, 0.0))
        assert profile.offsets[3].tolist() == profile.offsets[2].tolist()

    def test_empty_matches_log_and_stay_static(self, caplog):
        with caplog.at_level("WARNING"):
            profile = estimate(*pairs_of({}), threshold=0.65, frames=np.arange(1, 6))
        assert not profile.moving
        assert profile.mean_match_iou == 1.0
        assert any("static" in r.message for r in caplog.records)

    def test_cumulative_is_prefix_sum(self):
        _, matches = pan_scene(8, pan=(20.0, -10.0))
        profile = estimate(*pairs_of(matches), threshold=0.65, frames=np.arange(1, 9))
        assert profile.offsets[0].tolist() == [0.0, 0.0]
        for k in range(8):
            assert profile.offsets[k] == pytest.approx((20.0 * k, -10.0 * k), abs=1e-9)


    def test_offsets_kept_only_at_the_frames_given(self):
        # A profile over the frames that hold rows has one row per frame,
        # whatever their span, and the offsets of the dense profile there.
        _, matches = pan_scene(8, pan=(20.0, -10.0))
        del matches[4], matches[5]
        dense = estimate(*pairs_of(matches), threshold=0.65, frames=np.arange(1, 9))
        # No pair touches frame 5 now, and none reaches a far frame.
        sparse = np.array([1, 2, 3, 4, 6, 7, 8, 10 ** 12])
        profile = estimate(*pairs_of(matches), threshold=0.65, frames=sparse)
        assert profile.offsets.shape == (8, 2)
        assert profile.offsets[:7].tobytes() == dense.offsets[[0, 1, 2, 3, 5, 6, 7]].tobytes()
        assert profile.offsets[7].tobytes() == dense.offsets[7].tobytes()
        assert static_profile(sparse).offsets.shape == (8, 2)


class TestStabilize:
    def test_identity_when_static(self):
        dets, _ = pan_scene(5, pan=(0.0, 0.0))
        frame, boxes = columns(dets)
        profile = static_profile(np.arange(1, 6))
        assert stabilize(frame, boxes, profile).tobytes() == boxes.tobytes()

    def test_pan_removed(self):
        dets, matches = pan_scene(10, pan=(20.0, 0.0))
        profile = estimate(*pairs_of(matches), threshold=0.65, frames=np.arange(1, 11))
        stable = stabilize(*columns(dets), profile)
        # Every target is pixel-static after stabilization.
        by_target = {}
        for cx, cy, w, _ in stable.tolist():
            by_target.setdefault((round(cy), w), []).append(cx)
        for cxs in by_target.values():
            assert max(cxs) - min(cxs) < 1e-9

    def test_frame_outside_profile_rejected(self):
        profile = static_profile(np.arange(1, 6))
        with pytest.raises(ValueError):
            stabilize(*columns([det(6, 10, 10)]), profile)

    def test_stabilized_match_iou_improves(self):
        dets, matches = pan_scene(10, pan=(20.0, 0.0))
        profile = estimate(*pairs_of(matches), threshold=0.65, frames=np.arange(1, 11))
        frame, _ = columns(dets)
        stable = stabilize(frame, columns(dets)[1], profile)
        # Rebuild the same adjacency on stabilized boxes by position.
        per_frame = {}
        for t, box in zip(frame.tolist(), stable):
            per_frame.setdefault(t, []).append(box)
        raw_iou = profile.mean_match_iou
        stab_ious = []
        for t in range(1, 10):
            for a, b in zip(per_frame[t], per_frame[t + 1]):
                stab_ious.append(float(iou_kernel(a, b)))
        assert sum(stab_ious) / len(stab_ious) >= raw_iou


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 999), n_frames=st.integers(2, 60),
       pan=st.tuples(st.sampled_from([-25.0, -3.3, 0.0, 7.5, 40.0]),
                     st.sampled_from([-6.1, 0.0, 2.0])),
       reversal=st.sampled_from([None, 10, 30]))
def test_stabilization_moves_only_centres_on_panned_synth_scenes(seed, n_frames, pan, reversal):
    gt, dets = generate(ScenarioSpec(n_targets=4, n_frames=n_frames, seed=seed,
                                     camera_pan=pan, pan_reversal_frame=reversal,
                                     miss_prob=0.1, noise_sigma=1.0, size_jitter=0.05))
    # Ground-truth frame-adjacent pairs; a threshold of 1 flags any motion.
    matches = {}
    for traj in gt:
        for a, b in zip(traj.entries, traj.entries[1:]):
            matches.setdefault(a.frame, []).append((a, b))
    profile = estimate(*pairs_of(matches), threshold=1.0, frames=np.arange(1, n_frames + 1))
    frame, boxes = columns(dets)
    stable = stabilize(frame, boxes, profile)
    assert stable.shape == boxes.shape
    # Only the centre moves, by exactly its frame's offset.
    assert stable[:, 2:].tobytes() == boxes[:, 2:].tobytes()
    for t, (cx, cy), (x, y) in zip(frame.tolist(), stable[:, :2].tolist(),
                                   boxes[:, :2].tolist()):
        ox, oy = profile.offsets[t - profile.frames[0]].tolist()
        assert (cx, cy) == (x - ox, y - oy)
    static = static_profile(np.arange(1, n_frames + 1))
    assert stabilize(frame, boxes, static).tobytes() == boxes.tobytes()
