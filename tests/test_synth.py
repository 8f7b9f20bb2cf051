import json

import numpy as np
import pytest

from intertrack.geometry import iou_kernel
from intertrack.model import stack_boxes
from intertrack.synth import Motion, ScenarioSpec, generate, spec_from_json, write_scenario


def linear_spec(**kw):
    defaults = dict(n_targets=5, n_frames=40, motion=Motion.LINEAR, seed=3)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


class TestGenerate:
    def test_clean_detections_equal_gt(self):
        # Detections are emitted frame-major, target-minor with no dropout.
        gt, dets = generate(linear_spec())
        assert len(dets) == 5 * 40
        k = 0
        for t in range(1, 41):
            for i in range(5):
                d = dets[k]
                g = gt[i].entries[t - 1]
                assert d.frame == t
                assert d.box == g.box
                k += 1

    def test_gt_is_continuous(self):
        gt, _ = generate(linear_spec(miss_intervals={2: [(10, 20)]}))
        for t in gt:
            assert [e.frame for e in t.entries] == list(range(1, 41))

    def test_miss_interval_applies_to_detections_only(self):
        spec = linear_spec(miss_intervals={2: [(10, 20)]})
        gt, dets = generate(spec)
        # Noise-free: target 2's detections are exactly its GT boxes.
        t2_boxes = {(e.frame, e.box) for e in gt[2].entries}
        present = {d.frame for d in dets if (d.frame, d.box) in t2_boxes}
        assert present == set(range(1, 41)) - set(range(10, 21))

    def test_deterministic(self):
        a = generate(linear_spec(noise_sigma=1.5, miss_prob=0.1))
        b = generate(linear_spec(noise_sigma=1.5, miss_prob=0.1))
        assert a[1] == b[1]
        assert all(x.entries == y.entries for x, y in zip(a[0], b[0]))

    def test_seed_changes_output(self):
        a = generate(linear_spec(noise_sigma=1.5))
        b = generate(linear_spec(noise_sigma=1.5, seed=4))
        assert a[1] != b[1]

    def test_score_dips(self):
        spec = linear_spec(score_dips={0: [(5, 7, 0.3)]})
        _, dets = generate(spec)
        t0_scores = {d.frame: d.score for d in dets if d.det_id % 5 == 1}
        assert t0_scores[5] == 0.3 and t0_scores[6] == 0.3
        assert t0_scores[4] == 0.9 and t0_scores[8] == 0.9

    def test_pan_moves_everything(self):
        still = generate(linear_spec(max_speed=0.0))
        panned = generate(linear_spec(max_speed=0.0, camera_pan=(20.0, 0.0)))
        # In image coordinates a world-static target drifts at the pan rate.
        for t_still, t_pan in zip(still[0], panned[0]):
            for k, (a, b) in enumerate(zip(t_still.entries, t_pan.entries)):
                assert b.box.cx - a.box.cx == pytest.approx(20.0 * k, abs=1e-9)

    def test_pan_reversal(self):
        gt, _ = generate(linear_spec(max_speed=0.0, camera_pan=(10.0, 0.0),
                                     pan_reversal_frame=5, n_frames=9))
        xs = [e.box.cx for e in gt[0].entries]
        deltas = [b - a for a, b in zip(xs, xs[1:])]
        assert deltas[:4] == pytest.approx([10.0] * 4)
        assert deltas[4:] == pytest.approx([-10.0] * 4)

    def test_crossing_has_exactly_one_hot_frame(self):
        spec = ScenarioSpec(n_targets=2, n_frames=40, motion=Motion.CROSSING,
                            crossing_speeds=(16.0, -5.0))
        gt, _ = generate(spec)
        hot = [t for t, (a, b) in enumerate(zip(gt[0].entries, gt[1].entries), 1)
               if iou_kernel(*stack_boxes([a.box, b.box])) > 0.5]
        assert len(hot) == 1

    def test_slow_crossing_rejected(self):
        spec = ScenarioSpec(n_targets=2, n_frames=40, motion=Motion.CROSSING,
                            crossing_speeds=(1.0, -1.0))
        with pytest.raises(ValueError, match="IoU > 0.5"):
            generate(spec)

    def test_crossing_needs_two_targets(self):
        with pytest.raises(ValueError):
            generate(ScenarioSpec(n_targets=3, n_frames=10, motion=Motion.CROSSING))

    def test_offscreen_target_rejected(self):
        # A crossing staged far outside the frame range never enters the arena.
        spec = ScenarioSpec(n_targets=2, n_frames=10, motion=Motion.CROSSING,
                            crossing_frame=-1000)
        with pytest.raises(ValueError, match="arena"):
            generate(spec)

    def test_noise_perturbs_centers(self):
        clean = generate(linear_spec())[1]
        noisy = generate(linear_spec(noise_sigma=2.0))[1]
        diffs = [abs(a.box.cx - b.box.cx) for a, b in zip(clean, noisy)]
        assert max(diffs) > 0.1
        assert np.mean(diffs) < 10.0

    def test_sinusoidal_oscillates(self):
        gt, _ = generate(linear_spec(motion=Motion.SINUSOIDAL, max_speed=0.0,
                                     n_frames=100))
        ys = [e.box.cy for e in gt[0].entries]
        assert max(ys) - min(ys) > 60  # ~2 * default amplitude


class TestScenarioFiles:
    def test_write_scenario_round_trip(self, tmp_path):
        gt_path, det_path = write_scenario(linear_spec(), tmp_path)
        assert gt_path.exists() and det_path.exists()
        assert len(det_path.read_text().splitlines()) == 5 * 40

    def test_write_twice_is_identical(self, tmp_path):
        spec = linear_spec(noise_sigma=1.0, miss_prob=0.05)
        p1, d1 = write_scenario(spec, tmp_path / "a")
        p2, d2 = write_scenario(spec, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()
        assert d1.read_bytes() == d2.read_bytes()

    def test_spec_from_json(self, tmp_path):
        payload = {
            "n_targets": 3, "n_frames": 20, "motion": "linear", "seed": 9,
            "miss_intervals": {"1": [[5, 8]]},
            "camera_pan": [4.0, 0.0],
        }
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(payload))
        spec = spec_from_json(p)
        assert spec.n_targets == 3
        assert spec.motion is Motion.LINEAR
        assert spec.miss_intervals == {1: [(5, 8)]}
        assert spec.camera_pan == (4.0, 0.0)

    @pytest.mark.parametrize("schedule", [{"miss_intervals": {5: [(1, 2)]}},
                                          {"score_dips": {-1: [(1, 2, 0.5)]}}])
    def test_schedule_keys_must_name_a_target(self, schedule):
        with pytest.raises(ValueError, match=r"key -?\d names no target \(n_targets 5\)"):
            generate(linear_spec(**schedule))

    def test_spec_from_json_rejects_unknown_keys(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"n_targets": 2, "n_frames": 5, "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            spec_from_json(p)
