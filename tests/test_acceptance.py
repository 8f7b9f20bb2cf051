"""End-to-end properties of the tracking pipeline, one test per guarantee.

These pin the externally observable behaviour: reference IoU/expansion
numbers, solver optimality, level-count monotonicity, gap bridging, the
three consistency corrections, recombination, scheduling comparison,
determinism, and throughput.
"""

import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest

from intertrack import cli
from intertrack.geometry import (
    consistent_iou_kernel,
    expansion_ratio,
    iou_kernel,
)
from intertrack.hierarchy import run_table
from intertrack.metrics import evaluate
from intertrack.model import (
    BoundingBox,
    Detection,
    Strategy,
    TrackerConfig,
    Trajectory,
    table_of,
    tracks_table,
)
from intertrack.mot_io import read_track_table, write_mot_detections, write_mot_results
from intertrack.refine import interpolate_rows
from intertrack.synth import Motion, ScenarioSpec, generate
from reference import solve


def box(cx, cy, w, h):
    return BoundingBox(cx, cy, w, h)


def track_count(tracks):
    """The number of distinct track ids of an output table."""
    return np.unique(tracks.id).size


def assert_monotone_and_conserved(result, n_detections):
    for cls in result.per_class:
        counts = cls.counts
        assert all(b <= a for a, b in zip(counts, counts[1:])), counts
    assert result.rows.size == n_detections


def test_iou_matches_reference_offset_boxes():
    a, b = np.array([[0.0, 0.0, 80.0, 50.0], [15.0, 15.0, 80.0, 50.0]])
    assert iou_kernel(a, b) == pytest.approx(0.397, abs=0.005)
    c, d = np.array([[0.0, 0.0, 40.0, 25.0], [15.0, 15.0, 40.0, 25.0]])
    assert iou_kernel(c, d) == pytest.approx(0.143, abs=0.005)


def test_expansion_ratio_reference_point_and_monotonicity():
    threshold = 64.0
    r = expansion_ratio(32.0, 32.0, threshold, 0.2)
    assert r == pytest.approx(math.exp(0.4), abs=1e-9)
    assert expansion_ratio(32.0, 32.0, threshold, 0.0) == 1.0
    widths = np.linspace(4.0, 63.0, 120)
    ratios = [expansion_ratio(w, w, threshold, 0.2) for w in widths]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_assignment_matches_brute_force_on_random_matrices():
    rng = np.random.RandomState(20240817)
    start = time.perf_counter()
    for _ in range(1000):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        scores = rng.rand(n, m)
        matches = solve(scores, gate=0.0)
        solver_value = math.fsum(scores[i, j] for i, j in sorted(matches))

        work = scores if n <= m else scores.T
        rows, cols = work.shape
        table = work.tolist()
        best_plain = -1.0
        near_best = []
        for perm in itertools.permutations(range(cols), rows):
            value = 0.0
            for i, j in enumerate(perm):
                value += table[i][j]
            if value > best_plain - 1e-9:
                near_best.append(perm)
                if value > best_plain:
                    best_plain = value
                    near_best = [p for p in near_best
                                 if sum(table[i][j] for i, j in enumerate(p))
                                 > best_plain - 1e-9]
        oracle_value = max(
            math.fsum(table[i][j] for i, j in enumerate(perm))
            for perm in near_best)
        assert solver_value == oracle_value
    assert time.perf_counter() - start < 10.0


def _gap_scene():
    spec = ScenarioSpec(
        n_targets=10, n_frames=100, motion=Motion.LINEAR, seed=17,
        max_speed=1.0,
        miss_intervals={0: [(20, 20)], 1: [(30, 34)],
                        2: [(40, 54)], 3: [(50, 79)]})
    return generate(spec)


def _gap_config():
    # The widest injected hole spans 30 frames, i.e. a tracklet interval of
    # 31, so the last level's bound is raised accordingly.
    return dataclasses.replace(TrackerConfig(), stage_bounds=(1, 5, 10, 15, 20, 31),
                               final_overlap=5)


def _pan_scene():
    spec = ScenarioSpec(
        n_targets=6, n_frames=100, motion=Motion.LINEAR, seed=3,
        max_speed=0.0, box_size=(48.0, 48.0),
        camera_pan=(20.0, 0.0), pan_reversal_frame=50,
        miss_intervals={2: [(48, 52)]})
    return generate(spec)


def _crossing_scene():
    """Two equal boxes on one horizontal line crossing between frames 25/26.

    The half-frame alignment makes the frame-25 -> frame-26 association
    strictly favour swapping under box overlap alone, while every other
    frame pair strictly favours the true continuation.
    """
    n_frames, t_half = 50, 25.5
    gt, dets = [], []
    det_id = 0
    for track_id, speed in ((1, 16.0), (2, -4.0)):
        entries = []
        for t in range(1, n_frames + 1):
            b = box(600.0 + speed * (t - t_half), 300.0, 60.0, 80.0)
            entries.append(Detection(frame=t, box=b, score=1.0))
        gt.append(Trajectory(track_id=track_id, entries=tuple(entries)))
    for t in range(1, n_frames + 1):
        for traj in gt:
            det_id += 1
            dets.append(dataclasses.replace(
                traj.entries[t - 1], score=0.9, det_id=det_id))
    return gt, dets


def test_level_counts_monotone_and_detections_conserved():
    scenes = [
        _gap_scene(),
        _pan_scene(),
        _crossing_scene(),
        generate(ScenarioSpec(n_targets=5, n_frames=60,
                              motion=Motion.SINUSOIDAL, seed=12)),
    ]
    configs = [_gap_config(), TrackerConfig(), TrackerConfig(), TrackerConfig()]
    for (_, dets), cfg in zip(scenes, configs):
        result = run_table(table_of(dets), cfg)
        assert_monotone_and_conserved(result, len(dets))
    _, dets = scenes[3]
    windowed = dataclasses.replace(TrackerConfig(),
                                   strategy=Strategy.WINDOW)
    for cls in run_table(table_of(dets), windowed).per_class:
        assert all(b <= a for a, b in zip(cls.counts, cls.counts[1:]))


def test_gap_bridging_recovers_identities():
    start = time.perf_counter()
    gt, dets = _gap_scene()
    tracks = run_table(table_of(dets), _gap_config()).output()
    assert track_count(tracks) == 10
    filled = interpolate_rows(tracks, 30)
    report = evaluate(tracks_table(gt), filled)
    assert report.idsw == 0
    assert report.idf1 == 1.0
    assert time.perf_counter() - start < 2.0


def test_gap_bridged_at_second_level_via_cli_dump(tmp_path, capsys):
    dets = []
    det_id = 0
    for f in range(1, 5):
        for k, x in enumerate([200.0, 500.0, 800.0]):
            if k == 1 and f == 3:
                continue
            det_id += 1
            dets.append(Detection(frame=f, box=box(x, 300.0, 40.0, 80.0),
                                  score=0.9, det_id=det_id))
    det_path = tmp_path / "det.txt"
    write_mot_detections(dets, det_path)
    out = tmp_path / "out.txt"
    dump = tmp_path / "dump.json"
    rc = cli.main(["track", "--det", str(det_path), "--out", str(out),
                   "--dump-hierarchy", str(dump)])
    assert rc == 0
    assert track_count(read_track_table(out)) == 3
    assert "3 trajectories" in capsys.readouterr().out
    info = json.loads(dump.read_text())["det"]["classes"]["0"]
    levels = {lv["label"]: lv for lv in info["levels"]}
    frames_of = lambda lv: sorted(
        tuple(f for f, _ in trk) for trk in lv["tracklets"])
    assert levels["level-1 (gap 1)"]["count"] == 4
    assert (1, 2) in frames_of(levels["level-1 (gap 1)"])
    assert (4,) in frames_of(levels["level-1 (gap 1)"])
    assert levels["level-2 (gap 5)"]["count"] == 3
    assert frames_of(levels["level-2 (gap 5)"]) == [
        (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 4)]


def test_camera_compensation_repairs_pan_switches_and_recovers_offsets():
    start = time.perf_counter()
    gt, dets = _pan_scene()
    truth, table = tracks_table(gt), table_of(dets)

    without_cc = dataclasses.replace(TrackerConfig(), enable_cc=False)
    report_off = evaluate(truth, run_table(table, without_cc).output())
    assert report_off.idsw >= 1

    result = run_table(table, TrackerConfig())
    report_on = evaluate(truth, result.output())
    assert report_on.idsw == 0

    profile = result.per_class[0].camera
    assert profile is not None and profile.moving
    reference = gt[0].entries  # static target: displacement == pan delta
    offsets = dict(zip(profile.frames.tolist(), profile.offsets))
    for t in range(1, len(reference)):
        expect_dx = reference[t].box.cx - reference[t - 1].box.cx
        expect_dy = reference[t].box.cy - reference[t - 1].box.cy
        dx, dy = offsets[reference[t].frame] - offsets[reference[t - 1].frame]
        assert dx == pytest.approx(expect_dx, abs=1e-9)
        assert dy == pytest.approx(expect_dy, abs=1e-9)
    assert time.perf_counter() - start < 5.0


def test_motion_pass_prevents_crossing_swap():
    start = time.perf_counter()
    gt, dets = _crossing_scene()
    truth, table = tracks_table(gt), table_of(dets)
    static_only = dataclasses.replace(TrackerConfig(), enable_cm=False)
    report_static = evaluate(truth, run_table(table, static_only).output())
    assert report_static.idsw == 2
    report_cm = evaluate(truth, run_table(table, TrackerConfig()).output())
    assert report_cm.idsw == 0
    assert time.perf_counter() - start < 2.0


def test_consistent_iou_dominates_raw_iou():
    start = time.perf_counter()
    rng = np.random.RandomState(99)
    cfg = TrackerConfig()
    n = 400
    # Small boxes only (both widths under the expansion threshold).
    def boxes():
        cx = rng.uniform(0.0, 200.0, size=n)
        cy = rng.uniform(0.0, 200.0, size=n)
        w = rng.uniform(1.0, 63.9, size=n)
        h = rng.uniform(1.0, 120.0, size=n)
        return np.stack([cx, cy, w, h], axis=1)
    a, b = boxes(), boxes()
    raw = iou_kernel(a[:, None], b[None, :])
    adjusted = consistent_iou_kernel(a[:, None], b[None, :], cfg)
    assert raw.size >= 10 ** 5
    assert np.all(adjusted >= raw - 1e-9)
    assert time.perf_counter() - start < 5.0


def test_refine_repairs_injected_switches(tmp_path):
    start = time.perf_counter()
    spec = ScenarioSpec(n_targets=6, n_frames=100, motion=Motion.LINEAR,
                        seed=23, max_speed=1.5)
    gt, _ = generate(spec)

    def clip(traj, lo, hi):
        return [e for e in traj.entries if lo <= e.frame <= hi]

    # Swap two identities across a one-frame hole, split another one, keep
    # the rest intact.
    corrupted = [
        Trajectory(track_id=1, entries=tuple(clip(gt[0], 1, 50) + clip(gt[1], 52, 100))),
        Trajectory(track_id=2, entries=tuple(clip(gt[1], 1, 50) + clip(gt[0], 52, 100))),
        Trajectory(track_id=3, entries=tuple(clip(gt[2], 1, 40))),
        Trajectory(track_id=4, entries=tuple(clip(gt[2], 42, 100))),
        Trajectory(track_id=5, entries=tuple(gt[3].entries)),
        Trajectory(track_id=6, entries=tuple(gt[4].entries)),
        Trajectory(track_id=7, entries=tuple(gt[5].entries)),
    ]
    n_input = sum(len(t.entries) for t in corrupted)
    src = tmp_path / "in.txt"
    write_mot_results(corrupted, src)

    plain_out = tmp_path / "plain.txt"
    assert cli.main(["refine", "--in", str(src), "--out", str(plain_out)]) == 0
    assert read_track_table(plain_out).frame.size == n_input

    filled_out = tmp_path / "filled.txt"
    assert cli.main(["refine", "--in", str(src), "--out", str(filled_out),
                     "--interp"]) == 0
    report = evaluate(tracks_table(gt), read_track_table(filled_out))
    assert report.idsw == 0
    assert report.idf1 == 1.0
    assert time.perf_counter() - start < 2.0


def test_interval_schedule_beats_window_on_straddling_gap():
    dets = [Detection(frame=f, box=box(500.0, 300.0, 40.0, 80.0),
                      score=0.9, det_id=f)
            for f in range(1, 301) if not 126 <= f <= 130]
    interval_count = track_count(run_table(table_of(dets), TrackerConfig()).output())
    windowed = dataclasses.replace(TrackerConfig(),
                                   strategy=Strategy.WINDOW)
    window_count = track_count(run_table(table_of(dets), windowed).output())
    assert interval_count == 1
    assert interval_count < window_count


def test_outputs_byte_identical_across_runs(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"n_targets": 6, "n_frames": 60, "motion": "linear", "seed": 5,
         "noise_sigma": 0.4, "miss_prob": 0.03}))
    for label in ("a", "b"):
        assert cli.main(["synth", "--spec", str(spec_path),
                         "--out-dir", str(tmp_path / label)]) == 0
    det_a, det_b = (tmp_path / lbl / "det.txt" for lbl in ("a", "b"))
    assert det_a.read_bytes() == det_b.read_bytes()
    assert (tmp_path / "a" / "gt.txt").read_bytes() == \
        (tmp_path / "b" / "gt.txt").read_bytes()

    outs = []
    for label in ("x", "y"):
        out = tmp_path / f"track_{label}.txt"
        dump = tmp_path / f"dump_{label}.json"
        assert cli.main(["track", "--det", str(det_a), "--out", str(out),
                         "--dump-hierarchy", str(dump)]) == 0
        outs.append((out.read_bytes(), dump.read_bytes()))
    assert outs[0] == outs[1]

    refined = []
    for label in ("p", "q"):
        out = tmp_path / f"refined_{label}.txt"
        assert cli.main(["refine", "--in", str(tmp_path / "track_x.txt"),
                         "--out", str(out), "--interp", "--smooth"]) == 0
        refined.append(out.read_bytes())
    assert refined[0] == refined[1]


def test_throughput_thousand_frames():
    spec = ScenarioSpec(n_targets=20, n_frames=1000, motion=Motion.LINEAR,
                        seed=42, noise_sigma=0.5, miss_prob=0.02)
    _, dets = generate(spec)
    start = time.perf_counter()
    tracks = run_table(table_of(dets), TrackerConfig()).output()
    elapsed = time.perf_counter() - start
    assert track_count(tracks) == 20
    assert elapsed < 5.0
