import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from intertrack import cli, metrics, synth
from intertrack.model import (BoundingBox, ConfigError, Detection, Strategy, TrackerConfig,
                              Trajectory)
from intertrack.mot_io import (
    read_mot_tracks,
    read_track_table,
    write_mot_detections,
    write_mot_results,
)
from intertrack.synth import ScenarioSpec


def linear_dets(n_frames=20, xs=(100.0, 400.0), gap_frames=(), start_id=1):
    dets = []
    det_id = start_id
    for f in range(1, n_frames + 1):
        for k, x in enumerate(xs):
            if (k, f) in gap_frames:
                continue
            dets.append(Detection(frame=f, box=BoundingBox(x + 2.0 * f, 200.0, 40.0, 80.0),
                                  score=0.9, det_id=det_id))
            det_id += 1
    return dets


def write_dets(path, dets):
    write_mot_detections(dets, path)
    return path


def traj(track_id, frames, x0, dx=2.0):
    entries = tuple(Detection(frame=f, box=BoundingBox(x0 + dx * f, 200.0, 40.0, 80.0),
                              score=0.9, det_id=f)
                    for f in frames)
    return Trajectory(track_id=track_id, entries=entries)


class TestTrack:
    def test_writes_results_and_summary(self, tmp_path, capsys):
        det = write_dets(tmp_path / "det.txt", linear_dets())
        out = tmp_path / "out.txt"
        rc = cli.main(["track", "--det", str(det), "--out", str(out)])
        assert rc == 0
        assert len(read_mot_tracks(out)) == 2
        stdout = capsys.readouterr().out
        assert "2 trajectories" in stdout
        assert "levels" in stdout and "camera" in stdout

    def test_empty_detection_file(self, tmp_path, capsys):
        det = tmp_path / "det.txt"
        det.write_text("")
        out = tmp_path / "out.txt"
        rc = cli.main(["track", "--det", str(det), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == ""
        assert "0 trajectories" in capsys.readouterr().out

    def test_runs_are_byte_identical(self, tmp_path):
        det = write_dets(tmp_path / "det.txt",
                         linear_dets(gap_frames={(0, 7), (0, 8)}))
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli.main(["track", "--det", str(det), "--out", str(out1)]) == 0
        assert cli.main(["track", "--det", str(det), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dump_hierarchy_counts_monotone(self, tmp_path):
        det = write_dets(tmp_path / "det.txt",
                         linear_dets(gap_frames={(1, 5)}))
        out = tmp_path / "out.txt"
        dump = tmp_path / "dump.json"
        rc = cli.main(["track", "--det", str(det), "--out", str(out),
                       "--dump-hierarchy", str(dump)])
        assert rc == 0
        payload = json.loads(dump.read_text())
        info = payload["det"]["classes"]["0"]
        counts = info["counts"]
        assert counts[0] == 39
        assert all(b <= a for a, b in zip(counts[1:], counts[2:]))
        labels = [level["label"] for level in info["levels"]]
        assert labels[0] == "singletons"
        assert any(label.startswith("level-2") for label in labels)

    def test_verbose_logs_first_level_certificates_outside_the_dump(self, tmp_path, caplog):
        det = write_dets(tmp_path / "det.txt", linear_dets(gap_frames={(1, 5)}))
        dumps = [tmp_path / "quiet.json", tmp_path / "verbose.json"]
        assert cli.main(["track", "--det", str(det), "--out", str(tmp_path / "q.txt"),
                         "--dump-hierarchy", str(dumps[0])]) == 0
        with caplog.at_level("INFO"):
            assert cli.main(["--verbose", "track", "--det", str(det), "--out",
                             str(tmp_path / "v.txt"), "--dump-hierarchy", str(dumps[1])]) == 0
        assert dumps[0].read_bytes() == dumps[1].read_bytes()
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("first level")]
        # The static pass and the motion pass, each over the 19 frame pairs:
        # target 0 links across all of them, target 1 across the 17 that
        # do not touch its missing frame 5, and no box pair of two targets
        # overlaps, so those 36 pairs are the only candidates.
        assert lines == ["first level: 36 candidate pairs, 36 cells above 0, "
                         "36 components solved (largest 2 nodes), 0 by augmenting paths, "
                         "36 links"] * 2

    def test_verbose_logs_each_merge_round_outside_stdout_and_the_dump(self, tmp_path, capsys,
                                                                       caplog):
        # Two gaps leave four level-1 tracklets; level 2 joins each pair.  Of
        # two low-score rows, one extends target 0 to frame 21 and one, at
        # frame 5, has no tracklet end next to it, so it is no candidate.
        dets = linear_dets(gap_frames={(0, 8), (0, 9), (1, 12)})
        dets += [Detection(frame=21, box=BoundingBox(142.0, 200.0, 40.0, 80.0), score=0.3,
                           det_id=100),
                 Detection(frame=5, box=BoundingBox(900.0, 200.0, 40.0, 80.0), score=0.3,
                           det_id=101)]
        det = write_dets(tmp_path / "det.txt", dets)
        argv = ["track", "--det", str(det), "--out", str(tmp_path / "out.txt"),
                "--dump-hierarchy", str(tmp_path / "dump.json")]
        assert cli.main(argv) == 0
        quiet = capsys.readouterr().out, (tmp_path / "dump.json").read_bytes()
        with caplog.at_level("INFO"):
            assert cli.main(["--verbose", *argv]) == 0
        assert (capsys.readouterr().out, (tmp_path / "dump.json").read_bytes()) == quiet
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("merge")]
        idle = "0 pairs admitted, 0 above 0, 0 components solved (largest 0 nodes), " \
               "0 by augmenting paths, 0 matches; Kalman: 0 states fitted, 0 continued, " \
               "0 entries in 0 steps"
        # Round 1 fits the forward states of the tracklets over frames 1-7
        # and 1-11 and the backward ones of those over 10-21 and 13-20.
        assert lines == [
            "merge level (gap 5) round 1: 2 pairs admitted, 2 above 0, 2 components solved "
            "(largest 2 nodes), 0 by augmenting paths, 2 matches; Kalman: 4 states fitted, "
            "0 continued, 38 entries in 12 steps",
            f"merge level (gap 5) round 2: {idle}",
            *(f"merge level (gap {bound}) round 1: {idle}" for bound in (10, 15, 20, 30)),
            f"merge level (gap 30, overlap 5) round 1: {idle}"]
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("low-score")] == [
            "low-score recovery: 2 low rows, 1 candidate pairs, 1 cells above 0, 1 rows absorbed"]
        # The row at frame 21 joined target 0's track; the one at frame 5 was dropped.
        out = read_mot_tracks(tmp_path / "out.txt")
        assert sorted((t.t_min, t.t_max, len(t.entries)) for t in out) == \
            [(1, 20, 19), (1, 21, 19)]

    def test_directory_input_with_workers(self, tmp_path, capsys, monkeypatch):
        # Small files, so that --workers 2 alone sets the batches.
        monkeypatch.setattr(cli, "_MIN_BATCH_BYTES", 1)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        src = tmp_path / "seqs"
        src.mkdir()
        write_dets(src / "alpha.txt", linear_dets())
        write_dets(src / "beta.txt", linear_dets(xs=(250.0,)))
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert cli.main(["track", "--det", str(src), "--out", str(serial)]) == 0
        assert cli.main(["track", "--det", str(src), "--out", str(parallel),
                         "--workers", "2"]) == 0
        for name in ("alpha.txt", "beta.txt"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()
        stdout = capsys.readouterr().out
        assert "alpha:" in stdout and "beta:" in stdout

    @pytest.mark.parametrize("command", ["track", "refine"])
    def test_dump_identical_with_one_and_two_workers(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(cli, "_MIN_BATCH_BYTES", 1)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        src = tmp_path / "seqs"
        src.mkdir()
        if command == "track":
            write_dets(src / "alpha.txt", linear_dets(gap_frames={(0, 7), (0, 8)}))
            write_dets(src / "beta.txt", linear_dets(xs=(250.0,)))
        else:
            write_mot_results([traj(1, [1, 2, 4, 5, 6], 100.0)], src / "alpha.txt")
            write_mot_results([traj(1, range(1, 11), 100.0),
                               traj(2, range(13, 21), 100.0)], src / "beta.txt")
        flag = "--det" if command == "track" else "--in"
        dumps = []
        for workers in ("1", "2"):
            dumps.append(tmp_path / f"dump{workers}.json")
            assert cli.main([command, flag, str(src), "--out", str(tmp_path / f"out{workers}"),
                             "--workers", workers, "--dump-hierarchy", str(dumps[-1])]) == 0
        assert dumps[0].read_bytes() == dumps[1].read_bytes()
        assert set(json.loads(dumps[0].read_text())) == {"alpha", "beta"}

    def test_frames_far_apart_track(self, tmp_path, capsys):
        # The camera profile holds the frames present, not their span.
        det = tmp_path / "det.txt"
        det.write_text("1,-1,10,20,30,40,0.9\n2,-1,12,20,30,40,0.9\n"
                       "1000000000000,-1,500,20,30,40,0.9\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        assert cli.main(["track", "--det", str(det), "--out", str(out)]) == 0
        assert "det: 2 trajectories from 3 detections" in capsys.readouterr().out
        assert [line.split(",")[:2] for line in out.read_text().splitlines()] == \
            [["1", "1"], ["2", "1"], ["1000000000000", "2"]]

    def test_no_dump_payload_without_dump_flag(self, tmp_path):
        det = write_dets(tmp_path / "det.txt", linear_dets(n_frames=5))
        with mock.patch.object(cli, "_dump_payload", side_effect=AssertionError):
            assert cli.main(["track", "--det", str(det), "--out", str(tmp_path / "o.txt")]) == 0

    def test_missing_input_fails_with_1(self, tmp_path, capsys):
        rc = cli.main(["track", "--det", str(tmp_path / "nope.txt"),
                       "--out", str(tmp_path / "out.txt")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_eval_of_frame_beyond_2_53_fails_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1,1,0,0,10,10,1\n1e300,1,0,0,10,10,1\n")
        assert cli.main(["eval", "--gt", str(path), "--pred", str(path), "--kv"]) == 1
        assert "m.txt:2: frame and id must be below 2**53" in capsys.readouterr().err

    def test_eval_of_non_utf8_byte_fails_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_bytes(b"1,1,0,0,10,10,1\n2,1,0,0,10,10,1\xff\n")
        assert cli.main(["eval", "--gt", str(path), "--pred", str(path), "--kv"]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: not UTF-8 text\n"

    def test_negative_kitti_frame_fails_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "k.txt"
        path.write_text("-3 1 Car 0 0 -10 0 0 100 50 1.5 1.6 3.8 1 1 1 0.1\n")
        assert cli.main(["track", "--det", str(path), "--format", "kitti",
                         "--out", str(tmp_path / "o.txt")]) == 1
        assert "k.txt:1: frame index -3 must be >= 0" in capsys.readouterr().err

    def test_fractional_frame_fails_at_its_line(self, tmp_path, capsys):
        # Read as frame 1 twice, this track used to fail as a repeated frame.
        path = tmp_path / "m.txt"
        path.write_text("1.9,1,0,0,10,10,1\n1.2,1,0,0,10,10,1\n")
        assert cli.main(["eval", "--gt", str(path), "--pred", str(path), "--kv"]) == 1
        assert "m.txt:1: frame and id must be whole numbers" in capsys.readouterr().err
        assert cli.main(["track", "--det", str(path), "--out", str(tmp_path / "o.txt")]) == 1
        assert "m.txt:1: frame and id must be whole numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "eval"])
    @pytest.mark.parametrize("fmt, names, problem", [
        ("mot", "Car", "a class filter applies to kitti input only, not mot"),
        ("kitti", "Car,Bus", "unknown class name 'Bus'"),
    ])
    def test_misused_class_filter_fails_with_2(self, tmp_path, capsys, command, fmt, names,
                                               problem):
        path = tmp_path / "in.txt"
        path.write_text("1,1,0,0,10,10,1\n" if fmt == "mot" else
                        "0 1 Car 0 0 -10 0 0 100 50 1.5 1.6 3.8 1 1 1 0.1\n")
        out = tmp_path / "o.txt"
        argv = (["track", "--det", str(path), "--out", str(out)] if command == "track"
                else ["eval", "--gt", str(path), "--pred", str(path)])
        assert cli.main([*argv, "--format", fmt, "--class-filter", names]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "configuration error" in captured.err and problem in captured.err

    def test_bad_config_value_fails_with_2(self, tmp_path, capsys):
        det = write_dets(tmp_path / "det.txt", linear_dets(n_frames=3))
        rc = cli.main(["track", "--det", str(det), "--out", str(tmp_path / "o.txt"),
                       "--match-threshold", "1.5"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_infinite_flag_value_fails_with_2(self, tmp_path, capsys):
        det = write_dets(tmp_path / "det.txt", linear_dets(n_frames=3))
        out = tmp_path / "o.txt"
        assert cli.main(["track", "--det", str(det), "--out", str(out),
                         "--ci-scaling-factor", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "ci_scaling_factor must be finite, got inf" in captured.err

    def test_nan_smoothing_sigma_fails_with_2(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        write_mot_results([traj(1, [1, 2, 4, 5, 6], 100.0)], src)
        out = tmp_path / "o.txt"
        assert cli.main(["refine", "--in", str(src), "--out", str(out), "--smooth",
                         "--smoothing-sigma", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "smoothing_sigma must be finite, got nan" in captured.err

    def test_infinite_config_line_fails_with_2(self, tmp_path, capsys):
        det = write_dets(tmp_path / "det.txt", linear_dets(n_frames=3))
        cfile = tmp_path / "cfg.txt"
        cfile.write_text("kf_position_weight = inf\n")
        assert cli.main(["track", "--det", str(det), "--out", str(tmp_path / "o.txt"),
                         "--config", str(cfile)]) == 2
        assert "kf_position_weight must be finite, got inf" in capsys.readouterr().err

    def test_non_utf8_config_line_fails_with_2(self, tmp_path, capsys):
        det = write_dets(tmp_path / "det.txt", linear_dets(n_frames=3))
        cfile = tmp_path / "cfg.txt"
        # The config reader splits lines as str.splitlines does, also at \x1c.
        cfile.write_bytes(b"# tuned\x1c by hand\r\nmatch_threshold = 0.\xff3\n")
        assert cli.main(["track", "--det", str(det), "--out", str(tmp_path / "o.txt"),
                         "--config", str(cfile)]) == 2
        assert capsys.readouterr().err == \
            f"configuration error: invalid config: {cfile}:3: not UTF-8 text\n"

    @pytest.mark.parametrize("line", ["final_overlap = abc", "match_threshold = x",
                                      "interpolation_max_gap = 2.5"])
    def test_non_numeric_config_value_fails_with_2(self, tmp_path, capsys, line):
        det = write_dets(tmp_path / "det.txt", linear_dets(n_frames=3))
        cfile = tmp_path / "cfg.txt"
        cfile.write_text(f"# tuned\n{line}\n")
        rc = cli.main(["track", "--det", str(det), "--out", str(tmp_path / "o.txt"),
                       "--config", str(cfile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{cfile}:2: {line.split()[0]}:" in err

    @pytest.mark.parametrize("flags, problem", [
        (["--stage-bounds", ","], "schedule must contain at least one stage"),
        (["--final-overlap", "-1"], "overlap allowances must be >= 0"),
        (["--strategy", "window", "--final-overlap", "5"], "window strategy admits no overlap"),
        (["--strategy", "window", "--stage-bounds", "2,4,8", "--final-overlap", "5"],
         "window strategy admits no overlap"),
    ])
    def test_flags_that_build_no_schedule_fail_with_2(self, tmp_path, capsys, flags, problem):
        det = write_dets(tmp_path / "det.txt", linear_dets(n_frames=3))
        rc = cli.main(["track", "--det", str(det), "--out", str(tmp_path / "o.txt"), *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and problem in captured.err

    @pytest.mark.parametrize("lines, lineno, problem", [
        (["stage_bounds ="], 2, "schedule must contain at least one stage"),
        (["final_overlap = -1"], 2, "overlap allowances must be >= 0"),
        (["strategy = window", "final_overlap = 5"], 3, "the window strategy admits no overlap"),
        (["final_overlap = 5", "strategy = window", "stage_bounds = 2,4,8"], 2,
         "the window strategy admits no overlap"),
    ])
    def test_config_lines_that_build_no_schedule_name_the_line(self, tmp_path, capsys,
                                                               lines, lineno, problem):
        det = write_dets(tmp_path / "det.txt", linear_dets(n_frames=3))
        cfile = tmp_path / "cfg.txt"
        cfile.write_text("# schedule\n" + "\n".join(lines) + "\n")
        rc = cli.main(["track", "--det", str(det), "--out", str(tmp_path / "o.txt"),
                       "--config", str(cfile)])
        assert rc == 2
        assert f"{cfile}:{lineno}: {problem}" in capsys.readouterr().err

    def test_kitti_format_roundtrip(self, tmp_path):
        src = tmp_path / "labels.txt"
        rows = []
        for f in range(0, 6):
            x1 = 100.0 + 2 * f
            rows.append(f"{f} 1 Car -1 -1 -10 {x1:.2f} 180.00 {x1 + 40:.2f} 260.00 "
                        "-1000 -1000 -1000 -1000 -1000 -1000 -10 0.9")
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out.txt"
        rc = cli.main(["track", "--det", str(src), "--format", "kitti",
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[0].split()[2] == "Car"


class TestRefine:
    def test_gap_under_one_id_survives_as_one_id(self, tmp_path):
        src = tmp_path / "in.txt"
        write_mot_results([traj(1, [1, 2, 4, 5, 6], 100.0)], src)
        out = tmp_path / "out.txt"
        assert cli.main(["refine", "--in", str(src), "--out", str(out)]) == 0
        tracks = read_mot_tracks(out)
        assert len(tracks) == 1
        assert [e.frame for e in tracks[0].entries] == [1, 2, 4, 5, 6]

    def test_id_switch_at_gap_is_repaired(self, tmp_path):
        src = tmp_path / "in.txt"
        write_mot_results([traj(1, range(1, 11), 100.0),
                           traj(2, range(13, 21), 100.0)], src)
        out = tmp_path / "out.txt"
        assert cli.main(["refine", "--in", str(src), "--out", str(out)]) == 0
        tracks = read_mot_tracks(out)
        assert len(tracks) == 1
        assert tracks[0].t_min == 1 and tracks[0].t_max == 20

    def test_interpolation_fills_the_gap(self, tmp_path):
        src = tmp_path / "in.txt"
        write_mot_results([traj(1, [1, 2, 4, 5, 6], 100.0)], src)
        out = tmp_path / "out.txt"
        assert cli.main(["refine", "--in", str(src), "--out", str(out),
                         "--interp"]) == 0
        tracks = read_mot_tracks(out)
        assert [e.frame for e in tracks[0].entries] == [1, 2, 3, 4, 5, 6]

    def test_kitti_track_holding_two_classes_is_split_by_class(self, tmp_path):
        # Tracks 1 and 2 swap their tails at frame 10: each holds a Car run
        # and a Pedestrian run.
        def row(f, tid, cls):
            x1, y1, w, h = ((100.0 + 2 * f, 180.0, 40.0, 80.0) if cls == "Car"
                            else (600.0 + f, 150.0, 30.0, 100.0))
            return (f"{f} {tid} {cls} -1 -1 -10 {x1:.2f} {y1:.2f} {x1 + w:.2f} {y1 + h:.2f} "
                    "-1000 -1000 -1000 -1000 -1000 -1000 -10 0.9")
        rows = [row(f, 1 if f < 10 else 2, "Car") for f in range(20)]
        rows += [row(f, 2 if f < 10 else 1, "Pedestrian") for f in range(20)]
        src = tmp_path / "labels.txt"
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out.txt"
        assert cli.main(["refine", "--in", str(src), "--out", str(out),
                         "--format", "kitti"]) == 0
        classes_of = {}
        boxes = set()
        for line in out.read_text().splitlines():
            tok = line.split()
            classes_of.setdefault(tok[1], set()).add(tok[2])
            boxes.add((int(tok[0]), tok[2], *(round(float(v), 2) for v in tok[6:10])))
        assert all(len(classes) == 1 for classes in classes_of.values())
        assert sorted(c for classes in classes_of.values() for c in classes) == \
            ["Car", "Pedestrian"]
        assert boxes == {(int(tok[0]), tok[2], *(float(v) for v in tok[6:10]))
                         for tok in (r.split() for r in rows)}


class TestEval:
    def test_perfect_prediction(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        write_mot_results([traj(1, range(1, 11), 100.0)], gt)
        rc = cli.main(["eval", "--gt", str(gt), "--pred", str(gt)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "MOTA  1.0000" in stdout
        assert "IDF1  1.0000" in stdout

    def test_empty_prediction(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        write_mot_results([traj(1, range(1, 11), 100.0)], gt)
        pred = tmp_path / "pred.txt"
        pred.write_text("")
        rc = cli.main(["eval", "--gt", str(gt), "--pred", str(pred)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "MOTA  0.0000" in stdout
        assert "IDF1  0.0000" in stdout

    def test_kv_output(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        write_mot_results([traj(1, range(1, 6), 100.0)], gt)
        rc = cli.main(["eval", "--gt", str(gt), "--pred", str(gt), "--kv"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "mota=1.000000" in lines
        assert "idf1=1.000000" in lines

    def test_directory_mode_pools_sequences(self, tmp_path, capsys):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        for name in ("s1.txt", "s2.txt"):
            write_mot_results([traj(1, range(1, 6), 100.0)], gt_dir / name)
            write_mot_results([traj(9, range(1, 6), 100.0)], pred_dir / name)
        rc = cli.main(["eval", "--gt", str(gt_dir), "--pred", str(pred_dir)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "s1" in stdout and "s2" in stdout
        assert "MOTA  1.0000" in stdout

    def test_kitti_match_never_crosses_classes(self, tmp_path, capsys):
        # Each Pedestrian box lies exactly on a Car ground-truth box.
        gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
        gt.write_text("".join(f"{f} 1 Car 0 0 0 {x} 100 {x + 50} 200 -1 -1 -1 -1 -1 -1 -1\n"
                              for f, x in ((0, 100), (1, 102))))
        pred.write_text("".join(f"{f} 7 Pedestrian 0 0 0 {x} 100 {x + 50} 200 "
                                "-1 -1 -1 -1 -1 -1 -1 0.9\n" for f, x in ((0, 100), (1, 102))))
        assert cli.main(["eval", "--gt", str(gt), "--pred", str(pred), "--format", "kitti",
                         "--kv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert {"fp=2", "fn=2", "mota=-1.000000", "idf1=0.000000"} <= set(lines)

    def test_verbose_logs_forced_and_conflict_frames_outside_stdout(self, tmp_path, capsys,
                                                                    caplog):
        gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
        # From frame 3 on, both gt tracks overlap the one prediction.
        write_mot_results([traj(1, range(1, 6), 100.0), traj(2, range(3, 6), 110.0)], gt)
        write_mot_results([traj(9, range(1, 6), 100.0)], pred)
        argv = ["eval", "--gt", str(gt), "--pred", str(pred), "--kv"]
        assert cli.main(argv) == 0
        quiet = capsys.readouterr().out
        with caplog.at_level("INFO"):
            assert cli.main(["--verbose", *argv]) == 0
        assert capsys.readouterr().out == quiet
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("eval:")]
        # Candidates: gt 1 x pred 9 in frames 1-5, gt 2 x pred 9 in frames 3-5.
        assert lines == ["eval: 5 frames, 8 candidate pairs, 2 forced, 3 conflict frames stepped"]

    @staticmethod
    def _shared_id_dirs(tmp_path):
        """Three sequences of gt tracks 1 and 2 over frames 1-6 under gt/, and
        their predictions under pred/: a conflict, a switch, and none."""
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        gt = [traj(1, range(1, 7), 100.0), traj(2, range(1, 7), 400.0)]
        preds = {"a": [traj(1, range(1, 7), 100.0), traj(2, range(3, 7), 105.0)],
                 "b": [traj(1, range(1, 4), 100.0), traj(2, range(4, 7), 100.0),
                       traj(3, range(1, 7), 400.0)],
                 "c": []}
        for name, pred in preds.items():
            write_mot_results(gt, gt_dir / f"{name}.txt")
            write_mot_results(pred, pred_dir / f"{name}.txt")
        return gt_dir, pred_dir, sorted(preds)

    def test_directory_lines_are_each_sequences_alone(self, tmp_path, capsys, caplog):
        gt_dir, pred_dir, names = self._shared_id_dirs(tmp_path)
        want_kv, want_info = [], []
        for name in names:
            gt, pred = (read_track_table(d / f"{name}.txt") for d in (gt_dir, pred_dir))
            report = metrics.evaluate(gt, pred)
            want_kv += [f"seq.{name}.mota={report.mota:.6f}",
                        f"seq.{name}.idf1={report.idf1:.6f}", f"seq.{name}.idsw={report.idsw}"]
            caplog.clear()
            with caplog.at_level("INFO"):
                metrics.sequence_counts([(gt, pred)], 0.5)
            want_info += [r.getMessage() for r in caplog.records]
        assert want_kv[2::3] == ["seq.a.idsw=0", "seq.b.idsw=1", "seq.c.idsw=0"]
        assert "4 conflict frames" in want_info[0]
        caplog.clear()
        with caplog.at_level("INFO"):
            assert cli.main(["--verbose", "eval", "--gt", str(gt_dir), "--pred", str(pred_dir),
                             "--kv"]) == 0
        assert [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("seq.")] == want_kv
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("eval:")] == want_info

    def test_directory_eval_sweeps_once(self, tmp_path, capsys):
        gt_dir, pred_dir, _ = self._shared_id_dirs(tmp_path)
        with mock.patch("intertrack.metrics.overlap_cells",
                        wraps=metrics.overlap_cells) as sweep:
            assert cli.main(["eval", "--gt", str(gt_dir), "--pred", str(pred_dir)]) == 0
        assert sweep.call_count == 1

    def test_verbose_logs_each_file_read(self, tmp_path, capsys, caplog):
        gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
        write_mot_results([traj(1, range(1, 6), 100.0)], gt)
        # A blank last line keeps pred.txt from the one-call parse.
        pred.write_text(gt.read_text() + "\n")
        argv = ["eval", "--gt", str(gt), "--pred", str(pred), "--kv"]
        assert cli.main(argv) == 0
        quiet = capsys.readouterr().out
        with caplog.at_level("INFO"):
            assert cli.main(["--verbose", *argv]) == 0
        assert capsys.readouterr().out == quiet
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("read ")]
        assert lines == [f"read {gt}: 5 lines, 5 rows kept, bulk",
                         f"read {pred}: 6 lines, 5 rows kept, line by line"]

    @pytest.mark.parametrize("value", ["-1", "nan", "1.5", "0"])
    def test_iou_threshold_outside_unit_interval_fails_with_2(self, tmp_path, capsys, value):
        gt = tmp_path / "gt.txt"
        write_mot_results([traj(1, range(1, 6), 100.0)], gt)
        rc = cli.main(["eval", "--gt", str(gt), "--pred", str(gt), "--iou-threshold", value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and "--iou-threshold" in captured.err

    def test_directory_mode_warns_about_one_sided_sequences(self, tmp_path, capsys, caplog):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        for name in ("s1.txt", "s2.txt"):
            write_mot_results([traj(1, range(1, 6), 100.0)], gt_dir / name)
            write_mot_results([traj(9, range(1, 4), 100.0)], pred_dir / name)
        argv = ["eval", "--gt", str(gt_dir), "--pred", str(pred_dir), "--kv"]
        assert cli.main(argv) == 0
        shared_only = capsys.readouterr().out
        assert not [r for r in caplog.records if r.levelname == "WARNING"]
        write_mot_results([traj(1, range(1, 6), 100.0)], gt_dir / "gt_extra.txt")
        write_mot_results([traj(1, range(1, 6), 100.0)], pred_dir / "pred_extra.txt")
        with caplog.at_level("WARNING"):
            assert cli.main(argv) == 0
        assert capsys.readouterr().out == shared_only
        (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert "gt_extra (gt only)" in warning and "pred_extra (pred only)" in warning


class TestSynth:
    def spec_file(self, tmp_path, seed=3):
        spec = {"n_targets": 3, "n_frames": 15, "motion": "linear", "seed": seed}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_same_seed_same_bytes(self, tmp_path):
        spec = self.spec_file(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(out1)]) == 0
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(out2)]) == 0
        assert (out1 / "gt.txt").read_bytes() == (out2 / "gt.txt").read_bytes()
        assert (out1 / "det.txt").read_bytes() == (out2 / "det.txt").read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        spec = self.spec_file(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(out1)]) == 0
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(out2),
                         "--seed", "77"]) == 0
        assert (out1 / "det.txt").read_bytes() != (out2 / "det.txt").read_bytes()

    def test_environment_sets_no_seed(self, tmp_path, monkeypatch):
        spec = self.spec_file(tmp_path)
        outs = tmp_path / "a", tmp_path / "b"
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(outs[0])]) == 0
        monkeypatch.setenv("INTERTRACK_SEED", "77")
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(outs[1])]) == 0
        assert (outs[0] / "det.txt").read_bytes() == (outs[1] / "det.txt").read_bytes()

    # One faulty spec per fault: the spec's text, then what the message says.
    @pytest.mark.parametrize("text, problem", [
        ('{"n_targets": "5", "n_frames": 10}', "n_targets must be an integer, got '5'"),
        ('{"n_targets": 5, "n_frames": 10', "Expecting ',' delimiter: line 1"),
        ('{"n_targets": 5, "n_frames": 10, "miss_prob": 2}', "miss_prob must be in [0, 1], got 2"),
        ('{"n_targets": 5, "n_frames": 10, "noise_sigma": -0.5}',
         "noise_sigma must be finite and >= 0, got -0.5"),
        ('{"n_targets": 5, "n_frames": 10, "size_jitter": -1}',
         "size_jitter must be finite and >= 0, got -1"),
        ('{"n_targets": 5, "n_frames": 10, "max_speed": -2}',
         "max_speed must be finite and >= 0, got -2"),
        ('{"n_targets": 5, "n_frames": 10, "base_score": 1.5}',
         "base_score must be in [0, 1], got 1.5"),
        ('{"n_targets": 5, "n_frames": 10, "score_dips": {"0": [[2, 4, -0.1]]}}',
         "a score_dips score must be in [0, 1], got -0.1"),
        ('{"n_targets": 5, "n_frames": 10, "miss_intervals": {"0": [["a", 3]]}}',
         "each of miss_intervals's entries must be 2 numbers"),
        ('{"n_targets": 5, "n_frames": 10, "motion": "sinusoidal", "sine_period": 0}',
         "sine_period must not be 0"),
        ('[1, 2]', "expected a JSON object of scenario keys"),
        ('"abc"', "expected a JSON object of scenario keys"),
        ('{"n_targets": 5, "n_frames": 10, "miss_intervals": [1]}',
         "miss_intervals must be a JSON object keyed by target index, got [1]"),
        ('{"n_targets": 5, "n_frames": 10, "score_dips": {"x": [[2, 4, 0.1]]}}',
         "score_dips key 'x' is not an integer target index"),
        ('{"n_targets": 5, "n_frames": 10, "miss_intervals": {"x": [[2, 4]]}}',
         "miss_intervals key 'x' is not an integer target index"),
        ('{"n_targets": 2, "n_frames": 10, "miss_intervals": {"7": [[1, 2]]}}',
         "miss_intervals key 7 names no target (n_targets 2)"),
        ('{"n_targets": 2, "n_frames": 10, "score_dips": {"-1": [[1, 2, 0.5]]}}',
         "score_dips key -1 names no target (n_targets 2)"),
        ('{"n_targets": 5, "n_frames": 10, "miss_intervals": {"0": 5}}',
         "miss_intervals key '0' must map to a list of arrays, got 5"),
        ('{"n_targets": 5, "n_frames": 10, "score_dips": {"1": [7]}}',
         "score_dips key '1' must map to a list of arrays, got [7]"),
    ], ids=["string-count", "json-syntax", "miss-prob", "noise-sigma", "size-jitter",
            "max-speed", "base-score", "dip-score", "interval-entry", "sine-period",
            "top-level-array", "top-level-string", "intervals-array", "dip-key",
            "interval-key", "interval-key-no-target", "dip-key-no-target",
            "interval-not-a-list", "dip-entry-not-a-list"])
    def test_faulty_spec_names_the_file(self, tmp_path, capsys, text, problem):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()  # no traceback
        assert line.startswith(f"error: {spec}: {problem}")
        assert not out.exists()

    def test_spec_that_is_not_utf8_fails_at_its_line(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"n_targets": 2,\n "n_frames": 5,\n "seed": 1 \xff}\n')
        out = tmp_path / "out"
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {spec}:3: not UTF-8 text"]
        assert not out.exists()


class TestConfigAssembly:
    def parse(self, *argv):
        return cli.build_parser().parse_args(
            ["track", "--det", "d", "--out", "o", *argv])

    def test_defaults(self):
        cfg = cli.build_config(self.parse())
        assert cfg.match_threshold == pytest.approx(0.2)
        assert cfg.strategy is Strategy.INTERVAL

    def test_config_file_applies(self, tmp_path):
        cfile = tmp_path / "cfg.txt"
        cfile.write_text("match_threshold = 0.4\n"
                         "# a comment\n"
                         "use_hm_iou = true\n"
                         "strategy = window\n")
        cfg = cli.build_config(self.parse("--config", str(cfile)))
        assert cfg.match_threshold == pytest.approx(0.4)
        assert cfg.use_hm_iou is True
        assert cfg.strategy is Strategy.WINDOW

    def test_flags_beat_config_file(self, tmp_path):
        cfile = tmp_path / "cfg.txt"
        cfile.write_text("match_threshold = 0.4\n")
        cfg = cli.build_config(self.parse("--config", str(cfile),
                                          "--match-threshold", "0.3"))
        assert cfg.match_threshold == pytest.approx(0.3)

    def test_rng_seed_key_is_unknown(self, tmp_path, capsys):
        # The pipeline has no seed; a leftover rng_seed line is a config error.
        det = write_dets(tmp_path / "det.txt", linear_dets(n_frames=3))
        cfile = tmp_path / "cfg.txt"
        cfile.write_text("match_threshold = 0.3\nrng_seed = 5\n")
        rc = cli.main(["track", "--det", str(det), "--out", str(tmp_path / "o.txt"),
                       "--config", str(cfile)])
        assert rc == 2
        assert f"{cfile}:2: unknown config key 'rng_seed'" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfile = tmp_path / "cfg.txt"
        cfile.write_text("warp_speed = 11\n")
        with pytest.raises(Exception) as err:
            cli.build_config(self.parse("--config", str(cfile)))
        assert "warp_speed" in str(err.value)

    def test_stage_bounds_flag(self):
        cfg = cli.build_config(self.parse("--stage-bounds", "1,4,9",
                                          "--final-overlap", "3"))
        bounds = [s.bound for s in cfg.stages]
        assert bounds == [1, 4, 9, 9]
        assert cfg.stages[-1].overlap == 3

    def test_toggles(self):
        cfg = cli.build_config(self.parse("--no-ci", "--no-cc", "--no-cm",
                                          "--use-hm-iou"))
        assert not cfg.enable_ci and not cfg.enable_cc and not cfg.enable_cm
        assert cfg.use_hm_iou

    def test_environment_sets_no_workers(self, monkeypatch):
        monkeypatch.setenv("INTERTRACK_WORKERS", "three")
        assert self.parse().workers == 1
        assert cli.build_config(self.parse()) == TrackerConfig()


# A valid raw value, other than the default, for every TrackerConfig field.
RAW = {"match_threshold": "0.3", "ci_width_threshold": "48", "ci_scaling_factor": "0.25",
       "cc_threshold": "0.5", "score_high": "0.7", "score_low": "0.2", "use_hm_iou": "true",
       "enable_ci": "false", "enable_cc": "false", "enable_cm": "false",
       "strategy": "window", "stage_bounds": "2,4,8", "final_overlap": "0",
       "interpolation_max_gap": "12", "smoothing_sigma": "2.5",
       "kf_position_weight": "0.1", "kf_velocity_weight": "0.01"}
FIELDS = {f.name for f in dataclasses.fields(TrackerConfig)}


def config_flags(command="track"):
    """{option string: argparse action} of a subcommand's config flags."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    group = next(g for g in sub.choices[command]._action_groups
                 if g.title == "tracker configuration")
    return {a.option_strings[0]: a for a in group._group_actions
            if a.dest not in ("config", "workers")}


def subcommands():
    """{command: parser} of the CLI's subcommands."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParser:
    """Each option is declared once: `track` and `refine` take the same
    options apart from their input flag, and `eval` takes their format
    flags."""

    def test_track_and_refine_share_every_option_but_the_input(self):
        options = {command: {flag for a in p._actions for flag in a.option_strings}
                   for command, p in subcommands().items()}
        assert {"--det", "--workers", "--interp"} <= options["track"]
        assert options["track"] - {"--det"} == options["refine"] - {"--in"}

    @pytest.mark.parametrize("flag", ["--format", "--class-filter"])
    def test_eval_format_flags_equal_the_pipeline_ones(self, flag):
        def action(command):
            a = next(a for a in subcommands()[command]._actions if flag in a.option_strings)
            return a.choices, a.default, a.dest, a.help, a.metavar

        assert action("eval") == action("track") == action("refine")

    def test_zero_workers_is_a_usage_error(self, tmp_path, capsys):
        det = write_dets(tmp_path / "det.txt", linear_dets(n_frames=3))
        out = tmp_path / "o.txt"
        assert cli.main(["track", "--det", str(det), "--out", str(out), "--workers", "0"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: invalid config: worker count must be >= 1, got 0\n")
        assert not out.exists()


class TestOneNamespace:
    """A TrackerConfig field is the config-file key and the flag dest of its
    setting, and a file value and a flag's string parse alike."""

    def from_file(self, tmp_path, lines):
        cfile = tmp_path / "cfg.txt"
        cfile.write_text("".join(f"{line}\n" for line in lines))
        return cli.build_config(cli.build_parser().parse_args(
            ["track", "--det", "d", "--out", "o", "--config", str(cfile)]))

    def from_flags(self, *flags):
        return cli.build_config(cli.build_parser().parse_args(
            ["track", "--det", "d", "--out", "o", *flags]))

    def test_fields_keys_and_flag_dests_are_one_set(self, tmp_path):
        assert set(RAW) == FIELDS
        cfile = tmp_path / "cfg.txt"
        cfile.write_text("".join(f"{name} = {raw}\n" for name, raw in RAW.items()))
        assert set(cli.read_config_file(cfile)) == FIELDS
        cfg = self.from_file(tmp_path, [f"{name} = {raw}" for name, raw in RAW.items()])
        assert all(getattr(cfg, name) != getattr(TrackerConfig(), name) for name in FIELDS)
        dests = {action.dest for action in config_flags().values()}
        assert dests <= FIELDS
        assert FIELDS - dests == {"kf_position_weight", "kf_velocity_weight"}
        assert {a.dest for a in config_flags("refine").values()} == dests

    @pytest.mark.parametrize("flag", sorted(config_flags()))
    def test_file_line_and_flag_give_equal_configs(self, tmp_path, flag):
        action = config_flags()[flag]
        if action.nargs == 0:  # a switch stores its constant
            line, flags = f"{action.dest} = {action.const}", [flag]
        else:
            line, flags = f"{action.dest} = {RAW[action.dest]}", [flag, RAW[action.dest]]
        cfg = self.from_flags(*flags)
        assert cfg == self.from_file(tmp_path, [line])
        assert cfg != TrackerConfig()

    @pytest.mark.parametrize("lines, flags, stages", [
        (["strategy = window"], ["--strategy", "window"], [2, 4, 8, 16, 32, 64, 128]),
        (["strategy = window", "stage_bounds = 2,4,8"],
         ["--strategy", "window", "--stage-bounds", "2,4,8"], [2, 4, 8]),
        (["final_overlap = 0"], ["--final-overlap", "0"], [1, 5, 10, 15, 20, 30]),
        (["stage_bounds = 1,4,9", "final_overlap = 3"],
         ["--stage-bounds", "1,4,9", "--final-overlap", "3"], [1, 4, 9, 9]),
    ])
    def test_schedules_from_file_and_flags(self, tmp_path, lines, flags, stages):
        cfg = self.from_flags(*flags)
        assert cfg == self.from_file(tmp_path, lines)
        assert [s.bound for s in cfg.stages] == stages

    def test_flag_beats_file_per_schedule_value(self, tmp_path):
        cfile = tmp_path / "cfg.txt"
        cfile.write_text("strategy = window\nstage_bounds = 2,4\n")
        cfg = self.from_flags("--config", str(cfile), "--stage-bounds", "4,8,16")
        assert cfg.strategy is Strategy.WINDOW and cfg.stage_bounds == (4, 8, 16)

    @pytest.mark.parametrize("flags, problem", [
        (["--match-threshold", "abc"], "--match-threshold: expected a number, got 'abc'"),
        (["--final-overlap", "1.5"], "--final-overlap: expected an integer, got '1.5'"),
        (["--interp-max-gap", "z"], "--interp-max-gap: expected an integer, got 'z'"),
        (["--strategy", "diagonal"], "--strategy: expected interval or window, got 'diagonal'"),
        (["--stage-bounds", "1,x"], "--stage-bounds: expected comma-separated integers, "
                                    "got '1,x'"),
    ])
    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys, flags, problem):
        det = write_dets(tmp_path / "det.txt", linear_dets(n_frames=3))
        out = tmp_path / "o.txt"
        assert cli.main(["track", "--det", str(det), "--out", str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"configuration error: invalid config: {problem}\n"

    def test_bad_strategy_line(self, tmp_path, capsys):
        with pytest.raises(ConfigError) as err:
            self.from_file(tmp_path, ["strategy = diagonal"])
        assert err.value.problems == [
            f"{tmp_path / 'cfg.txt'}:1: strategy: expected interval or window, got 'diagonal'"]


def test_cli_builds_no_per_row_objects(tmp_path, capsys):
    """track, refine --interp --smooth and eval run on columns from file to
    file: building a Detection or a BoundingBox fails the run."""
    gt_path, det_path = synth.write_scenario(
        ScenarioSpec(n_targets=4, n_frames=40, seed=3, miss_prob=0.2), tmp_path)
    runs = [["track", "--det", str(det_path), "--out", str(tmp_path / "tracks.txt")],
            ["refine", "--in", str(tmp_path / "tracks.txt"), "--out",
             str(tmp_path / "refined.txt"), "--interp", "--smooth"],
            ["eval", "--gt", str(gt_path), "--pred", str(tmp_path / "refined.txt"), "--kv"]]
    built = AssertionError("a per-row object was built")
    with mock.patch.object(Detection, "__post_init__", side_effect=built), \
            mock.patch.object(BoundingBox, "__post_init__", side_effect=built):
        for argv in runs:
            assert cli.main(argv) == 0
    assert "mota=" in capsys.readouterr().out


def test_cli_imports_no_scipy():
    """The CLI runs on numpy alone; scipy is a test dependency only."""
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, intertrack.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout == "[]\n"


def test_one_batch_runs_do_not_import_multiprocessing(tmp_path):
    """A single-file track and a small-directory `track --workers 2` run in
    one batch, and so load neither `multiprocessing` nor the process pool;
    with `_MIN_BATCH_BYTES` at 1 byte the directory starts the pool."""
    (tmp_path / "seqs").mkdir()
    for name, xs in (("alpha", (100.0, 400.0)), ("beta", (250.0,))):
        write_dets(tmp_path / "seqs" / f"{name}.txt", linear_dets(xs=xs))
    one = ["track", "--det", str(tmp_path / "seqs" / "alpha.txt"), "--out",
           str(tmp_path / "alpha.txt")]
    small = ["track", "--det", str(tmp_path / "seqs"), "--out", str(tmp_path / "out"),
             "--workers", "2"]
    code = ("import sys, intertrack.cli as cli\n"
            "def pool_loaded():\n"
            "    return sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules))\n"
            f"for argv in {[one, small]!r}:\n"
            "    assert cli.main(argv) == 0\n"
            "    print(pool_loaded())\n"
            "cli._MIN_BATCH_BYTES = 1\n"
            "cli._usable_cpus = lambda: 2\n"
            f"assert cli.main({small!r}) == 0\n"
            "print(pool_loaded())\n")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert [line for line in proc.stdout.splitlines() if line.startswith("[")] == \
        ["[]", "[]", "['concurrent.futures.process', 'multiprocessing']"]


def test_cli_loads_neither_numpy_ma_nor_synth(tmp_path):
    """Importing the CLI loads neither `numpy.ma`, which the plain
    `np.unique` imports on its first call, nor `synth`, which only the
    synth command needs; track with low-score rows, refine --interp --smooth
    and eval then run without `numpy.ma`."""
    gt_path, det_path = synth.write_scenario(
        ScenarioSpec(n_targets=4, n_frames=40, seed=3, miss_prob=0.2,
                     score_dips={0: [(5, 15, 0.3)], 2: [(20, 30, 0.3)]}), tmp_path)
    runs = [["--verbose", "track", "--det", str(det_path), "--out", str(tmp_path / "tracks.txt")],
            ["refine", "--in", str(tmp_path / "tracks.txt"), "--out",
             str(tmp_path / "refined.txt"), "--interp", "--smooth"],
            ["eval", "--gt", str(gt_path), "--pred", str(tmp_path / "refined.txt"), "--kv"]]
    code = ("import sys, intertrack.cli as cli\n"
            "print(sorted({'numpy.ma', 'intertrack.synth'} & set(sys.modules)))\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0\n"
            "    print('numpy.ma' in sys.modules)\n")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout.splitlines()[0] == "[]"
    assert [line for line in proc.stdout.splitlines() if line in ("True", "False")] == ["False"] * 3
    # The track run recovered low-score rows.
    assert re.search(r"low-score recovery: [1-9]\d* low rows, \d+ candidate pairs, "
                     r"\d+ cells above 0, [1-9]", proc.stderr)
