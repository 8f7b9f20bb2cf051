"""Write every observable result of a fixed set of CLI cases into a directory,
so that two source trees can be compared with `diff -r`.

    python3 tools/identity_cases.py OUT_DIR [--root CHECKOUT]

CHECKOUT (default: the checkout holding this script) is the source tree whose
`src/intertrack` runs the cases; the inputs are always generated by the
checkout holding this copy of the tool (its `src/` and `perfbench/`).  So
two runs with different `--root` see the same input bytes and compare the
outputs alone:

    python3 tools/identity_cases.py /tmp/new
    python3 tools/identity_cases.py /tmp/old --root /path/to/other/checkout
    diff -r /tmp/old /tmp/new

To compare the inputs as well (synth, `perfbench/` and the writers), run each
checkout's own copy of the tool:

    python3 /path/to/other/checkout/tools/identity_cases.py /tmp/old
    python3 tools/identity_cases.py /tmp/new
    diff -r /tmp/old /tmp/new

The cases:

- 46 CLI cases on four generated scenes: a panning scene with score dips
  (the camera is judged moving), a static crowd-like scene, and a two-class
  KITTI file.  Each of these runs `track` and `refine` (on another tracker's
  fragmented output, made by `perfbench/foreign.py`) under
  `--strategy interval|window` with the default config, `--no-cc`, `--no-cm`
  (not on KITTI) and `--interp --smooth`.  The fourth scene is the KITTI
  file with its Pedestrian class at score 0.3, below the high-score gate,
  run by `track` under both strategies with the default config.
- The four `perfbench/workloads.py` workloads on seeds 1-3, with their own
  pass arguments (`multiseq` with `--workers 2`, too little input for a
  second batch).  On seed 1 the pass runs once more under `--verbose` and
  `--workers 1` (two workers would interleave their lines in no fixed
  order), so that its INFO lines, the
  matcher's counts per first-level pass and merge round and each merge
  round's Kalman work among them, are compared too.  So do two multi-class cases, whose classes share one
  engine run and so one set of these lines: `kitti-track-interval-default`
  and `dir-track-interval-workers1`.
- 14 fault cases, seven per format, that pin the exit codes and stderr of the
  readers' error paths: a file of two valid rows and one faulty third row
  (wrong field count, NaN box, frame >= 2**53, frame below the format's
  first, a fractional frame, a repeated (track, frame), a non-positive box)
  run through `track` (`refine` for the repeated frame) and through `eval`
  against itself.
- 4 reader cases on MOT files of two tracks over six frames, run the same
  way: CRLF line ends, 7-field rows with some 10-field rows, a blank line
  and then a NaN row, and a whitespace-only line.
- 2 misused-flag cases on the file of the two valid rows, run the same way:
  `--class-filter Car` on MOT input, and a KITTI `--class-filter` naming a
  class KITTI does not have.
- 10 configuration cases, run by `track --interp --smooth` on the panning
  scene: a `--config` file that sets every key (window with its default
  bounds; interval with its own bounds and final overlap), four files with
  a schedule fault (decreasing bounds, window with a final overlap, a
  negative final overlap, an unknown strategy) and four bad flag values.
- 5 `eval` cases: `refine` on the crowd scene's foreign output, scored with
  `--iou-threshold 1.0` against that input and with `--iou-threshold 0.05`
  (many frames where hits conflict) against the ground truth; `track` on
  a directory of two sequences, scored against a ground-truth directory that
  holds a third sequence as well, so the pooled report leaves it out with a
  warning; and `track` on a directory of three sequences with the same track
  ids over the same frames, the third's detection file empty, so its
  prediction file is empty too.  The last also runs `eval --verbose`.  The
  fifth scores a KITTI prediction of one Pedestrian track lying exactly on
  a two-frame Car ground-truth track, under `--format kitti`: a match never
  crosses classes.  Its pass is `refine` on that prediction file.
- 8 directory cases on one KITTI directory of four sequences, too little
  input for a second batch: the panning scene, the crowd-like
  scene, the two-class file and the two-class file with its Pedestrians
  below the high-score gate.  `track` and `refine` (on each sequence's
  fragmented output) run on it under `--strategy interval|window` with
  `--workers 1` and `--workers 2`.
- 2 exact-tie cases on the crowd scene written twice: `track` on its
  detections with every row written twice, and `refine` on its foreign
  output with every track written twice, the copy under a new track id.
  Every score then ties with its copy's, so the matcher's tie rule decides
  which copy joins which tracklet.
- 2 overlap-merge cases: `refine` on the panning and the crowd scene's
  doubly-tracked segments, each ground-truth target cut into two fragments
  that share 3 frames, each fragment under a new id.  No gap level can join
  a target's fragments, so the final level's overlap merges
  (`hierarchy.resolve_overlap`) do.
- 1 recovery case: `track` on a scene whose score dips cover one target's
  first 5 frames, another's last 9 and a third's middle 7, run under
  `--verbose` too.  Low-score recovery extends one tracklet backward and
  others forward, one frame after another.
- 1 chain-merge case: `refine` on a 240-frame scene whose ground-truth
  targets are cut into 60-frame fragments, each sharing 3 frames with the
  next and each under a new id.  No gap level reaches from a fragment to the
  one after next, so the final level's overlap merges join chains of five
  parts.
- 1 pool case: `track --workers 2` on a directory of 24 sequences built like
  the `multiseq` workload's but 240 frames long, about 1.8 MB in all, enough
  input for two batches, so the CLI starts its process pool on a host with
  two CPUs or more.  The pass runs once more under `--workers 1`, into
  `twin/` and `twin.json`, and `twin.txt` names every output of the two
  runs that differs.

108 cases in all.

Each case writes, in `OUT_DIR/<case>/`: its inputs, the pass output file(s),
`pass.txt` (exit code, stdout and stderr of the pass), `dump.json`
(`--dump-hierarchy`) and `eval.txt` (exit code, stdout and stderr of
`eval --kv` against the scene's ground truth); a seed-1 workload case, the
two multi-class cases and the recovery case above also write
`verbose.txt`, the same for their `--verbose` pass, and a seed-1 workload
case, the two `eval-crowd-*` cases and `eval-dirs-shared-ids` write
`eval_verbose.txt`, the same
for `eval --verbose`, whose INFO lines hold the evaluator's counts.  Every command
runs in a fresh process with the case directory as working directory and
relative paths, so no absolute path reaches the outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

from intertrack import mot_io, synth  # noqa: E402
from intertrack.model import Trajectory, tracks_table  # noqa: E402
from intertrack.synth import ScenarioSpec  # noqa: E402

from foreign import ForeignStyle, foreign_output  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PAN = ScenarioSpec(n_targets=6, n_frames=100, seed=5, arena=(1280.0, 720.0),
                   box_size=(40.0, 90.0), max_speed=1.5, miss_prob=0.05,
                   noise_sigma=0.8, camera_pan=(22.0, 1.5),
                   score_dips={0: [(20, 28, 0.3)], 2: [(50, 53, 0.05)], 4: [(70, 80, 0.5)]})
CROWD = ScenarioSpec(n_targets=24, n_frames=80, seed=7, arena=(640.0, 480.0),
                     box_size=(10.0, 24.0), max_speed=2.0, miss_prob=0.12,
                     noise_sigma=0.6, size_jitter=0.03)
# Score dips over one target's first frames, another's last and a third's
# middle ones.
DIPS = ScenarioSpec(n_targets=5, n_frames=60, seed=13, arena=(1280.0, 720.0),
                    box_size=(40.0, 90.0), max_speed=1.5, noise_sigma=0.5,
                    score_dips={0: [(1, 5, 0.3)], 1: [(52, 60, 0.3)], 2: [(25, 31, 0.3)]})
# Targets that last long enough to be cut into five fragments.
LONG = ScenarioSpec(n_targets=4, n_frames=240, seed=17, arena=(1280.0, 720.0),
                    box_size=(40.0, 90.0), max_speed=1.0, noise_sigma=0.5)
# KITTI classes 0 (Car) and 3 (Pedestrian).
KITTI = (ScenarioSpec(n_targets=4, n_frames=60, seed=11, arena=(1242.0, 375.0),
                      box_size=(50.0, 90.0), max_speed=2.0, miss_prob=0.05,
                      noise_sigma=0.5, class_id=0),
         ScenarioSpec(n_targets=4, n_frames=60, seed=12, arena=(1242.0, 375.0),
                      box_size=(20.0, 50.0), max_speed=1.0, miss_prob=0.05,
                      noise_sigma=0.5, class_id=3))
# The same file with every Pedestrian detection below the high-score gate.
KITTI_LOW = (KITTI[0], dataclasses.replace(KITTI[1], base_score=0.3))
FOREIGN = ForeignStyle(run_length=(8, 25), swaps=2)
OPTIONS = {"default": [], "no-cc": ["--no-cc"], "no-cm": ["--no-cm"],
           "interp-smooth": ["--interp", "--smooth"]}
# Per format: two valid rows of track 1, then one faulty row per fault.
_KITTI_TAIL = "1.5 1.6 3.8 1 1 1 0.1 0.9"
FAULT_FILES = {
    "mot": (["1,1,10,20,30,40,0.9", "2,1,11,20,30,40,0.9"], {
        "field-count": "3,1,10,20,30,40",
        "nan-box": "3,1,nan,20,30,40,0.9",
        "huge-frame": "9007199254740992,1,10,20,30,40,0.9",
        "early-frame": "0,1,10,20,30,40,0.9",
        "fractional-frame": "2.5,1,10,20,30,40,0.9",
        "repeated-frame": "2,1,12,20,30,40,0.9",
        "nonpositive-box": "3,1,10,20,0,40,0.9"}),
    "kitti": ([f"0 1 Car 0 0 -10 10 20 40 60 {_KITTI_TAIL}",
               f"1 1 Car 0 0 -10 11 20 41 60 {_KITTI_TAIL}"], {
        "field-count": "2 1 Car 0 0 -10 10 20 40 60",
        "nan-box": f"2 1 Car 0 0 -10 nan 20 40 60 {_KITTI_TAIL}",
        "huge-frame": f"9007199254740992 1 Car 0 0 -10 10 20 40 60 {_KITTI_TAIL}",
        "early-frame": f"-1 1 Car 0 0 -10 10 20 40 60 {_KITTI_TAIL}",
        "fractional-frame": f"1.5 1 Car 0 0 -10 10 20 40 60 {_KITTI_TAIL}",
        "repeated-frame": f"1 1 Car 0 0 -10 12 20 42 60 {_KITTI_TAIL}",
        "nonpositive-box": f"2 1 Car 0 0 -10 40 20 40 60 {_KITTI_TAIL}"}),
}
# MOT files that the one-call parse reads or hands to the line parser.
_READER_ROWS = [f"{f},{tid},{x + 3 * f},40,30,60,0.9" for f in range(1, 7)
                for tid, x in ((1, 10), (2, 200))]
READER_FILES = {
    "crlf": "".join(f"{row}\r\n" for row in _READER_ROWS),
    "mixed-fields": "".join(f"{row},-1,-1,-1\n" if k % 3 == 0 else f"{row}\n"
                            for k, row in enumerate(_READER_ROWS)),
    "blank-then-nan": "".join(f"{row}\n" for row in _READER_ROWS[:4])
                      + "\n7,1,nan,40,30,60,0.9\n",
    "whitespace-line": "".join(f"{row}\n" for row in _READER_ROWS[:6]) + " \t \n"
                       + "".join(f"{row}\n" for row in _READER_ROWS[6:]),
}
# Per format: a misused flag, run on the two valid rows.
FLAG_FAULTS = {"mot": ("class-filter", ["--class-filter", "Car"]),
               "kitti": ("unknown-class-filter", ["--class-filter", "Bus"])}
_EVERY_KEY = ("match_threshold = 0.3\nci_width_threshold = 48\nci_scaling_factor = 0.25\n"
              "cc_threshold = 0.6\nscore_high = 0.5\nscore_low = 0.15\n"
              "interpolation_max_gap = 15\nsmoothing_sigma = 3\n"
              "kf_position_weight = 0.06\nkf_velocity_weight = 0.007\n")
CONFIG_FILES = {
    "window-every-key": _EVERY_KEY + ("use_hm_iou = true\nenable_ci = yes\nenable_cc = on\n"
                                      "enable_cm = 1\nstrategy = window\nfinal_overlap = 0\n"),
    "interval-every-key": _EVERY_KEY + ("use_hm_iou = false\nenable_ci = no\nenable_cc = on\n"
                                        "enable_cm = off\nstrategy = interval\n"
                                        "stage_bounds = 1, 3, 8, 16, 32\nfinal_overlap = 4\n"),
    "decreasing-bounds": "stage_bounds = 1,10,5\n",
    "window-final-overlap": "strategy = window\nfinal_overlap = 3\n",
    "negative-final-overlap": "final_overlap = -2\n",
    "bad-strategy": "strategy = diagonal\n",
}
# The workload cases whose pass and eval also run under --verbose.
WORKLOAD_VERBOSE = {f"{name}-seed1" for name in WORKLOADS}
# The cases whose pass also runs under --verbose.
VERBOSE_CASES = WORKLOAD_VERBOSE | {"kitti-track-interval-default",
                                    "dir-track-interval-workers1", "dips-track"}
# The cases whose eval also runs under --verbose.
EVAL_VERBOSE_CASES = WORKLOAD_VERBOSE | {"eval-crowd-iou1.0", "eval-crowd-iou0.05",
                                          "eval-dirs-shared-ids"}
# The cases whose pass also runs under --workers 1, into twin/.
TWIN_CASES = {"multiseq240-workers2"}
BAD_FLAGS = {"match-threshold-abc": ["--match-threshold", "abc"],
             "final-overlap-fraction": ["--final-overlap", "1.5"],
             "interp-max-gap-z": ["--interp-max-gap", "z"],
             "ci-scaling-factor-inf": ["--ci-scaling-factor", "inf"]}


def _renumbered(trajectories, first_id: int) -> list[Trajectory]:
    return [dataclasses.replace(t, track_id=first_id + k) for k, t in enumerate(trajectories)]


# The scene writers write into the working directory.

def _write_mot_scene(spec: ScenarioSpec) -> None:
    gt, dets = synth.generate(spec)
    mot_io.write_mot_results(gt, "gt.txt")
    mot_io.write_mot_detections(dets, "det.txt")
    mot_io.write_mot_results(foreign_output(gt, spec.seed, FOREIGN)[0], "theirs.txt")


def _write_kitti_scene(specs=KITTI, name="{}.txt") -> None:
    """The gt, detections and foreign output of the scenes of `specs`, in one
    KITTI file each, at `name` filled with gt, det and theirs."""
    gt, dets, theirs = [], [], []
    for spec in specs:
        g, d = synth.generate(spec)
        gt += _renumbered(g, len(gt) + 1)
        dets += [Trajectory(len(dets) + k + 1, (det,)) for k, det in enumerate(d)]
        # One class at a time, so that no foreign track mixes two classes.
        theirs += _renumbered(foreign_output(g, spec.seed, FOREIGN)[0], len(theirs) + 1)
    for trajectories, kind in ((gt, "gt"), (dets, "det"), (theirs, "theirs")):
        mot_io.write_table(tracks_table(trajectories), name.format(kind), "kitti")


def _cli_case(write, pass_args: list[str], eval_args: list[str]):
    def prepare():
        write()
        return pass_args, eval_args
    return prepare


def _cli_cases():
    """(name, prepare) of the 46 CLI cases; `prepare()` writes the case's
    inputs into the working directory and returns its pass and eval args."""
    scenes = [("pan", lambda: _write_mot_scene(PAN), []),
              ("crowd", lambda: _write_mot_scene(CROWD), []),
              ("kitti", _write_kitti_scene, ["--format", "kitti"])]
    for scene, write, fmt in scenes:
        for command, src_flag, src in (("track", "--det", "det.txt"),
                                       ("refine", "--in", "theirs.txt")):
            for strategy in ("interval", "window"):
                for option, flags in OPTIONS.items():
                    if scene == "kitti" and option == "no-cm":
                        continue
                    args = [command, src_flag, src, "--out", "out.txt",
                            "--strategy", strategy, *fmt, *flags]
                    evals = ["eval", "--gt", "gt.txt", "--pred", "out.txt", "--kv", *fmt]
                    yield f"{scene}-{command}-{strategy}-{option}", _cli_case(write, args, evals)
    fmt = ["--format", "kitti"]
    for strategy in ("interval", "window"):
        yield (f"kitti-lowped-track-{strategy}-default",
               _cli_case(lambda: _write_kitti_scene(KITTI_LOW),
                         ["track", "--det", "det.txt", "--out", "out.txt", "--strategy", strategy,
                          *fmt],
                         ["eval", "--gt", "gt.txt", "--pred", "out.txt", "--kv", *fmt]))


def _workload_cases():
    """(name, prepare) of the four workloads on seeds 1-3."""
    for name, make in WORKLOADS.items():
        for seed in (1, 2, 3):
            def prepare(make=make, seed=seed):
                prepared = make(seed, Path("."), False)
                return (prepared.pass_args + ["--workers", str(prepared.workers)],
                        prepared.eval_args)
            yield f"{name}-seed{seed}", prepare


def _fault_cases():
    """(name, prepare) of the 14 fault cases and the 2 misused-flag cases."""
    for fmt, (valid, faults) in FAULT_FILES.items():
        flag_fault, flags = FLAG_FAULTS[fmt]
        for fault, rows, extra in [*((f, (*valid, row), []) for f, row in faults.items()),
                                   (flag_fault, valid, flags)]:
            text = "".join(f"{line}\n" for line in rows)
            command, src_flag = (("refine", "--in") if fault == "repeated-frame"
                                 else ("track", "--det"))
            yield (f"fault-{fmt}-{fault}",
                   _cli_case(lambda text=text: Path("bad.txt").write_text(text, encoding="utf-8"),
                             [command, src_flag, "bad.txt", "--out", "out.txt",
                              "--format", fmt, *extra],
                             ["eval", "--gt", "bad.txt", "--pred", "bad.txt", "--kv",
                              "--format", fmt, *extra]))


def _reader_cases():
    """(name, prepare) of the 4 reader cases."""
    for name, text in READER_FILES.items():
        yield (f"reader-{name}",
               _cli_case(lambda text=text: Path("in.txt").write_bytes(text.encode("utf-8")),
                         ["track", "--det", "in.txt", "--out", "out.txt"],
                         ["eval", "--gt", "in.txt", "--pred", "in.txt", "--kv"]))


def _config_cases():
    """(name, prepare) of the 6 config-file cases and the 4 bad-flag cases."""
    track = ["track", "--det", "det.txt", "--out", "out.txt", "--interp", "--smooth"]
    evals = ["eval", "--gt", "gt.txt", "--pred", "out.txt", "--kv"]
    for name, text in CONFIG_FILES.items():
        def write(text=text):
            _write_mot_scene(PAN)
            Path("cfg.txt").write_text(text, encoding="utf-8")
        yield f"config-{name}", _cli_case(write, [*track, "--config", "cfg.txt"], evals)
    for name, flags in BAD_FLAGS.items():
        yield f"flag-{name}", _cli_case(lambda: _write_mot_scene(PAN), [*track, *flags], evals)


def _write_sequences() -> None:
    """Three sequences under gt/, the detections of the first two under det/."""
    Path("gt").mkdir(exist_ok=True)
    Path("det").mkdir(exist_ok=True)
    for k, spec in enumerate((PAN, CROWD, dataclasses.replace(PAN, seed=6))):
        gt, dets = synth.generate(spec)
        mot_io.write_mot_results(gt, f"gt/seq{k}.txt")
        if k < 2:
            mot_io.write_mot_detections(dets, f"det/seq{k}.txt")


def _write_shared_ids() -> None:
    """Three sequences of targets 1-5 over frames 1-60 under gt/, and their
    detections under det/, the third's file empty."""
    for kind in ("gt", "det"):
        Path(kind).mkdir(exist_ok=True)
    for k in range(3):
        gt, dets = synth.generate(ScenarioSpec(
            n_targets=5, n_frames=60, seed=21 + k, arena=(1280.0, 720.0),
            box_size=(30.0, 70.0), max_speed=2.0, miss_prob=0.05, noise_sigma=0.5))
        mot_io.write_mot_results(gt, f"gt/seq{k}.txt")
        mot_io.write_mot_detections(dets if k < 2 else [], f"det/seq{k}.txt")


def _write_cross_class() -> None:
    """A Car ground-truth track over KITTI frames 0-1, and a Pedestrian
    prediction track on the same boxes."""
    rows = [(0, 100), (1, 102)]
    Path("gt.txt").write_text("".join(
        f"{f} 1 Car 0 0 0 {x} 100 {x + 50} 200 -1 -1 -1 -1 -1 -1 -1\n" for f, x in rows),
        encoding="utf-8")
    Path("pred.txt").write_text("".join(
        f"{f} 7 Pedestrian 0 0 0 {x} 100 {x + 50} 200 -1 -1 -1 -1 -1 -1 -1 0.9\n"
        for f, x in rows), encoding="utf-8")


def _eval_cases():
    """(name, prepare) of the 5 eval cases."""
    refine = ["refine", "--in", "theirs.txt", "--out", "out.txt"]
    for threshold, gt in (("1.0", "theirs.txt"), ("0.05", "gt.txt")):
        yield (f"eval-crowd-iou{threshold}",
               _cli_case(lambda: _write_mot_scene(CROWD), refine,
                         ["eval", "--gt", gt, "--pred", "out.txt", "--kv",
                          "--iou-threshold", threshold]))
    yield ("eval-dirs-one-sided",
           _cli_case(_write_sequences, ["track", "--det", "det", "--out", "out"],
                     ["eval", "--gt", "gt", "--pred", "out", "--kv"]))
    yield ("eval-dirs-shared-ids",
           _cli_case(_write_shared_ids, ["track", "--det", "det", "--out", "out"],
                     ["eval", "--gt", "gt", "--pred", "out", "--kv"]))
    kitti = ["--format", "kitti"]
    yield ("eval-kitti-cross-class",
           _cli_case(_write_cross_class, ["refine", "--in", "pred.txt", "--out", "out.txt", *kitti],
                     ["eval", "--gt", "gt.txt", "--pred", "pred.txt", "--kv", *kitti]))


def _write_directory() -> None:
    """Four KITTI sequences under gt/, det/ and theirs/."""
    for kind in ("gt", "det", "theirs"):
        Path(kind).mkdir(exist_ok=True)
    for name, specs in (("pan", (PAN,)), ("crowd", (CROWD,)), ("kitti", KITTI),
                        ("lowped", KITTI_LOW)):
        _write_kitti_scene(specs, "{}/" + f"{name}.txt")


def _directory_cases():
    """(name, prepare) of the 8 directory cases."""
    evals = ["eval", "--gt", "gt", "--pred", "out", "--kv", "--format", "kitti"]
    for command, src_flag, src in (("track", "--det", "det"), ("refine", "--in", "theirs")):
        for strategy in ("interval", "window"):
            for workers in ("1", "2"):
                yield (f"dir-{command}-{strategy}-workers{workers}",
                       _cli_case(_write_directory,
                                 [command, src_flag, src, "--out", "out", "--format", "kitti",
                                  "--strategy", strategy, "--workers", workers], evals))


def _write_doubled_crowd() -> None:
    """The crowd scene with every detection row written twice, and every
    foreign track written twice, the copy under a new track id."""
    _write_mot_scene(CROWD)
    det = Path("det.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    Path("det.txt").write_text("".join(line + line for line in det), encoding="utf-8")
    theirs = Path("theirs.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [line.split(",", 2) for line in theirs]
    offset = max(int(track_id) for _, track_id, _ in rows)
    copies = [f"{frame},{int(track_id) + offset},{rest}" for frame, track_id, rest in rows]
    Path("theirs.txt").write_text("".join(theirs + copies), encoding="utf-8")


def _tie_cases():
    """(name, prepare) of the 2 exact-tie cases."""
    evals = ["eval", "--gt", "gt.txt", "--pred", "out.txt", "--kv"]
    for command, src_flag, src in (("track", "--det", "det.txt"),
                                   ("refine", "--in", "theirs.txt")):
        yield (f"ties-crowd-{command}",
               _cli_case(_write_doubled_crowd, [command, src_flag, src, "--out", "out.txt"],
                         evals))


def _write_doubly_tracked(spec: ScenarioSpec) -> None:
    """The scene of `spec`, its foreign output replaced by each gt target cut
    into two fragments that share 3 frames, each under a new id."""
    _write_mot_scene(spec)
    gt, _ = synth.generate(spec)
    fragments = []
    for t in gt:
        half = len(t.entries) // 2
        fragments += [Trajectory(len(fragments) + 1, t.entries[:half + 3]),
                      Trajectory(len(fragments) + 2, t.entries[half:])]
    mot_io.write_mot_results(fragments, "theirs.txt")


def _overlap_cases():
    """(name, prepare) of the 2 overlap-merge cases."""
    for scene, spec in (("pan", PAN), ("crowd", CROWD)):
        yield (f"overlap-{scene}-refine",
               _cli_case(lambda spec=spec: _write_doubly_tracked(spec),
                         ["refine", "--in", "theirs.txt", "--out", "out.txt"],
                         ["eval", "--gt", "gt.txt", "--pred", "out.txt", "--kv"]))


def _write_fragmented(spec: ScenarioSpec) -> None:
    """The scene of `spec`, its foreign output replaced by each gt target cut
    into 60-frame fragments, each sharing 3 frames with the next and each
    under a new id."""
    _write_mot_scene(spec)
    gt, _ = synth.generate(spec)
    fragments = []
    for t in gt:
        for at in range(0, len(t.entries) - 3, 57):
            fragments.append(Trajectory(len(fragments) + 1, t.entries[at:at + 60]))
    mot_io.write_mot_results(fragments, "theirs.txt")


def _recovery_and_chain_cases():
    """(name, prepare) of the recovery case and the chain-merge case."""
    evals = ["eval", "--gt", "gt.txt", "--pred", "out.txt", "--kv"]
    yield ("dips-track", _cli_case(lambda: _write_mot_scene(DIPS),
                                   ["track", "--det", "det.txt", "--out", "out.txt"], evals))
    yield ("chains-long-refine", _cli_case(lambda: _write_fragmented(LONG),
                                           ["refine", "--in", "theirs.txt", "--out", "out.txt"],
                                           evals))


def _write_long_multiseq() -> None:
    """24 sequences under det/ and gt/, each one of the `multiseq` workload's
    seed-1 scenes at 240 frames."""
    for kind in ("det", "gt"):
        Path(kind).mkdir(exist_ok=True)
    for k in range(24):
        gt, dets = synth.generate(ScenarioSpec(
            n_targets=5, n_frames=240, seed=1000 + k, arena=(1280.0, 720.0),
            box_size=(30.0, 70.0), max_speed=2.0, miss_prob=0.05, noise_sigma=0.5))
        mot_io.write_mot_results(gt, f"gt/seq{k:02d}.txt")
        mot_io.write_mot_detections(dets, f"det/seq{k:02d}.txt")


def _pool_cases():
    """(name, prepare) of the pool case."""
    yield ("multiseq240-workers2",
           _cli_case(_write_long_multiseq,
                     ["track", "--det", "det", "--out", "out", "--workers", "2"],
                     ["eval", "--gt", "gt", "--pred", "out", "--kv"]))


def _twin_differences(case: Path) -> str:
    """The outputs of a case's pass that differ from those of its twin."""
    names = sorted(p.name for p in (case / "out").iterdir())
    if names != sorted(p.name for p in (case / "twin").iterdir()):
        return "output file names differ\n"
    pairs = [(f"out/{n}", case / "out" / n, case / "twin" / n) for n in names]
    pairs += [("dump.json", case / "dump.json", case / "twin.json"),
              ("pass.txt", case / "pass.txt", case / "twin_pass.txt")]
    differ = [label for label, a, b in pairs if a.read_bytes() != b.read_bytes()]
    return "".join(f"differs: {label}\n" for label in differ) or \
        f"all {len(pairs)} outputs equal\n"


def _run(root: Path, case: Path, argv: list[str], record: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "intertrack.cli", *argv], cwd=case, env=env,
                          capture_output=True, text=True)
    (case / record).write_text(f"exit {proc.returncode}\n--- stdout\n{proc.stdout}"
                               f"--- stderr\n{proc.stderr}", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--root", type=Path, default=REPO,
                        help="source checkout whose src/ runs the cases")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "intertrack" / "__init__.py").is_file():
        parser.error(f"no intertrack source tree under {root}")
    out_dir = args.out_dir.resolve()
    cwd = Path.cwd()
    for name, prepare in [*_cli_cases(), *_workload_cases(), *_fault_cases(),
                          *_reader_cases(), *_config_cases(), *_eval_cases(),
                          *_directory_cases(), *_tie_cases(), *_overlap_cases(),
                          *_recovery_and_chain_cases(), *_pool_cases()]:
        case = out_dir / name
        case.mkdir(parents=True, exist_ok=True)
        os.chdir(case)  # inputs are written relative to the working directory
        try:
            pass_args, eval_args = prepare()
        finally:
            os.chdir(cwd)
        _run(root, case, [*pass_args, "--dump-hierarchy", "dump.json"], "pass.txt")
        _run(root, case, eval_args, "eval.txt")
        if name in VERBOSE_CASES:
            # The last --workers wins.
            _run(root, case, ["--verbose", *pass_args, "--workers", "1"], "verbose.txt")
        if name in TWIN_CASES:
            # The last --workers, --out and --dump-hierarchy win.
            _run(root, case, [*pass_args, "--workers", "1", "--out", "twin",
                              "--dump-hierarchy", "twin.json"], "twin_pass.txt")
            (case / "twin.txt").write_text(_twin_differences(case), encoding="utf-8")
        if name in EVAL_VERBOSE_CASES:
            _run(root, case, ["--verbose", *eval_args], "eval_verbose.txt")
        print(f"{name}: {(case / 'pass.txt').read_text().splitlines()[0]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
