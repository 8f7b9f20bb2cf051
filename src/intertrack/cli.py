"""Command-line interface.

Subcommands:
    track    detection file(s) -> trajectory file(s) via the full pipeline
    refine   existing tracker output -> recombined and optionally
             interpolated/smoothed output
    eval     ground truth + prediction -> CLEAR and identity metrics
    synth    scenario description (JSON) -> ground-truth and detection files

Configuration precedence, lowest to highest: built-in defaults, a key=value
config file (--config), explicit flags.  Each setting has one name: a config
key is a TrackerConfig field, and so is the dest of the flag that sets it;
a file value and a flag's string go through one parser.
When the input path is a directory every *.txt inside is treated as one
sequence.  The sequences are cut into
`max(1, min(--workers, input_bytes // _MIN_BATCH_BYTES, usable CPUs))`
batches of consecutive sequences, input_bytes being the sum of the sequence
files' sizes, and each batch is one engine run (`hierarchy.run_tables`), in
a worker process of its own when there are several.  A worker costs its
start-up, so a batch must hold at least 512 KiB of input to get one.  On a
shared 2-vCPU Linux host under Python 3.11 and the `fork` start method (the
Linux default before Python 3.14), 24 short sequences ran faster in two
workers than in one from 1.4 MB of input on, tied at 0.9 MB and lost at
0.45 MB.  Results are written by the parent so output stays deterministic.
A sequence runs on columns (`BoxTable`) from its input file to its output
file.

Exit codes: 0 success, 1 runtime failure (I/O, malformed data), 2 bad usage
or configuration.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import hierarchy, metrics, mot_io
from .model import BoxTable, ConfigError, Strategy, TrackerConfig, validate_config
from .refine import interpolate_rows, smooth_rows, split_rows

log = logging.getLogger(__name__)

_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


# ---------------------------------------------------------------------------
# Configuration assembly
# ---------------------------------------------------------------------------


_EXPECTED = {"bool": "a boolean", "int": "an integer", "float": "a number",
             "bounds": "comma-separated integers", "strategy": "interval or window"}
# The kind of value each TrackerConfig field takes, read off its annotation.
_KINDS = {f.name: {"Strategy": "strategy", "Optional[tuple[int, ...]]": "bounds",
                   "Optional[int]": "int"}.get(f.type, f.type)
          for f in dataclasses.fields(TrackerConfig)}


def _parse_value(raw: str, key: str, kind: str):
    """One config value of a kind named in _EXPECTED; `key` names it in the
    error."""
    try:
        if kind == "bool":
            return _BOOLS[raw.strip().lower()]
        if kind == "bounds":
            return tuple(int(tok) for tok in raw.replace(" ", "").split(",") if tok)
        if kind == "strategy":
            return Strategy(raw.strip())
        return int(raw) if kind == "int" else float(raw)
    except (KeyError, ValueError):
        raise ConfigError([f"{key}: expected {_EXPECTED[kind]}, got {raw!r}"]) from None


def read_config_file(path: Path) -> dict:
    """Parse `key = value` lines (# comments allowed) into override values.

    Keys are TrackerConfig field names.  Every bad line is reported as
    `file:line: problem` in one ConfigError; a stage_bounds or final_overlap
    line is judged with the file's own strategy, at its line.
    """
    overrides: dict = {}
    lines: dict[str, int] = {}
    problems = []
    try:
        text = mot_io.read_lines(path, lambda fh: fh.read().splitlines())
    except ValueError as exc:  # not OSError: a missing file is no config fault
        raise ConfigError([str(exc)]) from None
    for lineno, raw in enumerate(text, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{path}:{lineno}: expected key = value, got {line!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key not in _KINDS:
                raise ConfigError([f"unknown config key {key!r}"])
            overrides[key] = _parse_value(value, key, _KINDS[key])
            lines[key] = lineno
        except ConfigError as exc:
            problems += [f"{path}:{lineno}: {problem}" for problem in exc.problems]
    for key in ("stage_bounds", "final_overlap"):
        if key in lines:
            own = {k: overrides[k] for k in ("strategy", key) if k in overrides}
            try:
                validate_config(TrackerConfig(**own))  # the other fields are defaults
            except ConfigError as exc:
                problems += [f"{path}:{lines[key]}: {problem}" for problem in exc.problems]
    if problems:
        raise ConfigError(problems)
    return overrides


def build_config(args: argparse.Namespace) -> TrackerConfig:
    """Merge defaults, the config file and flags, in rising precedence, into
    a validated config.  A flag's raw string is parsed as a file value is,
    and a bad one is reported under the flag's own name."""
    flags: dict = {}
    problems = []
    for flag, (name, _) in _VALUE_FLAGS.items():
        raw = getattr(args, name, None)
        if raw is not None:
            try:
                flags[name] = _parse_value(raw, flag, _KINDS[name])
            except ConfigError as exc:
                problems += exc.problems
    if problems:
        raise ConfigError(problems)
    flags.update((name, getattr(args, name)) for name, _, _ in _SWITCHES.values()
                 if getattr(args, name, None) is not None)
    overrides = read_config_file(args.config) if getattr(args, "config", None) else {}
    return validate_config(TrackerConfig(**{**overrides, **flags}))


def _resolve_workers(args: argparse.Namespace) -> int:
    value = getattr(args, "workers", None)
    if value is None:
        return 1
    if value < 1:
        raise ConfigError([f"worker count must be >= 1, got {value}"])
    return value


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------


def _class_filter(args) -> Optional[tuple[str, ...]]:
    raw = getattr(args, "class_filter", None)
    names = tuple(tok for tok in raw.split(",") if tok) if raw else None
    mot_io.check_class_filter(args.format, names)
    return names


def _sequence_jobs(in_path: Path, out_path: Optional[Path]) -> list[tuple[str, Path, Optional[Path]]]:
    """Expand (input, output) paths into per-sequence jobs.

    A directory input maps every contained *.txt to a same-named file in the
    output directory; a file input is a single job.
    """
    if in_path.is_dir():
        files = sorted(p for p in in_path.iterdir()
                       if p.is_file() and p.suffix == ".txt")
        if not files:
            raise FileNotFoundError(f"no *.txt sequence files in {in_path}")
        if out_path is not None:
            out_path.mkdir(parents=True, exist_ok=True)
        return [(f.stem, f, None if out_path is None else out_path / f.name) for f in files]
    if not in_path.exists():
        raise FileNotFoundError(f"no such file: {in_path}")
    return [(in_path.stem, in_path, out_path)]


def _camera_text(profile) -> str:
    if profile is None:
        return "off"
    kind = "moving" if profile.moving else "static"
    return f"{kind} (mean adjacent IoU {profile.mean_match_iou:.3f})"


def _summary_lines(name: str, result: hierarchy.TableRun, n_input: int) -> list[str]:
    lines = [f"{name}: {result.track.max(initial=0)} trajectories"  # ids 1..K
             f" from {n_input} detections"]
    for cls in result.per_class:
        chain = " -> ".join(str(c) for c in cls.counts)
        lines.append(f"  class {cls.class_id}: levels {chain}"
                     f"; camera {_camera_text(cls.camera)}")
    return lines


def _dump_payload(result: hierarchy.TableRun) -> dict:
    classes = {}
    for cls in result.per_class:
        camera = None
        if cls.camera is not None:
            camera = {"moving": cls.camera.moving,
                      "mean_match_iou": cls.camera.mean_match_iou}
        classes[str(cls.class_id)] = {
            "counts": list(cls.counts),
            "camera": camera,
            "levels": [{"label": lv.label, "count": lv.tracklet_count,
                        "tracklets": [[list(pair) for pair in member]
                                      for member in lv.members]}
                       for lv in cls.levels],
        }
    return {"classes": classes}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _consecutive(items: list, parts: int) -> list[list]:
    """`items` cut into min(parts, len(items)) runs of consecutive items,
    their sizes differing by at most one."""
    parts = min(parts, len(items))
    cuts = [len(items) * k // parts for k in range(parts + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


# The input bytes a batch needs to pay for a worker process of its own (see
# the module docstring).
_MIN_BATCH_BYTES = 512 * 1024


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _batch_count(workers: int, input_bytes: int) -> int:
    """The number of batches for `--workers` `workers` on sequence files of
    `input_bytes` in all: at most `workers`, one per `_MIN_BATCH_BYTES` and
    one per usable CPU, and at least one."""
    return max(1, min(workers, input_bytes // _MIN_BATCH_BYTES, _usable_cpus()))


# One batch of consecutive sequences of a `track` or `refine` run, as a pool
# worker gets it.
_Job = collections.namedtuple("_Job",
                              "command names srcs cfg fmt class_filter interp smooth dump")


def _run_job(job: _Job) -> list[tuple[str, BoxTable, list[str], Optional[dict]]]:
    """Read a batch of sequences, run it through the engine at once and
    post-process each sequence: its name, output table and summary lines,
    and its dump payload, None when no dump was asked for, so that a pool
    worker pickles it back only when it is needed."""
    if job.command == "track":
        tables = [mot_io.read_detection_table(src, job.fmt, job.class_filter)
                  for src in job.srcs]
        results = hierarchy.run_tables(tables, job.cfg)
    else:
        tables = [mot_io.read_track_table(src, job.fmt, job.class_filter) for src in job.srcs]
        # The engine's det_ids number the rows in file order.
        results = hierarchy.run_tables([mot_io.numbered(t) for t in tables], job.cfg,
                                       [split_rows(t) for t in tables])
    done = []
    for name, table, result in zip(job.names, tables, results):
        out = result.output()
        if job.interp:
            out = interpolate_rows(out, job.cfg.interpolation_max_gap)
        if job.smooth:
            out = smooth_rows(out, job.cfg.smoothing_sigma)
        done.append((name, out, _summary_lines(name, result, table.frame.size),
                     _dump_payload(result) if job.dump else None))
    return done


def cmd_pipeline(args: argparse.Namespace) -> int:
    """`track` or `refine`: each sequence of `--det`/`--in` to `--out`, in at
    most `--workers` batches of consecutive sequences (`_batch_count`)."""
    cfg = build_config(args)
    workers = _resolve_workers(args)
    class_filter = _class_filter(args)
    dump_path = getattr(args, "dump_hierarchy", None)
    sequences = _sequence_jobs(args.src, args.out)
    input_bytes = sum(src.stat().st_size for _, src, _ in sequences)
    jobs = [_Job(args.command, [name for name, _, _ in part], [src for _, src, _ in part], cfg,
                 args.format, class_filter, args.interp, args.smooth, dump_path is not None)
            for part in _consecutive(sequences, _batch_count(workers, input_bytes))]
    if len(jobs) > 1:
        # Only here, so that a one-batch run does not import multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            results = [seq for batch in pool.map(_run_job, jobs) for seq in batch]
    else:
        results = _run_job(jobs[0])
    dump: dict = {}
    for (_, _, dst), (name, out, summary, payload) in zip(sequences, results):
        if dst is not None:
            mot_io.write_table(out, dst, args.format)
        for line in summary:
            print(line)
        dump[name] = payload
    if dump_path is not None:
        dump_path.parent.mkdir(parents=True, exist_ok=True)
        dump_path.write_text(
            json.dumps(dump, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if not 0.0 < args.iou_threshold <= 1.0:
        raise ConfigError([f"--iou-threshold must be in (0, 1], got {args.iou_threshold}"])
    class_filter = _class_filter(args)

    def read(path: Path) -> BoxTable:
        return mot_io.read_track_table(path, args.format, class_filter)

    gt_jobs = _sequence_jobs(args.gt, None)
    pred_jobs = _sequence_jobs(args.pred, None)
    if args.gt.is_dir() != args.pred.is_dir():
        raise ValueError("--gt and --pred must both be files or both directories")
    if args.gt.is_dir():
        gt_by_name = {name: path for name, path, _ in gt_jobs}
        pred_by_name = {name: path for name, path, _ in pred_jobs}
        names = sorted(set(gt_by_name) & set(pred_by_name))
        if not names:
            raise ValueError("no sequence names shared between --gt and --pred")
        one_sided = [f"{name} ({'gt' if name in gt_by_name else 'pred'} only)"
                     for name in sorted(set(gt_by_name) ^ set(pred_by_name))]
        if one_sided:
            log.warning("not evaluated, found under only one of --gt/--pred: %s",
                        ", ".join(one_sided))
        pairs = {name: (read(gt_by_name[name]), read(pred_by_name[name])) for name in names}
        report = metrics.evaluate_sequences(pairs, args.iou_threshold)
    else:
        report = metrics.evaluate(read(args.gt), read(args.pred), args.iou_threshold)
    if args.kv:
        for line in metrics.report_kv_lines(report):
            print(line)
    else:
        print(metrics.format_report(report))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from . import synth  # only this command needs it
    spec = synth.spec_from_json(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    gt_path, det_path = synth.write_scenario(spec, args.out_dir)
    print(f"wrote {gt_path}")
    print(f"wrote {det_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# The config flags that take a value: the TrackerConfig field each sets and
# its help.  Each stores its raw string, which build_config parses.
_VALUE_FLAGS = {
    "--strategy": ("strategy", "hierarchy scheduling strategy: interval or window"),
    "--stage-bounds": ("stage_bounds", "per-level gap bounds (interval) or window sizes"),
    "--final-overlap": ("final_overlap", "overlap frames admitted by an extra final level"),
    "--match-threshold": ("match_threshold", None),
    "--score-high": ("score_high", None),
    "--score-low": ("score_low", None),
    "--cc-threshold": ("cc_threshold", None),
    "--ci-width-threshold": ("ci_width_threshold", None),
    "--ci-scaling-factor": ("ci_scaling_factor", None),
    "--interp-max-gap": ("interpolation_max_gap", None),
    "--smoothing-sigma": ("smoothing_sigma", None),
}
# The switches: the field each sets, the value it stores and its help.
_SWITCHES = {
    "--use-hm-iou": ("use_hm_iou", True, "multiply in the vertical-interval IoU"),
    "--no-ci": ("enable_ci", False, "disable small-box expansion"),
    "--no-cc": ("enable_cc", False, "disable camera-movement compensation"),
    "--no-cm": ("enable_cm", False, "disable the motion-consistent second pass"),
}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_argument_group("tracker configuration")
    grp.add_argument("--config", type=Path, metavar="FILE",
                     help="key = value config file (TrackerConfig fields)")
    for flag, (name, help_text) in _VALUE_FLAGS.items():
        grp.add_argument(flag, dest=name, help=help_text)
    for flag, (name, value, help_text) in _SWITCHES.items():
        grp.add_argument(flag, dest=name, action="store_const", const=value, help=help_text)
    grp.add_argument("--workers", type=int,
                     help="at most N batches of consecutive sequences, run in parallel "
                          "processes when each holds 512 KiB of input")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["mot", "kitti"], default="mot")
    p.add_argument("--class-filter", dest="class_filter", metavar="NAME,...",
                   help="keep only these KITTI class names (kitti input only)")
    p.add_argument("--interp", action="store_true",
                   help="fill trajectory gaps by linear interpolation")
    p.add_argument("--smooth", action="store_true",
                   help="smooth box centers and sizes with a Gaussian kernel")
    p.add_argument("--dump-hierarchy", dest="dump_hierarchy", type=Path,
                   metavar="FILE", help="write per-level tracklet snapshots (JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intertrack",
        description="Hierarchical multi-object tracking over detection files.")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="associate detections into trajectories")
    p_track.add_argument("--det", dest="src", metavar="DET", type=Path, required=True,
                         help="detection file or directory of sequences")
    p_track.add_argument("--out", type=Path, required=True,
                         help="output file or directory")
    _add_io_flags(p_track)
    _add_config_flags(p_track)
    p_track.set_defaults(func=cmd_pipeline)

    p_refine = sub.add_parser("refine",
                              help="recombine and polish existing tracker output")
    p_refine.add_argument("--in", dest="src", metavar="IN_PATH", type=Path, required=True,
                          help="tracker result file or directory")
    p_refine.add_argument("--out", type=Path, required=True)
    _add_io_flags(p_refine)
    _add_config_flags(p_refine)
    p_refine.set_defaults(func=cmd_pipeline)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    p_eval.add_argument("--gt", type=Path, required=True)
    p_eval.add_argument("--pred", type=Path, required=True)
    p_eval.add_argument("--format", choices=["mot", "kitti"], default="mot")
    p_eval.add_argument("--class-filter", dest="class_filter", metavar="NAME,...",
                        help="keep only these KITTI class names (kitti input only)")
    p_eval.add_argument("--iou-threshold", dest="iou_threshold", type=float,
                        default=0.5, help="overlap a match needs, in (0, 1]")
    p_eval.add_argument("--kv", action="store_true",
                        help="print machine-readable key=value lines")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--spec", type=Path, required=True,
                         help="scenario description (JSON)")
    p_synth.add_argument("--out-dir", dest="out_dir", type=Path, required=True)
    p_synth.add_argument("--seed", type=int, help="overrides the spec's seed")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
