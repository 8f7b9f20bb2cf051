"""intertrack benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The workload's inputs are generated from the seed into a work
directory under `.bench_work/`, removed at exit.  Passes run as a closed
loop with one client: each pass is a fresh `passrun.py` process that sets up
the CLI, runs `track`/`refine`, then `eval`, and the next pass starts only
after it ends.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones (always one worker) and reports the per-layer
metrics.  `attempted` counts sequences over all passes; a sequence fails
when its pass raises, exits non-zero or times out, or its output differs
byte for byte from the first pass.  Failed self-checks or accuracy floors
make `correct` false and the exit code 1.  Times are medians over passes,
each scaled by the host reference measured next to it (calibrate.py).  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PASSRUN = HERE / "passrun.py"

# The whole invocation must end within this many seconds.
TIME_LIMIT_S = 170.0
MIN_PASSES = 2

@dataclass
class PassResult:
    kind: str                      # "plain", "serial" or "traced"
    data: dict = field(default_factory=dict)
    outputs: list[Optional[bytes]] = field(default_factory=list)
    error: Optional[str] = None
    trace_file: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def scale(self, phase: str) -> float:
        """Factor that turns a time of phase `setup_s`, `wall_s` or `eval_s`
        into host-normalised seconds (see calibrate.py)."""
        return calibrate.NOMINAL_S / self.data["reference_s"][phase]


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Bench:
    def __init__(self, prepared, work: Path, started: float):
        self.p = prepared
        self.work = work
        self.started = started
        self.passes: list[PassResult] = []

    def run_pass(self, kind: str) -> PassResult:
        workers = self.p.workers if kind == "plain" else 1
        trace_file = self.work / f"trace{len(self.passes)}.npz" if kind == "traced" else None
        for out in self.p.outputs:
            out.unlink(missing_ok=True)
        job = {"src": str(SRC), "pass_argv": self.p.pass_args + ["--workers", str(workers)],
               "eval_argv": self.p.eval_args,
               "trace_out": str(trace_file) if trace_file else None}
        result = PassResult(kind=kind, trace_file=trace_file)
        # Its own process group, so a timeout can stop the pool workers too.
        proc = subprocess.Popen([sys.executable, str(PASSRUN), json.dumps(job)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=ROOT, start_new_session=True, text=True)
        budget = max(1.0, TIME_LIMIT_S - (time.monotonic() - self.started))
        try:
            stdout, stderr = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            proc.communicate()
            result.error = f"timed out after {budget:.0f} s"
        finally:
            _kill_group(proc)
        if result.error is None:
            lines = stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                result.data = json.loads(lines[-1])
            codes = (proc.returncode, result.data.get("rc"), result.data.get("eval_rc"))
            if codes != (0, 0, 0):
                result.error = (f"exit codes (process, pass, eval) {codes}: "
                                f"{stderr.strip()[-2000:]}")
        result.outputs = [out.read_bytes() if out.exists() else None for out in self.p.outputs]
        self.passes.append(result)
        if result.ok:
            print(f"perfbench: pass {len(self.passes)} ({kind}, {workers} workers): "
                  f"setup {result.data['setup_s']:.3f} s, wall {result.data['wall_s']:.3f} s, "
                  f"eval {result.data['eval_s']:.3f} s (raw); host reference "
                  f"{result.data['reference_s']['wall_s']:.4f} s", file=sys.stderr)
        return result

    def loop(self, seconds: float, cycle: list[str]) -> None:
        """Closed loop: repeat `cycle` until the next cycle would end after
        `seconds`; at least MIN_PASSES cycles (one when tracing)."""
        start = time.monotonic()
        min_cycles = 1 if "traced" in cycle else MIN_PASSES
        cycles = 0
        while True:
            t0 = time.monotonic()
            for kind in cycle:
                self.run_pass(kind)
            cycles += 1
            now = time.monotonic()
            if now - self.started > TIME_LIMIT_S * 0.6:
                break
            if cycles >= min_cycles and now + (now - t0) > start + seconds:
                break

    # -- correctness ------------------------------------------------------

    def failures(self) -> tuple[int, int]:
        """(attempted, failed) over sequences; the first pass is the reference."""
        reference = self.passes[0].outputs
        attempted = failed = 0
        for res in self.passes:
            for got, want in zip(res.outputs, reference):
                attempted += 1
                if not res.ok or got is None or got != want:
                    failed += 1
        return attempted, failed

    def problems(self) -> list[str]:
        from intertrack import mot_io

        out = [f"{res.kind} pass {k}: {res.error}"
               for k, res in enumerate(self.passes) if not res.ok]
        first = self.passes[0]
        if not first.ok:
            return out
        for path, data in zip(self.p.outputs, first.outputs):
            try:
                tracks = mot_io.read_mot_tracks(path) if data is not None else None
            except ValueError as exc:
                out.append(f"{path.name}: does not parse: {exc}")
                continue
            if tracks is None:
                out.append(f"{path.name}: not written")
                continue
            for t in tracks:
                frames = [e.frame for e in t.entries]
                if len(set(frames)) != len(frames):
                    out.append(f"{path.name}: track {t.track_id} repeats a frame")
        out.extend(self.p.self_check(first.data["pass_stdout"]))
        evals = {res.data.get("eval_stdout") for res in self.passes if res.ok}
        if len(evals) > 1:
            out.append("eval output differs between passes")
        acc = self.accuracy()
        if acc["mota"] < self.p.min_mota:
            out.append(f"mota {acc['mota']:.4f} below floor {self.p.min_mota}")
        if acc["idf1"] < self.p.min_idf1:
            out.append(f"idf1 {acc['idf1']:.4f} below floor {self.p.min_idf1}")
        return out

    def accuracy(self) -> dict[str, float]:
        kv = {}
        for line in self.passes[0].data.get("eval_stdout", "").splitlines():
            key, _, value = line.partition("=")
            kv[key] = value
        return {"mota": float(kv.get("mota", "nan")), "idf1": float(kv.get("idf1", "nan")),
                "idsw": float(kv.get("idsw", "nan"))}

    # -- metrics ----------------------------------------------------------

    def _median(self, key: str, kind: str) -> float:
        """Median over the passes of one kind; times are host-normalised."""
        values = [res.data[key] * (res.scale(key) if key.endswith("_s") else 1.0)
                  for res in self.passes if res.ok and res.kind == kind]
        return statistics.median(values) if values else float("nan")

    def end_to_end(self) -> dict[str, float]:
        wall = self._median("wall_s", "plain")
        acc = self.accuracy()
        return {
            "setup_s": self._median("setup_s", "plain"),
            "wall_s": wall,
            "dets_per_s": self.p.input_boxes / wall,
            "peak_rss_mb": self._median("peak_rss_mb", "plain"),
            "eval_s": self._median("eval_s", "plain"),
            "mota": acc["mota"],
            "idf1": acc["idf1"],
        }

    def per_layer(self) -> dict[str, float]:
        import tracer

        traced = []
        for res in self.passes:
            if res.ok and res.kind == "traced":
                summary = tracer.summarize(tracer.Spans(res.trace_file))
                # Layer times of the pass scale like wall_s, those of eval like eval_s.
                traced.append({key: value * (res.scale(tracer.PHASE.get(key, "wall_s"))
                                             if key.endswith("_s") else 1.0)
                               for key, value in summary.items()})
        layer = {key: statistics.median(s[key] for s in traced) for key in traced[0]}
        wall = self._median("wall_s", "plain")
        serial_kind = "serial" if self.p.workers > 1 else "plain"
        serial = self._median("wall_s", serial_kind)
        layer["cli.serial_s"] = serial
        layer["cli.parallel_efficiency"] = serial / (self.p.workers * wall)
        layer["metrics.idsw"] = self.accuracy()["idsw"]
        layer["trace.overhead_s"] = self._median("wall_s", "traced") - serial
        return layer


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "intertrack" / "__init__.py").is_file():
        print(f"perfbench: no intertrack source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    units = _units()

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        prepared = WORKLOADS[args.workload](args.seed, work, args.tiny)
        prepared.workers = min(prepared.workers, os.cpu_count() or 1)
        bench = Bench(prepared, work, started)
        if args.trace:
            cycle = ["plain", "traced"] + (["serial"] if prepared.workers > 1 else [])
        else:
            cycle = ["plain"]
        bench.loop(args.seconds, cycle)
        attempted, failed = bench.failures()
        problems = bench.problems()
        if not any(res.ok and res.kind == ("traced" if args.trace else "plain")
                   for res in bench.passes):
            problems.append("no pass completed")
            values = {}
        else:
            values = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:10s} {'passes':36s} {len(bench.passes)} "
          f"({attempted} sequences, {failed} failed)")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
