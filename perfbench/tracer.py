"""In-memory span tracer for one traced pass of the intertrack CLI.

`instrument` replaces public intertrack functions at the module (or class)
attribute where the pipeline looks them up, e.g. `intertrack.hierarchy.solve`
rather than `intertrack.assignment.solve`, because `hierarchy` binds the name
at import time.  Each call records one span: name, start, end, parent span
and two numbers measured on the call (`work`, e.g. matrix cells, and `out`,
e.g. matches returned).  Spans are kept in flat arrays and written to one
`.npz` file when the pass ends; `summarize` turns that file into the
per-layer metrics.

The traced pass runs with one worker, so spans nest strictly and the time a
span's children cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Optional

import numpy as np

# (owner, attribute, span name, measure).  `owner` is a dotted module path,
# optionally followed by ":Class".  `measure(args, kwargs, result)` returns
# the span's (work, out) numbers.
Measure = Callable[[tuple, dict, object], tuple[float, float]]


def _none(args, kwargs, result):
    return 0.0, 0.0


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _size_of(pos: int, name: str) -> Measure:
    """work = len() of one argument."""
    return lambda a, k, r: (float(len(_arg(a, k, pos, name))), 0.0)


def _run_counts(index: int) -> Measure:
    # RunResult.per_class[k].counts: index 1 is the tracklet count after
    # frame-adjacent chaining (track), index 0 the split input (refine).
    def measure(args, kwargs, result):
        level1 = sum(c.counts[index] for c in result.per_class if len(c.counts) > index)
        return float(level1), float(len(result.trajectories))
    return measure


def _entries(trajectories) -> int:
    return sum(len(t.entries) for t in trajectories)


HOOKS: list[tuple[str, str, str, Measure]] = [
    ("intertrack.hierarchy", "run_detailed", "hierarchy.run", _run_counts(1)),
    ("intertrack.hierarchy", "associate_tracklets", "hierarchy.run", _run_counts(0)),
    ("intertrack.hierarchy", "hierarchy_pass", "hierarchy.hierarchy_pass", _none),
    ("intertrack.hierarchy", "adjacent_pass", "hierarchy.adjacent_pass", _none),
    ("intertrack.hierarchy", "consistent_motion_pass", "hierarchy.consistent_motion_pass",
     _none),
    ("intertrack.hierarchy", "byte_recovery", "hierarchy.byte_recovery", _none),
    ("intertrack.hierarchy", "chain_predictors", "motion.chain_predictors",
     _size_of(0, "chain")),
    ("intertrack.hierarchy", "pair_similarity", "motion.pair_similarity", _none),
    ("intertrack.motion:FitCache", "get", "motion.fitcache_get", _none),
    ("intertrack.motion", "fit", "motion.fit",
     lambda a, k, r: (float(len(_arg(a, k, 0, "tracklet").entries)), 0.0)),
    # Methods: args[0] is the kernel itself.
    ("intertrack.geometry:SimilarityKernel", "matrix", "geometry.matrix",
     lambda a, k, r: (float(r.size), 0.0)),
    ("intertrack.geometry:SimilarityKernel", "pair", "geometry.pair", _none),
    ("intertrack.hierarchy", "solve", "assignment.solve",
     lambda a, k, r: (float(np.size(_arg(a, k, 0, "scores"))), float(len(r)))),
    ("intertrack.camera", "estimate", "camera.estimate",
     lambda a, k, r: (0.0, 1.0 if r.moving else 0.0)),
    ("intertrack.camera", "stabilize", "camera.stabilize", _none),
    ("intertrack.cli", "split_at_discontinuities", "refine.split", _none),
    ("intertrack.hierarchy", "resolve_overlap", "refine.resolve_overlap", _none),
    ("intertrack.cli", "interpolate", "refine.interpolate",
     lambda a, k, r: (0.0, float(len(r) - len(_arg(a, k, 0, "trajectory"))))),
    ("intertrack.cli", "gaussian_smooth", "refine.smooth", _none),
    ("intertrack.mot_io", "read_mot_detections", "mot_io.read",
     lambda a, k, r: (0.0, float(len(r)))),
    ("intertrack.mot_io", "read_mot_tracks", "mot_io.read",
     lambda a, k, r: (0.0, float(_entries(r)))),
    ("intertrack.mot_io", "write_mot_results", "mot_io.write",
     lambda a, k, r: (float(_entries(_arg(a, k, 0, "trajectories"))), 0.0)),
    ("intertrack.metrics", "evaluate", "metrics.evaluate", _none),
    ("intertrack.metrics", "evaluate_sequences", "metrics.evaluate", _none),
]

# Root spans opened by the pass runner around the two CLI invocations.
PASS_ROOT = "cli.pass"
EVAL_ROOT = "cli.eval"
# Per-layer times measured under EVAL_ROOT; all others are under PASS_ROOT.
PHASE = {"metrics.evaluate_s": "eval_s"}


class Tracer:
    """Records spans in flat arrays; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.out = array("d")
        self._stack: list[int] = [-1]

    def intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.work.append(0.0)
        self.out.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, span: str, measure: Measure) -> Callable:
        name_id = self.intern(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            self.work[sid], self.out[sid] = measure(args, kwargs, result)
            return result
        return traced

    def dump(self, path) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 work=np.frombuffer(self.work, dtype=np.float64),
                 out=np.frombuffer(self.out, dtype=np.float64))


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, cls) if cls else obj


def instrument(tracer: Tracer) -> None:
    """Replace every hooked attribute with a span-recording wrapper.

    A hook whose attribute no longer exists is reported on stderr and
    skipped; its metrics then read 0.
    """
    for owner, attr, span, measure in HOOKS:
        target = _resolve(owner)
        if not hasattr(target, attr):
            print(f"trace: {owner}.{attr} not found; {span} not traced", file=sys.stderr)
            continue
        setattr(target, attr, tracer.wrap(getattr(target, attr), span, measure))


class Spans:
    """A loaded trace with derived per-span self time and ancestry."""

    def __init__(self, path):
        with np.load(path) as data:
            self.names: list[str] = json.loads(str(data["names"]))
            self.name = data["name"]
            self.parent = data["parent"]
            self.start = data["start"]
            self.end = data["end"]
            self.work = data["work"]
            self.out = data["out"]
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered
        self.root = self._ancestor_where(self.parent < 0)

    def _ancestor_where(self, is_target: np.ndarray) -> np.ndarray:
        """Index of the nearest span at or above each span with is_target."""
        found = np.where(is_target, np.arange(len(self.name)), -1)
        node = self.parent.copy()
        while (pending := (found < 0) & (node >= 0)).any():
            hit = pending & is_target[np.maximum(node, 0)]
            found[hit] = node[hit]
            node = np.where(pending & ~hit, self.parent[np.maximum(node, 0)], -1)
        return found

    def id_of(self, name: str) -> Optional[int]:
        return self.names.index(name) if name in self.names else None

    def select(self, name: str, root: str = PASS_ROOT,
               parent: Optional[str] = None) -> np.ndarray:
        """Mask of spans called `name` under the given root span.

        With `parent`, only spans whose direct parent is called `parent`.
        A span nested inside another of the same name is left out, so
        inclusive times are not counted twice.
        """
        nid, rid = self.id_of(name), self.id_of(root)
        if nid is None or rid is None:
            return np.zeros(len(self.name), dtype=bool)
        mask = (self.name == nid) & (self.name[self.root] == rid)
        has_parent = self.parent >= 0
        parent_of = np.maximum(self.parent, 0)
        if parent is not None:
            mask &= has_parent & (self.name[parent_of] == self.id_of(parent))
        same_above = self._ancestor_where(self.name == nid)[parent_of]
        return mask & (~has_parent | (same_above < 0))


def summarize(spans: Spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    def inclusive(name, **kw):
        return float(spans.dur[spans.select(name, **kw)].sum())

    def calls(name, **kw):
        return float(spans.select(name, **kw).sum())

    def work(name, **kw):
        return float(spans.work[spans.select(name, **kw)].sum())

    def out(name, **kw):
        return float(spans.out[spans.select(name, **kw)].sum())

    hp = "hierarchy.hierarchy_pass"
    similarity_calls = calls("motion.pair_similarity", parent=hp)
    gets = calls("motion.fitcache_get")
    fits_in_cache = calls("motion.fit", parent="motion.fitcache_get")
    return {
        "hierarchy.hierarchy_pass_s": inclusive(hp),
        "hierarchy.hierarchy_pass_self_s": float(spans.self_time[spans.select(hp)].sum()),
        "hierarchy.similarity_calls": similarity_calls,
        "hierarchy.match_yield": (out("assignment.solve", parent=hp) / similarity_calls
                                  if similarity_calls else 0.0),
        "hierarchy.adjacent_pass_s": inclusive("hierarchy.adjacent_pass"),
        "hierarchy.consistent_motion_pass_s": inclusive("hierarchy.consistent_motion_pass"),
        "hierarchy.byte_recovery_s": inclusive("hierarchy.byte_recovery"),
        "hierarchy.level1_tracklets": work("hierarchy.run"),
        "hierarchy.final_tracklets": out("hierarchy.run"),
        "motion.chain_predictors_s": inclusive("motion.chain_predictors"),
        "motion.chain_predictors_entries": work("motion.chain_predictors"),
        "motion.fit_s": inclusive("motion.fit"),
        "motion.fit_calls": calls("motion.fit"),
        "motion.fit_entries": work("motion.fit"),
        "motion.pair_similarity_s": inclusive("motion.pair_similarity"),
        "motion.pair_similarity_calls": calls("motion.pair_similarity"),
        "motion.fitcache_hit_ratio": (gets - fits_in_cache) / gets if gets else 0.0,
        "geometry.matrix_s": inclusive("geometry.matrix"),
        "geometry.matrix_calls": calls("geometry.matrix"),
        "geometry.matrix_cells": work("geometry.matrix"),
        "geometry.pair_s": inclusive("geometry.pair"),
        "geometry.pair_calls": calls("geometry.pair"),
        "assignment.solve_s": inclusive("assignment.solve"),
        "assignment.solve_calls": calls("assignment.solve"),
        "assignment.solve_cells": work("assignment.solve"),
        "assignment.solve_max_cells": float(
            spans.work[spans.select("assignment.solve")].max(initial=0.0)),
        "camera.estimate_s": inclusive("camera.estimate"),
        "camera.stabilize_s": inclusive("camera.stabilize"),
        "camera.moving": out("camera.estimate"),
        "refine.split_s": inclusive("refine.split"),
        "refine.resolve_overlap_s": inclusive("refine.resolve_overlap"),
        "refine.resolve_overlap_calls": calls("refine.resolve_overlap"),
        "refine.interpolate_s": inclusive("refine.interpolate"),
        "refine.interpolated_boxes": out("refine.interpolate"),
        "refine.smooth_s": inclusive("refine.smooth"),
        "mot_io.read_s": inclusive("mot_io.read"),
        "mot_io.write_s": inclusive("mot_io.write"),
        "mot_io.rows_read": out("mot_io.read"),
        "mot_io.rows_written": work("mot_io.write"),
        "metrics.evaluate_s": inclusive("metrics.evaluate", root=EVAL_ROOT),
        "trace.spans": float(len(spans.name)),
    }
