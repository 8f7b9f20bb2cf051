import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from reference import solve
from intertrack import assignment
from intertrack.geometry import iou_kernel
from intertrack.model import (BoundingBox, BoxTable, Detection, Trajectory, stack_boxes,
                              tracks_table)
from intertrack.metrics import (
    EvalCounts,
    evaluate,
    evaluate_sequences,
    format_report,
    frame_sorted,
    report_kv_lines,
    sequence_counts,
)


def det(frame, cx, cy=100.0, w=30.0, h=30.0):
    return Detection(frame=frame, box=BoundingBox(cx, cy, w, h), score=1.0)


def track(tid, frames, cx, cy=100.0):
    return Trajectory(tid, tuple(det(f, cx, cy) for f in frames))


def moving_track(tid, frames, x0, vx, cy=100.0):
    return Trajectory(tid, tuple(det(f, x0 + vx * f, cy) for f in frames))


def clear(report):
    return report.mota, report.fp, report.fn, report.idsw


class TestClearMot:
    def test_perfect_prediction(self):
        gt = [track(1, range(1, 11), 100.0), track(2, range(1, 11), 400.0)]
        res = evaluate(tracks_table(gt), tracks_table(gt))
        assert clear(res) == (1.0, 0, 0, 0)

    def test_empty_prediction_all_misses(self):
        gt = [track(1, range(1, 11), 100.0)]
        res = evaluate(tracks_table(gt), tracks_table([]))
        assert res.fn == 10
        assert res.fp == 0 and res.idsw == 0
        assert res.mota == 0.0

    def test_id_split_counts_one_switch(self):
        gt = [track(1, range(1, 11), 100.0)]
        pred = [track(7, range(1, 6), 100.0), track(8, range(6, 11), 100.0)]
        res = evaluate(tracks_table(gt), tracks_table(pred))
        assert res.idsw == 1
        assert res.fp == 0 and res.fn == 0
        assert res.mota == pytest.approx(0.9)

    def test_pure_false_positives(self):
        gt = [track(1, range(1, 6), 100.0)]
        pred = [track(1, range(1, 6), 100.0), track(2, range(1, 6), 700.0)]
        res = evaluate(tracks_table(gt), tracks_table(pred))
        assert res.fp == 5 and res.fn == 0 and res.idsw == 0
        assert res.mota == pytest.approx(0.0)

    def test_correspondence_persists_through_jitter(self):
        # Two preds overlap the gt; the established one must be kept even if
        # the other is momentarily closer.
        gt = [track(1, range(1, 6), 100.0)]
        p1 = track(1, range(1, 6), 102.0)   # established at frame 1 (sorted by id)
        p2 = track(2, range(2, 6), 100.0)   # appears later, exactly on target
        res = evaluate(tracks_table(gt), tracks_table([p1, p2]))
        assert res.idsw == 0
        assert res.fp == 4  # p2 never matches

    def test_switch_detected_across_gap(self):
        # gt vanishes for 3 frames; comes back matched to a different id.
        gt = [Trajectory(1, tuple(det(f, 100.0) for f in [1, 2, 3, 7, 8]))]
        pred = [track(5, [1, 2, 3], 100.0), track(6, [7, 8], 100.0)]
        res = evaluate(tracks_table(gt), tracks_table(pred))
        assert res.idsw == 1
        assert res.mota == pytest.approx(1 - 1 / 5)

    def test_low_iou_not_matched(self):
        gt = [track(1, range(1, 4), 100.0)]
        pred = [track(1, range(1, 4), 125.0)]  # IoU = 5/55 < 0.5
        res = evaluate(tracks_table(gt), tracks_table(pred))
        assert res.fp == 3 and res.fn == 3

    def test_relabeling_invariance(self):
        gt = [track(1, range(1, 8), 100.0), track(2, range(1, 8), 300.0)]
        pred = [track(10, range(1, 8), 100.0), track(20, range(1, 8), 300.0)]
        relabeled = [Trajectory(99, pred[0].entries), Trajectory(98, pred[1].entries)]
        assert clear(evaluate(tracks_table(gt), tracks_table(pred))) == \
            clear(evaluate(tracks_table(gt), tracks_table(relabeled)))


class TestIdMetrics:
    def test_perfect(self):
        gt = [track(1, range(1, 11), 100.0)]
        r = evaluate(tracks_table(gt), tracks_table(gt))
        assert (r.idf1, r.idp, r.idr) == (1.0, 1.0, 1.0)

    def test_split_gives_half(self):
        gt = [track(1, range(1, 11), 100.0)]
        pred = [track(7, range(1, 6), 100.0), track(8, range(6, 11), 100.0)]
        m = evaluate(tracks_table(gt), tracks_table(pred))
        assert m.idf1 == pytest.approx(0.5)
        assert m.idp == pytest.approx(0.5)
        assert m.idr == pytest.approx(0.5)

    def test_empty_prediction(self):
        gt = [track(1, range(1, 11), 100.0)]
        m = evaluate(tracks_table(gt), tracks_table([]))
        assert m.idf1 == 0.0 and m.idp == 0.0 and m.idr == 0.0

    def test_relabeling_invariance(self):
        gt = [track(1, range(1, 6), 100.0), track(2, range(1, 6), 300.0)]
        pred = [track(3, range(1, 6), 300.0), track(4, range(1, 6), 100.0)]
        m = evaluate(tracks_table(gt), tracks_table(pred))
        assert m.idf1 == pytest.approx(1.0)

    def test_global_assignment_matches_brute_force(self):
        rng = np.random.RandomState(11)
        lanes = [100.0 + 120.0 * k for k in range(5)]
        for _ in range(20):
            gt, pred = [], []
            for k, lane in enumerate(lanes):
                frames = range(1, rng.randint(4, 12))
                gt.append(track(k + 1, frames, lane))
                # Prediction uses a random lane (may collide with another gt)
                # and a random frame subset.
                plane = lanes[rng.randint(len(lanes))]
                pframes = [f for f in range(1, 12) if rng.rand() < 0.7]
                if pframes:
                    pred.append(Trajectory(
                        100 + k, tuple(det(f, plane) for f in pframes)))
            got = evaluate(tracks_table(gt), tracks_table(pred))
            want = self.brute_force_idf1(gt, pred)
            assert got.idf1 == pytest.approx(want, abs=1e-12)

    @staticmethod
    def brute_force_idf1(gt, pred):
        def idtp_pair(g, p):
            pboxes = {e.frame: e.box for e in p.entries}
            return sum(1 for e in g.entries if e.frame in pboxes
                       and iou_kernel(*stack_boxes([e.box, pboxes[e.frame]])) >= 0.5)

        len_gt = sum(len(t) for t in gt)
        len_pred = sum(len(t) for t in pred)
        best = 0
        n, m = len(gt), len(pred)
        for k in range(0, min(n, m) + 1):
            for g_sel in itertools.combinations(range(n), k):
                for p_sel in itertools.permutations(range(m), k):
                    total = sum(idtp_pair(gt[a], pred[b])
                                for a, b in zip(g_sel, p_sel))
                    best = max(best, total)
        denom = len_gt + len_pred
        return 2 * best / denom if denom else 1.0


class TestEvaluate:
    def test_report_fields_consistent(self):
        gt = [track(1, range(1, 11), 100.0)]
        pred = [track(7, range(1, 6), 100.0), track(8, range(6, 11), 100.0)]
        r = evaluate(tracks_table(gt), tracks_table(pred))
        assert r.mota == pytest.approx(1 - (r.fp + r.fn + r.idsw) / r.gt_count)
        assert r.idf1 == pytest.approx(0.5)
        assert r.gt_count == 10

    def test_multi_sequence_pooling(self):
        gt1 = tracks_table([track(1, range(1, 6), 100.0)])
        gt2 = tracks_table([track(1, range(1, 6), 100.0)])
        report = evaluate_sequences({
            "a": (gt1, gt1),
            "b": (gt2, tracks_table([])),
        })
        assert report.gt_count == 10
        assert report.fn == 5
        assert report.mota == pytest.approx(0.5)
        assert set(report.per_sequence) == {"a", "b"}
        assert report.per_sequence["a"].mota == 1.0

    def test_text_and_kv_output(self):
        gt = tracks_table([track(1, range(1, 6), 100.0)])
        r = evaluate(gt, gt)
        text = format_report(r)
        assert "MOTA" in text and "1.0000" in text
        kv = report_kv_lines(r)
        assert "mota=1.000000" in kv
        assert "idsw=0" in kv

    @pytest.mark.parametrize("threshold", [float("nan"), -1.0, 0.0, 1.5])
    @pytest.mark.parametrize("score", [
        lambda c, t: evaluate(c, c, t), lambda c, t: evaluate_sequences({"a": (c, c)}, t),
        lambda c, t: sequence_counts([(c, c)], t)],
        ids=["evaluate", "evaluate_sequences", "sequence_counts"])
    def test_threshold_outside_unit_interval_rejected(self, score, threshold):
        with pytest.raises(ValueError, match="iou_threshold"):
            score(tracks_table([track(1, range(1, 6), 100.0)]), threshold)

    def test_threshold_one_accepted(self):
        gt = tracks_table([track(1, range(1, 6), 100.0)])
        assert evaluate(gt, gt, 1.0).mota == 1.0


# Per-track-pair reference for the column counts: the CLEAR and identity
# counting that scored Trajectory lists before the column counts, kept verbatim.

def _frame_index(tracks):
    index = {}
    for t in tracks:
        for e in t.entries:
            index.setdefault(e.frame, []).append((t.track_id, e.box))
    for frame in index:
        index[frame].sort(key=lambda pair: pair[0])
    return index


def reference_clear_counts(gt, pred, iou_threshold):
    gt_idx = _frame_index(gt)
    pred_idx = _frame_index(pred)
    fp = fn = idsw = 0
    gt_count = sum(len(entries) for entries in gt_idx.values())
    last_hyp = {}
    for frame in sorted(set(gt_idx) | set(pred_idx)):
        gts = gt_idx.get(frame, [])
        preds = pred_idx.get(frame, [])
        pred_boxes = {pid: box for pid, box in preds}
        taken_g, taken_p = set(), set()
        matches = []
        alive = [(gid, box, last_hyp[gid]) for gid, box in gts
                 if last_hyp.get(gid) in pred_boxes]
        overlaps = iou_kernel(stack_boxes([box for _, box, _ in alive]),
                              stack_boxes([pred_boxes[pid] for _, _, pid in alive]))
        for (gid, _, pid), overlap in zip(alive, overlaps):
            if pid not in taken_p and overlap >= iou_threshold:
                matches.append((gid, pid))
                taken_g.add(gid)
                taken_p.add(pid)
        rest_g = [(gid, box) for gid, box in gts if gid not in taken_g]
        rest_p = [(pid, box) for pid, box in preds if pid not in taken_p]
        if rest_g and rest_p:
            overlaps = iou_kernel(stack_boxes([b for _, b in rest_g])[:, None],
                                  stack_boxes([b for _, b in rest_p])[None, :])
            admissible = np.where(overlaps >= iou_threshold, overlaps, -np.inf)
            for i, j in solve(admissible, -np.inf):
                gid, pid = rest_g[i][0], rest_p[j][0]
                matches.append((gid, pid))
                taken_g.add(gid)
                taken_p.add(pid)
        for gid, pid in matches:
            prev = last_hyp.get(gid)
            if prev is not None and prev != pid:
                idsw += 1
            last_hyp[gid] = pid
        fn += len(gts) - len(matches)
        fp += len(preds) - len(matches)
    return fp, fn, idsw, gt_count


def reference_id_counts(gt, pred, iou_threshold):
    len_gt = sum(len(t) for t in gt)
    len_pred = sum(len(t) for t in pred)
    if not gt or not pred:
        return 0, len_gt, len_pred
    potential = np.zeros((len(gt), len(pred)))
    pred_frames = [{e.frame: e.box for e in t.entries} for t in pred]
    for i, t in enumerate(gt):
        for j, frames in enumerate(pred_frames):
            both = [(e.box, frames[e.frame]) for e in t.entries if e.frame in frames]
            if not both:
                continue
            overlaps = iou_kernel(stack_boxes([a for a, _ in both]),
                                  stack_boxes([b for _, b in both]))
            potential[i, j] = int((overlaps >= iou_threshold).sum())
    admissible = np.where(potential > 0, potential, -np.inf)
    idtp = int(sum(potential[i, j] for i, j in solve(admissible, -np.inf)))
    return idtp, len_gt, len_pred


# Boxes on a coarse integer grid (4 x 4 px, centres 0-6 px apart) make IoU
# ties common and give IoUs of exactly 1, 0.6, 1/3, 1/7 and 0, so thresholds
# drawn from those values sit exactly on an attainable IoU.
_GRID_THRESHOLDS = [1.0, 0.6, 0.5, 1 / 3, 1 / 7, 0.05]


@st.composite
def _grid_tracks(draw, ids):
    chosen = draw(st.lists(ids, unique=True, max_size=5))
    tracks = []
    for tid in chosen:
        frames = draw(st.lists(st.integers(1, 8), unique=True, min_size=1, max_size=8))
        entries = tuple(Detection(frame=f, box=BoundingBox(float(draw(st.integers(0, 6))),
                                                           float(draw(st.integers(0, 2))),
                                                           4.0, 4.0), score=1.0)
                        for f in sorted(frames))
        tracks.append(Trajectory(tid, entries))
    return draw(st.permutations(tracks))


def _line(tid, placed):
    """A track at (frame, cx) positions on the grid's first row."""
    return Trajectory(tid, tuple(Detection(frame=f, box=BoundingBox(float(x), 0.0, 4.0, 4.0),
                                           score=1.0) for f, x in placed))


# gt 1 and gt 2 both last matched pred 5 when they meet it at frame 3; gt 1,
# first in id order, keeps it alive (IoU 0.6) although pred 6 covers it
# exactly, and gt 2 goes to the optimal step and switches to pred 6.
_SHARED_HYPOTHESIS = ([_line(1, [(1, 0), (3, 0), (4, 0)]), _line(2, [(2, 0), (3, 1), (4, 1)])],
                      [_line(5, [(1, 0), (2, 0), (3, 1), (4, 0)]), _line(6, [(3, 0), (4, 1)])])


# Two trajectories of gt 1 share frame 2, where each meets one prediction.
_SHARED_ID = ([_line(1, [(1, 0), (2, 0)]), _line(1, [(2, 6), (3, 6)])],
              [_line(5, [(1, 0), (2, 6), (3, 6)]), _line(6, [(2, 0)])])

# Pred 5 holds two rows in frame 2, and gt 1, last matched to pred 5, hits
# only the second (IoU 0.6) and pred 6 (IoU 1).  The correspondence lives on
# pred 5's first row, which is no hit, so the optimal step switches gt 1 to 6.
_SPLIT_HYPOTHESIS = ([_line(1, [(1, 0), (2, 0)])],
                     [_line(5, [(1, 0), (2, 6)]), _line(5, [(2, 1)]), _line(6, [(2, 0)])])

# gt 2 overlaps pred 7 by an IoU of about 1e-11: at a threshold below that
# it is a hit like any other, and the frame's one hit is matched.
_TINY_HIT = ([_line(1, [(1, 20)]), _line(2, [(1, 0)])], [_line(7, [(1, 4 - 8e-11)])])

# gt 1 and 2 and predictions 3, 4 and 5 share one box at frame 1, gt 1 and
# prediction 4 again at frame 2.  Frame 1's perfect matchings onto two of
# the three predictions tie exactly; the solver keeps the first it finds,
# gt 1 to prediction 3, so frame 2 switches gt 1 to 4.  scipy's square form
# may pick gt 1 to 4 and count no switch.
_TIED_PICK = ([_line(1, [(1, 0), (2, 0)]), _line(2, [(1, 0)])],
              [_line(3, [(1, 0)]), _line(4, [(1, 0), (2, 0)]), _line(5, [(1, 0)])])


@st.composite
def _frame_table(draw):
    """Boxes on whole pixels, 1 to 8 px, in frames 1-6, several to a frame,
    so that boxes repeat and edges touch; a side may miss a frame or all."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    frames = draw(st.lists(st.integers(1, 6), max_size=6))
    n = len(frames) * draw(st.integers(1, 4))
    boxes = np.column_stack([rng.integers(0, 8, (n, 2)), rng.integers(1, 9, (n, 2))]) / 1.0
    return BoxTable(np.sort(np.repeat(np.array(frames, np.int64), n // max(len(frames), 1))),
                    np.arange(n), np.ones(n), np.zeros(n, np.int64), boxes.reshape(-1, 4))


@settings(max_examples=300, deadline=None)
@given(gt=_frame_table(), pred=_frame_table(),
       iou_threshold=st.one_of(st.sampled_from([1.0, 0.5, 1e-12, 5e-324]),
                               st.floats(0.0, 1.0, exclude_min=True)),
       budget=st.sampled_from([1, 5, assignment._CHUNK_CELLS]))
def test_eval_hits_are_the_brute_force_hits(gt, pred, iou_threshold, budget):
    """The hits `sequence_counts` takes from the sweep are exactly the gt x pred
    pairs of each frame whose IoU, as a per-frame call scores it, reaches
    the threshold, each once."""
    calls = []

    def recording(*args):
        calls.append(assignment.overlap_cells(*args))
        return calls[-1]
    with mock.patch.object(assignment, "_CHUNK_CELLS", budget), \
            mock.patch("intertrack.metrics.overlap_cells", recording):
        sequence_counts([(gt, pred)], iou_threshold)
    r, c, iou, _ = calls[0]
    want = []
    for f in sorted(set(gt.frame.tolist()) & set(pred.frame.tolist())):
        rows, cols = np.flatnonzero(gt.frame == f), np.flatnonzero(pred.frame == f)
        block = iou_kernel(gt.boxes[rows][:, None], pred.boxes[cols][None, :])
        i, j = np.nonzero(block >= iou_threshold)
        want += list(zip(rows[i].tolist(), cols[j].tolist(), block[i, j].tolist()))
    got = list(zip(r.tolist(), c.tolist(), iou.tolist()))
    assert len(set(got)) == len(got) and sorted(got) == sorted(want)


class TestColumnCounts:
    @settings(max_examples=400, deadline=None)
    @given(gt=_grid_tracks(st.integers(1, 6)), pred=_grid_tracks(st.integers(3, 9)),
           iou_threshold=st.sampled_from(_GRID_THRESHOLDS))
    @example(gt=_SHARED_HYPOTHESIS[0], pred=_SHARED_HYPOTHESIS[1], iou_threshold=0.5)
    @example(gt=_SHARED_HYPOTHESIS[0], pred=[], iou_threshold=0.5)
    @example(gt=[], pred=_SHARED_HYPOTHESIS[1], iou_threshold=0.5)
    def test_matches_per_track_pair_reference(self, gt, pred, iou_threshold):
        counts = sequence_counts([(tracks_table(gt), tracks_table(pred))], iou_threshold)[0]
        fp, fn, idsw, gt_count = reference_clear_counts(gt, pred, iou_threshold)
        idtp, len_gt, len_pred = reference_id_counts(gt, pred, iou_threshold)
        assert (counts.fp, counts.fn, counts.idsw) == (fp, fn, idsw)
        assert (counts.idtp, counts.len_gt, counts.len_pred) == (idtp, len_gt, len_pred)
        assert counts.len_gt == gt_count

    @settings(max_examples=400, deadline=None)
    @given(gt=_grid_tracks(st.integers(1, 6)), pred=_grid_tracks(st.integers(3, 9)),
           iou_threshold=st.sampled_from(_GRID_THRESHOLDS),
           budget=st.sampled_from([1, 5, 40, assignment._CHUNK_CELLS]))
    @example(gt=_SHARED_HYPOTHESIS[0], pred=_SHARED_HYPOTHESIS[1], iou_threshold=0.5, budget=1)
    @example(gt=_SHARED_HYPOTHESIS[0], pred=[], iou_threshold=0.5, budget=1)
    @example(gt=[], pred=_SHARED_HYPOTHESIS[1], iou_threshold=0.5, budget=1)
    @example(gt=_SHARED_ID[0], pred=_SHARED_ID[1], iou_threshold=0.5, budget=5)
    @example(gt=_SPLIT_HYPOTHESIS[0], pred=_SPLIT_HYPOTHESIS[1], iou_threshold=0.5, budget=5)
    @example(gt=_TINY_HIT[0], pred=_TINY_HIT[1], iou_threshold=1e-12, budget=40)
    @example(gt=_TIED_PICK[0], pred=_TIED_PICK[1], iou_threshold=1.0, budget=5)
    def test_matches_frame_by_frame_reference(self, gt, pred, iou_threshold, budget):
        gt, pred = frame_sorted(tracks_table(gt)), frame_sorted(tracks_table(pred))
        with mock.patch.object(assignment, "_CHUNK_CELLS", budget):
            counts = sequence_counts([(gt, pred)], iou_threshold)[0]
        want, tied = reference.eval_counts(gt, pred, iou_threshold)
        if tied:
            # Some frame's optimal step ties, and idsw, fp and fn follow the
            # solver's pick: the scipy walk pins only the identity counts,
            # and the walk on the package's solver pins them all.
            assert ((counts.idtp, counts.len_gt, counts.len_pred)
                    == (want.idtp, want.len_gt, want.len_pred))
            assert counts == reference.eval_counts(gt, pred, iou_threshold,
                                                   lambda s: solve(s, -np.inf))[0]
        else:
            assert counts == want

    def test_shared_gt_id_steps_its_frame(self):
        # Frame 2 holds two rows of gt 1, each with one hit: stepped, pred 5
        # stays alive on the second row and the first switches to pred 6,
        # which frame 3's pred 5 then switches back from.
        counts = sequence_counts([tuple(map(tracks_table, _SHARED_ID))], 0.5)[0]
        assert (counts.fp, counts.fn, counts.idsw) == (0, 0, 2)

    def test_a_hypothesis_lives_on_its_first_row_in_a_frame(self):
        gt, pred = (frame_sorted(tracks_table(t)) for t in _SPLIT_HYPOTHESIS)
        counts = sequence_counts([(gt, pred)], 0.5)[0]
        assert (counts.fp, counts.fn, counts.idsw) == (2, 0, 1)
        assert counts == reference.eval_counts(gt, pred, 0.5)[0]

    def test_hit_at_a_tiny_threshold_is_matched(self):
        counts = sequence_counts([tuple(map(tracks_table, _TINY_HIT))], 1e-12)[0]
        boxes = stack_boxes([_TINY_HIT[0][1].entries[0].box, _TINY_HIT[1][0].entries[0].box])
        assert 1e-12 <= iou_kernel(*boxes) < 1e-10
        assert (counts.fp, counts.fn, counts.idsw, counts.idtp) == (0, 1, 0, 1)

    def test_tied_frame_keeps_the_solvers_first_matching(self):
        gt, pred = (frame_sorted(tracks_table(t)) for t in _TIED_PICK)
        counts = sequence_counts([(gt, pred)], 1.0)[0]
        assert (counts.fp, counts.fn, counts.idsw, counts.idtp) == (1, 0, 1, 3)
        assert reference.eval_counts(gt, pred, 1.0)[1]

    def test_idtp_builds_no_gt_by_pred_matrix(self):
        # 2,000 gt and 2,000 prediction tracks, one box each, on one spot in
        # frames of their own: a dense potential would take 8 * 2000^2 bytes.
        n = 2000
        table = BoxTable(np.arange(1, n + 1), np.arange(n), np.ones(n), np.zeros(n, np.int64),
                         np.tile([10.0, 10.0, 4.0, 4.0], (n, 1)))
        tracemalloc.start()
        try:
            counts = sequence_counts([(table, table)], 0.5)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (counts.fp, counts.fn, counts.idsw, counts.idtp) == (0, 0, 0, n)
        assert peak < 8 * n * n / 8

    def test_kept_alive_prediction_goes_to_the_lower_gt_id(self):
        counts = sequence_counts([tuple(map(tracks_table, _SHARED_HYPOTHESIS))], 0.5)[0]
        # One switch (gt 2 at frame 3); both pairs then persist.  Matching
        # frame 3 optimally instead would switch gt 1 there and both at frame 4.
        assert (counts.fp, counts.fn, counts.idsw) == (0, 0, 1)


# Ids that every sequence may reuse, some near the top of the exact range.
_SHARED_IDS = st.one_of(st.integers(1, 6), st.integers(2 ** 53 - 4, 2 ** 53 - 1))


class TestBatchCounts:
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(_grid_tracks(_SHARED_IDS), _grid_tracks(_SHARED_IDS)),
                          min_size=1, max_size=4),
           iou_threshold=st.sampled_from(_GRID_THRESHOLDS))
    @example(pairs=[_SHARED_HYPOTHESIS, (_SHARED_HYPOTHESIS[0], []), ([], _SHARED_ID[1]),
                    _SHARED_ID], iou_threshold=0.5)
    @example(pairs=[_TIED_PICK, _TIED_PICK], iou_threshold=1.0)
    def test_each_sequence_counts_as_alone(self, pairs, iou_threshold):
        """The sequences reuse track ids and frames 1-8, yet each one's counts
        in the batch are those it gets alone, in a batch of one and from the
        frame-by-frame reference on the same solver."""
        tables = [(tracks_table(gt), tracks_table(pred)) for gt, pred in pairs]
        batch = sequence_counts(tables, iou_threshold)
        assert len(batch) == len(tables)
        for counts, (gt, pred) in zip(batch, tables):
            gt, pred = frame_sorted(gt), frame_sorted(pred)
            assert counts == sequence_counts([(gt, pred)], iou_threshold)[0]
            assert counts == reference.eval_counts(gt, pred, iou_threshold,
                                                   lambda s: solve(s, -np.inf))[0]

    def test_no_sequences_count_nothing(self):
        assert sequence_counts([], 0.5) == []
        assert evaluate_sequences({}).gt_count == 0

    def test_one_sweep_scores_a_batch(self):
        gt = tracks_table([track(1, range(1, 6), 100.0)])
        with mock.patch("intertrack.metrics.overlap_cells",
                        wraps=assignment.overlap_cells) as sweep:
            sequence_counts([(gt, gt)] * 3, 0.5)
        assert sweep.call_count == 1


def _of_class(tracks, class_id):
    """`tracks_table` of `tracks` as tracks of class `class_id`, their ids
    moved by 100 a class, so that no two classes share a track id."""
    table = tracks_table(tracks)
    return table._replace(id=table.id + 100 * class_id,
                          class_id=np.full_like(table.class_id, class_id))


def _kitti_box(frame, left):
    """A 50 x 100 box at `left`, on KITTI's frame `frame` (0-based)."""
    return Detection(frame=frame + 1, box=BoundingBox(left + 25.0, 150.0, 50.0, 100.0),
                     score=1.0)


@settings(max_examples=300, deadline=None)
@given(car=st.tuples(_grid_tracks(st.integers(1, 6)), _grid_tracks(st.integers(3, 9))),
       pedestrian=st.tuples(_grid_tracks(st.integers(1, 6)), _grid_tracks(st.integers(3, 9))),
       iou_threshold=st.sampled_from(_GRID_THRESHOLDS))
# A Pedestrian prediction lying exactly on a Car ground truth hits nothing.
@example(car=([Trajectory(1, (_kitti_box(0, 100), _kitti_box(1, 102)))], []),
         pedestrian=([], [Trajectory(7, (_kitti_box(0, 100), _kitti_box(1, 102)))]),
         iou_threshold=0.5)
def test_classes_count_as_apart(car, pedestrian, iou_threshold):
    """The counts of a (gt, pred) pair of two classes, each track of one
    class, are the sums of each class's own pair's counts: no hit crosses
    classes."""
    per_class = [tuple(_of_class(tracks, class_id) for tracks in pair)
                 for class_id, pair in ((0, car), (3, pedestrian))]  # KITTI's Car, Pedestrian
    both = tuple(BoxTable(*map(np.concatenate, zip(*side))) for side in zip(*per_class))
    alone = sequence_counts(per_class, iou_threshold)
    (counts,) = sequence_counts([both], iou_threshold)
    assert counts == EvalCounts(*map(sum, zip(*alone)))
    gt, pred = (frame_sorted(side) for side in both)
    assert counts == reference.eval_counts(gt, pred, iou_threshold,
                                           lambda s: solve(s, -np.inf))[0]
