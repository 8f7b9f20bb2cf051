import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from intertrack.geometry import (
    SimilarityKernel,
    consistent_iou_kernel,
    expansion_ratio,
    hm_iou_kernel,
    iou_kernel,
)
from intertrack.model import BoundingBox, TrackerConfig, ltwh_to_center, stack_boxes


def box_ltwh(left, top, w, h):
    """One [cx, cy, w, h] row; a kernel scores two rows as one pair."""
    return np.array(ltwh_to_center(left, top, w, h), dtype=np.float64)


def random_boxes(rng, n, w_lo=5.0, w_hi=120.0):
    cx = rng.uniform(0, 500, n)
    cy = rng.uniform(0, 500, n)
    w = rng.uniform(w_lo, w_hi, n)
    h = rng.uniform(w_lo, w_hi, n)
    return np.stack([cx, cy, w, h], axis=1)


# --- fixed-value checks -----------------------------------------------------

def test_iou_offset_pair():
    # 80x50 boxes offset by (15, 15): intersection 65x35 = 2275,
    # union 2*4000 - 2275 = 5725.
    a = box_ltwh(0, 0, 80, 50)
    b = box_ltwh(15, 15, 80, 50)
    assert iou_kernel(a, b) == pytest.approx(2275 / 5725, abs=1e-12)
    assert iou_kernel(a, b) == pytest.approx(0.397, abs=0.005)


def test_iou_offset_pair_small():
    # Same (15, 15) offset on 40x25 boxes collapses to 250/1750.
    a = box_ltwh(0, 0, 40, 25)
    b = box_ltwh(15, 15, 40, 25)
    assert iou_kernel(a, b) == pytest.approx(250 / 1750, abs=1e-12)
    assert iou_kernel(a, b) == pytest.approx(0.143, abs=0.005)


def test_iou_disjoint_and_identical():
    a = box_ltwh(0, 0, 10, 10)
    assert iou_kernel(a, box_ltwh(50, 50, 10, 10)) == 0.0
    assert iou_kernel(a, box_ltwh(10, 0, 10, 10)) == 0.0  # touching edges
    assert iou_kernel(a, a) == 1.0


def test_height_iou_intervals():
    a = box_ltwh(0, 0, 10, 10)      # vertical extent [0, 10]
    b = box_ltwh(100, 5, 10, 10)    # vertical extent [5, 15]; x-disjoint
    assert iou_kernel(a, b) == 0.0
    assert hm_iou_kernel(a, b) == 0.0
    # The same extents, x-aligned: IoU 50/150 damped by the vertical 5/15.
    c = box_ltwh(0, 5, 10, 10)
    assert iou_kernel(a, c) == pytest.approx(50 / 150, abs=1e-12)
    assert hm_iou_kernel(a, c) == pytest.approx(iou_kernel(a, c) * 5 / 15, abs=1e-12)


def test_hm_iou_is_product():
    a = box_ltwh(0, 0, 80, 50)
    b = box_ltwh(15, 15, 80, 50)
    expected = (2275 / 5725) * (35 / 65)
    assert hm_iou_kernel(a, b) == pytest.approx(expected, abs=1e-12)
    assert hm_iou_kernel(a, b) == pytest.approx(0.2139738, abs=1e-6)


def test_expansion_ratio_values():
    assert expansion_ratio(32, 32, 64, 0.2) == pytest.approx(math.exp(0.4), abs=1e-9)
    assert expansion_ratio(64, 64, 64, 0.2) == pytest.approx(math.exp(0.2), abs=1e-9)
    # Asymmetric widths use the mean of the per-box exponents.
    assert expansion_ratio(16, 64, 64, 0.2) == pytest.approx(
        math.exp(0.2 * (4 + 1) / 2), abs=1e-12)


def test_zero_scaling_disables_expansion():
    cfg = dataclasses.replace(TrackerConfig(), ci_scaling_factor=0.0)
    a = box_ltwh(0, 0, 40, 25)
    b = box_ltwh(15, 15, 40, 25)
    assert expansion_ratio(40, 40, 64, 0.0) == 1.0
    assert consistent_iou_kernel(a, b, cfg) == pytest.approx(iou_kernel(a, b), abs=1e-12)


def test_consistent_iou_expands_small_pairs():
    cfg = TrackerConfig()
    a = box_ltwh(0, 0, 40, 25)
    b = box_ltwh(15, 15, 40, 25)
    # Hand-rolled expectation: both widths below 64 so both boxes grow by
    # r = exp(0.2 * 64/40) about their centers (20, 12.5) and (35, 27.5).
    r = math.exp(0.2 * 64 / 40)
    w, h = 40 * r, 25 * r
    ix = min(20 + w / 2, 35 + w / 2) - max(20 - w / 2, 35 - w / 2)
    iy = min(12.5 + h / 2, 27.5 + h / 2) - max(12.5 - h / 2, 27.5 - h / 2)
    expected = (ix * iy) / (2 * w * h - ix * iy)
    got = consistent_iou_kernel(a, b, cfg)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got > iou_kernel(a, b)


def test_consistent_iou_leaves_wide_pairs_alone():
    cfg = TrackerConfig()
    a = box_ltwh(0, 0, 80, 50)
    b = box_ltwh(15, 15, 80, 50)
    assert consistent_iou_kernel(a, b, cfg) == pytest.approx(iou_kernel(a, b), abs=1e-12)
    # One small box is not enough; both must be narrow.
    c = box_ltwh(0, 0, 40, 50)
    assert consistent_iou_kernel(c, b, cfg) == pytest.approx(iou_kernel(c, b), abs=1e-12)


def test_consistent_iou_threshold_is_strict():
    cfg = TrackerConfig()
    a = box_ltwh(0, 0, 64, 30)
    b = box_ltwh(10, 5, 64, 30)
    assert consistent_iou_kernel(a, b, cfg) == pytest.approx(iou_kernel(a, b), abs=1e-12)


def all_pairs(kernel, a, b, *args):
    return kernel(a[:, None], b[None, :], *args)


# --- all-pairs forms vs one-pair forms --------------------------------------

def test_matrix_kernels_match_scalar():
    rng = np.random.RandomState(7)
    a = random_boxes(rng, 23)
    b = random_boxes(rng, 17)
    got = all_pairs(iou_kernel, a, b)
    got_hm = all_pairs(hm_iou_kernel, a, b)
    for i, ba in enumerate(a):
        for j, bb in enumerate(b):
            assert got[i, j] == iou_kernel(ba, bb)
            assert got_hm[i, j] == hm_iou_kernel(ba, bb)


@pytest.mark.parametrize("use_hm", [False, True])
def test_consistent_matrix_matches_scalar(use_hm):
    cfg = dataclasses.replace(TrackerConfig(), use_hm_iou=use_hm)
    rng = np.random.RandomState(11)
    # Width range straddles the 64px threshold so the mask path is exercised.
    a = random_boxes(rng, 19, w_lo=10, w_hi=110)
    b = random_boxes(rng, 21, w_lo=10, w_hi=110)
    got = all_pairs(consistent_iou_kernel, a, b, cfg)
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            assert got[i, j] == pytest.approx(consistent_iou_kernel(ra, rb, cfg), abs=1e-10)


# Rows of [cx, cy, w, h]; widths straddle the 64 px expansion threshold.
_box_rows = st.integers(1, 12).flatmap(lambda n: st.tuples(*[
    arrays(np.float64, n, elements=st.floats(lo, hi))
    for lo, hi in ((0, 300), (0, 300), (1, 130), (1, 130))]).map(
        lambda cols: np.stack(cols, axis=1)))


@settings(max_examples=200, deadline=None)
@given(a=_box_rows, shift=st.floats(-40, 40), scale=st.floats(0.5, 2.0),
       use_hm=st.booleans())
def test_all_pairs_diagonal_is_aligned_bit_for_bit(a, shift, scale, use_hm):
    b = a.copy()
    b[:, :2] += shift
    b[:, 2:] *= scale
    cfg = dataclasses.replace(TrackerConfig(), use_hm_iou=use_hm)
    kernels = [iou_kernel, hm_iou_kernel,
               lambda x, y: consistent_iou_kernel(x, y, cfg)]
    for kernel in kernels:
        aligned = kernel(a, b)
        assert np.diag(all_pairs(kernel, a, b)).tobytes() == aligned.tobytes()
    cons = kernels[2](a, b)
    assert [float(consistent_iou_kernel(x, y, cfg)) for x, y in zip(a, b)] == cons.tolist()


def test_stack_boxes_round_trip():
    boxes = [BoundingBox(*box_ltwh(0, 0, 10, 20)), BoundingBox(*box_ltwh(5, 5, 30, 40))]
    arr = stack_boxes(boxes)
    assert arr.shape == (2, 4)
    assert arr[0].tolist() == [5, 10, 10, 20]
    assert stack_boxes([]).shape == (0, 4)


# --- property checks --------------------------------------------------------

def test_kernels_symmetric_and_bounded():
    rng = np.random.RandomState(3)
    cfg = TrackerConfig()
    for _ in range(300):
        a, b = random_boxes(rng, 1)[0], random_boxes(rng, 1)[0]
        for fn in (iou_kernel, hm_iou_kernel, lambda x, y: consistent_iou_kernel(x, y, cfg)):
            v = fn(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(fn(b, a), abs=1e-12)


def test_iou_scale_invariant():
    rng = np.random.RandomState(5)
    for _ in range(200):
        a, b = random_boxes(rng, 2)
        s = rng.uniform(0.1, 10)
        assert iou_kernel(a * s, b * s) == pytest.approx(iou_kernel(a, b), abs=1e-10)
        assert hm_iou_kernel(a * s, b * s) == pytest.approx(hm_iou_kernel(a, b), abs=1e-10)


def test_consistent_never_below_raw():
    # Small sample here; the large-sample version lives in the acceptance
    # suite.  Narrow widths keep every pair inside the expansion regime.
    rng = np.random.RandomState(13)
    cfg = TrackerConfig()
    a = random_boxes(rng, 200, w_lo=5, w_hi=63)
    b = a + rng.uniform(-30, 30, a.shape)
    b[:, 2:] = np.abs(b[:, 2:]) + 1.0
    b[:, 2] = np.clip(b[:, 2], 5, 63)
    raw = all_pairs(iou_kernel, a, b)
    cons = all_pairs(consistent_iou_kernel, a, b, cfg)
    assert (cons >= raw - 1e-9).all()


def test_expansion_keeps_center():
    b = BoundingBox(*box_ltwh(10, 20, 30, 40))
    e = b.expanded(1.5)
    assert (e.cx, e.cy) == (b.cx, b.cy)
    assert e.w == pytest.approx(45)
    assert e.h == pytest.approx(60)


# --- kernel factory ---------------------------------------------------------

def test_kernel_respects_flags():
    a = box_ltwh(0, 0, 40, 25)
    b = box_ltwh(15, 15, 40, 25)
    base = TrackerConfig()

    def pair(cfg):
        return float(SimilarityKernel(cfg)(a[None], b[None])[0])

    plain = pair(dataclasses.replace(base, enable_ci=False))
    assert plain == pytest.approx(iou_kernel(a, b), abs=1e-12)

    hm = pair(dataclasses.replace(base, enable_ci=False, use_hm_iou=True))
    assert hm == pytest.approx(hm_iou_kernel(a, b), abs=1e-12)

    ci = pair(base)
    assert ci == pytest.approx(consistent_iou_kernel(a, b, base), abs=1e-12)

    ci_hm = pair(dataclasses.replace(base, use_hm_iou=True))
    assert ci_hm < ci


def test_kernel_matrix_empty():
    # The all-pairs matrix of two stacks, one of them empty, by broadcasting.
    k = SimilarityKernel(TrackerConfig())
    assert k(np.zeros((0, 1, 4)), np.zeros((1, 3, 4))).shape == (0, 3)
    assert k(np.zeros((2, 1, 4)), np.zeros((1, 0, 4))).shape == (2, 0)
