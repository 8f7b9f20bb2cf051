"""Box-overlap similarity kernels: IoU, height-modulated IoU, and the
small-box expansion variant that equalizes IoU sensitivity across target
sizes.

Each kernel is written once, elementwise over float arrays of [cx, cy, w, h]
rows that broadcast like any numpy operands: `k(a[:, None], b[None, :])` is
the all-pairs matrix of two (n, 4) and (m, 4) stacks, `k(a, b)` scores
aligned pairs of two (n, 4) stacks, and `k(a[i], b[j])` scores one pair.
Every form runs the same operations, so they agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from .model import TrackerConfig


# Internally a box array travels as its four (cx, cy, w, h) component arrays,
# so the expansion can rescale sizes per pair without building new boxes.

def _cols(boxes: np.ndarray) -> tuple[np.ndarray, ...]:
    return tuple(boxes[..., k] for k in range(4))


def _overlap(c_a, s_a, c_b, s_b) -> np.ndarray:
    """Shared length of 1-D intervals given by center and size; 0 if disjoint."""
    h_a, h_b = s_a / 2, s_b / 2
    return np.maximum(np.minimum(c_a + h_a, c_b + h_b) - np.maximum(c_a - h_a, c_b - h_b), 0.0)


def _iou(a, b) -> np.ndarray:
    (ax, ay, aw, ah), (bx, by, bw, bh) = a, b
    inter = _overlap(ax, aw, bx, bw) * _overlap(ay, ah, by, bh)
    return inter / (aw * ah + bw * bh - inter)


def _hm_iou(a, b) -> np.ndarray:
    """IoU times the 1-D IoU of the vertical extents [top, bottom]."""
    (_, ay, _, ah), (_, by, _, bh) = a, b
    union = np.maximum(ay + ah / 2, by + bh / 2) - np.minimum(ay - ah / 2, by - bh / 2)
    return _iou(a, b) * (_overlap(ay, ah, by, bh) / union)


def iou_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union; 0 when disjoint."""
    return _iou(_cols(a), _cols(b))


def hm_iou_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Height-modulated IoU: 2-D IoU damped by the vertical-interval IoU."""
    return _hm_iou(_cols(a), _cols(b))


def expansion_ratio(w_i, w_j, width_threshold: float, scaling: float):
    """Shared expansion ratio for a pair of small boxes (arrays broadcast).

    Geometric mean of per-box factors exp(scaling * threshold / width); the
    ratio is 1 at scaling 0 and grows as either box narrows.
    """
    return np.exp(0.5 * scaling * (width_threshold / w_i + width_threshold / w_j))


def consistent_iou_kernel(a: np.ndarray, b: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    """Base kernel on concentrically expanded copies of two small boxes.

    Both widths must fall below cfg.ci_width_threshold for the expansion to
    apply; otherwise the raw base kernel is used (a ratio of exactly 1). The
    base kernel is plain IoU, or height-modulated IoU when cfg.use_hm_iou is
    set.
    """
    base = _hm_iou if cfg.use_hm_iou else _iou
    a, b = _cols(a), _cols(b)
    thr = cfg.ci_width_threshold
    small = (a[2] < thr) & (b[2] < thr)
    if not small.any():
        return base(a, b)
    ratio = np.where(small, expansion_ratio(a[2], b[2], thr, cfg.ci_scaling_factor), 1.0)
    return base(*((cx, cy, w * ratio, h * ratio) for cx, cy, w, h in (a, b)))


class SimilarityKernel:
    """The configured box-similarity kernel.

    Wraps the choice of base kernel (IoU vs height-modulated IoU) and
    whether small-box expansion is active, so callers never re-read config.
    Calling it scores aligned (or broadcasting) box arrays.  `matrix` scores
    all pairs over leading batch axes: (..., n, 4) and (..., m, 4) stacks
    give (..., n, m), so one call scores one frame pair or a chunk of them.
    """

    def __init__(self, cfg: TrackerConfig):
        if cfg.enable_ci:
            self._kernel = lambda a, b: consistent_iou_kernel(a, b, cfg)
        else:
            self._kernel = hm_iou_kernel if cfg.use_hm_iou else iou_kernel

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._kernel(a, b)

    def matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._kernel(a[..., :, None, :], b[..., None, :, :])
