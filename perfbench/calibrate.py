"""A fixed reference workload that measures how fast the host runs right now.

On a shared host the same work can take up to twice as long from one second
to the next, and every time metric moves with it.  Each pass times
`reference_s()` just before and just after each timed phase, and the run
scales the phase's time by NOMINAL_S / (mean of the two references), so it
reads as seconds on a host that runs the reference in NOMINAL_S.

The reference does the two kinds of work intertrack spends its time on, in
about equal parts: building, grouping and sorting many small Python objects
(the association passes), and vectorised numpy over a few hundred boxes
(IoU matrices, as in `eval`).  It imports nothing from intertrack, so a
change to the program never changes it.
"""

import gc
import time

import numpy as np

# The scale of the normalised times: about what the reference takes on a
# 2-vCPU x86-64 KVM guest (Intel Xeon).  Changing it rescales every time
# metric, so it must stay fixed.
NOMINAL_S = 0.1


class _Box:
    def __init__(self, key: int, score: float, span: tuple):
        self.key = key
        self.score = score
        self.span = span


def _objects(count: int) -> int:
    boxes = [_Box(k, k * 0.5, (k, k + 1)) for k in range(count)]
    groups: dict = {}
    for box in boxes:
        groups.setdefault(box.key % 97, []).append(box)
    ranked = sorted(boxes, key=lambda b: -b.score)
    return sum(b.span[1] - b.key for b in ranked) + len(groups)


def _iou_matrices(rounds: int) -> float:
    rng = np.random.default_rng(0)
    boxes = rng.random((400, 4)) * np.array([800.0, 600.0, 20.0, 40.0])
    a, b = boxes[:, None, :], boxes[None, :, :]
    total = 0.0
    for _ in range(rounds):
        x1 = np.maximum(a[..., 0], b[..., 0])
        y1 = np.maximum(a[..., 1], b[..., 1])
        x2 = np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2])
        y2 = np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3])
        inter = np.clip(x2 - x1, 0, None) * np.clip(y2 - y1, 0, None)
        union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
        total += float((inter / union).sum())
    return total


def reference_s() -> float:
    """Seconds the fixed reference work takes now.

    The collector is off while it runs, so its time does not depend on how
    many objects the program under test keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            _objects(20000)
        _iou_matrices(12)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
