"""Offline hierarchical multi-object tracking.

Detections (or any tracker's output, split back into tracklets) are
associated level by level with growing temporal gap bounds; similarity
between tracklets combines scale-adaptive IoU, camera-movement
compensation, and bidirectional Kalman prediction.
"""

from .model import (
    BoundingBox,
    ConfigError,
    Detection,
    Stage,
    Strategy,
    Tracklet,
    TrackerConfig,
    Trajectory,
    validate_config,
)
from .geometry import consistent_iou, expansion_ratio, hm_iou, iou
from .hierarchy import RunResult, associate_tracklets, run, run_detailed
from .metrics import EvalReport, clear_mot, evaluate, id_metrics
from .refine import gaussian_smooth, interpolate, split_at_discontinuities
from .synth import Motion, ScenarioSpec, generate

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "ConfigError",
    "Detection",
    "EvalReport",
    "Motion",
    "RunResult",
    "ScenarioSpec",
    "Stage",
    "Strategy",
    "Tracklet",
    "TrackerConfig",
    "Trajectory",
    "associate_tracklets",
    "clear_mot",
    "consistent_iou",
    "evaluate",
    "expansion_ratio",
    "gaussian_smooth",
    "generate",
    "hm_iou",
    "id_metrics",
    "interpolate",
    "iou",
    "run",
    "run_detailed",
    "split_at_discontinuities",
    "validate_config",
    "__version__",
]
