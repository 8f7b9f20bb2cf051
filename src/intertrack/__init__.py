"""Offline hierarchical multi-object tracking.

Detections (or any tracker's output, split back into tracklets) are
associated level by level with growing temporal gap bounds; similarity
between tracklets combines scale-adaptive IoU, camera-movement
compensation, and bidirectional Kalman prediction.
"""

from .model import (
    BoundingBox,
    BoxTable,
    ConfigError,
    Detection,
    Stage,
    Strategy,
    TrackerConfig,
    Trajectory,
    validate_config,
)
from .geometry import expansion_ratio
from .hierarchy import run_table
from .metrics import EvalReport, evaluate

__version__ = "0.1.0"


def __getattr__(name: str):  # `synth` is imported when one of its names is first used
    if name in ("Motion", "ScenarioSpec", "generate"):
        from . import synth
        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BoundingBox",
    "BoxTable",
    "ConfigError",
    "Detection",
    "EvalReport",
    "Motion",
    "ScenarioSpec",
    "Stage",
    "Strategy",
    "TrackerConfig",
    "Trajectory",
    "evaluate",
    "expansion_ratio",
    "generate",
    "run_table",
    "validate_config",
    "__version__",
]
