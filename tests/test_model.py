import dataclasses
import math

import numpy as np
import pytest

from intertrack.model import (
    BoundingBox,
    ConfigError,
    Detection,
    Stage,
    Strategy,
    TrackerConfig,
    corners_to_center,
    ltwh_to_center,
    validate_config,
)


def det(frame, left=0.0, top=0.0, w=10.0, h=10.0, score=0.9):
    return Detection(frame=frame, box=BoundingBox(*ltwh_to_center(left, top, w, h)),
                     score=score)


class TestBoundingBox:
    def test_corner_round_trip(self):
        # Both file conventions of the box (3, 4, 10, 20): left, top, w, h
        # and its corners (3, 4) and (13, 24), on numbers and on columns.
        assert ltwh_to_center(3, 4, 10, 20) == (8, 14, 10, 20)
        assert corners_to_center(3, 4, 13, 24) == (8, 14, 10, 20)
        columns = ltwh_to_center(*(np.array([v, 2 * v]) for v in (3.0, 4.0, 10.0, 20.0)))
        assert [c.tolist() for c in columns] == [[8, 16], [14, 28], [10, 20], [20, 40]]

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 10, -1)

    def test_translated(self):
        b = BoundingBox(10, 10, 4, 4).translated(-3, 7)
        assert (b.cx, b.cy, b.w, b.h) == (7, 17, 4, 4)


class TestDetection:
    def test_validation(self):
        with pytest.raises(ValueError):
            det(0)
        with pytest.raises(ValueError):
            det(1, score=1.5)
        d = det(1, score=0.0)
        assert d.det_id == -1



class TestSchedule:
    def test_default_interval_stages(self):
        cfg = TrackerConfig()
        assert cfg.strategy is Strategy.INTERVAL
        assert [s.bound for s in cfg.stages] == [1, 5, 10, 15, 20, 30, 30]
        assert [s.overlap for s in cfg.stages] == [0, 0, 0, 0, 0, 0, 5]

    def test_default_window_doubles(self):
        cfg = TrackerConfig(strategy=Strategy.WINDOW)
        assert [s.bound for s in cfg.stages] == [2, 4, 8, 16, 32, 64, 128]
        assert all(s.overlap == 0 for s in cfg.stages)

    def test_from_bounds(self):
        cfg = TrackerConfig(stage_bounds=(1, 5, 15, 30), final_overlap=0)
        assert cfg.stages == (Stage(1), Stage(5), Stage(15), Stage(30))
        # A final overlap re-admits the last bound in one more stage.
        cfg = TrackerConfig(stage_bounds=(1, 4, 9), final_overlap=3)
        assert cfg.stages == (Stage(1), Stage(4), Stage(9), Stage(9, 3))

    def test_problems_flag_bad_schedules(self):
        for bounds, problem in [((), "schedule must contain at least one stage"),
                                ((5, 1), "stage bounds must be non-decreasing"),
                                ((0, 5), "stage bounds must be >= 1")]:
            with pytest.raises(ConfigError) as err:
                validate_config(TrackerConfig(stage_bounds=bounds))
            assert err.value.problems == [problem]

    @pytest.mark.parametrize("changes, problem", [
        ({"final_overlap": -1}, "overlap allowances must be >= 0"),
        ({"strategy": Strategy.WINDOW, "final_overlap": 2},
         "the window strategy admits no overlap"),
    ])
    def test_bad_overlaps_rejected(self, changes, problem):
        with pytest.raises(ConfigError) as err:
            validate_config(TrackerConfig(**changes))
        assert err.value.problems == [problem]


class TestConfig:
    def test_defaults_validate(self):
        validate_config(TrackerConfig())

    def test_reference_operating_point(self):
        cfg = TrackerConfig()
        assert cfg.match_threshold == 0.2
        assert cfg.ci_width_threshold == 64.0
        assert cfg.ci_scaling_factor == 0.2
        assert cfg.cc_threshold == 0.65
        assert (cfg.score_high, cfg.score_low) == (0.6, 0.1)
        assert cfg.use_hm_iou is False
        assert cfg.enable_ci and cfg.enable_cc and cfg.enable_cm

    def test_collects_all_problems(self):
        bad = dataclasses.replace(
            TrackerConfig(),
            match_threshold=1.5,
            score_high=0.05,   # below score_low
            ci_width_threshold=-1,
        )
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert len(err.value.problems) >= 3

    def test_score_band_ordering(self):
        bad = dataclasses.replace(TrackerConfig(), score_low=0.7)
        with pytest.raises(ConfigError):
            validate_config(bad)


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(TrackerConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_non_finite_float_field_rejected(name, value):
    with pytest.raises(ConfigError) as err:
        validate_config(dataclasses.replace(TrackerConfig(), **{name: value}))
    assert err.value.problems == [f"{name} must be finite, got {value}"]


def test_float_fields_are_found():
    # The fields whose one-sided range checks alone let infinities through.
    assert {"ci_width_threshold", "ci_scaling_factor", "smoothing_sigma",
            "kf_position_weight", "kf_velocity_weight"} <= set(_FLOAT_FIELDS)
