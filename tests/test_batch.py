"""Sequences run as one batch, laid end to end on one frame axis, give each
sequence what it gets alone."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertrack import cli, hierarchy
from intertrack.hierarchy import associate_table, associate_tables, run_table, run_tables
from intertrack.model import BoxTable, Strategy, TrackerConfig, table_of
from intertrack.mot_io import write_table
from intertrack.refine import split_rows
from intertrack.synth import ScenarioSpec, generate


def scene(seed, start, pan, low_class1, dips):
    """A two-class scene starting at frame `start`: class 0 at the usual
    scores, with a score dip when `dips`; class 1 at 0.3, below the
    high-score gate, when `low_class1`."""
    specs = [ScenarioSpec(n_targets=3, n_frames=25, seed=seed, arena=(640.0, 480.0),
                          box_size=(20.0, 50.0), max_speed=3.0, miss_prob=0.1,
                          noise_sigma=0.5, camera_pan=pan,
                          score_dips={0: [(5, 9, 0.3)]} if dips else {}),
             ScenarioSpec(n_targets=2, n_frames=25, seed=seed + 1, arena=(640.0, 480.0),
                          box_size=(20.0, 50.0), max_speed=2.0, miss_prob=0.1,
                          noise_sigma=0.5, camera_pan=pan, class_id=1,
                          base_score=0.3 if low_class1 else 0.9)]
    dets = [d for spec in specs for d in generate(spec)[1]]
    table = table_of(dets)
    # det_ids number the rows in file order, as the readers give them.
    return table._replace(frame=table.frame + (start - 1),
                          id=np.arange(1, table.frame.size + 1))


def observed(result):
    """Everything the CLI shows of one sequence's run."""
    return ([column.tobytes() for column in result.output()],
            cli._summary_lines("seq", result, result.table.frame.size),
            cli._dump_payload(result))


def refine_input(table):
    """Fragmented tracks of a scene, numbered rows and their split: the
    input `refine` gives the engine."""
    out = run_table(table, TrackerConfig(stage_bounds=(1,), final_overlap=0)).output()
    return out._replace(id=np.arange(1, out.frame.size + 1)), split_rows(out)


sequences = st.lists(
    st.builds(scene, seed=st.integers(0, 500), start=st.sampled_from([1, 2, 40, 10 ** 6]),
              pan=st.sampled_from([(0.0, 0.0), (25.0, 0.0)]), low_class1=st.booleans(),
              dips=st.booleans()),
    min_size=2, max_size=4)
configs = st.builds(TrackerConfig, strategy=st.sampled_from(list(Strategy)),
                    enable_cc=st.booleans(), enable_cm=st.booleans())


@settings(max_examples=25, deadline=None)
@given(tables=sequences, cfg=configs, command=st.sampled_from(["track", "refine"]))
def test_batch_equals_each_sequence_alone(tables, cfg, command):
    if command == "track":
        batch = run_tables(tables, cfg)
        alone = [run_table(table, cfg) for table in tables]
    else:
        inputs = [refine_input(table) for table in tables]
        batch = associate_tables(*zip(*inputs), cfg)
        alone = [associate_table(*given, cfg) for given in inputs]
    assert [observed(result) for result in batch] == [observed(result) for result in alone]


def test_batch_covers_moving_and_low_only_classes():
    # The draws of the property test reach a moving camera beside a static
    # one and a class that starts in one sequence only.
    tables = [scene(3, 1, (25.0, 0.0), True, True), scene(4, 40, (0.0, 0.0), False, False)]
    first, second = run_tables(tables, TrackerConfig())
    assert [c.camera.moving for c in first.per_class if c.camera] == [True]
    assert [c.counts for c in first.per_class][1] == (0,)
    assert [c.camera.moving for c in second.per_class] == [False, False]
    assert all(len(c.counts) > 1 for c in second.per_class)


def test_empty_sequence_in_a_batch():
    empty = BoxTable(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0),
                     np.zeros(0, np.int64), np.zeros((0, 4)))
    tables = [empty, scene(5, 3, (0.0, 0.0), False, False), empty]
    batch = run_tables(tables, TrackerConfig())
    assert [observed(result) for result in batch] == \
        [observed(run_table(table, TrackerConfig())) for table in tables]
    assert batch[0].per_class == () and batch[2].output().frame.size == 0


class TestAxisLimit:
    def spans(self, monkeypatch):
        """Run the engine with a spy on its batches; returns the list of
        batch sizes it is filled with."""
        sizes = []
        batches = hierarchy._batches

        def spy(tables, cfg):
            for batch, axis in batches(tables, cfg):
                sizes.append(len(batch))
                yield batch, axis
        monkeypatch.setattr(hierarchy, "_batches", spy)
        return sizes

    def test_batch_closes_before_the_limit(self, monkeypatch):
        tables = [scene(seed, 1, (0.0, 0.0), False, False) for seed in range(5)]
        cfg = TrackerConfig()
        alone = [observed(run_table(table, cfg)) for table in tables]
        sizes = self.spans(monkeypatch)
        # Each scene spans 25 frames and the default gap is 30 + 5 + 2, so
        # two scenes end at frame 25 + 37 + 24 = 86 and a third at 147.
        monkeypatch.setattr(hierarchy, "_AXIS_LIMIT", 100)
        assert [observed(result) for result in run_tables(tables, cfg)] == alone
        assert sizes == [2, 2, 1]
        # A sequence past the limit on its own still runs, as a batch of one.
        sizes.clear()
        monkeypatch.setattr(hierarchy, "_AXIS_LIMIT", 10)
        assert [observed(result) for result in run_tables(tables, cfg)] == alone
        assert sizes == [1] * 5

    def test_frames_near_the_reader_limit(self, monkeypatch):
        # Frames just below 2**53 lay out without overflow, several to a batch.
        top = 2 ** 53 - 30
        tables = [scene(seed, top, (25.0, 0.0), False, True) for seed in range(3)]
        cfg = TrackerConfig(strategy=Strategy.WINDOW)
        alone = [observed(run_table(table, cfg)) for table in tables]
        sizes = self.spans(monkeypatch)
        batch = run_tables(tables, cfg)
        assert sizes == [3]
        assert [observed(result) for result in batch] == alone
        assert batch[2].output().frame.min() >= top


def test_workers_cut_sequences_into_consecutive_batches():
    sizes = lambda n, parts: [len(part) for part in cli._consecutive(list(range(n)), parts)]
    assert sizes(24, 2) == [12, 12] and sizes(5, 3) == [1, 2, 2] and sizes(2, 9) == [1, 1]
    assert sizes(1, 1) == [1] and cli._consecutive(list("abcde"), 2) == [["a", "b"],
                                                                       ["c", "d", "e"]]


@pytest.mark.parametrize("workers", ["1", "2", "3", "9"])
def test_directory_batches_write_what_each_file_gets_alone(tmp_path, capsys, workers):
    src, out, alone = tmp_path / "det", tmp_path / "out", tmp_path / "alone"
    src.mkdir()
    alone.mkdir()
    for k in range(5):
        write_table(scene(k, 1 + 7 * k, (25.0, 0.0) if k % 2 else (0.0, 0.0), k == 3, k == 1),
                    src / f"s{k}.txt")
    assert cli.main(["track", "--det", str(src), "--out", str(out), "--workers", workers,
                     "--dump-hierarchy", str(tmp_path / "dump.json")]) == 0
    batched = capsys.readouterr().out
    dump = json.loads((tmp_path / "dump.json").read_text())
    lines = []
    for k in range(5):
        assert cli.main(["track", "--det", str(src / f"s{k}.txt"), "--out",
                         str(alone / f"s{k}.txt"), "--dump-hierarchy",
                         str(tmp_path / "one.json")]) == 0
        assert (alone / f"s{k}.txt").read_bytes() == (out / f"s{k}.txt").read_bytes()
        assert json.loads((tmp_path / "one.json").read_text()) == {f"s{k}": dump[f"s{k}"]}
        lines.append(capsys.readouterr().out)
    assert batched == "".join(lines)
