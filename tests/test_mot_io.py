import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import reference
from intertrack import mot_io, synth
from intertrack.metrics import frame_sorted
from intertrack.model import BoundingBox, Detection, Trajectory, ltwh_to_center, tracks_table
from intertrack.mot_io import (
    KITTI_CLASSES,
    read_detection_table,
    read_mot_tracks,
    read_track_table,
    write_mot_detections,
    write_mot_results,
    write_table,
)
from intertrack.synth import ScenarioSpec


def det(frame, left, top, w, h, score=0.9, det_id=-1, class_id=0):
    return Detection(frame=frame, box=BoundingBox(*ltwh_to_center(left, top, w, h)),
                     score=score, det_id=det_id, class_id=class_id)


class TestMotDetections:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9\n")
        table = read_detection_table(p)
        assert table.frame.tolist() == [1]
        assert table.boxes.tolist() == [[25, 40, 30, 40]]
        assert table.score.tolist() == [0.9]

    def test_ten_field_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("3,-1,0,0,10,10,0.5,-1,-1,-1\n")
        assert read_detection_table(p).frame.tolist() == [3]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("")
        assert read_detection_table(p).frame.size == 0

    def test_malformed_line_names_location(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9\n1,2,3,4,5\n")
        with pytest.raises(ValueError, match=r":2"):
            read_detection_table(p)

    def test_scores_clamped(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,10,10,3.7\n2,-1,0,0,10,10,-0.5\n")
        assert read_detection_table(p).score.tolist() == [1.0, 0.0]

    def test_detection_round_trip(self, tmp_path):
        dets = [det(1, 10.5, 20.25, 30, 40, det_id=1),
                det(2, 11.125, 21, 30, 40, score=0.25, det_id=2)]
        p = tmp_path / "det.txt"
        write_mot_detections(dets, p)
        back = read_detection_table(p)
        assert back.frame.tolist() == [d.frame for d in dets]
        assert back.boxes[:, 0].tolist() == pytest.approx([d.box.cx for d in dets], abs=1e-6)
        assert back.score.tolist() == pytest.approx([d.score for d in dets], abs=1e-6)


class TestMotTracks:
    def write_sample(self, path):
        t1 = Trajectory(1, (det(1, 0, 0, 10, 10, det_id=1),
                            det(2, 1, 0, 10, 10, det_id=2)))
        t2 = Trajectory(2, (det(1, 50, 50, 20, 20, det_id=3),))
        write_mot_results([t1, t2], path)
        return [t1, t2]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "res.txt"
        orig = self.write_sample(p)
        back = read_mot_tracks(p)
        assert [t.track_id for t in back] == [1, 2]
        for a, b in zip(orig, back):
            assert len(a.entries) == len(b.entries)
            for ea, eb in zip(a.entries, b.entries):
                assert eb.box.cx == pytest.approx(ea.box.cx, abs=1e-6)

    def test_write_read_write_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        self.write_sample(p1)
        write_mot_results(read_mot_tracks(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_sorted_by_frame_then_id(self, tmp_path):
        p = tmp_path / "res.txt"
        self.write_sample(p)
        first_cols = [line.split(",")[:2] for line in p.read_text().splitlines()]
        assert first_cols == [["1", "1"], ["1", "2"], ["2", "1"]]

    def test_duplicate_frame_in_track_rejected(self, tmp_path):
        p = tmp_path / "res.txt"
        p.write_text("1,5,0,0,10,10,1\n1,5,2,2,10,10,1\n")
        with pytest.raises(ValueError, match=":2: track 5 has two boxes at frame 1"):
            read_mot_tracks(p)

    def test_negative_id_rejected(self, tmp_path):
        p = tmp_path / "res.txt"
        p.write_text("1,-1,0,0,10,10,1\n")
        with pytest.raises(ValueError):
            read_mot_tracks(p)

    def test_empty_write(self, tmp_path):
        p = tmp_path / "res.txt"
        write_mot_results([], p)
        assert p.read_text() == ""


def _first_repeat(rows):
    """The (track, frame) a per-track grouping reports first: tracks in id
    order, each sorted by frame."""
    by_id = {}
    for tid, frame in rows:
        by_id.setdefault(tid, []).append(frame)
    for tid in sorted(by_id):
        frames = sorted(by_id[tid])
        for a, b in zip(frames, frames[1:]):
            if a == b:
                return tid, a
    return None


_coords = st.sampled_from(["0", "-3.5", "12.25", "101.123456", "7e1", "0.1", "1e-3"])
_sizes = st.sampled_from(["10", "0.3", "33.333333", "1e2", "0", "-2"])


class TestMotColumns:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6), _coords, _coords,
                                   _sizes, _sizes, st.sampled_from(["1", "0.5", "-1", "2"])),
                         max_size=25))
    # Two repeats whose (frame, track) order differs from their (track, frame) order.
    @example(rows=[(0, 5, "0", "0", "10", "10", "1")] * 2 + [(1, 2, "0", "0", "10", "10", "1")] * 2)
    def test_columns_equal_those_of_the_tracks(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("cols") / "res.txt"
        path.write_text("".join(f"{f},{tid},{left},{top},{w},{h},{c}\n"
                                for tid, f, left, top, w, h, c in rows))
        kept = [(tid, f) for tid, f, _, _, w, h, _ in rows if float(w) > 0 and float(h) > 0]
        repeat = _first_repeat(kept)
        if repeat is not None:
            message = f"track {repeat[0]} has two boxes at frame {repeat[1]}"
            for reader in (read_track_table, read_mot_tracks):
                with pytest.raises(ValueError, match=message):
                    reader(path)
            return
        boxes = sorted((f, tid, ltwh_to_center(*map(float, ltwh)))
                       for tid, f, *ltwh, _ in rows if float(ltwh[2]) > 0 and float(ltwh[3]) > 0)
        got = frame_sorted(read_track_table(path))
        want = frame_sorted(tracks_table(read_mot_tracks(path)))
        assert got.frame.tolist() == want.frame.tolist() == sorted(f for _, f in kept)
        assert got.id.tolist() == want.id.tolist()
        assert got.boxes.tobytes() == want.boxes.tobytes()
        assert got.boxes.tolist() == [list(b) for _, _, b in boxes]
        assert [(f, tid) for f, tid in zip(got.frame.tolist(), got.id.tolist())] \
            == sorted((f, tid) for tid, f in kept)

    def test_nan_size_or_confidence_names_the_line(self, tmp_path):
        p = tmp_path / "res.txt"
        for row in ("1,1,0,0,nan,10,1", "1,1,0,0,10,10,nan"):
            p.write_text("1,2,0,0,10,10,1\n" + row + "\n")
            for reader in (read_track_table, read_mot_tracks, read_detection_table):
                with pytest.raises(ValueError, match=r":2: box size and confidence"):
                    reader(p)

    # Infinite frames overflow int(); infinite or NaN positions and infinite
    # sizes or confidences must not reach the boxes (or the output) either.
    @pytest.mark.parametrize("row", ["inf,1,0,0,10,10,1", "-inf,1,0,0,10,10,1",
                                     "1,1,nan,0,10,10,1", "1,1,0,inf,10,10,1",
                                     "1,1,-inf,0,10,10,1", "1,1,0,0,inf,10,1",
                                     "1,1,0,0,10,-inf,1", "1,1,0,0,10,10,inf",
                                     "1,1,0,0,10,10,-inf"])
    def test_non_finite_value_names_the_line(self, tmp_path, row):
        p = tmp_path / "res.txt"
        p.write_text("1,2,0,0,10,10,1\n" + row + "\n")
        for reader in (read_track_table, read_mot_tracks, read_detection_table):
            with pytest.raises(ValueError, match=r"res\.txt:2: "):
                reader(p)

    # float64 holds every integer only below 2**53: past it ids collide, and
    # 1e300 would wrap to -2**63 in the int64 columns.
    @pytest.mark.parametrize("row", ["1e300,1,0,0,10,10,1", "-1e300,1,0,0,10,10,1",
                                     "1,-1e300,0,0,10,10,1",
                                     "1,1e300,0,0,10,10,1", "9007199254740992,1,0,0,10,10,1",
                                     "1,-9007199254740993,0,0,10,10,1"])
    def test_frame_or_id_beyond_2_53_names_the_line(self, tmp_path, row):
        p = tmp_path / "res.txt"
        p.write_text("1,2,0,0,10,10,1\n" + row + "\n")
        for reader in (read_track_table, read_mot_tracks, read_detection_table):
            with pytest.raises(ValueError, match=r"res\.txt:2: frame and id must be below 2\*\*53"):
                reader(p)

    def test_largest_exact_frame_and_id_kept(self, tmp_path):
        p = tmp_path / "res.txt"
        p.write_text("9007199254740991,-9007199254740991,0,0,10,10,1\n")
        assert read_detection_table(p).frame.tolist() == [2 ** 53 - 1]


class TestKitti:
    def kitti_line(self, frame=0, tid=1, cls="Car", x1=0.0, y1=0.0, x2=100.0, y2=50.0,
                   score=None):
        base = (f"{frame} {tid} {cls} 0 0 -10 {x1} {y1} {x2} {y2} "
                f"1.5 1.6 3.8 1 1 1 0.1")
        return base + (f" {score}" if score is not None else "")

    def test_corner_parse_and_frame_shift(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text(self.kitti_line() + "\n")
        table = read_track_table(p, "kitti")
        assert table.id.tolist() == [1]
        assert table.frame.tolist() == [1]  # KITTI frame 0 -> internal 1
        assert table.boxes.tolist() == [[50, 25, 100, 50]]
        assert table.class_id.tolist() == [KITTI_CLASSES.index("Car")]

    def test_class_filter(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text(self.kitti_line(cls="Car") + "\n"
                     + self.kitti_line(frame=1, tid=2, cls="Pedestrian") + "\n")
        assert read_track_table(p, "kitti", ("Pedestrian",)).id.tolist() == [2]
        assert read_detection_table(p, "kitti", ("Cyclist",)).frame.size == 0

    def test_dontcare_ignored(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text(self.kitti_line(cls="DontCare") + "\n")
        assert read_detection_table(p, "kitti").frame.size == 0

    def test_unknown_class_warns(self, tmp_path, caplog):
        p = tmp_path / "labels.txt"
        p.write_text(self.kitti_line(cls="Unicycle") + "\n")
        with caplog.at_level("WARNING"):
            assert read_detection_table(p, "kitti").frame.size == 0
        assert any("unknown class" in r.message for r in caplog.records)

    def test_score_column_optional(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text(self.kitti_line(score=0.75) + "\n")
        assert read_detection_table(p, "kitti").score.tolist() == [0.75]

    def test_write_read_round_trip(self, tmp_path):
        t = Trajectory(3, (det(1, 10, 20, 30, 40, score=0.5, det_id=1),
                           det(2, 12, 21, 30, 40, score=0.6, det_id=2)))
        p = tmp_path / "out.txt"
        write_table(tracks_table([t]), p, "kitti")
        back = read_track_table(p, "kitti", ("Car",))
        assert back.id.tolist() == [3, 3]
        assert back.frame.tolist() == [e.frame for e in t.entries]
        assert back.boxes[:, 0].tolist() == pytest.approx([e.box.cx for e in t.entries],
                                                          abs=1e-6)
        # 3-D placeholders present on every row.
        for line in p.read_text().splitlines():
            assert " -1000 " in line

    @pytest.mark.parametrize("field, value", [("x1", "nan"), ("y1", "-inf"), ("x2", "inf"),
                                              ("y2", "inf"), ("x1", "-inf"),
                                              ("score", "nan"), ("score", "inf")])
    def test_non_finite_value_names_the_line(self, tmp_path, field, value):
        p = tmp_path / "labels.txt"
        row = self.kitti_line(frame=1, **{"score": 0.9, field: value})
        p.write_text(self.kitti_line(score=0.9) + "\n" + row + "\n")
        with pytest.raises(ValueError, match=r"labels\.txt:2: box size and confidence"):
            read_detection_table(p, "kitti")

    # 10**400 is past float range: it must fail the range check, not overflow.
    @pytest.mark.parametrize("frame, tid", [(2 ** 53, 1), (0, -2 ** 60), (10 ** 400, 1)])
    def test_frame_or_id_beyond_2_53_names_the_line(self, tmp_path, frame, tid):
        p = tmp_path / "labels.txt"
        p.write_text(self.kitti_line(frame=frame, tid=tid) + "\n")
        with pytest.raises(ValueError, match=r"labels\.txt:1: frame and id must be below"):
            read_detection_table(p, "kitti")

    def test_bad_token_count(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("0 1 Car 0 0\n")
        with pytest.raises(ValueError, match=r":1"):
            read_detection_table(p, "kitti")

    def test_tracks_grouped_by_id_in_frame_order(self, tmp_path):
        p = tmp_path / "labels.txt"
        lines = [self.kitti_line(frame=1, tid=4), self.kitti_line(frame=0, tid=4),
                 self.kitti_line(frame=0, tid=2)]
        p.write_text("\n".join(lines) + "\n")
        table = frame_sorted(read_track_table(p, "kitti"))
        assert np.unique(table.id).tolist() == [2, 4]
        assert table.frame[table.id == 4].tolist() == [1, 2]

    def test_track_with_repeated_frame_rejected(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text(self.kitti_line(tid=3) + "\n" + self.kitti_line(tid=3) + "\n")
        with pytest.raises(ValueError, match=":2: track 3 has two boxes at frame 1"):
            read_track_table(p, "kitti")


def _line(fmt, frame, tid=1, left=0.0, top=0.0, w=10.0, h=10.0):
    """One row of `fmt` with a box given in ltwh."""
    if fmt == "mot":
        return f"{frame},{tid},{left},{top},{w},{h},0.9\n"
    return f"{frame} {tid} Car 0 0 -10 {left} {top} {left + w} {top + h} 1.5 1.6 3.8 1 1 1 0.1\n"


FIRST_FRAME = {"mot": 1, "kitti": 0}


@pytest.mark.parametrize("fmt", ["mot", "kitti"])
class TestEitherFormat:
    """Reader rules that hold for both formats."""

    def test_nonpositive_boxes_rejected_with_warning(self, tmp_path, caplog, fmt):
        p = tmp_path / "det.txt"
        first = FIRST_FRAME[fmt]
        p.write_text(_line(fmt, first, w=0.0) + _line(fmt, first, h=-1.0) + _line(fmt, first))
        with caplog.at_level("WARNING"):
            dets = read_detection_table(p, fmt)
        assert dets.frame.size == 1
        assert [r.message for r in caplog.records] == [
            f"{p}: rejected 2 records with non-positive size"]

    def test_frame_before_the_first_names_the_line(self, tmp_path, fmt):
        p = tmp_path / "labels.txt"
        first = FIRST_FRAME[fmt]
        p.write_text(_line(fmt, first) + _line(fmt, first - 1))
        with pytest.raises(ValueError, match=rf"labels\.txt:2: frame index {first - 1} must be "
                                             rf">= {first}"):
            read_detection_table(p, fmt)

    def test_non_utf8_byte_names_the_line(self, tmp_path, fmt):
        # CRLF line ends, and the byte lies past the first chunk a text-mode
        # read decodes, where the decoder's own position is chunk-relative.
        p = tmp_path / "det.txt"
        lines = [_line(fmt, FIRST_FRAME[fmt] + k).replace("\n", "\r\n").encode()
                 for k in range(500)]
        lines[400] = lines[400][:-2] + b"\xff\r\n"
        p.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match=r"^.*det\.txt:401: not UTF-8 text$"):
            read_detection_table(p, fmt)

    def test_negative_id_rejected_in_track_files(self, tmp_path, fmt):
        p = tmp_path / "res.txt"
        first = FIRST_FRAME[fmt]
        p.write_text(_line(fmt, first) + _line(fmt, first + 1, tid=-1))
        with pytest.raises(ValueError, match=r"res\.txt:2: track id -1 invalid in a track file"):
            read_track_table(p, fmt)
        assert read_detection_table(p, fmt).frame.size == 2


class TestWritersMatchPerRowReference:
    @settings(max_examples=150, deadline=None)
    @given(trajs=reference.trajectories(classes=tuple(range(len(KITTI_CLASSES))),
                                        unique_ids=False))
    def test_bytes_equal(self, tmp_path_factory, trajs):
        dirs = [tmp_path_factory.mktemp("new"), tmp_path_factory.mktemp("ref")]
        dets = [e for t in trajs for e in t.entries][::-1]
        for module, out in zip((mot_io, reference), dirs):
            module.write_mot_results(trajs, out / "mot.txt")
            module.write_mot_detections(dets, out / "det.txt")
        write_table(tracks_table(trajs), dirs[0] / "kitti.txt", "kitti")
        reference.write_kitti(trajs, dirs[1] / "kitti.txt")
        for name in ("mot.txt", "det.txt", "kitti.txt"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestFractionalFrameOrId:
    @pytest.mark.parametrize("row", ["1.9,1,0,0,10,10,1", "1,1.5,0,0,10,10,1",
                                     "1e-3,1,0,0,10,10,1"])
    def test_fractional_frame_or_id_names_the_line(self, tmp_path, row):
        p = tmp_path / "res.txt"
        p.write_text("1,2,0,0,10,10,1\n" + row + "\n")
        for reader in (read_track_table, read_mot_tracks, read_detection_table):
            with pytest.raises(ValueError, match=r"res\.txt:2: frame and id must be whole"):
                reader(p)

    def test_whole_numbers_written_as_floats_are_kept(self, tmp_path):
        p = tmp_path / "res.txt"
        p.write_text("2.0,7.000,0,0,10,10,1\n1e1,7,0,0,10,10,1\n")
        (track,) = read_mot_tracks(p)
        assert (track.track_id, [e.frame for e in track.entries]) == (7, [2, 10])


# Number strings as a writer might spell them, padded with whitespace; in a
# wild file also strings that only `float()` reads or neither parser reads,
# and the ASCII separators that numpy strips as whitespace and `float()`
# does not.
_PADS = ["", " ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u3000"]
_DECIMALS = st.builds("{}{}{}".format, st.sampled_from(["", "+", "-"]),
                      st.sampled_from(["0", "1", "12", "007", "123456789012345678", "1.",
                                       ".5", "0.25", "3.1000001", "33.333333", "101.123456"]),
                      st.sampled_from(["", "e3", "E-2", "e+0", "e22", "e308", "e400", "e-400"]))
_FINITE = st.one_of(_DECIMALS, st.floats(allow_nan=False, allow_infinity=False).map(repr))
_ODD = st.sampled_from(["inf", "-Infinity", "nan", "+NaN", "-nan", "1_0", "\uff11", "\u0661",
                        "", "x", "0x10", "1e"])
_INDEX = st.one_of(st.integers(-2, 4).map(str),
                   st.sampled_from(["1.0", "2e0", "+3", "-0", "2.5", "1e300", "9007199254740993",
                                    "inf", "-inf", "nan"]))


def _padded(numbers, pads):
    pad = st.sampled_from(pads)
    return st.builds("{}{}{}".format, pad, numbers, pad)


@st.composite
def mot_texts(draw):
    """MOT file text: rows of one field count, 6-11, of well-formed numbers
    and frames and ids that may be fractional, huge or not finite; or, in a
    wild file, rows of mixed field counts, odd numbers, trailing commas, and
    blank and whitespace-only lines."""
    wild = draw(st.booleans())
    pads = _PADS + ["\x1c", "\x1f"] if wild else _PADS
    number = _padded(st.one_of(_FINITE, _ODD) if wild else _FINITE, pads)
    index = _padded(st.one_of(_INDEX, _ODD) if wild else _INDEX, pads)
    fields = draw(st.integers(6, 11))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if wild and draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t \t"])))
            continue
        n = draw(st.integers(6, 11)) if wild else fields
        row = [draw(index), draw(index), *(draw(number) for _ in range(n - 2))]
        lines.append(",".join(row) + ("," if wild and draw(st.booleans()) else ""))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def _outcome(reader, path):
    """A table as the bytes of its columns, or the message it failed with."""
    try:
        table = reader(path)
    except ValueError as exc:
        return str(exc)
    return [(column.dtype.str, column.shape, column.tobytes()) for column in table]


@contextlib.contextmanager
def _line_by_line():
    """A context in which MOT files are read by the line parser alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mot_io, "_MOT", mot_io._MOT._replace(bulk=None))
        yield


class TestBulkRead:
    """The one-call MOT parse against the per-line parser it stands for."""

    @settings(max_examples=400, deadline=None)
    @given(text=mot_texts())
    @example(text="1,1,0,0,10,10,1\n\n2,1,nan,0,10,10,1\n")
    @example(text="1\x1c,1,0,0,10,10,1\n")
    @example(text="inf,1,0,0,10,10,1\n")
    @example(text="1,1,0,0,10,10,1,0,0,0,0\n")
    @example(text="1,1,0,0,10,10,1\r\n2,1,0,0,10,10,1,-1,-1,-1\r\n")
    def test_bulk_equals_line_by_line(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("bulk") / "res.txt"
        path.write_bytes(text.encode("utf-8"))
        readers = (read_track_table, read_detection_table)
        bulk = [_outcome(reader, path) for reader in readers]
        with _line_by_line():
            assert [_outcome(reader, path) for reader in readers] == bulk
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        rows = mot_io._parse_mot_bulk(lines)
        event("bulk" if rows is not None else "line by line")
        if rows is not None:
            # Every number as float() reads it, bit for bit; -0 frames and ids
            # become 0 on the line path, which only the sign bit tells apart.
            want = np.array([mot_io._parse_mot_line(line.strip(), path, k)
                             for k, line in enumerate(lines, 1)], dtype=np.float64)
            assert rows[:, 2:].tobytes() == want[:, 2:].tobytes()
            assert (rows[:, :2] == want[:, :2]).all()

    # Well-formed files never reach the line parser, so no change can send
    # every file to it unseen.
    def test_crowd_size_files_never_use_the_line_parser(self, tmp_path, monkeypatch):
        spec = ScenarioSpec(n_targets=36, n_frames=180, seed=1, arena=(800.0, 600.0),
                            box_size=(10.0, 24.0), max_speed=3.0, miss_prob=0.15,
                            noise_sigma=0.6, size_jitter=0.03)
        gt, dets = synth.generate(spec)
        write_mot_results(gt, tmp_path / "gt.txt")
        write_mot_detections(dets, tmp_path / "det.txt")
        with _line_by_line():
            want = [_outcome(read_track_table, tmp_path / "gt.txt"),
                    _outcome(read_detection_table, tmp_path / "det.txt")]

        def refuse(line, path, lineno):
            raise AssertionError(f"{path}:{lineno} went to the line parser")

        monkeypatch.setattr(mot_io, "_MOT", mot_io._MOT._replace(parse=refuse))
        got = [_outcome(read_track_table, tmp_path / "gt.txt"),
               _outcome(read_detection_table, tmp_path / "det.txt")]
        assert got == want
        assert len(read_detection_table(tmp_path / "det.txt").frame) == len(dets) > 5000

    def test_nan_row_after_a_blank_line_names_its_line(self, tmp_path):
        p = tmp_path / "res.txt"
        p.write_text("1,1,0,0,10,10,1\n\n2,1,nan,0,10,10,1\n")
        for reader in (read_track_table, read_detection_table):
            with pytest.raises(ValueError, match=r"res\.txt:3: box size and confidence"):
                reader(p)

    def test_crlf_file_reads_as_its_lf_copy(self, tmp_path, caplog):
        rows = ["1,1,0,0,10,10,1", "2,1,1.5,0,10,10,0.5", "2,2,40,0,10,10,0.9"]
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes("".join(f"{row}\n" for row in rows).encode())
        crlf.write_bytes("".join(f"{row}\r\n" for row in rows).encode())
        with caplog.at_level("INFO"):
            assert _outcome(read_track_table, crlf) == _outcome(read_track_table, lf)
        assert [r.getMessage() for r in caplog.records] == [
            f"read {crlf}: 3 lines, 3 rows kept, bulk", f"read {lf}: 3 lines, 3 rows kept, bulk"]

    @pytest.mark.parametrize("text", ["", "\n", "\n \n\t"])
    def test_empty_file_reads_as_an_empty_table_without_warnings(self, tmp_path, text):
        p = tmp_path / "res.txt"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for reader in (read_track_table, read_detection_table):
                assert reader(p).frame.size == 0

    # float() reads both (1_0 as 10, a fullwidth 1 as 1); numpy reads
    # neither, so these files are read line by line.
    @pytest.mark.parametrize("frame, want", [("1_0", 10), ("\uff11", 1)])
    def test_numbers_only_float_reads_keep_their_meaning(self, tmp_path, caplog, frame, want):
        p = tmp_path / "res.txt"
        p.write_text(f"{frame},1,0,0,10,10,1\n", encoding="utf-8")
        with caplog.at_level("INFO"):
            assert read_track_table(p).frame.tolist() == [want]
        assert [r.getMessage() for r in caplog.records] == [
            f"read {p}: 1 lines, 1 rows kept, line by line"]
