import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import pixel_index_plain

from ocmsim import DetectorConfig, EventStream, read_events, write_events
from ocmsim.cli import main
from ocmsim.errors import (CorruptEventFile, CorruptManifest, EventOutOfRange,
                           OcmsimError, UnsortedInput)
from ocmsim.events_io import (_RECORD, OCME_MAGIC, read_manifest,
                              write_framed, write_manifest)

CONFIG = Path(__file__).parent.parent / "configs" / "default.yaml"


#: three events in two frames
EVENTS = dict(frame=(0, 0, 1), ix=(3, 9, 4), iy=(3, 9, 5), t_bin=(0, 0, 0))


def stream(n_frames=2, **change) -> EventStream:
    """``EVENTS`` with fields changed, on the default 32 x 32 sensor."""
    fields = {**EVENTS, **change}
    return EventStream(frame=np.array(fields["frame"], np.uint64),
                       ix=np.asarray(fields["ix"], np.uint16),
                       iy=np.array(fields["iy"], np.uint16),
                       t_bin=np.array(fields["t_bin"], np.uint16),
                       n_frames=n_frames, detector=DetectorConfig())


def file_bytes(tmp_path) -> bytes:
    path = tmp_path / "good.ocme"
    write_events(path, stream())
    return path.read_bytes()


def framed(header: dict, records=np.zeros(0, _RECORD)) -> bytes:
    """The OCME file the one writer frames for ``header`` and ``records``,
    which it does not check against the stream contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.ocme"
        write_framed(path, OCME_MAGIC, header, records, "event file")
        return path.read_bytes()


def with_detector(**change) -> bytes:
    """Record-less file whose default detector record has keys changed;
    a value of None drops the key."""
    detector = {**DetectorConfig().to_dict(), **change}
    detector = {k: v for k, v in detector.items() if v is not None}
    return framed({"n_frames": 2, "detector": detector})


def with_records(n_frames, **fields) -> bytes:
    """File whose header holds ``n_frames`` and the default sensor, and
    whose records hold ``fields``, written unchecked; any field not given
    is 0."""
    records = np.zeros(len(next(iter(fields.values()))), dtype=_RECORD)
    for name, values in fields.items():
        records[name] = values
    return framed({"n_frames": n_frames,
                   "detector": DetectorConfig().to_dict()}, records)


def with_header_bytes(good: bytes, edit) -> bytes:
    """``good`` with its header bytes (the last 4 bytes hold their count)
    replaced by ``edit(header)`` of the same length."""
    end = len(good) - 4
    start = end - int.from_bytes(good[end:], "little")
    return good[:start] + edit(good[start:end]) + good[end:]


def reconstruct_exit_code(tmp_path, path) -> int:
    return main(["--config", str(CONFIG), "--out", str(tmp_path / "o"),
                 "reconstruct", str(path)])


GOOD_HEADER = {"n_frames": 2, "detector": DetectorConfig().to_dict()}


@pytest.mark.parametrize("corrupt, message", [
    (lambda good: good[:3], "3 bytes, too short"),
    (lambda good: b"XXXX" + good[4:], "not an OCME file"),
    (lambda good: good[:4] + struct.pack("<H", 9) + good[6:],
     "unsupported OCME version 9"),
    (lambda good: with_header_bytes(good, lambda h: b"X" + h[1:]),
     "header is not JSON"),
    (lambda good: framed({"detector": DetectorConfig().to_dict()}),
     "n_frames = None"),
    (lambda good: framed({"n_frames": 2, "detector": {
        "n_pixels_x": 32, "n_pixels_y": 32, "frame_duration": 45e-9}}),
     "bad detector"),
    (lambda good: framed(GOOD_HEADER, np.zeros(17, np.uint8)),
     "multiple of element size"),                   # part of a record
    (lambda good: with_detector(pixel_pitch=None), "bad detector"),
    (lambda good: with_detector(bogus=1), "bad detector"),
    (lambda good: with_detector(pde=5), "bad detector"),
    (lambda good: with_detector(n_pixels_x=65537, n_pixels_y=1),  # uint16 ix
     "bad detector"),
    (lambda good: framed({"n_frames": 2}), "bad detector"),
    (lambda good: framed({"n_frames": 2, "detector": None}), "bad detector"),
    (lambda good: framed({**GOOD_HEADER, "n_frames": -5}), "n_frames = -5"),
    # frame + offset would wrap a uint64: frame 2**64 - 1 meets frame 0
    (lambda good: with_records(2 ** 64, frame=[0, 2 ** 64 - 1]),
     f"n_frames = {2 ** 64}"),
    (lambda good: with_records(2 ** 70, frame=[0, 1]), f"n_frames = {2 ** 70}"),
    (lambda good: with_header_bytes(
        good, lambda h: b"[" + b" " * (len(h) - 2) + b"]"),
     "header is not an object"),
    (lambda good: good[:-4] + len(good).to_bytes(4, "little"),
     "header runs past the start"),
    # the last record cut out: the header's length no longer holds
    (lambda good: good[:6 + 28] + good[6 + 42:], "payload of 28 bytes"),
    (lambda good: good[:-14], "header runs past the start"),
    (lambda good: good[:10] + bytes([good[10] ^ 1]) + good[11:], "SHA-256"),
    (lambda good: good + b"\0" * 5, "header is not JSON"),
    (lambda good: framed({**GOOD_HEADER, "meta": [1, 2]}),
     r"meta \[1, 2\] not a dict"),
    (lambda good: framed({**GOOD_HEADER, "source_hash": 7}),
     "source_hash 7 is not a str"),
], ids=["short", "magic", "version", "not_json", "no_n_frames", "no_time_bin",
        "partial", "no_pixel_pitch", "unknown_key", "pde_5", "wide_sensor",
        "no_detector", "null_detector", "negative_n_frames", "n_frames_2**64",
        "n_frames_2**70", "not_object", "header_length", "cut_record",
        "cut_tail", "flipped_record", "appended", "meta_list",
        "source_hash_int"])
def test_malformed_event_file_is_a_typed_error(tmp_path, corrupt, message):
    """Each file breaks one check and is refused with that check's message;
    the framing (length, digest) holds wherever another check is meant."""
    path = tmp_path / "bad.ocme"
    path.write_bytes(corrupt(file_bytes(tmp_path)))
    with pytest.raises(CorruptEventFile, match=message):
        read_events(path)
    assert reconstruct_exit_code(tmp_path, path) == 3


def test_stream_refuses_meta_and_source_hash_of_other_types():
    for change, message in (({"meta": [1, 2]}, r"meta \[1, 2\] not a dict"),
                            ({"source_hash": 7}, "source_hash 7 is not")):
        with pytest.raises(EventOutOfRange, match=message):
            EventStream(**{**vars(stream()), **change})


@pytest.mark.parametrize("bad, first", [
    (dict(frame=(0, 0, 7)), "record 2 has frame = 7"),       # n_frames = 2
    (dict(ix=(3, 40, 4)), "record 1 has ix = 40"),           # 32 columns
    (dict(iy=(60, 10, 5)), "record 0 has iy = 60"),          # 32 rows
    (dict(t_bin=(0, 220, 5)), "record 1 has t_bin = 220"),   # 220 bins
])
def test_out_of_range_record_is_rejected(tmp_path, bad, first):
    with pytest.raises(EventOutOfRange, match=first):
        stream(**bad)
    path = tmp_path / "range.ocme"
    path.write_bytes(with_records(2, **{**EVENTS, **bad}))
    with pytest.raises(CorruptEventFile, match=first):
        read_events(path)
    assert reconstruct_exit_code(tmp_path, path) == 3


# frame ids from a few small values (to tie frames) or up to 2**63 - 1
FRAMES = st.one_of(st.integers(0, 3), st.integers(0, 2 ** 63 - 1))


@given(st.lists(st.tuples(FRAMES, st.integers(0, 219)), max_size=8),
       st.booleans())
def test_construction_requires_frames_in_order(rows, presort):
    """Sorted means sorted by frame id; time bins may fall within a frame."""
    rows = sorted(rows, key=lambda r: r[0]) if presort else rows
    frame = np.array([r[0] for r in rows], np.uint64)
    t_bin = np.array([r[1] for r in rows], np.uint16)
    zeros = np.zeros(len(rows), np.uint16)
    if np.array_equal(frame[np.lexsort((frame,))], frame):
        EventStream(frame, zeros, zeros, t_bin, n_frames=2 ** 63,
                    detector=DetectorConfig())
    else:
        with pytest.raises(UnsortedInput):
            EventStream(frame, zeros, zeros, t_bin, n_frames=2 ** 63,
                        detector=DetectorConfig())


def test_order_compares_whole_frame_ids():
    with pytest.raises(UnsortedInput, match="record 1 has frame = 0"):
        stream(2 ** 48 + 1, frame=(2 ** 48, 0, 0))
    stream(2 ** 47 + 1, frame=(0, 2 ** 47, 2 ** 47), t_bin=(9, 0, 1))


def test_unsorted_file_with_huge_frame_ids_is_rejected(tmp_path):
    path = tmp_path / "unsorted.ocme"
    path.write_bytes(with_records(2 ** 48 + 1, frame=(2 ** 48, 0, 0)))
    with pytest.raises(CorruptEventFile, match="record 1 has frame = 0"):
        read_events(path)
    assert reconstruct_exit_code(tmp_path, path) == 3


def test_frame_count_of_2_63_reads(tmp_path):
    events = stream(2 ** 63, frame=(0, 0, 2 ** 63 - 1))
    path = tmp_path / "edge.ocme"
    write_events(path, events)
    assert read_events(path).frame.tolist() == [0, 0, 2 ** 63 - 1]
    with pytest.raises(EventOutOfRange, match="n_frames"):
        stream(2 ** 63 + 1)


def test_frame_count_that_could_wrap_is_refused_in_memory():
    """Frame 2**64 - 1 plus offset 1 would wrap to frame 0 and pair with
    it as a spurious accidental."""
    with pytest.raises(EventOutOfRange, match="n_frames"):
        stream(2 ** 64, frame=(0, 0, 2 ** 64 - 1))


def test_stream_fields_are_frozen():
    """Neither a field nor an event changes once the stream has checked
    them; the stream holds the arrays it was given, now read-only."""
    events = stream()
    with pytest.raises(AttributeError):
        events.n_frames = 5
    with pytest.raises(ValueError, match="read-only"):
        events.ix[1] = 40                   # beyond the 32 columns
    ix = np.array(EVENTS["ix"], np.uint16)
    assert stream(ix=ix).ix is ix and not ix.flags.writeable


SENSOR = DetectorConfig(n_pixels_x=3, n_pixels_y=2, time_bin=1e-9,
                        frame_duration=4e-9)
DTYPES = {"frame": np.uint64, "ix": np.uint16, "iy": np.uint16,
          "t_bin": np.uint16}


def contract_error(arrays, n_frames, cfg):
    """The error a stream of ``arrays`` (name -> array or other value) and
    ``n_frames`` must raise, or None, checked event by event: its arrays
    and frame count first, then frame order, then the bounds."""
    if any(not isinstance(a, np.ndarray) or a.ndim != 1
           or a.dtype != DTYPES[name] for name, a in arrays.items()):
        return EventOutOfRange
    if len({a.size for a in arrays.values()}) != 1:
        return EventOutOfRange
    if type(n_frames) is not int or not 0 <= n_frames <= 2 ** 63:
        return EventOutOfRange
    frame = [int(v) for v in arrays["frame"]]
    if any(a > b for a, b in zip(frame, frame[1:])):
        return UnsortedInput
    limits = {"frame": n_frames, "ix": cfg.n_pixels_x, "iy": cfg.n_pixels_y,
              "t_bin": math.ceil(cfg.frame_duration / cfg.time_bin)}
    for name, a in arrays.items():
        if any(int(v) >= limits[name] for v in a):
            return EventOutOfRange
    return None


@st.composite
def stream_parts(draw):
    """A valid stream's arrays and frame count on ``SENSOR``, then up to
    two breaches of the contract, each at its edge."""
    n = draw(st.integers(0, 5))
    n_frames = draw(st.integers(0, 6))
    limits = {"frame": n_frames, "ix": SENSOR.n_pixels_x,
              "iy": SENSOR.n_pixels_y, "t_bin": SENSOR.n_time_bins}
    values = {name: draw(st.lists(st.integers(0, max(limit - 1, 0)),
                                  min_size=n, max_size=n))
              for name, limit in limits.items()}
    values["frame"].sort()
    dtypes = dict(DTYPES)
    for _ in range(draw(st.integers(0, 2))):
        breach = draw(st.sampled_from(["high", "unsorted", "dtype", "length",
                                       "shape", "n_frames"]))
        name = draw(st.sampled_from(list(DTYPES)))
        if breach == "high" and n:
            top = 2 ** 64 - 1 if name == "frame" else limits[name] + 1
            values[name][draw(st.integers(0, n - 1))] = draw(
                st.integers(limits[name], top))
        elif breach == "unsorted":
            values["frame"] = draw(st.permutations(values["frame"]))
        elif breach == "dtype":
            dtypes[name] = np.float64 if name == "frame" else np.int64
        elif breach == "length":
            values[name] = values[name] + [0]
        elif breach == "shape":
            dtypes[name] = None        # a list, or a column of the dtype
        elif breach == "n_frames":
            n_frames = draw(st.sampled_from([-1, 2 ** 63, 2 ** 63 + 1, 2 ** 64,
                                             3.0, True, np.int64(4), None]))
    arrays = {}
    for name, v in values.items():
        if dtypes[name] is None:
            arrays[name] = (v if draw(st.booleans()) else
                            np.array(v, DTYPES[name]).reshape(-1, 1))
        else:
            arrays[name] = np.array(v, dtypes[name])
    return arrays, n_frames


@given(stream_parts())
def test_stream_is_valid_exactly_when_the_contract_holds(parts):
    """Construction succeeds exactly when the event-by-event check passes,
    raising the error it names otherwise, and a valid stream reads back
    from its file as it was written."""
    arrays, n_frames = parts
    expected = contract_error(arrays, n_frames, SENSOR)
    if expected is not None:
        with pytest.raises(expected):
            EventStream(**arrays, n_frames=n_frames, detector=SENSOR)
        return
    events = EventStream(**arrays, n_frames=n_frames, detector=SENSOR,
                         source_hash="abc", meta={"seed": 1})
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/s.ocme"
        write_events(path, events)
        back = read_events(path)
    for name, dtype in DTYPES.items():
        assert getattr(back, name).dtype == dtype
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(events, name))
    assert (back.n_frames, back.detector, back.source_hash, back.meta) == \
        (n_frames, SENSOR, "abc", {"seed": 1})


def test_write_events_does_not_copy_the_records(tmp_path):
    n = 10 ** 6
    rng = np.random.default_rng(3)
    events = EventStream(
        frame=np.sort(rng.integers(0, n, n, dtype=np.uint64)),
        ix=rng.integers(0, 32, n, dtype=np.uint16),
        iy=rng.integers(0, 32, n, dtype=np.uint16),
        t_bin=rng.integers(0, 220, n, dtype=np.uint16),
        n_frames=n, detector=DetectorConfig())
    path = tmp_path / "big.ocme"
    tracemalloc.start()
    try:
        write_events(path, events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * _RECORD.itemsize
    back = read_events(path)
    for name in ("frame", "ix", "iy", "t_bin"):
        assert np.array_equal(getattr(back, name), getattr(events, name))


#: per field, values a sensor record may hold besides the defaults: in
#: range or not, and outside the contract (bools, float pixel counts,
#: non-finite numbers and an int beyond float range)
SENSOR_VALUES = {
    "n_pixels_x": [1, 3, 65536, 65537, 0], "n_pixels_y": [2, 70000],
    "pixel_pitch": [1e-5, 0.0], "time_bin": [1e-9, 1e-14],
    "frame_duration": [4e-9, 2e-6], "frame_rate": [1e3, 0.0],
    "pde": [0, 1, 0.5, 1.5], "dark_count_rate": [0, 5e4],
    "crosstalk_prob": [0.0, 1, 2.0]}
BAD_VALUES = [True, -1, math.inf, -math.inf, math.nan, 10 ** 400]


@st.composite
def sensor_records(draw):
    """A sensor record whose fields each take the default, another value
    from ``SENSOR_VALUES``, one of ``BAD_VALUES``, or 32.0 for a count."""
    record = DetectorConfig().to_dict()
    for name in record:
        extra = [32.0] if name.startswith("n_pixels") else []
        record[name] = draw(st.sampled_from(
            [record[name], *SENSOR_VALUES[name], *BAD_VALUES, *extra]))
    return record


@given(sensor_records())
def test_sensor_record_is_refused_alike_in_memory_and_from_a_file(record):
    """The constructor refuses exactly the records ``from_dict`` refuses,
    and every sensor it accepts reads back equal from an event file."""
    try:
        parsed = DetectorConfig.from_dict(dict(record))
    except ValueError:
        with pytest.raises(ValueError):
            DetectorConfig(**record)
        return
    cfg = DetectorConfig(**record)
    assert cfg == parsed
    empty = np.zeros(0, np.uint16)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/s.ocme"
        write_events(path, EventStream(np.zeros(0, np.uint64), empty, empty,
                                       empty, n_frames=1, detector=cfg))
        back = read_events(path).detector
    assert back == cfg and back.to_dict() == cfg.to_dict()


@st.composite
def sensor_positions(draw):
    """A non-square sensor and positions whose coordinates lie on its
    edges, one ulp to either side of them, just or far outside it, on a
    pixel boundary or anywhere near it."""
    nx = draw(st.integers(1, 300))
    ny = draw(st.integers(1, 300).filter(lambda n: n != nx))
    cfg = DetectorConfig(n_pixels_x=nx, n_pixels_y=ny,
                         pixel_pitch=draw(st.floats(1e-6, 1e-4)))
    coordinates = []
    for n, extent in zip((nx, ny), cfg.active_extent):
        edges = [-extent / 2.0, extent / 2.0]
        on = edges + [np.nextafter(e, side) for e in edges
                      for side in (-np.inf, np.inf)]
        near = [e + side * cfg.pixel_pitch * 1e-9 for e in edges
                for side in (-1, 1)]
        far = [-1e3, -10.0 * extent, 10.0 * extent, 1e3]
        pixel = draw(st.integers(0, n)) * cfg.pixel_pitch - extent / 2.0
        coordinates.append(st.sampled_from(on + near + far + [pixel])
                           | st.floats(-extent, extent))
    pairs = draw(st.lists(st.tuples(*coordinates), min_size=1, max_size=40))
    return cfg, np.array(pairs, dtype=float)


@given(sensor_positions())
def test_pixel_index_equals_a_floor_and_four_comparisons(case):
    """Indices and mask as ``np.floor`` and four comparisons give them, for
    a batch of positions and for a single one."""
    cfg, positions = case
    for batch in (positions, positions[0]):
        got, want = cfg.pixel_index(batch), pixel_index_plain(cfg, batch)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w)
            assert np.asarray(g).dtype == np.asarray(w).dtype


def test_manifest_round_trip(tmp_path):
    record = {"command": "simulate", "n_frames": 3, "band": [1, 2]}
    write_manifest(tmp_path / "m.txt", record)
    assert read_manifest(tmp_path / "m.txt") == record


@pytest.mark.parametrize("text, message", [
    ('{"command": "simulate"', "not JSON"),
    ("", "not JSON"),
    (b"\xff\xfe{}", "not JSON"),
    ('["simulate"]', "not a JSON object"),
    ("3", "not a JSON object"),
    ("null", "not a JSON object"),
], ids=["cut", "empty", "not_utf8", "list", "number", "null"])
def test_a_report_that_is_not_a_json_object_is_a_typed_error(
        tmp_path, text, message):
    path = tmp_path / "report.txt"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(CorruptManifest, match=message) as info:
        read_manifest(path)
    assert isinstance(info.value, OcmsimError)
    assert str(info.value).startswith(f"{path}: ")
