import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ocmsim import DetectorConfig, EventStream, read_events, write_events
from ocmsim.cli import main
from ocmsim.errors import CorruptEventFile
from ocmsim.events_io import _RECORD

CONFIG = Path(__file__).parent.parent / "configs" / "default.yaml"


def stream(frame=(0, 0, 1), ix=(3, 9, 4), iy=(3, 9, 5),
           t_bin=(0, 0, 0)) -> EventStream:
    """Three events in two frames on the default 32 x 32 sensor."""
    return EventStream(frame=np.array(frame, np.uint64),
                       ix=np.array(ix, np.uint16), iy=np.array(iy, np.uint16),
                       t_bin=np.array(t_bin, np.uint16), n_frames=2,
                       detector=DetectorConfig())


def file_bytes(tmp_path) -> bytes:
    path = tmp_path / "good.ocme"
    write_events(path, stream())
    return path.read_bytes()


def with_header(blob: bytes) -> bytes:
    return struct.pack("<4sHI", b"OCME", 1, len(blob)) + blob


def with_detector(**change) -> bytes:
    """Header-only file whose default detector record has keys changed;
    a value of None drops the key."""
    detector = {**DetectorConfig().to_dict(), **change}
    detector = {k: v for k, v in detector.items() if v is not None}
    return with_header(json.dumps({"n_frames": 2,
                                   "detector": detector}).encode())


def with_frames(n_frames, frames) -> bytes:
    """File whose header holds ``n_frames`` and whose events lie in
    ``frames``, at pixel (0, 0) and time bin 0."""
    records = np.zeros(len(frames), dtype=_RECORD)
    records["frame"] = frames
    return with_header(json.dumps({"n_frames": n_frames, "detector":
                                   DetectorConfig().to_dict()}).encode()
                       ) + records.tobytes()


def reconstruct_exit_code(tmp_path, path) -> int:
    return main(["--config", str(CONFIG), "--out", str(tmp_path / "o"),
                 "reconstruct", str(path)])


@pytest.mark.parametrize("corrupt", [
    lambda good: good[:3],                                   # short prefix
    lambda good: b"XXXX" + good[4:],                         # wrong magic
    lambda good: good[:4] + struct.pack("<H", 9) + good[6:],  # wrong version
    lambda good: with_header(b"{not json"),                  # header not JSON
    lambda good: with_header(json.dumps({"detector": {}}).encode()),
    lambda good: with_header(json.dumps(
        {"n_frames": 2, "detector": {"n_pixels_x": 32, "n_pixels_y": 32,
                                     "frame_duration": 45e-9}}).encode()),
    lambda good: good + b"\0" * 5,                           # partial record
    lambda good: with_detector(pixel_pitch=None),
    lambda good: with_detector(bogus=1),
    lambda good: with_detector(pde=5),
    lambda good: with_detector(n_pixels_x=65537, n_pixels_y=1),  # uint16 ix
    lambda good: with_header(json.dumps({"n_frames": 2}).encode()),
    lambda good: with_header(json.dumps({"n_frames": 2,
                                         "detector": None}).encode()),
    lambda good: with_header(json.dumps(
        {"n_frames": -5, "detector": DetectorConfig().to_dict()}).encode()),
    # frame + offset would wrap a uint64: frame 2**64 - 1 meets frame 0
    lambda good: with_frames(2 ** 64, [0, 2 ** 64 - 1]),
    lambda good: with_frames(2 ** 70, [0, 1]),
], ids=["short", "magic", "version", "not_json", "no_n_frames", "no_time_bin",
        "partial", "no_pixel_pitch", "unknown_key", "pde_5", "wide_sensor",
        "no_detector", "null_detector", "negative_n_frames", "n_frames_2**64",
        "n_frames_2**70"])
def test_malformed_event_file_is_a_typed_error(tmp_path, corrupt):
    path = tmp_path / "bad.ocme"
    path.write_bytes(corrupt(file_bytes(tmp_path)))
    with pytest.raises(CorruptEventFile):
        read_events(path)
    assert reconstruct_exit_code(tmp_path, path) == 3


@pytest.mark.parametrize("bad, first", [
    (dict(frame=(0, 0, 7)), "record 2 has frame = 7"),       # n_frames = 2
    (dict(ix=(3, 40, 4)), "record 1 has ix = 40"),           # 32 columns
    (dict(iy=(60, 10, 5)), "record 0 has iy = 60"),          # 32 rows
    (dict(t_bin=(0, 220, 5)), "record 1 has t_bin = 220"),   # 220 bins
])
def test_out_of_range_record_is_rejected(tmp_path, bad, first):
    path = tmp_path / "range.ocme"
    write_events(path, stream(**bad))
    with pytest.raises(CorruptEventFile, match=first):
        read_events(path)
    assert reconstruct_exit_code(tmp_path, path) == 3



# frame ids from a few small values (to tie frames) or up to 2**63
FRAMES = st.one_of(st.integers(0, 3), st.integers(0, 2 ** 63))


@given(st.lists(st.tuples(FRAMES, st.integers(0, 65535)), max_size=8),
       st.booleans())
def test_is_sorted_matches_lexsort(rows, presort):
    """Sorted means sorted by frame id; time bins may fall within a frame."""
    rows = sorted(rows, key=lambda r: r[0]) if presort else rows
    frame = np.array([r[0] for r in rows], np.uint64)
    t_bin = np.array([r[1] for r in rows], np.uint16)
    expected = bool(np.array_equal(frame[np.lexsort((frame,))], frame))
    zeros = np.zeros(len(rows), np.uint16)
    events = EventStream(frame, zeros, zeros, t_bin, n_frames=2 ** 63 + 1,
                         detector=DetectorConfig())
    assert events.is_sorted() == expected


def test_is_sorted_compares_whole_frame_ids():
    assert not stream(frame=(2 ** 48, 0, 0)).is_sorted()
    assert stream(frame=(0, 2 ** 47, 2 ** 47), t_bin=(9, 0, 1)).is_sorted()


def test_unsorted_file_with_huge_frame_ids_is_rejected(tmp_path):
    events = stream(frame=(2 ** 48, 0, 0))
    events.n_frames = 2 ** 48 + 1
    path = tmp_path / "unsorted.ocme"
    write_events(path, events)
    assert reconstruct_exit_code(tmp_path, path) == 3


def test_frame_count_of_2_63_reads(tmp_path):
    events = stream(frame=(0, 0, 2 ** 63 - 1))
    events.n_frames = 2 ** 63
    path = tmp_path / "edge.ocme"
    write_events(path, events)
    assert read_events(path).frame.tolist() == [0, 0, 2 ** 63 - 1]


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
