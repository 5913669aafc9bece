"""The one framing of event (OCME) and image (OCMG) files: every strict
prefix and every inverted byte of a written file is refused, and so is a
version-1 file."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmsim import (DetectorConfig, EventStream, FieldGrid, read_events,
                    write_events)
from ocmsim.cli import main
from ocmsim.errors import CorruptEventFile, CorruptGridFile

from conftest import ROOT

CONFIG = ROOT / "configs" / "default.yaml"
#: files the version-1 writers wrote: three events in two frames on the
#: default sensor, and a 2 x 3 real image
VERSION_1 = ROOT / "tests" / "data"
SENSOR = DetectorConfig(n_pixels_x=3, n_pixels_y=2, time_bin=1e-9,
                        frame_duration=4e-9)


def damaged(good: bytes):
    """Every strict prefix of ``good``, then ``good`` with each byte
    inverted (the header is ASCII, so an inverted header byte is not
    UTF-8; a header byte changed to another character may still parse)."""
    for n in range(len(good)):
        yield good[:n]
    for i in range(len(good)):
        yield good[:i] + bytes([good[i] ^ 0xFF]) + good[i + 1:]


def assert_every_damage_refused(save, load, error) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        save(path)
        good = path.read_bytes()
        for bad in damaged(good):
            path.write_bytes(bad)
            with pytest.raises(error):
                load(path)


@st.composite
def streams(draw):
    """A valid stream of up to 3 events on ``SENSOR`` with a small meta."""
    n = draw(st.integers(0, 3))
    n_frames = draw(st.integers(1, 4))

    def column(limit, dtype):
        return np.array(draw(st.lists(st.integers(0, limit - 1), min_size=n,
                                      max_size=n)), dtype)

    return EventStream(np.sort(column(n_frames, np.uint64)),
                       column(3, np.uint16), column(2, np.uint16),
                       column(4, np.uint16), n_frames=n_frames,
                       detector=SENSOR, source_hash=draw(st.text("0123abc")),
                       meta={"seed": draw(st.integers(0, 2 ** 63))})


@settings(max_examples=20)
@given(streams())
def test_every_prefix_and_inverted_byte_of_an_event_file_is_refused(events):
    assert_every_damage_refused(lambda path: write_events(path, events),
                                read_events, CorruptEventFile)


@settings(max_examples=20)
@given(st.integers(2, 3), st.integers(2, 3), st.booleans(),
       st.floats(1e-7, 1e-5), st.floats(-1e-4, 1e-4), st.data())
def test_every_prefix_and_inverted_byte_of_an_image_file_is_refused(
        nx, ny, is_complex, dx, ox, data):
    values = np.array(data.draw(st.lists(st.floats(-1e3, 1e3),
                                         min_size=nx * ny, max_size=nx * ny))
                      ).reshape(nx, ny) * (1j if is_complex else 1)
    grid = FieldGrid(values, dx, 2 * dx, (ox, -ox))
    assert_every_damage_refused(grid.save, FieldGrid.load, CorruptGridFile)


def test_a_cut_file_exits_3(tmp_path):
    """``reconstruct`` on an event file without its last 14 bytes, and
    ``analyze`` on an image with one sample byte inverted."""
    write_events(tmp_path / "e.ocme", EventStream(
        np.array([0, 0, 1], np.uint64), np.array([3, 9, 4], np.uint16),
        np.array([3, 9, 5], np.uint16), np.zeros(3, np.uint16), n_frames=2,
        detector=DetectorConfig()))
    FieldGrid(np.ones((3, 4)), 1e-6, 1e-6).save(tmp_path / "g.ocmg")
    for name, command in (("e.ocme", "reconstruct"), ("g.ocmg", "analyze")):
        good = (tmp_path / name).read_bytes()
        bad = good[:-14] if command == "reconstruct" else \
            good[:8] + bytes([good[8] ^ 0xFF]) + good[9:]
        (tmp_path / f"bad_{name}").write_bytes(bad)
        assert main(["--config", str(CONFIG), "--out", str(tmp_path / "o"),
                     command, str(tmp_path / f"bad_{name}")]) == 3


@pytest.mark.parametrize("name, load, error", [
    ("version1.ocme", read_events, CorruptEventFile),
    ("version1.ocmg", FieldGrid.load, CorruptGridFile),
], ids=["event_file", "image_file"])
def test_version_1_file_is_refused_by_name(name, load, error):
    kind = name[-4:].upper()
    assert (VERSION_1 / name).read_bytes()[:6] == kind.encode() + b"\1\0"
    with pytest.raises(error, match=f"unsupported {kind} version 1"):
        load(VERSION_1 / name)
