"""The one framing of event (OCME) and image (OCMG) files: every strict
prefix, every inverted byte and every edited header digit of a written file
is refused (the last 32 bytes seal all the others with their SHA-256), and
so are version-1 and version-2 files, by name."""

import json
import tempfile
from dataclasses import replace
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
#: files the version-1 and version-2 writers wrote: three events in two
#: frames on the default sensor, and a 2 x 3 real image
OLD_FILES = ROOT / "tests" / "data"
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


DIGITS, HEX = "0123456789", "0123456789abcdef"
#: per header key of a file, the characters of its value that a digit edit
#: changes: the frame count, a meta integer, each float of the sensor and
#: the source hash of an event file; the geometry of an image file
EVENT_DIGITS = {"n_frames": DIGITS, "seed": DIGITS, "source_hash": HEX,
                **{name: DIGITS for name, value in SENSOR.to_dict().items()
                   if isinstance(value, float)}}
IMAGE_DIGITS = {"dx": DIGITS, "dy": DIGITS, "origin": DIGITS}


def digit_edits(good: bytes, alphabets: dict):
    """``good`` with one character of a header value changed to another of
    its alphabet, for each key of ``alphabets`` and each such character of
    the key's value.  The file keeps its length and its header stays a valid
    JSON object, unless the edit makes a leading zero."""
    for key, alphabet in alphabets.items():
        # the last match is the header's: only the payload comes before it
        at = good.rindex(f'"{key}":'.encode()) + len(key) + 3
        rest = good[at:].decode("latin-1")
        stop = json.JSONDecoder().raw_decode(rest)[1]
        digits = [i for i in range(stop) if rest[i] in alphabet]
        assert digits, f"{key} has no character to edit"
        for i in digits:
            for c in alphabet.replace(rest[i], ""):
                yield good[:at + i] + c.encode() + good[at + i + 1:]


def assert_every_damage_refused(save, load, error, damage=damaged,
                                match=None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        save(path)
        good = path.read_bytes()
        for bad in damage(good):
            path.write_bytes(bad)
            with pytest.raises(error, match=match):
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


@settings(max_examples=20)
@given(streams(), st.text(HEX, min_size=1, max_size=8))
def test_every_edited_header_digit_of_an_event_file_is_refused(events, hash_):
    """An edited frame count, seed, sensor value or source hash is a valid
    header too, so only the seal can refuse it."""
    events = replace(events, source_hash=hash_)
    assert_every_damage_refused(
        lambda path: write_events(path, events), read_events,
        CorruptEventFile, lambda good: digit_edits(good, EVENT_DIGITS),
        "SHA-256")


@settings(max_examples=20)
@given(st.floats(1e-7, 1e-5), st.floats(1e-7, 1e-5), st.floats(-1e-4, 1e-4),
       st.floats(-1e-4, 1e-4))
def test_every_edited_header_digit_of_an_image_file_is_refused(dx, dy, ox,
                                                               oy):
    grid = FieldGrid(np.arange(6.0).reshape(2, 3), dx, dy, (ox, oy))
    assert_every_damage_refused(
        grid.save, FieldGrid.load, CorruptGridFile,
        lambda good: digit_edits(good, IMAGE_DIGITS), "SHA-256")


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
    ("ocme", read_events, CorruptEventFile),
    ("ocmg", FieldGrid.load, CorruptGridFile),
], ids=["event_file", "image_file"])
def test_version_1_file_is_refused_by_name(name, load, error):
    kind = name.upper()
    for version in (1, 2):
        path = OLD_FILES / f"version{version}.{name}"
        assert path.read_bytes()[:6] == kind.encode() + bytes([version, 0])
        with pytest.raises(error, match=f"unsupported {kind} version "
                                        f"{version}"):
            load(path)
