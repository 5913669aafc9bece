"""Binary event container ("OCME") and run manifests.

Layout: magic ``OCME``, version u16, u32 JSON header length, a UTF-8 JSON
header (detector configuration, source hash, frame count, seed, counters),
then repeated little-endian records ``{frame_id u64, ix u16, iy u16,
t_bin u16}`` sorted by frame_id, the one order reconstruction needs
(``ocmsim`` writes each frame in pixel order, one event per pixel; files in
(frame_id, t_bin) order read alike).  The header's ``detector`` object
holds exactly the fields of ``DetectorConfig`` (its ``to_dict``): every
stream has a sensor.  Only ``read_events`` parses it, with
``DetectorConfig.from_dict``; the stream then carries the parsed object.
``EventStream`` checks the rest of the contract when a stream is made, in
memory or from a file, and freezes it, so ``read_events`` reads it back.

Run manifests and command reports are one line of ``canonical_json`` (sorted
keys) that ``read_manifest`` reads back typed; they never contain wall-clock
timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import CorruptEventFile, EventOutOfRange, UnsortedInput, sink

if TYPE_CHECKING:
    from .detector import DetectorConfig

OCME_MAGIC = b"OCME"
OCME_VERSION = 1

_RECORD = np.dtype([("frame", "<u8"), ("ix", "<u2"), ("iy", "<u2"),
                    ("t_bin", "<u2")])
_PREFIX = struct.Struct("<4sHI")


@dataclass(frozen=True)
class EventStream:
    """Detected events plus the acquisition context they came from.

    Valid by construction: an int ``n_frames`` in [0, 2**63] (so frame id
    + offset < n_frames cannot wrap); 1-D record-dtype arrays, one value per
    event; ids below ``n_frames``, pixel counts, ``n_time_bins``.  Frame ids
    that decrease raise ``UnsortedInput``, other breaches ``EventOutOfRange``.
    It takes over its arrays, uncopied, and makes them read-only.
    """

    frame: np.ndarray            # u8 frame ids, never decreasing
    ix: np.ndarray               # u2 pixel column index (x)
    iy: np.ndarray               # u2 pixel row index (y)
    t_bin: np.ndarray            # u2 time bin within frame
    n_frames: int
    detector: DetectorConfig     # the recording sensor
    source_hash: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n, cfg, frame = self.n_frames, self.detector, self.frame
        if type(n) is not int or not 0 <= n <= 2 ** 63:
            raise EventOutOfRange(f"n_frames = {n!r} not an int in [0, 2**63]")
        for name, key, limit in [
                ("frame", "n_frames", n), ("ix", "n_pixels_x", cfg.n_pixels_x),
                ("iy", "n_pixels_y", cfg.n_pixels_y),
                ("t_bin", "ceil(frame_duration / time_bin)", cfg.n_time_bins)]:
            a = getattr(self, name)
            if (not isinstance(a, np.ndarray) or a.dtype != _RECORD[name]
                    or a.ndim != 1 or a.shape != frame.shape):
                raise EventOutOfRange(f"{name} is not a 1-D {_RECORD[name]} "
                                      "array of one value per event")
            if a.size and a.max() >= limit:
                i = int(np.argmax(a >= limit))
                raise EventOutOfRange(f"record {i} has {name} = {a[i]}, not "
                                      f"below {key} = {limit}")
        rising = frame[1:] >= frame[:-1]
        if not rising.all():
            i = int(np.argmin(rising)) + 1
            raise UnsortedInput(f"record {i} has frame = {frame[i]}, unsorted")
        for name in _RECORD.names:
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return self.frame.size


def canonical_json(obj) -> str:
    """Sorted-key, one-line JSON without spaces: what ``stable_hash`` hashes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stable_hash(obj) -> str:
    """Deterministic SHA-256 of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def write_events(path, stream: EventStream) -> None:
    header = {"version": OCME_VERSION, "detector": stream.detector.to_dict(),
              "source_hash": stream.source_hash, "n_frames": stream.n_frames,
              "meta": stream.meta}
    blob = canonical_json(header).encode()
    records = np.empty(len(stream), dtype=_RECORD)
    for name in _RECORD.names:
        records[name] = getattr(stream, name)
    with sink(path, "wb", "event file") as fh:
        fh.write(_PREFIX.pack(OCME_MAGIC, OCME_VERSION, len(blob)))
        fh.write(blob)
        records.tofile(fh)


def read_events(path) -> EventStream:
    """Load an OCME file; any malformed part raises ``CorruptEventFile``.

    The header's ``detector`` must parse with ``DetectorConfig.from_dict``,
    and header and records must make a valid ``EventStream``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _PREFIX.size:
        raise CorruptEventFile(f"{path}: {len(data)} bytes, shorter than "
                               f"the {_PREFIX.size}-byte OCME prefix")
    magic, version, blob_len = _PREFIX.unpack_from(data)
    if magic != OCME_MAGIC:
        raise CorruptEventFile(f"{path}: not an OCME event file")
    if version != OCME_VERSION:
        raise CorruptEventFile(f"{path}: unsupported OCME version {version}")
    body = _PREFIX.size + blob_len
    if len(data) < body:
        raise CorruptEventFile(f"{path}: header runs past the end of the file")
    try:
        header = json.loads(data[_PREFIX.size:body].decode())
    except ValueError as exc:       # also UnicodeDecodeError
        raise CorruptEventFile(f"{path}: header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise CorruptEventFile(f"{path}: header is not an object")
    if (len(data) - body) % _RECORD.itemsize:
        raise CorruptEventFile(f"{path}: record area of {len(data) - body} "
                               f"bytes is not whole {_RECORD.itemsize}-byte "
                               "records")
    records = np.frombuffer(data, dtype=_RECORD, offset=body)
    from .detector import DetectorConfig        # detector imports this module

    try:
        cfg = DetectorConfig.from_dict(header.get("detector"))
    except ValueError as exc:
        raise CorruptEventFile(f"{path}: bad detector: {exc}") from None
    try:
        return EventStream(
            **{name: records[name].copy() for name in _RECORD.names},
            n_frames=header.get("n_frames"), detector=cfg,
            source_hash=header.get("source_hash", ""),
            meta=header.get("meta", {}))
    except (EventOutOfRange, UnsortedInput) as exc:
        raise CorruptEventFile(f"{path}: {exc}") from None


def write_manifest(path, entries: dict) -> None:
    """One line of ``canonical_json``: the record ``read_manifest`` reads."""
    with sink(path, "w", "manifest") as fh:
        fh.write(canonical_json(entries) + "\n")


def read_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
