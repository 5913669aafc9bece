"""Binary event container ("OCME") and run manifests.

Layout: magic ``OCME``, version u16, u32 JSON header length, a UTF-8 JSON
header (detector configuration, source hash, frame count, seed, counters),
then repeated little-endian records ``{frame_id u64, ix u16, iy u16,
t_bin u16}`` sorted by (frame_id, t_bin).  The header's ``detector`` object
holds exactly the fields of ``DetectorConfig`` (its ``to_dict``): every
stream has a sensor.  Only ``read_events`` parses it, with
``DetectorConfig.from_dict``; the stream then carries the parsed object.

The manifest is a deterministic key: value text file written alongside a run;
it never contains wall-clock timestamps so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import CorruptEventFile, SinkWriteError

if TYPE_CHECKING:
    from .detector import DetectorConfig

OCME_MAGIC = b"OCME"
OCME_VERSION = 1

_RECORD = np.dtype([("frame", "<u8"), ("ix", "<u2"), ("iy", "<u2"),
                    ("t_bin", "<u2")])
_PREFIX = struct.Struct("<4sHI")


@dataclass
class EventStream:
    """Detected events plus the acquisition context they came from."""

    frame: np.ndarray            # u8 frame ids, sorted
    ix: np.ndarray               # u2 pixel column index (x)
    iy: np.ndarray               # u2 pixel row index (y)
    t_bin: np.ndarray            # u2 time bin within frame
    n_frames: int
    detector: DetectorConfig     # the recording sensor
    source_hash: str = ""
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.frame.size

    def is_sorted(self) -> bool:
        """Whether (frame, t_bin) never decreases, compared field by field."""
        f, t = self.frame, self.t_bin
        later = f[1:] > f[:-1]
        return bool(np.all(later | ((f[1:] == f[:-1]) & (t[1:] >= t[:-1]))))


def canonical_json(obj) -> str:
    """Sorted-key, one-line JSON without spaces: what ``stable_hash`` hashes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stable_hash(obj) -> str:
    """Deterministic SHA-256 of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def write_events(path, stream: EventStream) -> None:
    header = {
        "version": OCME_VERSION,
        "detector": stream.detector.to_dict(),
        "source_hash": stream.source_hash,
        "n_frames": int(stream.n_frames),
        "meta": stream.meta,
    }
    blob = canonical_json(header).encode()
    records = np.empty(len(stream), dtype=_RECORD)
    records["frame"] = stream.frame
    records["ix"] = stream.ix
    records["iy"] = stream.iy
    records["t_bin"] = stream.t_bin
    try:
        with open(path, "wb") as fh:
            fh.write(_PREFIX.pack(OCME_MAGIC, OCME_VERSION, len(blob)))
            fh.write(blob)
            fh.write(records.tobytes())
    except OSError as exc:
        raise SinkWriteError(f"cannot write event file {path}: {exc}") from exc


def read_events(path) -> EventStream:
    """Load an OCME file; any malformed part raises ``CorruptEventFile``.

    The header's ``n_frames`` must be a nonnegative integer and its
    ``detector`` must parse with ``DetectorConfig.from_dict``.  Frame ids
    must lie below ``n_frames``, pixel indices and time bins below the
    detector's pixel counts and time-bin count.
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
    for name, key, limit in [
            ("frame", "n_frames", header.get("n_frames")),
            ("ix", "n_pixels_x", cfg.n_pixels_x),
            ("iy", "n_pixels_y", cfg.n_pixels_y),
            ("t_bin", "ceil(frame_duration / time_bin)", cfg.n_time_bins)]:
        if type(limit) is not int or limit < 0:
            raise CorruptEventFile(
                f"{path}: header lacks a nonnegative integer {key}")
        bad = np.flatnonzero(records[name] >= limit)
        if bad.size:
            raise CorruptEventFile(
                f"{path}: record {bad[0]} has {name} = "
                f"{records[name][bad[0]]}, not below {key} = {limit}")
    return EventStream(
        frame=records["frame"].copy(), ix=records["ix"].copy(),
        iy=records["iy"].copy(), t_bin=records["t_bin"].copy(),
        n_frames=header["n_frames"], detector=cfg,
        source_hash=header.get("source_hash", ""),
        meta=header.get("meta", {}))


def write_manifest(path, entries: dict) -> None:
    """Deterministic `key: value` text file (insertion order preserved)."""
    try:
        with open(path, "w") as fh:
            for key, value in entries.items():
                fh.write(f"{key}: {value}\n")
    except OSError as exc:
        raise SinkWriteError(f"cannot write manifest {path}: {exc}") from exc


def read_manifest(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            if ":" in line:
                key, value = line.split(":", 1)
                out[key.strip()] = value.strip()
    return out
