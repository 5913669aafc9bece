"""The recording format: sensor record, event stream, OCME file, manifests.

``DetectorConfig`` bounds the records (its pixel and time-bin counts fit
their uint16 fields) and ``EventStream`` checks each event against it; the
Monte Carlo model that makes streams is ``detector``.  Event (OCME) and
image (OCMG, ``grid``) files share one framing, ``write_framed`` and
``read_framed``: magic, version u16, payload, a JSON header that records the
payload's length and SHA-256, and the header's u32 length as the last 4
bytes.  The header comes last, so a writer can record counts it knows only
at the end without seeking back.  OCME holds little-endian records
``{frame_id u64, ix u16, iy u16, t_bin u16}`` sorted by frame_id, the one
order reconstruction needs (``ocmsim`` writes each frame in pixel order, one
event per pixel; files in (frame_id, t_bin) order read alike).  The header's ``detector``
object holds exactly the fields of ``DetectorConfig`` (its ``to_dict``):
every stream has a sensor.  Only ``read_events`` parses it, with
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
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (CorruptEventFile, CorruptManifest, EventOutOfRange,
                     UnsortedInput, finite_real, require_finite_positive, sink)

OCME_MAGIC = b"OCME"
FRAMED_VERSION = 2

_RECORD = np.dtype([("frame", "<u8"), ("ix", "<u2"), ("iy", "<u2"),
                    ("t_bin", "<u2")])
_PREFIX = struct.Struct("<4sH")         # magic, version
_TAIL = struct.Struct("<I")             # header length, the last 4 bytes


@dataclass(frozen=True)
class DetectorConfig:
    """Geometry, timing and noise of the sensor array.

    One dark count rate applies to every pixel.  The constructor owns the
    contract or raises ValueError: ``int`` pixel counts, ``float`` others,
    all finite and in range, no bool.  ``from_dict`` is the one parser of a
    stored record (an event file's header too): the inverse of ``to_dict``.
    """

    n_pixels_x: int = 32
    n_pixels_y: int = 32
    pixel_pitch: float = 43.75e-6          # meters
    time_bin: float = 205e-12              # seconds
    frame_duration: float = 45e-9          # seconds
    frame_rate: float = 800e3              # frames per second
    pde: float = 0.008                     # photon detection efficiency
    dark_count_rate: float = 1e3           # Hz, the same for every pixel
    crosstalk_prob: float = 0.01           # per nearest neighbor per detection

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            integer = f.name.startswith("n_pixels")
            if not (isinstance(value, numbers.Integral if integer
                               else numbers.Real) and finite_real(value)):
                raise ValueError(f"{f.name} = {value!r} is not a finite "
                                 + ("integer" if integer else "number"))
            object.__setattr__(self, f.name, (int if integer else float)(value))
        # pixel indices and time bins must fit the record's uint16 fields
        limit = np.iinfo(_RECORD["ix"]).max + 1
        if not all(1 <= n <= limit
                   for n in (self.n_pixels_x, self.n_pixels_y)):
            raise ValueError(f"pixel counts must lie in [1, {limit}], the "
                             "range of a uint16 pixel index")
        require_finite_positive(self, "pixel_pitch", "time_bin",
                                "frame_duration", "frame_rate")
        for name in ("pde", "crosstalk_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty cycle must lie in (0, 1]")
        if not self.dark_count_rate >= 0:
            raise ValueError("dark_count_rate must be >= 0")
        if self.frame_duration / self.time_bin > limit:
            raise ValueError(f"more than {limit} time bins per frame do not "
                             "fit a uint16 t_bin")

    @property
    def active_extent(self) -> tuple[float, float]:
        """Physical size of the sensitive region (pitch times pixel count)."""
        return (self.n_pixels_x * self.pixel_pitch,
                self.n_pixels_y * self.pixel_pitch)

    @property
    def duty_cycle(self) -> float:
        return self.frame_duration * self.frame_rate

    @property
    def n_time_bins(self) -> int:
        """Number of time bins in a frame; every ``t_bin`` lies below it."""
        return math.ceil(self.frame_duration / self.time_bin)

    def pixel_index(self, positions: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map (..., 2) positions (region centered at 0) to pixel indices.

        Returns (ix, iy, inside-mask); indices are meaningless outside.
        """
        index = []
        for k, extent in enumerate(self.active_extent):
            f = np.asarray(positions[..., k] + extent / 2.0)
            f /= self.pixel_pitch
            index.append(np.floor(f, out=f).astype(np.int64))
        ix, iy = index
        # a negative index, as uint64, lies above every pixel count
        inside = ix.view(np.uint64) < self.n_pixels_x
        inside &= iy.view(np.uint64) < self.n_pixels_y
        return ix, iy, inside

    @property
    def centroid_shape(self) -> tuple[int, int]:
        """Shape of the half-pixel centroid grid that ``bin_center`` maps."""
        return 2 * self.n_pixels_x - 1, 2 * self.n_pixels_y - 1

    def bin_center(self, cx, cy) -> tuple[np.ndarray, np.ndarray]:
        """Physical position of half-pixel centroid bin (cx, cy)."""
        ex, ey = self.active_extent
        x = -ex / 2.0 + (np.asarray(cx) + 1) * self.pixel_pitch / 2.0
        y = -ey / 2.0 + (np.asarray(cy) + 1) * self.pixel_pitch / 2.0
        return x, y

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DetectorConfig":
        """Inverse of ``to_dict``; raises ValueError for any other record.

        The record must be an object holding exactly the dataclass fields;
        the constructor checks their values.
        """
        if not isinstance(d, dict):
            raise ValueError(f"detector record {d!r} is not an object")
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in d]
        unknown = [k for k in d if k not in names]
        if missing or unknown:
            raise ValueError(f"detector record keys: missing {missing}, "
                             f"unknown {unknown}")
        return cls(**d)



@dataclass(frozen=True)
class EventStream:
    """Detected events plus the acquisition context they came from.

    Valid by construction: an int ``n_frames`` in [0, 2**63] (so frame id
    + offset < n_frames cannot wrap); a str ``source_hash`` and a dict
    ``meta``; 1-D record-dtype arrays, one value per event; ids below
    ``n_frames``, pixel counts, ``n_time_bins``.  Frame ids that decrease
    raise ``UnsortedInput``, other breaches ``EventOutOfRange``.  It takes
    over its arrays, uncopied, and makes them read-only.
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
        if not (isinstance(self.source_hash, str)
                and isinstance(self.meta, dict)):
            raise EventOutOfRange(f"source_hash {self.source_hash!r} is not a "
                                  f"str or meta {self.meta!r} not a dict")
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


def write_framed(path, magic: bytes, header: dict, payload: np.ndarray,
                 what: str) -> None:
    """Write ``magic``, the version, ``payload``'s bytes (a C-contiguous
    array, uncopied), ``header`` with their length and SHA-256 added, and
    the header's length."""
    raw = payload.reshape(-1).view(np.uint8)
    header = {**header, "payload_bytes": raw.size,
              "payload_sha256": hashlib.sha256(raw).hexdigest()}
    blob = canonical_json(header).encode()
    with sink(path, "wb", what) as fh:
        fh.write(_PREFIX.pack(magic, FRAMED_VERSION))
        raw.tofile(fh)
        fh.write(blob + _TAIL.pack(len(blob)))


def read_framed(path, magic: bytes, error: type) -> tuple[dict, memoryview]:
    """The header and payload of a ``write_framed`` file; ``error`` for a
    file too short, of another magic or version, whose header is not a
    JSON object, or whose payload's length or SHA-256 differs from it."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    kind, end = magic.decode(), len(data) - _TAIL.size
    if end < _PREFIX.size:
        raise error(f"{path}: {len(data)} bytes, too short for an {kind} file")
    found, version = _PREFIX.unpack_from(data)
    if found != magic:
        raise error(f"{path}: not an {kind} file")
    if version != FRAMED_VERSION:
        raise error(f"{path}: unsupported {kind} version {version}")
    start = end - _TAIL.unpack_from(data, end)[0]
    if start < _PREFIX.size:
        raise error(f"{path}: header runs past the start of the file")
    try:
        header = json.loads(bytes(data[start:end]).decode())
    except ValueError as exc:       # also UnicodeDecodeError
        raise error(f"{path}: header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise error(f"{path}: header is not an object")
    payload = data[_PREFIX.size:start]
    if (header.get("payload_bytes"), header.get("payload_sha256")) != (
            len(payload), hashlib.sha256(payload).hexdigest()):
        raise error(f"{path}: payload of {len(payload)} bytes differs from "
                    "the header's length or SHA-256")
    return header, payload


def write_events(path, stream: EventStream) -> None:
    header = {"detector": stream.detector.to_dict(),
              "source_hash": stream.source_hash, "n_frames": stream.n_frames,
              "meta": stream.meta}
    records = np.empty(len(stream), dtype=_RECORD)
    for name in _RECORD.names:
        records[name] = getattr(stream, name)
    write_framed(path, OCME_MAGIC, header, records, "event file")


def read_events(path) -> EventStream:
    """Load an OCME file; any malformed part raises ``CorruptEventFile``.

    The framing must hold (``read_framed``), the payload be whole records,
    the header's ``detector`` parse with ``DetectorConfig.from_dict``, and
    header and records make a valid ``EventStream``.
    """
    header, payload = read_framed(path, OCME_MAGIC, CorruptEventFile)
    try:
        cfg = DetectorConfig.from_dict(header.get("detector"))
    except ValueError as exc:
        raise CorruptEventFile(f"{path}: bad detector: {exc}") from None
    try:        # a payload of part records is a ValueError
        records = np.frombuffer(payload, dtype=_RECORD)
        return EventStream(
            **{name: records[name].copy() for name in _RECORD.names},
            n_frames=header.get("n_frames"), detector=cfg,
            source_hash=header.get("source_hash", ""),
            meta=header.get("meta", {}))
    except (ValueError, EventOutOfRange, UnsortedInput) as exc:
        raise CorruptEventFile(f"{path}: {exc}") from None


def write_manifest(path, entries: dict) -> None:
    """One line of ``canonical_json``: the record ``read_manifest`` reads."""
    with sink(path, "w", "manifest") as fh:
        fh.write(canonical_json(entries) + "\n")


def read_manifest(path) -> dict:
    """The record of a manifest or report; a file that is not one JSON
    object raises ``CorruptManifest`` naming the path."""
    with open(path) as fh:
        try:
            record = json.load(fh)
        except ValueError as exc:           # not JSON, or not UTF-8
            raise CorruptManifest(f"{path}: not JSON: {exc}") from None
    if not isinstance(record, dict):
        raise CorruptManifest(f"{path}: not a JSON object")
    return record
