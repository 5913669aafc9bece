"""Monte Carlo model of the time-stamping single-photon sensor array.

Photon tuples sampled from a source density are pushed through: detection
efficiency, pixel binning on the active region, per-tuple arrival time
(photons of a tuple share one time bin; true pair correlation times are far
below the bin width), Poissonian dark counts, nearest-neighbor crosstalk, and
first-hit semantics (each pixel timestamps only its earliest event per
frame).

Acquisitions thin by detection efficiency before sampling.  Efficiency does
not depend on position, so a tuple leaves at least one detected photon with
probability q = 1 - (1 - pde)**N wherever it lands.  ``run_acquisition``
draws Poisson counts of such tuples only, at q times the pair rate, samples
their positions, and gives each a per-photon detection mask drawn
conditional on at least one detection.  This is exact: the event stream has
the distribution it would have if every tuple were drawn and detected with
Bernoulli efficiency, as ``apply_detector_model`` does.  At pde = 1, q is 1,
every mask is full and the random draws are those of the unthinned model.

Determinism contract: every public entry point takes a seed; identical
(seed, config, source) produce identical event streams.  Acquisition runs are
split into fixed-size frame blocks with per-block child seeds derived by
hashing (master seed, block index), so the output is independent of any
worker parallelism and reruns are byte-identical.
"""

from __future__ import annotations

import enum
import hashlib
import math
import numbers
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from .errors import SortKeyOverflow, UnnormalizableDensity
from .events_io import (EventStream, canonical_json, stable_hash,
                        write_events, write_manifest)
from .grid import FieldGrid, GridSpec
from .ocm import far_field_pattern
from .optics import Aperture, ImagingSystem, image
from .phasematch import PhaseMatchingParams, deviation_envelope

#: detection efficiency of the reference sensor by wavelength
DEFAULT_PDE = {810e-9: 0.008, 405e-9: 0.05}

#: OCME stores ``ix``, ``iy`` and ``t_bin`` as uint16
_UINT16_VALUES = 1 << 16

#: source density samples per pixel pitch, in detector coordinates
_OVERSAMPLE = 8


@dataclass(frozen=True)
class DetectorConfig:
    """Geometry, timing and noise of the sensor array.

    One dark count rate applies to every pixel.  ``from_dict`` is the one
    parser of a stored sensor record (an event file's header included): the
    strict inverse of ``to_dict``.
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
        if not all(1 <= n <= _UINT16_VALUES
                   for n in (self.n_pixels_x, self.n_pixels_y)):
            raise ValueError(f"pixel counts must lie in [1, {_UINT16_VALUES}]"
                             ", the range of a uint16 pixel index")
        for name in ("pixel_pitch", "time_bin", "frame_duration", "frame_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 <= self.pde <= 1.0:
            raise ValueError("pde must be in [0, 1]")
        if not 0.0 <= self.crosstalk_prob <= 1.0:
            raise ValueError("crosstalk_prob must be in [0, 1]")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty cycle must lie in (0, 1]")
        if np.ndim(self.dark_count_rate) != 0:
            raise ValueError("dark_count_rate is one rate for every pixel")
        if not self.dark_count_rate >= 0:
            raise ValueError("dark_count_rate must be >= 0")
        if self.frame_duration / self.time_bin > _UINT16_VALUES:
            raise ValueError(f"more than {_UINT16_VALUES} time bins per "
                             "frame do not fit a uint16 t_bin")

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
        ex, ey = self.active_extent
        fx = (positions[..., 0] + ex / 2.0) / self.pixel_pitch
        fy = (positions[..., 1] + ey / 2.0) / self.pixel_pitch
        ix = np.floor(fx).astype(np.int64)
        iy = np.floor(fy).astype(np.int64)
        inside = ((ix >= 0) & (ix < self.n_pixels_x)
                  & (iy >= 0) & (iy < self.n_pixels_y))
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
        return {**asdict(self), "dark_count_rate": float(self.dark_count_rate)}

    @classmethod
    def from_dict(cls, d: dict) -> "DetectorConfig":
        """Inverse of ``to_dict``; raises ValueError for any other record.

        The record must hold exactly the dataclass fields, integer pixel
        counts and finite numbers elsewhere, in the ranges the constructor
        accepts.
        """
        if not isinstance(d, dict):
            raise ValueError(f"detector record {d!r} is not an object")
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in d]
        unknown = [k for k in d if k not in names]
        if missing or unknown:
            raise ValueError(f"detector record keys: missing {missing}, "
                             f"unknown {unknown}")
        for name, value in d.items():
            integer = name.startswith("n_pixels")
            kind = numbers.Integral if integer else numbers.Real
            try:
                ok = (isinstance(value, kind) and not isinstance(value, bool)
                      and math.isfinite(value))
            except OverflowError:               # an int beyond float range
                ok = False
            if not ok:
                raise ValueError(f"{name} = {value!r} is not a finite "
                                 + ("integer" if integer else "number"))
        return cls(**d)


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

def _record(value):
    """JSON form of a source's inputs, the record ``source_hash`` hashes:
    dataclasses field by field, tuples as lists, enums by value, and a
    sampled grid (a mask aperture) by its geometry and the SHA-256 of its
    samples."""
    if isinstance(value, FieldGrid):
        samples = np.ascontiguousarray(value.values)
        return {"shape": list(samples.shape), "dtype": samples.dtype.str,
                "dx": value.dx, "dy": value.dy, "origin": list(value.origin),
                "sha256": hashlib.sha256(samples.tobytes()).hexdigest()}
    if is_dataclass(value):
        return {f.name: _record(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_record(v) for v in value]
    return value.value if isinstance(value, enum.Enum) else value


class _DensitySampler:
    """Inverse-CDF sampler over a piecewise-constant 2-D density grid."""

    def __init__(self, grid: FieldGrid):
        weights = np.asarray(grid.values, dtype=float).ravel()
        if not np.all(np.isfinite(weights)) or weights.min() < 0:
            raise UnnormalizableDensity("density must be finite and nonnegative")
        total = weights.sum()
        if total <= 0.0:
            raise UnnormalizableDensity("density has zero total mass")
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._grid = grid

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        g = self._grid
        idx = np.searchsorted(self._cdf, rng.random(count), side="right")
        ix, iy = idx // g.ny, idx % g.ny
        x = g.origin[0] + ix * g.dx + (rng.random(count) - 0.5) * g.dx
        y = g.origin[1] + iy * g.dy + (rng.random(count) - 0.5) * g.dy
        return np.stack([x, y], axis=-1)


def _sampling_spec(detector: DetectorConfig, system: ImagingSystem,
                   aperture: Aperture) -> GridSpec:
    """Object-plane grid spec whose image covers the sensor with margin."""
    m = system.magnification
    half_img = max(detector.active_extent) / 2.0 + 2 * detector.pixel_pitch
    half_obj = max(half_img / m + 3.0 * system.first_zero_radius,
                   aperture.typical_extent() / 2.0 + 3.0 * system.first_zero_radius)
    dx_obj = detector.pixel_pitch / (_OVERSAMPLE * m)
    nx = int(np.ceil(2.0 * half_obj / dx_obj))
    nx += nx % 2
    return GridSpec.centered(nx, dx_obj)


@dataclass(frozen=True)
class OcmPairSource:
    """Entangled N-photon centroid source imaged onto the detector.

    The joint density factorizes into the centroid image (the N-photon
    correlation depends on the centroid only) and the pair-separation
    envelope from phase matching, applied in detector coordinates.
    """

    aperture: Aperture
    system: ImagingSystem
    phase_matching: PhaseMatchingParams
    pair_rate: float                       # mean pairs/s reaching the detector
    n_photons: int = 2
    coherent: bool = True

    def __post_init__(self) -> None:
        if self.pair_rate <= 0:
            raise ValueError("pair_rate must be > 0")
        if self.n_photons != 2:
            raise ValueError("the event pipeline is specified for photon pairs")

    def describe(self) -> dict:
        return {"kind": "ocm_pairs", **_record(self)}

    def photons_per_event(self) -> int:
        return self.n_photons

    def centroid_density(self, detector: DetectorConfig) -> FieldGrid:
        spec = _sampling_spec(detector, self.system, self.aperture)
        return image(self.aperture, self.system, spec, order=self.n_photons,
                     coherent=self.coherent)

    def deviation_density(self, detector: DetectorConfig) -> FieldGrid:
        half = 1.6 * max(detector.active_extent)
        n = 256
        spec = GridSpec.centered(n, 2.0 * half / n)
        X, Y = np.meshgrid(spec.x_axis(), spec.y_axis(), indexing="ij")
        xi = np.stack([X, Y], axis=-1)
        env = deviation_envelope(xi, self.phase_matching)
        return FieldGrid.from_spec(spec, np.abs(env) ** 2)

    def sampler(self, detector: DetectorConfig):
        centroid = _DensitySampler(self.centroid_density(detector))
        deviation = _DensitySampler(self.deviation_density(detector))

        def draw(rng: np.random.Generator, count: int) -> np.ndarray:
            X = centroid.sample(rng, count)
            xi = deviation.sample(rng, count)
            return np.stack([X + xi, X - xi], axis=1)

        return draw


@dataclass(frozen=True)
class ClassicalSource:
    """Classical illumination: independent single photons from an image."""

    aperture: Aperture
    system: ImagingSystem
    rate: float                            # mean detected-plane photons/s
    coherent: bool = True

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be > 0")

    def describe(self) -> dict:
        return {"kind": "classical", **_record(self)}

    def photons_per_event(self) -> int:
        return 1

    @property
    def pair_rate(self) -> float:
        return self.rate

    def sampler(self, detector: DetectorConfig):
        spec = _sampling_spec(detector, self.system, self.aperture)
        sampler = _DensitySampler(image(self.aperture, self.system, spec,
                                        coherent=self.coherent))

        def draw(rng: np.random.Generator, count: int) -> np.ndarray:
            return sampler.sample(rng, count)[:, None, :]

        return draw


@dataclass(frozen=True)
class PointSource:
    """Gaussian calibration spot of given waist radius (single photons)."""

    waist: float                           # 1/e amplitude radius, meters
    rate: float

    def describe(self) -> dict:
        return {"kind": "point", **_record(self)}

    def photons_per_event(self) -> int:
        return 1

    @property
    def pair_rate(self) -> float:
        return self.rate

    def sampler(self, detector: DetectorConfig):
        sigma = self.waist / 2.0           # intensity std of exp(-2 r^2 / w^2)

        def draw(rng: np.random.Generator, count: int) -> np.ndarray:
            return rng.normal(0.0, sigma, size=(count, 1, 2))

        return draw


@dataclass(frozen=True)
class FarFieldPairSource:
    """Pair source in the far-field configuration: both photons share a mode.

    The common position is drawn from the N-fold narrowed diffraction pattern
    of the aperture; each photon then receives an independent Gaussian jitter
    of ``correlation_sigma`` (sub-pixel by default) standing in for the
    residual phase-matching correlation width.
    """

    aperture: Aperture
    scale: float                           # position per wavevector, s_o*lambda/2pi
    pair_rate: float
    n_photons: int = 2
    correlation_sigma: float = 0.5 * 43.75e-6

    def describe(self) -> dict:
        return {"kind": "far_field_pairs", **_record(self)}

    def photons_per_event(self) -> int:
        return self.n_photons

    def pattern(self, detector: DetectorConfig) -> FieldGrid:
        # choose the aperture grid so the mapped pattern oversamples the pitch
        extent = max(self.aperture.typical_extent(), 1e-4)
        want_dx_out = detector.pixel_pitch / _OVERSAMPLE
        # output spacing = (2 pi / (n dx_obj)) * scale / n_photons
        n = 512
        dx_obj = 2.0 * np.pi * self.scale / (self.n_photons * want_dx_out * n)
        if n * dx_obj < 4 * extent:      # keep the aperture well inside
            n = int(np.ceil(4 * extent / dx_obj))
            n += n % 2
        spec = GridSpec.centered(n, dx_obj)
        pattern = far_field_pattern(self.aperture, self.n_photons, self.scale, spec)
        # restrict to the sensor neighborhood to keep the CDF small
        half = max(detector.active_extent) / 2.0 + 4 * detector.pixel_pitch
        ax = pattern.x_axis()
        keep = np.abs(ax) <= half
        if keep.sum() >= 8:
            i0, i1 = np.flatnonzero(keep)[[0, -1]]
            pattern = FieldGrid(pattern.values[i0:i1 + 1, i0:i1 + 1],
                                pattern.dx, pattern.dy,
                                (ax[i0], pattern.y_axis()[i0]))
        return pattern

    def sampler(self, detector: DetectorConfig):
        sampler = _DensitySampler(self.pattern(detector))
        n_ph = self.n_photons
        sigma = self.correlation_sigma

        def draw(rng: np.random.Generator, count: int) -> np.ndarray:
            common = sampler.sample(rng, count)
            tuples = np.repeat(common[:, None, :], n_ph, axis=1)
            if sigma > 0:
                tuples = tuples + rng.normal(0.0, sigma, size=tuples.shape)
            return tuples

        return draw


# ---------------------------------------------------------------------------
# Sampling and detection
# ---------------------------------------------------------------------------

def sample_event_positions(source, rng_seed: int, count: int,
                           detector: DetectorConfig) -> np.ndarray:
    """Draw ``count`` i.i.d. photon tuples, shape (count, N, 2), image plane.

    Deterministic for a fixed seed; densities are discretized on fine grids
    for ``detector`` and sampled by inverse CDF with uniform in-cell jitter.
    """
    rng = np.random.default_rng(rng_seed)
    return source.sampler(detector)(rng, count)


def _detected_masks(u: np.ndarray, pde: float) -> np.ndarray:
    """Per-photon detection masks of tuples known to hold a detection.

    Row i is the non-empty mask that the inverse CDF of ``u[i, 0]`` picks
    from the 2**N - 1 non-empty masks, weighted by their Bernoulli(pde)
    probabilities.  At pde = 1 only the full mask has weight.
    """
    n_tuples, n_ph = u.shape
    if n_tuples == 0:
        return np.zeros(u.shape, dtype=bool)
    bits = (np.arange(1, 1 << n_ph)[:, None] >> np.arange(n_ph)) & 1
    hits = bits.sum(axis=1)
    cdf = np.cumsum(pde ** hits * (1.0 - pde) ** (n_ph - hits))
    pick = np.searchsorted(cdf / cdf[-1], u[:, 0], side="right")
    return bits[pick].astype(bool)


def _key_widths(n_frames: int,
                cfg: DetectorConfig) -> tuple[int, int, int, int]:
    """Bit widths of (frame, ix, iy, t_bin) in a packed 64-bit sort key."""
    n_bins = cfg.n_time_bins
    widths = tuple(int(n - 1).bit_length() for n in
                   (n_frames, cfg.n_pixels_x, cfg.n_pixels_y, n_bins))
    if sum(widths) > 64:
        raise SortKeyOverflow(
            f"{n_frames} frames, {cfg.n_pixels_x} x {cfg.n_pixels_y} pixels "
            f"and {n_bins} time bins need {sum(widths)} > 64 key bits")
    return widths


def _pack(fields, widths) -> np.ndarray:
    """One uint64 key per element, the first field most significant.

    Each field must be non-negative and below 2**width, and the widths must
    sum to at most 64; a stable argsort of the key then equals
    ``np.lexsort`` with the fields in reverse order.
    """
    key = np.zeros(len(fields[0]), dtype=np.uint64)
    for field, width in zip(fields, widths):
        key <<= np.uint64(width)
        key |= field.astype(np.uint64)
    return key


def _arrival_bins(rng: np.random.Generator, count: int,
                  cfg: DetectorConfig) -> np.ndarray:
    """Uniform arrival time bins; rounding never reaches ``n_time_bins``."""
    t = np.floor(rng.random(count) * cfg.frame_duration / cfg.time_bin)
    return np.minimum(t, cfg.n_time_bins - 1).astype(np.uint16)


def _detect(positions: np.ndarray, cfg: DetectorConfig,
            rng: np.random.Generator, frame_ids: np.ndarray,
            frame_range: tuple[int, int],
            thinned: bool = False) -> EventStream:
    """Vectorized detector model; see apply_detector_model.

    With ``thinned``, every tuple is known to leave at least one detected
    photon, and its detection mask is drawn conditional on that.
    """
    positions = np.asarray(positions, dtype=float)
    n_tuples, n_ph = positions.shape[0], positions.shape[1]
    frame_ids = np.asarray(frame_ids, dtype=np.uint64)
    n_frames = frame_range[1] - frame_range[0]
    if frame_ids.size and (frame_ids.min() < frame_range[0]
                           or frame_ids.max() >= frame_range[1]):
        raise ValueError("frame ids must lie in frame_range")
    w_frame, w_x, w_y, w_t = _key_widths(n_frames, cfg)

    # one arrival time bin per tuple (pair photons are simultaneous)
    tuple_tbin = _arrival_bins(rng, n_tuples, cfg)

    # detection efficiency per photon: Bernoulli, or given a detection
    u = rng.random((n_tuples, n_ph))
    survive = _detected_masks(u, cfg.pde) if thinned else u < cfg.pde

    ix, iy, inside = cfg.pixel_index(positions)
    keep = survive & inside
    ph_frame = np.repeat(frame_ids, n_ph).reshape(n_tuples, n_ph)[keep]
    ph_tbin = np.repeat(tuple_tbin, n_ph).reshape(n_tuples, n_ph)[keep]
    ph_ix = ix[keep]
    ph_iy = iy[keep]

    # dark counts: Poisson per (pixel, frame), sampled sparsely
    total_mean = (float(cfg.dark_count_rate) * cfg.frame_duration
                  * cfg.n_pixels_x * cfg.n_pixels_y * n_frames)
    n_dark = rng.poisson(total_mean) if total_mean > 0 else 0
    if n_dark > 0:
        d_frame = (rng.integers(0, n_frames, n_dark).astype(np.uint64)
                   + frame_range[0])
        cell = rng.integers(0, cfg.n_pixels_x * cfg.n_pixels_y, n_dark)
        d_ix = cell // cfg.n_pixels_y
        d_iy = cell % cfg.n_pixels_y
        d_tbin = _arrival_bins(rng, n_dark, cfg)
        ph_frame = np.concatenate([ph_frame, d_frame])
        ph_ix = np.concatenate([ph_ix, d_ix.astype(np.int64)])
        ph_iy = np.concatenate([ph_iy, d_iy.astype(np.int64)])
        ph_tbin = np.concatenate([ph_tbin, d_tbin])

    # crosstalk: every detection may trigger each 4-neighbor once, same bin
    if cfg.crosstalk_prob > 0 and ph_frame.size:
        n_det = ph_frame.size
        extra = []
        for ddx, ddy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            fired = rng.random(n_det) < cfg.crosstalk_prob
            nx_ = ph_ix[fired] + ddx
            ny_ = ph_iy[fired] + ddy
            ok = ((nx_ >= 0) & (nx_ < cfg.n_pixels_x)
                  & (ny_ >= 0) & (ny_ < cfg.n_pixels_y))
            extra.append((ph_frame[fired][ok], nx_[ok], ny_[ok],
                          ph_tbin[fired][ok]))
        ph_frame = np.concatenate([ph_frame] + [e[0] for e in extra])
        ph_ix = np.concatenate([ph_ix] + [e[1] for e in extra])
        ph_iy = np.concatenate([ph_iy] + [e[2] for e in extra])
        ph_tbin = np.concatenate([ph_tbin] + [e[3] for e in extra])

    # first-hit: keep the earliest event per (frame, pixel), by stable sorts
    # on keys packed from (frame - first frame, ix, iy, t_bin)
    if ph_frame.size:
        rel = ph_frame - np.uint64(frame_range[0])
        key = _pack((rel, ph_ix, ph_iy, ph_tbin), (w_frame, w_x, w_y, w_t))
        order = np.argsort(key, kind="stable")
        pixel = key[order] >> np.uint64(w_t)
        order = order[np.r_[True, pixel[1:] != pixel[:-1]]]
        rel, ph_frame, ph_ix, ph_iy, ph_tbin = (
            a[order] for a in (rel, ph_frame, ph_ix, ph_iy, ph_tbin))
        # final stream order: (frame, t_bin, ix, iy)
        key = _pack((rel, ph_tbin, ph_ix, ph_iy), (w_frame, w_t, w_x, w_y))
        order = np.argsort(key, kind="stable")
        ph_frame, ph_ix, ph_iy, ph_tbin = (a[order] for a in
                                           (ph_frame, ph_ix, ph_iy, ph_tbin))

    return EventStream(
        frame=ph_frame.astype(np.uint64), ix=ph_ix.astype(np.uint16),
        iy=ph_iy.astype(np.uint16), t_bin=ph_tbin.astype(np.uint16),
        n_frames=n_frames, detector=cfg)


def apply_detector_model(positions, cfg: DetectorConfig, rng_seed: int,
                         frame_ids=None, frame_range=None) -> EventStream:
    """Detect photon tuples: efficiency, binning, darks, crosstalk, first-hit.

    ``positions`` has shape (n_tuples, N, 2); tuple i lands in frame
    ``frame_ids[i]`` of ``frame_range``, by default frame i of
    (0, max(n_tuples, 1)).  Events come back sorted by (frame_id, t_bin).
    """
    if frame_ids is None:
        frame_ids = np.arange(len(positions), dtype=np.uint64)
        frame_range = frame_range or (0, max(len(positions), 1))
    elif frame_range is None:
        raise ValueError("frame_ids need a frame_range")
    rng = np.random.default_rng(rng_seed)
    return _detect(positions, cfg, rng, frame_ids, frame_range)


# ---------------------------------------------------------------------------
# Acquisition
# ---------------------------------------------------------------------------

_BLOCK_FRAMES = 1 << 16


def child_seed(master_seed: int, label) -> int:
    """Seed derived by hashing (master seed, label): a block index or a name."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def run_acquisition(source, cfg: DetectorConfig, wall_time: float,
                    seed: int, out_path=None, n_threads: int = 1
                    ) -> EventStream:
    """Simulate an acquisition of ``wall_time`` seconds of frames.

    The number of frames equals wall_time * frame_rate.  Each frame block
    draws Poisson counts of only those tuples that leave at least one
    detected photon (see the module docstring), samples their positions and
    detects them.  ``pairs_generated`` still counts every tuple the source
    emitted: the detected ones plus a Poisson count of the undetected ones,
    drawn after the block's events.  When ``out_path`` is given, the event
    stream is written in the OCME format, and next to it, at ``out_path +
    ".manifest.txt"``, a manifest recording seed, detector hash, source
    description (the JSON that ``source_hash`` hashes) and counters.  Frame
    blocks carry hash-derived child seeds and are merged in block order, so
    the result does not depend on ``n_threads`` and reruns with the same
    inputs are byte-identical.
    """
    n_frames = int(round(wall_time * cfg.frame_rate))
    if n_frames < 1:
        raise ValueError("wall_time too short for a single frame")
    mean_pairs = source.pair_rate * cfg.frame_duration
    n_ph = source.photons_per_event()
    seen = 1.0 - (1.0 - cfg.pde) ** n_ph    # P(tuple leaves a detection)
    draw = source.sampler(cfg)

    def run_block(block: int) -> tuple[EventStream, int]:
        start = block * _BLOCK_FRAMES
        stop = min(start + _BLOCK_FRAMES, n_frames)
        rng = np.random.default_rng(child_seed(seed, block))
        counts = rng.poisson(mean_pairs * seen, stop - start)
        total = int(counts.sum())
        positions = draw(rng, total) if total else np.empty((0, n_ph, 2))
        frame_ids = start + np.repeat(np.arange(stop - start, dtype=np.uint64),
                                      counts)
        stream = _detect(positions, cfg, rng, frame_ids, (start, stop),
                         thinned=True)
        unseen = rng.poisson(mean_pairs * (1.0 - seen) * (stop - start))
        return stream, total + int(unseen)

    n_blocks = (n_frames + _BLOCK_FRAMES - 1) // _BLOCK_FRAMES
    if n_threads > 1 and n_blocks > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(run_block, range(n_blocks)))
    else:
        results = [run_block(b) for b in range(n_blocks)]
    parts = [r[0] for r in results]
    generated = sum(r[1] for r in results)

    stream = EventStream(
        frame=np.concatenate([p.frame for p in parts]),
        ix=np.concatenate([p.ix for p in parts]),
        iy=np.concatenate([p.iy for p in parts]),
        t_bin=np.concatenate([p.t_bin for p in parts]),
        n_frames=n_frames, detector=cfg,
        source_hash=stable_hash(source.describe()),
        meta={"seed": int(seed), "wall_time": wall_time,
              "pairs_generated": generated})

    if out_path is not None:
        write_events(out_path, stream)
        write_manifest(str(out_path) + ".manifest.txt", {
            "seed": seed,
            "wall_time_s": wall_time,
            "n_frames": n_frames,
            "duty_cycle": cfg.duty_cycle,
            "detector_hash": stable_hash(cfg.to_dict()),
            "source": canonical_json(source.describe()),
            "source_hash": stream.source_hash,
            "pairs_generated": generated,
            "events_written": len(stream),
        })
    return stream
