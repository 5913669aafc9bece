"""Monte Carlo model of the time-stamping single-photon sensor array.

Photon tuples sampled from a source density are pushed through: detection
efficiency, pixel binning on the active region, per-tuple arrival time
(photons of a tuple share one time bin; true pair correlation times are far
below the bin width), Poissonian dark counts, nearest-neighbor crosstalk, and
first-hit semantics (each pixel timestamps only its earliest event per
frame).  The sensor and event records, ``DetectorConfig`` and
``EventStream``, belong to the recording format in ``events_io``.

Acquisitions thin by detection efficiency before sampling.  Efficiency does
not depend on position, so a tuple leaves at least one detected photon with
probability q = 1 - (1 - pde)**N wherever it lands.  ``run_acquisition``
draws such tuples only, at q times the pair rate, samples their positions,
and gives each a per-photon detection mask drawn conditional on at least one
detection.  This is exact: the event stream has the distribution it would
have if every tuple were drawn and detected with Bernoulli efficiency, as
``apply_detector_model`` does.  At pde = 1, q is 1, every mask is full and
the random draws are those of the unthinned model.

Tuples reach frames at Poisson counts of mean m per frame, independent from
frame to frame.  A block of n frames draws them as one Poisson(n m) total,
each tuple placed on a uniform random frame of the block: given their total,
i.i.d. Poisson counts are multinomial with equal cell probabilities, which
is what uniform placement gives, so the per-frame counts are exactly i.i.d.
Poisson(m).  The cost follows the tuples, not the frames, most of which are
empty at real-sensor efficiency.

Crosstalk fires each (neighbour side, detection) slot with probability p.
Its 4 N draws are made sparsely: a Binomial(4 N, p) count K, then a uniform
K-subset of the slots.  Given K, the fired slots of i.i.d. Bernoulli draws
are a uniform K-subset, so this is their exact law (Devroye, Non-Uniform
Random Variate Generation, 1986), at a cost that follows K, not N.  Detected
photons and dark counts become packed uint64 keys as they are drawn.

Determinism contract: every public entry point takes a seed; identical
(seed, config, source) produce identical event streams.  Acquisition runs are
split into frame blocks sized by their expected events (``_block_frames``),
never by the thread count, with child seeds derived by hashing (master seed,
block index), so the output is independent of any worker parallelism and
reruns are byte-identical.  Each block numbers its own frames from 0, and
``run_acquisition`` places it in the run with one add to its frame array.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import (SortKeyOverflow, UnnormalizableDensity,
                     require_finite_positive)
from .events_io import DetectorConfig, EventStream, stable_hash
from .grid import FieldGrid, GridSpec
from .ocm import far_field_pattern
from .optics import Aperture, ImagingSystem, image
from .phasematch import SPEED_OF_LIGHT, PhaseMatchingParams, deviation_density

#: detection efficiency of the reference sensor by wavelength
DEFAULT_PDE = {810e-9: 0.008, 405e-9: 0.05}

#: source density samples per pixel pitch, in detector coordinates
_OVERSAMPLE = 8


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
        with np.errstate(over="ignore", invalid="ignore"):
            self._cdf = np.cumsum(weights)
        # nan or inf weights, or a sum that overflows, make the total non-finite
        if not 0.0 < self._cdf[-1] < np.inf or weights.min() < 0:
            raise UnnormalizableDensity("negative, non-finite or zero density")
        self._cdf /= self._cdf[-1]
        self._spec = grid.spec

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` (x, y) positions, each a uniform's CDF cell with a
        uniform jitter.  Sorted int64 keys, a uniform's leading bits above
        its draw index, walk the CDF in cache order; each cell goes back to
        its draw, so the cells do not depend on the search order."""
        g = self._spec
        u = rng.random(count)
        bits = int(count).bit_length()
        order = (u * float(1 << (63 - bits))).astype(np.int64)
        order <<= bits
        order |= np.arange(count)
        order.sort()
        order &= (1 << bits) - 1
        idx = np.empty(count, dtype=np.intp)
        idx[order] = np.searchsorted(self._cdf, u.take(order), side="right")
        out = np.empty((count, 2))
        for col, cell, origin, d in zip(out.T, np.divmod(idx, g.ny),
                                        g.origin, (g.dx, g.dy)):
            rng.random(out=u)
            u -= 0.5
            u *= d
            np.multiply(cell, d, out=col)
            col += origin
            col += u
        return out


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


class _Source:
    """Shared by the sources: ``kind``, ``n_photons`` per tuple, ``describe``
    (what ``source_hash`` hashes) and a ``pair_rate`` finite and > 0."""

    n_photons = 1

    def __post_init__(self) -> None:
        require_finite_positive(self, "pair_rate")

    def describe(self) -> dict:
        return {"kind": self.kind, **_record(self)}


@dataclass(frozen=True)
class OcmPairSource(_Source):
    """Entangled photon-pair centroid source imaged onto the detector.

    The joint density factorizes into the centroid image (the N-photon
    correlation depends on the centroid only) and the pair-separation
    envelope from phase matching, applied in detector coordinates.
    """

    kind = "ocm_pairs"
    aperture: Aperture
    system: ImagingSystem
    phase_matching: PhaseMatchingParams
    pair_rate: float                       # mean pairs/s reaching the detector
    # a pair by construction; a field only so that describe() and every
    # source_hash keep their bytes
    n_photons: int = field(default=2, init=False)
    coherent: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        # the centroid law images at the system wavelength, the deviation
        # law maps both photons with the signal frequency
        omega = 2.0 * np.pi * SPEED_OF_LIGHT / self.system.wavelength
        pm = self.phase_matching
        if not np.allclose([pm.omega_s, pm.omega_i], omega, 1e-12, 0.0):
            raise ValueError("signal and idler must both be at the system "
                             f"wavelength {self.system.wavelength!r} m")

    def centroid_density(self, detector: DetectorConfig) -> FieldGrid:
        spec = _sampling_spec(detector, self.system, self.aperture)
        return image(self.aperture, self.system, spec, order=self.n_photons,
                     coherent=self.coherent)

    def deviation_density(self, detector: DetectorConfig) -> FieldGrid:
        half = 1.6 * max(detector.active_extent)
        n = 256
        spec = GridSpec.centered(n, 2.0 * half / n)
        # the envelope depends on |xi| alone: evaluate it once per distinct
        # (|kx|, |ky|) of the whole-sample offsets kx, ky in [-n/2, n/2)
        k = np.arange(n // 2 + 1)
        X, Y = np.meshgrid(k * spec.dx, k * spec.dy, indexing="ij")
        w = deviation_density(np.stack([X, Y], axis=-1), self.phase_matching)
        gather = np.abs(np.arange(n) - n // 2)
        return FieldGrid.from_spec(spec, w.take(gather, axis=0)
                                   .take(gather, axis=1))

    def sampler(self, detector: DetectorConfig):
        centroid = _DensitySampler(self.centroid_density(detector))
        deviation = _DensitySampler(self.deviation_density(detector))

        def draw(rng: np.random.Generator, count: int) -> np.ndarray:
            X = centroid.sample(rng, count)
            xi = deviation.sample(rng, count)
            out = np.empty((count, 2, 2))
            np.add(X, xi, out=out[:, 0])
            np.subtract(X, xi, out=out[:, 1])
            return out

        return draw


@dataclass(frozen=True)
class ClassicalSource(_Source):
    """Classical illumination: independent single photons from an image."""

    kind = "classical"
    aperture: Aperture
    system: ImagingSystem
    rate: float                            # mean detected-plane photons/s
    coherent: bool = True

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
class FarFieldPairSource(_Source):
    """Pair source in the far-field configuration: both photons share a mode.

    The common position is drawn from the N-fold narrowed diffraction pattern
    of the aperture; each photon then receives an independent Gaussian jitter
    of ``correlation_sigma`` (sub-pixel by default) standing in for the
    residual phase-matching correlation width.
    """

    kind = "far_field_pairs"
    aperture: Aperture
    scale: float                           # position per wavevector, s_o*lambda/2pi
    pair_rate: float
    n_photons: int = field(default=2, init=False)   # as in OcmPairSource
    correlation_sigma: float = 0.5 * 43.75e-6

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
    return bits.astype(bool).take(pick, axis=0)


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
    key = fields[0].astype(np.uint64)
    for field, width in zip(fields[1:], widths[1:]):
        key <<= np.uint64(width)
        np.bitwise_or(key, field, out=key, dtype=np.uint64, casting="unsafe")
    return key


def _unpack(key: np.ndarray, widths, dtypes) -> list[np.ndarray]:
    """Inverse of ``_pack``: the fields of each key, each in its dtype."""
    fields, shift = [], sum(widths)
    for width, dtype in zip(widths, dtypes):
        shift -= width
        field = key >> np.uint64(shift)
        field &= np.uint64((1 << width) - 1)
        fields.append(field.astype(dtype, copy=False))
    return fields


def _arrival_bins(rng: np.random.Generator, count: int,
                  cfg: DetectorConfig) -> np.ndarray:
    """Uniform arrival time bins; rounding never reaches ``n_time_bins``."""
    t = rng.random(count)
    t *= cfg.frame_duration
    t /= cfg.time_bin
    return np.minimum(np.floor(t, out=t), cfg.n_time_bins - 1,
                      out=t).astype(np.uint16)


_NEIGHBOURS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)], dtype=np.int64)


def _crosstalk(rng: np.random.Generator, cfg: DetectorConfig, key, widths):
    """Detection keys, then a key per fired (side, detection) slot whose
    ``_NEIGHBOURS`` pixel is on the sensor, in its time bin, slots in side-
    major order: a Binomial(4 N, p) count of slots and a uniform subset of
    that size, the exact law of 4 N Bernoulli draws (see the module
    docstring).  Only the fired slots' sources are unpacked."""
    n = key.size
    slots = rng.choice(4 * n, rng.binomial(4 * n, cfg.crosstalk_prob),
                       replace=False, shuffle=False)
    slots.sort()
    side, src = np.divmod(slots, n)
    frame, ix, iy, t_bin = _unpack(key[src], widths, (np.uint64, np.int64,
                                                      np.int64, np.uint64))
    ix += _NEIGHBOURS[side, 0]
    iy += _NEIGHBOURS[side, 1]
    ok = (ix >= 0) & (ix < cfg.n_pixels_x) & (iy >= 0) & (iy < cfg.n_pixels_y)
    return np.concatenate([key, _pack((frame[ok], ix[ok], iy[ok], t_bin[ok]),
                                      widths)])


def _detect(positions: np.ndarray, cfg: DetectorConfig,
            rng: np.random.Generator, frame_ids: np.ndarray, n_frames: int,
            thinned: bool = False) -> list[np.ndarray]:
    """The detector model of one frame block, on inputs that keep
    ``apply_detector_model``'s contract (uint64 ids in [0, n_frames)): the
    (frame, ix, iy, t_bin) arrays of its events, frames numbered from the
    block's first.  With ``thinned``, every tuple is known to leave at least
    one detected photon, and its detection mask is drawn conditional on
    that.  Events are keys (``_pack``) until their first hits are read.
    """
    n_tuples, n_ph = positions.shape[0], positions.shape[1]
    widths = _key_widths(n_frames, cfg)

    # one arrival time bin per tuple (pair photons are simultaneous)
    tuple_tbin = _arrival_bins(rng, n_tuples, cfg)

    # detection efficiency per photon: Bernoulli, or given a detection;
    # only the detected photons are binned
    u = rng.random((n_tuples, n_ph))
    survive = _detected_masks(u, cfg.pde) if thinned else u < cfg.pde
    photon = np.flatnonzero(survive)
    del u, survive          # each intermediate is dropped after its last use
    ix, iy, inside = cfg.pixel_index(positions.reshape(-1, 2).take(photon, 0))
    keep = np.flatnonzero(inside)
    tup = photon.take(keep)
    tup //= n_ph
    ix, iy = ix.take(keep), iy.take(keep)
    del inside, photon, keep
    keys = [_pack((frame_ids.take(tup), ix, iy, tuple_tbin.take(tup)), widths)]
    del tuple_tbin, tup, ix, iy

    # dark counts: Poisson per (pixel, frame), sampled sparsely
    total_mean = (cfg.dark_count_rate * cfg.frame_duration
                  * cfg.n_pixels_x * cfg.n_pixels_y * n_frames)
    n_dark = rng.poisson(total_mean) if total_mean > 0 else 0
    if n_dark > 0:
        d_frame = rng.integers(0, n_frames, n_dark, dtype=np.uint64)
        cell = rng.integers(0, cfg.n_pixels_x * cfg.n_pixels_y, n_dark)
        keys.append(_pack((d_frame, *np.divmod(cell, cfg.n_pixels_y),
                           _arrival_bins(rng, n_dark, cfg)), widths))
    key = np.concatenate(keys)

    if cfg.crosstalk_prob > 0 and key.size:
        key = _crosstalk(rng, cfg, key, widths)
    return _first_hit(key, widths)


def _first_hit(key, widths) -> list[np.ndarray]:
    """Each (frame, pixel)'s earliest event, in the sensor's readout order
    (frame, ix, iy): the keys packed from (frame, ix, iy, t_bin), sorted in
    place, the first of each pixel kept and unpacked to uint64 frames and
    uint16 pixels and bins.  A key holds its whole record, so equal keys
    are equal events and no stable sort is needed."""
    key.sort()
    pixel = key >> np.uint64(widths[-1])
    first = np.ones(key.size, dtype=bool)
    np.not_equal(pixel[1:], pixel[:-1], out=first[1:])
    return _unpack(key[first], widths, (np.uint64, *3 * (np.uint16,)))


def apply_detector_model(positions, cfg: DetectorConfig, rng_seed: int,
                         frame_ids=None, frame_range=None) -> EventStream:
    """Detect photon tuples: efficiency, binning, darks, crosstalk, first-hit.

    ``positions`` holds finite numbers in shape (n_tuples, N, 2); tuple i
    lands in frame ``frame_ids[i]``, an integer in the stream's
    ``frame_range`` = (0, n_frames), by default frame i of (0, max(n_tuples,
    1)); anything else raises ValueError.  Events come back in readout
    order: by frame, then pixel (ix, iy), at most one per pixel and frame.
    """
    positions = np.asarray(positions, dtype=float)
    if not (positions.ndim == 3 and positions.shape[2] == 2
            and np.isfinite(positions).all()):
        raise ValueError(f"positions of shape {positions.shape} are not "
                         "finite numbers of shape (n_tuples, N, 2)")
    if frame_ids is None:
        frame_ids = np.arange(len(positions), dtype=np.uint64)
        frame_range = frame_range or (0, max(len(positions), 1))
    if frame_range is None or frame_range[0] != 0:
        raise ValueError("frame_range must be (0, n_frames), got "
                         f"{frame_range}")
    ids = np.asarray(frame_ids)
    in_range = ids.size == 0 or (ids.dtype.kind in "iu" and ids.min() >= 0
                                 and ids.max() < frame_range[1])
    if ids.shape != (len(positions),) or not in_range:
        raise ValueError(f"frame_ids must hold one integer in [0, "
                         f"{frame_range[1]}) per tuple, {len(positions)} in all")
    return EventStream(*_detect(positions, cfg, np.random.default_rng(rng_seed),
                                ids.astype(np.uint64), frame_range[1]),
                       n_frames=int(frame_range[1]), detector=cfg)


# ---------------------------------------------------------------------------
# Acquisition
# ---------------------------------------------------------------------------

_MIN_BLOCK_FRAMES = 1 << 16
_MAX_BLOCK_FRAMES = 1 << 22
_BLOCK_EVENTS = 1 << 14


def _block_frames(source, cfg: DetectorConfig) -> int:
    """Frames per block: the fewest, a power of two from the minimum, that
    expect ``_BLOCK_EVENTS`` detected photons and dark counts, at most the
    maximum and the frame bits left in a 64-bit sort key.  Dense runs keep
    the shortest blocks, which bound their memory."""
    per_frame = cfg.frame_duration * (
        source.pair_rate * source.n_photons * cfg.pde
        + cfg.dark_count_rate * cfg.n_pixels_x * cfg.n_pixels_y)
    cap = min(_MAX_BLOCK_FRAMES, 1 << (64 - sum(_key_widths(1, cfg))))
    frames = _MIN_BLOCK_FRAMES
    while frames < cap and frames * per_frame < _BLOCK_EVENTS:
        frames *= 2
    return frames


def _tuple_frames(rng: np.random.Generator, mean: float,
                  n_frames: int) -> np.ndarray:
    """Sorted frame ids in [0, n_frames) of a block's tuples, at Poisson
    counts of ``mean`` per frame: one Poisson total for the block, each
    tuple on a uniform random frame (exact, see the module docstring)."""
    ids = rng.integers(0, n_frames, rng.poisson(mean * n_frames),
                       dtype=np.uint64)
    ids.sort()
    return ids


def child_seed(master_seed: int, label) -> int:
    """Seed derived by hashing (master seed, label): a block index or a name."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def run_acquisition(source, cfg: DetectorConfig, wall_time: float,
                    seed: int, n_threads: int = 1) -> EventStream:
    """Simulate an acquisition of ``wall_time`` seconds of frames.

    The number of frames equals wall_time * frame_rate.  Each frame block
    draws one Poisson total of only those tuples that leave at least one
    detected photon, places them on uniform random frames of the block (both
    exact, see the module docstring), samples their positions and detects
    them.  ``pairs_generated`` still counts every tuple the source
    emitted: the detected ones plus a Poisson count of the undetected ones,
    drawn after the block's events.  Frame blocks, sized by their expected
    events and not by ``n_threads``, carry hash-derived child seeds and are
    merged in block order into one stream, so the result does not depend on
    ``n_threads`` and reruns with the same inputs are byte-identical.
    """
    frames = wall_time * cfg.frame_rate
    if frames > 2 ** 63:                   # the limit of EventStream.n_frames
        raise ValueError("wall_time too long: more than 2**63 frames")
    n_frames = int(round(frames))
    if n_frames < 1:
        raise ValueError("wall_time too short for a single frame")
    mean_pairs = source.pair_rate * cfg.frame_duration
    n_ph = source.n_photons
    seen = 1.0 - (1.0 - cfg.pde) ** n_ph    # P(tuple leaves a detection)
    draw = source.sampler(cfg)
    block_frames = _block_frames(source, cfg)

    def run_block(block: int) -> tuple[list[np.ndarray], int]:
        start = block * block_frames
        length = min(block_frames, n_frames - start)
        rng = np.random.default_rng(child_seed(seed, block))
        frame_ids = _tuple_frames(rng, mean_pairs * seen, length)
        total = frame_ids.size
        positions = draw(rng, total) if total else np.empty((0, n_ph, 2))
        events = _detect(positions, cfg, rng, frame_ids, length, thinned=True)
        events[0] += np.uint64(start)      # the block's place in the run
        unseen = rng.poisson(mean_pairs * (1.0 - seen) * length)
        return events, total + int(unseen)

    n_blocks = (n_frames + block_frames - 1) // block_frames
    if n_threads > 1 and n_blocks > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(run_block, range(n_blocks)))
    else:
        results = [run_block(b) for b in range(n_blocks)]
    parts, generated = zip(*results)
    del draw                                # the samplers are done
    # field by field, each field's block parts dropped once they are joined
    fields = [np.concatenate([p.pop(0) for p in parts]) for _ in range(4)]
    return EventStream(
        *fields, n_frames=n_frames, detector=cfg,
        source_hash=stable_hash(source.describe()),
        meta={"seed": int(seed), "wall_time": wall_time,
              "pairs_generated": sum(generated)})
