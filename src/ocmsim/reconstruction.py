"""Event streams to images: coincidences, accidentals, centroid histograms.

A photon pair detected at pixels (ix1, iy1) and (ix2, iy2) contributes to the
half-pixel centroid bin (cx, cy) = (ix1+ix2, iy1+iy2), so an n x n sensor
reconstructs (2n-1) x (2n-1) centroid images.  Accidental coincidences are
estimated by pairing events across different frames (offset k), which cannot
contain true correlations, and subtracted.  Detector crosstalk is suppressed
by requiring a minimum Chebyshev pixel separation within a pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .detector import DetectorConfig
from .errors import GridMismatch, MissingGeometry, TooFewFrames, UnsortedInput
from .events_io import EventStream
from .grid import FieldGrid


@dataclass(frozen=True)
class CoincidencePair:
    """One unordered pixel pair within a coincidence window."""

    frame_id: int
    ix1: int
    iy1: int
    ix2: int
    iy2: int
    t1: int
    t2: int

    @property
    def centroid_bin(self) -> tuple[int, int]:
        return (self.ix1 + self.ix2, self.iy1 + self.iy2)

    @property
    def deviation(self) -> tuple[int, int]:
        return (self.ix1 - self.ix2, self.iy1 - self.iy2)


@dataclass
class CoincidenceSet:
    """Array-backed collection of pairs plus extraction diagnostics."""

    frame: np.ndarray
    ix1: np.ndarray
    iy1: np.ndarray
    ix2: np.ndarray
    iy2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    window_bins: int
    min_xi: int
    n_pixels: tuple[int, int]
    n_frames: int
    n_cut: int = 0                    # pairs rejected by the min_xi cut
    n_multi_pair_frames: int = 0      # frames contributing more than one pair

    def __len__(self) -> int:
        return self.frame.size

    def __getitem__(self, i: int) -> CoincidencePair:
        return CoincidencePair(int(self.frame[i]), int(self.ix1[i]),
                               int(self.iy1[i]), int(self.ix2[i]),
                               int(self.iy2[i]), int(self.t1[i]),
                               int(self.t2[i]))

    @property
    def cx(self) -> np.ndarray:
        return self.ix1.astype(np.int64) + self.ix2

    @property
    def cy(self) -> np.ndarray:
        return self.iy1.astype(np.int64) + self.iy2

    @property
    def dx(self) -> np.ndarray:
        return self.ix1.astype(np.int64) - self.ix2

    @property
    def dy(self) -> np.ndarray:
        return self.iy1.astype(np.int64) - self.iy2


class XiMode(enum.Enum):
    SUM = "sum"
    AVERAGE = "average"


@dataclass
class CentroidImage:
    """Counts or coverage-normalized rates on the doubled centroid grid."""

    values: np.ndarray
    mode: XiMode
    detector: DetectorConfig
    accidental_corrected: bool = False
    vignetting_corrected: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def bin_centers(self) -> tuple[np.ndarray, np.ndarray]:
        nx, ny = self.shape
        return self.detector.bin_center(np.arange(nx), np.arange(ny))

    def to_field_grid(self) -> FieldGrid:
        x, y = self.bin_centers()
        return FieldGrid(self.values.astype(float),
                         self.detector.pixel_pitch / 2.0,
                         self.detector.pixel_pitch / 2.0,
                         (float(x[0]), float(y[0])))


def _stream_detector(events: EventStream) -> DetectorConfig:
    """The detector geometry recorded in a stream's header."""
    if not events.detector:
        raise MissingGeometry("event stream has no detector header")
    return DetectorConfig.from_dict(events.detector)


def _window_bins(window: float, cfg: DetectorConfig) -> int:
    """Whole time bins inside the window; k * time_bin keeps k bins."""
    return int(np.floor(window / cfg.time_bin + 1e-9))


def _pair_masks(t_a, t_b, ixa, iya, ixb, iyb, window_bins, min_xi):
    dt_ok = np.abs(t_a.astype(np.int64) - t_b.astype(np.int64)) <= window_bins
    cheb = np.maximum(np.abs(ixa.astype(np.int64) - ixb),
                      np.abs(iya.astype(np.int64) - iyb))
    return dt_ok & (cheb > min_xi), dt_ok & (cheb <= min_xi)


def extract_coincidences(events: EventStream, window: float = 1e-9,
                         order: int = 2, min_xi: int = 1,
                         one_pair_per_frame: bool = False) -> CoincidenceSet:
    """All unordered same-frame pixel pairs within the coincidence window.

    Pairs closer than ``min_xi`` pixels (Chebyshev) are rejected to suppress
    crosstalk and counted in ``n_cut``.  Frames with several admissible pairs
    keep them all (flagged), unless ``one_pair_per_frame`` drops such frames.
    """
    if order != 2:
        raise ValueError("coincidence extraction is specified for pairs")
    if not events.is_sorted():
        raise UnsortedInput("events must be sorted by (frame_id, t_bin)")
    cfg = _stream_detector(events)
    window_bins = _window_bins(window, cfg)

    frames = events.frame
    n = frames.size
    out = {k: [] for k in ("frame", "ix1", "iy1", "ix2", "iy2", "t1", "t2")}
    n_cut = 0
    multi = 0

    if n:
        starts = np.flatnonzero(np.r_[True, frames[1:] != frames[:-1]])
        counts = np.diff(np.r_[starts, n])

        # two-event frames vectorized (the bulk of pair sources)
        two = starts[counts == 2]
        if two.size:
            i, j = two, two + 1
            ok, cut = _pair_masks(events.t_bin[i], events.t_bin[j],
                                  events.ix[i], events.iy[i],
                                  events.ix[j], events.iy[j],
                                  window_bins, min_xi)
            n_cut += int(cut.sum())
            out["frame"].append(frames[i][ok])
            out["ix1"].append(events.ix[i][ok])
            out["iy1"].append(events.iy[i][ok])
            out["ix2"].append(events.ix[j][ok])
            out["iy2"].append(events.iy[j][ok])
            out["t1"].append(events.t_bin[i][ok])
            out["t2"].append(events.t_bin[j][ok])

        # frames with more than two events: explicit combinations
        big = np.flatnonzero(counts > 2)
        for b in big:
            lo, hi = starts[b], starts[b] + counts[b]
            idx = np.arange(lo, hi)
            ii, jj = np.triu_indices(idx.size, k=1)
            ii, jj = idx[ii], idx[jj]
            ok, cut = _pair_masks(events.t_bin[ii], events.t_bin[jj],
                                  events.ix[ii], events.iy[ii],
                                  events.ix[jj], events.iy[jj],
                                  window_bins, min_xi)
            n_cut += int(cut.sum())
            kept = int(ok.sum())
            if kept > 1:
                multi += 1
                if one_pair_per_frame:
                    continue
            out["frame"].append(frames[ii][ok])
            out["ix1"].append(events.ix[ii][ok])
            out["iy1"].append(events.iy[ii][ok])
            out["ix2"].append(events.ix[jj][ok])
            out["iy2"].append(events.iy[jj][ok])
            out["t1"].append(events.t_bin[ii][ok])
            out["t2"].append(events.t_bin[jj][ok])

    def cat(key, dtype):
        arrs = out[key]
        return (np.concatenate(arrs).astype(dtype) if arrs
                else np.empty(0, dtype=dtype))

    return CoincidenceSet(
        frame=cat("frame", np.uint64),
        ix1=cat("ix1", np.int64), iy1=cat("iy1", np.int64),
        ix2=cat("ix2", np.int64), iy2=cat("iy2", np.int64),
        t1=cat("t1", np.int64), t2=cat("t2", np.int64),
        window_bins=window_bins, min_xi=min_xi,
        n_pixels=(cfg.n_pixels_x, cfg.n_pixels_y),
        n_frames=events.n_frames, n_cut=n_cut, n_multi_pair_frames=multi)


def _histogram(cx, cy, shape, weights=None) -> np.ndarray:
    flat = cx * shape[1] + cy
    return np.bincount(flat, weights=weights,
                       minlength=shape[0] * shape[1]).reshape(shape)


def estimate_accidentals(events: EventStream, window: float = 1e-9,
                         offset: int = 1, min_xi: int = 1) -> CentroidImage:
    """Accidental coincidence image from cross-frame pairing.

    Events of frame i are paired with all events of frame i+offset under the
    same window and separation cut; the resulting histogram is scaled by
    F / (2 (F - offset)) so its expectation matches the accidental part of
    the true-coincidence histogram (cross-frame pairing sees each unordered
    pixel pair from both sides, hence the factor 2).
    """
    if events.n_frames < 2 or events.n_frames <= offset:
        raise TooFewFrames("need at least offset+1 frames")
    if not events.is_sorted():
        raise UnsortedInput("events must be sorted by (frame_id, t_bin)")
    cfg = _stream_detector(events)
    window_bins = _window_bins(window, cfg)
    shape = (2 * cfg.n_pixels_x - 1, 2 * cfg.n_pixels_y - 1)

    frames = events.frame
    n = frames.size
    image = np.zeros(shape)
    if n:
        target = frames.astype(np.int64) + offset
        lo = np.searchsorted(frames, target, side="left")
        hi = np.searchsorted(frames, target, side="right")
        reps = hi - lo
        total = int(reps.sum())
        if total:
            i_idx = np.repeat(np.arange(n), reps)
            bounds = np.repeat(np.cumsum(reps) - reps, reps)
            j_idx = np.arange(total) - bounds + np.repeat(lo, reps)
            ok, _ = _pair_masks(events.t_bin[i_idx], events.t_bin[j_idx],
                                events.ix[i_idx], events.iy[i_idx],
                                events.ix[j_idx], events.iy[j_idx],
                                window_bins, min_xi)
            cx = events.ix[i_idx][ok].astype(np.int64) + events.ix[j_idx][ok]
            cy = events.iy[i_idx][ok].astype(np.int64) + events.iy[j_idx][ok]
            image = _histogram(cx, cy, shape).astype(float)
    norm = events.n_frames / (2.0 * (events.n_frames - offset))
    return CentroidImage(image * norm, XiMode.SUM, cfg,
                         accidental_corrected=False)


def coverage_table(cfg: DetectorConfig, min_xi: int,
                   deviation_weight=None) -> np.ndarray:
    """Per-centroid-bin count (or weight sum) of admissible deviation cells.

    Enumerates every unordered pixel pair of the sensor, applies the
    Chebyshev cut, and accumulates 1 (or ``deviation_weight(xi_x, xi_y)``,
    with xi the physical pair half-separation) on the pair's centroid bin.
    This is the exact combinatorial vignetting profile of the summed image.
    """
    nx, ny = cfg.n_pixels_x, cfg.n_pixels_y
    pix = np.arange(nx * ny)
    pxx, pyy = pix // ny, pix % ny
    a, b = np.triu_indices(nx * ny, k=1)    # unordered distinct pixel pairs
    ix1, iy1, ix2, iy2 = pxx[a], pyy[a], pxx[b], pyy[b]
    cheb = np.maximum(np.abs(ix1 - ix2), np.abs(iy1 - iy2))
    keep = cheb > min_xi
    cx = (ix1 + ix2)[keep]
    cy = (iy1 + iy2)[keep]
    if deviation_weight is None:
        w = None
    else:
        xi_x = (ix1 - ix2)[keep] * cfg.pixel_pitch / 2.0
        xi_y = (iy1 - iy2)[keep] * cfg.pixel_pitch / 2.0
        w = np.asarray(deviation_weight(xi_x, xi_y), dtype=float)
    return _histogram(cx, cy, (2 * nx - 1, 2 * ny - 1), weights=w).astype(float)


def centroid_image(pairs: CoincidenceSet,
                   accidentals: CentroidImage | None = None,
                   mode: XiMode = XiMode.SUM,
                   cfg: DetectorConfig | None = None,
                   deviation_weight=None,
                   floor_negative: bool = False) -> CentroidImage:
    """Half-pixel centroid image from coincidence pairs.

    SUM mode histograms the centroid bins and subtracts the accidental
    estimate (negative bins are kept unless ``floor_negative``).  AVERAGE
    mode divides each bin by its number of geometrically admissible deviation
    cells, which removes the pyramid-shaped coverage vignetting exactly for a
    deviation-uniform source.  Passing ``deviation_weight`` (e.g. the squared
    phase-matching envelope) instead weights the coverage by the actual
    deviation density: the correct vignetting correction for a pair source
    with a non-uniform separation profile.  ``cfg`` is the detector the pairs
    were recorded with; there is no default geometry.
    """
    if cfg is None:
        raise MissingGeometry("centroid_image needs the detector geometry")
    if (2 * cfg.n_pixels_x - 1, 2 * cfg.n_pixels_y - 1) != \
            (2 * pairs.n_pixels[0] - 1, 2 * pairs.n_pixels[1] - 1):
        raise GridMismatch("pair set and detector pixel counts differ")
    shape = (2 * cfg.n_pixels_x - 1, 2 * cfg.n_pixels_y - 1)
    counts = _histogram(pairs.cx, pairs.cy, shape).astype(float)
    corrected = False
    if accidentals is not None:
        if accidentals.values.shape != shape:
            raise GridMismatch("accidental image shape mismatch")
        counts = counts - accidentals.values
        corrected = True
    vignetting = False
    if mode is XiMode.AVERAGE or deviation_weight is not None:
        coverage = coverage_table(cfg, pairs.min_xi, deviation_weight)
        with np.errstate(invalid="ignore", divide="ignore"):
            counts = np.where(coverage > 0, counts / coverage, 0.0)
        vignetting = True
    if floor_negative:
        counts = counts.clip(min=0.0)
    return CentroidImage(counts, mode, cfg, accidental_corrected=corrected,
                         vignetting_corrected=vignetting)


def singles_image(events: EventStream,
                  cfg: DetectorConfig | None = None) -> FieldGrid:
    """Plain singles histogram on the pixel grid (classical-light imaging)."""
    cfg = cfg or _stream_detector(events)
    counts = _histogram(events.ix.astype(np.int64), events.iy.astype(np.int64),
                        (cfg.n_pixels_x, cfg.n_pixels_y)).astype(float)
    ex, ey = cfg.active_extent
    origin = (-ex / 2.0 + cfg.pixel_pitch / 2.0,
              -ey / 2.0 + cfg.pixel_pitch / 2.0)
    return FieldGrid(counts, cfg.pixel_pitch, cfg.pixel_pitch, origin)


def joint_correlation_histogram(pairs: CoincidenceSet, axis: str = "x"
                                ) -> np.ndarray:
    """Symmetric pixel-pair histogram over (x1, x2) (or (y1, y2)).

    The other axis is summed out; both orderings of each unordered pair
    contribute, making the matrix symmetric.
    """
    if axis == "x":
        a, b = pairs.ix1, pairs.ix2
        n = pairs.n_pixels[0]
    elif axis == "y":
        a, b = pairs.iy1, pairs.iy2
        n = pairs.n_pixels[1]
    else:
        raise ValueError("axis must be 'x' or 'y'")
    hist = np.bincount(a * n + b, minlength=n * n).reshape(n, n).astype(float)
    return hist + hist.T
