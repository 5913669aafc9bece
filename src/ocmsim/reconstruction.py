"""Event streams to images: coincidences, accidentals, centroid histograms.

A photon pair detected at pixels (ix1, iy1) and (ix2, iy2) contributes to the
half-pixel centroid bin (cx, cy) = (ix1+ix2, iy1+iy2), so an n x n sensor
reconstructs (2n-1) x (2n-1) centroid images.  Accidental coincidences are
estimated by pairing events across different frames (offset k), which cannot
contain true correlations, and subtracted.  Detector crosstalk is suppressed
by requiring a minimum Chebyshev pixel separation within a pair.  Both use
one enumeration, ``_pairs``, whose offset 0 pairs events of the same frame.
Every stream, pair set and image carries the ``DetectorConfig`` it was
recorded with (an event file's header always holds one), and every function
takes the geometry from its input; a ``cfg`` passed alongside may only
confirm it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .detector import DetectorConfig
from .errors import GridMismatch, TooFewFrames
from .events_io import EventStream
from .grid import FieldGrid


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
    detector: DetectorConfig
    n_frames: int
    n_cut: int = 0                    # pairs rejected by the min_xi cut
    n_multi_pair_frames: int = 0      # frames contributing more than one pair

    def __len__(self) -> int:
        return self.frame.size

    @property
    def cx(self) -> np.ndarray:
        return self.ix1.astype(np.int64) + self.ix2

    @property
    def cy(self) -> np.ndarray:
        return self.iy1.astype(np.int64) + self.iy2

    @property
    def dx(self) -> np.ndarray:
        return self.ix1.astype(np.int64) - self.ix2


class XiMode(enum.Enum):
    """Keep the pair coverage (SUM) or divide it out (AVERAGE); a
    ``deviation_weight`` given to ``centroid_image`` overrides the mode."""

    SUM = "sum"
    AVERAGE = "average"


@dataclass
class CentroidImage:
    """Counts or coverage-normalized rates on the doubled centroid grid."""

    values: np.ndarray
    detector: DetectorConfig

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


def _geometry(detector: DetectorConfig, *claimed) -> DetectorConfig:
    """The data's detector, once every claimed one that is not None has
    confirmed it."""
    if any(c is not None and c != detector for c in claimed):
        raise GridMismatch("detector differs from the data's own")
    return detector


def _window_bins(window: float, cfg: DetectorConfig) -> int:
    """Whole time bins inside the window; k * time_bin keeps k bins."""
    return int(np.floor(window / cfg.time_bin + 1e-9))


def _pairs(events: EventStream, window: float, min_xi: int, offset: int):
    """(i, j, n_cut): admissible pairs of events in frames f, f + offset.

    Event i meets every event j > i of frame f_i + offset, so offset 0 gives
    each same-frame pair once, in (i, j) order.  Admissible pairs lie within
    ``window`` in time and more than ``min_xi`` pixels apart (Chebyshev);
    ``n_cut`` counts the in-window pairs that the separation cut rejects.
    The work follows the frame runs (an ``EventStream`` keeps frame ids
    sorted, below n_frames <= 2**63): offset 0 visits only runs of two or
    more events, and an offset k > 0 searches the run frames for the
    partner run only of the runs whose next run lies within k frames.
    """
    frames = events.frame
    # frame runs: run r holds events bounds[r] to bounds[r + 1] - 1
    edge = np.ones(frames.size + 1, dtype=bool)
    edge[1:-1] = frames[1:] != frames[:-1]
    bounds = np.flatnonzero(edge)
    starts, ends = bounds[:-1], bounds[1:]
    if offset:
        run_frames = frames[starts]
        # a partner lies at most offset frames on, so the next run must too
        runs = np.flatnonzero(np.diff(run_frames) <= offset)
        target = run_frames[runs] + np.uint64(offset)
        partner = np.searchsorted(run_frames, target)
        np.minimum(partner, run_frames.size - 1, out=partner)
        found = run_frames[partner] == target
        runs, partner = runs[found], partner[found]
        del run_frames, target, found
    else:
        runs = partner = np.flatnonzero(np.diff(bounds) > 1)
    # the events of the visited runs, each with its partners' span [lo, hi)
    sizes = ends[runs] - starts[runs]
    ev = np.arange(sizes.sum()) + np.repeat(starts[runs] - (np.cumsum(sizes)
                                                            - sizes), sizes)
    lo = np.repeat(starts[partner], sizes) if offset else ev + 1
    reps = np.repeat(ends[partner], sizes) - lo
    # i repeats once per partner; j runs from lo[i] through each segment
    i = np.repeat(ev, reps)
    j = np.arange(i.size) + np.repeat(lo - (np.cumsum(reps) - reps), reps)
    del bounds, starts, ends, ev, lo, reps  # free them before per-pair peaks

    in_window = np.abs(events.t_bin[i].astype(np.int64) - events.t_bin[j]) \
        <= _window_bins(window, events.detector)
    near = np.maximum(np.abs(events.ix[i].astype(np.int64) - events.ix[j]),
                      np.abs(events.iy[i].astype(np.int64) - events.iy[j])) \
        <= min_xi
    n_cut = int(np.count_nonzero(in_window & near))
    ok = in_window & ~near
    return i[ok], j[ok], n_cut


def extract_coincidences(events: EventStream, window: float = 1e-9,
                         order: int = 2, min_xi: int = 1,
                         one_pair_per_frame: bool = False) -> CoincidenceSet:
    """All unordered same-frame pixel pairs within the coincidence window.

    Pairs closer than ``min_xi`` pixels (Chebyshev) are rejected to suppress
    crosstalk and counted in ``n_cut``.  Frames with several admissible pairs
    keep them all (flagged), unless ``one_pair_per_frame`` drops such frames.
    Pairs come out by frame, then as (i, j) with i < j in stream (pixel
    readout) order, event i in the ``*1`` arrays and event j in ``*2``.
    """
    if order != 2:
        raise ValueError("coincidence extraction is specified for pairs")
    i, j, n_cut = _pairs(events, window, min_xi, 0)
    cfg, frames = events.detector, events.frame
    _, inverse, counts = np.unique(frames[i], return_inverse=True,
                                   return_counts=True)
    if one_pair_per_frame:
        single = counts[inverse] == 1
        i, j = i[single], j[single]

    return CoincidenceSet(
        frame=frames[i].astype(np.uint64),
        ix1=events.ix[i].astype(np.int64), iy1=events.iy[i].astype(np.int64),
        ix2=events.ix[j].astype(np.int64), iy2=events.iy[j].astype(np.int64),
        t1=events.t_bin[i].astype(np.int64),
        t2=events.t_bin[j].astype(np.int64),
        window_bins=_window_bins(window, cfg), min_xi=min_xi, detector=cfg,
        n_frames=events.n_frames, n_cut=n_cut,
        n_multi_pair_frames=int((counts > 1).sum()))


def _histogram(cx, cy, shape) -> np.ndarray:
    flat = cx * shape[1] + cy
    return np.bincount(flat, minlength=shape[0] * shape[1]).reshape(shape)


def estimate_accidentals(events: EventStream, window: float = 1e-9,
                         offset: int = 1, min_xi: int = 1) -> CentroidImage:
    """Accidental coincidence image from cross-frame pairing.

    Events of frame i are paired with all events of frame i+offset under the
    same window and separation cut; the resulting histogram is scaled by
    F / (2 (F - offset)) so its expectation matches the accidental part of
    the true-coincidence histogram (cross-frame pairing sees each unordered
    pixel pair from both sides, hence the factor 2).  ``offset`` must be at
    least 1: offset 0 would pair the events of one frame, true pairs too.
    """
    if offset < 1:
        raise ValueError(f"accidental offset must be >= 1, got {offset}")
    if events.n_frames < 2 or events.n_frames <= offset:
        raise TooFewFrames("need at least offset+1 frames")
    i, j, _ = _pairs(events, window, min_xi, offset)
    image = _histogram(events.ix[i].astype(np.int64) + events.ix[j],
                       events.iy[i].astype(np.int64) + events.iy[j],
                       events.detector.centroid_shape).astype(float)
    norm = events.n_frames / (2.0 * (events.n_frames - offset))
    return CentroidImage(image * norm, events.detector)


def coverage_table(cfg: DetectorConfig, min_xi: int,
                   deviation_weight=None) -> np.ndarray:
    """Per-centroid-bin count (or weight sum) of admissible deviation cells.

    Counts every unordered pixel pair of the sensor that passes the
    Chebyshev cut on its centroid bin, with weight 1 (or
    ``deviation_weight(xi_x, xi_y)``, xi the physical pair half-separation).
    This is the exact combinatorial vignetting profile of the summed image.
    Each pixel offset (dx, dy) meets every bin of one strided sub-grid once,
    so the weight is evaluated once per offset and added to that sub-grid.
    Offsets run in the order (dx, then dy, ascending, with dx * ny + dy < 0)
    in which a pair enumeration by ascending flat pixel index meets a bin's
    pairs, so the weighted sums come out bit for bit as such a pair loop's.
    """
    nx, ny = cfg.n_pixels_x, cfg.n_pixels_y
    if deviation_weight is None:
        table = np.ones((2 * nx - 1, 2 * ny - 1))
    else:
        dx, dy = np.meshgrid(np.arange(1 - nx, nx), np.arange(1 - ny, ny),
                             indexing="ij")
        table = np.asarray(deviation_weight(dx * cfg.pixel_pitch / 2.0,
                                            dy * cfg.pixel_pitch / 2.0),
                           dtype=float)
    out = np.zeros(cfg.centroid_shape)
    for dx in range(1 - nx, 1):
        for dy in range(1 - ny, ny if dx else 0):
            if max(-dx, abs(dy)) > min_xi:
                # pairs (i + dx, i) centre on bins 2i + dx along each axis
                out[-dx:2 * nx - 1 + dx:2, abs(dy):2 * ny - 1 - abs(dy):2] \
                    += table[dx + nx - 1, dy + ny - 1]
    return out


def centroid_image(pairs: CoincidenceSet,
                   accidentals: CentroidImage | None = None,
                   mode: XiMode = XiMode.SUM,
                   cfg: DetectorConfig | None = None,
                   deviation_weight=None) -> CentroidImage:
    """Half-pixel centroid image from coincidence pairs.

    Every mode histograms the centroid bins and subtracts the accidental
    estimate, keeping negative bins.  SUM stops there.  AVERAGE divides
    each bin by its number of geometrically admissible deviation cells,
    which removes the pyramid-shaped coverage vignetting exactly for a
    deviation-uniform source.  A given ``deviation_weight`` (e.g. the
    squared phase-matching envelope) overrides ``mode``: the image is
    divided by the coverage weighted by that deviation density, the correct
    vignetting correction for a pair source with a non-uniform separation
    profile.  The pairs carry the geometry; ``cfg`` and the accidentals'
    detector may only confirm it.
    """
    cfg = _geometry(pairs.detector, cfg,
                    None if accidentals is None else accidentals.detector)
    counts = _histogram(pairs.cx, pairs.cy, cfg.centroid_shape).astype(float)
    if accidentals is not None:
        counts = counts - accidentals.values
    if mode is XiMode.AVERAGE or deviation_weight is not None:
        coverage = coverage_table(cfg, pairs.min_xi, deviation_weight)
        with np.errstate(invalid="ignore", divide="ignore"):
            counts = np.where(coverage > 0, counts / coverage, 0.0)
    return CentroidImage(counts, cfg)


def singles_image(events: EventStream,
                  cfg: DetectorConfig | None = None) -> FieldGrid:
    """Singles histogram on the stream's pixel grid (classical-light
    imaging); ``cfg`` may only confirm the stream's detector."""
    cfg = _geometry(events.detector, cfg)
    counts = _histogram(events.ix.astype(np.int64), events.iy.astype(np.int64),
                        (cfg.n_pixels_x, cfg.n_pixels_y)).astype(float)
    # pixel i is centred on half-pixel centroid bin 2i
    return FieldGrid(counts, cfg.pixel_pitch, cfg.pixel_pitch,
                     cfg.bin_center(0, 0))

