"""Event streams to images: coincidences, accidentals, centroid histograms.

A photon pair detected at pixels (ix1, iy1) and (ix2, iy2) contributes to the
half-pixel centroid bin (cx, cy) = (ix1+ix2, iy1+iy2), so an n x n sensor
reconstructs (2n-1) x (2n-1) centroid images.  Accidental coincidences are
estimated by pairing events across different frames (offset k), which cannot
contain true correlations, and subtracted.  Detector crosstalk is suppressed
by requiring a minimum Chebyshev pixel separation within a pair.  Both use
one enumeration, ``_pairs``, whose offset 0 pairs events of the same frame.
It yields its pairs in pieces of a bounded count of candidate pairs, and
tests the time window before it gathers pixels: extraction joins the pieces
in order, and the accidental estimate adds each piece's histogram into one
image, so its memory does not grow with the candidates of dense frames.
Every stream, pair set and image carries the ``DetectorConfig`` it was
recorded with (an event file's header always holds one), and every function
takes the geometry from its input; a ``cfg`` passed alongside may only
confirm it.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, TooFewFrames, finite_real
from .events_io import DetectorConfig, EventStream
from .grid import FieldGrid

#: candidate pairs per piece of the pair enumeration (``_pairs``)
_PIECE = 2 ** 16


@dataclass
class CoincidenceSet:
    """Array-backed collection of pairs plus extraction diagnostics."""

    frame: np.ndarray
    ix1: np.ndarray
    iy1: np.ndarray
    ix2: np.ndarray
    iy2: np.ndarray
    min_xi: int
    detector: DetectorConfig
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
    """Whole time bins inside the window, k * time_bin keeping k bins, at
    most a frame's: that admits every same-frame pair, however long.  A
    window that is not a finite number >= 0 raises ValueError."""
    if not (finite_real(window) and window >= 0):
        raise ValueError(f"coincidence window {window!r} is not a finite "
                         "number >= 0")
    return int(np.floor(min(window / cfg.time_bin, cfg.n_time_bins) + 1e-9))


def _run_bounds(a: np.ndarray) -> np.ndarray:
    """Bounds b of the runs of equal values in a: run r is a[b[r]:b[r + 1]]."""
    return np.flatnonzero(np.r_[True, a[1:] != a[:-1], True][:a.size + 1])


def _pairs(events: EventStream, window: float, min_xi: int, offset: int):
    """Yield (i, j, n_cut) per piece: admissible pairs of events in frames f,
    f + offset.

    Event i meets every event j > i of frame f_i + offset, so offset 0 gives
    each same-frame pair once; the pieces, joined in the order they come,
    give the pairs in (i, j) order.  Admissible pairs lie within ``window``
    in time and more than ``min_xi`` pixels apart (Chebyshev); ``n_cut``
    counts the in-window pairs that the separation cut rejects.  The work
    follows the frame runs (an ``EventStream`` keeps frame ids sorted, below
    n_frames <= 2**63): offset 0 visits only runs of two or more events,
    and an offset k > 0 searches the run frames for the partner run only of
    the runs whose next run lies within k frames.  The visited runs are cut
    into pieces of at most ``_PIECE`` candidate pairs, a run (with its
    partner) of more forming a piece alone; first-hit detection holds that
    at (n_pixels_x * n_pixels_y)**2.  Each piece tests the time window
    first and gathers the pixels only of its in-window candidates, so
    memory follows the piece, not the stream.
    """
    frames = events.frame
    # frame runs: run r holds events bounds[r] to bounds[r + 1] - 1
    bounds = _run_bounds(frames)
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
    sizes = ends[runs] - starts[runs]
    # candidate pairs up to and including each visited run
    reach = np.cumsum(sizes * (ends[partner] - starts[partner]) if offset
                      else sizes * (sizes - 1) // 2)
    window_bins = _window_bins(window, events.detector)
    t, x, y = events.t_bin, events.ix, events.iy
    first = 0
    while first < runs.size:
        done = reach[first - 1] if first else 0
        last = max(int(np.searchsorted(reach, done + _PIECE, "right")),
                   first + 1)
        r, p, n = runs[first:last], partner[first:last], sizes[first:last]
        first = last
        # the events of the piece's runs, each with its partners' span [lo, hi)
        ev = np.arange(n.sum()) + np.repeat(starts[r] - (np.cumsum(n) - n), n)
        lo = np.repeat(starts[p], n) if offset else ev + 1
        reps = np.repeat(ends[p], n) - lo
        # i repeats once per partner; j runs from lo[i] through each segment
        i = np.repeat(ev, reps)
        j = np.arange(i.size) + np.repeat(lo - (np.cumsum(reps) - reps), reps)
        # index arrays, which gather faster than boolean masks select
        d = np.subtract(t[i], t[j], dtype=np.int32)
        inside = np.flatnonzero(np.abs(d, out=d) <= window_bins)
        i, j = i.take(inside), j.take(inside)
        d = np.subtract(x[i], x[j], dtype=np.int32)
        dy = np.subtract(y[i], y[j], dtype=np.int32)
        np.maximum(np.abs(d, out=d), np.abs(dy, out=dy), out=d)
        apart = np.flatnonzero(d > min_xi)
        yield i.take(apart), j.take(apart), i.size - apart.size


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
    i, j, n_cut = [np.empty(0, np.intp)], [np.empty(0, np.intp)], 0
    for a, b, cut in _pairs(events, window, min_xi, 0):
        i.append(a)
        j.append(b)
        n_cut += cut
    i, j = np.concatenate(i), np.concatenate(j)
    frames = events.frame
    counts = np.diff(_run_bounds(frames[i]))    # the pairs come by frame
    if one_pair_per_frame:
        single = np.repeat(counts == 1, counts)
        i, j = i[single], j[single]

    return CoincidenceSet(
        frame=frames[i],
        ix1=events.ix[i].astype(np.int64), iy1=events.iy[i].astype(np.int64),
        ix2=events.ix[j].astype(np.int64), iy2=events.iy[j].astype(np.int64),
        min_xi=min_xi, detector=events.detector, n_cut=n_cut,
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
    pixel pair from both sides, hence the factor 2).  ``offset`` must be an
    integer of at least 1: offset 0 would pair the events of one frame, true
    pairs too, and a fraction would pair frames a whole number apart but
    scale by the fraction.
    """
    if not (isinstance(offset, numbers.Integral) and finite_real(offset)
            and offset >= 1):
        raise ValueError("accidental offset must be >= 1, a whole number of "
                         f"frames, got {offset!r}")
    if events.n_frames <= offset:
        raise TooFewFrames("need at least offset+1 frames")
    shape = events.detector.centroid_shape
    ix, iy = events.ix, events.iy
    counts = np.zeros(shape, np.int64)
    for i, j, _ in _pairs(events, window, min_xi, offset):
        counts += _histogram(ix[i].astype(np.int64) + ix[j],
                             iy[i].astype(np.int64) + iy[j], shape)
    norm = events.n_frames / (2.0 * (events.n_frames - offset))
    return CentroidImage(counts.astype(float) * norm, events.detector)


def coverage_table(cfg: DetectorConfig, min_xi: int,
                   deviation_weight=None) -> np.ndarray:
    """Per-centroid-bin count (or weight sum) of admissible deviation cells.

    Counts every unordered pixel pair of the sensor that passes the
    Chebyshev cut on its centroid bin, with weight 1 (or
    ``deviation_weight(xi_x, xi_y)``, xi the physical pair half-separation).
    This is the exact combinatorial vignetting profile of the summed image.
    The weight is evaluated once per pixel offset (dx, dy).  Bin (cx, cy)
    meets the offsets of its parity with |dx| <= min(cx, 2 nx - 2 - cx) and
    |dy| <= min(cy, 2 ny - 2 - cy), so only the nx x ny mirror quadrant is
    summed.  One ``np.add.at`` per dx, ascending, adds each bin's terms in
    ascending dy: the order in which a pair loop by ascending flat pixel
    index meets them, so the weighted sums are such a loop's bit for bit.
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
    # (my, dy): quadrant column my meets each |dy| <= my of its parity
    m, k = np.arange(ny)[:, None], np.arange(1 - ny, ny)
    my, dy = np.nonzero((np.abs(k) <= m) & ((k + m) % 2 == 0))
    dy += 1 - ny
    quadrant = np.zeros(nx * ny)
    for dx in range(1 - nx, 1):
        keep = (np.maximum(-dx, np.abs(dy)) > min_xi) & ((dx < 0) | (dy < 0))
        mx = np.arange(-dx, nx, 2)
        np.add.at(quadrant, (mx[:, None] * ny + my[keep]).ravel(),
                  np.tile(table[dx + nx - 1, dy[keep] + ny - 1], mx.size))
    fx, fy = (n - 1 - np.abs(np.arange(1 - n, n)) for n in (nx, ny))
    return quadrant.reshape(nx, ny)[fx][:, fy]


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

