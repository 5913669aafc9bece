import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (accidental_histogram_loop, coincidence_pairs_loop,
                     coverage_table_per_pair, pair_indices_loop)
from scipy import stats

from ocmsim import (Aperture, DetectorConfig, EventStream, OcmPairSource,
                    PhaseMatchingParams, XiMode, apply_detector_model,
                    centroid_image, coverage_table, estimate_accidentals,
                    extract_coincidences, sample_event_positions,
                    singles_image)
from ocmsim.config import RunConfig, load_config
from ocmsim.errors import (EventOutOfRange, GridMismatch, TooFewFrames,
                           UnsortedInput)
from ocmsim.reconstruction import _pairs, _window_bins


def joint_histogram_x(pairs) -> np.ndarray:
    """Symmetric (x1, x2) pixel-pair histogram: both orderings of each pair."""
    n = pairs.detector.n_pixels_x
    hist = np.bincount(pairs.ix1 * n + pairs.ix2, minlength=n * n)
    hist = hist.reshape(n, n).astype(float)
    return hist + hist.T


def make_stream(rows, n_frames, cfg=None) -> EventStream:
    """rows: (frame, ix, iy, t_bin), sorted by frame."""
    cfg = cfg or DetectorConfig()
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    return EventStream(frame=rows[:, 0].astype(np.uint64),
                       ix=rows[:, 1].astype(np.uint16),
                       iy=rows[:, 2].astype(np.uint16),
                       t_bin=rows[:, 3].astype(np.uint16),
                       n_frames=n_frames, detector=cfg)


def pair_stream(ix1, iy1, ix2, iy2, n_pairs, cfg=None) -> EventStream:
    rows = []
    for f in range(n_pairs):
        a = (f, ix1, iy1, 10)
        b = (f, ix2, iy2, 10)
        rows.extend(sorted([a, b], key=lambda r: (r[3], r[1], r[2])))
    return make_stream(rows, n_pairs, cfg)


# ---------------------------------------------------------------------------
# pair extraction
# ---------------------------------------------------------------------------

def test_pair_arithmetic():
    ev = make_stream([(3, 5, 5, 7), (3, 9, 9, 10)], 4)
    pairs = extract_coincidences(ev, window=1e-9, min_xi=1)
    assert len(pairs) == 1
    assert (pairs.cx[0], pairs.cy[0]) == (14, 14)
    assert abs(pairs.dx[0]) == 4 and abs(pairs.iy1[0] - pairs.iy2[0]) == 4
    assert abs(pairs.t1[0] - pairs.t2[0]) == 3


def test_window_rejects_late_partner():
    # 1 ns window = 4 bins of 205 ps; dt = 5 bins is out
    ev = make_stream([(0, 5, 5, 0), (0, 9, 9, 5)], 1)
    assert len(extract_coincidences(ev, window=1e-9, min_xi=1)) == 0
    ev2 = make_stream([(0, 5, 5, 0), (0, 9, 9, 4)], 1)
    assert len(extract_coincidences(ev2, window=1e-9, min_xi=1)) == 1


def test_min_xi_cut_rejects_neighbors():
    ev = make_stream([(0, 5, 5, 0), (0, 6, 6, 0)], 1)
    pairs = extract_coincidences(ev, min_xi=1)
    assert len(pairs) == 0
    assert pairs.n_cut == 1
    # distance 2 passes
    ev2 = make_stream([(0, 5, 5, 0), (0, 7, 5, 0)], 1)
    assert len(extract_coincidences(ev2, min_xi=1)) == 1


def test_three_events_give_three_pairs():
    ev = make_stream([(0, 2, 2, 0), (0, 10, 10, 1), (0, 20, 20, 2)], 1)
    pairs = extract_coincidences(ev, min_xi=1)
    assert len(pairs) == 3
    assert pairs.n_multi_pair_frames == 1
    strict = extract_coincidences(ev, min_xi=1, one_pair_per_frame=True)
    assert len(strict) == 0


@pytest.mark.parametrize("k", [99, 103, 167, 175, 198, 206, 229, 237, 295])
def test_window_of_whole_bins_keeps_its_last_bin(k):
    # window = k * time_bin is k bins wide, however the quotient rounds;
    # a 100 ns frame holds 488 bins, so bin k + 1 lies inside it
    cfg = DetectorConfig(frame_duration=100e-9)
    window = k * cfg.time_bin
    at_edge = make_stream([(0, 5, 5, 0), (0, 9, 9, k)], 1, cfg)
    assert len(extract_coincidences(at_edge, window=window, min_xi=1)) == 1
    beyond = make_stream([(0, 5, 5, 0), (0, 9, 9, k + 1)], 1, cfg)
    assert len(extract_coincidences(beyond, window=window, min_xi=1)) == 0
    # the cross-frame accidental join uses the same window
    assert estimate_accidentals(
        make_stream([(0, 5, 5, 0), (1, 9, 9, k)], 2, cfg),
        window=window).values.sum() > 0
    assert estimate_accidentals(
        make_stream([(0, 5, 5, 0), (1, 9, 9, k + 1)], 2, cfg),
        window=window).values.sum() == 0


def test_unsorted_input_rejected():
    with pytest.raises(UnsortedInput):
        make_stream([(1, 5, 5, 0), (0, 9, 9, 0)], 2)


def test_pixel_beyond_the_sensor_never_reaches_a_centroid_bin():
    """Column 40 of a 32-wide sensor would pair into centroid bin 45 of
    the 63-bin grid, a pair the sensor cannot record."""
    with pytest.raises(EventOutOfRange, match="record 1 has ix = 40"):
        make_stream([(0, 5, 5, 0), (0, 40, 9, 0)], 1)


def test_label_exchange_symmetry():
    cfg = DetectorConfig()
    a = pair_stream(4, 20, 9, 7, 500, cfg)
    b = pair_stream(9, 7, 4, 20, 500, cfg)
    img_a = centroid_image(extract_coincidences(a), cfg=cfg)
    img_b = centroid_image(extract_coincidences(b), cfg=cfg)
    np.testing.assert_array_equal(img_a.values, img_b.values)


# ---------------------------------------------------------------------------
# accidentals
# ---------------------------------------------------------------------------

def _poisson_singles_stream(rng, n_frames, mean_per_frame, cfg) -> EventStream:
    counts = rng.poisson(mean_per_frame, n_frames)
    total = counts.sum()
    frames = np.repeat(np.arange(n_frames, dtype=np.uint64), counts)
    ix = rng.integers(0, cfg.n_pixels_x, total)
    iy = rng.integers(0, cfg.n_pixels_y, total)
    tb = rng.integers(0, 219, total)
    order = np.lexsort((tb, frames))
    return EventStream(frame=frames[order], ix=ix[order].astype(np.uint16),
                       iy=iy[order].astype(np.uint16),
                       t_bin=tb[order].astype(np.uint16),
                       n_frames=n_frames, detector=cfg)


def test_accidentals_flat_for_uniform_singles():
    rng = np.random.default_rng(51)
    cfg = DetectorConfig()
    ev = _poisson_singles_stream(rng, 1_000_000, 2.0, cfg)
    acc = estimate_accidentals(ev, offset=1, min_xi=1)
    cov = coverage_table(cfg, 1)
    mask = cov > 0
    rate = acc.values[mask] / cov[mask]
    expected = rate.mean()
    # Poisson per unordered pixel pair: variance of the scaled bin value
    per_bin_sigma = np.sqrt(expected / cov[mask] / 2.0)
    z = (rate - expected) / per_bin_sigma
    assert np.abs(z).max() < 5.5
    chi2 = float((z ** 2).sum())
    p = stats.chi2.sf(chi2, mask.sum() - 1)
    assert p > 0.01


def test_accidentals_match_true_for_uncorrelated():
    rng = np.random.default_rng(52)
    cfg = DetectorConfig()
    ev = _poisson_singles_stream(rng, 1_000_000, 2.0, cfg)
    true_pairs = extract_coincidences(ev, min_xi=1)
    true_img = centroid_image(true_pairs, cfg=cfg)
    acc = estimate_accidentals(ev, offset=1, min_xi=1)
    diff = true_img.values - acc.values
    var = true_img.values + acc.values / 2.0          # acc scaled by ~1/2
    keep = (true_img.values + acc.values) > 20
    chi2 = float((diff[keep] ** 2 / var[keep]).sum())
    p = stats.chi2.sf(chi2, int(keep.sum()))
    assert p > 0.01


def test_accidentals_miss_true_correlation_peak():
    # one genuine pair per frame at mirrored pixel positions: the true
    # histogram concentrates on one centroid bin, the accidental estimate
    # spreads over the product of the singles marginals
    rng = np.random.default_rng(53)
    cfg = DetectorConfig()
    rows = []
    n_frames = 20_000
    for f in range(n_frames):
        ix = int(rng.integers(4, 28))
        iy = int(rng.integers(4, 28))
        a = (f, ix, iy, int(rng.integers(0, 219)))
        b = (f, 31 - ix, 31 - iy, a[3])
        rows.extend(sorted([a, b], key=lambda r: (r[3], r[1], r[2])))
    ev = make_stream(rows, n_frames, cfg)
    pairs = extract_coincidences(ev, min_xi=1)
    true_img = centroid_image(pairs, cfg=cfg)
    acc = estimate_accidentals(ev, offset=1, min_xi=1)
    peak_true = true_img.values.max() / true_img.values.sum()
    peak_acc = acc.values.max() / acc.values.sum()
    assert peak_true > 5 * peak_acc


def test_accidentals_empty_stream():
    cfg = DetectorConfig()
    ev = make_stream(np.empty((0, 4)), 100, cfg)
    acc = estimate_accidentals(ev, offset=1)
    assert acc.values.sum() == 0


def test_accidentals_need_frames():
    ev = make_stream([(0, 5, 5, 0)], 1)
    with pytest.raises(TooFewFrames):
        estimate_accidentals(ev, offset=1)


@pytest.mark.parametrize("offset", [0, -1])
def test_accidentals_need_a_positive_offset(offset):
    # offset 0 would pair each frame with itself: half the true-pair counts
    ev = pair_stream(4, 2, 9, 7, 10)
    with pytest.raises(ValueError, match="offset must be >= 1"):
        estimate_accidentals(ev, offset=offset)


# ---------------------------------------------------------------------------
# property tests against brute-force loops
# ---------------------------------------------------------------------------

@st.composite
def small_streams(draw):
    """Sorted streams of 0-60 events with frame gaps on a 2-8 pixel sensor."""
    cfg = DetectorConfig(n_pixels_x=draw(st.integers(2, 8)),
                         n_pixels_y=draw(st.integers(2, 8)))
    n = draw(st.integers(0, 60))
    column = lambda hi: np.array(draw(st.lists(st.integers(0, hi), min_size=n,
                                               max_size=n)), dtype=np.int64)
    # half the events share their predecessor's frame; the rest leave gaps,
    # one of them (7) beyond every drawn offset, so that a run's next run
    # can lie too far on for any partner
    gaps = draw(st.lists(st.sampled_from((0, 0, 0, 0, 1, 2, 3, 7)),
                         min_size=n, max_size=n))
    frame = np.cumsum(np.array(gaps, dtype=np.int64))
    ix, iy = column(cfg.n_pixels_x - 1), column(cfg.n_pixels_y - 1)
    t_bin = column(30)
    order = np.lexsort((t_bin, frame))
    n_frames = (int(frame[-1]) + 1 if n else 0) + draw(st.integers(0, 3))
    rows = np.stack([frame, ix, iy, t_bin], axis=1)[order]
    return make_stream(rows, n_frames, cfg)


@given(small_streams(), st.integers(0, 6), st.integers(0, 3), st.booleans())
def test_extraction_matches_per_frame_loop(ev, k, min_xi, one_pair_per_frame):
    window = k * DetectorConfig().time_bin
    pairs = extract_coincidences(ev, window, 2, min_xi,
                                 one_pair_per_frame=one_pair_per_frame)
    ref, n_cut, n_multi = coincidence_pairs_loop(
        ev.frame, ev.ix, ev.iy, ev.t_bin, k, min_xi, one_pair_per_frame)
    i = np.array([p[0] for p in ref], dtype=np.int64)
    j = np.array([p[1] for p in ref], dtype=np.int64)
    expected = {"frame": ev.frame[i], "ix1": ev.ix[i], "iy1": ev.iy[i],
                "ix2": ev.ix[j], "iy2": ev.iy[j], "t1": ev.t_bin[i],
                "t2": ev.t_bin[j]}
    for name, values in expected.items():
        assert np.array_equal(getattr(pairs, name), values), name
    assert (pairs.window_bins, pairs.n_cut, pairs.n_multi_pair_frames) == \
        (k, n_cut, n_multi)


@given(st.integers(1, 24), st.integers(1, 24),
       st.one_of(st.integers(0, 4), st.integers(5, 30)),
       st.floats(1e-6, 2e-4), st.floats(1e-4, 3e-2))
def test_coverage_table_equals_per_pair_oracle(nx, ny, min_xi, pitch,
                                               crystal_length):
    weight = RunConfig({**load_config().values,
                        "phase_matching.crystal_length_m": crystal_length}
                       ).deviation_weight()
    cfg = DetectorConfig(n_pixels_x=nx, n_pixels_y=ny, pixel_pitch=pitch)
    for w in (None, weight):
        assert np.array_equal(coverage_table(cfg, min_xi, w),
                              coverage_table_per_pair(cfg, min_xi, w))


def test_coverage_table_memory_follows_the_offsets_not_the_pairs():
    """A 64 x 64 sensor has 8.4e6 pixel pairs but only 127 x 127 offsets."""
    weight = load_config().deviation_weight()
    cfg = DetectorConfig(n_pixels_x=64, n_pixels_y=64)
    tracemalloc.start()
    try:
        coverage_table(cfg, 1, weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@given(small_streams(), st.integers(0, 6), st.integers(0, 3),
       st.integers(1, 3))
def test_accidentals_match_cross_frame_loop(ev, k, min_xi, offset):
    window = k * DetectorConfig().time_bin
    if ev.n_frames < 2 or ev.n_frames <= offset:
        with pytest.raises(TooFewFrames):
            estimate_accidentals(ev, window, offset, min_xi)
        return
    acc = estimate_accidentals(ev, window, offset, min_xi)
    n_pixels = (ev.detector.n_pixels_x, ev.detector.n_pixels_y)
    ref = accidental_histogram_loop(ev.frame, ev.ix, ev.iy, ev.t_bin, n_pixels,
                                    k, min_xi, offset)
    norm = ev.n_frames / (2.0 * (ev.n_frames - offset))
    assert np.array_equal(acc.values, ref * norm)


@given(small_streams(), st.integers(0, 5), st.integers(0, 6),
       st.integers(-1, 3))
def test_pair_enumeration_equals_double_loop(ev, offset, k, min_xi):
    """Same (i, j) in the same order and the same n_cut, at offsets where
    frame + offset lands inside, on the last frame or past it."""
    i, j, n_cut = _pairs(ev, k * DetectorConfig().time_bin, min_xi, offset)
    ref, ref_cut = pair_indices_loop(ev.frame, ev.ix, ev.iy, ev.t_bin, k,
                                     min_xi, offset)
    assert list(zip(i.tolist(), j.tolist())) == ref and n_cut == ref_cut


@pytest.mark.parametrize("offset", [1, 2, 3, 4, 5])
def test_pairs_reaching_the_last_frame_and_past_it(offset):
    """Frames 0, 1, 3 and 5 of 6, two events each but frame 3: frame 5 is
    the last, reached from frame 3, 1 and 0 at offsets 2, 4 and 5; frame 5's
    partners lie past the stream at every offset, frame 3's from 3 on."""
    rows = [(0, 0, 0, 5), (0, 4, 4, 5), (1, 2, 0, 5), (1, 0, 4, 5),
            (3, 4, 0, 5), (5, 0, 2, 5), (5, 4, 2, 5)]
    ev = make_stream(rows, 6, DetectorConfig(n_pixels_x=5, n_pixels_y=5))
    i, j, n_cut = _pairs(ev, 1e-9, 1, offset)
    ref, ref_cut = pair_indices_loop(ev.frame, ev.ix, ev.iy, ev.t_bin,
                                     _window_bins(1e-9, ev.detector), 1,
                                     offset)
    assert list(zip(i.tolist(), j.tolist())) == ref and n_cut == ref_cut
    assert len(ref) == {1: 4, 2: 4, 3: 2, 4: 4, 5: 4}[offset]


def _pixel_pairs(pairs) -> list:
    """Multiset of unordered pixel pairs per frame, as a sorted list."""
    return sorted((int(f), *sorted([(int(a), int(b)), (int(c), int(d))]))
                  for f, a, b, c, d in zip(pairs.frame, pairs.ix1, pairs.iy1,
                                           pairs.ix2, pairs.iy2))


@pytest.fixture(scope="module")
def phase_matching_weight():
    return load_config().deviation_weight()


@given(small_streams(), st.integers(0, 2), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_order_within_a_frame_changes_no_result(phase_matching_weight, ev,
                                                min_xi, one_pair_per_frame,
                                                seed):
    """Frame order is the whole stream contract: the events of each frame
    shuffled give the same pairs, counters, images and accidentals."""
    order = np.lexsort((np.random.default_rng(seed).random(len(ev)),
                        ev.frame))
    shuffled = EventStream(ev.frame[order], ev.ix[order], ev.iy[order],
                           ev.t_bin[order], ev.n_frames, ev.detector)
    window = 3 * ev.detector.time_bin
    a, b = (extract_coincidences(e, window, 2, min_xi, one_pair_per_frame)
            for e in (ev, shuffled))
    assert (len(a), a.n_cut, a.n_multi_pair_frames) == \
        (len(b), b.n_cut, b.n_multi_pair_frames)
    assert _pixel_pairs(a) == _pixel_pairs(b)
    for weight in (None, phase_matching_weight):
        assert np.array_equal(centroid_image(a, deviation_weight=weight).values,
                              centroid_image(b, deviation_weight=weight).values)
    for offset in (1, 2, 3):
        if ev.n_frames > offset:
            assert np.array_equal(
                estimate_accidentals(ev, window, offset, min_xi).values,
                estimate_accidentals(shuffled, window, offset, min_xi).values)


# ---------------------------------------------------------------------------
# centroid images
# ---------------------------------------------------------------------------

def _uniform_pair_stream(rng, n_pairs, cfg) -> EventStream:
    ix = rng.integers(0, cfg.n_pixels_x, (n_pairs, 2))
    iy = rng.integers(0, cfg.n_pixels_y, (n_pairs, 2))
    tb = np.repeat(rng.integers(0, 219, n_pairs)[:, None], 2, axis=1)
    frames = np.repeat(np.arange(n_pairs, dtype=np.uint64)[:, None], 2, axis=1)
    f = frames.ravel()
    order = np.lexsort((iy.ravel(), ix.ravel(), tb.ravel(), f))
    # drop same-pixel duplicates (first-hit would merge them anyway)
    same = (ix[:, 0] == ix[:, 1]) & (iy[:, 0] == iy[:, 1])
    keep = np.repeat(~same, 2)
    order = order[keep[order]]
    return EventStream(frame=f[order], ix=ix.ravel()[order].astype(np.uint16),
                       iy=iy.ravel()[order].astype(np.uint16),
                       t_bin=tb.ravel()[order].astype(np.uint16),
                       n_frames=n_pairs, detector=cfg)


def _uniform_pair_set(rng, n_pairs, cfg, min_xi=1):
    """Directly constructed admissible uniform pixel pairs (no event layer)."""
    from ocmsim import CoincidenceSet

    ix = rng.integers(0, cfg.n_pixels_x, (n_pairs, 2))
    iy = rng.integers(0, cfg.n_pixels_y, (n_pairs, 2))
    cheb = np.maximum(np.abs(ix[:, 0] - ix[:, 1]), np.abs(iy[:, 0] - iy[:, 1]))
    keep = cheb > min_xi
    ix, iy = ix[keep], iy[keep]
    n = ix.shape[0]
    return CoincidenceSet(
        frame=np.arange(n, dtype=np.uint64),
        ix1=ix[:, 0].astype(np.int64), iy1=iy[:, 0].astype(np.int64),
        ix2=ix[:, 1].astype(np.int64), iy2=iy[:, 1].astype(np.int64),
        t1=np.zeros(n, dtype=np.int64), t2=np.zeros(n, dtype=np.int64),
        window_bins=4, min_xi=min_xi, detector=cfg, n_frames=n)


def test_uniform_pairs_show_pyramid_then_flat():
    rng = np.random.default_rng(54)
    cfg = DetectorConfig()
    pairs = _uniform_pair_set(rng, 20_000_000, cfg)
    summed = centroid_image(pairs, mode=XiMode.SUM, cfg=cfg)
    cov = coverage_table(cfg, 1)
    # the summed histogram follows the coverage pyramid (up to shot noise)
    corr = np.corrcoef(summed.values.ravel(), cov.ravel())[0, 1]
    assert corr > 0.999
    averaged = centroid_image(pairs, mode=XiMode.AVERAGE, cfg=cfg)
    # no residual tilt anywhere: per-bin Poisson z-scores and global chi2
    rate = len(pairs) / cov.sum()
    mask = cov > 0
    z = (averaged.values[mask] - rate) / np.sqrt(rate / cov[mask])
    assert np.abs(z).max() < 5.5
    assert stats.chi2.sf(float((z ** 2).sum()), int(mask.sum())) > 0.01
    # and the literal flatness bound where coverage keeps noise small
    good = cov >= 450
    vals = averaged.values[good]
    assert vals.max() / vals.min() <= 1.05


def test_single_repeated_pair_single_bin():
    cfg = DetectorConfig()
    ev = pair_stream(5, 5, 9, 9, 100, cfg)
    pairs = extract_coincidences(ev, min_xi=1)
    img = centroid_image(pairs, cfg=cfg)
    assert img.values[14, 14] == 100
    assert img.values.sum() == 100


def test_centroid_bin_positions():
    cfg = DetectorConfig()
    img = centroid_image(extract_coincidences(pair_stream(5, 5, 9, 9, 1, cfg)),
                         cfg=cfg)
    x, y = img.bin_centers()
    # bin (31,31) is the sensor center
    assert abs(x[31]) < 1e-12
    assert abs(x[14] - (-0.7e-3 + 15 * cfg.pixel_pitch / 2)) < 1e-12
    grid = img.to_field_grid()
    assert grid.dx == cfg.pixel_pitch / 2


def test_doubling_statistics_doubles_sums():
    rng = np.random.default_rng(55)
    cfg = DetectorConfig()
    ev1 = _uniform_pair_stream(rng, 200_000, cfg)
    ev2 = _uniform_pair_stream(rng, 400_000, cfg)
    s1 = centroid_image(extract_coincidences(ev1, min_xi=1), cfg=cfg).values.sum()
    s2 = centroid_image(extract_coincidences(ev2, min_xi=1), cfg=cfg).values.sum()
    assert abs(s2 / s1 - 2.0) < 0.05 * 2.0


def test_singles_image():
    cfg = DetectorConfig()
    ev = make_stream([(0, 3, 4, 0), (1, 3, 4, 5), (2, 30, 2, 7)], 3, cfg)
    img = singles_image(ev, cfg)
    assert img.values[3, 4] == 2
    assert img.values[30, 2] == 1
    assert img.values.sum() == 3


# ---------------------------------------------------------------------------
# detector geometry
# ---------------------------------------------------------------------------

def test_centroid_image_takes_the_pairs_geometry():
    cfg = DetectorConfig(n_pixels_x=16, n_pixels_y=12, pixel_pitch=100e-6)
    pairs = extract_coincidences(pair_stream(4, 2, 9, 7, 3, cfg))
    assert pairs.detector is cfg
    img = centroid_image(pairs)
    assert img.detector is cfg and img.shape == (31, 23)
    assert img.values[13, 9] == 3
    assert img.to_field_grid().dx == 50e-6


def test_cfg_other_than_the_pairs_detector_is_rejected():
    # a 100 um pitch would give 50 um bins to data recorded at 43.75 um
    pairs = extract_coincidences(pair_stream(4, 20, 9, 7, 3))
    with pytest.raises(GridMismatch):
        centroid_image(pairs, cfg=DetectorConfig(pixel_pitch=100e-6))
    assert centroid_image(pairs, cfg=DetectorConfig()).values.sum() == 3


def test_accidentals_from_another_detector_are_rejected():
    # same pixel count, different pitch: the centroid bins sit elsewhere
    other = DetectorConfig(pixel_pitch=50e-6)
    pairs = extract_coincidences(pair_stream(4, 20, 9, 7, 3))
    acc = estimate_accidentals(pair_stream(4, 20, 9, 7, 3, other))
    assert acc.shape == (63, 63)
    with pytest.raises(GridMismatch):
        centroid_image(pairs, acc)


def test_singles_image_rejects_a_cfg_other_than_the_streams():
    # on a 16 x 16 grid the event at (5, 20) of a 32 x 32 stream would
    # land in bin (6, 4)
    ev = make_stream([(0, 5, 20, 0)], 1)
    with pytest.raises(GridMismatch):
        singles_image(ev, DetectorConfig(n_pixels_x=16, n_pixels_y=16))
    assert singles_image(ev, DetectorConfig()).values[5, 20] == 1


# ---------------------------------------------------------------------------
# joint correlation histograms
# ---------------------------------------------------------------------------

def test_joint_histogram_symmetry_and_orderings():
    cfg = DetectorConfig()
    ev = pair_stream(4, 20, 9, 7, 100, cfg)
    pairs = extract_coincidences(ev, min_xi=1)
    hist = joint_histogram_x(pairs)
    assert hist[4, 9] == 100 and hist[9, 4] == 100
    np.testing.assert_array_equal(hist, hist.T)


def test_near_field_joint_histogram_diagonal_structure(reference_system,
                                                       triple_slit):
    pm = PhaseMatchingParams.from_wavelengths(5e-3, 810e-9, 810e-9, 50e-3)
    cfg = DetectorConfig(pde=1.0, dark_count_rate=0.0, crosstalk_prob=0.0)
    src = OcmPairSource(triple_slit, reference_system, pm, 1e6)
    pos = sample_event_positions(src, 61, 300_000, cfg)
    ev = apply_detector_model(pos, cfg, 62)
    pairs = extract_coincidences(ev, min_xi=1)
    hist = joint_histogram_x(pairs)
    n = cfg.n_pixels_x
    i1, i2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    # the image lives in the centroid: the anti-diagonal (i1+i2) profile of
    # the joint histogram shows the slits, the diagonal stays broad
    centroid_profile = np.bincount((i1 + i2).ravel(),
                                   weights=hist.ravel(), minlength=2 * n - 1)
    peak = centroid_profile.max()
    central = centroid_profile[20:43]
    local_min = (central[1:-1] < central[:-2]) & (central[1:-1] < central[2:])
    assert local_min.sum() >= 2                 # slit gaps visible
    assert peak > 2 * centroid_profile[central.size // 2]


def test_uncorrelated_singles_joint_histogram_rank1():
    rng = np.random.default_rng(63)
    cfg = DetectorConfig()
    # biased independent marginals
    n_frames = 2_000_000
    px = rng.integers(0, 32, (n_frames, 2))
    weights = (np.arange(32) + 5.0)
    ixs = rng.choice(32, size=(n_frames, 2), p=weights / weights.sum())
    tb = rng.integers(0, 219, (n_frames, 2))
    tb[:, 1] = tb[:, 0]                        # same window
    frames = np.repeat(np.arange(n_frames, dtype=np.uint64)[:, None], 2, axis=1)
    iy = px
    order = np.lexsort((iy.ravel(), ixs.ravel(), tb.ravel(), frames.ravel()))
    same = (ixs[:, 0] == ixs[:, 1]) & (iy[:, 0] == iy[:, 1])
    keep = np.repeat(~same, 2)
    order = order[keep[order]]
    ev = EventStream(frame=frames.ravel()[order],
                     ix=ixs.ravel()[order].astype(np.uint16),
                     iy=iy.ravel()[order].astype(np.uint16),
                     t_bin=tb.ravel()[order].astype(np.uint16),
                     n_frames=n_frames, detector=cfg)
    pairs = extract_coincidences(ev, min_xi=0)
    hist = joint_histogram_x(pairs)
    u, s, vt = np.linalg.svd(hist)
    residual = np.sqrt((s[1:] ** 2).sum() / (s ** 2).sum())
    assert residual < 0.05
