import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (PointSource, crosstalk_per_side, crosstalk_slot_loop,
                     density_samples_plain, detect_by_fields, first_hit_loop,
                     per_frame_counts, unthinned_acquisition)
from scipy import stats

from ocmsim import (Aperture, ClassicalSource, DetectorConfig,
                    FarFieldPairSource, FieldGrid, GridSpec, ImagingSystem,
                    OcmPairSource, PhaseMatchingParams, apply_detector_model,
                    extract_coincidences, read_events, read_manifest,
                    run_acquisition, sample_event_positions, write_events)
from ocmsim.cli import cmd_simulate
from ocmsim.config import load_config
from ocmsim.detector import (_MAX_BLOCK_FRAMES, _MIN_BLOCK_FRAMES,
                             _block_frames, _crosstalk, _DensitySampler,
                             _detect, _first_hit, _key_widths, _pack,
                             _tuple_frames, _unpack)
from ocmsim.errors import SortKeyOverflow, UnnormalizableDensity
from ocmsim.events_io import stable_hash

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


def assert_same_stream(a, b):
    for name in ("frame", "ix", "iy", "t_bin"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert a.meta["pairs_generated"] == b.meta["pairs_generated"]


@pytest.fixture
def pm_params():
    return PhaseMatchingParams.from_wavelengths(5e-3, 810e-9, 810e-9, 50e-3)


@pytest.fixture
def ideal_detector():
    return DetectorConfig(pde=1.0, dark_count_rate=0.0, crosstalk_prob=0.0)


@pytest.fixture
def point_pair_source(reference_system, pm_params):
    return OcmPairSource(Aperture.point(), reference_system, pm_params,
                         pair_rate=1e6)


# ---------------------------------------------------------------------------
# configuration bookkeeping
# ---------------------------------------------------------------------------

def test_default_detector_numbers():
    cfg = DetectorConfig()
    assert cfg.duty_cycle == 0.036
    assert cfg.active_extent == (1.4e-3, 1.4e-3)
    assert cfg.n_pixels_x * cfg.pixel_pitch == cfg.active_extent[0]


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorConfig(pde=1.5)
    with pytest.raises(ValueError):
        DetectorConfig(frame_duration=2e-6)      # duty cycle > 1
    with pytest.raises(ValueError):
        DetectorConfig(dark_count_rate=np.ones((4, 4)))   # wrong map shape
    # each would construct a sensor whose event file does not read back
    for bad in (dict(n_pixels_x=True), dict(n_pixels_x=32.0),
                dict(time_bin=float("inf")), dict(pde=float("nan"))):
        with pytest.raises(ValueError, match="not a finite"):
            DetectorConfig(**bad)


def test_config_dict_round_trip():
    cfg = DetectorConfig(pde=0.42, crosstalk_prob=0.0)
    back = DetectorConfig.from_dict(cfg.to_dict())
    assert back == cfg
    # NumPy scalars are stored as int and float, so the record is JSON
    cfg = DetectorConfig(n_pixels_x=np.int64(8), pde=np.float32(0.5))
    record = json.loads(json.dumps(cfg.to_dict()))
    assert record["n_pixels_x"] == 8 and record["pde"] == 0.5
    assert DetectorConfig.from_dict(record) == cfg


def test_detector_rejects_unstorable_bins_and_negative_darks():
    assert DetectorConfig().n_time_bins == 220              # ceil(45 / 0.205)
    assert DetectorConfig(time_bin=45e-9 / 65536).n_time_bins == 65536
    with pytest.raises(ValueError, match="uint16"):
        DetectorConfig(time_bin=1e-13)                      # 450,000 bins
    with pytest.raises(ValueError, match="dark_count_rate"):
        DetectorConfig(dark_count_rate=-1e3)


def test_detector_rejects_unstorable_pixel_counts():
    # ix and iy are uint16: 65,536 pixels along an axis fit, 65,537 do not
    assert DetectorConfig(n_pixels_x=65536, n_pixels_y=1).n_pixels_x == 65536
    for nx, ny in ((65537, 1), (1, 65537)):
        with pytest.raises(ValueError, match="uint16"):
            DetectorConfig(n_pixels_x=nx, n_pixels_y=ny)


@pytest.mark.parametrize("change", [
    dict(n_pixels_x=32.0),                  # pixel count not an integer
    dict(n_pixels_y=True),
    dict(time_bin="205e-12"),               # not a number
    dict(frame_rate=float("nan")),          # not finite
    dict(pixel_pitch=float("inf")),
    dict(pde=10 ** 400),                    # beyond float range
    dict(dark_count_rate=[1e3] * 4),        # not one rate for every pixel
], ids=["float_pixels", "bool_pixels", "str_time_bin", "nan_rate",
        "inf_pitch", "huge_pde", "dark_map"])
def test_from_dict_is_strict(change):
    record = {**DetectorConfig().to_dict(), **change}
    with pytest.raises(ValueError):
        DetectorConfig.from_dict(record)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_point_object_centroid_histogram(reference_system, point_pair_source,
                                         ideal_detector):
    n = 1_000_000
    pos = sample_event_positions(point_pair_source, 7, n, ideal_detector)
    centroids = pos.mean(axis=1)
    # compare the x-marginal against the sampled density on 63 bins; the
    # expectation integrates the piecewise-constant cells over each bin
    density = point_pair_source.centroid_density(ideal_detector)
    edges = np.linspace(-0.7e-3, 0.7e-3, 64)
    hist, _ = np.histogram(centroids[:, 0], bins=edges)
    x = density.x_axis()
    marg = density.values.sum(axis=1)
    cell_lo = x - density.dx / 2
    cell_hi = x + density.dx / 2
    expected = np.array([
        (marg * np.clip(np.minimum(hi, cell_hi) - np.maximum(lo, cell_lo),
                        0.0, None) / density.dx).sum()
        for lo, hi in zip(edges[:-1], edges[1:])])
    total_weight = marg.sum()
    inside_frac = expected.sum() / total_weight
    expected = expected / expected.sum() * n * inside_frac
    keep = expected > 10
    chi2 = float(((hist[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    p = stats.chi2.sf(chi2, int(keep.sum()) - 1)
    assert p > 0.01


def test_delta_density_sampling():
    grid = FieldGrid(np.zeros((16, 16)), 1e-5, 1e-5, (-8e-5, -8e-5))
    grid.values[4, 9] = 3.0
    sampler = _DensitySampler(grid)
    rng = np.random.default_rng(8)
    pts = sampler.sample(rng, 1000)
    cell_x = grid.origin[0] + 4 * grid.dx
    cell_y = grid.origin[1] + 9 * grid.dy
    assert np.all(np.abs(pts[:, 0] - cell_x) <= grid.dx / 2)
    assert np.all(np.abs(pts[:, 1] - cell_y) <= grid.dy / 2)


@given(st.integers(2, 8), st.integers(2, 8), st.data(), st.integers(0, 300),
       st.integers(0, 2**32))
def test_density_sampler_equals_a_plain_cdf_search(nx, ny, data, count, seed):
    """The sorted search gives the positions of a search in drawn order;
    zero cells make CDF ties."""
    values = data.draw(st.lists(st.just(0.0) | st.floats(1e-300, 1e3),
                                min_size=nx * ny, max_size=nx * ny)
                       .filter(lambda v: sum(v) > 0))
    grid = FieldGrid(np.reshape(values, (nx, ny)), 1e-5, 2e-5, (-3e-5, 1e-5))
    got = _DensitySampler(grid).sample(np.random.default_rng(seed), count)
    want = density_samples_plain(grid, np.random.default_rng(seed), count)
    assert np.array_equal(got, want)


#: draw counts at the bit boundaries of the sampler's order key, which holds
#: a draw index in ``count.bit_length()`` bits: 0, 1, 2**k - 1, 2**k and
#: 2**k + 1 up to k = 17, and about one ``ideal_triple_slit`` block
KEY_BOUNDARY_COUNTS = sorted({0, 1, 66_000} | {2 ** k + d for k in range(1, 18)
                                                for d in (-1, 0, 1)})


@pytest.mark.parametrize("count", KEY_BOUNDARY_COUNTS)
def test_density_sampler_equals_a_plain_cdf_search_at_key_bit_boundaries(count):
    """Every draw index keeps its own search result, whatever the width of
    the index in the order key; zero cells make CDF ties."""
    rng = np.random.default_rng(count)
    values = rng.random((32, 24)) * (rng.random((32, 24)) < 0.7)
    grid = FieldGrid(values, 1e-5, 2e-5, (-3e-5, 1e-5))
    got = _DensitySampler(grid).sample(np.random.default_rng(count + 1), count)
    want = density_samples_plain(grid, np.random.default_rng(count + 1), count)
    assert got.shape == (count, 2)
    assert got.tobytes() == want.tobytes()


def test_centroid_density_build_frees_its_buffers():
    """The traced peak of a centroid density build at the real-sensor
    settings stays below 12 MB: the rasterised grid, the mirrored kernel
    and each spectrum are freed after their last use (18 MB when kept)."""
    cfg = load_config(CONFIG, ["detector.pde=auto",
                               "detector.dark_count_rate_hz=1000.0"])
    source, detector = cfg.source(), cfg.detector()
    source.centroid_density(detector)       # any first-call caches
    tracemalloc.start()
    try:
        source.centroid_density(detector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_detection_block_frees_its_intermediates():
    """One 65,536-frame block at one pair per frame on an ideal detector
    (about 65,800 tuples) peaks below 9 MB beyond its inputs: each mask,
    index and per-tuple array is dropped after its last use (about 6.5 MB;
    12 MB when all were kept to the end)."""
    cfg = load_config(CONFIG, ["detector.pde=1.0",
                               "detector.dark_count_rate_hz=0.0",
                               "detector.crosstalk_prob=0.0",
                               "acquisition.pair_rate_hz=22222222.222222224"])
    source, detector = cfg.source(), cfg.detector()
    rng = np.random.default_rng(5)
    n_frames = _MIN_BLOCK_FRAMES
    frame_ids = _tuple_frames(rng, source.pair_rate * detector.frame_duration,
                              n_frames)
    positions = source.sampler(detector)(rng, frame_ids.size)
    tracemalloc.start()
    try:
        events = _detect(positions, detector, rng, frame_ids, n_frames,
                         thinned=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events[0]) > 100_000
    assert peak < 9 * 2 ** 20


def test_zero_density_rejected():
    with pytest.raises(UnnormalizableDensity):
        _DensitySampler(FieldGrid(np.zeros((8, 8)), 1e-5, 1e-5))


def test_density_whose_total_overflows_rejected():
    # every weight is finite, but their sum is not: no CDF can be built
    with pytest.raises(UnnormalizableDensity):
        _DensitySampler(FieldGrid(np.full((2, 2), 1e308), 1.0, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_nonfinite_or_negative_density_rejected(bad):
    values = np.ones((4, 4))
    values[2, 1] = bad
    with pytest.raises(UnnormalizableDensity):
        _DensitySampler(FieldGrid(values, 1e-5, 1e-5))


def test_sampled_deviation_width(reference_system, point_pair_source,
                                 ideal_detector):
    pos = sample_event_positions(point_pair_source, 9, 200_000, ideal_detector)
    xi1 = (pos[:, 0, :] - pos[:, 1, :]) / 2.0
    hist, edges = np.histogram(xi1[:, 0], bins=220, range=(-2.2e-3, 2.2e-3))
    centers = (edges[:-1] + edges[1:]) / 2
    half = hist.max() / 2.0
    c = int(np.argmax(hist))
    left = np.flatnonzero(hist[:c] < half)[-1]
    right = c + np.flatnonzero(hist[c:] < half)[0]
    fwhm = centers[right] - centers[left]
    assert abs(fwhm - 1.1e-3) < 0.15 * 1.1e-3


def test_sampling_is_deterministic(point_pair_source, ideal_detector):
    a = sample_event_positions(point_pair_source, 123, 1000, ideal_detector)
    b = sample_event_positions(point_pair_source, 123, 1000, ideal_detector)
    np.testing.assert_array_equal(a, b)


def test_point_source_width(ideal_detector):
    src = PointSource(waist=200e-6, rate=1e6)
    pos = sample_event_positions(src, 11, 100_000, ideal_detector)
    assert pos.shape[1:] == (1, 2)
    # intensity exp(-2 r^2 / w^2): std = w/2 per axis
    assert abs(pos[:, 0, 0].std() - 100e-6) < 2e-6


# ---------------------------------------------------------------------------
# detector model
# ---------------------------------------------------------------------------

def test_pair_in_distinct_pixels_gives_two_events(ideal_detector):
    pos = np.array([[[-0.3e-3, -0.3e-3], [0.3e-3, 0.3e-3]]])
    ev = apply_detector_model(pos, ideal_detector, 1)
    assert len(ev) == 2
    assert ev.frame.tolist() == [0, 0]
    assert ev.t_bin[0] == ev.t_bin[1]          #同tuple arrival bin


def test_pair_in_same_pixel_gives_one_event(ideal_detector):
    pos = np.array([[[0.30e-4, 0.30e-4], [0.31e-4, 0.31e-4]]])
    ev = apply_detector_model(pos, ideal_detector, 1)
    assert len(ev) == 1


def test_first_hit_keeps_the_earliest_event_per_pixel(ideal_detector):
    # 200 single photons in one frame; one seed draws the same arrival bins
    # whether the photons land in 200 pixels or in one
    ix, iy = np.divmod(np.arange(200), 16)
    pitch, half = ideal_detector.pixel_pitch, 0.7e-3
    spread = np.stack([(ix + 0.5) * pitch - half, (iy + 0.5) * pitch - half],
                      axis=-1)[:, None, :]
    frames = np.zeros(200, np.uint64)
    apart = apply_detector_model(spread, ideal_detector, 9, frames, (0, 1))
    same = apply_detector_model(np.zeros((200, 1, 2)), ideal_detector, 9,
                                frames, (0, 1))
    assert len(apart) == 200
    # events leave in readout order: by pixel (ix, iy), whatever their times
    np.testing.assert_array_equal(apart.ix, ix)
    np.testing.assert_array_equal(apart.iy, iy)
    assert len(same) == 1
    assert same.t_bin[0] == apart.t_bin.min()


def test_photons_outside_region_dropped(ideal_detector):
    pos = np.array([[[5.0e-3, 0.0], [0.0, 0.0]]])
    ev = apply_detector_model(pos, ideal_detector, 1)
    assert len(ev) == 1


def test_dark_count_rate():
    cfg = DetectorConfig(pde=1.0, dark_count_rate=1e3, crosstalk_prob=0.0)
    n_frames = 1_000_000
    ev = apply_detector_model(np.empty((0, 2, 2)), cfg, 5,
                              frame_ids=np.empty(0, dtype=np.uint64),
                              frame_range=(0, n_frames))
    per_pixel_frame = len(ev) / (n_frames * 1024)
    expected = 1e3 * 45e-9
    sigma = np.sqrt(expected / (n_frames * 1024))
    assert abs(per_pixel_frame - expected) < 3 * sigma


def test_crosstalk_spawns_neighbors():
    cfg = DetectorConfig(pde=1.0, dark_count_rate=0.0, crosstalk_prob=0.5)
    pos = np.tile(np.array([[[0.0, 0.0]]]), (20000, 1, 1))
    ev = apply_detector_model(pos, cfg, 6)
    # central pixel fires every frame; each neighbor with p = 0.5
    neighbors = len(ev) - 20000
    assert abs(neighbors / (4 * 20000) - 0.5) < 0.02
    # crosstalk events share the trigger's time bin
    by_frame = {}
    for k in range(len(ev)):
        by_frame.setdefault(int(ev.frame[k]), set()).add(int(ev.t_bin[k]))
    assert all(len(bins) == 1 for bins in by_frame.values())


def detection_fields(rng, cfg, n_det, n_frames):
    """(frame, ix, iy, t_bin) of ``n_det`` random detections on ``cfg``."""
    return (rng.integers(0, n_frames, n_det).astype(np.uint64),
            rng.integers(0, cfg.n_pixels_x, n_det),
            rng.integers(0, cfg.n_pixels_y, n_det),
            rng.integers(0, cfg.n_time_bins, n_det).astype(np.uint16))


@given(n_x=st.integers(1, 5), n_y=st.integers(1, 5),
       prob=st.sampled_from([0.01, 0.3, 1.0]), n_det=st.integers(0, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_crosstalk_equals_a_loop_over_the_drawn_slots(n_x, n_y, prob, n_det,
                                                      seed):
    """The detections' keys, then one key per fired on-sensor slot in slot
    order: the events, their order and their dtype of a Python loop over
    the same draw, and the same generator state after it."""
    cfg = DetectorConfig(n_pixels_x=n_x, n_pixels_y=n_y, crosstalk_prob=prob)
    fields = detection_fields(np.random.default_rng(seed), cfg, n_det, 9)
    widths = _key_widths(9, cfg)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _crosstalk(rng, cfg, _pack(fields, widths), widths)
    want = _pack(crosstalk_slot_loop(ref, cfg, *fields), widths)
    assert got.dtype == want.dtype == np.uint64
    assert np.array_equal(got, want)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("prob", [0.01, 0.3, 1.0])
def test_crosstalk_law_equals_per_side_draws(prob):
    """Against four Bernoulli draws per detection (independent seeds): the
    fired count per side and the neighbour events per (side, pixel) pass a
    chi-square test of equal law.  One detection per frame names each
    neighbour event's source, so its side."""
    cfg = DetectorConfig(n_pixels_x=5, n_pixels_y=4, crosstalk_prob=prob)
    n_det = 20_000
    _, ix, iy, t_bin = detection_fields(np.random.default_rng(7), cfg, n_det,
                                        1)
    frame = np.arange(n_det, dtype=np.uint64)
    widths = _key_widths(n_det, cfg)
    key = _crosstalk(np.random.default_rng(8), cfg,
                     _pack((frame, ix, iy, t_bin), widths), widths)
    sparse = _unpack(key, widths, (np.int64,) * 4)
    dense = crosstalk_per_side(np.random.default_rng(9), cfg, frame, ix, iy,
                               t_bin)

    def counts(fields):
        src, x, y = (np.asarray(a[n_det:], np.int64) for a in fields[:3])
        dx, dy = x - ix[src], y - iy[src]
        side = (dx == -1) + 2 * (dy == 1) + 3 * (dy == -1)   # +x -x +y -y
        per_pixel = np.bincount((side * 5 + x) * 4 + y, minlength=4 * 20)
        return np.bincount(side, minlength=4), per_pixel

    (side_a, pixel_a), (side_b, pixel_b) = counts(sparse), counts(dense)
    for a, b in ((side_a, side_b), (pixel_a, pixel_b)):
        if prob == 1.0:                 # every on-sensor neighbour fires
            assert np.array_equal(a, b)
        else:
            seen = a + b > 0
            assert stats.chi2_contingency([a[seen], b[seen]])[1] > 1e-3


def test_detected_singles_scale_with_pde(reference_system, pm_params):
    rates = {}
    src = OcmPairSource(Aperture.point(), reference_system, pm_params, 1e6)
    pos = sample_event_positions(src, 21, 50_000,
                                 DetectorConfig(pde=1.0, dark_count_rate=0.0))
    for pde in (0.2, 0.5, 1.0):
        cfg = DetectorConfig(pde=pde, dark_count_rate=0.0, crosstalk_prob=0.0)
        ev = apply_detector_model(pos, cfg, 22)
        rates[pde] = len(ev)
    slope = np.polyfit(np.log(list(rates)), np.log(list(rates.values())), 1)[0]
    assert abs(slope - 1.0) < 0.02


# ---------------------------------------------------------------------------
# acquisition
# ---------------------------------------------------------------------------

def test_source_hash_identifies_the_source(reference_system, triple_slit):
    """Sources that sample different densities hash differently; the same
    inputs hash the same."""
    double = Aperture.slits(2, 70e-6, 110e-6, slit_length=300e-6)
    wider = ImagingSystem(reference_system.pupil_radius,
                          reference_system.object_distance,
                          reference_system.wavelength, 3.0)
    rng = np.random.default_rng(5)
    spec = GridSpec.centered(16, 20e-6)
    masks = [Aperture.from_mask(FieldGrid.from_spec(spec, rng.uniform(
        size=(16, 16)))) for _ in range(2)]

    def crystal(length):
        return PhaseMatchingParams.from_wavelengths(length, 810e-9, 810e-9,
                                                    50e-3)

    groups = [
        [OcmPairSource(triple_slit, reference_system, crystal(5e-3), 1e6),
         OcmPairSource(double, wider, crystal(1e-3), 1e6),
         OcmPairSource(masks[0], reference_system, crystal(5e-3), 1e6),
         OcmPairSource(masks[1], reference_system, crystal(5e-3), 1e6)],
        [ClassicalSource(triple_slit, reference_system, 1e6),
         ClassicalSource(Aperture.rectangle(200e-6, 300e-6),
                         reference_system, 1e6),
         ClassicalSource(triple_slit, wider, 1e6)],
        [FarFieldPairSource(a, 4.6e-8, 1e6)
         for a in (triple_slit, double, *masks)],
    ]
    for group in groups:
        hashes = [stable_hash(s.describe()) for s in group]
        assert len(set(hashes)) == len(group)
    again = OcmPairSource(triple_slit, reference_system, crystal(5e-3), 1e6)
    assert stable_hash(again.describe()) == \
        stable_hash(groups[0][0].describe())


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -5.0])
def test_sources_refuse_a_rate_not_finite_and_positive(reference_system,
                                                       triple_slit, pm_params,
                                                       rate):
    builders = [
        lambda: OcmPairSource(triple_slit, reference_system, pm_params, rate),
        lambda: ClassicalSource(triple_slit, reference_system, rate),
        lambda: FarFieldPairSource(triple_slit, 4.6e-8, rate)]
    for build in builders:
        with pytest.raises(ValueError, match="finite and > 0"):
            build()


def test_pair_sources_are_pairs_by_construction(reference_system,
                                                pm_params):
    """Neither pair source takes a photon number; each keeps its
    ``n_photons: 2`` entry, so ``describe()`` and every ``source_hash``
    keep their bytes."""
    with pytest.raises(TypeError):
        OcmPairSource(Aperture.point(), reference_system, pm_params, 1e6,
                      n_photons=2)
    with pytest.raises(TypeError):
        FarFieldPairSource(Aperture.point(), 4.6e-8, 1e6, n_photons=2)
    ocm = OcmPairSource(Aperture.point(), reference_system, pm_params, 1e6)
    assert ocm.n_photons == ocm.describe()["n_photons"] == 2
    far = FarFieldPairSource(Aperture.point(), 4.6e-8, 1e6)
    assert far.n_photons == 2
    assert far.describe() == {
        "kind": "far_field_pairs",
        "aperture": {"kind": "point", "line_width": 0.0, "pitch": 0.0,
                     "n_slits": 0, "slit_length": None, "size": [0.0, 0.0],
                     "waist": 0.0, "center": [0.0, 0.0], "mask": None},
        "scale": 4.6e-8, "pair_rate": 1e6, "n_photons": 2,
        "correlation_sigma": 0.5 * 43.75e-6}


@pytest.mark.parametrize("system_nm, signal_nm, idler_nm", [
    (700, 810, 810), (810, 790, 830)], ids=["system_off", "non_degenerate"])
def test_pair_source_refuses_photons_off_the_system_wavelength(
        reference_system, triple_slit, system_nm, signal_nm, idler_nm):
    """The centroid law images at the system wavelength and the deviation
    law maps both photons with the signal frequency, so each pair photon
    must be at the system wavelength."""
    system = reference_system.with_wavelength(system_nm * 1e-9)
    pm = PhaseMatchingParams.from_wavelengths(5e-3, signal_nm * 1e-9,
                                              idler_nm * 1e-9, 50e-3)
    with pytest.raises(ValueError, match="both be at the system wavelength"):
        OcmPairSource(triple_slit, system, pm, 1e6)


def test_frame_count_exact(point_pair_source, ideal_detector):
    stream = run_acquisition(point_pair_source, ideal_detector, 0.01, 3)
    assert stream.n_frames == 8000


@pytest.mark.parametrize("wall_time", [1e300, float("inf")])
def test_wall_time_past_the_frame_limit_is_refused_before_any_block(
        point_pair_source, ideal_detector, monkeypatch, wall_time):
    """An event stream holds at most 2**63 frames; a longer run is refused
    before its source density is built or its first block is drawn."""
    monkeypatch.setattr(OcmPairSource, "sampler",
                        lambda *args: pytest.fail("sampler built"))
    with pytest.raises(ValueError, match="more than 2\\*\\*63 frames"):
        run_acquisition(point_pair_source, ideal_detector, wall_time, 3)


def test_acquisition_file_determinism(tmp_path):
    cfg = load_config(CONFIG, ["acquisition.wall_time_s=0.002",
                               "acquisition.seed=99"])
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        cmd_simulate(cfg, tmp_path / name)
    for file in ("events.ocme", "events.ocme.manifest.txt"):
        assert (tmp_path / "a" / file).read_bytes() == \
            (tmp_path / "b" / file).read_bytes()


def test_manifest_duty_cycle(tmp_path):
    cfg = load_config(CONFIG, ["acquisition.wall_time_s=0.001",
                               "acquisition.seed=4"])
    cmd_simulate(cfg, tmp_path)
    manifest = read_manifest(tmp_path / "events.ocme.manifest.txt")
    assert manifest["duty_cycle"] == 0.036
    assert manifest["n_frames"] == 800
    events = read_events(tmp_path / "events.ocme")
    assert manifest["events_written"] == len(events)
    assert manifest["pairs_generated"] == events.meta["pairs_generated"]


def test_thread_count_does_not_change_stream(point_pair_source, ideal_detector):
    # 3.5 blocks of each config's own length; the real sensor's are sized by
    # its sparse events, longer than the shortest block
    noisy = DetectorConfig(pde=0.3, dark_count_rate=1e3, crosstalk_prob=0.01)
    real = DetectorConfig()
    assert _block_frames(point_pair_source, real) > _MIN_BLOCK_FRAMES
    for cfg in (ideal_detector, noisy, real):
        block = _block_frames(point_pair_source, cfg)
        wall = 3.5 * block / cfg.frame_rate
        a = run_acquisition(point_pair_source, cfg, wall, 31, n_threads=1)
        assert a.n_frames > 3 * block and len(a) > 0
        for n_threads in (2, 4):
            assert_same_stream(a, run_acquisition(point_pair_source, cfg,
                                                  wall, 31, n_threads))


@pytest.mark.parametrize("n_threads", [1, 2])
def test_acquired_streams_are_in_readout_order(point_pair_source, n_threads):
    """Strictly increasing (frame, ix, iy): frame blocks merge in order, and
    each frame holds at most one event per pixel, in pixel order, even where
    hot darks and crosstalk hit one pixel more than once in a frame."""
    cfg = DetectorConfig(n_pixels_x=4, n_pixels_y=3, pde=0.5,
                         dark_count_rate=1e6, crosstalk_prob=0.3)
    for seed in (1, 2, 3):
        ev = run_acquisition(point_pair_source, cfg, 0.1, seed,
                             n_threads=n_threads)
        assert ev.n_frames > _block_frames(point_pair_source, cfg)
        key = (ev.frame.astype(np.int64) * 4 + ev.ix) * 3 + ev.iy
        assert np.all(np.diff(key) > 0)


@pytest.mark.parametrize("noise", [
    dict(dark_count_rate=0.0, crosstalk_prob=0.0),
    dict(dark_count_rate=1e4, crosstalk_prob=0.0),
    dict(dark_count_rate=0.0, crosstalk_prob=0.05),
    dict(dark_count_rate=1e4, crosstalk_prob=0.05),
], ids=["ideal", "darks", "crosstalk", "darks_crosstalk"])
def test_pde_one_acquisition_equals_unthinned(point_pair_source, noise):
    # at pde = 1 every tuple leaves a detection, so thinning draws nothing
    # differently and the stream is the unthinned model's, bit for bit
    cfg = DetectorConfig(pde=1.0, **noise)
    for source in (point_pair_source, PointSource(waist=300e-6, rate=5e6)):
        assert_same_stream(run_acquisition(source, cfg, 0.2, 41),
                           unthinned_acquisition(source, cfg, 0.2, 41))


def test_thinned_acquisition_matches_unthinned_in_distribution(
        reference_system, pm_params, triple_slit):
    # independent seeds; one pair per frame keeps the centroid samples
    # independent, so the chi-square tests are exact in the large-count limit
    src = OcmPairSource(triple_slit, reference_system, pm_params, 2.2e7)
    cfg = DetectorConfig(pde=0.3, dark_count_rate=1e4, crosstalk_prob=0.02)
    thinned = run_acquisition(src, cfg, 0.25, 1)
    reference = unthinned_acquisition(src, cfg, 0.25, 2)

    def centroids(stream):
        pairs = extract_coincidences(stream, one_pair_per_frame=True)
        return pairs, np.bincount((pairs.cx // 2) * 32 + pairs.cy // 2,
                                  minlength=32 * 32)

    def events_per_frame(stream):
        k = np.bincount(np.bincount(stream.frame.astype(np.int64),
                                    minlength=stream.n_frames))
        return np.r_[k[:5], k[5:].sum()]           # 0, 1, 2, 3, 4, 5+ events

    (pa, ha), (pb, hb) = centroids(thinned), centroids(reference)
    sparse = ha + hb < 10
    table = [np.r_[h[~sparse], h[sparse].sum()] for h in (ha, hb)]
    assert stats.chi2_contingency(table)[1] > 1e-3
    table = [events_per_frame(s) for s in (thinned, reference)]
    assert stats.chi2_contingency(table)[1] > 1e-3

    assert len(pa) > 10_000
    assert abs(len(pa) - len(pb)) < 5 * np.sqrt(len(pa) + len(pb))
    mean = src.pair_rate * cfg.frame_duration * thinned.n_frames
    for stream in (thinned, reference):
        assert abs(stream.meta["pairs_generated"] - mean) < 5 * np.sqrt(mean)


# ---------------------------------------------------------------------------
# emission: one Poisson total per frame block, placed on uniform frames
# ---------------------------------------------------------------------------

def placed_counts(seed: int, mean: float, n_frames: int,
                  block: int) -> np.ndarray:
    """Tuples per frame from ``_tuple_frames``, block by block."""
    rng = np.random.default_rng(seed)
    ids = np.concatenate([
        start + _tuple_frames(rng, mean, min(block, n_frames - start))
        for start in range(0, n_frames, block)])
    return np.bincount(ids.astype(np.int64), minlength=n_frames)


@pytest.mark.parametrize("pair_rate, cfg", [
    (1e7, DetectorConfig()),
    (1 / 45e-9, DetectorConfig(pde=1.0, dark_count_rate=0.0,
                               crosstalk_prob=0.0)),
], ids=["real_sensor", "ideal"])
def test_block_total_placement_gives_poisson_counts_per_frame(
        point_pair_source, pair_rate, cfg):
    # the thinned tuple rate per frame (0.0072 at the real sensor, 1 at the
    # ideal one), over 16 blocks of the acquisition's own length
    source = replace(point_pair_source, pair_rate=pair_rate)
    mean = pair_rate * cfg.frame_duration * (1 - (1 - cfg.pde) ** 2)
    block = _block_frames(source, cfg)
    n = 16 * block
    placed = placed_counts(3, mean, n, block)
    reference = per_frame_counts(np.random.default_rng(4), mean, n)

    def histogram(counts):                 # frames with 0, 1, 2, 3, 4, 5+
        k = np.bincount(counts, minlength=6)
        return np.r_[k[:5], k[5:].sum()]

    ha, hb = histogram(placed), histogram(reference)
    last = np.flatnonzero(ha + hb >= 10)[-1]    # pool the sparse tail
    table = [np.r_[h[:last], h[last:].sum()] for h in (ha, hb)]
    assert len(table[0]) >= 3
    assert stats.chi2_contingency(table)[1] > 1e-3
    # sample mean and variance of i.i.d. Poisson counts, within 5 sigma
    for counts in (placed, reference):
        assert abs(counts.mean() - mean) < 5 * np.sqrt(mean / n)
        assert abs(counts.var() - mean) < 5 * np.sqrt((mean + 2 * mean ** 2)
                                                      / n)


def test_block_total_placement_is_uniform_within_each_block(
        point_pair_source, ideal_detector):
    # 2.5 blocks at 20 tuples per frame; the first and the last frame of the
    # full blocks and of the partial final block are bins of their own, so
    # a frame that an off-by-one leaves empty adds 40 or 20 to the chi-square
    mean = 20.0
    block = _block_frames(replace(point_pair_source, pair_rate=mean / 45e-9),
                          ideal_detector)
    n_frames = 2 * block + block // 2
    rng = np.random.default_rng(12)
    offsets = {block: [], block // 2: []}
    for start in range(0, n_frames, block):
        stop = min(start + block, n_frames)
        ids = _tuple_frames(rng, mean, stop - start)
        assert ids.dtype == np.uint64 and np.all(ids[:-1] <= ids[1:])
        assert ids.max() < stop - start
        offsets[stop - start].append(ids)
    chi2, dof = 0.0, 0
    for length, parts in offsets.items():
        edges = np.r_[0, np.linspace(1, length - 1, 9).round(), length]
        observed = np.histogram(np.concatenate(parts), bins=edges)[0]
        expected = observed.sum() * np.diff(edges) / length
        chi2 += float(((observed - expected) ** 2 / expected).sum())
        dof += len(observed) - 1
    assert stats.chi2.sf(chi2, dof) > 1e-3


def test_acquisition_draws_no_per_frame_poisson(monkeypatch, reference_system,
                                                pm_params, triple_slit):
    # every Poisson call of a real-sensor acquisition draws one variate: a
    # block total, its undetected tuples or its dark counts, never one count
    # per frame
    import ocmsim.detector

    sizes = []
    make_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def poisson(self, *args, **kwargs):
            draws = self._rng.poisson(*args, **kwargs)
            sizes.append(np.size(draws))
            return draws

    monkeypatch.setattr(ocmsim.detector.np.random, "default_rng",
                        lambda seed=None: CountingGenerator(make_rng(seed)))
    cfg = DetectorConfig()                     # pde 0.008, 1 kHz darks
    source = OcmPairSource(triple_slit, reference_system, pm_params, 1e7)
    block = _block_frames(source, cfg)
    stream = run_acquisition(source, cfg, 3 * block / cfg.frame_rate, 7)
    n_blocks = -(-stream.n_frames // block)
    assert stream.n_frames == 3 * block and len(stream) > 0
    assert n_blocks >= 2
    assert len(sizes) == 3 * n_blocks          # total, unseen, darks per block
    assert max(sizes) == 1


@st.composite
def packed_fields(draw):
    """Four unsigned fields with widths summing to at most 64 bits, half of
    the draws exactly 64; values cluster at 0..2 and at each field's top."""
    total = draw(st.just(64) | st.integers(4, 64))
    cuts = draw(st.lists(st.integers(1, total - 1), min_size=3, max_size=3,
                         unique=True))
    widths = [int(w) for w in np.diff([0, *sorted(cuts), total])]
    n = draw(st.integers(1, 40))
    fields = []
    for w in widths:
        top = (1 << w) - 1
        values = (st.integers(0, min(2, top)) | st.just(top)
                  | st.integers(0, top))
        fields.append(np.array(draw(st.lists(values, min_size=n, max_size=n)),
                               dtype=np.uint64))
    return fields, widths


@given(packed_fields())
def test_packed_key_order_equals_lexsort(case):
    fields, widths = case
    order = np.argsort(_pack(fields, widths), kind="stable")
    np.testing.assert_array_equal(order, np.lexsort(fields[::-1]))


@given(packed_fields())
def test_unpack_inverts_pack(case):
    fields, widths = case
    back = _unpack(_pack(fields, widths), widths, 4 * (np.uint64,))
    for field, value in zip(fields, back):
        np.testing.assert_array_equal(value, field)


@st.composite
def photon_records(draw):
    """(records, first frame, n_frames, cfg): detections on a 1-6 x 1-6
    sensor over up to 5 frames, with repeated records, a hot pixel that
    fires again and again in one frame, and crosstalk copies (a neighbour
    in the source's time bin), in random order."""
    cfg = DetectorConfig(n_pixels_x=draw(st.integers(1, 6)),
                         n_pixels_y=draw(st.integers(1, 6)))
    first, n_frames = draw(st.integers(0, 2**40)), draw(st.integers(1, 5))
    frame = st.integers(first, first + n_frames - 1)
    t_bin = st.integers(0, cfg.n_time_bins - 1)
    record = st.tuples(frame, st.integers(0, cfg.n_pixels_x - 1),
                       st.integers(0, cfg.n_pixels_y - 1), t_bin)
    rows = draw(st.lists(record, max_size=40))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=10))
        for f, x, y, t in draw(st.lists(st.sampled_from(rows), max_size=10)):
            dx, dy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
            if 0 <= x + dx < cfg.n_pixels_x and 0 <= y + dy < cfg.n_pixels_y:
                rows.append((f, x + dx, y + dy, t))
    hot = draw(record)
    rows += [(*hot[:3], t) for t in draw(st.lists(t_bin, max_size=12))]
    return draw(st.permutations(rows)), first, n_frames, cfg


@given(photon_records())
def test_first_hit_keeps_each_pixels_earliest_event(case):
    rows, first, n_frames, cfg = case
    columns = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    widths = _key_widths(n_frames, cfg)
    key = _pack((columns[0] - first, *columns[1:]), widths)
    hits = _first_hit(key, widths)
    hits[0] += np.uint64(first)
    assert [a.dtype for a in hits] == [np.uint64] + 3 * [np.uint16]
    assert list(zip(*(a.tolist() for a in hits))) == first_hit_loop(rows)


@st.composite
def detector_inputs(draw):
    """(positions, cfg, frame ids, frame count, thinned) on a 1-6 x 1-6
    sensor: 0-30 tuples of 1-3 photons, some off the sensor, over a block
    of 1-6 frames, with pde, crosstalk and dark rates from 0 to the top
    (hot darks fire a pixel several times in a frame)."""
    thinned = draw(st.booleans())
    pde = draw(st.sampled_from([0.008, 0.5, 1.0]) | st.floats(0.0, 1.0))
    cfg = DetectorConfig(
        n_pixels_x=draw(st.integers(1, 6)), n_pixels_y=draw(st.integers(1, 6)),
        pde=pde if pde > 0 or not thinned else 1.0,
        crosstalk_prob=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        dark_count_rate=draw(st.sampled_from([0.0, 1e5, 1e8])))
    n_frames = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_tuples, n_ph = draw(st.integers(0, 30)), draw(st.integers(1, 3))
    half = 0.65 * np.array(cfg.active_extent)
    positions = rng.uniform(-half, half, (n_tuples, n_ph, 2))
    frame_ids = rng.integers(0, n_frames, n_tuples, dtype=np.uint64)
    return positions, cfg, frame_ids, n_frames, thinned


@given(detector_inputs(), st.integers(0, 2**32 - 1))
def test_detect_equals_the_field_by_field_flow(case, seed):
    """Keys packed as photons and darks are drawn give the events and dtypes
    of the field arrays, fed the same draws."""
    positions, cfg, frame_ids, n_frames, thinned = case
    got = _detect(positions, cfg, np.random.default_rng(seed), frame_ids,
                  n_frames, thinned)
    want = detect_by_fields(positions, cfg, np.random.default_rng(seed),
                            frame_ids, n_frames, thinned)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@given(st.integers(1, 2**20) | st.integers(1, 2**63 - 1)
       | st.sampled_from([2**32 - 1, 2**32, 2**32 + 1]),
       st.integers(0, 300), st.integers(0, 2**32 - 1))
def test_uint64_frame_draw_equals_the_int64_draw(n, count, seed):
    """Dark frames drawn as uint64 are the values, and leave the generator
    state, of the default int64 draw."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    wide = a.integers(0, n, count, dtype=np.uint64)
    signed = b.integers(0, n, count)
    assert wide.dtype == np.uint64
    assert np.array_equal(wide, signed.astype(np.uint64))
    assert a.random() == b.random()


#: pixel or time-bin counts, half of them at the top of their bit widths
COUNTS = st.integers(1, 1 << 16) | st.integers(10, 16).map(lambda w: 1 << w)


@given(COUNTS, COUNTS, COUNTS, st.sampled_from([0.0, 1e-3, 1e3, 1e9]),
       st.sampled_from([0.0, 0.008, 1.0]),
       st.sampled_from([1e-3, 1e3, 1e7, 1e12]))
def test_block_length_is_the_shortest_that_holds_the_work(nx, ny, n_bins,
                                                          dark, pde, rate):
    """A power of two from 2**16 frames, doubled until the expected events
    reach 2**14 or the cap (2**22, or 64 key bits) stops it; the wide
    sensors make the key-bit cap the shorter one."""
    cfg = DetectorConfig(n_pixels_x=nx, n_pixels_y=ny, time_bin=1e-9,
                         frame_duration=n_bins * 1e-9, frame_rate=1e3,
                         pde=pde, dark_count_rate=dark)
    source = PointSource(waist=1e-4, rate=rate)
    block = _block_frames(source, cfg)
    cap = min(_MAX_BLOCK_FRAMES, 1 << (64 - sum(_key_widths(1, cfg))))
    assert sum(_key_widths(block, cfg)) <= 64
    assert block & (block - 1) == 0 and _MIN_BLOCK_FRAMES <= block <= cap
    per_frame = cfg.frame_duration * (rate * pde + dark * nx * ny)
    if block < cap:
        assert block * per_frame >= 1 << 14
    if block > _MIN_BLOCK_FRAMES:
        assert block // 2 * per_frame < 1 << 14


def test_block_length_at_the_widest_sort_key(point_pair_source):
    """65536 x 65536 pixels and 65536 time bins leave 16 frame bits: with
    no expected events, the block grows to the cap, the shortest block.
    Only the function runs: an acquisition on this sensor would need a
    sampler grid far too large."""
    widest = DetectorConfig(n_pixels_x=1 << 16, n_pixels_y=1 << 16,
                            time_bin=1e-9, frame_duration=(1 << 16) * 1e-9,
                            frame_rate=1e3, pde=0.0, dark_count_rate=0.0)
    assert _block_frames(point_pair_source, widest) == _MIN_BLOCK_FRAMES
    assert sum(_key_widths(_MIN_BLOCK_FRAMES, widest)) == 64


def test_block_length_follows_the_expected_events(point_pair_source):
    """The real sensor (0.053 events per frame) gets 2**19 frames, dense
    runs (1 or 20 pairs per frame, an ideal detector) the shortest block."""
    real = replace(point_pair_source, pair_rate=1e7)
    assert _block_frames(real, DetectorConfig()) == 1 << 19
    ideal = DetectorConfig(pde=1.0, dark_count_rate=0.0, crosstalk_prob=0.0)
    for pairs_per_frame in (1.0, 20.0):
        dense = replace(point_pair_source,
                        pair_rate=pairs_per_frame / ideal.frame_duration)
        assert _block_frames(dense, ideal) == _MIN_BLOCK_FRAMES


def test_sort_key_wider_than_64_bits_is_a_typed_error(ideal_detector):
    # 2**50 frames, 32 x 32 pixels and 220 time bins need 50+5+5+8 bits
    with pytest.raises(SortKeyOverflow):
        apply_detector_model(np.zeros((1, 2, 2)), ideal_detector, 1,
                             frame_ids=[0], frame_range=(0, 1 << 50))


def test_frame_ids_outside_frame_range_rejected(ideal_detector):
    with pytest.raises(ValueError):
        apply_detector_model(np.zeros((1, 2, 2)), ideal_detector, 1,
                             frame_ids=[5], frame_range=(0, 3))


@pytest.mark.parametrize("positions, frame_ids", [
    (np.zeros((3, 2, 2)), np.arange(5)),
    (np.zeros((3, 2, 2)), np.arange(1)),
    (np.zeros((3, 2, 2)), np.array([[0, 1, 2]])),
    (np.zeros((3, 2)), None),
    (np.zeros((1, 2, 2)), np.array([1.7])),
    (np.zeros((1, 2, 2)), np.array([True])),
    (np.zeros((1, 2, 2)), np.array([-1])),
    (np.full((3, 2, 2), np.nan), None),
    (np.array([[[0.0, 0.0], [np.inf, 0.0]]]), None),
], ids=["more_ids_than_tuples", "fewer_ids_than_tuples", "ids_2d",
        "positions_without_photon_axis", "fractional_id", "bool_id",
        "negative_id", "nan_positions", "infinite_position"])
def test_tuples_breaking_the_contract_are_refused(ideal_detector, positions,
                                                  frame_ids):
    """``apply_detector_model`` owns the tuple contract: finite positions of
    shape (n_tuples, N, 2) and one integer frame id in range per tuple."""
    with pytest.raises(ValueError):
        apply_detector_model(positions, ideal_detector, 1, frame_ids,
                             None if frame_ids is None else (0, 5))


def test_any_integer_frame_ids_are_accepted(ideal_detector):
    pos = np.array([[[-0.3e-3, -0.3e-3], [0.3e-3, 0.3e-3]]] * 2)
    want = apply_detector_model(pos, ideal_detector, 4,
                                np.array([3, 1], np.uint64), (0, 4))
    for ids in ([3, 1], np.array([3, 1], np.int8)):
        got = apply_detector_model(pos, ideal_detector, 4, ids, (0, 4))
        for name in ("frame", "ix", "iy", "t_bin"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    empty = apply_detector_model(np.empty((0, 2, 2)), ideal_detector, 4, [],
                                 (0, 4))
    assert (len(empty), empty.n_frames) == (0, 4)


def test_frame_range_starts_at_frame_0(tmp_path, ideal_detector):
    """A range from frame 5 gave a stream of frame 5 in 1 frame, which
    its own event file could not hold; from frame 0 it reads back."""
    with pytest.raises(ValueError, match=r"got \(5, 6\)"):
        apply_detector_model(np.zeros((1, 2, 2)), ideal_detector, 1,
                             frame_ids=[5], frame_range=(5, 6))
    events = apply_detector_model(np.zeros((1, 2, 2)), ideal_detector, 1,
                                  frame_ids=[5], frame_range=(0, 6))
    assert (events.frame.tolist(), events.n_frames) == ([5], 6)
    write_events(tmp_path / "five.ocme", events)
    assert read_events(tmp_path / "five.ocme").frame.tolist() == [5]


def test_empirical_centroid_histogram_converges(reference_system, pm_params,
                                                ideal_detector, triple_slit):
    # detected-pair centroid histogram vs the analytic image marginal
    src = OcmPairSource(triple_slit, reference_system, pm_params, 1e6)
    n = 1_000_000
    pos = sample_event_positions(src, 17, n, ideal_detector)
    centroids = pos.mean(axis=1)
    cfg = ideal_detector
    edges = np.linspace(-0.7e-3, 0.7e-3, 64)
    hist, _, _ = np.histogram2d(centroids[:, 0], centroids[:, 1],
                                bins=(edges, edges))
    density = src.centroid_density(cfg)
    xc = (edges[:-1] + edges[1:]) / 2
    pts = np.stack(np.meshgrid(xc, xc, indexing="ij"), axis=-1)
    expected = density.interpolate(pts)
    a = hist / hist.sum()
    b = expected / expected.sum()
    assert np.abs(a - b).sum() < 0.05
