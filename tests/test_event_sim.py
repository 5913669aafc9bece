import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import unthinned_acquisition
from scipy import stats

from ocmsim import (Aperture, ClassicalSource, DetectorConfig,
                    FarFieldPairSource, FieldGrid, GridSpec, ImagingSystem,
                    OcmPairSource, PhaseMatchingParams, PointSource,
                    apply_detector_model, extract_coincidences, ocm_image,
                    run_acquisition, sample_event_positions)
from ocmsim.detector import _DensitySampler, _pack
from ocmsim.errors import SortKeyOverflow, UnnormalizableDensity
from ocmsim.events_io import stable_hash


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


def test_config_dict_round_trip():
    cfg = DetectorConfig(pde=0.42, crosstalk_prob=0.0)
    back = DetectorConfig.from_dict(cfg.to_dict())
    assert back == cfg


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


def test_zero_density_rejected():
    with pytest.raises(UnnormalizableDensity):
        _DensitySampler(FieldGrid(np.zeros((8, 8)), 1e-5, 1e-5))


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
    np.testing.assert_array_equal(
        np.lexsort((apart.iy, apart.ix, apart.t_bin)), np.arange(200))
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


def test_frame_count_exact(point_pair_source, ideal_detector):
    stream = run_acquisition(point_pair_source, ideal_detector, 0.01, 3)
    assert stream.n_frames == 8000


def test_acquisition_file_determinism(tmp_path, point_pair_source,
                                      ideal_detector):
    p1, p2 = tmp_path / "a.ocme", tmp_path / "b.ocme"
    run_acquisition(point_pair_source, ideal_detector, 0.002, 99, out_path=p1)
    run_acquisition(point_pair_source, ideal_detector, 0.002, 99, out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    m1 = (tmp_path / "a.ocme.manifest.txt").read_text()
    m2 = (tmp_path / "b.ocme.manifest.txt").read_text()
    assert m1.replace("a.ocme", "") == m2.replace("b.ocme", "")


def test_manifest_duty_cycle(tmp_path, point_pair_source, ideal_detector):
    path = tmp_path / "run.ocme"
    run_acquisition(point_pair_source, ideal_detector, 0.001, 4, out_path=path)
    from ocmsim import read_manifest
    manifest = read_manifest(tmp_path / "run.ocme.manifest.txt")
    assert manifest["duty_cycle"] == "0.036"
    assert manifest["n_frames"] == "800"


def test_thread_count_does_not_change_stream(point_pair_source, ideal_detector):
    noisy = DetectorConfig(pde=0.3, dark_count_rate=1e3, crosstalk_prob=0.01)
    for cfg in (ideal_detector, noisy):
        a = run_acquisition(point_pair_source, cfg, 0.2, 31, n_threads=1)
        b = run_acquisition(point_pair_source, cfg, 0.2, 31, n_threads=4)
        assert_same_stream(a, b)


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


def test_sort_key_wider_than_64_bits_is_a_typed_error(ideal_detector):
    # 2**50 frames, 32 x 32 pixels and 220 time bins need 50+5+5+8 bits
    with pytest.raises(SortKeyOverflow):
        apply_detector_model(np.zeros((1, 2, 2)), ideal_detector, 1,
                             frame_ids=[0], frame_range=(0, 1 << 50))


def test_frame_ids_outside_frame_range_rejected(ideal_detector):
    with pytest.raises(ValueError):
        apply_detector_model(np.zeros((1, 2, 2)), ideal_detector, 1,
                             frame_ids=[5], frame_range=(0, 3))


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
