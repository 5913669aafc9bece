import warnings
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ocmsim import (Aperture, FieldGrid, GridSpec, ImagingSystem,
                    PupilProfile, coherent_image, deviation_envelope,
                    fourier_transform_2d, image, incoherent_image,
                    single_lens_psf, somb)
from ocmsim.config import load_config
from ocmsim.errors import GridTooCoarse
from ocmsim.optics import J1_FIRST_ZERO, _fast_len, _linear_convolution

from conftest import BENCHMARK_SETTINGS, first_zero_of
from oracles import (SpacingMismatch, coherent_image_quadrature, convolve2d,
                     direct_convolution, image_doubled_kernel,
                     j1_first_root_bisect, linear_convolution_scipy,
                     somb_reference, somb_scipy)


# ---------------------------------------------------------------------------
# somb
# ---------------------------------------------------------------------------

def test_somb_at_zero():
    assert somb(0.0) == 1.0


def test_somb_vanishes_at_first_bessel_root():
    root = j1_first_root_bisect()           # independent series + bisection
    assert abs(root - 3.8317059702) < 1e-9
    assert abs(somb(root)) < 1e-9


def test_somb_is_even():
    for x in (0.5, 2.0, 7.0):
        assert somb(-x) == somb(x)


def test_somb_matches_series_reference():
    xs = np.linspace(0.05, 25.0, 113)
    ref = np.array([somb_reference(float(x)) for x in xs])
    np.testing.assert_allclose(somb(xs), ref, atol=1e-12)


# the x = 5 seam between the Cephes rational and Hankel forms, subnormals,
# the first zero and both ends of the float range
SOMB_EDGES = [0.0, 5.0, -5.0, np.nextafter(5.0, 0.0), np.nextafter(5.0, 6.0),
              5.0 - 1e-15, 5.0 + 1e-15, 5e-324, -1e-310, 1e-300, 1e300,
              -1e300, J1_FIRST_ZERO, -J1_FIRST_ZERO]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_somb_equals_scipy_j1_bit_for_bit(values):
    x = np.array(values)
    assert np.array_equal(somb(x), somb_scipy(x))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_somb_of_a_scalar_is_the_float_scipy_gives(x):
    got = somb(np.float64(x))
    assert type(got) is float and got == somb_scipy(x)


def test_somb_equals_scipy_j1_across_blocks_and_seams():
    rng = np.random.default_rng(11)
    x = np.concatenate([SOMB_EDGES, rng.uniform(-400.0, 400.0, 70001),
                        rng.uniform(-5.0, 5.0, 3000)])
    rng.shuffle(x)
    assert np.array_equal(somb(x), somb_scipy(x))
    grid = x[:69000].reshape(230, 300)[::2, ::3]     # strided 2-d input
    assert np.array_equal(somb(grid), somb_scipy(grid))


def test_somb_non_finite_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert somb(np.inf) == 0.0 and somb(-np.inf) == 0.0
        assert np.isnan(somb(np.nan))
        got = somb(np.array([np.inf, np.nan, -np.inf, 0.0, 6.0, 1.0]))
    assert got[[0, 2]].tolist() == [0.0, 0.0] and np.isnan(got[1])
    assert np.array_equal(got[3:], somb_scipy([0.0, 6.0, 1.0]))


# ---------------------------------------------------------------------------
# single-lens PSF
# ---------------------------------------------------------------------------

def test_psf_first_zero_810(reference_system, psf_grid):
    h = single_lens_psf(reference_system, psf_grid)
    assert h.values[256, 256] == 1.0
    fz = first_zero_of(h.x_axis(), h.values[:, 256])
    assert abs(fz - 127.1e-6) < 0.5e-6


def test_psf_first_zero_405(reference_system, psf_grid):
    h = single_lens_psf(reference_system.with_wavelength(405e-9), psf_grid)
    fz = first_zero_of(h.x_axis(), h.values[:, 256])
    assert abs(fz - 63.6e-6) < 0.3e-6


def test_psf_rejects_coarse_grid(reference_system):
    r0 = reference_system.first_zero_radius
    with pytest.raises(GridTooCoarse):
        single_lens_psf(reference_system, GridSpec.centered(64, r0 / 3))


def test_gaussian_pupil_psf_is_gaussian():
    sys_ = ImagingSystem(1.38e-3, 0.355, 810e-9, 2.4,
                         PupilProfile.GAUSSIAN, pupil_sigma=0.5e-3)
    sigma = sys_.psf_sigma
    spec = GridSpec.centered(128, sigma / 6)
    h = single_lens_psf(sys_, spec)
    x = h.x_axis()
    expected = np.exp(-x ** 2 / (2 * sigma ** 2))
    np.testing.assert_allclose(h.values[:, 64], expected, atol=1e-12)


@st.composite
def psf_specs(draw):
    """Grids from 0.025 to 0.5 first-zero radii per sample, with origins
    anywhere from a whole axis left of 0 to right of it, centred ones too."""
    r0 = 127e-6
    nx, ny = draw(st.integers(2, 60)), draw(st.integers(2, 60))
    dx, dy = (draw(st.floats(0.025, 0.5)) * r0 for _ in range(2))
    origin = []
    for n, d in ((nx, dx), (ny, dy)):
        shift = draw(st.sampled_from([0.0, 0.5]) | st.floats(-1.0, 1.0))
        origin.append(-(draw(st.integers(0, n)) + shift) * d)
    return GridSpec(nx, ny, dx, dy, tuple(origin))


@given(psf_specs(), st.integers(1, 3), st.booleans())
def test_psf_on_axes_equals_direct_evaluation(spec, order, gaussian):
    # on broadcast axes h is evaluated per distinct (|x|, |y|) and gathered
    sys_ = (ImagingSystem(1.38e-3, 0.355, 810e-9, 2.4,
                          PupilProfile.GAUSSIAN, pupil_sigma=0.5e-3)
            if gaussian else ImagingSystem(1.38e-3, 0.355, 810e-9, 2.4))
    got = FieldGrid.sample(spec, lambda x, y: sys_.psf_amplitude(x, y, order))
    X, Y = np.meshgrid(spec.x_axis(), spec.y_axis(), indexing="ij")
    assert np.array_equal(got.values, sys_.psf_amplitude(X, Y, order))


@st.composite
def psf_axes(draw):
    """An x column and a y row of whole multiples of two spacings (dy a
    multiple or a fraction of dx, or unrelated), each shifted by a fraction
    of its spacing or not, of unequal lengths and with repeated and shared
    |values|, so that the pairs (a, b) and (b, a) of the mirror both occur."""
    dx = draw(st.floats(0.025, 0.5)) * 127e-6
    dy = dx * draw(st.sampled_from([1.0, 2.0, 0.5, 3.0]) | st.floats(0.2, 5.0))
    axes = []
    for d in (dx, dy):
        k = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=30))
        shift = draw(st.sampled_from([0.0, 0.5, -0.25]) | st.floats(-1.0, 1.0))
        axes.append((np.array(k) + shift) * d)
    return axes[0][:, None], axes[1][None, :]


@given(psf_axes(), st.integers(1, 3), st.booleans())
def test_psf_on_axes_equals_hypot_evaluation(axes, order, gaussian):
    # each unordered pair {|x|, |y|} is evaluated once and mirrored: a
    # transposed or misplaced mirror changes values where |x| != |y|
    sys_ = (ImagingSystem(1.38e-3, 0.355, 810e-9, 2.4,
                          PupilProfile.GAUSSIAN, pupil_sigma=0.5e-3)
            if gaussian else ImagingSystem(1.38e-3, 0.355, 810e-9, 2.4))
    x, y = axes
    want = sys_._psf_of_radius(np.hypot(x, y), order)
    assert np.array_equal(sys_.psf_amplitude(x, y, order), want)


CONFIG = Path(__file__).parent.parent / "configs" / "default.yaml"


@BENCHMARK_SETTINGS
def test_centroid_density_unchanged_by_psf_gather(monkeypatch, overrides):
    # the sampler's density, with the PSF kernel gathered and evaluated
    # directly on full grids, is the same to the last bit
    cfg = load_config(CONFIG, overrides)
    source, detector = cfg.source(), cfg.detector()

    def digest():
        values = source.centroid_density(detector).values
        return sha256(np.ascontiguousarray(values).tobytes()).hexdigest()

    gathered = digest()
    direct = ImagingSystem.psf_amplitude
    monkeypatch.setattr(ImagingSystem, "psf_amplitude",
                        lambda self, x, y, order=1:
                        direct(self, *np.broadcast_arrays(x, y), order))
    assert digest() == gathered


@BENCHMARK_SETTINGS
def test_deviation_density_equals_direct_evaluation(overrides):
    # the envelope, evaluated per distinct (|kx|, |ky|) and gathered, is its
    # direct evaluation on the full 256 x 256 grid to the last bit
    cfg = load_config(CONFIG, overrides)
    source = cfg.source()
    got = source.deviation_density(cfg.detector())
    X, Y = np.meshgrid(got.x_axis(), got.y_axis(), indexing="ij")
    env = deviation_envelope(np.stack([X, Y], axis=-1), source.phase_matching)
    assert got.values.shape == (256, 256)
    assert np.array_equal(got.values, np.abs(env) ** 2)


@BENCHMARK_SETTINGS
def test_weighted_reconstruction_divides_by_the_sampled_law(overrides):
    # the weight of ``weighted`` mode, at the sample points of the pair
    # source's deviation grid, is that grid to the last bit: one law
    cfg = load_config(CONFIG, overrides)
    grid = cfg.source().deviation_density(cfg.detector())
    X, Y = np.meshgrid(grid.x_axis(), grid.y_axis(), indexing="ij")
    assert np.array_equal(cfg.deviation_weight()(X, Y), grid.values)


# ---------------------------------------------------------------------------
# the padded FFT convolution inside ``image``, against scipy.fft
# ---------------------------------------------------------------------------

def test_fast_len_equals_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    for n in range(1, 4097):
        assert _fast_len(n) == next_fast_len(n, True)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
       st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.data())
def test_linear_convolution_equals_scipy_fft_bit_for_bit(nf0, nf1, ng0, ng1,
                                                         seed, data):
    rng = np.random.default_rng(seed)
    f, g = rng.normal(size=(nf0, nf1)), rng.normal(size=(ng0, ng1))
    ref = linear_convolution_scipy(f, g)
    full = tuple(_fast_len(n) for n in ref.shape)
    assert np.array_equal(_linear_convolution(f, g, full), ref)
    start = data.draw(st.integers(0, ref.shape[0] - 1))
    stop = data.draw(st.integers(start + 1, ref.shape[0]))
    rows = _linear_convolution(f, g, full, slice(start, stop))
    assert np.array_equal(rows, ref[start:stop])


@given(st.integers(1, 12), st.integers(1, 12), st.integers(2, 30),
       st.integers(2, 30), st.integers(0, 2 ** 32 - 1), st.data())
def test_convolution_at_the_kernel_length_keeps_the_linear_window(
        b0, b1, n0, n1, seed, data):
    # as ``image`` runs it: a box of B samples, a kernel of n + B - 1 and a
    # circular length from the kernel's own up, so output p at index
    # p + B - 1 does not wrap
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(b0, b1))
    g = rng.normal(size=(n0 + b0 - 1, n1 + b1 - 1))
    lengths = tuple(data.draw(st.sampled_from((n, _fast_len(n))))
                    for n in g.shape)
    rows, cols = slice(b0 - 1, b0 - 1 + n0), slice(b1 - 1, b1 - 1 + n1)
    got = _linear_convolution(f, g, lengths, rows)[:, cols]
    ref = direct_convolution(f, g, 1.0, 1.0).real[rows, cols]
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    circular = linear_convolution_scipy(f, g, lengths)
    assert np.array_equal(_linear_convolution(f, g, lengths), circular)
    assert np.array_equal(got, circular[rows, cols])


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 20),
       st.integers(2, 40), st.integers(0, 2 ** 32 - 1), st.data())
def test_convolution_of_gathered_kernel_rows_equals_scipy(b0, b1, q0, k0,
                                                          seed, data):
    # ``image`` passes the PSF quadrant and the kernel's rows into it: the
    # distinct rows' spectra, gathered, are those of the gathered kernel
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(b0, b1))
    quadrant = rng.normal(size=(q0, data.draw(st.integers(1, 30))))
    g_rows = rng.integers(0, q0, size=k0)
    g = quadrant[g_rows]
    lengths = tuple(data.draw(st.sampled_from((n, _fast_len(n))))
                    for n in (b0 + k0 - 1, b1 + g.shape[1] - 1))
    start = data.draw(st.integers(0, b0 + k0 - 2))
    rows = slice(start, data.draw(st.integers(start + 1, b0 + k0 - 1)))
    got = _linear_convolution(f, quadrant, lengths, rows, g_rows)
    assert np.array_equal(got, linear_convolution_scipy(f, g, lengths)[rows])


# ---------------------------------------------------------------------------
# convolution: the reference that ``image_doubled_kernel`` builds on
# ---------------------------------------------------------------------------

def test_convolution_delta_identity():
    spec = GridSpec.centered(48, 4e-6)
    g = FieldGrid.sample(spec, lambda x, y: np.exp(-(x ** 2 + y ** 2)
                                                   / (2 * (30e-6) ** 2)))
    delta = FieldGrid(np.zeros((48, 48)), 4e-6, 4e-6, spec.origin)
    delta.values[24, 24] = 1.0 / (4e-6 * 4e-6)
    out = convolve2d(g, delta)
    # the delta sits 24 samples into its grid, so g reappears 24 samples in
    err = np.abs(out.values[24:72, 24:72] - g.values).max() \
        / np.abs(g.values).max()
    assert err < 1e-9


def test_convolution_matches_direct_sum():
    rng = np.random.default_rng(11)
    f = FieldGrid(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
                  1e-6, 1e-6, (-8e-6, -8e-6))
    g = FieldGrid(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
                  1e-6, 1e-6, (-8e-6, -8e-6))
    out = convolve2d(f, g)
    ref = direct_convolution(f.values, g.values, 1e-6, 1e-6)
    err = np.linalg.norm(out.values - ref) / np.linalg.norm(ref)
    assert err < 1e-10
    assert out.origin == (-16e-6, -16e-6)


def test_convolution_of_gaussians_widens_by_sqrt2():
    sigma = 40e-6
    spec = GridSpec.centered(128, 5e-6)
    g = FieldGrid.sample(spec, lambda x, y: np.exp(-(x ** 2 + y ** 2)
                                                   / (2 * sigma ** 2)))
    out = convolve2d(g, g)
    x = out.x_axis()
    profile = out.values[:, out.ny // 2].real
    # fit the log-parabola for the std
    sel = profile > profile.max() * 1e-3
    coef = np.polyfit(x[sel], np.log(profile[sel]), 2)
    fitted = np.sqrt(-1.0 / (2 * coef[0]))
    assert abs(fitted - sigma * np.sqrt(2)) / (sigma * np.sqrt(2)) < 0.005


def test_convolution_spacing_mismatch():
    f = FieldGrid(np.ones((8, 8)), 1e-6, 1e-6)
    g = FieldGrid(np.ones((8, 8)), 2e-6, 2e-6)
    with pytest.raises(SpacingMismatch):
        convolve2d(f, g)


def test_convolution_commutative_associative():
    rng = np.random.default_rng(12)
    spec = GridSpec.centered(16, 1e-6)
    a, b, c = (FieldGrid.from_spec(spec, rng.normal(size=(16, 16)))
               for _ in range(3))
    ab = convolve2d(a, b)
    ba = convolve2d(b, a)
    assert np.linalg.norm(ab.values - ba.values) / np.linalg.norm(ab.values) < 1e-9
    abc1 = convolve2d(convolve2d(a, b), c)
    abc2 = convolve2d(a, convolve2d(b, c))
    err = np.linalg.norm(abc1.values - abc2.values) / np.linalg.norm(abc1.values)
    assert err < 1e-9


# ---------------------------------------------------------------------------
# imaging
# ---------------------------------------------------------------------------

def test_point_object_image_is_psf_squared(reference_system, psf_grid):
    img = coherent_image(Aperture.point(), reference_system, psf_grid)
    # image axes are object axes scaled by m
    fz = first_zero_of(img.x_axis(), np.sqrt(img.values[:, 256])
                       * np.sign(single_lens_psf(reference_system,
                                                 psf_grid).values[:, 256]))
    assert abs(fz - 2.4 * 127.1e-6) < 2.4 * 0.5e-6


def test_uniform_aperture_gives_flat_interior(reference_system):
    # the coherent edge ringing decays as 1/(k d): the interior must sit far
    # from the plateau boundary for the ripple to drop below 1%
    r0 = reference_system.first_zero_radius
    spec = GridSpec.centered(1024, r0 / 4)
    img = coherent_image(Aperture.uniform(), reference_system, spec)
    n = img.nx
    interior = img.values[n // 2 - 10:n // 2 + 10, n // 2 - 10:n // 2 + 10]
    ripple = (interior.max() - interior.min()) / interior.max()
    assert ripple < 0.01


def test_triple_slit_central_slit_unresolved_at_810(reference_system):
    # 70 um lines; at this pitch the coherent 810 nm image is a single
    # envelope: no interior local minimum below 95% of peak between centers
    pitch = 100e-6
    ap = Aperture.slits(3, 70e-6, pitch, slit_length=300e-6)
    spec = GridSpec.centered(512, 4.5e-6)
    img = coherent_image(ap, reference_system, spec)
    x = img.x_axis()
    band = np.abs(img.y_axis()) <= 100e-6 * 2.4
    prof = img.values[:, band].sum(axis=1)
    lo = np.argmin(np.abs(x + pitch * 2.4))
    hi = np.argmin(np.abs(x - pitch * 2.4))
    seg = prof[lo:hi + 1]
    interior = seg[1:-1]
    local_min = (interior < seg[:-2]) & (interior < seg[2:])
    bad = interior[local_min] < 0.95 * prof.max()
    assert not np.any(bad)


def test_coherent_image_equals_quadrature_oracle(reference_system):
    rng = np.random.default_rng(13)
    spec = GridSpec.centered(32, 12e-6)
    a_vals = rng.random((32, 32))
    ap = Aperture.from_mask(FieldGrid.from_spec(spec, a_vals))
    img = coherent_image(ap, reference_system, spec)
    sys_ = reference_system
    ref = coherent_image_quadrature(
        a_vals, lambda dx, dy: sys_.psf_amplitude(dx, dy),
        spec.x_axis(), spec.y_axis(), img.x_axis(), img.y_axis(),
        spec.dx, spec.dy, sys_.magnification)
    err = np.linalg.norm(img.values - ref) / np.linalg.norm(ref)
    assert err < 1e-8


def test_coherent_image_nonnegative_and_phase_invariant(reference_system):
    rng = np.random.default_rng(14)
    spec = GridSpec.centered(64, 10e-6)
    vals = rng.random((64, 64))
    img1 = coherent_image(Aperture.from_mask(FieldGrid.from_spec(spec, vals)),
                          reference_system, spec)
    img2 = coherent_image(
        Aperture.from_mask(FieldGrid.from_spec(spec, vals * np.exp(0.73j))),
        reference_system, spec)
    assert img1.values.min() >= 0
    np.testing.assert_allclose(img1.values, img2.values, rtol=1e-10)


def test_complex_aperture_transforms_its_kernel_once(monkeypatch,
                                                    reference_system):
    # a complex mask's real and imaginary planes share one kernel spectrum:
    # one forward rfft more than a real mask's two (box and kernel), not two
    spec = GridSpec.centered(64, 10e-6)
    vals = np.zeros((64, 64), complex)
    vals[28:36, 30:34] = 0.5 * np.exp(0.4j * np.arange(4))
    rfft, shapes = np.fft.rfft, []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    counts = []
    for values in (vals.real, vals):
        shapes.clear()
        image(Aperture.from_mask(FieldGrid.from_spec(spec, values)),
              reference_system, spec)
        counts.append(len(shapes))
    assert counts == [2, 3]
    assert shapes.count((8, 4)) == 2     # the box's two planes


def test_incoherent_point_and_uniform(reference_system, psf_grid):
    img = incoherent_image(Aperture.point(), reference_system, psf_grid)
    h = single_lens_psf(reference_system, psf_grid)
    expected = np.abs(h.values) ** 2
    scale = img.values[256, 256] / expected[256, 256]
    np.testing.assert_allclose(img.values, scale * expected,
                               atol=1e-9 * img.values.max())

    r0 = reference_system.first_zero_radius
    spec = GridSpec.centered(384, r0 / 4)
    flat = incoherent_image(Aperture.uniform(), reference_system, spec)
    n = flat.nx
    interior = flat.values[n // 2 - 20:n // 2 + 20, n // 2 - 20:n // 2 + 20]
    assert (interior.max() - interior.min()) / interior.max() < 0.01


def test_incoherent_double_slit_has_no_fringes(reference_system):
    # coherent imaging interferes between the slits, incoherent must not:
    # inside the gap the incoherent profile is a monotone valley
    pitch = 550e-6
    ap = Aperture.slits(2, 200e-6, pitch, slit_length=400e-6)
    spec = GridSpec.centered(512, 6e-6)
    inc = incoherent_image(ap, reference_system, spec)
    coh = coherent_image(ap, reference_system, spec)
    x = inc.x_axis()
    band = np.abs(inc.y_axis()) <= 300e-6
    prof_i = inc.values[:, band].sum(axis=1)
    prof_c = coh.values[:, band].sum(axis=1)
    # interior of the gap between the two geometric slit images
    gap_half = (pitch / 2 - 100e-6) * 2.4 * 0.8
    lo = np.argmin(np.abs(x + gap_half))
    hi = np.argmin(np.abs(x - gap_half))

    def count_local_maxima(seg):
        inner = (seg[1:-1] > seg[:-2]) & (seg[1:-1] >= seg[2:])
        return int(inner.sum())

    assert count_local_maxima(prof_i[lo:hi + 1]) == 0      # monotone valley
    assert count_local_maxima(prof_c[lo:hi + 1]) >= 1      # fringes


# a 48 x 40 grid at 10 um: 480 x 400 um, sampling the order-2 PSF (r0/8)
BOX_SPEC = GridSpec.centered(48, 10e-6, 40, 10e-6)


def _complex_mask() -> Aperture:
    values = np.zeros((48, 40), dtype=complex)
    rng = np.random.default_rng(16)
    values[30:41, 5:12] = rng.random((11, 7)) * np.exp(2j * np.pi
                                                       * rng.random((11, 7)))
    return Aperture.from_mask(FieldGrid.from_spec(BOX_SPEC, values))


BOX_APERTURES = {
    "point": Aperture.point((60e-6, -30e-6)),
    "slits": Aperture.slits(3, 20e-6, 60e-6, slit_length=150e-6,
                            center=(15e-6, 10e-6)),
    "rectangle": Aperture.rectangle(100e-6, 60e-6, (30e-6, -20e-6)),
    "gaussian_spot": Aperture.gaussian_spot(40e-6),
    "uniform": Aperture.uniform(),
    "mask": _complex_mask(),
    "touching_edge": Aperture.rectangle(80e-6, 50e-6,
                                        (BOX_SPEC.origin[0], 150e-6)),
    "outside_grid": Aperture.rectangle(80e-6, 50e-6, (1e-3, 0.0)),
}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("coherent", [True, False])
@pytest.mark.parametrize("kind", list(BOX_APERTURES))
def test_image_equals_doubled_kernel_oracle(reference_system, kind,
                                            coherent, order):
    aperture = BOX_APERTURES[kind]
    got = image(aperture, reference_system, BOX_SPEC, order, coherent)
    ref = image_doubled_kernel(aperture, reference_system, BOX_SPEC, order,
                               coherent)
    assert (got.dx, got.dy, got.origin) == (ref.dx, ref.dy, ref.origin)
    # an aperture outside the grid images to exact zeros on both routes
    np.testing.assert_allclose(got.values, ref.values, rtol=0.0,
                               atol=1e-12 * ref.values.max())
    assert (ref.values.max() == 0.0) == (kind == "outside_grid")


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------

def test_ft_of_gaussian():
    sigma = 50e-6
    spec = GridSpec.centered(256, 10e-6)
    g = FieldGrid.sample(spec, lambda x, y: np.exp(-(x ** 2 + y ** 2)
                                                   / (2 * sigma ** 2)))
    ft = fourier_transform_2d(g)
    q = ft.x_axis()
    center = 128
    assert abs(ft.values[center, center] - 2 * np.pi * sigma ** 2) \
        < 1e-9 * 2 * np.pi * sigma ** 2
    profile = np.abs(ft.values[:, center])
    sel = profile > profile.max() * 1e-3
    coef = np.polyfit(q[sel], np.log(profile[sel]), 2)
    fitted = np.sqrt(-1.0 / (2 * coef[0]))
    assert abs(fitted - 1.0 / sigma) * sigma < 1e-6


def test_ft_of_shifted_delta_is_phase_ramp():
    spec = GridSpec.centered(64, 2e-6)
    g = FieldGrid(np.zeros((64, 64), dtype=complex), 2e-6, 2e-6, spec.origin)
    shift = (40e-6, -12e-6)
    ix = int(round((shift[0] - spec.origin[0]) / spec.dx))
    iy = int(round((shift[1] - spec.origin[1]) / spec.dy))
    g.values[ix, iy] = 1.0
    ft = fourier_transform_2d(g)
    mags = np.abs(ft.values) / (2e-6 * 2e-6)
    np.testing.assert_allclose(mags, 1.0, atol=1e-9)
    qx, qy = np.meshgrid(ft.x_axis(), ft.y_axis(), indexing="ij")
    expected = np.exp(-1j * (qx * shift[0] + qy * shift[1])) * (2e-6) ** 2
    np.testing.assert_allclose(ft.values, expected, atol=1e-12)


def test_parseval_identity():
    rng = np.random.default_rng(15)
    spec = GridSpec.centered(32, 3e-6)
    g = FieldGrid.from_spec(spec, rng.normal(size=(32, 32))
                            + 1j * rng.normal(size=(32, 32)))
    ft = fourier_transform_2d(g)
    lhs = np.sum(np.abs(g.values) ** 2) * g.dx * g.dy
    rhs = np.sum(np.abs(ft.values) ** 2) * ft.dx * ft.dy / (2 * np.pi) ** 2
    assert abs(lhs - rhs) / lhs < 1e-10


# ---------------------------------------------------------------------------
# scaling of the first zero
# ---------------------------------------------------------------------------

def test_first_zero_scales_with_wavelength_and_pupil():
    fz = {}
    for lam in (405e-9, 810e-9, 1215e-9):
        sys_ = ImagingSystem(1.38e-3, 0.355, lam, 2.4)
        spec = GridSpec.centered(256, sys_.first_zero_radius / 8)
        h = single_lens_psf(sys_, spec)
        fz[lam] = first_zero_of(h.x_axis(), h.values[:, 128])
    lams = np.array(sorted(fz))
    slope = np.polyfit(np.log(lams), np.log([fz[l] for l in lams]), 1)[0]
    assert abs(slope - 1.0) < 0.01

    fzr = {}
    for R in (0.69e-3, 1.38e-3, 2.76e-3):
        sys_ = ImagingSystem(R, 0.355, 810e-9, 2.4)
        spec = GridSpec.centered(256, sys_.first_zero_radius / 8)
        h = single_lens_psf(sys_, spec)
        fzr[R] = first_zero_of(h.x_axis(), h.values[:, 128])
    rs = np.array(sorted(fzr))
    slope = np.polyfit(np.log(rs), np.log([fzr[r] for r in rs]), 1)[0]
    assert abs(slope + 1.0) < 0.01


# ---------------------------------------------------------------------------
# input records: each constructor owns its contract
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("fields", [
    {"pupil_radius": NAN}, {"pupil_radius": -1e-3},
    {"object_distance": INF}, {"wavelength": INF}, {"wavelength": 0.0},
    {"magnification": NAN}, {"magnification": True},
    {"pupil_profile": PupilProfile.GAUSSIAN},
    {"pupil_profile": PupilProfile.GAUSSIAN, "pupil_sigma": -1.0},
    {"pupil_profile": PupilProfile.GAUSSIAN, "pupil_sigma": INF},
], ids=["radius_nan", "radius_negative", "distance_inf", "wavelength_inf",
        "wavelength_zero", "magnification_nan", "magnification_bool",
        "gaussian_without_sigma", "gaussian_sigma_negative",
        "gaussian_sigma_inf"])
def test_imaging_system_refuses_lengths_that_are_not_finite_and_positive(
        fields):
    args = {"pupil_radius": 1.38e-3, "object_distance": 0.355,
            "wavelength": 810e-9, "magnification": 2.4, **fields}
    with pytest.raises(ValueError, match="must be finite and > 0"):
        ImagingSystem(**args)


def test_imaging_system_refuses_a_pupil_profile_that_is_not_a_pupil_profile():
    """A string is refused at construction, not later in ``psf_sigma``."""
    with pytest.raises(ValueError, match="not a PupilProfile"):
        ImagingSystem(1.38e-3, 0.355, 810e-9, 2.4, pupil_profile="hard")


def test_a_new_wavelength_is_checked_too(reference_system):
    assert reference_system.with_wavelength(405e-9).wavelength == 405e-9
    with pytest.raises(ValueError, match="wavelength"):
        reference_system.with_wavelength(NAN)


def _mask(value):
    return FieldGrid.from_spec(GridSpec.centered(4, 1e-6),
                               np.full((4, 4), value))


@pytest.mark.parametrize("build", [
    lambda: Aperture.slits(3, NAN, 1e-4),
    lambda: Aperture.slits(3, -70e-6, 1e-4),
    lambda: Aperture.slits(1, 70e-6, slit_length=-1e-6),
    lambda: Aperture.slits(3, 70e-6, INF),
    lambda: Aperture.slits(3, 70e-6, 70e-6),
    lambda: Aperture.slits(0, 70e-6),
    lambda: Aperture.slits(2.5, 70e-6, 1e-4),
    lambda: Aperture.rectangle(-1e-6, 3e-4),
    lambda: Aperture.rectangle(2e-4, NAN),
    lambda: Aperture.gaussian_spot(-1e-6),
    lambda: Aperture.gaussian_spot(0.0),
    lambda: Aperture.from_mask(_mask(1.5)),
    lambda: Aperture.from_mask(_mask(NAN)),
    lambda: Aperture("mask"),
    lambda: Aperture("annulus"),
    lambda: Aperture.point((NAN, 0.0)),
    lambda: Aperture.slits(3, 70e-6, 110e-6, center=(INF, 0.0)),
    lambda: Aperture.point((1.0,)),
    lambda: Aperture.gaussian_spot(25e-6, center=None),
    lambda: Aperture("uniform", center=(0.0, 0.0, 0.0)),
], ids=["line_width_nan", "line_width_negative", "slit_length_negative",
        "pitch_inf", "pitch_at_line_width", "no_slits", "fractional_slits",
        "width_negative", "height_nan", "waist_negative", "waist_zero",
        "mask_above_1", "mask_nan", "mask_missing", "unknown_kind",
        "center_nan", "center_inf", "center_one_value", "center_none",
        "center_three_values"])
def test_aperture_refuses_what_its_kind_cannot_draw(build):
    """The constructor checks every kind; ``slits`` and ``from_mask`` only
    pass their arguments on.  Every kind checks that ``center`` is a pair of
    finite reals."""
    with pytest.raises(ValueError):
        build()


def test_apertures_that_draw_are_accepted():
    for aperture in (Aperture.slits(1, 70e-6), Aperture.point((1e-6, 0.0)),
                     Aperture.slits(3, 70e-6, 110e-6, slit_length=3e-4),
                     Aperture.rectangle(2e-4, 3e-4), Aperture.uniform(),
                     Aperture.gaussian_spot(25e-6),
                     Aperture.from_mask(_mask(1.0 + 1e-13))):
        assert aperture.kind
