import numpy as np
import pytest
from scipy import stats

from ocmsim import (Aperture, FieldGrid, FitModel, GridSpec, ImagingSystem,
                    Profile1D, PupilProfile, analytic_centroid_psf_circular,
                    classical_centroid_psf, cross_section, ocm_image,
                    coherent_image, incoherent_image, scaling_fit,
                    single_lens_psf, slit_contrast, somb, width_metrics)
from ocmsim.analysis import export_profile_csv
from ocmsim.errors import (AmbiguousPeak, DegenerateInput, EmptyBand, NoPeak,
                           PeaksNotFound, SinkWriteError)


# ---------------------------------------------------------------------------
# cross sections
# ---------------------------------------------------------------------------

def test_cross_section_symmetric(reference_system, psf_grid):
    h = single_lens_psf(reference_system, psf_grid)
    h.values = np.abs(h.values) ** 2
    prof = cross_section(h, "x")
    # even-sized centered grids have one extra sample on the negative side
    core = prof.values[1:]
    np.testing.assert_allclose(core, core[::-1], rtol=1e-9)


def test_cross_section_separable():
    spec = GridSpec.centered(64, 1e-5)
    fx = lambda x: np.exp(-x ** 2 / (2 * (8e-5) ** 2))
    gy = lambda y: 1.0 + 0.5 * np.cos(2e4 * y)
    grid = FieldGrid.sample(spec, lambda x, y: fx(x) * gy(y))
    prof = cross_section(grid, "x", band=(10, 50))
    expected = fx(prof.positions)
    ratio = prof.values / expected
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


def test_cross_section_band_errors(reference_system, psf_grid):
    h = single_lens_psf(reference_system, psf_grid)
    with pytest.raises(EmptyBand):
        cross_section(h, "x", band=(500, 600))
    with pytest.raises(ValueError, match="axis"):
        cross_section(h, "y")


def test_cross_section_triple_slit_three_lobes(reference_system, triple_slit):
    spec = GridSpec.centered(512, 4.5e-6)
    img = ocm_image(triple_slit, reference_system, 2, spec)
    band_idx = np.flatnonzero(np.abs(img.y_axis()) <= 100e-6 * 2.4)
    prof = cross_section(img, "x", band=(band_idx[0], band_idx[-1]))
    y = prof.values
    inner = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
    strong = y[1:-1][inner] > 0.3 * y.max()
    assert strong.sum() == 3


# ---------------------------------------------------------------------------
# width metrics
# ---------------------------------------------------------------------------

def test_width_of_exact_somb_squared(reference_system):
    r0 = reference_system.first_zero_radius
    x = np.linspace(-4 * r0, 4 * r0, 1001)
    prof = Profile1D(x, somb(3.8317059702075125 * x / r0) ** 2)
    report = width_metrics(prof, FitModel.SOMB_SQUARED)
    assert abs(report.first_zero - 127.1e-6) < 0.01 * 127.1e-6
    assert report.fit_residual < 1e-6


def test_width_of_exact_gaussian():
    sigma = 37e-6
    x = np.linspace(-6 * sigma, 6 * sigma, 801)
    prof = Profile1D(x, np.exp(-x ** 2 / (2 * sigma ** 2)))
    report = width_metrics(prof, FitModel.GAUSSIAN)
    assert abs(report.fwhm - 2.354820045 * sigma) < 0.001 * 2.354820045 * sigma
    crossings = width_metrics(prof)
    assert abs(crossings.fwhm - 2.354820045 * sigma) < 1e-3 * sigma


def test_ocm_equals_405_width_ratio(reference_system):
    spec = GridSpec.centered(512, 3e-6)
    H2 = analytic_centroid_psf_circular(reference_system, 2, spec)
    h405 = single_lens_psf(reference_system.with_wavelength(405e-9), spec)
    for g in (H2, h405):
        g.values = np.abs(g.values) ** 2
    w2 = width_metrics(cross_section(H2, "x"), FitModel.SOMB_SQUARED)
    w405 = width_metrics(cross_section(h405, "x"), FitModel.SOMB_SQUARED)
    assert abs(w2.fwhm / w405.fwhm - 1.0) < 0.05


def test_width_errors():
    x = np.linspace(-1, 1, 101)
    with pytest.raises(NoPeak):
        width_metrics(Profile1D(x, np.full_like(x, -1.0)))
    bimodal = np.exp(-(x - 0.5) ** 2 / 0.005) + np.exp(-(x + 0.5) ** 2 / 0.005)
    with pytest.raises(AmbiguousPeak):
        width_metrics(Profile1D(x, bimodal))


def test_width_scale_equivariance():
    x = np.linspace(-1e-3, 1e-3, 501)
    y = np.exp(-x ** 2 / (2 * (1e-4) ** 2))
    w1 = width_metrics(Profile1D(x, y)).fwhm
    w2 = width_metrics(Profile1D(x * 3.0, y)).fwhm
    assert w2 == pytest.approx(3.0 * w1, rel=1e-12)


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------

def _psf_intensity_fwhm(system, n):
    spec = GridSpec.centered(512, system.first_zero_radius / (8 * n))
    H = analytic_centroid_psf_circular(system, n, spec)
    H.values = np.abs(H.values) ** 2
    return width_metrics(cross_section(H, "x")).fwhm


def test_quantum_scaling_hard_pupil(reference_system):
    widths = [(n, _psf_intensity_fwhm(reference_system, n))
              for n in (1, 2, 3, 4)]
    fit = scaling_fit(widths)
    assert abs(fit.alpha - 1.0) < 0.03


def test_quantum_scaling_gaussian_pupil():
    sys_ = ImagingSystem(1.38e-3, 0.355, 810e-9, 2.4, PupilProfile.GAUSSIAN,
                         pupil_sigma=0.5e-3)
    sigma = sys_.psf_sigma
    widths = []
    for n in (1, 2, 4, 8):
        spec = GridSpec.centered(256, sigma / 16)
        H = single_lens_psf(sys_, spec, order=n)
        H.values = np.abs(H.values) ** 2
        widths.append((n, width_metrics(cross_section(H, "x")).fwhm))
    fit = scaling_fit(widths)
    assert abs(fit.alpha - 0.5) < 0.03


def test_classical_scaling_gaussian_psf():
    sigma = 1e-4
    spec = GridSpec.centered(512, sigma / 16)
    h = FieldGrid.sample(spec, lambda x, y: np.exp(-(x ** 2 + y ** 2)
                                                   / (2 * sigma ** 2)))
    widths = []
    for n in (1, 2, 4, 8):
        p = classical_centroid_psf(h, n)
        widths.append((n, width_metrics(cross_section(p, "x")).fwhm))
    fit = scaling_fit(widths)
    assert abs(fit.alpha - 0.5) < 0.03


def test_scaling_fit_degenerate():
    with pytest.raises(DegenerateInput):
        scaling_fit([(1, 1.0), (2, 0.5)])
    with pytest.raises(DegenerateInput):
        scaling_fit([(1, 1.0), (1, 1.0), (1, 1.0)])


def test_scaling_fit_ci_coverage():
    rng = np.random.default_rng(71)
    alpha_true = 0.82
    ns = np.array([1, 2, 4, 8, 16], dtype=float)
    hits = 0
    trials = 1000
    for _ in range(trials):
        widths = ns ** (-alpha_true) * (1 + 0.01 * rng.normal(size=ns.size))
        fit = scaling_fit(list(zip(ns, widths)))
        if abs(fit.alpha - alpha_true) <= fit.ci95:
            hits += 1
    assert hits / trials >= 0.90


# ---------------------------------------------------------------------------
# slit contrast
# ---------------------------------------------------------------------------

def test_contrast_of_fully_separated_slits():
    x = np.linspace(-300e-6, 300e-6, 601)
    y = np.zeros_like(x)
    for c in (-200e-6, 0.0, 200e-6):
        y += np.exp(-(x - c) ** 2 / (2 * (20e-6) ** 2))
    contrast, resolved = slit_contrast(Profile1D(x, y), 3, 200e-6)
    assert contrast > 0.99
    assert resolved


def test_contrast_of_flat_top():
    x = np.linspace(-300e-6, 300e-6, 601)
    y = 1.0 / (1.0 + (x / 150e-6) ** 8)
    contrast, resolved = slit_contrast(Profile1D(x, y), 3, 150e-6)
    assert not resolved
    assert contrast == 0.0


def test_contrast_positive_scale_invariance():
    x = np.linspace(-300e-6, 300e-6, 601)
    y = np.zeros_like(x)
    for c in (-150e-6, 0.0, 150e-6):
        y += np.exp(-(x - c) ** 2 / (2 * (30e-6) ** 2))
    c1, _ = slit_contrast(Profile1D(x, y), 3, 150e-6)
    c2, _ = slit_contrast(Profile1D(x, y * 7.3e4), 3, 150e-6)
    assert c1 == pytest.approx(c2, rel=1e-12)


def test_contrast_errors():
    x = np.linspace(-10e-6, 10e-6, 11)
    with pytest.raises(PeaksNotFound):
        slit_contrast(Profile1D(x, np.zeros_like(x)), 3, 150e-6)
    with pytest.raises(PeaksNotFound):
        # profile does not span the expected pattern
        slit_contrast(Profile1D(x, np.ones_like(x)), 3, 150e-6)


def test_mode_ordering_on_analytic_images(reference_system, triple_slit):
    # the resolvability ordering of the four illumination modes
    spec = GridSpec.centered(512, 4.5e-6)
    pitch_img = 110e-6 * 2.4
    images = {
        "ocm": ocm_image(triple_slit, reference_system, 2, spec),
        "coh810": coherent_image(triple_slit, reference_system, spec),
        "coh405": coherent_image(triple_slit,
                                 reference_system.with_wavelength(405e-9), spec),
        "inc810": incoherent_image(triple_slit, reference_system, spec),
    }
    resolved = {}
    for name, img in images.items():
        band_idx = np.flatnonzero(np.abs(img.y_axis()) <= 100e-6 * 2.4)
        prof = cross_section(img, "x", band=(band_idx[0], band_idx[-1]))
        resolved[name] = slit_contrast(prof, 3, pitch_img)[1]
    assert resolved == {"ocm": True, "coh810": False, "coh405": True,
                        "inc810": False}


def test_profile_csv_to_a_missing_directory_is_a_sink_error(tmp_path):
    """Like every other writer, the profile export reports an unwritable
    path as ``SinkWriteError``, not as a bare ``OSError``."""
    profile = Profile1D(np.arange(3.0), np.ones(3))
    path = tmp_path / "missing" / "profile.csv"
    with pytest.raises(SinkWriteError, match="missing"):
        export_profile_csv(profile, path)
    assert not path.parent.exists()
