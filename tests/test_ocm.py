import numpy as np
import pytest

from ocmsim import (Aperture, FieldGrid, GridSpec, ImagingSystem,
                    PupilProfile, analytic_centroid_psf_circular, centroid_psf,
                    classical_centroid_psf, coherent_image, far_field_pattern,
                    image, ocm_image, single_lens_psf)
from ocmsim.errors import GridTooCoarse, WrongPupilProfile

from conftest import first_zero_of, fwhm_of
from oracles import centroid_psf_pupil_route, inverse_fourier_transform_2d


def gaussian_psf_grid(sigma, n=256, oversample=8) -> FieldGrid:
    spec = GridSpec.centered(n, sigma / oversample)
    return FieldGrid.sample(spec, lambda x, y: np.exp(-(x ** 2 + y ** 2)
                                                      / (2 * sigma ** 2)))


# ---------------------------------------------------------------------------
# centroid PSF, spatial route
# ---------------------------------------------------------------------------

def test_centroid_psf_n1_is_identity(reference_system, psf_grid):
    h = single_lens_psf(reference_system, psf_grid)
    out = centroid_psf(h, 1)
    np.testing.assert_array_equal(out.values, h.values)
    assert (out.dx, out.origin) == (h.dx, h.origin)


def test_centroid_psf_gaussian_narrows_sqrt_n():
    sigma = 1.0e-4
    h = gaussian_psf_grid(sigma)
    for n in (2, 3, 4):
        H = centroid_psf(h, n)
        x = H.x_axis()
        prof = H.values[:, H.ny // 2]
        sel = prof > prof.max() * 1e-3
        coef = np.polyfit(x[sel], np.log(prof[sel]), 2)
        fitted = np.sqrt(-1.0 / (2 * coef[0]))
        assert abs(fitted - sigma / np.sqrt(n)) / (sigma / np.sqrt(n)) < 0.01


def test_centroid_psf_output_grid_is_n_times_finer():
    h = gaussian_psf_grid(1e-4)
    H = centroid_psf(h, 3)
    assert H.dx == h.dx / 3
    assert H.origin[0] == h.origin[0] / 3


def test_centroid_psf_matches_circular_closed_form(reference_system):
    r0 = reference_system.first_zero_radius
    spec = GridSpec.centered(1024, r0 / 4)
    h = single_lens_psf(reference_system, spec)
    H = centroid_psf(h, 2).peak_normalized()
    ref = analytic_centroid_psf_circular(reference_system, 2, H.spec)
    X, Y = ref.meshgrid()
    mask = np.hypot(X, Y) <= 4 * r0 / 2
    err = np.abs(H.values - ref.values)[mask].max()
    assert err < 2e-3


def test_centroid_psf_rejects_coarse_sampling(reference_system):
    r0 = reference_system.first_zero_radius
    spec = GridSpec.centered(128, r0 / 4)
    h = single_lens_psf(reference_system, spec)
    coarse = FieldGrid(h.values[::2, ::2], h.dx * 2, h.dy * 2, h.origin)
    with pytest.raises(GridTooCoarse):
        centroid_psf(coarse, 2)


# ---------------------------------------------------------------------------
# centroid PSF, pupil route
# ---------------------------------------------------------------------------

def _disk_pupil(qmax_frac=0.25, n=256, dq=1.0) -> FieldGrid:
    spec = GridSpec.centered(n, dq)
    cutoff = qmax_frac * n / 2 * dq
    return FieldGrid.sample(spec,
                            lambda qx, qy: (np.hypot(qx, qy) <= cutoff) * 1.0)


def test_hard_pupil_is_idempotent_under_powers():
    pupil = _disk_pupil()
    H1 = centroid_psf_pupil_route(pupil, 1)
    H3 = centroid_psf_pupil_route(pupil, 3)
    # same shape, axes compressed 3x: compare on the common (fine) axis
    np.testing.assert_allclose(H3.values / H3.values.max(),
                               H1.values / H1.values.max(), atol=1e-9)
    assert H3.dx == H1.dx / 3


def test_gaussian_pupil_narrows_only_sqrt_n():
    n, dq = 256, 1.0
    sig_q = 12.0
    spec = GridSpec.centered(n, dq)
    pupil = FieldGrid.sample(spec, lambda qx, qy: np.exp(-(qx ** 2 + qy ** 2)
                                                         / (2 * sig_q ** 2)))
    widths = {}
    for k in (1, 4):
        Hk = centroid_psf_pupil_route(pupil, k)
        x = Hk.x_axis()
        prof = np.abs(Hk.values[:, n // 2])
        widths[k] = fwhm_of(x, prof)
    assert abs(widths[4] / widths[1] - 0.5) < 0.01


def test_fourier_and_spatial_routes_agree():
    rng = np.random.default_rng(31)
    n, dq = 128, 1.0
    spec = GridSpec.centered(n, dq)
    qx, qy = np.meshgrid(spec.x_axis(), spec.y_axis(), indexing="ij")
    for trial in range(3):
        # random smooth band-limited pupil: Gaussian envelope times a few
        # random plane-wave ripples
        sig_q = rng.uniform(8.0, 14.0)
        vals = np.exp(-(qx ** 2 + qy ** 2) / (2 * sig_q ** 2))
        for _ in range(3):
            ax, ay = rng.uniform(-0.08, 0.08, size=2)
            vals = vals * (1.0 + 0.3 * np.cos(ax * qx + ay * qy
                                              + rng.uniform(0, 2 * np.pi)))
        pupil = FieldGrid.from_spec(spec, vals)
        h = inverse_fourier_transform_2d(pupil)
        for k in (1, 2, 3):
            via_pupil = centroid_psf_pupil_route(pupil, k)
            via_space = centroid_psf(h, k)
            # compare on the pupil route's grid (the spatial route's periodic
            # grid coincides, both are n x n with the same axes)
            a = via_pupil.values / np.linalg.norm(via_pupil.values)
            b = via_space.values / np.linalg.norm(via_space.values)
            assert np.linalg.norm(a - b) < 1e-6


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_analytic_psf_first_zero_n2(reference_system):
    spec = GridSpec.centered(512, 2e-6)
    H = analytic_centroid_psf_circular(reference_system, 2, spec)
    fz = first_zero_of(H.x_axis(), H.values[:, 256])
    assert abs(fz - 63.6e-6) < 0.3e-6


def test_analytic_psf_n1_equals_single_lens(reference_system, psf_grid):
    H = analytic_centroid_psf_circular(reference_system, 1, psf_grid)
    h = single_lens_psf(reference_system, psf_grid)
    np.testing.assert_array_equal(H.values, h.values)


def test_n2_at_810_equals_n1_at_405(reference_system):
    spec = GridSpec.centered(256, 4e-6)
    H2 = analytic_centroid_psf_circular(reference_system, 2, spec)
    H1 = analytic_centroid_psf_circular(
        reference_system.with_wavelength(405e-9), 1, spec)
    np.testing.assert_allclose(H2.values, H1.values, atol=1e-12)


def test_analytic_psf_rejects_gaussian_pupil():
    sys_ = ImagingSystem(1.38e-3, 0.355, 810e-9, 2.4,
                         PupilProfile.GAUSSIAN, pupil_sigma=0.5e-3)
    with pytest.raises(WrongPupilProfile):
        analytic_centroid_psf_circular(sys_, 2, GridSpec.centered(64, 1e-5))


# ---------------------------------------------------------------------------
# centroid images
# ---------------------------------------------------------------------------

def test_ocm_point_object_gives_psf_squared(reference_system):
    spec = GridSpec.centered(256, 8e-6)
    img = ocm_image(Aperture.point(), reference_system, 2, spec)
    ref = analytic_centroid_psf_circular(reference_system, 2, spec)
    scale = img.values[128, 128]
    np.testing.assert_allclose(img.values, scale * np.abs(ref.values) ** 2,
                               atol=1e-9 * scale)


def test_ocm_triple_slit_resolves(reference_system, triple_slit):
    spec = GridSpec.centered(512, 4.5e-6)
    img = ocm_image(triple_slit, reference_system, 2, spec)
    x = img.x_axis()
    band = np.abs(img.y_axis()) <= 100e-6 * 2.4
    prof = img.values[:, band].sum(axis=1)
    center_peak = prof[np.abs(x) <= 40e-6 * 2.4].max()
    lo = np.argmin(np.abs(x + 110e-6 * 2.4))
    hi = np.argmin(np.abs(x - 110e-6 * 2.4))
    seg = prof[lo:hi + 1]
    interior = seg[1:-1]
    local_min = (interior < seg[:-2]) & (interior < seg[2:])
    dips = interior[local_min]
    assert dips.size >= 2
    assert np.sort(dips)[:2].max() < 0.6 * center_peak


def test_ocm_equals_half_wavelength_coherent(reference_system, triple_slit):
    spec = GridSpec.centered(384, 5e-6)
    ocm = ocm_image(triple_slit, reference_system, 2, spec)
    half = coherent_image(triple_slit,
                          reference_system.with_wavelength(405e-9), spec)
    err = np.linalg.norm(ocm.values - half.values) / np.linalg.norm(half.values)
    assert err < 1e-9


def test_ocm_image_phase_and_translation_invariance(reference_system):
    rng = np.random.default_rng(33)
    spec = GridSpec.centered(64, 10e-6)
    vals = rng.random((64, 64))
    base = ocm_image(Aperture.from_mask(FieldGrid.from_spec(spec, vals)),
                     reference_system, 2, spec)
    phased = ocm_image(
        Aperture.from_mask(FieldGrid.from_spec(spec, vals * np.exp(1.1j))),
        reference_system, 2, spec)
    np.testing.assert_allclose(base.values, phased.values, rtol=1e-10)

    # translating the aperture by whole cells shifts the image identically
    shift = 7
    spec2 = GridSpec.centered(192, 5e-6)
    ap0 = Aperture.rectangle(80e-6, 120e-6, center=(0.0, 0.0))
    ap1 = Aperture.rectangle(80e-6, 120e-6, center=(shift * spec2.dx, 0.0))
    img0 = ocm_image(ap0, reference_system, 2, spec2)
    img1 = ocm_image(ap1, reference_system, 2, spec2)
    np.testing.assert_allclose(img1.values[shift:, :], img0.values[:-shift, :],
                               rtol=1e-9, atol=img0.values.max() * 1e-12)


def test_incoherent_ocm_point_and_uniform(reference_system):
    spec = GridSpec.centered(256, 8e-6)
    img = image(Aperture.point(), reference_system, spec, order=2,
                coherent=False)
    ref = analytic_centroid_psf_circular(reference_system, 2, spec)
    scale = img.values[128, 128]
    np.testing.assert_allclose(img.values, scale * np.abs(ref.values) ** 2,
                               atol=1e-9 * scale)

    r0 = reference_system.first_zero_radius
    flat = image(Aperture.uniform(), reference_system,
                 GridSpec.centered(512, r0 / 8), order=2, coherent=False)
    c = flat.nx // 2
    interior = flat.values[c - 10:c + 10, c - 10:c + 10]
    assert (interior.max() - interior.min()) / interior.max() < 0.01


def test_incoherent_ocm_double_slit_no_fringes(reference_system):
    pitch = 500e-6
    ap = Aperture.slits(2, 200e-6, pitch, slit_length=400e-6)
    spec = GridSpec.centered(512, 6e-6)
    inc = image(ap, reference_system, spec, order=2, coherent=False)
    coh = ocm_image(ap, reference_system, 2, spec)
    x = inc.x_axis()
    band = np.abs(inc.y_axis()) <= 300e-6
    prof_i = inc.values[:, band].sum(axis=1)
    prof_c = coh.values[:, band].sum(axis=1)
    gap_half = (pitch / 2 - 100e-6) * 2.4 * 0.8
    lo = np.argmin(np.abs(x + gap_half))
    hi = np.argmin(np.abs(x - gap_half))

    def count_local_maxima(seg):
        inner = (seg[1:-1] > seg[:-2]) & (seg[1:-1] >= seg[2:])
        return int(inner.sum())

    assert count_local_maxima(prof_i[lo:hi + 1]) == 0
    assert count_local_maxima(prof_c[lo:hi + 1]) >= 1


# ---------------------------------------------------------------------------
# classical correlated baseline
# ---------------------------------------------------------------------------

def test_classical_centroid_psf_n1(reference_system, psf_grid):
    h = single_lens_psf(reference_system, psf_grid)
    p = classical_centroid_psf(h, 1)
    expected = np.abs(h.values) ** 2
    expected = expected / (expected.sum() * h.dx * h.dy)
    np.testing.assert_allclose(p.values, expected, rtol=1e-12)
    assert abs(p.values.sum() * p.dx * p.dy - 1.0) < 1e-12


def test_classical_vs_quantum_width_ratio(reference_system):
    # projected widths: the SQL pair centroid is sqrt(2) wider than the
    # entangled pair centroid PSF intensity
    r0 = reference_system.first_zero_radius
    spec = GridSpec.centered(2048, r0 / 8)
    h = single_lens_psf(reference_system, spec)
    classical = classical_centroid_psf(h, 2)
    f_cl = fwhm_of(classical.x_axis(), classical.values.sum(axis=1))

    H2 = analytic_centroid_psf_circular(reference_system, 2, classical.spec)
    f_q = fwhm_of(H2.x_axis(), (np.abs(H2.values) ** 2).sum(axis=1))
    assert abs(f_cl / f_q - np.sqrt(2.0)) < 0.05 * np.sqrt(2.0)


def test_classical_centroid_gaussian_limit():
    # many classically correlated photons: the centroid density becomes
    # normal with std sigma/sqrt(N)
    sigma_amp = 1.0e-4
    h = gaussian_psf_grid(sigma_amp, n=512, oversample=16)
    sigma_int = sigma_amp / np.sqrt(2.0)    # std of |h|^2
    n = 16
    p = classical_centroid_psf(h, n)
    x = p.x_axis()
    marg = p.values.sum(axis=1) * p.dy
    cdf = np.cumsum(marg) * p.dx
    from scipy.stats import norm
    ref = norm.cdf(x + p.dx / 2, scale=sigma_int / np.sqrt(n))
    assert np.abs(cdf - ref).max() < 0.01


def test_sql_scaling_gaussian(reference_system):
    sigma = 1.0e-4
    h = gaussian_psf_grid(sigma, n=512, oversample=16)
    for n in (2, 4, 8):
        p = classical_centroid_psf(h, n)
        f = fwhm_of(p.x_axis(), p.values[:, p.ny // 2])
        expected = 2.354820045 * sigma / np.sqrt(2.0) / np.sqrt(n)
        assert abs(f - expected) / expected < 0.03


def test_heisenberg_first_zero_scaling(reference_system):
    r0 = reference_system.first_zero_radius
    spec = GridSpec.centered(1024, r0 / 4)
    h = single_lens_psf(reference_system, spec)
    for n in (1, 2, 3, 4):
        H = centroid_psf(h, n)
        fz = first_zero_of(H.x_axis(), H.values[:, H.ny // 2].real)
        assert abs(fz - r0 / n) / (r0 / n) < 0.02


# ---------------------------------------------------------------------------
# far field
# ---------------------------------------------------------------------------

def test_far_field_n1_is_fraunhofer(reference_system):
    # double slit: fringe period lambda s_o / pitch on the pupil-plane axis
    # (narrow lines, so the single-slit envelope barely shifts the peaks)
    pitch = 200e-6
    ap = Aperture.slits(2, 10e-6, pitch, slit_length=None)
    spec = GridSpec.centered(2048, 2e-6)
    scale = reference_system.object_distance * reference_system.wavelength \
        / (2 * np.pi)
    pat = far_field_pattern(ap, 1, scale, spec)
    prof = pat.values[:, pat.ny // 2]
    x = pat.x_axis()
    peaks = np.flatnonzero((prof[1:-1] > prof[:-2]) & (prof[1:-1] >= prof[2:])) + 1
    # average the spacing over several central fringes
    near0 = np.sort(x[peaks[np.argsort(np.abs(x[peaks]))[:7]]])
    period = np.diff(near0).mean()
    expected = reference_system.wavelength * reference_system.object_distance \
        / pitch
    assert abs(period - expected) / expected < 0.02


def test_far_field_de_broglie_narrowing(reference_system):
    ap = Aperture.slits(2, 200e-6, 450e-6, slit_length=None)
    spec = GridSpec.centered(256, 8e-6)
    scale810 = 0.355 * 810e-9 / (2 * np.pi)
    scale405 = 0.355 * 405e-9 / (2 * np.pi)
    pat2 = far_field_pattern(ap, 2, scale810, spec)
    pat1 = far_field_pattern(ap, 1, scale405, spec)
    assert pat2.dx == pat1.dx
    np.testing.assert_allclose(pat2.values, pat1.values, rtol=1e-9)


def test_far_field_gaussian_narrows_n_fold():
    waist = 100e-6
    ap = Aperture.gaussian_spot(waist)
    spec = GridSpec.centered(256, 8e-6)
    scale = 1e-8
    f1 = far_field_pattern(ap, 1, scale, spec)
    f3 = far_field_pattern(ap, 3, scale, spec)
    w1 = fwhm_of(f1.x_axis(), f1.values[:, 128])
    w3 = fwhm_of(f3.x_axis(), f3.values[:, 128])
    assert abs(w3 / w1 - 1.0 / 3.0) < 0.01
