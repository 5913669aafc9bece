import numpy as np
import pytest

from ocmsim import (Aperture, PhaseMatchingParams, SellmeierModel,
                    deviation_envelope, deviation_envelope_fwhm,
                    solve_poling_period, wavevector_mismatch)
from ocmsim.errors import EvanescentInput

from oracles import biphoton_amplitude, wavevector_mismatch_mp


@pytest.fixture
def reference_params() -> PhaseMatchingParams:
    """5 mm crystal, degenerate 810 nm pairs, 50 mm preparation lens."""
    return PhaseMatchingParams.from_wavelengths(5e-3, 810e-9, 810e-9, 50e-3)


def test_sellmeier_sanity():
    model = SellmeierModel.from_file()
    n810 = model.index_at_wavelength(810e-9)
    n405 = model.index_at_wavelength(405e-9)
    assert 1.7 < n810 < 2.0
    assert n405 > n810                     # normal dispersion


def test_temperature_shifts_index():
    cold = SellmeierModel.from_file(temperature_c=20.0)
    hot = SellmeierModel.from_file(temperature_c=60.0)
    assert hot.index_at_wavelength(810e-9) != cold.index_at_wavelength(810e-9)


def test_pump_frequency_is_derived(reference_params):
    p = reference_params
    assert p.omega_p == p.omega_s + p.omega_i
    assert p.omega_s == p.omega_i


def test_poling_period_magnitude(reference_params):
    # type-0 ppKTP around 405 -> 810 nm has a few-micron poling period
    assert 2e-6 < reference_params.poling_period < 6e-6


def test_mismatch_zero_at_collinear(reference_params):
    p = reference_params
    dk = wavevector_mismatch(np.zeros(2), np.zeros(2), p)
    assert abs(dk) < 1e-6 * 2 * np.pi / p.poling_period


def test_mismatch_symmetric_for_degenerate(reference_params):
    rng = np.random.default_rng(41)
    for _ in range(10):
        q = rng.uniform(-3e5, 3e5, size=2)
        r = rng.uniform(-3e5, 3e5, size=2)
        a = wavevector_mismatch(q, r, reference_params)
        b = wavevector_mismatch(r, q, reference_params)
        assert a == b


def test_mismatch_against_high_precision(reference_params):
    q_s = (1.7e5, -0.8e5)
    q_i = (-0.4e5, 1.1e5)
    got = wavevector_mismatch(np.array(q_s), np.array(q_i), reference_params)
    ref = wavevector_mismatch_mp(q_s, q_i, reference_params)
    assert abs(got - ref) < 1e-6 * abs(ref) + 1e-9


def test_mismatch_rejects_evanescent(reference_params):
    k = reference_params.omega_s * 1.85 / 299792458.0
    with pytest.raises(EvanescentInput):
        wavevector_mismatch(np.array([1.1 * k, 0.0]), np.zeros(2),
                            reference_params)


def test_solve_poling_period_consistency(reference_params):
    p = reference_params
    g = solve_poling_period(p.omega_s, p.omega_i, p.index_model)
    assert g == p.poling_period


def test_biphoton_amplitude_at_origin(reference_params):
    amp = biphoton_amplitude(np.zeros(2), np.zeros(2), Aperture.uniform(),
                             reference_params)
    assert amp == pytest.approx(1.0, abs=1e-12)


def test_biphoton_amplitude_symmetry(reference_params):
    rng = np.random.default_rng(42)
    ap = Aperture.uniform()
    for _ in range(10):
        r1 = rng.uniform(-1e-3, 1e-3, size=2)
        r2 = rng.uniform(-1e-3, 1e-3, size=2)
        a = biphoton_amplitude(r1, r2, ap, reference_params)
        b = biphoton_amplitude(r2, r1, ap, reference_params)
        assert a == pytest.approx(b, rel=1e-12)


def test_biphoton_amplitude_sees_aperture(reference_params):
    ap = Aperture.rectangle(100e-6, 100e-6)
    # photons at +-xi keep the weighted centroid at 0 -> aperture passes
    xi = np.array([0.4e-3, 0.0])
    assert biphoton_amplitude(xi, -xi, ap, reference_params) != 0.0
    # common displacement moves the centroid outside the small aperture
    off = np.array([0.4e-3, 0.0])
    assert biphoton_amplitude(off, off, ap, reference_params) == 0.0


def test_envelope_is_the_biphoton_amplitude_at_opposite_positions(
        reference_params):
    """Photons at +-xi keep the centroid at 0, where a uniform aperture
    passes everything: the amplitude left is the pair envelope."""
    rng = np.random.default_rng(43)
    xi = rng.uniform(-2e-3, 2e-3, size=(50, 2))
    np.testing.assert_array_equal(
        deviation_envelope(xi, reference_params),
        biphoton_amplitude(xi, -xi, Aperture.uniform(), reference_params))


def test_envelope_fwhm_reference_value(reference_params):
    fwhm = deviation_envelope_fwhm(reference_params)
    assert abs(fwhm - 1.1e-3) < 0.15 * 1.1e-3


def test_envelope_even(reference_params):
    xi = np.array([[0.3e-3, -0.2e-3], [-0.3e-3, 0.2e-3]])
    env = deviation_envelope(xi, reference_params)
    assert env[0] == pytest.approx(env[1], rel=1e-12)
