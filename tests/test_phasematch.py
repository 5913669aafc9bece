import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

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


@pytest.mark.parametrize("temperature", [1e300, 1e150, 1e100, -273.16,
                                         float("nan")])
@pytest.mark.parametrize("poling", [None, 1e-5], ids=["solved", "given"])
def test_unphysical_crystal_temperature_is_refused(temperature, poling):
    """Below absolute zero, or where the index or the collinear wavevectors
    stop being finite, a ValueError names the temperature, without a NumPy
    warning or an OverflowError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="temperature_C = "):
            model = SellmeierModel.from_file(temperature_c=temperature)
            PhaseMatchingParams.from_wavelengths(
                5e-3, 810e-9, 810e-9, 50e-3, poling_period=poling,
                index_model=model)


def test_absolute_zero_and_a_hot_crystal_are_accepted():
    for temperature in (-273.15, 200.0):
        params = PhaseMatchingParams.from_wavelengths(
            5e-3, 810e-9, 810e-9, 50e-3,
            index_model=SellmeierModel.from_file(temperature_c=temperature))
        assert 0 < params.poling_period < 1e-4


@pytest.mark.parametrize("name", ["crystal_length", "poling_period",
                                  "focal_length"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-3])
def test_lengths_must_be_finite_and_positive(reference_params, name, value):
    with pytest.raises(ValueError, match="finite and > 0"):
        replace(reference_params, **{name: value})


SELLMEIER = ("sellmeier: {A: 2.12725, B: 1.18431, C: 0.0514852, D: 0.6603,"
             " E: 100.00507, F: 9.68956e-3}\n")


@pytest.mark.parametrize("thermal, named", [
    ("{n1: [x]}", "['n1']"),
    ("{n1: abc}", "['n1']"),
    ("{n2: [1.0e-8, true]}", "['n2']"),
    ("{n1: 1.0e-5, n2: [.nan, null]}", "['n1', 'n2']"),
    ("{reference_temperature_C: warm}", "['reference_temperature_C']"),
    ("{reference_temperature_C: false}", "['reference_temperature_C']"),
], ids=["n1_text", "n1_string", "n2_bool", "n1_scalar_n2_null",
        "reference_text", "reference_bool"])
def test_thermal_values_are_checked_on_load(tmp_path, thermal, named):
    data = tmp_path / "index.yaml"
    data.write_text(SELLMEIER + f"thermal: {thermal}\n")
    with pytest.raises(ValueError) as exc:
        SellmeierModel.from_file(data, temperature_c=30.0)
    assert str(data) in str(exc.value) and named in str(exc.value)


def test_thermal_lists_of_ints_and_floats_load(tmp_path):
    data = tmp_path / "index.yaml"
    data.write_text(SELLMEIER + "thermal: {reference_temperature_C: 20, "
                    "n1: [1.0e-5, 0], n2: []}\n")
    model = SellmeierModel.from_file(data, temperature_c=30.0)
    assert (model.n1_thermal, model.n2_thermal) == ((1.0e-5, 0), ())
    assert model.reference_temperature_c == 20.0
    assert np.isfinite(model.index_at_wavelength(810e-9))


COEFFICIENTS = {"A": 2.12725, "B": 1.18431, "C": 0.0514852, "D": 0.6603,
                "E": 100.00507, "F": 9.68956e-3}


@pytest.mark.parametrize("fields, named", [
    ({"coefficients": {}}, "['A', 'B', 'C', 'D', 'E', 'F']"),
    ({"coefficients": {**COEFFICIENTS, "C": "x"}}, "['C']"),
    ({"n1_thermal": (1e-5, None)}, "['n1']"),
    ({"n2_thermal": 1e-8}, "['n2']"),
    ({"reference_temperature_c": float("nan")}, "['reference_temperature_C']"),
    ({"temperature_c": float("inf")}, "temperature_C = inf"),
    ({"temperature_c": "30"}, "temperature_C = '30'"),
], ids=["no_coefficients", "coefficient_text", "n1_null", "n2_scalar",
        "reference_nan", "temperature_inf", "temperature_text"])
def test_in_memory_crystal_is_checked_where_it_is_built(fields, named):
    """A model built in memory refuses what a data file may not hold, as a
    ValueError naming the value, before any index is computed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            model = SellmeierModel(**{"coefficients": COEFFICIENTS,
                                      "n1_thermal": (1e-5,),
                                      "n2_thermal": (), "temperature_c": 30.0,
                                      **fields})
            model.index_at_wavelength(810e-9)
    assert named in str(exc.value)


def test_the_constructor_keeps_tuples_and_floats():
    """``describe`` and ``source_hash`` see the fields a file load gives."""
    model = SellmeierModel(COEFFICIENTS, [1e-5, 0], [], 20, 30)
    assert (model.n1_thermal, model.n2_thermal) == ((1e-5, 0), ())
    assert type(model.reference_temperature_c) is type(model.temperature_c) \
        is float
    assert model.coefficients == COEFFICIENTS
    assert model.coefficients is not COEFFICIENTS


#: values no crystal field, and no thermal list, may hold
MALFORMED = st.sampled_from(["x", "", True, False, None, float("nan"),
                             float("inf"), -float("inf"), 10 ** 400,
                             {"a": 1.0}])


@given(st.sampled_from([*"ABCDEF", "n1", "n2", "reference_temperature_C"]),
       MALFORMED, st.booleans())
def test_malformed_crystal_value_is_refused_alike_in_memory_and_from_file(
        tmp_path_factory, name, value, other_form):
    """One malformed value raises the same ValueError, naming it, whether
    the model is built in memory or loaded from a data file; the file load
    only prefixes the file name.  ``other_form`` drops a coefficient instead
    or appends the value to a thermal list."""
    coefficients, thermal = dict(COEFFICIENTS), {
        "n1": [9.9587e-6, 9.9228e-6], "n2": [-1.1882e-8],
        "reference_temperature_C": 25.0}
    if name in COEFFICIENTS:
        if other_form:
            del coefficients[name]
        else:
            coefficients[name] = value
    elif name == "reference_temperature_C" or not other_form:
        thermal[name] = value
    else:
        thermal[name] = [*thermal[name], value]
    data = tmp_path_factory.mktemp("crystal") / "index.yaml"
    data.write_text(yaml.safe_dump({"sellmeier": coefficients,
                                    "thermal": thermal}))
    with pytest.raises(ValueError) as in_memory:
        SellmeierModel(coefficients, thermal["n1"], thermal["n2"],
                       thermal["reference_temperature_C"], 30.0)
    with pytest.raises(ValueError) as from_file:
        SellmeierModel.from_file(data, temperature_c=30.0)
    assert f"['{name}']" in str(in_memory.value)
    assert str(from_file.value) == f"{data}: {in_memory.value}"


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
