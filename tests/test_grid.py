import struct
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ocmsim import (Aperture, FieldGrid, GridSpec, ImagingSystem,
                    PupilProfile, fourier_transform_2d)
from ocmsim.cli import main
from ocmsim.errors import CorruptGridFile

from oracles import inverse_fourier_transform_2d

CONFIG = Path(__file__).parent.parent / "configs" / "default.yaml"


def test_geometry_invariants():
    g = FieldGrid(np.zeros((16, 24)), 2e-6, 3e-6, (-8 * 2e-6, -12 * 3e-6))
    assert g.extent() == (16 * 2e-6, 24 * 3e-6)
    # coordinate of sample (i, j) is origin + (i dx, j dy), exact
    assert g.x_axis()[5] == g.origin[0] + 5 * g.dx
    assert g.y_axis()[7] == g.origin[1] + 7 * g.dy


def test_rejects_degenerate_grids():
    with pytest.raises(ValueError):
        FieldGrid(np.zeros((1, 8)), 1e-6, 1e-6)
    with pytest.raises(ValueError):
        FieldGrid(np.zeros((8, 8)), -1e-6, 1e-6)
    with pytest.raises(ValueError):
        FieldGrid(np.zeros(8), 1e-6, 1e-6)


def test_fourier_round_trip_random():
    rng = np.random.default_rng(3)
    spec = GridSpec.centered(64, 5e-6)
    g = FieldGrid.from_spec(spec, rng.normal(size=(64, 64))
                            + 1j * rng.normal(size=(64, 64)))
    back = inverse_fourier_transform_2d(fourier_transform_2d(g),
                                        out_origin=g.origin)
    err = np.linalg.norm(back.values - g.values) / np.linalg.norm(g.values)
    assert err < 1e-10


def test_round_trip_off_center_origin():
    rng = np.random.default_rng(4)
    g = FieldGrid(rng.normal(size=(32, 32)) + 0j, 1e-6, 1e-6,
                  (3.5e-6, -11e-6))
    back = inverse_fourier_transform_2d(fourier_transform_2d(g),
                                        out_origin=g.origin)
    err = np.linalg.norm(back.values - g.values) / np.linalg.norm(g.values)
    assert err < 1e-10


def test_binary_container_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    for values in (rng.normal(size=(17, 9)),
                   rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))):
        g = FieldGrid(values, 1.5e-6, 2.5e-6, (-1e-5, 2e-5))
        path = tmp_path / "grid.ocmg"
        g.save(path)
        back = FieldGrid.load(path)
        assert back.values.dtype == g.values.dtype or g.values.dtype == float
        np.testing.assert_array_equal(back.values, g.values)
        assert (back.dx, back.dy, back.origin) == (g.dx, g.dy, g.origin)


def test_binary_container_header(tmp_path):
    g = FieldGrid(np.ones((4, 4)), 1e-6, 1e-6)
    path = tmp_path / "grid.ocmg"
    g.save(path)
    raw = path.read_bytes()
    assert raw[:4] == b"OCMG"
    # real payload: 4 bytes magic + 2 version + 8+8 shape... header then 16 f64
    assert len(raw) == 4 + 2 + 4 + 4 + 8 * 4 + 1 + 16 * 8


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    g = FieldGrid(rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5)),
                  2e-6, 2e-6, (0.0, -4e-6))
    path = tmp_path / "grid.csv"
    g.export_csv(path)
    text = path.read_text()
    assert text.startswith("#")
    data = np.loadtxt(path, delimiter=",", comments="#")
    back = data[:, 0::2] + 1j * data[:, 1::2]
    np.testing.assert_array_equal(back, g.values)  # repr is lossless


def test_interpolation_matches_samples():
    spec = GridSpec.centered(32, 1e-6)
    g = FieldGrid.sample(spec, lambda x, y: np.cos(1e5 * x) * np.sin(1e5 * y))
    pts = np.stack([g.x_axis()[5:9], g.y_axis()[10:14]], axis=-1)
    np.testing.assert_allclose(g.interpolate(pts),
                               [g.values[5 + k, 10 + k] for k in range(4)],
                               atol=1e-12)


# every analytic Aperture kind, and both pupils at orders 1 to 3; ``mask``
# interpolates a grid that is not the sampled one
SAMPLED = {
    "slits": Aperture.slits(3, 20e-6, 45e-6, slit_length=90e-6,
                            center=(5e-6, -3e-6)).amplitude,
    "unbounded_slit": Aperture.slits(1, 30e-6).amplitude,
    "rectangle": Aperture.rectangle(70e-6, 40e-6, (10e-6, 5e-6)).amplitude,
    "gaussian_spot": Aperture.gaussian_spot(25e-6, (-5e-6, 0.0)).amplitude,
    "uniform": Aperture.uniform().amplitude,
    "mask": Aperture.from_mask(FieldGrid.sample(
        GridSpec.centered(24, 8e-6),
        lambda x, y: np.exp(-(x ** 2 + 2 * y ** 2) / 1e-9))).amplitude,
    **{f"{pupil.value}_pupil_order_{n}": partial(ImagingSystem(
        1.38e-3, 0.355, 810e-9, 2.4, pupil, pupil_sigma=0.5e-3).psf_amplitude,
        order=n) for pupil in PupilProfile for n in (1, 2, 3)},
}


@pytest.mark.parametrize("kind", list(SAMPLED))
@given(st.integers(2, 40), st.integers(2, 40), st.floats(1e-7, 1e-5),
       st.floats(1e-7, 1e-5), st.floats(-2e-4, 2e-4), st.floats(-2e-4, 2e-4))
def test_sample_equals_meshgrid_evaluation(kind, nx, ny, dx, dy, ox, oy):
    spec = GridSpec(nx, ny, dx, dy, (ox, oy))
    func = SAMPLED[kind]
    X, Y = np.meshgrid(spec.x_axis(), spec.y_axis(), indexing="ij")
    got = FieldGrid.sample(spec, func)
    assert got.spec == spec
    assert np.array_equal(got.values, func(X, Y))


def test_sample_broadcasts_a_partial_result_to_a_writable_grid():
    spec = GridSpec(5, 3, 1.0, 2.0, (0.0, -2.0))
    g = FieldGrid.sample(spec, lambda x, y: y)
    assert g.values.shape == (5, 3) and g.values.flags.writeable
    assert np.array_equal(g.values, np.tile(spec.y_axis(), (5, 1)))


def grid_bytes(tmp_path) -> bytes:
    path = tmp_path / "good.ocmg"
    FieldGrid(np.arange(12.0).reshape(3, 4), 1e-6, 2e-6).save(path)
    return path.read_bytes()


@pytest.mark.parametrize("corrupt", [
    lambda good: good[:20],                                  # short header
    lambda good: b"XXXX" + good[4:],                         # wrong magic
    lambda good: good[:4] + struct.pack("<H", 9) + good[6:],  # wrong version
    lambda good: good[:-8],                                  # short payload
    lambda good: good + b"\0" * 8,                           # trailing bytes
    lambda good: good[:46] + b"\7" + good[47:] * 2,          # kind 7
    lambda good: good[:14] + struct.pack("<d", np.inf) + good[22:],  # dx
    lambda good: good[:30] + struct.pack("<d", np.nan) + good[38:],  # origin
], ids=["short", "magic", "version", "short_payload", "trailing", "kind_7",
        "infinite_dx", "nan_origin"])
def test_malformed_grid_file_is_a_typed_error(tmp_path, corrupt):
    path = tmp_path / "bad.ocmg"
    path.write_bytes(corrupt(grid_bytes(tmp_path)))
    with pytest.raises(CorruptGridFile):
        FieldGrid.load(path)
    assert main(["--config", str(CONFIG), "--out", str(tmp_path / "o"),
                 "analyze", str(path)]) == 3
