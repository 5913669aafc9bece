import struct
from pathlib import Path

import numpy as np
import pytest

from ocmsim import FieldGrid, GridSpec, fourier_transform_2d
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
