import hashlib
import json
import struct
import tempfile
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
from ocmsim.events_io import write_framed
from ocmsim.grid import OCMG_MAGIC

from oracles import interpolate_scipy, inverse_fourier_transform_2d

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
    # a spacing below the origin's ulp gives equal axis values
    for dx, dy, origin in ((1e-10, 1.0, (1e8, 0.0)), (1.0, 1e-10, (0.0, -1e8))):
        with pytest.raises(ValueError, match="not strictly ascending"):
            FieldGrid(np.ones((3, 3)), dx, dy, origin)


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
    """Version-2 framing: magic and version, the samples, the JSON header,
    the header's length as the last 4 bytes."""
    g = FieldGrid(np.arange(16.0).reshape(4, 4), 1e-6, 2e-6, (-3e-6, 0.5))
    path = tmp_path / "grid.ocmg"
    g.save(path)
    raw = path.read_bytes()
    assert raw[:6] == b"OCMG\2\0"
    payload, end = raw[6:6 + 16 * 8], len(raw) - 4
    assert payload == g.values.astype("<f8").tobytes()
    assert json.loads(raw[6 + 16 * 8:end]) == {
        "shape": [4, 4], "dx": 1e-6, "dy": 2e-6, "origin": [-3e-6, 0.5],
        "complex": False, "payload_bytes": 128,
        "payload_sha256": hashlib.sha256(payload).hexdigest()}
    assert int.from_bytes(raw[end:], "little") == end - 6 - 16 * 8


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


#: batch shapes of the interpolation points; () is a single (2,) point
BATCHES = [(), (0,), (1,), (3, 0), (2, 3), (64,), (4, 16)]


@st.composite
def interpolation_cases(draw):
    """A float64 or complex128 grid of random origin and spacing, and points
    on its grid lines, on its last line, inside, outside, at +-inf and NaN.
    The origins and spacings keep both axes strictly ascending, as SciPy
    requires."""
    nx, ny = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    value = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))
    values = np.array(draw(st.lists(value, min_size=nx * ny,
                                    max_size=nx * ny))).reshape(nx, ny)
    if draw(st.booleans()):
        values = values + 1j * np.array(draw(st.lists(
            value, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    grid = FieldGrid(values, draw(st.floats(1e-7, 1e3)),
                     draw(st.floats(1e-7, 1e3)),
                     (draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))))

    def coordinate(axis):
        span = axis[-1] - axis[0]
        return st.one_of(st.sampled_from(axis), st.just(axis[-1]),
                         st.floats(axis[0], axis[-1]),
                         st.floats(axis[0] - span, axis[-1] + span),
                         st.sampled_from([np.inf, -np.inf, np.nan]))

    batch = draw(st.sampled_from(BATCHES))
    n = int(np.prod(batch))
    points = draw(st.lists(st.tuples(coordinate(grid.x_axis()),
                                     coordinate(grid.y_axis())),
                           min_size=n, max_size=n))
    return grid, np.array(points, float).reshape(*batch, 2)


@given(interpolation_cases())
def test_interpolation_equals_scipy(case):
    """The NumPy port gives SciPy's values bit for bit (signed zeros
    included), NaN where SciPy gives NaN, in SciPy's shape and dtype."""
    grid, points = case
    got, expected = grid.interpolate(points), interpolate_scipy(grid, points)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got, expected, equal_nan=True)
    number = ~np.isnan(expected)
    assert got[number].tobytes() == expected[number].tobytes()


def test_interpolating_a_read_only_or_narrow_grid_gives_the_float64_bits():
    """SciPy evaluates read-only and float32 grids on a slower path whose
    last bits differ; the port gives such grids the writeable float64
    grid's bits."""
    rng = np.random.default_rng(4)
    grid = FieldGrid(rng.normal(size=(9, 7)), 1e-6, 2e-6, (-3e-6, 1e-6))
    points = rng.uniform(-5e-6, 1.6e-5, (200, 2))
    expected = grid.interpolate(points)
    read_only = grid.values.copy()
    read_only.flags.writeable = False
    narrow = grid.values.astype(np.float32)
    assert np.array_equal(FieldGrid(read_only, grid.dx, grid.dy, grid.origin)
                          .interpolate(points), expected)
    assert np.array_equal(
        FieldGrid(narrow, grid.dx, grid.dy, grid.origin).interpolate(points),
        FieldGrid(narrow.astype(float), grid.dx, grid.dy,
                  grid.origin).interpolate(points))


def test_interpolation_refuses_what_scipy_refuses():
    """Points that are not pairs, and an axis whose spacing vanishes beside
    its origin, are ValueErrors, as in SciPy.  ``FieldGrid`` refuses such
    an axis when it is built, so this one is set on a built grid."""
    flat = FieldGrid(np.ones((3, 3)), 1.0, 1.0)
    flat.dx, flat.dy, flat.origin = 1e-10, 1e-10, (1e8, 0.0)
    assert flat.x_axis()[0] == flat.x_axis()[-1]
    for grid, points in ((FieldGrid(np.zeros((3, 3)), 1.0, 1.0),
                          np.zeros((4, 3))),
                         (flat, np.array([1e8, 1e-10]))):
        with pytest.raises(ValueError):
            grid.interpolate(points)
        with pytest.raises(ValueError):
            interpolate_scipy(grid, points)


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


def framed(**change) -> bytes:
    """The OCMG file the one writer frames for 3 x 4 real samples under
    the geometry header with keys changed, unchecked."""
    header = {"shape": [3, 4], "dx": 1e-6, "dy": 2e-6, "origin": [0.0, 0.0],
              "complex": False, **change}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.ocmg"
        write_framed(path, OCMG_MAGIC, header, np.arange(12.0), "grid file")
        return path.read_bytes()


@pytest.mark.parametrize("corrupt, message", [
    (lambda good: good[:9], "9 bytes, too short"),
    (lambda good: b"XXXX" + good[4:], "not an OCMG file"),
    (lambda good: good[:4] + struct.pack("<H", 9) + good[6:],
     "unsupported OCMG version 9"),
    (lambda good: good[:6] + good[14:], "payload of 88 bytes"),
    (lambda good: good + b"\0" * 8, "header is not JSON"),
    (lambda good: framed(complex=7), "complex = 7 is not a bool"),
    (lambda good: framed(dx=np.inf), "dx = inf must be finite"),
    (lambda good: framed(origin=[np.nan, 0.0]), "not two finite reals"),
    (lambda good: framed(origin="12"), "origin = '12'"),
    (lambda good: framed(origin=[1.0, 2.0, 3.0]), "not two finite reals"),
    (lambda good: framed(shape=[3, 5]), "cannot reshape"),
    (lambda good: framed(shape=[12]), "2-D"),
    (lambda good: framed(dx=1e-10, origin=[1e8, 0.0]),
     "grid axis is not strictly ascending"),
    (lambda good: good[:20] + bytes([good[20] ^ 1]) + good[21:], "SHA-256"),
], ids=["short", "magic", "version", "short_payload", "trailing", "kind_7",
        "infinite_dx", "nan_origin", "string_origin", "three_origin",
        "wrong_shape", "one_axis", "flat_axis", "flipped_sample"])
def test_malformed_grid_file_is_a_typed_error(tmp_path, corrupt, message):
    """Each file breaks one check and is refused with that check's message,
    which names the file."""
    path = tmp_path / "bad.ocmg"
    path.write_bytes(corrupt(grid_bytes(tmp_path)))
    with pytest.raises(CorruptGridFile, match=message) as refused:
        FieldGrid.load(path)
    assert str(refused.value).startswith(f"{path}: ")
    assert main(["--config", str(CONFIG), "--out", str(tmp_path / "o"),
                 "analyze", str(path)]) == 3
