import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from ocmsim import Aperture, GridSpec, ImagingSystem

# Property tests draw the same examples on every run, never fail on the time
# one example takes, and keep no example database on disk.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tier1")

ROOT = Path(__file__).resolve().parents[1]


def load_module(name: str, path: Path):
    """The module ``name`` run from the file at ``path``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ``WORKLOADS`` of perfbench/spec.py, a data module that imports no ocmsim
WORKLOADS = load_module("perfbench_spec",
                        ROOT / "perfbench" / "spec.py").WORKLOADS
_LIBRARY = {name: w["overrides"] for name, w in WORKLOADS.items()
            if w["kind"] == "library"}
#: one case per library workload of the benchmark: its ``load_config``
#: overrides as ``overrides``
BENCHMARK_SETTINGS = pytest.mark.parametrize(
    "overrides", list(_LIBRARY.values()), ids=list(_LIBRARY))


@pytest.fixture
def reference_system() -> ImagingSystem:
    """The low-NA single-lens geometry used throughout: R = 1.38 mm,
    s_o = 355 mm, 810 nm, m = 2.4."""
    return ImagingSystem(pupil_radius=1.38e-3, object_distance=0.355,
                         wavelength=810e-9, magnification=2.4)


@pytest.fixture
def triple_slit() -> Aperture:
    return Aperture.slits(3, 70e-6, 110e-6, slit_length=300e-6)


@pytest.fixture
def psf_grid(reference_system) -> GridSpec:
    """Object-plane grid resolving the PSF with wide margins."""
    r0 = reference_system.first_zero_radius
    return GridSpec.centered(512, r0 / 8)


def fwhm_of(x, y) -> float:
    """Half-maximum full width by linear interpolation (test-local helper)."""
    y = np.asarray(y, float)
    c = int(np.argmax(y))
    half = y[c] / 2.0
    left = np.flatnonzero(y[:c] < half)[-1]
    right = c + np.flatnonzero(y[c:] < half)[0]
    xl = x[left] + (half - y[left]) * (x[left + 1] - x[left]) / (y[left + 1] - y[left])
    xr = x[right - 1] + (half - y[right - 1]) * (x[right] - x[right - 1]) \
        / (y[right] - y[right - 1])
    return xr - xl


def first_zero_of(x, y) -> float:
    """First sign change of y along x >= 0 (y sampled on a centered axis)."""
    c = int(np.argmin(np.abs(x)))
    row = np.asarray(y, float)[c:]
    sign = np.flatnonzero(np.diff(np.signbit(row)))
    i = sign[0]
    frac = row[i] / (row[i] - row[i + 1])
    return (i + frac) * (x[1] - x[0])
