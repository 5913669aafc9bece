"""Uniformly sampled 2-D scalar fields and their file formats.

A :class:`FieldGrid` carries complex or real sample values together with the
physical geometry: sample (i, j) sits at ``origin + (i*dx, j*dy)`` (meters).
Axis 0 is x, axis 1 is y throughout the package.

An image (OCMG) file is framed like an event file (``events_io``): samples
row-major as little-endian float64 or complex128, under a JSON header of
``shape``, ``dx``, ``dy``, ``origin`` and ``complex``.  A lossless CSV
export with ``#`` header comment lines is provided for external plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CorruptGridFile, GridMismatch, finite_real,
                     require_finite_positive, sink)
from .events_io import read_framed, write_framed

OCMG_MAGIC = b"OCMG"


def _require_ascending(axis: np.ndarray) -> None:
    if not np.all(axis[1:] > axis[:-1]):    # a spacing below the origin's ulp
        raise ValueError("grid axis is not strictly ascending")


def _cell(axis: np.ndarray, p: np.ndarray):
    """Cell index, weight and out-of-span mask of coordinates ``p`` on an
    ascending ``axis``, as SciPy's ``find_indices`` gives them."""
    _require_ascending(axis)
    i = np.clip(np.searchsorted(axis, p, "right") - 1, 0, axis.size - 2)
    weight = (p - axis[i]) / (axis[i + 1] - axis[i])
    return i, weight, (p < axis[0]) | (p > axis[-1])


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a grid without values: shape, spacing, origin."""

    nx: int
    ny: int
    dx: float
    dy: float
    origin: tuple[float, float]

    @classmethod
    def centered(cls, nx: int, dx: float, ny: int | None = None,
                 dy: float | None = None) -> "GridSpec":
        """Square-ish grid with a sample exactly at the physical origin."""
        ny = nx if ny is None else ny
        dy = dx if dy is None else dy
        return cls(nx, ny, dx, dy, (-(nx // 2) * dx, -(ny // 2) * dy))

    def x_axis(self) -> np.ndarray:
        return self.origin[0] + np.arange(self.nx) * self.dx

    def y_axis(self) -> np.ndarray:
        return self.origin[1] + np.arange(self.ny) * self.dy


@dataclass
class FieldGrid:
    """Sampled 2-D complex (or real) scalar field with physical geometry."""

    values: np.ndarray
    dx: float
    dy: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if self.values.shape[0] < 2 or self.values.shape[1] < 2:
            raise ValueError("grid needs nx, ny >= 2")
        require_finite_positive(self, "dx", "dy")
        if len(self.origin) != 2 or not all(map(finite_real, self.origin)):
            raise ValueError(f"origin = {self.origin!r} is not two finite reals")
        self.origin = (float(self.origin[0]), float(self.origin[1]))
        _require_ascending(self.x_axis())
        _require_ascending(self.y_axis())

    # -- geometry -----------------------------------------------------------
    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def spec(self) -> GridSpec:
        return GridSpec(self.nx, self.ny, self.dx, self.dy, self.origin)

    def x_axis(self) -> np.ndarray:
        return self.origin[0] + np.arange(self.nx) * self.dx

    def y_axis(self) -> np.ndarray:
        return self.origin[1] + np.arange(self.ny) * self.dy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x_axis(), self.y_axis(), indexing="ij")

    def extent(self) -> tuple[float, float]:
        return (self.nx * self.dx, self.ny * self.dy)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    # -- construction -------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: GridSpec, values: np.ndarray) -> "FieldGrid":
        values = np.asarray(values)
        if values.shape != (spec.nx, spec.ny):
            raise GridMismatch(
                f"values shape {values.shape} != spec shape {(spec.nx, spec.ny)}")
        return cls(values, spec.dx, spec.dy, spec.origin)

    @classmethod
    def sample(cls, spec: GridSpec, func) -> "FieldGrid":
        """Pixel-center sample ``func(x, y)`` on the spec's grid; ``func``
        gets the x axis as a column, the y axis as a row, and must broadcast."""
        shape = (spec.nx, spec.ny)
        values = np.asarray(func(spec.x_axis()[:, None], spec.y_axis()[None, :]))
        if values.shape != shape:       # e.g. a function of y alone
            values = np.broadcast_to(values, shape).copy()
        return cls(values, spec.dx, spec.dy, spec.origin)

    def copy(self) -> "FieldGrid":
        return FieldGrid(self.values.copy(), self.dx, self.dy, self.origin)

    # -- numerics helpers ----------------------------------------------------
    def peak_normalized(self) -> "FieldGrid":
        peak = np.abs(self.values).max()
        if peak == 0:
            return self.copy()
        return FieldGrid(self.values / peak, self.dx, self.dy, self.origin)

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        """Bilinear interpolation at (..., 2) physical positions.

        Bit for bit SciPy's ``RegularGridInterpolator((x_axis, y_axis),
        values, bounds_error=False, fill_value=0.0)`` on a writeable float64
        or complex128 grid: along each axis the cell is
        ``searchsorted(axis, p, "right") - 1`` clipped to ``[0, n - 2]`` and
        the weight ``(p - g[i]) / (g[i + 1] - g[i])``, the four corners are
        summed in SciPy's order, a point outside either axis's span gives 0
        and a point with a NaN coordinate gives NaN.  The result has the
        points' batch shape; a single ``(2,)`` point gives shape ``(1,)``.
        Read-only grids, and float32 or complex64 grids, which SciPy
        evaluates on a slower path whose last bits differ, get the fast
        path's arithmetic in float64 or complex128.
        """
        xi = np.asarray(points, dtype=float)
        if xi.ndim == 1:
            xi = xi.reshape(-1, 2)
        if xi.shape[-1] != 2:
            raise ValueError(f"points of shape {xi.shape} are not (..., 2)")
        values = self.values
        # far or infinite points overflow or meet inf * 0 before the fill;
        # SciPy's sum starts at 0.0, so four -0.0 corners give +0.0
        with np.errstate(invalid="ignore", over="ignore"):
            i, wx, out_x = _cell(self.x_axis(), xi[..., 0])
            j, wy, out_y = _cell(self.y_axis(), xi[..., 1])
            out = (0.0 + values[i, j] * (1 - wx) * (1 - wy)
                   + values[i, j + 1] * (1 - wx) * wy
                   + values[i + 1, j] * wx * (1 - wy)
                   + values[i + 1, j + 1] * wx * wy)
        out[out_x | out_y] = 0.0
        out[np.isnan(xi).any(axis=-1)] = np.nan
        return out

    # -- file formats ---------------------------------------------------------
    def save(self, path) -> None:
        """Write the OCMG file."""
        header = {"shape": list(self.values.shape), "dx": float(self.dx),
                  "dy": float(self.dy), "origin": list(self.origin),
                  "complex": self.is_complex}
        samples = np.ascontiguousarray(
            self.values, "<c16" if self.is_complex else "<f8")
        write_framed(path, OCMG_MAGIC, header, samples, "grid file")

    @classmethod
    def load(cls, path) -> "FieldGrid":
        """Read an OCMG file; any malformed part raises ``CorruptGridFile``."""
        header, payload = read_framed(path, OCMG_MAGIC, CorruptGridFile)
        kind = header.get("complex")
        if type(kind) is not bool:
            raise CorruptGridFile(f"{path}: complex = {kind!r} is not a bool")
        samples = np.frombuffer(payload, "<c16" if kind else "<f8")
        try:
            return cls(samples.reshape(header.get("shape")).copy(),
                       header.get("dx"), header.get("dy"), header.get("origin"))
        except (TypeError, ValueError) as exc:
            raise CorruptGridFile(f"{path}: {exc}") from None

    def export_csv(self, path) -> None:
        """Plain-text export: `#`-prefixed header lines, then one row per x."""
        with sink(path, "w", "CSV") as fh:
            fh.write("# ocmsim field grid export\n")
            fh.write(f"# nx={self.nx} ny={self.ny}\n")
            fh.write(f"# dx={self.dx!r} dy={self.dy!r}\n")
            fh.write(f"# origin_x={self.origin[0]!r} origin_y={self.origin[1]!r}\n")
            fh.write(f"# kind={'complex' if self.is_complex else 'real'}\n")
            if self.is_complex:
                fh.write("# each row: re,im pairs along y\n")
                for row in self.values:
                    fh.write(",".join(f"{float(v.real)!r},{float(v.imag)!r}"
                                      for v in row))
                    fh.write("\n")
            else:
                for row in self.values:
                    fh.write(",".join(repr(float(v)) for v in row))
                    fh.write("\n")
