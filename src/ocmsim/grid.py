"""Uniformly sampled 2-D scalar fields and their file formats.

A :class:`FieldGrid` carries complex or real sample values together with the
physical geometry: sample (i, j) sits at ``origin + (i*dx, j*dy)`` (meters).
Axis 0 is x, axis 1 is y throughout the package.

The binary container ("OCMG") stores a self-describing header followed by the
row-major little-endian float64 payload (complex data is stored as
interleaved re/im pairs per sample).  A lossless CSV export with ``#`` header
comment lines is provided for external plotting.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (CorruptGridFile, GridMismatch, SinkWriteError,
                     require_finite_positive)

OCMG_MAGIC = b"OCMG"
OCMG_VERSION = 1

_HEADER = struct.Struct("<4sHIIddddB")  # magic, version, nx, ny, dx, dy, ox, oy, kind


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
        self.origin = (float(self.origin[0]), float(self.origin[1]))
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("origin must be finite")

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
        """Bilinear interpolation at (..., 2) physical positions."""
        from scipy.interpolate import RegularGridInterpolator

        f = RegularGridInterpolator(
            (self.x_axis(), self.y_axis()), self.values,
            bounds_error=False, fill_value=0.0)
        return f(points)

    # -- file formats ---------------------------------------------------------
    def save(self, path) -> None:
        """Write the OCMG binary container."""
        kind = 1 if self.is_complex else 0
        header = _HEADER.pack(OCMG_MAGIC, OCMG_VERSION, self.nx, self.ny,
                              self.dx, self.dy, self.origin[0], self.origin[1],
                              kind)
        if kind:
            payload = np.ascontiguousarray(
                self.values.astype(np.complex128)).view(np.float64)
        else:
            payload = np.ascontiguousarray(self.values.astype(np.float64))
        try:
            with open(path, "wb") as fh:
                fh.write(header)
                fh.write(payload.astype("<f8", copy=False).tobytes())
        except OSError as exc:
            raise SinkWriteError(f"cannot write grid file {path}: {exc}") from exc

    @classmethod
    def load(cls, path) -> "FieldGrid":
        """Read an OCMG file; any malformed part raises ``CorruptGridFile``."""
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < _HEADER.size:
            raise CorruptGridFile(f"{path}: {len(data)} bytes, shorter than "
                                  f"the {_HEADER.size}-byte OCMG header")
        magic, version, nx, ny, dx, dy, ox, oy, kind = \
            _HEADER.unpack_from(data)
        if magic != OCMG_MAGIC:
            raise CorruptGridFile(f"{path}: not an OCMG grid file")
        if version != OCMG_VERSION:
            raise CorruptGridFile(
                f"{path}: unsupported OCMG version {version}")
        if kind not in (0, 1):
            raise CorruptGridFile(f"{path}: kind {kind} is neither 0 (real) "
                                  "nor 1 (complex)")
        count = nx * ny * (2 if kind else 1)
        if len(data) != _HEADER.size + count * 8:
            raise CorruptGridFile(
                f"{path}: payload of {len(data) - _HEADER.size} bytes, "
                f"expected {count * 8} for {nx} x {ny} samples")
        data = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
        values = (data.view(np.complex128) if kind else data).reshape(nx, ny)
        try:
            return cls(values.copy(), dx, dy, (ox, oy))
        except ValueError as exc:
            raise CorruptGridFile(f"{path}: {exc}") from None

    def export_csv(self, path) -> None:
        """Plain-text export: `#`-prefixed header lines, then one row per x."""
        try:
            with open(path, "w") as fh:
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
        except OSError as exc:
            raise SinkWriteError(f"cannot write CSV {path}: {exc}") from exc
