"""Sampled scalar Fourier optics: PSFs, convolution, imaging.

One function, ``image``, forms every image: the coherent |A * H_N|^2 or the
incoherent |A|^2 * |H_N|^2 with the order-N PSF H_N.  Order 1 is classical
imaging (``coherent_image``, ``incoherent_image``); order N > 1 is the
N-photon centroid image (``ocm.ocm_image``).  Its cost follows the object's
size, not the grid's: only the aperture's nonzero box is convolved.  SciPy
loads inside ``somb`` and the convolution, not on import.

Conventions
-----------
* Object-plane coordinates are canonical; image-plane axes are object axes
  relabeled by the magnification m (translation-invariant PSF, paraxial
  single-lens regime where the residual quadratic phase is negligible).
* PSFs are normalized to h(0) = 1; images are reported in arbitrary units.
* Continuous-FT convention: f~(q) = Integral f(rho) exp(-i q.rho) d^2 rho,
  forward only (``far_field_pattern``); the inverse is a test oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, WrongPupilProfile
from .grid import FieldGrid, GridSpec

#: first positive root of the Bessel function J1
J1_FIRST_ZERO = 3.8317059702075125


def somb(x):
    """Sombrero function 2*J1(x)/x with the removable singularity somb(0)=1.

    Even in x; first zero at x = 3.8317...
    """
    from scipy.special import j1

    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = 2.0 * j1(x[nz]) / x[nz]
    if out.ndim == 0:
        return float(out)
    return out


class PupilProfile(enum.Enum):
    HARD_CIRCULAR = "hard"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class ImagingSystem:
    """Single-lens imaging geometry: pupil, object distance, wavelength."""

    pupil_radius: float          # R, meters
    object_distance: float       # s_o, meters
    wavelength: float            # lambda, meters
    magnification: float         # m, dimensionless > 0
    pupil_profile: PupilProfile = PupilProfile.HARD_CIRCULAR
    pupil_sigma: float | None = None   # Gaussian pupil std in the pupil plane, meters

    def __post_init__(self) -> None:
        for name in ("pupil_radius", "object_distance", "wavelength"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.magnification <= 0:
            raise ValueError("magnification must be > 0")
        if self.pupil_profile is PupilProfile.GAUSSIAN and not self.pupil_sigma:
            raise ValueError("Gaussian pupil needs pupil_sigma")

    def with_wavelength(self, wavelength: float) -> "ImagingSystem":
        return ImagingSystem(self.pupil_radius, self.object_distance, wavelength,
                             self.magnification, self.pupil_profile, self.pupil_sigma)

    @property
    def first_zero_radius(self) -> float:
        """Object-plane radius of the first PSF zero (hard circular pupil)."""
        return J1_FIRST_ZERO * self.object_distance * self.wavelength / (
            2.0 * np.pi * self.pupil_radius)

    @property
    def psf_sigma(self) -> float:
        """Object-plane std of the Gaussian PSF (Gaussian pupil only)."""
        if self.pupil_profile is not PupilProfile.GAUSSIAN:
            raise WrongPupilProfile("psf_sigma defined for Gaussian pupils only")
        return self.object_distance * self.wavelength / (
            2.0 * np.pi * self.pupil_sigma)

    def sampling_limit(self, order: int = 1) -> float:
        """Coarsest grid spacing that samples the order-N PSF: a quarter of
        the first-zero radius (hard pupil) or half the Gaussian std."""
        if self.pupil_profile is PupilProfile.HARD_CIRCULAR:
            return self.first_zero_radius / order / 4.0
        return self.psf_sigma / np.sqrt(order) / 2.0

    def psf_amplitude(self, x, y, order: int = 1):
        """PSF amplitude h at object-plane offsets, h(0)=1.

        ``order`` scales the argument (order N gives the N-photon centroid
        PSF shape for this pupil).
        """
        r = np.hypot(x, y)
        if self.pupil_profile is PupilProfile.HARD_CIRCULAR:
            return somb(2.0 * np.pi * self.pupil_radius * order * r
                        / (self.object_distance * self.wavelength))
        sigma = self.psf_sigma
        return np.exp(-order * r ** 2 / (2.0 * sigma ** 2))


# ---------------------------------------------------------------------------
# Apertures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Aperture:
    """Object transmission function, |A| <= 1 everywhere.

    Analytic primitives rasterize by pixel-center sampling; slit patterns run
    along y with the pattern axis along x.  ``mask`` holds an arbitrary grid
    aperture instead.
    """

    kind: str                       # point|slits|rectangle|gaussian_spot|uniform|mask
    line_width: float = 0.0         # slit width along x, meters
    pitch: float = 0.0              # slit center-to-center distance, meters
    n_slits: int = 0
    slit_length: float | None = None   # extent along y; None = unbounded
    size: tuple[float, float] = (0.0, 0.0)   # rectangle (wx, wy)
    waist: float = 0.0              # Gaussian 1/e amplitude radius, meters
    center: tuple[float, float] = (0.0, 0.0)
    mask: FieldGrid | None = None

    # -- constructors ---------------------------------------------------------
    @classmethod
    def point(cls, center=(0.0, 0.0)) -> "Aperture":
        return cls("point", center=center)

    @classmethod
    def slits(cls, n_slits: int, line_width: float, pitch: float = 0.0,
              slit_length: float | None = None, center=(0.0, 0.0)) -> "Aperture":
        if n_slits < 1:
            raise ValueError("n_slits >= 1")
        if n_slits > 1 and pitch <= line_width:
            raise ValueError("pitch must exceed line width")
        return cls("slits", line_width=line_width, pitch=pitch, n_slits=n_slits,
                   slit_length=slit_length, center=center)

    @classmethod
    def rectangle(cls, wx: float, wy: float, center=(0.0, 0.0)) -> "Aperture":
        return cls("rectangle", size=(wx, wy), center=center)

    @classmethod
    def gaussian_spot(cls, waist: float, center=(0.0, 0.0)) -> "Aperture":
        return cls("gaussian_spot", waist=waist, center=center)

    @classmethod
    def uniform(cls) -> "Aperture":
        return cls("uniform")

    @classmethod
    def from_mask(cls, mask: FieldGrid) -> "Aperture":
        if np.abs(mask.values).max() > 1 + 1e-12:
            raise ValueError("mask amplitude must satisfy |A| <= 1")
        return cls("mask", mask=mask)

    def slit_centers(self) -> np.ndarray:
        offsets = (np.arange(self.n_slits) - (self.n_slits - 1) / 2.0) * self.pitch
        return self.center[0] + offsets

    # -- evaluation -----------------------------------------------------------
    def amplitude(self, x, y):
        """Analytic amplitude at positions (point kind excluded)."""
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        cx, cy = self.center
        if self.kind == "uniform":
            return np.ones(np.broadcast(x, y).shape)
        if self.kind == "rectangle":
            wx, wy = self.size
            return ((np.abs(x - cx) <= wx / 2) & (np.abs(y - cy) <= wy / 2)
                    ).astype(float)
        if self.kind == "gaussian_spot":
            return np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / self.waist ** 2)
        if self.kind == "slits":
            out = np.zeros(np.broadcast(x, y).shape)
            for sx in self.slit_centers():
                out = np.maximum(out, (np.abs(x - sx) <= self.line_width / 2
                                       ).astype(float))
            if self.slit_length is not None:
                out = out * (np.abs(y - cy) <= self.slit_length / 2)
            return out
        if self.kind == "mask":
            return self.mask.interpolate(np.stack(
                np.broadcast_arrays(x, y), axis=-1))
        raise ValueError(f"no analytic form for aperture kind {self.kind!r}")

    def rasterize(self, spec: GridSpec) -> FieldGrid:
        """Deterministic pixel-center rasterization onto a grid."""
        if self.kind == "point":
            values = np.zeros((spec.nx, spec.ny))
            ix = int(np.argmin(np.abs(spec.x_axis() - self.center[0])))
            iy = int(np.argmin(np.abs(spec.y_axis() - self.center[1])))
            values[ix, iy] = 1.0
            return FieldGrid.from_spec(spec, values)
        if self.kind == "mask" and self.mask is not None and self.mask.spec == spec:
            return self.mask.copy()
        return FieldGrid.sample(spec, self.amplitude)

    def typical_extent(self) -> float:
        """Rough full object size along x, used for default grid sizing."""
        if self.kind == "slits":
            return (self.n_slits - 1) * self.pitch + self.line_width
        if self.kind == "rectangle":
            return max(self.size)
        if self.kind == "gaussian_spot":
            return 6.0 * self.waist
        if self.kind == "mask":
            return max(self.mask.extent())
        return 0.0


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def single_lens_psf(system: ImagingSystem, spec: GridSpec,
                    order: int = 1) -> FieldGrid:
    """Sample the object-plane PSF h on the grid, h(0) = 1.

    Raises GridTooCoarse when the spacing exceeds ``system.sampling_limit``
    (4 samples per first-zero radius for the hard pupil, 2 per Gaussian std).
    """
    limit = system.sampling_limit(order)
    if spec.dx > limit or spec.dy > limit:
        raise GridTooCoarse(
            f"spacing {max(spec.dx, spec.dy):.3g} m exceeds {limit:.3g} m "
            "needed to sample the PSF")
    return FieldGrid.sample(spec, lambda x, y: system.psf_amplitude(x, y, order))


def _linear_convolution(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Full linear convolution sum of two arrays by a zero-padded spectral
    product (no wrap-around)."""
    from scipy import fft as sp_fft

    shape = [n + k - 1 for n, k in zip(f.shape, g.shape)]
    real = not (np.iscomplexobj(f) or np.iscomplexobj(g))
    fft, ifft = ((sp_fft.rfftn, sp_fft.irfftn) if real
                 else (sp_fft.fftn, sp_fft.ifftn))
    fshape = [sp_fft.next_fast_len(n, real) for n in shape]
    return ifft(fft(f, fshape) * fft(g, fshape), fshape)[:shape[0], :shape[1]]


def image(aperture: Aperture, system: ImagingSystem, spec: GridSpec,
          order: int = 1, coherent: bool = True) -> FieldGrid:
    """Image of an order-N source on the image-plane grid, N = 1 classical.

    Coherent light gives |(A * H_N)(rho/m)|^2, incoherent light
    (|A|^2 * |H_N|^2)(rho/m), with H_N the order-N PSF sampled by
    ``single_lens_psf``.  The N-photon correlation depends on the centroid
    alone, so for N > 1 this is the complete centroid-image prediction.
    ``spec`` is the object-plane grid; the returned axes are scaled by the
    magnification.  Nonnegative everywhere.  Only the bounding box of the
    aperture's nonzero samples is convolved; the rest adds nothing.
    """
    a = aperture.rasterize(spec).values
    nonzero = [np.flatnonzero(np.any(a != 0, axis=k)) for k in (1, 0)]
    # the box of nonzero samples; an empty aperture keeps its first sample
    (i0, i1), (j0, j1) = ((n[0], n[-1]) if n.size else (0, 0) for n in nonzero)
    box = a[i0:i1 + 1, j0:j1 + 1]
    # the kernel holds every offset from a box sample to an output sample
    kernel = GridSpec(spec.nx + i1 - i0, spec.ny + j1 - j0, spec.dx, spec.dy,
                      (-i1 * spec.dx, -j1 * spec.dy))
    h = single_lens_psf(system, kernel, order).values
    if not coherent:
        box = np.abs(box) ** 2
        h = np.abs(h) ** 2
    # output sample p sits at index p + i1 - i0 of the full convolution
    conv = _linear_convolution(box, h)[i1 - i0:i1 - i0 + spec.nx,
                                       j1 - j0:j1 - j0 + spec.ny]
    conv = conv * spec.dx * spec.dy
    m = system.magnification
    values = np.abs(conv) ** 2 if coherent else conv.real.clip(min=0.0)
    return FieldGrid(values, spec.dx * m, spec.dy * m,
                     (spec.origin[0] * m, spec.origin[1] * m))


def coherent_image(aperture: Aperture, system: ImagingSystem,
                   spec: GridSpec) -> FieldGrid:
    """Classical coherent image: ``image`` at order 1."""
    return image(aperture, system, spec)


def incoherent_image(aperture: Aperture, system: ImagingSystem,
                     spec: GridSpec) -> FieldGrid:
    """Classical incoherent image: ``image`` at order 1."""
    return image(aperture, system, spec, coherent=False)


def fourier_transform_2d(f: FieldGrid) -> FieldGrid:
    """Continuous-convention forward transform from the rho- to the q-domain.

    f~(q) = sum f(rho) exp(-i q.rho) dx dy on the centered q grid; the phase
    ramp accounts for a grid whose center sample is not at the origin.
    """
    nx, ny = f.nx, f.ny
    dqx = 2.0 * np.pi / (nx * f.dx)
    dqy = 2.0 * np.pi / (ny * f.dy)
    qx = (np.arange(nx) - nx // 2) * dqx
    qy = (np.arange(ny) - ny // 2) * dqy
    spectrum = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(f.values)))
    spectrum = spectrum * (f.dx * f.dy)
    # center sample of the pre-shift grid sat at index (nx//2, ny//2);
    # account for the true origin with an explicit phase ramp
    x0 = f.origin[0] + (nx // 2) * f.dx
    y0 = f.origin[1] + (ny // 2) * f.dy
    if x0 != 0.0 or y0 != 0.0:
        spectrum = spectrum * np.exp(-1j * (qx[:, None] * x0 + qy[None, :] * y0))
    return FieldGrid(spectrum, dqx, dqy, (qx[0], qy[0]))
