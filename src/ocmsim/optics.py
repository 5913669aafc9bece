"""Sampled scalar Fourier optics: PSFs, convolution, imaging.

One function, ``image``, forms every image: the coherent |A * H_N|^2 or the
incoherent |A|^2 * |H_N|^2 with the order-N PSF H_N.  Order 1 is classical
imaging (``coherent_image``, ``incoherent_image``); order N > 1 is the
N-photon centroid image (``ocm.ocm_image``).  Its cost follows the object's
size, not the grid's: only the aperture's nonzero box is convolved, with a
kernel sampled once per distinct (|k|, |l|) of its whole-sample offsets.
The convolution is circular at the kernel's 5-smooth lengths, not padded to
the full linear length; the kept window never wraps, because the kernel
already spans every offset from the box to the output.  PSFs and
convolutions need NumPy alone: ``somb`` is a port of the Cephes J1 and the
convolution runs on ``numpy.fft``, both bit-identical to SciPy's.

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
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridTooCoarse, WrongPupilProfile, require_finite_positive
from .grid import FieldGrid, GridSpec

#: first positive root of the Bessel function J1
J1_FIRST_ZERO = 3.8317059702075125


# Cephes j1.c (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), which scipy.special.j1 runs: R = RP/RQ on x <= 5, the
# Hankel form P = PP/PQ, Q = QP/QQ above.  RQ and QQ carry the implicit
# leading 1 of Cephes' p1evl, which 1.0 * z reproduces exactly.
_J1_RP = (-8.99971225705559398224e8, 4.52228297998194034323e11,
          -7.27494245221818276015e13, 3.68295732863852883286e15)
_J1_RQ = (1.0, 6.20836478118054335476e2, 2.56987256757748830383e5,
          8.35146791431949253037e7, 2.21511595479792499675e10,
          4.74914122079991414898e12, 7.84369607876235854894e14,
          8.95222336184627338078e16, 5.32278620332680085395e18)
_J1_PP = (7.62125616208173112003e-4, 7.31397056940917570436e-2,
          1.12719608129684925192e0, 5.11207951146807644818e0,
          8.42404590141772420927e0, 5.21451598682361504063e0,
          1.00000000000000000254e0)
_J1_PQ = (5.71323128072548699714e-4, 6.88455908754495404082e-2,
          1.10514232634061696926e0, 5.07386386128601488557e0,
          8.39985554327604159757e0, 5.20982848682361821619e0,
          9.99999999999999997461e-1)
_J1_QP = (5.10862594750176621635e-2, 4.98213872951233449420e0,
          7.58238284132545283818e1, 3.66779609360150777800e2,
          7.10856304998926107277e2, 5.97489612400613639965e2,
          2.11688757100572135698e2, 2.52070205858023719784e1)
_J1_QQ = (1.0, 7.42373277035675149943e1, 1.05644886038262816351e3,
          4.98641058337653607651e3, 9.56231892404756170795e3,
          7.99704160447350683650e3, 2.82619278517639096600e3,
          3.36093607810698293419e2)
_J1_Z1, _J1_Z2 = 1.46819706421238932572e1, 4.92184563216946036703e1
_THPIO4, _SQ2OPI = 2.35619449019234492885, 7.9788456080286535587989e-1
_SOMB_BLOCK = 1 << 15       # elements per block: bounds somb's temporaries


def _polevl(z: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes polevl: Horner's rule in its order of operations, in place."""
    p = z * coef[0]
    for c in coef[1:-1]:
        p += c
        p *= z
    p += coef[-1]
    return p


def _somb_block(a: np.ndarray, out: np.ndarray) -> None:
    """``out`` = 2 J1(a)/a for a = |x| in Cephes' order of operations (J1 is
    odd, so the sign of x cannot change the quotient); 1 at 0, 0 at inf."""
    out[...] = a == 0.0
    out[np.isnan(a)] = np.nan
    # most blocks lie wholly above the seam at 5: no mask copies there
    far = (slice(None) if a.min() > 5.0 and a.max() < np.inf
           else (a > 5.0) & (a < np.inf))
    x = a[far]
    w = 5.0 / x
    z = w * w
    p = _polevl(z, _J1_PP) / _polevl(z, _J1_PQ)
    q = _polevl(z, _J1_QP) / _polevl(z, _J1_QQ)
    xn = x - _THPIO4
    p = p * np.cos(xn) - w * q * np.sin(xn)
    out[far] = 2.0 * (p * _SQ2OPI / np.sqrt(x)) / x
    near = (a > 0.0) & (a <= 5.0)
    x = a[near]
    z = x * x
    w = _polevl(z, _J1_RP) / _polevl(z, _J1_RQ) * x * (z - _J1_Z1) * (z - _J1_Z2)
    out[near] = 2.0 * w / x


def somb(x):
    """Sombrero function 2*J1(x)/x with the removable singularity somb(0)=1.

    Even in x; first zero at x = 3.8317...  J1 is Cephes' ``j1`` ported to
    NumPy in blocks, so a finite x gives ``2 * scipy.special.j1(x) / x`` bit
    for bit (``tests/test_optics.py``); somb(+-inf) = 0, somb(nan) = nan.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat_x, flat = x.ravel(), out.reshape(-1)
    for k in range(0, x.size, _SOMB_BLOCK):
        block = slice(k, k + _SOMB_BLOCK)
        _somb_block(np.abs(flat_x[block]), flat[block])
    if out.ndim == 0:
        return float(out)
    return out


class PupilProfile(enum.Enum):
    HARD_CIRCULAR = "hard"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class ImagingSystem:
    """Single-lens imaging geometry: pupil, object distance, wavelength.
    Its lengths, magnification and Gaussian sigma are finite and > 0."""

    pupil_radius: float          # R, meters
    object_distance: float       # s_o, meters
    wavelength: float            # lambda, meters
    magnification: float         # m, dimensionless > 0
    pupil_profile: PupilProfile = PupilProfile.HARD_CIRCULAR
    pupil_sigma: float | None = None   # Gaussian pupil std in the pupil plane, meters

    def __post_init__(self) -> None:
        require_finite_positive(self, "pupil_radius", "object_distance",
                                "wavelength", "magnification")
        if self.pupil_profile is PupilProfile.GAUSSIAN:
            require_finite_positive(self, "pupil_sigma")

    def with_wavelength(self, wavelength: float) -> "ImagingSystem":
        return replace(self, wavelength=wavelength)

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
        PSF shape for this pupil).  On an x column and a y row, as
        ``FieldGrid.sample`` passes its axes, h is evaluated once per
        distinct (|x|, |y|) pair and gathered: h depends on hypot(x, y)
        alone, which ignores signs bit for bit, so the values are those of
        direct evaluation.
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim == y.ndim == 2 and x.shape[1] == 1 and y.shape[0] == 1:
            ux, ix = np.unique(np.abs(x[:, 0]), return_inverse=True)
            uy, iy = np.unique(np.abs(y[0]), return_inverse=True)
            h = self._psf_of_radius(np.hypot(ux[:, None], uy), order)
            return h[ix].take(iy, axis=1)
        return self._psf_of_radius(np.hypot(x, y), order)

    def _psf_of_radius(self, r: np.ndarray, order: int) -> np.ndarray:
        """h at radii ``r`` (scaled in place for the hard pupil)."""
        if self.pupil_profile is PupilProfile.HARD_CIRCULAR:
            r *= 2.0 * np.pi * self.pupil_radius * order
            r /= self.object_distance * self.wavelength
            return somb(r)
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
    aperture instead.  The constructor checks the fields its ``kind`` reads
    (lengths finite and > 0, pitch > line width) or raises ValueError.
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

    def __post_init__(self) -> None:
        if self.kind == "slits":
            if not (isinstance(self.n_slits, numbers.Integral)
                    and self.n_slits >= 1):
                raise ValueError(f"n_slits = {self.n_slits!r} is not >= 1")
            require_finite_positive(self, "line_width")
            if self.slit_length is not None:
                require_finite_positive(self, "slit_length")
            if self.n_slits > 1 and not self.line_width < self.pitch < np.inf:
                raise ValueError("pitch must be finite and exceed line width")
        elif self.kind in ("rectangle", "gaussian_spot"):
            require_finite_positive(self, "size" if self.kind == "rectangle"
                                    else "waist")
        elif self.kind == "mask":
            if not (isinstance(self.mask, FieldGrid)
                    and np.all(np.abs(self.mask.values) <= 1 + 1e-12)):
                raise ValueError("mask amplitude must satisfy |A| <= 1")
        elif self.kind not in ("point", "uniform"):
            raise ValueError(f"unknown aperture kind {self.kind!r}")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def point(cls, center=(0.0, 0.0)) -> "Aperture":
        return cls("point", center=center)

    @classmethod
    def slits(cls, n_slits: int, line_width: float, pitch: float = 0.0,
              slit_length: float | None = None, center=(0.0, 0.0)) -> "Aperture":
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
            inside = np.zeros(np.broadcast(x, y).shape, bool)
            for sx in self.slit_centers():
                inside |= np.abs(x - sx) <= self.line_width / 2
            if self.slit_length is not None:
                inside &= np.abs(y - cy) <= self.slit_length / 2
            return inside.astype(float)
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
        if self.kind == "mask" and self.mask.spec == spec:
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


def _fast_len(n: int) -> int:
    """Smallest 5-smooth m >= n, as ``scipy.fft.next_fast_len(n, True)``."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _linear_convolution(f: np.ndarray, g: np.ndarray, lengths: tuple,
                        rows: slice = slice(None)) -> np.ndarray:
    """``rows`` of the convolution sum of two real arrays by a zero-padded
    spectral product, bit for bit that of ``scipy.fft``'s rfftn/irfftn at
    the same transform ``lengths``: axis 1, then 0, and back, and the factor
    1/(n0 n1) last, as pocketfft's n-d c2r.  Only the kept rows are inverted
    along axis 1.  Lengths that hold the full linear convolution give it;
    shorter lengths L (at least each input's) give the circular sum, whose
    index p also holds index p + L of the linear one."""
    shape = [n + k - 1 for n, k in zip(f.shape, g.shape)]
    n0, n1 = lengths
    s, t = (np.zeros((n0, n1 // 2 + 1), complex) for _ in range(2))
    for a, spectrum in ((f, s), (g, t)):
        np.fft.rfft(a, n1, axis=1, out=spectrum[:len(a)])
        np.fft.fft(spectrum, axis=0, out=spectrum)
    s *= t
    s = np.fft.ifft(s, axis=0, norm="forward", out=s)[:shape[0]][rows]
    out = np.fft.irfft(s, n1, axis=1, norm="forward")
    out *= 1.0 / (n0 * n1)
    return out[:, :shape[1]]


def image(aperture: Aperture, system: ImagingSystem, spec: GridSpec,
          order: int = 1, coherent: bool = True) -> FieldGrid:
    """Image of an order-N source on the image-plane grid, N = 1 classical.

    Coherent light gives |(A * H_N)(rho/m)|^2, incoherent light
    (|A|^2 * |H_N|^2)(rho/m), with H_N the order-N PSF sampled by
    ``single_lens_psf``.  The N-photon correlation depends on the centroid
    alone, so for N > 1 this is the complete centroid-image prediction.
    ``spec`` is the object-plane grid; the returned axes are scaled by the
    magnification.  Nonnegative everywhere.  Only the bounding box of the
    aperture's nonzero samples (B x C) is convolved; the rest adds nothing.
    The kernel, n + B - 1 by n' + C - 1 samples on an n x n' grid, runs
    circularly at its own 5-smooth lengths L >= n + B - 1: output p sits at
    index p + B - 1, and its wrapped copy at p + B - 1 + L lies past the
    linear sum's last index n + 2B - 3, so the kept window never wraps.
    """
    a = aperture.rasterize(spec).values
    nonzero = [np.flatnonzero(np.any(a != 0, axis=k)) for k in (1, 0)]
    # the box of nonzero samples; an empty aperture keeps its first sample
    (i0, i1), (j0, j1) = ((n[0], n[-1]) if n.size else (0, 0) for n in nonzero)
    box = a[i0:i1 + 1, j0:j1 + 1]
    # the kernel holds every whole-sample offset (k, l) from a box sample to
    # an output sample, k from -i1 to nx - 1 - i0; h depends on the radius
    # alone, so its value there is the sample (|k|, |l|) of h on the offsets
    # >= 0, and +-k share one value to the last bit
    kx = np.abs(np.arange(-i1, spec.nx - i0))
    ky = np.abs(np.arange(-j1, spec.ny - j0))
    quadrant = GridSpec(kx.max() + 1, ky.max() + 1, spec.dx, spec.dy,
                        (0.0, 0.0))
    h = single_lens_psf(system, quadrant, order).values   # real for every pupil
    if not coherent:
        box = np.abs(box) ** 2
        h = np.abs(h) ** 2
    h = h.take(kx, axis=0).take(ky, axis=1)
    # output sample p sits at index p + B - 1, B = i1 - i0 + 1, of the
    # circular convolution at the kernel's lengths (see above)
    rows = slice(i1 - i0, i1 - i0 + spec.nx)
    lengths = tuple(_fast_len(n) for n in h.shape)
    conv = _linear_convolution(box.real, h, lengths, rows)
    if np.iscomplexobj(box):
        conv = conv + 1j * _linear_convolution(box.imag, h, lengths, rows)
    conv = conv[:, j1 - j0:j1 - j0 + spec.ny] * spec.dx * spec.dy
    m = system.magnification
    values = np.abs(conv) ** 2 if coherent else conv.clip(min=0.0)
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
