"""N-photon centroid imaging: centroid PSFs and classical baselines.

The centroid PSF is H(X) = N^2 h^{*N}(N X): the N-fold self-convolution of
the system PSF with the argument compressed N-fold.  For a hard circular
pupil this is again a sombrero with an N-times larger argument, i.e. the
resolution scales as 1/N; a Gaussian pupil only narrows as 1/sqrt(N), as does
the centroid density of classically correlated photons.  A test oracle
checks ``centroid_psf`` by the pupil route N^2/(2 pi)^2 Int (h~)^N e^{iNqX}.

Centroid images come from ``optics.image`` with ``order=N``: it samples the
closed-form order-N PSF and is the classical image at N = 1.  ``ocm_image``
remains as the coherent alias of it.

``centroid_psf`` (h, gain N^2) and ``classical_centroid_psf`` (|h|^2, then
normalized) share one N-fold route, ``_n_fold``.

Numerical note: self-convolutions here use the periodic spectral method
(no zero padding).  For kernels with slowly decaying tails, the periodization
error (set by the kernel tail at the full grid period) is far below the
truncation error a padded linear convolution would inherit from the missing
tail mass, and the cost does not grow with N.
"""

from __future__ import annotations

import numpy as np

from .errors import GridTooCoarse, WrongPupilProfile
from .grid import FieldGrid, GridSpec
from .optics import (Aperture, ImagingSystem, PupilProfile,
                     fourier_transform_2d, image)


def _first_zero_spacing_check(h: FieldGrid) -> None:
    """Reject grids with fewer than 4 samples per first-zero radius.

    Only applies when the sampled PSF actually crosses zero along the central
    row; zero-free profiles (Gaussians) pass.
    """
    ix, iy = divmod(int(np.argmax(np.abs(h.values))), h.ny)
    row = np.real(h.values[ix:, iy])
    sign_change = np.where(np.diff(np.signbit(row)))[0]
    if sign_change.size and sign_change[0] + 1 < 4:
        raise GridTooCoarse(
            f"only {sign_change[0] + 1} samples inside the first PSF zero; "
            "need >= 4")


def _n_fold(values: np.ndarray, h: FieldGrid, n: int,
            gain: float) -> FieldGrid:
    """gain * values^{*n}(n X) for ``values`` on the grid of the PSF ``h``:
    the continuum-weighted n-fold periodic self-convolution, axes relabelled
    by 1/n.  The one N-fold route of both centroid PSFs, after the checks
    they share: n >= 1 and a grid that resolves ``h``'s first zero."""
    if n < 1:
        raise ValueError("photon number must be >= 1")
    _first_zero_spacing_check(h)
    if n == 1:
        return FieldGrid(values.copy(), h.dx, h.dy, h.origin)
    d_area = h.dx * h.dy
    spec = np.fft.fft2(np.fft.ifftshift(values)) * d_area
    conv = np.fft.fftshift(np.fft.ifft2(spec ** n / d_area))
    if not np.iscomplexobj(values):
        conv = conv.real
    return FieldGrid(conv * gain, h.dx / n, h.dy / n,
                     (h.origin[0] / n, h.origin[1] / n))


def centroid_psf(h: FieldGrid, n: int) -> FieldGrid:
    """Centroid PSF H(X) = N^2 h^{*N}(N X) from a sampled system PSF.

    The output grid spacing is the input spacing divided by N, so centroid
    images natively live on an N-times finer grid (mirroring the half-pixel
    reconstruction of a pair measurement).  The PSF peak should sit near the
    grid center; extent well beyond the PSF core controls the accuracy.
    """
    return _n_fold(h.values, h, n, float(n * n))


def analytic_centroid_psf_circular(system: ImagingSystem, n: int,
                                   spec: GridSpec) -> FieldGrid:
    """Closed-form hard-pupil centroid PSF somb(2 pi R N |X| / s_o lambda).

    Peak-normalized.  Raises WrongPupilProfile for Gaussian pupils.
    """
    if system.pupil_profile is not PupilProfile.HARD_CIRCULAR:
        raise WrongPupilProfile("closed form requires the hard circular pupil")
    return FieldGrid.sample(spec, lambda x, y: system.psf_amplitude(x, y, order=n))


def ocm_image(aperture: Aperture, system: ImagingSystem, n: int,
              spec: GridSpec) -> FieldGrid:
    """Coherent N-photon centroid image: ``optics.image`` at order n."""
    return image(aperture, system, spec, order=n)


def classical_centroid_psf(h: FieldGrid, n: int) -> FieldGrid:
    """Centroid density of N classically correlated photons.

    P(X) = (|h|^2)^{*N}(N X), normalized to unit integral.  Each photon is
    blurred independently by the PSF, so the centroid spread only shrinks as
    1/sqrt(N): the standard quantum limit.
    """
    out = _n_fold(np.abs(h.values) ** 2, h, n, 1.0)
    total = out.values.sum() * out.dx * out.dy
    out.values = out.values / total
    return out


def far_field_pattern(aperture: Aperture, n: int, scale: float,
                      spec: GridSpec) -> FieldGrid:
    """Far-field intensity |A~(N q)|^2 on a pupil-plane position grid.

    ``scale`` maps wavevector to pupil-plane position, rho = scale * q with
    scale = s_o lambda / (2 pi) (paraxial).  All N photons share the same
    mode, so the pattern narrows N-fold: the de Broglie wavelength lambda/N
    sets the fringe scale.
    """
    if n < 1:
        raise ValueError("photon number must be >= 1")
    a = aperture.rasterize(spec)
    spectrum = fourier_transform_2d(a)
    intensity = np.abs(spectrum.values) ** 2
    # |A~(N q)|^2 sampled at q_j/N, then q -> position via the supplied scale
    return FieldGrid(intensity, spectrum.dx * scale / n, spectrum.dy * scale / n,
                     (spectrum.origin[0] * scale / n, spectrum.origin[1] * scale / n))
