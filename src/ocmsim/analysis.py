"""Profiles, width metrics, resolution-scaling fits and slit scoring."""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguousPeak, DegenerateInput, EmptyBand, NoPeak,
                     PeaksNotFound, sink)
from .grid import FieldGrid

#: FWHM of a unit-variance Gaussian
GAUSSIAN_FWHM_FACTOR = 2.354820045030949

#: resolvability threshold on slit contrast (between Sparrow and Rayleigh)
RESOLVED_CONTRAST = 0.1


@dataclass
class Profile1D:
    """1-D cross-section: positions (strictly increasing) and values."""

    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.positions.ndim != 1 or self.positions.shape != self.values.shape:
            raise ValueError("positions and values must be matching 1-D arrays")
        if np.any(np.diff(self.positions) <= 0):
            raise ValueError("positions must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def step(self) -> float:
        return float(np.median(np.diff(self.positions)))


class FitModel(enum.Enum):
    NONE = "none"
    SOMB_SQUARED = "somb2"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class WidthReport:
    fwhm: float
    first_zero: float | None
    fit_residual: float

    def __post_init__(self) -> None:
        if self.fwhm <= 0:
            raise ValueError("fwhm must be > 0")
        if self.first_zero is not None and self.first_zero <= self.fwhm / 2:
            raise ValueError("first zero must exceed half the FWHM")


def cross_section(image: FieldGrid, axis: str = "x", band=None) -> Profile1D:
    """Project an image along x over a band of y.

    ``band`` gives inclusive y-index bounds (lo, hi); None projects
    everything.  Complex fields are projected by magnitude.  ``axis`` names
    the profile axis and must be ``"x"``.
    """
    if axis != "x":
        raise ValueError("axis must be 'x'")
    values = np.abs(image.values) if image.is_complex else image.values
    n_y = values.shape[1]
    lo, hi = (0, n_y - 1) if band is None else band
    if lo > hi:
        raise EmptyBand(f"band ({lo}, {hi}) is empty")
    if lo < 0 or hi >= n_y:
        raise EmptyBand(f"band ({lo}, {hi}) outside image of size {n_y}")
    return Profile1D(image.x_axis(), values[:, lo:hi + 1].sum(axis=1))


def _interp_crossing(x0, y0, x1, y1, level) -> float:
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def _fwhm_by_crossings(x: np.ndarray, y: np.ndarray) -> float:
    peak_idx = int(np.argmax(y))
    half = y[peak_idx] / 2.0
    left = np.flatnonzero(y[:peak_idx] < half)
    right = np.flatnonzero(y[peak_idx:] < half)
    if left.size == 0 or right.size == 0:
        raise NoPeak("profile does not fall below half maximum on both sides")
    li = left[-1]
    ri = peak_idx + right[0]
    xl = _interp_crossing(x[li], y[li], x[li + 1], y[li + 1], half)
    xr = _interp_crossing(x[ri - 1], y[ri - 1], x[ri], y[ri], half)
    return xr - xl


def width_metrics(profile: Profile1D, model: FitModel = FitModel.NONE
                  ) -> WidthReport:
    """FWHM (and first zero under a model fit) of a single-peaked profile.

    Without a model, the half-maximum crossings are interpolated linearly.
    The sombrero-squared model fits the argument scale, giving the
    diffraction first zero; the Gaussian model converts the fitted std.
    """
    x = profile.positions
    y = profile.values.astype(float)
    peak_idx = int(np.argmax(y))
    peak = y[peak_idx]
    if peak <= 0:
        raise NoPeak("profile peak is not positive")

    if model is FitModel.NONE:
        # ambiguity check: several well-separated peaks near the maximum
        high = y > 0.8 * peak
        runs = np.flatnonzero(np.diff(high.astype(int)) == 1).size + int(high[0])
        if runs > 1:
            raise AmbiguousPeak("multi-modal profile needs a fit model")
        return WidthReport(_fwhm_by_crossings(x, y), None, 0.0)

    # SciPy and the optics layer load only for a model fit
    from scipy.optimize import OptimizeWarning, curve_fit

    from .optics import J1_FIRST_ZERO, somb

    amp0 = float(peak)
    x0_0 = float(x[peak_idx])
    width0 = max(_safe_initial_width(x, y), profile.step)

    if model is FitModel.SOMB_SQUARED:
        def f(xv, amp, x0, scale):
            return amp * somb(scale * (xv - x0)) ** 2
        p0 = (amp0, x0_0, J1_FIRST_ZERO / (2.0 * width0))
    else:
        def f(xv, amp, x0, sigma):
            return amp * np.exp(-(xv - x0) ** 2 / (2.0 * sigma ** 2))
        p0 = (amp0, x0_0, width0)

    try:
        with warnings.catch_warnings():     # the covariance goes unused
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(f, x, y, p0=p0, maxfev=20000)
    except RuntimeError as exc:
        raise NoPeak(f"model fit failed: {exc}") from exc
    residual = float(np.sqrt(np.mean((f(x, *popt) - y) ** 2)) / y.max())

    if model is FitModel.SOMB_SQUARED:
        scale = abs(popt[2])
        first_zero = J1_FIRST_ZERO / scale
        # FWHM of somb^2: half max at argument 1.61633...
        fwhm = 2.0 * 1.6163374338205507 / scale
        return WidthReport(fwhm, first_zero, residual)
    sigma = abs(popt[2])
    return WidthReport(GAUSSIAN_FWHM_FACTOR * sigma, None, residual)


def _safe_initial_width(x, y) -> float:
    try:
        return _fwhm_by_crossings(x, y) / 2.0
    except NoPeak:
        return (x[-1] - x[0]) / 8.0


@dataclass(frozen=True)
class ScalingFit:
    alpha: float          # width ∝ N^(-alpha)
    ci95: float           # half-width of the 95% confidence interval


def scaling_fit(widths) -> ScalingFit:
    """Least-squares exponent of width ∝ N^(-alpha) from (N, fwhm) pairs."""
    arr = np.asarray(list(widths), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise DegenerateInput("need at least 3 (N, width) pairs")
    n, w = arr[:, 0], arr[:, 1]
    if np.unique(n).size < 3 or np.any(w <= 0) or np.any(n <= 0):
        raise DegenerateInput("need 3 distinct positive N with positive widths")
    x, y = np.log(n), np.log(w)
    # least-squares line from the centred second moments; r is clipped to
    # [-1, 1], so an exact power law reports a zero-width interval
    sxx, sxy, _, syy = np.cov(x, y, bias=1).flat
    slope = sxy / sxx
    r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
    dof = x.size - 2
    stderr = np.sqrt((1 - r ** 2) * syy / sxx / dof)
    from scipy.special import stdtrit

    return ScalingFit(alpha=-slope, ci95=stdtrit(dof, 0.975) * stderr)


def _local_maxima(y: np.ndarray) -> np.ndarray:
    inner = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
    return np.flatnonzero(inner) + 1


def slit_contrast(profile: Profile1D, n_slits: int, expected_pitch: float
                  ) -> tuple[float, bool]:
    """Contrast of an n-slit profile and whether the slits count as resolved.

    Locates one local maximum near each expected slit position (expected
    positions sit on a pitch grid centered on the profile's center of mass)
    and the intervening minima; contrast = 1 - mean(min / adjacent-max pair).
    A profile without the full set of local peaks scores 0 (unresolved).
    Resolved means contrast >= 0.1, a documented threshold between the
    Sparrow and Rayleigh conventions.
    """
    if n_slits < 2:
        raise ValueError("need at least two slits to score a contrast")
    x = profile.positions
    y = profile.values.astype(float)
    if x.size < 5 or not y.sum() > 0:
        raise PeaksNotFound("profile too short or empty")

    if x[0] > -expected_pitch * (n_slits - 1) / 2.0 or \
            x[-1] < expected_pitch * (n_slits - 1) / 2.0:
        raise PeaksNotFound("profile does not span the expected slit pattern")

    center = float(np.sum(x * y) / np.sum(y))
    expected = center + (np.arange(n_slits) - (n_slits - 1) / 2.0) * expected_pitch
    maxima = _local_maxima(y)
    half_window = expected_pitch / 2.5

    peak_idx = []
    for pos in expected:
        cand = maxima[np.abs(x[maxima] - pos) <= half_window]
        if cand.size == 0:
            return 0.0, False
        peak_idx.append(int(cand[np.argmax(y[cand])]))
    if len(set(peak_idx)) < n_slits:
        return 0.0, False

    ratios = []
    for a, b in zip(peak_idx[:-1], peak_idx[1:]):
        valley = float(y[a:b + 1].min())
        ratios.append(valley / ((y[a] + y[b]) / 2.0))
    contrast = float(np.clip(1.0 - np.mean(ratios), 0.0, 1.0))
    return contrast, contrast >= RESOLVED_CONTRAST


def export_profile_csv(profile: Profile1D, path) -> None:
    """CSV export (position, value) with # header lines, or SinkWriteError."""
    with sink(path, "w", "profile CSV") as fh:
        fh.write("# ocmsim profile export\n")
        fh.write("# columns: position_m,value\n")
        for p, v in zip(profile.positions, profile.values):
            fh.write(f"{float(p)!r},{float(v)!r}\n")
