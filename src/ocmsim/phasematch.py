"""Quasi-phase-matched SPDC: wavevector mismatch, pair-separation envelope.

The pair source is a periodically poled crystal pumped at omega_p; energy
conservation fixes omega_p = omega_s + omega_i.  Collinear emission is
phase-matched by choosing the poling period G so that the longitudinal
mismatch vanishes at q = 0; off-axis emission is weighted by
sinc(Delta_k L / 2), which restricts the otherwise unbounded photon
separation in the source output plane.  Its square, ``deviation_density``,
is the one law pair sources draw from and weighted reconstruction divides by.

Refractive-index dispersion is a data-file input (ppKTP z-axis shipped, see
``data/ppktp_z.yaml`` for the functional form and literature sources); the
crystal temperature enters through the thermal correction polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import EvanescentInput, finite_real, require_finite_positive

SPEED_OF_LIGHT = 299792458.0

#: radial cut over which ``deviation_envelope_fwhm`` samples the envelope
_FWHM_MAX_RADIUS = 5e-3
_FWHM_SAMPLES = 20001


@dataclass(frozen=True)
class SellmeierModel:
    """Dispersion n(omega) with quadratic thermal correction.  Coefficients
    A-F, thermal lists (kept as tuples) and temperatures (kept as floats) are
    finite numbers, the crystal's >= -273.15 C, or ValueError is raised."""

    coefficients: dict
    n1_thermal: tuple
    n2_thermal: tuple
    reference_temperature_c: float = 25.0
    temperature_c: float = 25.0

    def __post_init__(self) -> None:
        c = self.coefficients if isinstance(self.coefficients, dict) else {}
        lists = {**{k: (c.get(k),) for k in "ABCDEF"}, "n1": self.n1_thermal,
                 "n2": self.n2_thermal,
                 "reference_temperature_C": (self.reference_temperature_c,)}
        bad = [k for k, v in lists.items() if not (
            isinstance(v, (list, tuple)) and all(map(finite_real, v)))]
        if bad:
            raise ValueError(f"sellmeier values {bad} are missing or not "
                             "finite numbers (n1 and n2 take lists of them)")
        t = self.temperature_c
        if not (finite_real(t) and t >= -273.15):
            raise ValueError(f"temperature_C = {t!r} is not a finite number "
                             "at or above absolute zero, -273.15 C")
        for name, cast in (("coefficients", dict), ("n1_thermal", tuple),
                           ("n2_thermal", tuple), ("temperature_c", float),
                           ("reference_temperature_c", float)):
            object.__setattr__(self, name, cast(getattr(self, name)))

    @classmethod
    def from_file(cls, path=None, temperature_c: float = 25.0) -> "SellmeierModel":
        """Load from a YAML data file; defaults to the shipped ppKTP z-axis.
        A ValueError names the file if it is not YAML, lacks a ``sellmeier``
        mapping (or ``thermal``, if any) or holds values the model refuses."""
        source = (resources.files("ocmsim.data").joinpath("ppktp_z.yaml")
                  if path is None else Path(path))
        try:
            raw = yaml.load(source.read_bytes(), Loader=getattr(
                yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ValueError(f"{source}: not YAML: {exc}") from None
        raw = raw if isinstance(raw, dict) else {}
        coefficients, th = raw.get("sellmeier"), raw.get("thermal", {})
        if not (isinstance(coefficients, dict) and isinstance(th, dict)):
            raise ValueError(f"{source}: needs a `sellmeier` mapping (and "
                             "`thermal`, if given, a mapping)")
        try:
            return cls(coefficients, th.get("n1", [0.0]), th.get("n2", [0.0]),
                       th.get("reference_temperature_C", 25.0), temperature_c)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None

    def index_at_wavelength(self, wavelength_m):
        u = np.asarray(wavelength_m, dtype=float) * 1e6
        c = self.coefficients
        n_sq = (c["A"] + c["B"] / (1.0 - c["C"] / u ** 2)
                + c["D"] / (1.0 - c["E"] / u ** 2) - c["F"] * u ** 2)
        n = np.sqrt(n_sq)
        dt = np.float64(self.temperature_c - self.reference_temperature_c)
        if dt != 0.0:
            n = n + dt * sum(a / u ** k for k, a in enumerate(self.n1_thermal))
            n = n + dt ** 2 * sum(b / u ** k for k, b in enumerate(self.n2_thermal))
        return n

    def __call__(self, omega):
        """Refractive index at angular frequency omega (rad/s)."""
        return self.index_at_wavelength(2.0 * np.pi * SPEED_OF_LIGHT
                                        / np.asarray(omega, dtype=float))


@dataclass(frozen=True)
class PhaseMatchingParams:
    """Crystal and state-preparation geometry for the pair source."""

    crystal_length: float        # L, meters
    poling_period: float         # G, meters
    omega_s: float               # signal angular frequency, rad/s
    omega_i: float               # idler angular frequency, rad/s
    focal_length: float          # f of the preparation lenses, meters
    index_model: SellmeierModel = field(default_factory=SellmeierModel.from_file)

    def __post_init__(self) -> None:
        require_finite_positive(self, "crystal_length", "poling_period",
                                "focal_length")
        with np.errstate(over="ignore", invalid="ignore"):
            collinear = wavevector_mismatch(np.zeros(2), np.zeros(2), self)
        if not np.isfinite(collinear):
            raise ValueError("collinear wavevector mismatch not finite at "
                             f"temperature_C = {self.index_model.temperature_c}")

    @property
    def omega_p(self) -> float:
        """Pump frequency from energy conservation (never stored)."""
        return self.omega_s + self.omega_i

    @classmethod
    def from_wavelengths(cls, crystal_length: float, lambda_s: float,
                         lambda_i: float, focal_length: float,
                         poling_period: float | None = None,
                         index_model: SellmeierModel | None = None,
                         ) -> "PhaseMatchingParams":
        """Build from vacuum wavelengths; poling period solved when omitted."""
        index_model = index_model or SellmeierModel.from_file()
        omega_s = 2.0 * np.pi * SPEED_OF_LIGHT / lambda_s
        omega_i = 2.0 * np.pi * SPEED_OF_LIGHT / lambda_i
        if poling_period is None:
            poling_period = solve_poling_period(omega_s, omega_i, index_model)
        return cls(crystal_length, poling_period, omega_s, omega_i,
                   focal_length, index_model)


def _longitudinal_k(omega, n, q_sq):
    """sqrt((omega n / c)^2 - q^2) with paraxial-validity check."""
    radicand = (omega * n / SPEED_OF_LIGHT) ** 2 - q_sq
    if np.any(radicand <= 0):
        raise EvanescentInput("transverse wavevector exceeds the medium cone")
    return np.sqrt(radicand)


def solve_poling_period(omega_s: float, omega_i: float,
                        index_model: SellmeierModel) -> float:
    """Poling period G giving Delta_k = 0 for collinear emission (q = 0)."""
    n = index_model
    with np.errstate(over="ignore", invalid="ignore"):
        k_s = omega_s * n(omega_s) / SPEED_OF_LIGHT
        k_i = omega_i * n(omega_i) / SPEED_OF_LIGHT
        omega_p = omega_s + omega_i
        k_p = omega_p * n(omega_p) / SPEED_OF_LIGHT
        residual = float(k_p - k_s - k_i)
    if not 0 < residual < np.inf:
        raise ValueError(f"no finite positive poling period: k_p - k_s - k_i "
                         f"= {residual} at temperature_C = {n.temperature_c}")
    return float(2.0 * np.pi / residual)


def wavevector_mismatch(q_s, q_i, params: PhaseMatchingParams):
    """Longitudinal wavevector mismatch Delta_k(q_s, q_i) in rad/m.

    ``q_s``/``q_i`` are transverse wavevectors, shape (..., 2).  Raises
    EvanescentInput when a photon's transverse momentum leaves the paraxial
    (propagating) domain.
    """
    q_s = np.asarray(q_s, dtype=float)
    q_i = np.asarray(q_i, dtype=float)
    n = params.index_model
    omega_s, omega_i = params.omega_s, params.omega_i
    omega_p = params.omega_p
    k_sz = _longitudinal_k(omega_s, n(omega_s), (q_s ** 2).sum(axis=-1))
    k_iz = _longitudinal_k(omega_i, n(omega_i), (q_i ** 2).sum(axis=-1))
    k_pz = _longitudinal_k(omega_p, n(omega_p), ((q_s + q_i) ** 2).sum(axis=-1))
    return k_sz + k_iz - k_pz + 2.0 * np.pi / params.poling_period


def _sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def deviation_envelope(xi, params: PhaseMatchingParams):
    """Pair-separation amplitude sinc(Delta_k L/2) at centroid zero.

    ``xi`` is the photon deviation xi_1 = (rho_1 - rho_2)/2, shape (..., 2);
    photons sit at +-xi.  This is the envelope that bounds the sampled
    deviations of a pair source and the one whose squared modulus has the
    ~1.1 mm FWHM for the reference crystal.
    """
    xi = np.asarray(xi, dtype=float)
    cf = SPEED_OF_LIGHT * params.focal_length
    q = params.omega_s / cf * xi
    dk = wavevector_mismatch(q, -q, params)
    return _sinc(dk * params.crystal_length / 2.0)


def deviation_density(xi, params: PhaseMatchingParams):
    """|deviation_envelope|^2: the law a pair source samples its deviations
    from and the weight that weighted reconstruction divides by."""
    return np.abs(deviation_envelope(xi, params)) ** 2


def deviation_envelope_fwhm(params: PhaseMatchingParams) -> float:
    """FWHM of ``deviation_density`` along a radial cut, by bisection-free
    linear interpolation on a dense grid out to ``_FWHM_MAX_RADIUS``."""
    r = np.linspace(0.0, _FWHM_MAX_RADIUS, _FWHM_SAMPLES)
    xi = np.stack([r, np.zeros_like(r)], axis=-1)
    env = deviation_density(xi, params)
    below = np.where(env < 0.5)[0]
    if below.size == 0 or below[0] == 0:
        raise ValueError("envelope does not fall below half maximum in range")
    j = below[0]
    frac = (0.5 - env[j - 1]) / (env[j] - env[j - 1])
    return 2.0 * (r[j - 1] + frac * (r[j] - r[j - 1]))
