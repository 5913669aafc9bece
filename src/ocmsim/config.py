"""Run configuration: strict schema, YAML loading, dotted-path overrides.

One structured file drives every pipeline stage.  All dimensional keys carry
SI units in their names (``_m``, ``_s``, ``_hz``).  Parsing is total: unknown
keys, wrong types and inconsistent values are reported with a dotted path
(and file/line for YAML syntax errors); nothing is silently defaulted away.
A ``RunConfig`` is one run: its builders take no arguments, so each of
``compare``'s four illuminations is a config of its own.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np
import yaml

from .errors import ConfigError, finite_real

if TYPE_CHECKING:   # each builder imports the layer it builds from
    from .events_io import DetectorConfig
    from .grid import GridSpec
    from .optics import Aperture, ImagingSystem
    from .phasematch import PhaseMatchingParams

# (path, type, default, help) — the one table of keys, units and defaults.
# type tags: see _check_type
SCHEMA: list[tuple[str, str, Any, str]] = [
    ("system.pupil_radius_m", "float", 1.38e-3, "pupil radius R [m]"),
    ("system.object_distance_m", "float", 0.355, "object-to-lens distance s_o [m]"),
    ("system.wavelength_m", "float", 810e-9,
     "illumination wavelength; both pair photons' too (pump at half) [m]"),
    ("system.magnification", "float", 2.4, "lateral magnification m [-]"),
    ("system.pupil_profile", "choice:hard,gaussian", "hard",
     "pupil transmission profile"),
    ("system.pupil_sigma_m", "float|null", None,
     "Gaussian pupil std in the pupil plane [m] (gaussian profile only)"),
    ("aperture.kind",
     "choice:point,single_slit,double_slit,triple_slit,rectangle,"
     "gaussian_spot,uniform", "triple_slit", "object aperture primitive"),
    ("aperture.line_width_m", "float", 70e-6, "slit line width [m]"),
    ("aperture.pitch_m", "float", 110e-6, "slit center-to-center pitch [m]"),
    ("aperture.slit_length_m", "float|null", 300e-6,
     "slit length along y [m]; null = unbounded"),
    ("aperture.width_m", "float", 200e-6, "rectangle width [m]"),
    ("aperture.height_m", "float", 300e-6, "rectangle height [m]"),
    ("aperture.waist_m", "float", 25e-6,
     "gaussian_spot 1/e amplitude radius in the object plane [m]"),
    ("aperture.center_m", "pair<float>", (0.0, 0.0), "aperture center (x, y) [m]"),
    ("ocm.n_photons", "int>=1", 2, "photon number N of the centroid state [-]"),
    ("phase_matching.crystal_length_m", "float", 5e-3, "crystal length L [m]"),
    ("phase_matching.focal_length_m", "float", 50e-3,
     "state-preparation lens focal length f [m]"),
    ("phase_matching.poling_period_m", "float|auto", "auto",
     "poling period G [m]; auto solves collinear phase matching"),
    ("phase_matching.sellmeier.data_file", "str|null", None,
     "refractive-index data file; null = shipped ppKTP z-axis"),
    ("phase_matching.sellmeier.temperature_C", "float", 25.0,
     "crystal temperature [C]"),
    ("detector.n_pixels_x", "int>=2", 32, "pixel count along x [-]"),
    ("detector.n_pixels_y", "int>=2", 32, "pixel count along y [-]"),
    ("detector.pixel_pitch_m", "float", 43.75e-6, "pixel pitch [m]"),
    ("detector.time_bin_s", "float", 205e-12, "TDC time-bin width [s]"),
    ("detector.frame_duration_s", "float", 45e-9, "frame duration [s]"),
    ("detector.frame_rate_hz", "float", 800e3, "frame (observation) rate [Hz]"),
    ("detector.pde", "float|auto", 1.0,
     "photon detection efficiency [-]; the real sensor's is auto, a lookup "
     "by wavelength (0.008 at 810 nm)"),
    ("detector.dark_count_rate_hz", "float", 0.0,
     "dark count rate per pixel [Hz]; the real sensor's is 1e3"),
    ("detector.crosstalk_prob", "float", 0.01,
     "nearest-neighbor crosstalk probability per detection [-]"),
    ("acquisition.source", "choice:ocm,coherent,incoherent", "ocm",
     "light source for simulate/compare"),
    ("acquisition.wall_time_s", "float>0", 1.0, "acquisition wall time [s]"),
    ("acquisition.seed", "int", 12345, "master random seed [-]"),
    ("acquisition.pair_rate_hz", "float", 1e7,
     "mean photon tuples per second reaching the detector [Hz]"),
    ("reconstruction.window_s", "float>=0", 1e-9, "coincidence window [s]"),
    ("reconstruction.min_xi_pixels", "int>=0", 1,
     "crosstalk cut: required Chebyshev pixel separation (exclusive) [-]"),
    ("reconstruction.mode", "choice:sum,average,weighted", "weighted",
     "centroid normalisation: sum keeps the pair coverage, average divides "
     "by it, weighted by its phase-matching-weighted sum"),
    ("reconstruction.accidental_offset_frames", "int>=0", 1,
     "cross-frame offset for accidental estimation; 0 disables [-]"),
    ("reconstruction.one_pair_per_frame", "bool", False,
     "drop frames that yield more than one admissible pair"),
    ("analysis.band", "pair<int>|null", None,
     "inclusive index band projected over the other axis; null = all; compare "
     "projects singles over the pixel rows inside it (pixel i = centroid 2i)"),
    ("analysis.model", "choice:none,somb2,gaussian", "none",
     "width fit model for profiles"),
    ("analysis.n_slits", "int>=0", 3,
     "slit count for contrast scoring; 0 disables [-]"),
    ("grid.nx", "int>=2", 512, "object-plane grid samples per axis [-]"),
]


# base type -> (cast, what one value must be); a float also takes an int,
# and only a bool field takes a bool
_BASES = {"float": (float, "a number"), "int": (int, "an integer"),
          "bool": (bool, "a boolean"), "str": (str, "a string")}


def _check_type(path: str, kind: str, value):
    """``value`` checked against a schema type tag and cast to its base type.

    A tag is ``choice:a,b,...``, ``pair<tag>`` or a ``_BASES`` type with an
    optional lower bound ``>=N`` or ``>N``; any tag may end in ``|null`` or
    ``|auto``, which also accepts that literal as it is.  A float must be
    finite, an int within float range.
    """
    kind, _, alt = kind.partition("|")
    if alt and value == (None if alt == "null" else alt):
        return value

    def fail(expected):
        expected += f" or {alt}" if alt else ""
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")

    if kind.startswith("choice:"):
        choices = kind.split(":", 1)[1].split(",")
        if value not in choices:
            fail(f"one of {choices}")
        return value
    if kind.startswith("pair<"):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            fail("a pair")
        return tuple(_check_type(path, kind[5:-1], v) for v in value)
    base, op, low = re.fullmatch(r"(\w+)(>=|>|)(\d*)", kind).groups()
    cast, expected = _BASES[base]
    accepted = (int, float) if cast is float else cast
    if not isinstance(value, accepted) or (isinstance(value, bool)
                                           and cast is not bool):
        fail(expected)
    if cast in (int, float) and not finite_real(value):
        fail("a finite number" if cast is float
             else f"{expected} within float range")
    if op and not (value >= int(low) if op == ">=" else value > int(low)):
        fail(f"{expected} {op} {low}")
    return cast(value)


@contextmanager
def _config_errors(section: str):
    """Re-raise a constructor's ``ValueError`` as ``ConfigError``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


@dataclass
class RunConfig:
    """Validated configuration: one value per dotted ``SCHEMA`` key."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, path: str):
        return self.values[path]

    # -- object builders ------------------------------------------------------
    def system(self) -> ImagingSystem:
        from .optics import ImagingSystem, PupilProfile
        with _config_errors("system"):
            return ImagingSystem(
                pupil_radius=self["system.pupil_radius_m"],
                object_distance=self["system.object_distance_m"],
                wavelength=self["system.wavelength_m"],
                magnification=self["system.magnification"],
                pupil_profile=PupilProfile(self["system.pupil_profile"]),
                pupil_sigma=self["system.pupil_sigma_m"])

    def aperture(self) -> Aperture:
        from .optics import Aperture
        kind = self["aperture.kind"]
        center = self["aperture.center_m"]
        with _config_errors("aperture"):
            if kind == "point":
                return Aperture.point(center)
            if kind in ("single_slit", "double_slit", "triple_slit"):
                n = {"single_slit": 1, "double_slit": 2, "triple_slit": 3}[kind]
                return Aperture.slits(n, self["aperture.line_width_m"],
                                      self["aperture.pitch_m"],
                                      self["aperture.slit_length_m"], center)
            if kind == "rectangle":
                return Aperture.rectangle(self["aperture.width_m"],
                                          self["aperture.height_m"], center)
            if kind == "gaussian_spot":
                return Aperture.gaussian_spot(self["aperture.waist_m"], center)
            return Aperture.uniform()

    def phase_matching(self) -> PhaseMatchingParams:
        from .phasematch import PhaseMatchingParams, SellmeierModel
        poling = self["phase_matching.poling_period_m"]
        temperature = self["phase_matching.sellmeier.temperature_C"]
        wavelength = self["system.wavelength_m"]
        with _config_errors("phase_matching"):
            return PhaseMatchingParams.from_wavelengths(
                crystal_length=self["phase_matching.crystal_length_m"],
                lambda_s=wavelength, lambda_i=wavelength,
                focal_length=self["phase_matching.focal_length_m"],
                poling_period=None if poling == "auto" else poling,
                index_model=SellmeierModel.from_file(
                    self["phase_matching.sellmeier.data_file"],
                    temperature_c=temperature))

    def detector(self) -> DetectorConfig:
        from .events_io import DetectorConfig
        pde = self["detector.pde"]
        if pde == "auto":
            from .detector import DEFAULT_PDE
            wavelength = self["system.wavelength_m"]
            for lam, pde in DEFAULT_PDE.items():
                if abs(wavelength - lam) < 0.05 * lam:
                    break
            else:
                raise ConfigError(
                    f"detector.pde: no default efficiency for wavelength "
                    f"{wavelength:.3e} m; set a number")
        with _config_errors("detector"):
            return DetectorConfig(
                n_pixels_x=self["detector.n_pixels_x"],
                n_pixels_y=self["detector.n_pixels_y"],
                pixel_pitch=self["detector.pixel_pitch_m"],
                time_bin=self["detector.time_bin_s"],
                frame_duration=self["detector.frame_duration_s"],
                frame_rate=self["detector.frame_rate_hz"],
                pde=pde,
                dark_count_rate=self["detector.dark_count_rate_hz"],
                crosstalk_prob=self["detector.crosstalk_prob"])

    def source(self):
        from .detector import ClassicalSource, OcmPairSource
        kind = self["acquisition.source"]
        rate = self["acquisition.pair_rate_hz"]
        with _config_errors("acquisition.source"):
            if kind == "ocm":
                if self["ocm.n_photons"] != OcmPairSource.n_photons:
                    raise ValueError(
                        "the event pipeline is specified for photon pairs")
                return OcmPairSource(self.aperture(), self.system(),
                                     self.phase_matching(), rate)
            return ClassicalSource(self.aperture(), self.system(), rate,
                                   coherent=(kind == "coherent"))

    def object_grid(self) -> GridSpec:
        """Object-plane grid: covers the object and >= 8 PSF zeros, refined
        to sample the order-N PSF and the PSF at the wavelength / N."""
        from .grid import GridSpec
        system = self.system()
        r0 = system.first_zero_radius
        half = max(3.0 * self.aperture().typical_extent(), 8.0 * r0)
        n = self["ocm.n_photons"]
        limit = min(system.sampling_limit(n), system.with_wavelength(
            system.wavelength / n).sampling_limit())
        nx = self["grid.nx"]
        dx = 2.0 * half / nx
        if dx > limit:
            nx = 2 * (int(half / limit) + 1)    # even, and dx < limit
            dx = 2.0 * half / nx
        return GridSpec.centered(nx, dx)

    def deviation_weight(self):
        """Squared phase-matching envelope as the coverage weight of
        ``weighted`` mode; None for ``sum`` and ``average``."""
        if self["reconstruction.mode"] != "weighted":
            return None
        from .phasematch import deviation_density
        params = self.phase_matching()
        return lambda xi_x, xi_y: deviation_density(
            np.stack([np.asarray(xi_x), np.asarray(xi_y)], axis=-1), params)


_KINDS = {path: kind for path, kind, _, _ in SCHEMA}


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """YAML 1.1 safe loading that also reads ``1e-3``, ``2E+9`` or
    ``1.0e3`` (no dot, or no exponent sign) as a float, not a string.
    libyaml parses where PyYAML was built with it; the resolvers are
    Python on either base, so both read the same values."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9]+(?:\.[0-9]+)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"))


def _overlay(values: dict, path: str, value) -> None:
    """Set ``value`` at dotted ``path``: a key takes it as it is, a section
    takes a mapping whose items overlay its keys one by one."""
    if path in _KINDS:
        values[path] = value
    elif not any(key.startswith(path + ".") for key in _KINDS):
        raise ConfigError(f"{path}: unknown configuration key")
    elif not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping")
    else:
        for key, item in value.items():
            _overlay(values, f"{path}.{key}", item)


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    """The schema defaults, overlaid by the YAML file at ``path`` and then by
    each ``KEY=VALUE`` override in turn, each value checked once at the end."""
    values = {key: default for key, _, default, _ in SCHEMA}
    if path is not None:
        try:    # bytes: the YAML reader decodes UTF-8 or a BOM's UTF-16
            with open(path, "rb") as fh:
                user = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = (f"{path}:{mark.line + 1}:{mark.column + 1}"
                     if mark else str(path))
            problem = getattr(exc, "problem", None) or " ".join(
                str(exc).split())     # an undecodable byte: its position
            raise ConfigError(f"{where}: YAML syntax error: {problem}") \
                from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        for key, value in user.items():
            _overlay(values, str(key), value)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            value = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {key}: cannot parse value {raw!r}") from exc
        _overlay(values, key.strip(), value)
    flat = {key: _check_type(key, _KINDS[key], value)
            for key, value in values.items()}
    frames = flat["acquisition.wall_time_s"] * flat["detector.frame_rate_hz"]
    if frames < 1:
        raise ConfigError("acquisition.wall_time_s: shorter than one frame "
                          "period of detector.frame_rate_hz")
    if frames > 2 ** 63:
        raise ConfigError("acquisition.wall_time_s: more than 2**63 frame "
                          "periods of detector.frame_rate_hz")
    band = flat["analysis.band"]
    if band is not None and not 0 <= band[0] <= band[1]:
        raise ConfigError(f"analysis.band: expected 0 <= lo <= hi, got "
                          f"{list(band)}")
    return RunConfig(flat)


def schema_help() -> str:
    """Human-readable key table for --help."""
    width = max(len(path) for path, _, _, _ in SCHEMA)
    lines = ["configuration keys (YAML paths, SI units); --set KEY may also "
             "name a section,",
             "whose mapping merges key by key as in the file, and a YAML "
             "VALUE such as 1e-3",
             "reads as a number:"]
    for path, kind, default, help_ in SCHEMA:
        lines.append(f"  {path.ljust(width)}  {help_} "
                     f"(type {kind}, default {default!r})")
    return "\n".join(lines)
