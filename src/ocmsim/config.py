"""Run configuration: strict schema, YAML loading, dotted-path overrides.

One structured file drives every pipeline stage.  All dimensional keys carry
SI units in their names (``_m``, ``_s``, ``_hz``).  Parsing is total: unknown
keys, wrong types and inconsistent values are reported with a dotted path
(and file/line for YAML syntax errors); nothing is silently defaulted away.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .detector import (DEFAULT_PDE, ClassicalSource, DetectorConfig,
                       FarFieldPairSource, OcmPairSource, PointSource)
from .errors import ConfigError
from .grid import GridSpec
from .optics import Aperture, ImagingSystem, PupilProfile
from .phasematch import PhaseMatchingParams, SellmeierModel

# (path, type, default, help) — the single source of truth for keys and units.
# type tags: see _check_type
SCHEMA: list[tuple[str, str, Any, str]] = [
    ("system.pupil_radius_m", "float", 1.38e-3, "pupil radius R [m]"),
    ("system.object_distance_m", "float", 0.355, "object-to-lens distance s_o [m]"),
    ("system.wavelength_m", "float", 810e-9, "illumination wavelength [m]"),
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
    ("aperture.waist_m", "float", 25e-6, "Gaussian spot waist radius [m]"),
    ("aperture.center_m", "pair<float>", (0.0, 0.0), "aperture center (x, y) [m]"),
    ("ocm.n_photons", "int>=1", 2, "photon number N of the centroid state [-]"),
    ("phase_matching.crystal_length_m", "float", 5e-3, "crystal length L [m]"),
    ("phase_matching.signal_wavelength_m", "float", 810e-9,
     "signal vacuum wavelength [m]"),
    ("phase_matching.idler_wavelength_m", "float", 810e-9,
     "idler vacuum wavelength [m]"),
    ("phase_matching.focal_length_m", "float", 50e-3,
     "state-preparation lens focal length f [m]"),
    ("phase_matching.poling_period_m", "float|auto", "auto",
     "poling period G [m]; auto solves collinear phase matching"),
    ("phase_matching.sellmeier.data_file", "str|null", None,
     "refractive-index data file; null = shipped ppKTP z-axis"),
    ("phase_matching.sellmeier.temperature_C", "float", 25.0,
     "crystal temperature [C]"),
    ("detector.n_pixels_x", "int", 32, "pixel count along x [-]"),
    ("detector.n_pixels_y", "int", 32, "pixel count along y [-]"),
    ("detector.pixel_pitch_m", "float", 43.75e-6, "pixel pitch [m]"),
    ("detector.time_bin_s", "float", 205e-12, "TDC time-bin width [s]"),
    ("detector.frame_duration_s", "float", 45e-9, "frame duration [s]"),
    ("detector.frame_rate_hz", "float", 800e3, "frame (observation) rate [Hz]"),
    ("detector.pde", "float|auto", "auto",
     "photon detection efficiency [-]; auto looks up the wavelength"),
    ("detector.dark_count_rate_hz", "float", 1000.0,
     "dark count rate per pixel [Hz]"),
    ("detector.crosstalk_prob", "float", 0.01,
     "nearest-neighbor crosstalk probability per detection [-]"),
    ("acquisition.source", "choice:ocm,coherent,incoherent,point,far_field",
     "ocm", "light source for simulate/compare"),
    ("acquisition.wall_time_s", "float>0", 1.0, "acquisition wall time [s]"),
    ("acquisition.seed", "int", 12345, "master random seed [-]"),
    ("acquisition.pair_rate_hz", "float", 2e6,
     "mean photon tuples per second reaching the detector [Hz]"),
    ("acquisition.far_field_correlation_px", "float>=0", 0.5,
     "far-field per-photon correlation jitter [pixels]"),
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
     "inclusive index band projected over the other axis; null = all"),
    ("analysis.model", "choice:none,somb2,gaussian", "none",
     "width fit model for profiles"),
    ("analysis.n_slits", "int>=0", 3,
     "slit count for contrast scoring; 0 disables [-]"),
    ("grid.nx", "int>=2", 512, "object-plane grid samples per axis [-]"),
    ("io.output_dir", "str", "out", "output directory"),
]


def _set_path(tree: dict, path: str, value) -> None:
    keys = path.split(".")
    node = tree
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def default_tree() -> dict:
    tree: dict = {}
    for path, _, default, _ in SCHEMA:
        _set_path(tree, path, default)
    return tree


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
    try:
        finite = cast not in (int, float) or math.isfinite(value)
    except OverflowError:                   # an int beyond float range
        finite = False
    if not finite:
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
    """Validated flat view of the configuration tree."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, path: str):
        return self.values[path]

    # -- object builders ------------------------------------------------------
    def system(self, wavelength: float | None = None) -> ImagingSystem:
        with _config_errors("system"):
            return ImagingSystem(
                pupil_radius=self["system.pupil_radius_m"],
                object_distance=self["system.object_distance_m"],
                wavelength=wavelength or self["system.wavelength_m"],
                magnification=self["system.magnification"],
                pupil_profile=PupilProfile(self["system.pupil_profile"]),
                pupil_sigma=self["system.pupil_sigma_m"])

    def aperture(self) -> Aperture:
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
        poling = self["phase_matching.poling_period_m"]
        return PhaseMatchingParams.from_wavelengths(
            crystal_length=self["phase_matching.crystal_length_m"],
            lambda_s=self["phase_matching.signal_wavelength_m"],
            lambda_i=self["phase_matching.idler_wavelength_m"],
            focal_length=self["phase_matching.focal_length_m"],
            poling_period=None if poling == "auto" else poling,
            index_model=SellmeierModel.from_file(
                self["phase_matching.sellmeier.data_file"],
                temperature_c=self["phase_matching.sellmeier.temperature_C"]))

    def pde_for(self, wavelength: float) -> float:
        pde = self["detector.pde"]
        if pde != "auto":
            return float(pde)
        for lam, value in DEFAULT_PDE.items():
            if abs(wavelength - lam) < 0.05 * lam:
                return value
        raise ConfigError(
            f"detector.pde: no default efficiency for wavelength "
            f"{wavelength:.3e} m; set a number")

    def detector(self, wavelength: float | None = None) -> DetectorConfig:
        wavelength = wavelength or self["system.wavelength_m"]
        with _config_errors("detector"):
            return DetectorConfig(
                n_pixels_x=self["detector.n_pixels_x"],
                n_pixels_y=self["detector.n_pixels_y"],
                pixel_pitch=self["detector.pixel_pitch_m"],
                time_bin=self["detector.time_bin_s"],
                frame_duration=self["detector.frame_duration_s"],
                frame_rate=self["detector.frame_rate_hz"],
                pde=self.pde_for(wavelength),
                dark_count_rate=self["detector.dark_count_rate_hz"],
                crosstalk_prob=self["detector.crosstalk_prob"])

    def source(self, kind: str | None = None,
               wavelength: float | None = None):
        kind = kind or self["acquisition.source"]
        rate = self["acquisition.pair_rate_hz"]
        with _config_errors("acquisition.source"):
            if kind == "ocm":
                return OcmPairSource(self.aperture(), self.system(wavelength),
                                     self.phase_matching(), rate,
                                     n_photons=self["ocm.n_photons"])
            if kind in ("coherent", "incoherent"):
                return ClassicalSource(self.aperture(), self.system(wavelength),
                                       rate, coherent=(kind == "coherent"))
            if kind == "point":
                return PointSource(self["aperture.waist_m"], rate)
            sys_ = self.system(wavelength)                      # far_field
            scale = sys_.object_distance * sys_.wavelength / (2.0 * np.pi)
            sigma = (self["acquisition.far_field_correlation_px"]
                     * self["detector.pixel_pitch_m"])
            return FarFieldPairSource(self.aperture(), scale, rate,
                                      n_photons=self["ocm.n_photons"],
                                      correlation_sigma=sigma)

    def object_grid(self, system: ImagingSystem | None = None) -> GridSpec:
        """Object-plane grid: covers the object and >= 8 PSF zeros, refined
        to sample the order-N PSF and the PSF at the wavelength / N."""
        system = system or self.system()
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
        params = self.phase_matching()
        from .phasematch import deviation_envelope

        def weight(xi_x, xi_y):
            xi = np.stack([np.asarray(xi_x), np.asarray(xi_y)], axis=-1)
            return np.abs(deviation_envelope(xi, params)) ** 2

        return weight


def _walk_and_validate(tree: dict) -> dict:
    known = {path: kind for path, kind, _, _ in SCHEMA}
    flat: dict = {}

    def recurse(node, prefix):
        if not isinstance(node, dict):
            raise ConfigError(f"{prefix or '<root>'}: expected a mapping")
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if path in known:
                flat[path] = _check_type(path, known[path], value)
            elif any(p.startswith(path + ".") for p in known):
                recurse(value, path)
            else:
                raise ConfigError(f"{path}: unknown configuration key")

    recurse(tree, "")
    return flat


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    """Load and validate a YAML config; apply ``key.path=value`` overrides."""
    tree = default_tree()
    if path is not None:
        try:
            with open(path) as fh:
                user = yaml.safe_load(fh)
        except yaml.MarkedYAMLError as exc:
            mark = exc.problem_mark
            where = (f"{path}:{mark.line + 1}:{mark.column + 1}"
                     if mark else str(path))
            raise ConfigError(f"{where}: YAML syntax error: {exc.problem}") \
                from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        _merge(tree, user)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {key}: cannot parse value {raw!r}") from exc
        _set_path(tree, key.strip(), value)
    flat = _walk_and_validate(tree)
    if flat["acquisition.wall_time_s"] * flat["detector.frame_rate_hz"] < 1:
        raise ConfigError("acquisition.wall_time_s: shorter than one frame "
                          "period of detector.frame_rate_hz")
    return RunConfig(flat)


def _merge(base: dict, update: dict) -> None:
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


def schema_help() -> str:
    """Human-readable key table for --help."""
    width = max(len(path) for path, _, _, _ in SCHEMA)
    lines = ["configuration keys (YAML paths, SI units):"]
    for path, kind, default, help_ in SCHEMA:
        lines.append(f"  {path.ljust(width)}  {help_} "
                     f"(type {kind}, default {default!r})")
    return "\n".join(lines)
