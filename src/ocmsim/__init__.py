"""Quantum super-resolution imaging by N-photon centroid measurement.

End-to-end simulation toolkit: scalar Fourier optics with a single-lens
system and one imaging function, ``image``, whose order-N case is the
N-photon centroid image and whose order-1 case is classical coherent or
incoherent imaging; centroid-PSF theory (Heisenberg 1/N narrowing versus the
1/sqrt(N) standard quantum limit); a quasi-phase-matched pair source; a Monte
Carlo model of a 32x32 time-stamping single-photon sensor; coincidence
reconstruction on the half-pixel centroid grid; and quantitative resolution
analysis.
"""

import importlib

# module -> its public names; a module loads when one of its names is read
_PUBLIC = {
    "analysis": ("FitModel", "Profile1D", "ScalingFit", "WidthReport",
                 "cross_section", "scaling_fit", "slit_contrast",
                 "width_metrics"),
    "detector": ("DEFAULT_PDE", "ClassicalSource", "FarFieldPairSource",
                 "OcmPairSource", "apply_detector_model", "run_acquisition",
                 "sample_event_positions"),
    "events_io": ("DetectorConfig", "EventStream", "read_events",
                  "read_manifest", "write_events"),
    "grid": ("FieldGrid", "GridSpec"),
    "ocm": ("analytic_centroid_psf_circular", "centroid_psf",
            "classical_centroid_psf", "far_field_pattern", "ocm_image"),
    "optics": ("Aperture", "ImagingSystem", "J1_FIRST_ZERO", "PupilProfile",
               "coherent_image", "fourier_transform_2d", "image",
               "incoherent_image", "single_lens_psf", "somb"),
    "phasematch": ("PhaseMatchingParams", "SellmeierModel",
                   "deviation_envelope", "deviation_envelope_fwhm",
                   "solve_poling_period", "wavevector_mismatch"),
    "reconstruction": ("CentroidImage", "CoincidenceSet", "XiMode",
                       "centroid_image", "coverage_table",
                       "estimate_accidentals", "extract_coincidences",
                       "singles_image"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = {*_PUBLIC, "cli", "config", "errors"}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name or a submodule, imported on first use (PEP 562)."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                       name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
