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

from .analysis import (FitModel, Profile1D, ScalingFit, WidthReport,
                       cross_section, scaling_fit, slit_contrast, width_metrics)
from .detector import (DEFAULT_PDE, ClassicalSource, DetectorConfig,
                       FarFieldPairSource, OcmPairSource, PointSource,
                       apply_detector_model, run_acquisition,
                       sample_event_positions)
from .events_io import EventStream, read_events, read_manifest, write_events
from .grid import FieldGrid, GridSpec
from .ocm import (analytic_centroid_psf_circular, centroid_psf,
                  classical_centroid_psf, far_field_pattern, ocm_image)
from .optics import (Aperture, ImagingSystem, J1_FIRST_ZERO,
                     PupilProfile, coherent_image, fourier_transform_2d,
                     image, incoherent_image, single_lens_psf, somb)
from .phasematch import (PhaseMatchingParams, SellmeierModel,
                         deviation_envelope, deviation_envelope_fwhm,
                         solve_poling_period, wavevector_mismatch)
from .reconstruction import (CentroidImage, CoincidenceSet, XiMode,
                             centroid_image, coverage_table,
                             estimate_accidentals, extract_coincidences,
                             singles_image)

__version__ = "0.1.0"

__all__ = [
    "Aperture", "CentroidImage", "ClassicalSource", "CoincidenceSet",
    "DEFAULT_PDE", "DetectorConfig", "EventStream", "FarFieldPairSource",
    "FieldGrid", "FitModel", "GridSpec", "ImagingSystem", "J1_FIRST_ZERO",
    "OcmPairSource", "PhaseMatchingParams", "PointSource", "Profile1D",
    "PupilProfile", "ScalingFit", "SellmeierModel", "WidthReport", "XiMode",
    "analytic_centroid_psf_circular", "apply_detector_model",
    "centroid_image", "centroid_psf", "classical_centroid_psf",
    "coherent_image", "coverage_table", "cross_section", "deviation_envelope",
    "deviation_envelope_fwhm", "estimate_accidentals", "extract_coincidences",
    "far_field_pattern", "fourier_transform_2d", "image", "incoherent_image",
    "ocm_image", "read_events", "read_manifest", "run_acquisition",
    "sample_event_positions", "scaling_fit", "single_lens_psf",
    "singles_image", "slit_contrast", "solve_poling_period", "somb",
    "wavevector_mismatch", "width_metrics", "write_events",
]
