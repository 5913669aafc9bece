"""Exception types raised across the package."""


class OcmsimError(Exception):
    """Base class for all package-specific errors."""


class GridTooCoarse(OcmsimError):
    """Sampling too coarse to represent the field (PSF under-sampled)."""


class GridMismatch(OcmsimError):
    """Grids that must share geometry (shape/spacing/origin) do not."""


class WrongPupilProfile(OcmsimError):
    """Operation requires a different pupil profile."""


class EvanescentInput(OcmsimError):
    """Transverse wavevector outside the paraxial domain (radicand <= 0)."""


class UnnormalizableDensity(OcmsimError):
    """Probability density has zero total mass."""


class SinkWriteError(OcmsimError):
    """Failed to write an output file."""


class UnsortedInput(OcmsimError):
    """Event stream whose frame ids decrease somewhere."""


class EventOutOfRange(OcmsimError):
    """Event stream whose arrays, frame count or ids break its bounds."""


class SortKeyOverflow(OcmsimError):
    """Event fields too wide to pack into one 64-bit sort key."""


class CorruptEventFile(OcmsimError):
    """Event file is truncated, malformed or holds out-of-range records."""


class CorruptGridFile(OcmsimError):
    """Grid file is truncated, malformed or carries trailing bytes."""


class TooFewFrames(OcmsimError):
    """Not enough frames for cross-frame accidental estimation."""


class EmptyBand(OcmsimError):
    """Projection band selects no samples."""


class NoPeak(OcmsimError):
    """Profile has no usable peak."""


class AmbiguousPeak(OcmsimError):
    """Profile is multi-modal and no fit model was given."""


class PeaksNotFound(OcmsimError):
    """Profile unusable for slit scoring (too short or degenerate)."""


class DegenerateInput(OcmsimError):
    """Fit input is degenerate (too few or identical abscissae)."""


class ConfigError(OcmsimError):
    """Run configuration failed to parse or validate."""
