"""Exception types, checks of record values, and ``sink``, the file writer."""

import contextlib
import math
import numbers


def finite_real(value) -> bool:
    """A real number, not a bool, that converts to a finite float."""
    try:
        return (isinstance(value, numbers.Real)
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:                   # an int beyond float range
        return False


def require_finite_positive(record, *names: str) -> None:
    """Raise ValueError unless each named field is a finite real > 0."""
    for name in names:
        value = getattr(record, name)
        items = value if isinstance(value, tuple) else (value,)  # itemwise
        if not all(finite_real(v) and v > 0 for v in items):
            raise ValueError(f"{name} = {value!r} must be finite and > 0")


@contextlib.contextmanager
def sink(path, mode: str, what: str):
    """Open ``path`` to write ``what``; an OSError becomes SinkWriteError."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise SinkWriteError(f"cannot write {what} {path}: {exc}") from exc


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
    """Density with a negative weight, or without a finite positive mass."""


class SinkWriteError(OcmsimError):
    """Failed to write an output file."""


class UnsortedInput(OcmsimError):
    """Event stream whose frame ids decrease somewhere."""


class EventOutOfRange(OcmsimError):
    """Event stream whose arrays, frame count, ids, source hash or meta
    break its contract."""


class SortKeyOverflow(OcmsimError):
    """Event fields too wide to pack into one 64-bit sort key."""


class CorruptEventFile(OcmsimError):
    """Event file is truncated, malformed or holds out-of-range records."""


class CorruptGridFile(OcmsimError):
    """Grid file is truncated, malformed or carries trailing bytes."""


class CorruptManifest(OcmsimError):
    """Manifest or report file that is not one JSON object."""


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
