"""Exception types shared across the toolkit.

Plain parameter mistakes (a negative bin count, an axis index out of range)
raise ``ValueError``; the classes below mark conditions a caller may want to
branch on, e.g. to map them to distinct process exit codes.
"""


class DelayMapError(Exception):
    """Base class for all toolkit-specific errors."""


class SeriesLoadError(DelayMapError):
    """CSV ingestion failed: unreadable file, missing column, junk cell,
    or fewer than two usable values after the missing-data policy."""


class DegenerateSeriesError(DelayMapError):
    """The series is constant (zero range), so histogram binning and
    neighbor statistics are undefined; or its range (max - min) overflows
    float64, so no bin width, neighbor distance or box edge can be computed;
    or two values a false-neighbor test reads differ by less than 2^-511 of
    the cloud's scale, so their squared difference is not a normal float."""


class NoAdmissibleNeighborError(DelayMapError):
    """Every candidate neighbor falls inside the temporal exclusion band."""


class DivergenceError(DelayMapError):
    """A synthetic-system orbit left the allowed region or became non-finite."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class ScalingFitError(DelayMapError):
    """Not enough scaling points (or no spread in them) for a slope fit."""
