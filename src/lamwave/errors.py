"""Exception types shared across the library."""


class LamwaveError(Exception):
    """Base class for all library-specific failures."""


class DomainError(LamwaveError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class GentLocking(DomainError):
    """A Gent material was evaluated at or beyond its extensibility limit."""


class NoRoot(LamwaveError):
    """The stretch equation has no root inside the admissible domain.

    ``locking_stretch`` reports where the Gent validity limit locks, when the
    root lies beyond it.
    """

    def __init__(self, message: str, locking_stretch: float | None = None):
        super().__init__(message)
        self.locking_stretch = locking_stretch


class DispersionTooStrong(DomainError):
    """The dispersion parameter is too large for the optimised coefficient set."""


class NoGap(LamwaveError):
    """No band gap exists for the requested model."""


class NoSoliton(LamwaveError):
    """No localized travelling-wave solution exists at the requested speed."""


class NoBound(LamwaveError):
    """The requested bound does not exist (the admissible range is unbounded)."""


class NotReached(LamwaveError):
    """A bisection target was not reached on the admissible interval."""


class GeometryError(LamwaveError, ValueError):
    """Grid geometry cannot be realised with an integer number of cells."""


class Instability(LamwaveError):
    """A numerical run became unstable; ``position`` is the march coordinate."""

    def __init__(self, message: str, position: float | None = None):
        super().__init__(message)
        self.position = position


class ConfigError(LamwaveError, ValueError):
    """A run configuration failed validation. ``where`` anchors the offending key."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(f"{where}: {message}" if where else message)
        self.where = where
