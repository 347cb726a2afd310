"""Exception types shared across the package."""


class SlitSimError(Exception):
    """Base class for all package-specific errors."""


class ScreenSurfaceError(SlitSimError, ValueError):
    """Evaluation requested on the charged screen surface (x = 0, |y| >= R)."""


class ConfigurationError(SlitSimError, ValueError):
    """Inconsistent or invalid run parameters."""


class SpecMismatchError(SlitSimError, ValueError):
    """Histograms with different bin layouts cannot be combined."""
