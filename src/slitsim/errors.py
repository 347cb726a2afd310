"""Exception types shared across the package."""


class ScreenSurfaceError(ValueError):
    """Evaluation requested on the charged screen surface (x = 0, |y| >= R)."""


class ConfigurationError(ValueError):
    """Inconsistent or invalid run parameters."""
