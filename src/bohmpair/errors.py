"""Exception types shared across the package."""


class DegenerateParametersError(ValueError):
    """An operation requires unequal superposition amplitudes (a != b)."""


class BracketError(ValueError):
    """A root bracket does not contain a sign change."""


class ConfigurationError(ValueError):
    """Invalid run configuration or a pathological sampling setup."""


class InsufficientSampleError(RuntimeError):
    """Too few surviving ensemble members to support a statistic."""
