"""Exception types shared across the package."""


class NKerrError(Exception):
    """Base class for every error raised by this package."""


class DegeneracyError(NKerrError):
    """Unperturbed spectrum too close to degenerate for a non-degenerate series."""


class PoleError(NKerrError):
    """A closed form has no finite value at the requested parameters.

    Either a denominator vanishes, or a term or the result leaves double range
    (overflow, or an underflow to a zero divisor); ``model.POLES`` lists them.
    """


class NotResonantError(NKerrError):
    """Raman resonance (delta_2 = 0) required but not satisfied."""


class NotHermitianError(NKerrError):
    """Operation restricted to the lossless (gamma = 0) regime."""


class ConvergenceError(NKerrError):
    """Dense eigensolver failed to meet its residual contract."""


class TrackingError(NKerrError):
    """Continuity tracking of an eigenbranch lost its target."""


class ScenarioError(NKerrError):
    """Scenario file failed schema validation."""
