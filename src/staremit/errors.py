"""Exception types shared across the package."""


class NonConvergence(RuntimeError):
    """The eigensolver failed to converge on the given matrix."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class StepTooLarge(ValueError):
    """Integrator step too coarse for the operator norm."""


class DegenerateProfile(ValueError):
    """A spectral profile cannot span the full space (a weight below ``MIN_WEIGHT``)."""


class AsymmetricProfile(ValueError):
    """The cosine expansion requires mirror-symmetric overlap weights."""


class ThresholdOutOfRange(ValueError):
    """Detection thresholds must lie strictly between 0 and 1."""
