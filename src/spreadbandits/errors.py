"""Exception types raised across the package.

Everything subclasses :class:`BanditError`, which itself subclasses
``ValueError`` so callers who do not care about the fine-grained type can
catch the usual built-in.
"""


class BanditError(ValueError):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------------------
# instance / statistics layer

class DimensionMismatch(BanditError):
    """Array arguments have inconsistent or malformed shapes."""


class NonPositiveVariance(BanditError):
    """A noise variance is zero or negative."""


class TiedOptimum(BanditError):
    """Two arms share the largest mean norm within tolerance."""


class TooFewArms(BanditError):
    """An instance needs at least two arms."""


class InvalidProfile(BanditError):
    """A power profile or a power value is invalid: negative, or off the
    probability simplex."""


class MissingObservation(BanditError):
    """An arm received positive power but no finite observed value."""


class InsufficientData(BanditError):
    """A computation needs more observations, or more positive power, than
    it was given."""


# ---------------------------------------------------------------------------
# posterior and bounds layers

class InvalidParams(BanditError):
    """An argument is outside the domain of a posterior, Monte Carlo or
    bound computation, which needs e.g. z > 0, an integer t >= 4,
    mc_samples >= 1, an even chi-square dof or x >= 0."""


# ---------------------------------------------------------------------------
# config / runner layer

class ParseError(BanditError):
    """Config text is syntactically malformed (message carries the line)."""


class ValidationError(BanditError):
    """A run setting is unknown or out of range: a config field, a policy
    kind, or a config section the mode does not use."""
