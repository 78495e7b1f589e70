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
    """A power profile does not lie on the probability simplex."""


class NegativePower(BanditError):
    """A power value is negative."""


class MissingObservation(BanditError):
    """An arm received positive power but no observed value."""


class AllZeroPower(BanditError):
    """A batch of observations carries no positive power at all."""


# ---------------------------------------------------------------------------
# posterior layer

class InvalidParams(BanditError):
    """Posterior parameters out of domain (z > 0, S > 0, integer t >= 4)."""


class ZeroSamples(BanditError):
    """A Monte Carlo estimate was requested with no samples."""


# ---------------------------------------------------------------------------
# policy layer

class WrongKind(BanditError):
    """A step function was called on a state of a different policy kind."""


class InsufficientData(BanditError):
    """A policy needs more observations than its state holds."""


class ProfileMismatch(BanditError):
    """Profile or outcome length disagrees with the policy state."""


# ---------------------------------------------------------------------------
# bounds layer

class NonPositiveArgument(BanditError):
    """An argument escaped the positive (or > -1) domain of a bound."""


class OddDof(BanditError):
    """The closed-form chi-square CDF only covers even degrees of freedom."""


class NegativeX(BanditError):
    """A CDF was evaluated at a negative point."""


# ---------------------------------------------------------------------------
# gain-estimation layer

class ZeroNoiseBin(BanditError):
    """The noise shaping filter vanishes at a grid frequency."""


class TiedPeak(BanditError):
    """Two grid frequencies share the largest gain within tolerance."""


class NoData(BanditError):
    """A gain estimate was requested before any observation arrived."""


# ---------------------------------------------------------------------------
# config / runner layer

class ParseError(BanditError):
    """Config text is syntactically malformed (message carries the line)."""


class ValidationError(BanditError):
    """Config text parsed but a field is unknown or out of range."""
