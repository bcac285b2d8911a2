"""Error taxonomy shared across the package.

The categories matter operationally: the command line maps them onto distinct
exit codes (config 2, cap 3, domain 4), and the library keeps structural
mistakes (mismatched shapes, foreign algebras) apart from mathematical
precondition failures (non-unitary conjugator, an operator that is no projection).
A check whose deviation is not finite is no input error: the suite runner
raises RuntimeError and the command line exits 5.
"""

__all__ = [
    "EvogridError",
    "StructureError",
    "DomainError",
    "PreconditionError",
    "DataError",
    "ConfigError",
    "CapExceededError",
]


class EvogridError(Exception):
    """Base class for every error raised by this package."""


class StructureError(EvogridError):
    """Objects do not fit together: wrong shapes, foreign algebra, missing data."""


class DomainError(EvogridError):
    """An argument lies outside the declared domain (unknown time label,
    subset not in the admissible family, point outside the grid)."""


class PreconditionError(EvogridError):
    """A mathematical precondition fails (non-unitary conjugator,
    an operator that is not a projection)."""


class DataError(EvogridError):
    """An evaluator produced an unusable value (non-finite, non-real)."""


class ConfigError(EvogridError):
    """A scenario file cannot be parsed or violates the config schema."""


class CapExceededError(EvogridError):
    """The dense representation dimension exceeds the configured cap."""
