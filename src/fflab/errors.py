"""Exception hierarchy for the workbench.

Every failure mode that callers are expected to handle gets its own class;
anything else is a plain bug and raises the builtin exceptions.
"""


class FFLabError(Exception):
    """Base class for all workbench errors."""


class PrecisionExhausted(FFLabError):
    """An operation could not certify a single coefficient at the working precision."""


class DivisionByZero(FFLabError):
    """Inverse of an exact zero."""


class SingularBasis(FFLabError):
    """Matrix expected to be invertible over F is singular."""


class SingularMap(FFLabError):
    """A map expected to be a quasi-isogeny is not bijective on ambient spaces."""


class NoSolution(FFLabError):
    """Linear system has no solution."""


class UnsupportedRamified(FFLabError):
    """Ramified quadratic extension requested at even residue characteristic."""


class BothRamified(FFLabError):
    """Fixed algebra requested for two ramified extensions."""


class NotASquare(FFLabError):
    """Polynomial square root does not exist."""


class NormalizationFail(FFLabError):
    """No legal affine normalization of the invariant restores its symmetry."""


class FactorFail(FFLabError):
    """Polynomial factorization could not separate factors at the working precision."""


class WrongDimension(FFLabError):
    """Centralizer dimension differs from the expected rank (pair not regular semisimple)."""


class NotFound(FFLabError):
    """Search exhausted its budget without producing the requested object."""


class SearchTimeout(FFLabError):
    """Randomized generation exceeded its retry budget."""


class UnstableBase(FFLabError):
    """Base lattice is not stable under the requested matrix action."""


class NonFreeAction(FFLabError):
    """The discrete group does not act freely where freeness is required."""


class NotStable(FFLabError):
    """Lattice is not stable under the relevant order action."""


class WindowOverflow(FFLabError):
    """A derived enumeration window exceeded the configured cap."""


class ConfigError(FFLabError):
    """Malformed run configuration."""
