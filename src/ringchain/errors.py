"""Tagged error types raised by the solvers.

Every scalar function is total over its stated domain and raises one of
these instead of returning NaN.
"""

import operator


class RingChainError(Exception):
    """Base class for all solver errors."""


class InvalidParameter(ValueError):
    """A model parameter outside its domain, rejected by its type's constructor."""


def require_integer(value, least: int, what: str) -> int:
    """operator.index(value) where value is an integer (no float, however
    whole) >= least; otherwise raises InvalidParameter naming it what."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{what} must be an integer, not {value!r}") from None
    if n < least:
        raise InvalidParameter(f"{what} must be >= {least}, not {n}")
    return n


class HalfIntegerFlux(RingChainError):
    """cos(A*pi) vanishes: the dispersion function is undefined and the
    spectrum is pure point; callers must use the flat-band path."""


class InsideBand(RingChainError):
    """Energy lies in the continuous spectrum (|xi| <= 1) where a
    gap-only quantity was requested."""


class FlatBandPole(RingChainError):
    """Energy sits on a flat band (E = n^2), where sin(k*pi)/k = 0."""


class CutoffTooSmall(RingChainError):
    """No spectral band was found below the requested cutoff."""


class FitFailed(RingChainError):
    """A scaling fit could not be performed (missing points or poor R^2)."""


class SolverNoConvergence(RingChainError):
    """The eigensolver did not converge or missed a counted eigenvalue."""


class DimensionOverflow(RingChainError):
    """Discretization size exceeds the configured cap."""
