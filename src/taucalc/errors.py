"""Exception hierarchy for orbit calculus and factorization chains."""


class CalculusError(Exception):
    """Base class for all numerical/structural errors raised by this package."""


class DomainEscape(CalculusError):
    """An iterate left the map's domain by more than the allowed tolerance."""


class LimitNotConverged(CalculusError):
    """Fixed-point iteration from a base did not settle within its cap."""


class LimitMismatch(CalculusError):
    """The two interval bases converge to different fixed points."""


class CoincidentOrbits(CalculusError):
    """One interval base lies on the orbit of the other (degenerate grid)."""


class TailNotConverged(CalculusError):
    """The tail of an orbit sum/product did not fall below tolerance."""


class FactorZero(CalculusError):
    """A factor of an infinite product vanished."""


class NonPositiveFactor(CalculusError):
    """A value that must be real (and, for a logarithm or a weight,
    positive) is not."""


class ZeroWeight(CalculusError):
    """The weight function vanishes at a grid point where it must not."""


class ZeroDivisor(CalculusError):
    """A recursion denominator vanished at an interior grid point."""


class InconsistentWeights(CalculusError):
    """The two next-level weight formulas disagree (Pearson violated)."""


class RiccatiBlowup(CalculusError):
    """The first-order Riccati recursion hit a zero denominator."""


class ZeroAlpha(CalculusError):
    """The forward-shift coefficient vanishes at an interior point."""


class ZeroLift(CalculusError):
    """Ladder application annihilated the eigenfunction (chain bottom)."""


class DegenerateSystem(CalculusError):
    """The 2x2 step matrix is singular at a grid point."""


class SingularResolvent(CalculusError):
    """The resolvent matrix is not invertible where a solve needs it."""


class SingularGauge(CalculusError):
    """A gauge matrix is not invertible at a grid point."""


class NotTriangular(CalculusError):
    """The closed-form resolvent requires a triangular system."""


class NegativeBaseRealExponent(CalculusError):
    """A signed base cannot be raised to a non-integer real power."""


class DegenerateQuadruple(CalculusError):
    """Cross-ratio denominator vanishes."""


class GridMismatch(CalculusError):
    """Grids are not in the required pointwise correspondence."""


class ParticularNotSolution(CalculusError):
    """The supplied particular solution does not satisfy the recursion."""


class SingularLimit(CalculusError):
    """Required regularity at the orbit limit fails numerically."""


class ConfigError(CalculusError):
    """Invalid or unparseable run configuration."""


class NotContractingWarning(UserWarning):
    """The sampled contraction estimate is not below one."""


class PositivityWarning(UserWarning):
    """The weighted measure is not positive at some grid points."""
