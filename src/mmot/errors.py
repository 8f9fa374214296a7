"""Exception types raised by the mmot package.

Every error that callers are expected to catch derives from MMOTError so
that the command line driver can map failures to exit codes in one place.
"""


class MMOTError(Exception):
    """Base class for all package errors."""


class PointOutsideWindow(MMOTError):
    """A point lies outside the grid window [-R, R]^d."""


class SupportOutsideWindow(MMOTError):
    """A density's support is not contained in the grid window."""


class ZeroMass(MMOTError):
    """A density integrated to zero over the window."""


class ParseError(MMOTError):
    """A measure, plan, or potentials file is malformed."""


class NormalizationError(MMOTError):
    """Weights in a file are too far from summing to one to renormalize."""


class NegativeWeight(MMOTError):
    """A weight in a file is negative or zero where positivity is required."""


class InsufficientSupport(MMOTError):
    """The measure cannot support any admissible plan for the requested N."""


class ProblemTooLarge(MMOTError):
    """The LP the request needs exceeds the solver's fixed size limit."""


class NumericalBreakdown(MMOTError):
    """The LP engine lost numerical control (tiny pivots, bad residuals)."""


class DimensionMismatch(MMOTError):
    """Plan and potentials (or grids) disagree on dimension, level, or N."""


class OverlappingNeighborhoods(MMOTError):
    """Swap neighborhoods share a cell in some coordinate slot."""


class EmptyRestriction(MMOTError):
    """A swap neighborhood carries no plan mass."""


class NoOffDiagonalSupport(MMOTError):
    """No plan atom in the requested window stays clear of the diagonal."""
