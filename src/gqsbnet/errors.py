"""Exception types shared across the package."""

from __future__ import annotations


class GqsbError(Exception):
    """Base class for every error this package raises on purpose."""


class SelfLoop(GqsbError):
    """An edge joins a node to itself."""


class DuplicateEdge(GqsbError):
    """The same unordered node pair appears more than once."""


class BadIndex(GqsbError):
    """A node index falls outside the graph's node range."""


class ZeroWeight(GqsbError):
    """An edge carries weight zero; signed graphs require nonzero ties."""


class NonFiniteWeight(GqsbError):
    """An edge weight is NaN or infinite."""


class TooLarge(GqsbError):
    """The input exceeds the size bound of an exact algorithm."""


class BadGamma(GqsbError):
    """The dominance coefficient is outside (0, inf)."""


class NotGQSB(GqsbError):
    """The bipartition admits a cooperative cross-subset edge."""


class NotSymmetric(GqsbError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class NoConvergence(GqsbError):
    """An iterative numeric routine failed its residual contract."""


class DimensionMismatch(GqsbError):
    """Array shapes do not line up for the requested operation."""


class BadStep(GqsbError):
    """The integrator step size is not a positive real."""


class BadState(GqsbError):
    """A start state has a NaN or infinite entry."""


class NotPolarizing(GqsbError):
    """Final-state prediction was asked for a non-polarizing system."""


class MissingDataset(GqsbError):
    """A bundled or configured dataset file cannot be found."""


class BadPartition(GqsbError):
    """A dominant-group specification does not induce a usable bipartition."""


class ParseError(GqsbError):
    """An input file violates the edge-list format.

    Carries the source name and one-based line number when known.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)
