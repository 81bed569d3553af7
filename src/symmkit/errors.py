"""Exception types shared across the package."""


class SymmkitError(Exception):
    """Base class for all symmkit errors."""


class MisalignedHyperplane(SymmkitError):
    """The reflection in the hyperplane does not map the cell-center lattice to itself."""


class OffGrid(SymmkitError):
    """An operation would move cells past the edge of the grid."""


class NonConvexColumn(SymmkitError):
    """A grid column that must be a contiguous run of cells is not."""


class EmptySet(SymmkitError):
    """An operation that needs positive measure received an empty set."""


class UnknownName(SymmkitError):
    """A name lookup in a fixed catalog failed."""


class NotARearrangement(SymmkitError):
    """A transformer failed the equimeasurability or monotonicity prerequisite."""
