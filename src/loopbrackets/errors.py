"""Exception hierarchy shared across the package."""


class LoopBracketsError(Exception):
    """Base class for all package errors."""


class DomainError(LoopBracketsError):
    """Input outside the mathematical domain of an operation."""


class ConvergenceError(LoopBracketsError):
    """Requested tolerance not achievable at the configured truncation."""


class PoleError(DomainError):
    """Evaluation point inside the pole guard of a lattice point."""


class CollisionError(DomainError):
    """Two spectral points hit the same Weierstrass value, so the
    rational form of the two-point weight is singular."""


class ClosureError(LoopBracketsError):
    """A derivative rewrite is missing for a leaf symbol."""


class ExponentOverflowError(LoopBracketsError):
    """A polynomial's degree would exceed what its packed exponent fields
    hold."""


class UnboundSymbolError(LoopBracketsError):
    """Numeric evaluation hit a leaf with no assigned value."""


class DivisibilityError(LoopBracketsError):
    """A division that is exact by contract left a remainder."""


class ExtractionError(LoopBracketsError):
    """Structure-constant extraction violated one of its internal
    cancellation or degree assertions."""


class StructureError(LoopBracketsError):
    """A structural claim about a bracket table failed (centrality,
    polynomiality of a coordinate change, ...)."""


class UnknownFieldError(LoopBracketsError):
    """Expression references a field absent from the bracket table."""
