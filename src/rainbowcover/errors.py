"""Exception types shared across the package."""

from __future__ import annotations


class ParameterError(ValueError):
    """An argument violates a documented precondition; `field`, when set, names
    that argument, so a front end can name the option that set it."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ColoringFormatError(ParameterError):
    """Malformed colouring text; carries the 1-based line/column of the bad token."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class FamilySizeError(ParameterError):
    """The subset family C(n,k) exceeds the in-memory coverage-family guard."""


class BudgetExceededError(RuntimeError):
    """A node budget ran out, or the pair tallies' size limit or the exact
    search's recursion limit would be passed, before the computation finished.

    `nodes_explored` is set by the search routines; `refuted_up_to` is the
    largest interval length fully refuted before the budget ran out (only
    meaningful for the exact solver).
    """

    def __init__(self, message: str, nodes_explored: int | None = None,
                 refuted_up_to: int | None = None):
        super().__init__(message)
        self.nodes_explored = nodes_explored
        self.refuted_up_to = refuted_up_to


class RoundsExhaustedError(RuntimeError):
    """Block construction hit its round limit with subsets still uncovered.

    `residual` holds the uncovered colour subsets in colex order as a read-only
    ColorSetView over the construction's own coverage family, one byte per
    subset of the palette, shared with no copy; its subsets are built only when
    read. `trace` holds the partial construction trace for diagnostics.
    """

    def __init__(self, message: str, residual=None, trace=None):
        super().__init__(message)
        self.residual = residual if residual is not None else []
        self.trace = trace
