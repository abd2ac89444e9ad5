"""Exception types shared across the library, and the lookup that names the choices."""


class MeanConvexError(Exception):
    """Base class for all library errors."""


class DomainError(MeanConvexError):
    """An argument left the domain of a function or weight."""


class EvaluationError(MeanConvexError):
    """A formula could not be evaluated (zero denominator, nonpositive base)."""


class InapplicableSpecError(MeanConvexError):
    """A refutation probe was asked about a class it does not cover."""


class HypothesisMismatchError(MeanConvexError):
    """A chained corollary's stated hypothesis fails on samples."""


def lookup(table: dict, key: str, what: str):
    """table[key]; an unknown key raises KeyError naming the choices."""
    if key not in table:
        raise KeyError(f"unknown {what} {key!r}; choose from {sorted(table)}")
    return table[key]
