"""Exception types shared across the package."""


class SchemaError(ValueError):
    """Malformed JSON input; message carries the offending field path."""


class PolicyPartError(ValueError):
    """A policy part breaks its type's rules. `part` names it: ("tau",),
    ("schedules", id), ("intervals",), ("intervals", id) or ("phases", id)."""

    def __init__(self, part: tuple, message: str):
        super().__init__(message)
        self.part = part


class IncommensurateIntervals(ValueError):
    """No common cycle below the configured bound exists for the given intervals."""


class NotAPowerOfTwo(ValueError):
    """Interval ratio of a candidate couple is not an integer power of two."""


class SpaceMismatch(ValueError):
    """Peak-space products of a candidate couple differ by more than the allowed slack."""


class InfeasibleMatching(ValueError):
    """No assignment satisfies the degree bounds of a matching instance."""


class BudgetExceeded(RuntimeError):
    """Guess enumeration would exceed the configured budget."""

    def __init__(self, count: int, budget: int):
        super().__init__(f"enumeration of {count} guesses exceeds budget {budget}")
        self.count = count
        self.budget = budget


class TooManyCommodities(BudgetExceeded):
    """Instance has more commodities than the alignment DP is run on."""

    def __init__(self, count: int, budget: int):
        super().__init__(count, budget)
        self.args = (f"ptas_solve handles at most {budget} commodities, got {count}",)


class InfeasiblePolicy(RuntimeError):
    """A solver's certified peak space exceeds the capacity."""


class StateSpaceExceeded(RuntimeError):
    """Dynamic program state count crossed the hard cap."""


class ActionSpaceExceeded(StateSpaceExceeded):
    """One level of a dynamic program has more pattern combinations than the cap."""


class SearchSpaceExceeded(RuntimeError):
    """Brute-force search space is too large to enumerate."""
