"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Raised for malformed input documents; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetError(ValueError):
    """Raised when an input exceeds a stated limit: the dense vertex limit,
    an enumeration or encoding budget, or a CLI input, output or search limit."""


def _check_limit(count: int, limit: int, phrase: str) -> None:
    """Raise ``BudgetError`` "<phrase with count> of <limit>" if ``count``
    exceeds ``limit``; ``phrase`` holds one ``{}`` for the count."""
    if count > limit:
        raise BudgetError(f"{phrase.format(count)} of {limit}")


class PreconditionError(ValueError):
    """Raised when a caller-supplied relation violates a stated precondition."""


class TriangleFoundError(PreconditionError):
    """Raised when a triangle-free precondition fails; carries one witness triangle."""

    def __init__(self, triangle: tuple[int, int, int]):
        self.triangle = triangle
        super().__init__(f"underlying graph contains triangle {triangle}")
