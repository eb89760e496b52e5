"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed braid text, PD text, or inconsistent diagram data."""


class NonPositiveWordError(InputError):
    """A positive-braid-only operation received a word with negative letters."""


class TruncatedComplexError(ValueError):
    """An operation that needs every column received a truncated complex."""


class CapExceededError(RuntimeError):
    """The crossing count exceeds the configured resource cap."""

    def __init__(self, crossings: int, cap: int):
        super().__init__(
            f"diagram has {crossings} crossings, exceeding the cap of {cap}; "
            f"raise the cap explicitly to proceed"
        )
        self.crossings = crossings
        self.cap = cap


class GeneratorBudgetError(CapExceededError):
    """The cube would have more generators than the crossing cap's budget
    (cube.generator_budget), or a braid closure more free loops than any cap
    admits."""

    def __init__(self, message: str):
        RuntimeError.__init__(self, message)
