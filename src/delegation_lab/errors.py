"""Error types shared across the library."""


class CapacityError(RuntimeError):
    """An exact enumeration would exceed its configured cap.

    `cap` names the cap as the CLI's `--caps` key, `limit` is its value and
    `reached` is the count that passed it.
    """

    def __init__(self, message: str, cap: str, limit: int, reached: int) -> None:
        super().__init__(message)
        self.cap = cap
        self.limit = limit
        self.reached = reached


class UnsupportedError(ValueError):
    """Structural preconditions of an operation do not hold."""
