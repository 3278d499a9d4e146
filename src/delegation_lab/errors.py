"""Error types and the capacity caps shared across the library."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Limits that keep every exact enumeration at desk scale.

    Each field is a `--caps` key and the `cap` of the `CapacityError` that
    refuses past it.
    """

    scenarios: int = 10**6
    dp_states: int = 10**6
    policy_sets: int = 20
    family_sets: int = 10**6


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
