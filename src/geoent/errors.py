"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematically meaningful domain."""


class ShapeMismatchError(ValueError):
    """Two objects that must act on the same qubit register do not."""


class DegenerateInputError(ValueError):
    """Input collapses to the zero vector (or is otherwise informationless)."""


class ResourceCapError(RuntimeError):
    """A computation would exceed the configured size caps."""


class NumericalFaultError(RuntimeError):
    """A computation broke an invariant that exact arithmetic guarantees."""
