class InputError(ValueError):
    """Invalid input: dimension mismatch, bad descriptor, empty set, ..."""


class ResourceBudgetError(RuntimeError):
    """An enumeration exceeded its configured budget.

    Carries the budget and the partial count so callers can report how far
    the computation got.
    """

    def __init__(self, message, budget, count=None):
        super().__init__(message)
        self.budget = budget
        self.count = count


def field(descriptor, key):
    """``descriptor[key]``; a non-object or a missing key is an InputError."""
    if not isinstance(descriptor, dict):
        raise InputError(f"expected a JSON object, got {descriptor!r}")
    if key not in descriptor:
        kind = descriptor.get("kind")
        what = "descriptor" if kind is None else f"{kind!r} descriptor"
        raise InputError(f"{what} needs a {key!r} field")
    return descriptor[key]
