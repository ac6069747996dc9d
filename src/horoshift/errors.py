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


def field(descriptor, key, kind=object):
    """``descriptor[key]``, which must be a ``kind``, else an InputError."""
    if not isinstance(descriptor, dict):
        raise InputError(f"expected a JSON object, got {descriptor!r}")
    if key not in descriptor:
        name = descriptor.get("kind")
        what = "descriptor" if name is None else f"{name!r} descriptor"
        raise InputError(f"{what} needs a {key!r} field")
    value = descriptor[key]
    # JSON true/false are bools, and bool is a subclass of int
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
        raise InputError(f"{key!r} must be a {kind.__name__}, got {value!r}")
    return value
