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
    """``descriptor[key]``; a missing key is an InputError."""
    if key not in descriptor:
        raise InputError(f"{descriptor.get('kind')!r} descriptor needs "
                         f"a {key!r} field")
    return descriptor[key]
