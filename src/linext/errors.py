"""Exception hierarchy shared across the package."""


class LinextError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LinextError):
    """Malformed poset input: bad syntax, ids out of range, or n < 1."""


class CycleError(LinextError):
    """The declared relation contains a cycle, so it is not a partial order."""


class GuardError(LinextError):
    """A size guard was exceeded (instance too large for the requested operation)."""


class CoalescenceError(LinextError):
    """Coupling from the past reached MAX_STEPS steps without a block coalescing."""
