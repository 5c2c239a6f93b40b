"""Exception types shared across the package.

ResourceLimit subclasses mark failures caused by configured caps (arity,
depth, memory) as opposed to malformed input; the CLI maps the former to
exit code 3 and the latter to exit code 2.
"""


class BoolvolError(Exception):
    pass


class InvalidSpec(BoolvolError):
    """Malformed or out-of-range function specification."""


class ArityMismatch(BoolvolError):
    """Bit configuration length does not match the instance arity."""


class IndexOutOfRange(BoolvolError):
    """Bit index outside [0, arity)."""


class UnreachableTarget(BoolvolError):
    """No integer child count keeps the weight profile within tolerance."""

    def __init__(self, level, message):
        super().__init__(message)
        self.level = level


class PrecisionExhausted(BoolvolError):
    """Requested working precision cannot represent an intermediate value."""


class ResourceLimit(BoolvolError):
    """Base class for configured resource caps."""


class ArityTooLarge(ResourceLimit):
    """Arity exceeds the enumeration cap."""


class DepthTooLarge(ResourceLimit):
    """Tree depth exceeds the exact-enumeration cap."""


class InstanceTooLarge(ResourceLimit):
    """Instance exceeds a fixed size, event or draw budget."""
