"""Exception types, and the argument checks behind every public entry point.

A number is an int or a float, numpy scalars included, never a bool or a
str: nothing is coerced, so "0.5" is not a rate and 150.5 not a count.  NaN
lies in no range.  A rate, horizon, count, seed, precision, series index or
threshold that is not a number in its range raises ValueError; a malformed
function, profile, level list or spec text, or a level that a profile or
report does not hold, raises InvalidSpec; a value past a fixed budget
(arity, depth, digits, draws, grid points) raises a ResourceLimit subclass.
Public methods follow the same policy.  The CLI exits 3 on a ResourceLimit
and 2 on any other BoolvolError or ValueError.
"""

import math
import numbers
import sys


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


# one value per depth of a recursion, one child count per level of a built
# profile: five times the deepest series the tests ask for
MAX_DEPTH = 10_000

# a bound of _check_real that refuses the infinities
_FINITE = sys.float_info.max


def _integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_int(name, value, low, error=ValueError, high=math.inf):
    """`value` as an int, or `error` unless it is an integer in [low, high]."""
    if not (_integer(value) and low <= value <= high):
        if _integer(value) and high < math.inf:
            raise error("%s %d outside %d..%d" % (name, value, low, high))
        raise error("%s must be an integer >= %d, got %r" % (name, low, value))
    return int(value)


def _check_depth(name, value, low, error=ValueError):
    """`_check_int`, and InstanceTooLarge above `MAX_DEPTH`."""
    value = _check_int(name, value, low, error)
    if value > MAX_DEPTH:
        raise InstanceTooLarge("%s %d exceeds the recursion budget %d" % (name, value, MAX_DEPTH))
    return value


def _check_id(name, value):
    """`value` as an int, or ValueError unless it is an integer in [0, 2^64)."""
    if not (_integer(value) and 0 <= value < 2**64):
        raise ValueError("%s must be an integer in [0, 2^64), got %r" % (name, value))
    return int(value)


def _check_real(name, value, lo, hi, error=ValueError):
    """`value` as an int or a float, or `error` unless it is a number in
    [lo, hi]; a bound of +-_FINITE refuses the infinities past it.  It is
    converted before it is compared, so a numpy scalar meets Python bounds."""
    integral = isinstance(value, numbers.Integral)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
            integral and not -_FINITE <= value <= _FINITE):
        raise error("%s must be a real number in the float range, got %r" % (name, value))
    value = int(value) if integral else float(value)
    if not lo <= value <= hi:
        if hi == _FINITE:
            bounds = "be finite" if lo == -_FINITE else "be a finite number >= %g" % lo
        else:
            bounds = "be >= %g" % lo if hi == math.inf else "lie in [%g, %g]" % (lo, hi)
        raise error("%s must %s, got %r" % (name, bounds, value))
    return value


def _check_seq(name, values, error=ValueError):
    """`values` as a tuple, or `error` unless they are a sequence (a str is not)."""
    if not isinstance(values, str):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise error("%s must be a sequence, got %r" % (name, values))


def _check_ints(name, values, low, error=ValueError):
    """`values` as a tuple of ints, or `error` unless they are one or more
    integers >= `low`."""
    values = _check_seq(name, values, error)
    if not values or not all(_integer(v) and v >= low for v in values):
        raise error("%s must be integers >= %d, at least one, got %r" % (name, low, values))
    return tuple(int(v) for v in values)


def _check_type(name, value, cls, error=ValueError):
    """`value`, or `error` unless it is an instance of `cls`, a class or a tuple."""
    if not isinstance(value, cls):
        kinds = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise error("%s must be a %s, got %r" % (name, kinds, value))
    return value
