"""Switch-count volatility of Boolean functions under i.i.d. bit rerandomization.

Each of a function's bits is rerandomized at rate 1 (independent
exponential clocks, Bernoulli(p) resampling); the package measures how
often the output switches on a unit time window, exactly for small
instances and by simulation, recursion, or lazy sampling for large ones.
"""

__version__ = "0.1.0"

from . import analysis, dynamics, experiments, functions, oracle, perctree
from .errors import (
    ArityMismatch,
    ArityTooLarge,
    BoolvolError,
    DepthTooLarge,
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidSpec,
    PrecisionExhausted,
    ResourceLimit,
    UnreachableTarget,
)
from .functions import FunctionSpec, make_instance, parse_spec
