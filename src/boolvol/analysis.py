"""Arbitrary-precision recursion engines for the two tree families.

Iterated 3-majority (depth-k probability recursions):

* ``maj3_a_seq``      -- a_{k+1} = 3 a_k^2 - 2 a_k^3, the one-time probability
                         P(root = 1) when each leaf is 1 with probability a_0.
* ``maj3_pi_seq``     -- pi_{k+1} = (3/2) pi_k - (1/2) pi_k^3 with pi_0 = 2 eps,
                         the gap variable pi_k = 1 - 2 a_k at a_0 = 1/2 - eps.
* ``maj3_b_seq``      -- b_{k+1} = 3 b_k^2 - 2 b_k^3 + 6 b_k (a_k - b_k)^2,
                         the two-time probability P(root = 1 at both 0 and t)
                         under stationary leaf rerandomization.
* ``maj3_cutoff_diagnostic`` -- sign of n log 3 + log a_n at p = 1/2 - n^alpha (2/3)^n,
                         separating the vanishing-switch-count regime (negative)
                         from the frequent-switching regime (positive).
* ``maj3_volatility_ratio``  -- rho = b_n / a_n^2 - 1, the second-moment
                         decorrelation certificate.
* ``maj3_grid_count`` -- Monte Carlo count of grid times j*(delta*a_n) <= T at
                         which the simulated output is 1 (E[Z] = 1/delta by
                         construction of the spacing).

Balanced AND/OR trees (output = root value of the alternating gate tree):

* ``andor_x_seq``       -- x_{k+1} = (1-tau)(x_k^2 + 1/4) + tau (x_k - x_k^2),
                           tau = (1 - e^{-t})/2, x_0 = (1-tau)/2: the two-time
                           probability P(f_k = 1 at both 0 and t) at p = 1/2.
* ``andor_beta``        -- the damping factor beta_n(t) = 1 for t < 1/n^2,
                           otherwise 1 - sqrt(t)/24.
* ``andor_switch_rate`` -- E[S_n] = (n+2)/8 for the 1 -> 0 switch count on
                           [0, 1], with the per-update probability (n+2)/(8 N_n).
* ``andor_b_bound_seq`` -- upper-bound recursion
                           bhat_{k+1} = (1/4) beta_k(t) bhat_k + k^2 / 4^{k+1}
                           (bhat = 1 for depths 0..2) dominating the probability
                           that two independent updates t apart both switch the
                           output; final value is checked against the closed
                           cap 800 (n/N_n)^2 / sqrt(t).
* ``andor_survival_floor``       -- max((1/2)(1 - 4 sqrt(x)), 0), the claimed
                           uniform-in-depth floor for P(first 1 -> 0 switch > x).
* ``andor_pair_sum_survival``    -- P(X + X' >= x) for X, X' i.i.d. with the
                           floor as survival function (closed form).
* ``andor_survival_floor_check`` -- exact certificate, with grid margins, that
                           the floor is a sub-fixed-point of the depth recursion
                           G(x) >= (1/2)(1 + x/2) P(X>=x)^2 + (1/2)(1 - x/2) P(X+X'>=x).

Precision policy: maj3_a_seq, maj3_pi_seq and maj3_b_seq run in float64 until
a value would fall below 1e-280, then step its natural log instead (log a_{k+1}
= log 3 + 2 log a_k + log1p(-(2/3) a_k)); the switch is monotone, and one
stepper applies it to all three.  The logs themselves leave the float range
near depth 1030 (-inf, then NaN in b).  A ``digits`` argument selects mpmath
arithmetic at that many decimal digits instead; mpf exponents never underflow,
so those series stay linear.  The cutoff diagnostic and the volatility ratio
always run in mpmath.  The mpmath steps work on raw libmp tuples at the
working precision and rounding, read once per series, and make mpf objects
only for what they return.  Each step rounds the same operations, in the same
order, as the mpf expression in its comment, so every value equals that
expression's bit for bit; the only merges are exact power-of-two scalings.
``digits`` is capped at ``MAX_DIGITS`` (InstanceTooLarge, exit 3 in the CLI):
a mantissa grows about 3x per step up to the working precision, so an
uncapped precision runs without bound.  All functions here are pure and safe
to call concurrently.  Every function that takes a depth n refuses n above
``MAX_DEPTH`` with InstanceTooLarge (exit 3 in the CLI), and the survival
floor check refuses a grid of more than ``MAX_GRID`` points the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import fone, mpf_add, mpf_lt, mpf_mul, mpf_mul_int, mpf_shift, mpf_sub

from .dynamics import DynamicsParams, simulate_batch
from .errors import (_FINITE, MAX_DEPTH, InstanceTooLarge, PrecisionExhausted, ResourceLimit,
                     _check_depth, _check_int, _check_real, _check_type)
from .functions import _check_instance

__all__ = [
    "MAJ3_CRITICAL_ALPHA",
    "MAX_DEPTH",
    "MAX_DIGITS",
    "MAX_GRID",
    "Maj3Params",
    "RecursionSeries",
    "maj3_a_seq",
    "maj3_pi_seq",
    "maj3_b_seq",
    "CutoffDiagnostic",
    "maj3_cutoff_diagnostic",
    "VolatilityRatio",
    "maj3_volatility_ratio",
    "GridCount",
    "maj3_grid_count",
    "andor_x_seq",
    "andor_beta",
    "SwitchRate",
    "andor_switch_rate",
    "andor_b_bound_seq",
    "andor_survival_floor",
    "andor_pair_sum_survival",
    "SurvivalFloorReport",
    "andor_survival_floor_check",
]

# Exponent at which the 3-majority gap recursion changes phase: gamma = n^alpha
# decorrelates the tree for alpha below this and freezes it above.
MAJ3_CRITICAL_ALPHA = math.log(1.5) / math.log(2.0)

# mpmath working precision cap in decimal digits, the most the volatility
# ratio's refinement ever asks for
MAX_DIGITS = 5000

# x-grid points of the survival floor check, whose arrays hold about 80
# bytes per point; the CLI asks for 100 to 1000
MAX_GRID = 10**6

_UNDERFLOW = 1e-280
_LOG3 = math.log(3.0)
_LN10 = math.log(10.0)
_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class Maj3Params:
    """Depth/bias/time triple for the 3-majority two-time recursions.

    Exactly one of ``epsilon`` (explicit bias, p = 1/2 - epsilon) or ``alpha``
    (scaling mode, epsilon = n^alpha (2/3)^n) must be given.  In scaling mode
    the stored float ``epsilon`` is best-effort (it underflows to 0.0 for
    large n); precision-sensitive consumers rebuild it from (n, alpha) in
    arbitrary precision, so no information is lost.
    """

    n: int
    epsilon: float | None = None
    alpha: float | None = None
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", _check_depth("depth n", self.n, 0))
        object.__setattr__(self, "t", _check_real("time t", self.t, 0, math.inf))
        if (self.epsilon is None) == (self.alpha is None):
            raise ValueError("give exactly one of epsilon= or alpha=")
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _check_real("alpha", self.alpha, -_FINITE, _FINITE))
            if self.n < 1:
                raise ValueError("scaling mode needs n >= 1")
            if self.log10_epsilon() >= math.log10(0.5):
                raise ValueError("n^alpha (2/3)^n >= 1/2: p would leave [0, 1/2)")
            object.__setattr__(self, "epsilon", math.exp(self.log10_epsilon() * _LN10))
        else:
            object.__setattr__(self, "epsilon", _check_real("epsilon", self.epsilon, 0, 0.5))
            if self.epsilon == 0.5:
                raise ValueError("epsilon must lie in [0, 1/2), got 0.5")

    @classmethod
    def from_alpha(cls, n, alpha, t=0.0):
        return cls(n=n, alpha=alpha, t=t)

    def log10_epsilon(self):
        """log10 of the bias, exact in scaling mode even when the float underflows."""
        if self.alpha is not None:
            return self.alpha * math.log10(self.n) + self.n * math.log10(2.0 / 3.0)
        if self.epsilon > 0.0:
            return math.log10(self.epsilon)
        return -math.inf

    @property
    def p(self):
        return 0.5 - self.epsilon

    def epsilon_mpf(self):
        """The bias as an mpf at the current mpmath working precision."""
        if self.alpha is not None:
            return mp.mpf(self.n) ** self.alpha * (mp.mpf(2) / 3) ** self.n
        return mp.mpf(self.epsilon)


# ---------------------------------------------------------------------------
# series container


@dataclass
class RecursionSeries:
    """A recursion trajectory with per-entry linear/log representation.

    ``values[k]`` holds the value itself when ``modes[k] == "linear"`` and its
    natural log when ``modes[k] == "log"`` (used once a float64 value falls
    below 1e-280; switching is monotone).  ``precision`` is the decimal digit
    count in arbitrary-precision mode and None for machine floats.
    """

    values: list
    modes: list
    precision: int | None = None
    info: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.values)

    def value(self, k):
        """The k-th value as a float (0.0 if below the float64 range)."""
        k = _check_int("index k", k, 0, ValueError, len(self.values) - 1)
        v = self.values[k]
        if self.modes[k] == "log":
            return math.exp(v) if v < 700.0 else math.inf
        return float(v)

    def log_value(self, k):
        """Natural log of the k-th value (-inf for exact zeros)."""
        k = _check_int("index k", k, 0, ValueError, len(self.values) - 1)
        v = self.values[k]
        if self.modes[k] == "log":
            return float(v)
        if v > 0:
            return float(mp.log(v)) if self.precision is not None else math.log(v)
        return -math.inf

    @property
    def last_value(self):
        return self.value(len(self.values) - 1)

    def to_csv_rows(self):
        """Rows (k, value_or_log, mode): the raw representation, not exp'd."""
        return [
            (k, float(self.values[k]), self.modes[k])
            for k in range(len(self.values))
        ]

    def to_json_dict(self):
        return {
            "series": [[k, v, m] for k, v, m in self.to_csv_rows()],
            "precision": self.precision,
            "info": {key: _jsonable(val) for key, val in self.info.items()},
        }


def _jsonable(v):
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if isinstance(v, float):
        return v
    return float(v)


# ---------------------------------------------------------------------------
# recursion cores


def _float_series(x0, n, step, log_from, log_step):
    """Float values x_0 .. x_n and their modes, switching to logs below 1e-280.

    ``step(x, k)`` maps x_k to x_{k+1}.  A start in (0, 1e-280) is kept as its
    log.  When the step of a positive x_k falls below 1e-280, log x_{k+1} =
    ``log_from(x_k, k)``, and ``log_step(log x_k, k)`` runs from then on.  The
    test keys on x_k staying positive because squaring can underflow straight
    past 1e-280 to exact zero.
    """
    linear = 0 if 0.0 < x0 < _UNDERFLOW else n + 1  # entries before the switch
    values = [math.log(x0) if linear == 0 else x0]
    for k in range(n):
        x = values[k]
        if k >= linear:
            values.append(log_step(x, k))
            continue
        nx = step(x, k)
        if x > 0.0 and nx < _UNDERFLOW:
            linear, nx = k + 1, log_from(x, k)
        values.append(nx)
    return values, ["linear"] * linear + ["log"] * (n + 1 - linear)


def _mp_series(x0, n, step):
    """Raw libmp values x_0 .. x_n, x_{k+1} = step(x_k, prec, rnd), at the
    working precision; mpf exponents never underflow."""
    prec, rnd = mp.mp._prec_rounding
    values = [x0]
    x = x0
    for _ in range(n):
        x = step(x, prec, rnd)
        values.append(x)
    return values


def _mpfs(values):
    """Raw libmp values as mpf objects."""
    return list(map(mp.mp.make_mpf, values))


def _workdps(digits):
    """mpmath working precision of ``digits`` decimal digits, an integer in
    [1, MAX_DIGITS]."""
    digits = _check_int("digits", digits, 1)
    if digits > MAX_DIGITS:
        raise InstanceTooLarge("%d digits exceed the precision cap %d" % (digits, MAX_DIGITS))
    return mp.workdps(digits)


def _mp_bias(params, digits):
    """(epsilon, p = 1/2 - epsilon) as mpfs, or PrecisionExhausted if p rounds to 1/2."""
    eps = params.epsilon_mpf()
    half = mp.mpf(1) / 2
    p = half - eps
    if eps > 0 and p == half:
        raise PrecisionExhausted(f"{digits} digits cannot represent p = 1/2 - epsilon")
    return eps, p


def _b0(eps, emt):
    """Two-time leaf probability b_0 at emt = e^{-t}, for floats and mpfs alike."""
    return (1 + emt) / 4 - eps + eps * eps * (1 - emt)


# ---------------------------------------------------------------------------
# 3-majority: one-time and gap recursions


def _a_step(a, _k):
    aa = a * a
    return 3.0 * aa - 2.0 * aa * a


def _a_log_from(a, _k):
    # log(3a^2 - 2a^3) = log 3 + 2 log a + log(1 - (2/3) a)
    return _LOG3 + 2.0 * math.log(a) + math.log1p(-(2.0 / 3.0) * a)


def _a_log_step(la, _k):
    if la < -800.0:  # exp(la) is 0.0: the log1p term is exactly -0.0, skip it
        return _LOG3 + 2.0 * la
    return _LOG3 + 2.0 * la + math.log1p(-(2.0 / 3.0) * math.exp(la))


def _mp_a_step(a, prec, rnd):
    # 3 * a * a - 2 * a * a * a, rounded op for op; 2 * x is exponent + 1
    return mpf_sub(mpf_mul(mpf_mul_int(a, 3, prec, rnd), a, prec, rnd),
                   mpf_shift(mpf_mul(mpf_mul(a, a, prec, rnd), a, prec, rnd), 1), prec, rnd)


def _float_a(p0, n):
    return _float_series(p0, n, _a_step, _a_log_from, _a_log_step)


def maj3_a_seq(p0, n, digits=None):
    """P(root = 1) by depth for the 3-majority tree with i.i.d. Bernoulli(p0) leaves.

    a_0 = p0, a_{k+1} = 3 a_k^2 - 2 a_k^3.  Fixed points 0, 1/2, 1; for
    p0 < 1/2 the sequence crashes doubly exponentially, hence the log-space
    switch below 1e-280.
    """
    p0 = _check_real("p0", p0, 0, 1)
    n = _check_depth("depth n", n, 0)
    if digits is not None:
        with _workdps(digits):
            vals = _mpfs(_mp_series(mp.mpf(p0)._mpf_, n, _mp_a_step))
        return RecursionSeries(vals, ["linear"] * (n + 1), digits, {"p0": p0})
    return RecursionSeries(*_float_a(p0, n), None, {"p0": p0})


def _pi_step(q, _k):
    return 1.5 * q - 0.5 * q * q * q


def _mp_pi_step(q, prec, rnd):
    # 1.5 * q - 0.5 * q * q * q, rounded op for op; 1.5 * q rounds to half of
    # the rounded 3 * q, and 0.5 * x is exponent - 1
    return mpf_sub(mpf_shift(mpf_mul_int(q, 3, prec, rnd), -1),
                   mpf_shift(mpf_mul(mpf_mul(q, q, prec, rnd), q, prec, rnd), -1), prec, rnd)


def _pi_log_step(lq, _k):
    # log((3/2) q (1 - q^2/3)) -- q^2 underflows harmlessly to 0.
    return math.log(1.5) + lq + math.log1p(-math.exp(2.0 * lq) / 3.0)


def maj3_pi_seq(epsilon, n, digits=None):
    """Gap sequence pi_k = 1 - 2 a_k at a_0 = 1/2 - epsilon.

    pi_0 = 2 epsilon, pi_{k+1} = (3/2) pi_k - (1/2) pi_k^3: an exact change of
    variables for the a-recursion, free of the 1/2 - epsilon cancellation, so
    it stays accurate for epsilon far below float resolution of 1/2.
    """
    epsilon = _check_real("epsilon", epsilon, 0, 0.5)
    n = _check_depth("depth n", n, 0)
    if digits is not None:
        with _workdps(digits):
            vals = _mpfs(_mp_series(mpf_shift(mp.mpf(epsilon)._mpf_, 1), n, _mp_pi_step))
        return RecursionSeries(vals, ["linear"] * (n + 1), digits, {"epsilon": epsilon})
    # pi_k never falls on [0, 1], so only a start below 1e-280 is kept in logs
    series = _float_series(2.0 * epsilon, n, _pi_step, None, _pi_log_step)
    return RecursionSeries(*series, None, {"epsilon": epsilon})


# ---------------------------------------------------------------------------
# 3-majority: joint two-time recursion


def _mp_b_series(a, b0):
    """Raw libmp b_0 .. b_n along raw a_0 .. a_n: b_{k+1} = 3 b^2 - 2 b^3 + 6 b (a_k - b)^2.

    Each step rounds as d = a_k - b; 3 * b * b - 2 * b * b * b + 6 * b * d * d
    does in mpf, op for op: 2 * x is exponent + 1, and the rounded 6 * b is
    twice the rounded 3 * b.
    """
    prec, rnd = mp.mp._prec_rounding
    values = [b0]
    b = b0
    for ak in a[:-1]:
        d = mpf_sub(ak, b, prec, rnd)
        b3 = mpf_mul_int(b, 3, prec, rnd)
        head = mpf_sub(mpf_mul(b3, b, prec, rnd),
                       mpf_shift(mpf_mul(mpf_mul(b, b, prec, rnd), b, prec, rnd), 1), prec, rnd)
        tail = mpf_mul(mpf_mul(mpf_shift(b3, 1), d, prec, rnd), d, prec, rnd)
        b = mpf_add(head, tail, prec, rnd)
        values.append(b)
    return values


def maj3_b_seq(params, digits=None):
    """P(root = 1 at both time 0 and time t) by depth, jointly with a_k.

    b_0 = (1 + e^{-t})/4 - eps + eps^2 (1 - e^{-t}) is the two-time leaf
    probability under rate-1 rerandomization to 1 w.p. p = 1/2 - eps;
    b_{k+1} = 3 b_k^2 - 2 b_k^3 + 6 b_k (a_k - b_k)^2.  At t = 0 the recursion
    reproduces a_k bit for bit; at t = inf it preserves b_k = a_k^2 (algebraic
    identity (3a^2-2a^3)^2 = 3a^4 - 2a^6 + 6a^4(1-a)^2).  A bias that rounds
    p to 1/2 raises PrecisionExhausted, in floats as in mpf.
    """
    n = _check_type("params", params, Maj3Params).n
    info = {"n": n, "t": params.t, "epsilon": params.epsilon, "alpha": params.alpha}
    if digits is not None:
        with _workdps(digits):
            eps, p = _mp_bias(params, digits)
            a = _mp_series(p._mpf_, n, _mp_a_step)
            vals = _mpfs(_mp_b_series(a, _b0(eps, mp.e ** (-mp.mpf(params.t)))._mpf_))
            info["epsilon"] = float(eps)
        return RecursionSeries(vals, ["linear"] * (n + 1), digits, info)
    if params.p == 0.5 and params.log10_epsilon() > -math.inf:
        raise PrecisionExhausted("epsilon = 10^%.1f rounds p to 1/2 in floats: pass digits= "
                                 "(--precision)" % params.log10_epsilon())

    # a_k is read linearly below index `linear` and as a log from there on
    a, a_modes = _float_a(params.p, n)
    linear = a_modes.count("linear")

    def step(b, k):
        bb = b * b
        d = (a[k] if k < linear else math.exp(a[k])) - b
        return 3.0 * bb - 2.0 * bb * b + 6.0 * b * d * d

    def log_from(b, k):
        ak = a[k] if k < linear else math.exp(a[k])
        arg = -(2.0 / 3.0) * b + 2.0 * (ak - b) * (ak - b) / b
        return _LOG3 + 2.0 * math.log(b) + math.log1p(arg)

    def log_step(lb, k):
        # b_{k+1} = 3 b^2 [1 - (2/3) b + 2 (a-b)^2 / b]; the bracket's tail term
        # in log form is 2 (a^2/b) (1 - b/a)^2, safe because a^2 <= b <= a keeps
        # the ratio a^2/b inside [a, 1].
        la = a[k] if k >= linear else math.log(a[k])
        r = math.exp(lb - la)
        q = math.exp(2.0 * la - lb)
        arg = -(2.0 / 3.0) * math.exp(lb) + 2.0 * q * (1.0 - r) * (1.0 - r)
        return _LOG3 + 2.0 * lb + math.log1p(arg)

    b0 = _b0(params.epsilon, math.exp(-params.t))
    return RecursionSeries(*_float_series(b0, n, step, log_from, log_step), None, info)


# ---------------------------------------------------------------------------
# 3-majority: cutoff diagnostic


@dataclass(frozen=True)
class CutoffDiagnostic:
    """Sign certificate n log 3 + log a_n at the scaled bias n^alpha (2/3)^n."""

    alpha: float
    n: int
    log_diag: float
    digits: int

    def to_json_dict(self):
        return {
            "alpha": self.alpha,
            "n": self.n,
            "log_diag": self.log_diag,
            "digits": self.digits,
        }


def maj3_cutoff_diagnostic(alpha, n, digits=50):
    """n log 3 + log a_n at p = 1/2 - n^alpha (2/3)^n in ``digits``-digit arithmetic.

    Negative means the expected switch count 3^n a_n * O(1) vanishes (frozen
    regime, alpha above the critical exponent); positive means it diverges.
    The bias is run through the gap recursion pi_{k+1} = (3/2) pi_k - (1/2) pi_k^3
    until pi >= 0.01 and only then converted to a = (1 - pi)/2 -- an exact
    change of variables that avoids representing 1/2 - epsilon directly, which
    would demand far more digits than the answer needs.
    """
    n = _check_int("cutoff depth n", n, 10)
    params = Maj3Params.from_alpha(n, alpha)
    digits = _check_int("digits", digits, 30)
    with _workdps(digits):
        eps = params.epsilon_mpf()
        if eps == 0:
            raise PrecisionExhausted("bias underflowed the working exponent range")
        if eps >= mp.mpf(1) / 2:
            raise ValueError("n^alpha (2/3)^n >= 1/2: p leaves [0, 1/2)")
        prec, rnd = mp.mp._prec_rounding
        q = mpf_shift(eps._mpf_, 1)
        stop = mp.mpf("0.01")._mpf_
        k = 0
        while k < n and mpf_lt(q, stop):
            q = _mp_pi_step(q, prec, rnd)
            k += 1
        # (1 - q) / 2, the halving exact
        a0 = mpf_shift(mpf_sub(fone, q, prec, rnd), -1)
        a = mp.mp.make_mpf(_mp_series(a0, n - k, _mp_a_step)[-1])
        if a <= 0:
            raise PrecisionExhausted(
                f"a_n hit zero at {digits} digits; increase digits"
            )
        log_diag = float(n * mp.log(3) + mp.log(a))
    return CutoffDiagnostic(alpha=float(alpha), n=n, log_diag=log_diag, digits=digits)


# ---------------------------------------------------------------------------
# 3-majority: volatility ratio


@dataclass(frozen=True)
class VolatilityRatio:
    """Second-moment decorrelation certificate rho = b_n / a_n^2 - 1.

    ``flagged`` is True when the evaluation point violates the precondition
    that t be of larger order than epsilon (tested as t <= 100 eps); there
    rho is dominated by the t = 0 limit 1/a_n - 1 and certifies nothing.
    ``rho`` may overflow to inf in that limit; ``log_rho`` stays finite.
    """

    rho: float
    log_rho: float
    flagged: bool
    digits: int
    n: int
    log_a: float
    log_t: float


def _volatility_pass(params, t_scale_by_a, digits):
    """One evaluation of `maj3_volatility_ratio` at exactly ``digits`` digits."""
    n = params.n
    with _workdps(digits):
        eps, p = _mp_bias(params, digits)
        a = _mp_series(p._mpf_, n, _mp_a_step)
        a_n = mp.mp.make_mpf(a[n])
        if a_n <= 0:
            raise PrecisionExhausted(f"{digits} digits cannot represent p = 1/2 - epsilon")
        t_eff = mp.mpf(t_scale_by_a) * a_n if t_scale_by_a is not None else mp.mpf(params.t)
        b_n = mp.mp.make_mpf(_mp_b_series(a, _b0(eps, mp.e ** (-t_eff))._mpf_)[n])
        rho = b_n / (a_n * a_n) - 1
        return VolatilityRatio(
            rho=float(rho),
            log_rho=float(mp.log(rho)) if rho > 0 else -math.inf,
            flagged=bool(t_eff <= 100 * eps),
            digits=digits,
            n=n,
            log_a=float(mp.log(a_n)),
            log_t=float(mp.log(t_eff)) if t_eff > 0 else -math.inf,
        )


def _vol_close(u, v):
    if (
        math.isfinite(u.rho)
        and math.isfinite(v.rho)
        and abs(u.rho) < 1e300
        and abs(v.rho) < 1e300
    ):
        return abs(u.rho - v.rho) <= 1e-6 * max(1.0, abs(u.rho), abs(v.rho))
    return abs(u.log_rho - v.log_rho) <= 1e-6 * max(
        1.0, abs(u.log_rho), abs(v.log_rho)
    )


def maj3_volatility_ratio(params, t_scale_by_a=None):
    """rho = b_n / a_n^2 - 1 for the 3-majority two-time recursion.

    With ``t_scale_by_a`` set, the evaluation time is t = t_scale_by_a * a_n
    (computed at working precision) instead of ``params.t``.  The precision
    is chosen automatically: a structural floor resolving both the bias and
    the time scale, then successive refinement until two precisions agree
    to 1e-6 relative.
    """
    _check_type("params", params, Maj3Params)
    if t_scale_by_a is not None:
        t_scale_by_a = _check_real("t_scale_by_a", t_scale_by_a, 0, math.inf)
        if t_scale_by_a == 0:
            raise ValueError("t_scale_by_a must be > 0, got 0")
    l10_eps = params.log10_epsilon()
    need_eps = max(0, math.ceil(-l10_eps)) if math.isfinite(l10_eps) else 0
    d = max(60, need_eps + 40)
    prev = None
    while d <= MAX_DIGITS:
        try:
            res = _volatility_pass(params, t_scale_by_a, d)
        except PrecisionExhausted:
            prev, d = None, 2 * d
            continue
        need_t = 0
        if math.isfinite(res.log_t) and res.log_t < 0:
            need_t = math.ceil(-res.log_t / _LN10)
        need = max(60, need_eps + 40, need_t + 40)
        if d < need:
            prev, d = None, need
            continue
        if prev is not None and _vol_close(prev, res):
            return res
        prev = res
        d = math.ceil(1.3 * d) + 10
    raise PrecisionExhausted("volatility ratio did not stabilize below %d digits" % MAX_DIGITS)


# ---------------------------------------------------------------------------
# 3-majority: grid count


@dataclass
class GridCount:
    """Counts of grid times j * spacing in (0, T] at which the output was 1."""

    spacing: float
    n_points: int
    delta: float
    target_prob: float
    replicas: int
    Z: np.ndarray


def maj3_grid_count(instance, dyn_params, delta, target_prob=None):
    """Count output-1 sightings on the grid j * (delta * target_prob), j >= 1.

    ``target_prob`` defaults, for iterated-3-majority instances, to the
    recursion value a_depth at the dynamics bias, making E[Z] = n_points *
    a_depth which is 1/delta up to the floor in n_points.  Other instances
    must supply the target explicitly.  Counting walks the switch segments of
    each trajectory, so the cost is O(events), not O(grid points).
    """
    _check_instance(instance)
    _check_type("dyn_params", dyn_params, DynamicsParams)
    delta = _check_real("delta", delta, 0, 1)
    if delta in (0, 1):
        raise ValueError("delta must lie in (0, 1), got %r" % (delta,))
    if target_prob is None:
        spec = instance.spec
        if spec.family != "itermaj3":
            raise ValueError(
                "target_prob is required for instances other than itermaj3"
            )
        target_prob = maj3_a_seq(dyn_params.p, spec.param).last_value
    spacing = delta * _check_real("target probability", target_prob, 0, math.inf)
    if not spacing > 0.0:
        raise ValueError("target probability must be positive (underflow?)")
    if not dyn_params.T / spacing <= 2**62:
        raise ResourceLimit("grid resolution exceeds countable range")
    n_points = math.floor(dyn_params.T / spacing)
    batch = simulate_batch(instance, dyn_params)
    # a run of ones from time a to b holds floor(b / spacing) - floor(a /
    # spacing) points, so a switch at t adds +floor(t / spacing) from 1 and
    # -floor(t / spacing) from 0, and a replica that ends at 1 adds n_points;
    # summed in int64, exact at any count
    rep = np.repeat(np.arange(dyn_params.replicas), batch.C)
    from_one = batch.initial[rep] ^ ((np.arange(rep.size) - batch.offsets[rep]) & 1)
    pts = np.floor(batch.times / spacing).astype(np.int64)
    Z = batch.final.astype(np.int64) * n_points
    np.add.at(Z, rep, np.where(from_one, pts, -pts))
    return GridCount(
        spacing=spacing, n_points=n_points, delta=delta,
        target_prob=float(target_prob), replicas=dyn_params.replicas, Z=Z,
    )


# ---------------------------------------------------------------------------
# AND/OR: two-time recursion


def andor_x_seq(t, n):
    """P(root = 1 at both 0 and t) by depth for the balanced AND/OR tree at p = 1/2.

    tau = (1 - e^{-t})/2 is the one-bit disagreement probability;
    x_0 = (1 - tau)/2 and x_{k+1} = (1 - tau)(x_k^2 + 1/4) + tau (x_k - x_k^2).
    The map has a unique fixed point inside [0, 1/2] which is attractive;
    ``info`` carries it with the terminal residual.
    """
    n, t = _check_depth("depth n", n, 0), _check_real("time t", t, 0, math.inf)
    tau = (1.0 - math.exp(-t)) / 2.0
    x = (1.0 - tau) / 2.0
    values = [x]
    for _ in range(n):
        x = (1.0 - tau) * (x * x + 0.25) + tau * (x - x * x)
        values.append(x)
    if tau == 0.5:
        fixed = 0.25
    else:
        fixed = ((1.0 - tau) - math.sqrt(tau * (1.0 - tau))) / (2.0 * (1.0 - 2.0 * tau))
    residual = abs(values[-1] - fixed)
    return RecursionSeries(
        values,
        ["linear"] * (n + 1),
        None,
        {
            "t": t,
            "tau": tau,
            "fixed_point": fixed,
            "fixed_point_residual": residual,
            "converged": residual <= 1e-10,
        },
    )


def andor_beta(n, t):
    """Damping factor: 1 for t < 1/n^2, else 1 - sqrt(t)/24 (exact piecewise form)."""
    return _beta(_check_depth("depth n", n, 0), _check_real("time t", t, 0, math.inf))


def _beta(n, t):
    return 1.0 if n == 0 or t < 1.0 / (n * n) else 1.0 - math.sqrt(t) / 24.0


# ---------------------------------------------------------------------------
# AND/OR: switch rate


@dataclass(frozen=True)
class SwitchRate:
    """E[S_n] = (n+2)/8 for the 1 -> 0 switch count on [0, 1] at p = 1/2."""

    n: int
    expected_switches_fraction: Fraction
    per_update_fraction: Fraction

    @property
    def expected_switches(self):
        return float(self.expected_switches_fraction)


def andor_switch_rate(n):
    """Expected 1 -> 0 switch count on [0, 1]: (n+2)/8, i.e. (n+2)/(8 N_n) per update."""
    n = _check_depth("depth n", n, 0)
    big_n = 2 ** (n + 1) - 1
    return SwitchRate(
        n=n,
        expected_switches_fraction=Fraction(n + 2, 8),
        per_update_fraction=Fraction(n + 2, 8 * big_n),
    )


# ---------------------------------------------------------------------------
# AND/OR: two-update bound recursion


def andor_b_bound_seq(n, t):
    """Upper-bound sequence bhat_k(t) for the two-update double-switch probability.

    bhat_k = 1 for k <= 2; for k >= 2,
        bhat_{k+1} = (1/4) beta_k(t) bhat_k + k^2 / 4^{k+1}.
    This is the simplified one-term domination of the full depth recursion,
    whose four contributions are, for two updates at times s and s + t:
      (i)   both updates hit the root bit itself;
      (ii)  exactly one update hits the root bit, the other a subtree;
      (iii) both updates land in the same depth-k subtree (the recursive
            term, damped by beta_k because the subtree must also double-switch);
      (iv)  the updates land in different subtrees, each of which must switch
            while the sibling holds the enabling value.
    Cases (i), (ii) and (iv) are dominated by the k^2/4^{k+1} tail; case (iii)
    contributes the (1/4) beta_k bhat_k term.  The final value is checked
    against the closed cap 800 (n/N_n)^2 / sqrt(t) (``info``; None, with
    ``cap_satisfied`` true, at t = 0 or n < 3, where no cap applies); the
    bound is meaningful for t <= 576 where beta >= 0.
    """
    n, t = _check_depth("depth n", n, 0), _check_real("time t", t, 0, math.inf)
    values = [1.0] * (min(n, 2) + 1)
    for k in range(2, n):
        # k^2 / 4^(k+1), exact, and 0 past depth 511, where 4.0^(k+1) overflows
        values.append(0.25 * _beta(k, t) * values[-1] + math.ldexp(k * k, -2 * (k + 1)))
    big_n = 2 ** (n + 1) - 1
    # no cap applies at t = 0 or below depth 3 (None, JSON null)
    cap = 800.0 * (n / big_n) ** 2 / math.sqrt(t) if (t > 0 and n >= 3) else None
    return RecursionSeries(
        values,
        ["linear"] * len(values),
        None,
        {"t": t, "cap": cap, "cap_satisfied": cap is None or values[-1] <= cap},
    )


# ---------------------------------------------------------------------------
# AND/OR: survival floor


def andor_survival_floor(x):
    """The depth-uniform floor max((1/2)(1 - 4 sqrt(x)), 0) for P(first 1->0 switch > x)."""
    x = _check_real("x", x, 0, math.inf)
    return max(0.5 * (1.0 - 4.0 * math.sqrt(x)), 0.0)


def andor_pair_sum_survival(xs):
    """P(X + X' >= x) for i.i.d. X, X' with survival max((1/2)(1-4 sqrt(u)), 0).

    X has an atom of mass 1/2 at 0, and given X > 0, V = 4 sqrt(X) is uniform
    on (0, 1).  For x > 0 the sum reaches x when one of X, X' is 0 and the
    other reaches x (probability floor(x)), or when both are positive and
    V^2 + V'^2 >= r^2, r = 4 sqrt(x): probability (1 - A(r))/4, where A(r) is
    the area of the quarter disc of radius r inside the unit square.
    """
    if np.asarray(xs).dtype.kind not in "iuf":  # an array maps NaN to NaN
        raise ValueError("xs must be real numbers, got %r" % (xs,))
    xs = np.asarray(xs, dtype=float)
    r = 4.0 * np.sqrt(np.maximum(xs, 0.0))
    c = np.clip(r, 1.0, _SQRT2)  # r where the middle piece of A holds
    area = np.where(r <= 1.0, np.pi * r * r / 4.0,
                    np.sqrt(c * c - 1.0) + c * c * (np.pi / 4.0 - np.arccos(1.0 / c)))
    area = np.where(r >= _SQRT2, 1.0, np.clip(area, 0.0, 1.0))
    out = np.where(xs <= 0.0, 1.0, np.maximum(0.5 * (1.0 - r), 0.0) + 0.25 * (1.0 - area))
    return float(out) if out.ndim == 0 else out


# RHS(x) - floor(x) on (0, 1/16] is (15/8 - pi/2) x + (1 + pi/4) x^2, held as
# the (rational, pi) parts of each coefficient: there s = sqrt(x) <= 1/4, the
# floor is 1/2 - 2s, P(X + X' >= x) = 3/4 - 2s - pi s^2, and odd powers cancel
# (tests/test_analysis.py derives it in exact arithmetic)
_FLOOR_MARGIN = ((Fraction(15, 8), Fraction(-1, 2)), (Fraction(1), Fraction(1, 4)))
_PI_BOUNDS = (Fraction(333, 106), Fraction(355, 113))


def _floor_certificate(margin):
    """Exact proof that RHS(x) >= floor(x) for every x >= 0.

    On (0, 1/16] each margin coefficient is linear in pi, so it is shown
    positive at both ends of 333/106 < pi < 355/113.  The other pieces hold by
    construction: at 0, RHS = 1 against a floor of 1/2; on (1/16, 1/8) the
    floor is 0 and RHS a probability; from 1/8 on, A(4 sqrt(x)) = 1 and both
    sides are 0.
    """
    near_0 = "(%s + (%s)*pi)*x + (%s + (%s)*pi)*x^2" % (*margin[0], *margin[1])
    return {
        "margin": {"x = 0": "1/2", "0 < x <= 1/16": near_0,
                   "1/16 < x < 1/8": "(1 - x/2)*(1 - A(4*sqrt(x)))/8", "x >= 1/8": "0"},
        "pi_bounds": [str(pi) for pi in _PI_BOUNDS],
        "proved": all(a + b * pi > 0 for a, b in margin for pi in _PI_BOUNDS),
    }


@dataclass
class SurvivalFloorReport:
    """Survival-floor check: the exact certificate and the grid margins."""

    xs: np.ndarray
    floor: np.ndarray
    rhs: np.ndarray
    margins: np.ndarray
    min_margin: float
    argmin_x: float
    grid_resolution: int
    certificate: dict
    tolerance: float = 1e-6

    @property
    def passed(self):
        return self.certificate["proved"] and self.min_margin >= -self.tolerance

    def to_csv_rows(self):
        return list(zip(self.xs.tolist(), self.floor.tolist(),
                        self.rhs.tolist(), self.margins.tolist()))

    def to_json_dict(self):
        return {
            "min_margin": self.min_margin,
            "argmin_x": self.argmin_x,
            "grid_resolution": self.grid_resolution,
            "certificate": self.certificate,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def andor_survival_floor_check(grid_resolution=1000, *, conv_points=None):
    """Prove RHS(x) >= floor(x) exactly, and give the margins on an x-grid over [0, 1].

    RHS(x) = (1/2)(1 + x/2) P(X >= x)^2 + (1/2)(1 - x/2) P(X + X' >= x) is the
    one-depth image of the floor law (root OR with probability 1/2: both
    children must outlast x; root AND: their first-switch times add).  The
    floor being a sub-fixed-point is what makes it depth-uniform.  P(X >= x)
    = 1 at x = 0 (atom included) and floor(x) for x > 0.  ``conv_points`` is
    accepted and ignored: it is kept only because perfbench/workloads.py
    still passes it.
    """
    grid_resolution = _check_int("grid_resolution", grid_resolution, 100)
    if grid_resolution > MAX_GRID:
        raise InstanceTooLarge("grid_resolution %d exceeds the grid cap %d"
                               % (grid_resolution, MAX_GRID))
    xs = np.linspace(0.0, 1.0, grid_resolution)
    floor = np.maximum(0.5 * (1.0 - 4.0 * np.sqrt(xs)), 0.0)
    single = np.where(xs <= 0.0, 1.0, floor)
    pair = andor_pair_sum_survival(xs)
    rhs = 0.5 * (1.0 + xs / 2.0) * single**2 + 0.5 * (1.0 - xs / 2.0) * pair
    margins = rhs - floor
    j = int(np.argmin(margins))
    return SurvivalFloorReport(
        xs=xs, floor=floor, rhs=rhs, margins=margins,
        min_margin=float(margins[j]), argmin_x=float(xs[j]),
        grid_resolution=grid_resolution,
        certificate=_floor_certificate(_FLOOR_MARGIN),
    )
