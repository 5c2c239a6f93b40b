"""Correctness checks and independent reference values for the benchmark.

Every task output is checked.  Deterministic identities are checked on each
task; Monte Carlo means are pooled per task kind over all passes of a run and
compared with an exact or closed-form value.  A run makes a few dozen pooled
comparisons, and a baseline takes hundreds of runs, so the band is 5 sigma
(two-sided false-alarm rate 6e-7 per comparison) rather than the 4 sigma the
unit tests use on a handful of fixed seeds.

Checks that reproduce a defect already recorded in ROADMAP.md are tagged
with that item.  They still run on every pass, but their outcome is reported
on its own (``known`` below) instead of marking the run as incorrect.
"""

import json
import math
from fractions import Fraction

import mpmath

Z_BAND = 5.0


class Checker:
    """Counts check outcomes; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = {}  # tag -> [attempted, reproduced]
        self.messages = []
        self._pools = {}

    def check(self, ok, label, known=None):
        ok = bool(ok)
        if known is not None:
            slot = self.known.setdefault(known, [0, 0])
            slot[0] += 1
            slot[1] += 0 if ok else 1
            return ok
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(label)
        return ok

    def finite(self, values, label, known=None):
        return self.check(all_finite(values), "%s: non-finite value" % label, known)

    def close(self, got, want, tol, label):
        return self.check(abs(float(got) - float(want)) <= tol,
                          "%s: %r vs %r (tol %g)" % (label, got, want, tol))

    # -- pooled Monte Carlo comparisons ---------------------------------
    def pool(self, key, want, values_sum, squares_sum, n, lower_only=False):
        """Adds samples of a quantity whose mean should be `want`.

        With `lower_only` the mean may exceed `want` by any amount.
        """
        slot = self._pools.setdefault(key, [want, lower_only, 0.0, 0.0, 0])
        slot[2] += values_sum
        slot[3] += squares_sum
        slot[4] += n

    def pool_prob(self, key, want, hits, n):
        self.pool(key, want, hits, hits, n)

    def pool_floor(self, key, floor, hits, n):
        self.pool(key, floor, hits, hits, n, lower_only=True)

    def pool_pair(self, key, side, hits, n):
        """One of two estimates (side 0 or 1) of the same probability."""
        slot = self._pools.setdefault(key, [None, [0, 0], [0, 0]])
        slot[1 + side][0] += hits
        slot[1 + side][1] += n

    def finish_pools(self):
        for key, slot in sorted(self._pools.items()):
            lower_only = False
            if slot[0] is None:
                (ha, na), (hb, nb) = slot[1], slot[2]
                if not (na and nb):
                    self.check(False, "%s: one side has no samples" % key)
                    continue
                q = (ha + hb) / (na + nb)
                se = math.sqrt(max(q * (1 - q), 0.0) * (1 / na + 1 / nb))
                diff = ha / na - hb / nb
            else:
                want, lower_only, s, ss, n = slot
                mean = s / n
                var = max(ss / n - mean * mean, 0.0) * n / max(n - 1, 1)
                se = math.sqrt(var / n)
                diff = mean - want
            if lower_only:
                diff = min(diff, 0.0)
            ok = abs(diff) <= 1e-12 if se == 0.0 else abs(diff) <= Z_BAND * se
            self.check(ok, "%s: off by %.3g (se %.3g)" % (key, diff, se))
        self._pools.clear()

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "known": self.known, "messages": self.messages}


# ---------------------------------------------------------------------------
# strict JSON

def _reject_constant(name):
    raise ValueError("non-finite JSON constant %s" % name)


def strict_json(text):
    """Parses JSON, rejecting NaN and Infinity; returns None if invalid."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# closed forms, derived independently of the package


def _binom_pmf(m, k, p):
    logc = math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
    if p in (0.0, 1.0):
        return float((k == m) if p == 1.0 else (k == 0))
    return math.exp(logc + k * math.log(p) + (m - k) * math.log1p(-p))


def majority_pivotality(m, p):
    """P(bit i is pivotal) for majority of m (odd) bits: the others tie."""
    h = (m - 1) // 2
    return _binom_pmf(m - 1, h, p)


def majority_prob_one(m, p):
    return math.fsum(_binom_pmf(m, k, p) for k in range((m + 1) // 2, m + 1))


def _odd_parity(k, p):
    """P(the mod-2 sum of k Bernoulli(p) bits is 1)."""
    return (1.0 - (1.0 - 2.0 * p) ** k) / 2.0


def pivotalities(family, m, p):
    """Per-bit flip-pivotality for the families with a closed form."""
    if family == "maj":
        return [majority_pivotality(m, p)] * m
    if family == "parity":
        return [1.0] * m
    if family == "dap":
        # output x0 AND even(rest): x0 is pivotal iff rest is even,
        # any other bit iff x0 = 1
        return [1.0 - _odd_parity(m - 1, p)] + [p] * (m - 1)
    if family == "type2":
        # x1 ? x0 : parity(x2..): x0 pivotal iff x1 = 1, x1 iff x0 differs
        # from the tail parity, tail bits iff x1 = 0
        odd = _odd_parity(m - 2, p)
        return [p, p * (1.0 - odd) + (1.0 - p) * odd] + [1.0 - p] * (m - 2)
    raise KeyError(family)


def prob_one(family, m, p):
    if family == "maj":
        return majority_prob_one(m, p)
    if family == "parity":
        return _odd_parity(m, p)
    if family == "dap":
        return p * (1.0 - _odd_parity(m - 1, p))
    if family == "type2":
        return p * p + (1.0 - p) * _odd_parity(m - 2, p)
    raise KeyError(family)


def itermaj3_total_influence_half(depth):
    """Total influence of iterated 3-majority at p = 1/2: 3^d * 1/2 * 2^-d."""
    return 0.5 * 1.5 ** depth


def perc_static_connect(children, level, p):
    """P(root joins level `level` through open edges), static percolation.

    q_level = 1 and q_k = 1 - (1 - p q_{k+1})^{c_{k+1}}, so the value at
    k = 0 is the probability the level-`level` output is 1.
    """
    q = 1.0
    for c in reversed(children[:level]):
        q = 1.0 - (1.0 - p * q) ** c
    return q


def perc_total_influence(children, level, p):
    """Sum over edges of 2p(1-p) P(edge pivotal) for a symmetric tree.

    An edge from level k-1 to level k is pivotal iff its lower end reaches
    the bottom, the k-1 edges above it are open, and at each of the k
    ancestors no other child offers an open route to the bottom.
    """
    ch = list(children[:level])
    n = len(ch)
    q = [1.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        q[k] = 1.0 - (1.0 - p * q[k + 1]) ** ch[k]
    total = 0.0
    vertices = 1
    blocked = 1.0
    for k in range(1, n + 1):
        vertices *= ch[k - 1]
        blocked *= (1.0 - p * q[k]) ** (ch[k - 1] - 1)
        piv = q[k] * p ** (k - 1) * blocked
        total += vertices * 2.0 * p * (1.0 - p) * piv
    return total


def andor_pivotal_exact(n, k):
    """The pivotal rationals of the depth-n AND/OR tree (n <= 3)."""
    return Fraction(1, 2 ** (k + 2)) if k < n else Fraction(1, 2 ** (n + 1))


def all_finite(values):
    """True if every value is finite; an mpf is tested as an mpf, so one
    beyond the float range counts as finite."""
    return all(mpmath.isfinite(v) if isinstance(v, mpmath.mpf) else math.isfinite(float(v))
               for v in values)


def series_last_log(series):
    """Natural log of a recursion series' last value, as an mpf.

    Computed from the raw value, so a log below the float range (depth
    1100 and beyond) stays finite instead of overflowing to -inf.
    """
    v = mpmath.mpf(series.values[-1])
    if series.modes[-1] == "log":
        return v
    return mpmath.log(v) if v > 0 else mpmath.mpf("-inf")


def maj3_b_log_reference(eps, t, n, digits=40):
    """log b_n of the 3-majority two-time recursion, in mpmath at `digits`.

    Leaves are Bernoulli(1/2 - eps) and rerandomize at rate 1:
    a_0 = 1/2 - eps, b_0 = (1 + e^-t)/4 - eps + eps^2 (1 - e^-t),
    a_{k+1} = 3a^2 - 2a^3, b_{k+1} = 3b^2 - 2b^3 + 6b(a - b)^2.
    """
    with mpmath.workdps(digits):
        eps = mpmath.mpf(eps)
        emt = mpmath.exp(-mpmath.mpf(t))
        a = mpmath.mpf(1) / 2 - eps
        b = (1 + emt) / 4 - eps + eps * eps * (1 - emt)
        for _ in range(n):
            b = 3 * b * b - 2 * b * b * b + 6 * b * (a - b) ** 2
            a = 3 * a * a - 2 * a * a * a
        return mpmath.log(b)


def log_close(a, b, rel=1e-9):
    """Relative agreement of two logs given as floats or mpfs."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    if not (mpmath.isfinite(a) and mpmath.isfinite(b)):
        return False
    return abs(a - b) <= rel * max(1, abs(a), abs(b))
