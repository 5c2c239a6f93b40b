"""Exact brute-force reference quantities for small-arity instances.

Everything here enumerates all 2^m configurations (chunked, with
extended-precision accumulation), so results serve as ground truth for
the Monte Carlo estimators.  Arity caps keep each call under a minute:
24 bits for single-configuration sums, 20 for the pair channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArityTooLarge, DepthTooLarge, NotPowerOfTwo
from .functions import FunctionSpec, make_instance

ENUM_ARITY_CAP = 24
PAIR_ARITY_CAP = 20
_CHUNK = 1 << 16


def _require(instance, cap):
    if instance.arity > cap:
        raise ArityTooLarge(
            "arity %d exceeds the exact-enumeration cap %d" % (instance.arity, cap)
        )


def _chunks(m):
    shifts = np.array([m - 1 - i for i in range(m)], dtype=np.int64)
    total = 1 << m
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield idx, ((idx[:, None] >> shifts) & 1).astype(np.uint8)


def _truth_values(instance):
    m = instance.arity
    out = np.empty(1 << m, dtype=np.uint8)
    for idx, bits in _chunks(m):
        out[idx[0]:idx[-1] + 1] = instance.evaluate_rows(bits)
    return out


def _weight_table(m, p):
    # weight of a configuration depends only on its number of ones
    return np.array([p**j * (1 - p) ** (m - j) for j in range(m + 1)])


def exact_prob_one(instance, p):
    """P(f = 1) under the product Bernoulli(p) measure, by enumeration.

    At p = 1/2 the result is an exact dyadic rational (ones count over
    2^m); otherwise weights accumulate in extended precision.
    """
    _require(instance, ENUM_ARITY_CAP)
    m = instance.arity
    if p == 0.5:
        count = 0
        for _, bits in _chunks(m):
            count += int(np.count_nonzero(instance.evaluate_rows(bits)))
        return count / float(1 << m)
    wtab = _weight_table(m, p)
    acc = np.longdouble(0.0)
    for _, bits in _chunks(m):
        f = instance.evaluate_rows(bits)
        w = wtab[bits.sum(axis=1)]
        acc += w[f == 1].sum(dtype=np.longdouble)
    return float(acc)


@dataclass
class InfluenceReport:
    """Per-bit influence (rerandomization) and pivotality (single flip).

    influence I_i = P(output changes when bit i alone is rerandomized);
    pivotality pi_i = P(output changes when bit i is flipped); they obey
    I_i = 2p(1-p) pi_i, but each is accumulated from its own definition.
    """

    p: float
    per_bit: list  # (i, I_i, pi_i) triples
    total_influence: float
    total_pivotality: float
    sum_squared_influence: float

    def to_json_dict(self):
        return {
            "p": self.p,
            "per_bit": [[i, infl, piv] for i, infl, piv in self.per_bit],
            "total_I": self.total_influence,
            "total_pi": self.total_pivotality,
            "sum_I_sq": self.sum_squared_influence,
        }


def exact_influence_report(instance, p):
    """Exact per-bit influence/pivotality by enumeration over all pairs."""
    _require(instance, ENUM_ARITY_CAP)
    m = instance.arity
    table = _truth_values(instance)
    masks = [1 << (m - 1 - i) for i in range(m)]
    exact_half = p == 0.5
    if exact_half:
        pi_cnt = [0] * m
    else:
        wtab = _weight_table(m, p)
        pi_acc = [np.longdouble(0.0)] * m
        infl_acc = [np.longdouble(0.0)] * m
    for idx, bits in _chunks(m):
        f = table[idx]
        if not exact_half:
            w = wtab[bits.sum(axis=1)]
        for i in range(m):
            diff = f != table[idx ^ masks[i]]
            if exact_half:
                pi_cnt[i] += int(np.count_nonzero(diff))
            else:
                wd = w[diff]
                pi_acc[i] += wd.sum(dtype=np.longdouble)
                # rerandomized bit lands on the complement w.p. 1-p from
                # a one, p from a zero
                q = np.where(bits[diff, i] == 1, 1 - p, p)
                infl_acc[i] += (wd * q).sum(dtype=np.longdouble)
    if exact_half:
        denom = float(1 << m)
        pivot = [c / denom for c in pi_cnt]
        infl = [c * 0.5 / denom for c in pi_cnt]
    else:
        pivot = [float(a) for a in pi_acc]
        infl = [float(a) for a in infl_acc]
    per_bit = [(i, infl[i], pivot[i]) for i in range(m)]
    return InfluenceReport(
        p=p,
        per_bit=per_bit,
        total_influence=math.fsum(infl),
        total_pivotality=math.fsum(pivot),
        sum_squared_influence=math.fsum(x * x for x in infl),
    )


def exact_total_influence(instance, p):
    """Sum of per-bit influences; equals the exact mean switch count on [0,1]."""
    return exact_influence_report(instance, p).total_influence


@dataclass
class NoiseCovariance:
    p: float
    epsilon: float
    joint: float  # E[f(X) f(Y)] with Y the eps-rerandomized copy of X
    covariance: float


def exact_noise_covariance(instance, p, epsilon):
    """Exact joint expectation under per-bit rerandomization noise.

    Each bit of Y independently copies the bit of X with probability
    1-epsilon and is redrawn Bernoulli(p) otherwise.  Cost is m passes of
    a 2x2 kernel contraction over the 2^m truth table, not 4^m.
    """
    _require(instance, PAIR_ARITY_CAP)
    m = instance.arity
    mu = np.array([1 - p, p])
    kern = np.empty((2, 2))
    for a in (0, 1):
        for b in (0, 1):
            kern[a, b] = mu[a] * ((1 - epsilon) * (a == b) + epsilon * mu[b])
    f = _truth_values(instance).astype(np.float64).reshape((2,) * m)
    g = f
    for _ in range(m):
        # contracts the leading x-axis with the kernel and appends the
        # matching y-axis last, so m passes restore the axis order
        g = np.tensordot(g, kern, axes=([0], [0]))
    joint = float((g * f).sum())
    q = exact_prob_one(instance, p)
    return NoiseCovariance(p=p, epsilon=epsilon, joint=joint, covariance=joint - q * q)


def exact_andor_pivotal(n, k):
    """P(f = 1, the leftmost level-k gate is OR, and making it AND kills f).

    Exact rational by raw enumeration over all 2^(2^(n+1)-1) gate
    configurations of the depth-n tree; capped at n <= 3.
    """
    if n < 0 or not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n, got n=%d k=%d" % (n, k))
    if n > 3:
        raise DepthTooLarge("raw enumeration is capped at depth 3, got %d" % n)
    instance = make_instance(FunctionSpec.andor(n))
    N = instance.arity
    bit = instance.bit_of_node[2**k - 1]
    mask = 1 << (N - 1 - bit)
    table = _truth_values(instance)
    idx = np.arange(1 << N, dtype=np.int64)
    is_or = (idx >> (N - 1 - bit)) & 1 == 1
    count = int(np.count_nonzero(is_or & (table == 1) & (table[idx ^ mask] == 0)))
    return Fraction(count, 1 << N)


def exact_andor_switch_prob(n):
    """Per-update probability that a uniformly chosen gate rerandomization
    switches the depth-n tree's output from 1 to 0.

    Sums 2^k copies of the level-k pivotal probability and halves (the
    redrawn gate lands on the complement with probability 1/2).
    """
    N = 2 ** (n + 1) - 1
    total = sum(2**k * exact_andor_pivotal(n, k) for k in range(n + 1))
    return Fraction(1, 2) * total / N


def import_truth_table(bits):
    """Builds a lookup-table instance from 2^m output bits.

    Index convention is most-significant-bit-first: the output for
    configuration (b_0, ..., b_{m-1}) sits at sum_i b_i 2^(m-1-i).
    """
    size = len(bits)
    if size < 2 or size & (size - 1):
        raise NotPowerOfTwo("table length must be a power of two >= 2, got %d" % size)
    m = size.bit_length() - 1
    if m > ENUM_ARITY_CAP:
        raise ArityTooLarge("table arity %d exceeds the cap %d" % (m, ENUM_ARITY_CAP))
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or (arr.size and arr.max() > 1):
        raise ValueError("table entries must be 0 or 1")
    return make_instance(FunctionSpec.truth_table(arr.tolist()))
