"""Exact brute-force reference quantities for small-arity instances.

Each call enumerates all 2^m configurations once into a truth table and
reads it through axis-pair views: reshaped to (2^i, 2, 2^(m-1-i)), it
pairs the configurations that differ in bit i.  Weighted sums are exact
counts per number of ones (exact dyadic rationals at p = 1/2), ground
truth for the Monte Carlo estimators.  Caps: 24 bits for single
configurations, 20 for pairs.  On a 2-core x86 VM, influence at m = 23
takes about 0.3 s and noise covariance at m = 20 about 0.2 s.
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


def _require(instance, cap, **probabilities):
    for name, value in probabilities.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError("%s must lie in [0, 1], got %r" % (name, value))
    if instance.arity > cap:
        raise ArityTooLarge(
            "arity %d exceeds the exact-enumeration cap %d" % (instance.arity, cap)
        )


def _chunks(m):
    """(idx, bits) for consecutive blocks of configurations, bit 0 most
    significant.  bits is one F-ordered uint8 buffer reused for every
    block: its low columns are built once, its high ones are constant."""
    n = min(1 << m, _CHUNK)
    hi = m - (n.bit_length() - 1)
    bits = np.empty((n, m), dtype=np.uint8, order="F")
    for j in range(hi, m):
        bits[:, j].reshape(-1, 2, 1 << (m - 1 - j))[:] = [[0], [1]]
    for start in range(0, 1 << m, n):
        bits[:, :hi] = [(start >> (m - 1 - j)) & 1 for j in range(hi)]
        yield np.arange(start, start + n, dtype=np.int64), bits


def _truth_values(instance):
    m = instance.arity
    out = np.empty(1 << m, dtype=np.uint8)
    for idx, bits in _chunks(m):
        out[idx[0]:idx[-1] + 1] = instance.evaluate_rows(bits)
    return out


def _popcount(m):
    """Number of ones of every configuration index, by doubling."""
    out = np.zeros(1 << m, dtype=np.uint8)
    for k in range(m):
        np.add(out[:1 << k], 1, out=out[1 << k:2 << k])
    return out


def _class_counts(sel, pop, p):
    """Exact count of the True entries of the bool array `sel` per number
    of ones `pop` of their configuration; at p = 1/2 every configuration
    weighs the same, so one class holds them all.  np.bincount copies its
    input as intp, so it sees at most _CHUNK entries at a time."""
    if p == 0.5:
        return [int(np.count_nonzero(sel))]
    sel, pop = sel.ravel(), pop.ravel()
    return sum(np.bincount(pop[s:s + _CHUNK][sel[s:s + _CHUNK]], minlength=ENUM_ARITY_CAP + 1)
               for s in range(0, sel.size, _CHUNK)).tolist()


def _weight_table(m, p):
    # weight of a configuration depends only on its number of ones
    return [p**j * (1 - p) ** (m - j) for j in range(m + 1)]


def _prob_one(table, p):
    m = table.size.bit_length() - 1
    counts = _class_counts(table.view(bool), _popcount(m), p)
    return math.fsum(c * w for c, w in zip(counts, _weight_table(m, p)))


def exact_prob_one(instance, p):
    """P(f = 1) under the product Bernoulli(p) measure, by enumeration.

    At p = 1/2 the result is an exact dyadic rational (ones count over
    2^m); otherwise exact ones counts per popcount class are weighted.
    """
    _require(instance, ENUM_ARITY_CAP, p=p)
    return _prob_one(_truth_values(instance), p)


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
    _require(instance, ENUM_ARITY_CAP, p=p)
    m = instance.arity
    table, pop, w = _truth_values(instance), _popcount(m), _weight_table(m, p)
    infl, pivot = [], []
    for i in range(m):
        v, ones = table.reshape(1 << i, 2, -1), pop.reshape(1 << i, 2, -1)
        # differing pairs by the ones of their bit-i = 0 member (its partner
        # has one more); a redrawn bit flips w.p. p from 0, 1-p from 1
        pairs = list(zip(_class_counts(v[:, 0] != v[:, 1], ones[:, 0], p), w, w[1:]))
        pivot.append(math.fsum(c * (a + b) for c, a, b in pairs))
        infl.append(math.fsum(c * (a * p + b * (1 - p)) for c, a, b in pairs))
    return InfluenceReport(
        p=p,
        per_bit=list(zip(range(m), infl, pivot)),
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
    a 2x2 kernel, applied in place to one axis-pair view of the 2^m truth
    table at a time, not 4^m.
    """
    _require(instance, PAIR_ARITY_CAP, p=p, epsilon=epsilon)
    mu = (1 - p, p)
    kern = [[mu[a] * ((1 - epsilon) * (a == b) + epsilon * mu[b]) for b in (0, 1)]
            for a in (0, 1)]
    table = _truth_values(instance)
    g = table.astype(np.float64)
    for i in range(instance.arity):
        # g[.., b, ..] <- sum_a g[.., a, ..] kern[a][b] on the axis of bit i
        g0, g1 = g.reshape(1 << i, 2, -1).transpose(1, 0, 2)
        to_one = g0 * kern[0][1]
        g0 *= kern[0][0]
        g0 += g1 * kern[1][0]
        g1 *= kern[1][1]
        g1 += to_one
    joint = float(np.multiply(g, table, out=g).sum())
    q = _prob_one(table, p)
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
    v = _truth_values(instance).reshape(1 << instance.bit_of_node[2**k - 1], 2, -1)
    # f = 1 with the gate OR (its bit 1), f = 0 at the AND partner
    return Fraction(int(np.count_nonzero(v[:, 1] > v[:, 0])), 1 << instance.arity)


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
    arr = np.asarray(bits)
    if arr.ndim != 1 or arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() > 1:
        raise ValueError("table entries must be 0 or 1")
    return make_instance(FunctionSpec.truth_table(arr.tolist()))
