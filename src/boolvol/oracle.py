"""Exact brute-force reference quantities for small-arity instances.

Each call enumerates all 2^m configurations once into a truth table and
packs it into uint64 words, entry k at bit k % 64 of word k // 64.  Bit i
pairs the configurations 2^(m-1-i) entries apart: at a stride of 64 or more
the two halves of each run of words are XORed, below it each word is XORed
with itself shifted by the stride and masked to the bit-i = 0 members, and
popcounts count the differing pairs.  Weighted sums are exact counts per
number of ones (exact dyadic rationals at p = 1/2), ground truth for the
Monte Carlo estimators.  Caps: 24 bits for single configurations, 20 for
pairs.  On a 2-vCPU x86 VM, influence at m = 23 and p = 1/2 takes about
30 ms and noise covariance at m = 20 about 55 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArityTooLarge, DepthTooLarge, NotPowerOfTwo
from .functions import FunctionSpec, _bits, make_instance

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


def _word_mask(keep):
    return np.uint64(sum(1 << j for j in range(64) if keep(j)))


# positions j of a word with r ones, r = 0..6, and for each stride s < 64 the
# positions with bit s clear: the bit-i = 0 members of in-word pairs
_ONES_MASKS = [_word_mask(lambda j, r=r: j.bit_count() == r) for r in range(7)]
_LOWER_MASKS = {1 << k: _word_mask(lambda j, s=1 << k: not j & s) for k in range(6)}


def _packed(table, p):
    """The 0/1 table as uint64 words, entry k at bit k % 64 of word k // 64
    (one zero-padded word below 64 entries), and the number of ones of every
    word's index; None at p = 1/2, where _class_counts needs no classes."""
    words = np.zeros(max(table.size >> 6, 1), dtype="<u8")
    words.view(np.uint8)[:(table.size + 7) >> 3] = np.packbits(table, bitorder="little")
    wpop = None if p == 0.5 else np.bitwise_count(np.arange(words.size, dtype=np.uint64))
    return words, wpop


def _class_counts(words, wpop):
    """Exact count of the set bits of `words` per number of ones of their
    configuration index: those of the word's index `wpop` plus those of the
    bit's position; at p = 1/2 one class holds them all and `wpop` is None."""
    if wpop is None:
        return [int(np.bitwise_count(words).sum())]
    counts = [0] * (ENUM_ARITY_CAP + 1)
    for r, mask in enumerate(_ONES_MASKS):
        per_class = np.bincount(wpop, weights=np.bitwise_count(words & mask))
        for k, c in enumerate(per_class.tolist()):
            counts[k + r] += int(c)
    return counts


def _differing_pairs(words, wpop, m, i):
    """(words, wpop) marking the bit-i = 0 configurations whose bit-i
    partner, 2^(m-1-i) entries on, has the other output."""
    s = 1 << (m - 1 - i)
    if s < 64:
        return (words ^ (words >> s)) & _LOWER_MASKS[s], wpop
    halves = words.reshape(-1, 2, s >> 6)
    lower = None if wpop is None else wpop.reshape(-1, 2, s >> 6)[:, 0].ravel()
    return (halves[:, 0] ^ halves[:, 1]).ravel(), lower


def _weight_table(m, p):
    # weight of a configuration depends only on its number of ones
    return [p**j * (1 - p) ** (m - j) for j in range(m + 1)]


def _prob_one(table, p):
    m = table.size.bit_length() - 1
    counts = _class_counts(*_packed(table, p))
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
    words, wpop = _packed(_truth_values(instance), p)
    w = _weight_table(m, p)
    infl, pivot = [], []
    for i in range(m):
        # differing pairs by the ones of their bit-i = 0 member (its partner
        # has one more); a redrawn bit flips w.p. p from 0, 1-p from 1
        pairs = list(zip(_class_counts(*_differing_pairs(words, wpop, m, i)), w, w[1:]))
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


def _noise_passes(g, kern):
    # one pass per bit of the row index of the contiguous 2-D array g
    for i in range(g.shape[0].bit_length() - 1):
        # g[.., b, ..] <- sum_a g[.., a, ..] kern[a][b] on the axis of that bit
        g0, g1 = g.reshape(1 << i, 2, -1).transpose(1, 0, 2)
        to_one = g0 * kern[0][1]
        g0 *= kern[0][0]
        g0 += g1 * kern[1][0]
        g1 *= kern[1][1]
        g1 += to_one


def exact_noise_covariance(instance, p, epsilon):
    """Exact joint expectation under per-bit rerandomization noise.

    Each bit of Y independently copies the bit of X with probability
    1-epsilon and is redrawn Bernoulli(p) otherwise.  Cost is m passes of
    a 2x2 kernel, applied in place to one axis-pair view of the 2^m truth
    table at a time, not 4^m.  The table is read as 2^ceil(m/2) rows: the
    first ceil(m/2) bits pass over whole rows, the rest over transposed
    copies of blocks of rows, each copied back before the next block, so
    no pass walks runs of a few values.  Every value sees the same
    operations in the same bit order as in one flat pass per bit.
    """
    _require(instance, PAIR_ARITY_CAP, p=p, epsilon=epsilon)
    mu = (1 - p, p)
    kern = [[mu[a] * ((1 - epsilon) * (a == b) + epsilon * mu[b]) for b in (0, 1)]
            for a in (0, 1)]
    table = _truth_values(instance)
    m = instance.arity
    half = (m + 1) // 2
    g = table.astype(np.float64).reshape(1 << half, -1)
    # bits 0..half-1 pair rows of g, at strides of 2^(m-half) or more
    _noise_passes(g, kern)
    # bits half..m-1 pair entries within a row, at strides below 2^(m-half);
    # in the transpose of a block of rows they pair its rows
    rows = max(_CHUNK >> (m - half), 1)
    for r in range(0, 1 << half, rows):
        block = g[r:r + rows].T.copy()
        _noise_passes(block, kern)
        g[r:r + rows] = block.T
    g = g.ravel()
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
    instance = make_instance(FunctionSpec("andor", n))
    v = _truth_values(instance).reshape(1 << (2**k - 1), 2, -1)  # bit 2^k - 1
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
    return make_instance(FunctionSpec.truth_table(_bits(bits, "table entries").tolist()))
