"""Exact brute-force reference quantities for small-arity instances.

Each call builds the truth table of all 2^m configurations once, packed into
uint64 words, entry k at bit k % 64 of word k // 64 (`_words`), by one of
three routes.  A counter family's output depends only on its slice sums, and
each sum is the popcount of the slice's index mask on the word index plus
that on the low 6 bits, so every word is gathered from a lookup over the few
distinct high sums, each evaluated once at all 64 low patterns; no bit rows
are built.  An imported table packs its own entries.  A tree evaluates
blocks of 2^16 bit rows (`_chunks`) and packs the outputs.  Bit i
pairs the configurations 2^(m-1-i) entries apart: at a stride of 64 or more
the two halves of each run of words are XORed, below it each word is XORed
with itself shifted by the stride and masked to the bit-i = 0 members, and
popcounts count the differing pairs.  Weighted sums are exact counts per
number of ones (exact dyadic rationals at p = 1/2), ground truth for the
Monte Carlo estimators.  Caps: 24 bits for single configurations, 20 for
pairs.  On a 2-vCPU x86 VM, influence at m = 23 takes about 5 ms at p = 1/2
and 65 ms at p = 0.3, where every count is split by number of ones; noise
covariance at m = 20 takes about 45 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArityTooLarge, DepthTooLarge, _check_int, _check_real
from .functions import (CounterInstance, FunctionSpec, TableInstance, _check_instance,
                        make_instance)

ENUM_ARITY_CAP = 24
PAIR_ARITY_CAP = 20
_CHUNK = 1 << 16


def _require(instance, cap, **probabilities):
    """The probabilities checked into [0, 1], of an instance within `cap`."""
    _check_instance(instance)
    checked = [_check_real(name, v, 0, 1) for name, v in probabilities.items()]
    if instance.arity > cap:
        raise ArityTooLarge(
            "arity %d exceeds the exact-enumeration cap %d" % (instance.arity, cap)
        )
    return checked


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


def _pack(table):
    """A 0/1 uint8 table as uint64 words, entry k at bit k % 64 of word k // 64
    (one zero-padded word below 64 entries)."""
    words = np.zeros(max(table.size >> 6, 1), dtype="<u8")
    words.view(np.uint8)[:(table.size + 7) >> 3] = np.packbits(table, bitorder="little")
    return words


def _counter_words(instance):
    # entry j of word w has index 64 w + j, so a slice's sum is the popcount
    # of its index mask above the low 6 bits on w plus that of the low 6 bits
    # on j: the high sums of a word form a mixed-radix key, and the word of
    # each key is evaluated once, at all 64 j
    m = instance.arity
    masks = [((1 << (hi - lo)) - 1) << (m - hi) for lo, hi in instance.slices]
    radix = [(mask >> 6).bit_count() + 1 for mask in masks]
    w = np.arange(max((1 << m) >> 6, 1), dtype=np.uint64)
    key = 0
    for mask, r in zip(masks, radix):
        key = key * r + np.bitwise_count(w & np.uint64(mask >> 6)).astype(np.intp)
    high = np.indices(radix).reshape(len(masks), -1, 1)
    low = np.bitwise_count(np.arange(64) & np.array(masks)[:, None] & 63)[:, None, :]
    sums = (high + low).reshape(len(masks), -1)  # each slice's sums by key, then j
    out = instance.counter_output(sums.T).reshape(-1, 64)
    out[:, 1 << m:] = 0  # the padding of a table of under 64 entries
    return np.packbits(out, axis=1, bitorder="little").view("<u8")[:, 0][key]


def _words(instance):
    """The truth table packed by `_pack`: a counter family's words from its
    slice sums, a table's from its entries, a tree's from `evaluate_rows`
    over `_chunks`."""
    if isinstance(instance, CounterInstance):
        return _counter_words(instance)
    if isinstance(instance, TableInstance):
        return _pack(instance._table_arr)
    m = instance.arity
    out = np.empty(1 << m, dtype=np.uint8)
    for idx, bits in _chunks(m):
        out[idx[0]:idx[-1] + 1] = instance.evaluate_rows(bits)
    return _pack(out)


def _unpack(words, m):
    return np.unpackbits(words.view(np.uint8), count=1 << m, bitorder="little")


def _truth_values(instance):
    """The truth table, one uint8 per configuration: the bits of `_words`."""
    return _unpack(_words(instance), instance.arity)


def _word_mask(keep):
    return np.uint64(sum(1 << j for j in range(64) if keep(j)))


# positions j of a word with r ones, r = 0..6, and for each stride s < 64 the
# positions with bit s clear: the bit-i = 0 members of in-word pairs
_ONES_MASKS = [_word_mask(lambda j, r=r: j.bit_count() == r) for r in range(7)]
_LOWER_MASKS = {1 << k: _word_mask(lambda j, s=1 << k: not j & s) for k in range(6)}


def _word_pop(words, p):
    """The number of ones of every word's index; None at p = 1/2, where
    _class_counts needs no classes."""
    return None if p == 0.5 else np.bitwise_count(np.arange(words.size, dtype=np.uint64))


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


def _prob_one(words, m, p):
    counts = _class_counts(words, _word_pop(words, p))
    return math.fsum(c * w for c, w in zip(counts, _weight_table(m, p)))


def exact_prob_one(instance, p):
    """P(f = 1) under the product Bernoulli(p) measure, by enumeration.

    At p = 1/2 the result is an exact dyadic rational (ones count over
    2^m); otherwise exact ones counts per popcount class are weighted.
    """
    p, = _require(instance, ENUM_ARITY_CAP, p=p)
    return _prob_one(_words(instance), instance.arity, p)


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
    p, = _require(instance, ENUM_ARITY_CAP, p=p)
    m = instance.arity
    words = _words(instance)
    wpop = _word_pop(words, p)
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
    p, epsilon = _require(instance, PAIR_ARITY_CAP, p=p, epsilon=epsilon)
    mu = (1 - p, p)
    kern = [[mu[a] * ((1 - epsilon) * (a == b) + epsilon * mu[b]) for b in (0, 1)]
            for a in (0, 1)]
    m = instance.arity
    words = _words(instance)
    table = _unpack(words, m)
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
    q = _prob_one(words, m, p)
    return NoiseCovariance(p=p, epsilon=epsilon, joint=joint, covariance=joint - q * q)


def exact_andor_pivotal(n, k):
    """P(f = 1, the leftmost level-k gate is OR, and making it AND kills f).

    Exact rational by raw enumeration over all 2^(2^(n+1)-1) gate
    configurations of the depth-n tree; capped at n <= 3.
    """
    n, k = _check_int("n", n, 0), _check_int("k", k, 0)
    if k > n:
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
    n = _check_int("n", n, 0)
    # the pivotal probabilities refuse a depth past the cap before 2^(n+1) is formed
    total = sum(2**k * exact_andor_pivotal(n, k) for k in range(n + 1))
    return Fraction(1, 2) * total / (2 ** (n + 1) - 1)

