"""Exact enumeration oracle: frozen values and dual-route differentials."""

import functools
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from boolvol import functions as bf
from boolvol import oracle
from boolvol.errors import ArityTooLarge, DepthTooLarge, InvalidSpec


def inst(text):
    return bf.make_instance(bf.parse_spec(text))


def from_table(bits):
    return bf.make_instance(bf.FunctionSpec.truth_table(bits))


def all_configs(m):
    idx = np.arange(1 << m, dtype=np.int64)
    shifts = np.array([m - 1 - i for i in range(m)], dtype=np.int64)
    return ((idx[:, None] >> shifts) & 1).astype(np.uint8)


# -- output probability -----------------------------------------------------

def test_prob_one_majority3_half():
    assert oracle.exact_prob_one(inst("maj:3"), 0.5) == 0.5


def test_prob_one_andor_depth2_half():
    assert oracle.exact_prob_one(inst("andor:2"), 0.5) == 0.5


def test_prob_one_itermaj3_depth2_matches_recursion():
    # a_{k+1} = 3a_k^2 - 2a_k^3 from a_0 = 0.4 gives a_2 = 0.284483584
    got = oracle.exact_prob_one(inst("itermaj3:2"), 0.4)
    assert abs(got - 0.284483584) < 1e-12


def test_prob_one_dictator():
    assert abs(oracle.exact_prob_one(inst("dictator:3"), 0.3) - 0.3) < 1e-15


def test_prob_one_perc_two_levels():
    # per subtree: open root edge (1/2) times >=1 open child edge (3/4)
    assert oracle.exact_prob_one(inst("perc:2,2:2"), 0.5) == 1 - (1 - 3 / 8) ** 2


def test_prob_one_weight_normalization():
    table = from_table([1] * 1024)
    assert abs(oracle.exact_prob_one(table, 0.37) - 1.0) < 1e-12


def test_prob_one_arity_cap():
    with pytest.raises(ArityTooLarge):
        oracle.exact_prob_one(inst("maj:25"), 0.5)


# -- influence and pivotality ------------------------------------------------

def test_influence_dictator_single_bit():
    rep = oracle.exact_influence_report(inst("dictator:1"), 0.5)
    assert rep.per_bit == [(0, 0.5, 1.0)]
    assert rep.total_influence == 0.5
    assert rep.total_pivotality == 1.0


def test_influence_itermaj3_depth2_leaves():
    rep = oracle.exact_influence_report(inst("itermaj3:2"), 0.5)
    for i, infl, piv in rep.per_bit:
        assert piv == 0.25
        assert infl == 0.125
        assert infl <= 2.0**-2


def test_influence_bigtame2_totals():
    rep = oracle.exact_influence_report(inst("bigtame:2"), 0.5)
    assert rep.total_pivotality == 3.5
    assert rep.total_influence == 1.75
    per = dict((i, (infl, piv)) for i, infl, piv in rep.per_bit)
    assert per[0][1] == 0.75
    assert per[1][1] == 0.25 and per[2][1] == 0.25
    for i in range(3, 12):
        assert per[i][1] == 0.25
    assert rep.total_pivotality >= (3 / 2) ** 2


def test_influence_parity8():
    rep = oracle.exact_influence_report(inst("parity:8"), 0.5)
    for i, infl, piv in rep.per_bit:
        assert piv == 1.0
        assert infl == 0.5
    assert rep.total_influence == 4.0
    assert rep.sum_squared_influence == 2.0


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("text", ["maj:3", "dap:4", "type2:4", "andor:2", "perc:2,2:2"])
def test_influence_identity_on_grid(text, p):
    # influence (independent rerandomization route) vs pivotality (flip route)
    rep = oracle.exact_influence_report(inst(text), p)
    assert rep.p == p
    for i, infl, piv in rep.per_bit:
        assert 0.0 <= infl <= 1.0 and 0.0 <= piv <= 1.0
        assert abs(infl - 2 * p * (1 - p) * piv) < 1e-12
    assert rep.total_influence >= 0.0 and rep.total_pivotality >= 0.0
    assert abs(rep.sum_squared_influence - sum(r[1] ** 2 for r in rep.per_bit)) < 1e-15


def test_total_influence_matches_report():
    f = inst("maj:3")
    assert oracle.exact_total_influence(f, 0.5) == 0.75
    rep = oracle.exact_influence_report(f, 0.5)
    assert oracle.exact_total_influence(f, 0.5) == rep.total_influence


def test_total_influence_parity8():
    assert oracle.exact_total_influence(inst("parity:8"), 0.5) == 4.0


# -- noise covariance ---------------------------------------------------------

def test_noise_eps_zero_is_variance():
    f = inst("maj:3")
    q = oracle.exact_prob_one(f, 0.3)
    res = oracle.exact_noise_covariance(f, 0.3, 0.0)
    assert abs(res.joint - q) < 1e-12
    assert abs(res.covariance - q * (1 - q)) < 1e-12


def test_noise_eps_one_is_independent():
    res = oracle.exact_noise_covariance(inst("maj:3"), 0.3, 1.0)
    assert abs(res.covariance) < 1e-12


def test_noise_parity4_closed_form():
    # per-bit value change w.p. eps/2; disagree prob (1-(1-eps)^4)/2
    res = oracle.exact_noise_covariance(inst("parity:4"), 0.5, 0.5)
    assert abs(res.joint - 0.265625) < 1e-12
    assert abs(res.covariance - 0.015625) < 1e-12


@pytest.mark.parametrize("text", ["dap:4", "maj:3"])
def test_noise_matches_naive_pair_enumeration(text):
    f = inst(text)
    p, eps = 0.3, 0.37
    m = f.arity
    cfgs = all_configs(m)
    F = bf.evaluate_batch(f, cfgs).astype(np.float64)
    mu = np.array([1 - p, p])
    kern = np.empty((2, 2))
    for a in (0, 1):
        for b in (0, 1):
            kern[a, b] = mu[a] * ((1 - eps) * (a == b) + eps * mu[b])
    joint = 0.0
    for x in range(1 << m):
        if not F[x]:
            continue
        wx = np.ones(1 << m)
        for i in range(m):
            wx *= kern[cfgs[x, i], cfgs[:, i]]
        joint += float(wx @ F)
    res = oracle.exact_noise_covariance(f, p, eps)
    assert abs(res.joint - joint) < 1e-12


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_probabilities_outside_unit_interval_rejected(bad):
    f = inst("maj:3")
    for call in (lambda: oracle.exact_prob_one(f, bad),
                 lambda: oracle.exact_influence_report(f, bad),
                 lambda: oracle.exact_total_influence(f, bad),
                 lambda: oracle.exact_noise_covariance(f, bad, 0.2)):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            call()
    with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
        oracle.exact_noise_covariance(f, 0.5, bad)


def test_noise_arity_cap():
    with pytest.raises(ArityTooLarge):
        oracle.exact_noise_covariance(inst("maj:21"), 0.5, 0.1)


# -- gate-tree pivotal probabilities ------------------------------------------

def test_pivotal_frozen_values():
    a = oracle.exact_andor_pivotal
    assert a(0, 0) == Fraction(1, 2)
    for n in (1, 2, 3):
        assert a(n, 0) == Fraction(1, 4)
    assert a(2, 1) == Fraction(1, 8)
    assert a(3, 1) == Fraction(1, 8)
    assert a(3, 2) == Fraction(1, 16)
    assert a(1, 1) == Fraction(1, 4)
    assert a(2, 2) == Fraction(1, 8)
    assert a(3, 3) == Fraction(1, 16)


def test_pivotal_recursion_shift():
    # a^n_{k+1} = a^{n-1}_k / 2
    for n in (1, 2, 3):
        for k in range(n):
            assert oracle.exact_andor_pivotal(n, k + 1) == oracle.exact_andor_pivotal(n - 1, k) / 2


def test_pivotal_depth_cap():
    with pytest.raises(DepthTooLarge):
        oracle.exact_andor_pivotal(4, 0)
    with pytest.raises(ValueError):
        oracle.exact_andor_pivotal(2, 3)


# each argument that is not an integer, or not a real probability, raises
# ValueError before any work; F stands for a maj:3 instance
F = object()
BAD_ARGUMENTS = [
    ("exact_andor_switch_prob", (-1,)), ("exact_andor_switch_prob", (2.5,)),
    ("exact_andor_switch_prob", ("3",)), ("exact_andor_switch_prob", (True,)),
    ("exact_andor_pivotal", ("2", 0)), ("exact_andor_pivotal", (None, 0)),
    ("exact_andor_pivotal", (2, 1.0)), ("exact_andor_pivotal", (-1, 0)),
    ("exact_andor_pivotal", (2, -1)),
    ("exact_prob_one", (F, "0.5")), ("exact_prob_one", (F, None)),
    ("exact_prob_one", (F, 0.3j)), ("exact_prob_one", (F, True)),
    ("exact_influence_report", (F, "0.5")), ("exact_total_influence", (F, None)),
    ("exact_noise_covariance", (F, 0.5, "x")), ("exact_noise_covariance", (F, [0.5], 0.1)),
]


@pytest.mark.parametrize("name,args", BAD_ARGUMENTS, ids=[
    "%s(%s)" % (n, ", ".join("f" if a is F else repr(a) for a in args))
    for n, args in BAD_ARGUMENTS])
def test_bad_arguments_raise_value_error(name, args):
    args = [inst("maj:3") if a is F else a for a in args]
    with pytest.raises(ValueError, match="must be"):
        getattr(oracle, name)(*args)


def test_andor_switch_prob_depth_cap():
    with pytest.raises(DepthTooLarge):
        oracle.exact_andor_switch_prob(4)


def test_andor_switch_down_probability():
    # summing 2^k a^n_k over levels and halving gives (n+2)/(8 N_n)
    for n in range(4):
        N = 2 ** (n + 1) - 1
        assert oracle.exact_andor_switch_prob(n) == Fraction(n + 2, 8 * N)


# -- truth-table import -------------------------------------------------------

def test_table_dictator_equivalence():
    t = from_table([0, 1])
    d = inst("dictator:1")
    assert abs(oracle.exact_prob_one(t, 0.3) - 0.3) < 1e-15
    rt = oracle.exact_influence_report(t, 0.5)
    rd = oracle.exact_influence_report(d, 0.5)
    assert rt.per_bit == rd.per_bit


def test_table_majority3_differential():
    f = inst("maj:3")
    table = bf.evaluate_batch(f, all_configs(3))
    t = from_table(table)
    for p in (0.5, 0.3):
        rf = oracle.exact_influence_report(f, p)
        rt = oracle.exact_influence_report(t, p)
        for (i, ia, pa), (j, ib, pb) in zip(rf.per_bit, rt.per_bit):
            assert i == j and abs(ia - ib) < 1e-15 and abs(pa - pb) < 1e-15


def test_table_all_ones_is_constant():
    t = from_table([1] * 8)
    assert oracle.exact_total_influence(t, 0.5) == 0.0
    assert oracle.exact_prob_one(t, 0.5) == 1.0


def test_table_rejects_bad_length():
    for bits in ([0, 1, 1], [1]):
        with pytest.raises(InvalidSpec, match="2\\^m >= 2 entries"):
            from_table(bits)


@pytest.mark.parametrize("bits", [[0, 1.5], [0, -1], [0, 2], ["0", "1"]],
                         ids=["fraction", "negative", "two", "string"])
def test_table_rejects_non_bit_entries(bits):
    with pytest.raises(InvalidSpec, match="table entries must be 0 or 1"):
        from_table(bits)


def test_table_accepts_bool_and_integer_entries():
    for bits in ([False, True], np.array([0, 1], dtype=np.int64), [np.uint8(0), 1]):
        assert from_table(bits).evaluate_rows(all_configs(1)).tolist() == [0, 1]


def test_table_rejects_oversize(monkeypatch):
    # every oracle checks its own arity cap on any instance, a table too;
    # lowered caps stand in for a 2^25-entry table
    monkeypatch.setattr(oracle, "ENUM_ARITY_CAP", 3)
    monkeypatch.setattr(oracle, "PAIR_ARITY_CAP", 3)
    t = from_table([0, 1] * 8)
    for call in (lambda: oracle.exact_prob_one(t, 0.5),
                 lambda: oracle.exact_influence_report(t, 0.5),
                 lambda: oracle.exact_noise_covariance(t, 0.5, 0.1)):
        with pytest.raises(ArityTooLarge):
            call()


# -- differential: an independent itertools.product enumerator ---------------

REFERENCE_FAMILIES = ["dictator:3", "parity:8", "dap:7", "type2:8", "maj:9", "bigtame:1",
                      "itermaj3:2", "andor:2", "perc:2,2:2", "perc:3,2:2", "table"]


def ref_instance(text):
    if text == "table":
        bits = np.random.default_rng(11).integers(0, 2, 64)
        return bf.make_instance(bf.FunctionSpec.truth_table(bits.tolist()))
    return inst(text)


@functools.lru_cache(maxsize=None)
def reference_counts(text):
    """Integer counts from which every oracle quantity follows exactly.

    Configurations come from itertools.product (bit 0 first) and outputs
    from each family's incremental-state constructor, one at a time, so
    neither the chunked enumeration nor the vectorized evaluators is used.
    """
    f = ref_instance(text)
    m = f.arity
    out = {}
    for x in itertools.product((0, 1), repeat=m):
        out[x] = f.build_state(list(x)).output
    ones = Counter(sum(x) for x, v in out.items() if v)
    flips = Counter()  # (bit, ones of x, x_i) where flipping bit i changes f
    for x, v in out.items():
        for i in range(m):
            y = x[:i] + (1 - x[i],) + x[i + 1:]
            if out[y] != v:
                flips[i, sum(x), x[i]] += 1
    pairs = Counter()  # (n01, n10, n11) over pairs of configurations with f = 1
    support = [x for x, v in out.items() if v]
    for x in support:
        for y in support:
            n01 = sum(1 for a, b in zip(x, y) if (a, b) == (0, 1))
            n10 = sum(1 for a, b in zip(x, y) if (a, b) == (1, 0))
            n11 = sum(1 for a, b in zip(x, y) if (a, b) == (1, 1))
            pairs[n01, n10, n11] += 1
    return m, ones, flips, pairs


def reference_values(text, p, eps):
    m, ones, flips, pairs = reference_counts(text)
    p, eps = Fraction(p), Fraction(eps)

    def w(j):
        return p**j * (1 - p) ** (m - j)

    q = sum(c * w(j) for j, c in ones.items())
    piv, infl = [Fraction(0)] * m, [Fraction(0)] * m
    for (i, j, xi), c in flips.items():
        piv[i] += c * w(j)
        infl[i] += c * w(j) * (1 - p if xi else p)
    mu = (1 - p, p)
    k = [[mu[a] * ((1 - eps) * (a == b) + eps * mu[b]) for b in (0, 1)] for a in (0, 1)]
    joint = sum(c * k[0][0] ** (m - n01 - n10 - n11) * k[0][1] ** n01 * k[1][0] ** n10
                * k[1][1] ** n11 for (n01, n10, n11), c in pairs.items())
    return q, infl, piv, joint


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("text", REFERENCE_FAMILIES)
def test_oracles_match_independent_enumerator(text, p):
    f = ref_instance(text)
    assert f.arity <= 10
    q, infl, piv, _ = reference_values(text, p, 0.0)
    rep = oracle.exact_influence_report(f, p)
    got = [oracle.exact_prob_one(f, p)]
    got += [x for _, a, b in rep.per_bit for x in (a, b)]
    want = [q] + [x for a, b in zip(infl, piv) for x in (a, b)]
    assert [i for i, _, _ in rep.per_bit] == list(range(f.arity))
    if p == 0.5:
        # exact dyadic rationals
        assert got == [float(x) for x in want]
    for g, x in zip(got, want):
        assert abs(g - float(x)) <= 1e-12
    for eps in (0.0, 0.37, 1.0):
        _, _, _, joint = reference_values(text, p, eps)
        res = oracle.exact_noise_covariance(f, p, eps)
        assert abs(res.joint - float(joint)) <= 1e-12
        assert abs(res.covariance - float(joint - q * q)) <= 1e-12


@pytest.mark.parametrize("m", [15, 16, 17])
def test_chunks_bit_convention_across_blocks(m):
    # m = 16 fills one block exactly; m = 17 spans two, reusing the buffer
    start = 0
    for idx, bits in oracle._chunks(m):
        assert idx[0] == start and bits.shape == (idx.size, m)
        np.testing.assert_array_equal(bits, all_configs(m)[idx])
        start += idx.size
    assert start == 1 << m
    table = np.random.default_rng(m).integers(0, 2, 1 << m).astype(np.uint8)
    np.testing.assert_array_equal(oracle._truth_values(from_table(table.tolist())), table)


@pytest.mark.parametrize("entry,text,bytes_per_config", [
    ("influence", "parity:21", 8), ("prob_one", "dap:21", 8), ("noise", "maj:17", 40)])
def test_peak_memory_per_configuration(entry, text, bytes_per_config):
    # one uint8 truth table per call and its packed words, with one index
    # popcount and one bincount copy per word at p != 1/2: parity makes every
    # pair differ
    f = inst(text)
    runs = {"influence": lambda: oracle.exact_influence_report(f, 0.3),
            "prob_one": lambda: oracle.exact_prob_one(f, 0.3),
            "noise": lambda: oracle.exact_noise_covariance(f, 0.3, 0.4)}
    tracemalloc.start()
    try:
        runs[entry]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_config * 2**f.arity


# -- bit identity with the byte-level passes ----------------------------------
# The oracles read one byte per configuration before they packed the table
# into words; that code is kept here as the reference their outputs must
# equal bit for bit.

def byte_popcount(m, p):
    if p == 0.5:
        return None
    out = np.zeros(1 << m, dtype=np.uint8)
    for k in range(m):
        np.add(out[:1 << k], 1, out=out[1 << k:2 << k])
    return out


def byte_class_counts(sel, pop, p):
    if p == 0.5:
        return [int(np.count_nonzero(sel))]
    sel, pop = sel.ravel(), pop.ravel()
    return np.bincount(pop[sel], minlength=oracle.ENUM_ARITY_CAP + 1).tolist()


def byte_prob_one(table, p):
    m = table.size.bit_length() - 1
    counts = byte_class_counts(table.view(bool), byte_popcount(m, p), p)
    return math.fsum(c * w for c, w in zip(counts, oracle._weight_table(m, p)))


def byte_influence_report(table, p):
    m = table.size.bit_length() - 1
    pop, w = byte_popcount(m, p), oracle._weight_table(m, p)
    infl, pivot = [], []
    for i in range(m):
        v = table.reshape(1 << i, 2, -1)
        ones = None if pop is None else pop.reshape(1 << i, 2, -1)[:, 0]
        pairs = list(zip(byte_class_counts(v[:, 0] != v[:, 1], ones, p), w, w[1:]))
        pivot.append(math.fsum(c * (a + b) for c, a, b in pairs))
        infl.append(math.fsum(c * (a * p + b * (1 - p)) for c, a, b in pairs))
    return oracle.InfluenceReport(
        p=p, per_bit=list(zip(range(m), infl, pivot)), total_influence=math.fsum(infl),
        total_pivotality=math.fsum(pivot), sum_squared_influence=math.fsum(x * x for x in infl))


def byte_noise_covariance(table, p, epsilon):
    mu = (1 - p, p)
    kern = [[mu[a] * ((1 - epsilon) * (a == b) + epsilon * mu[b]) for b in (0, 1)]
            for a in (0, 1)]
    g = table.astype(np.float64)
    for i in range(table.size.bit_length() - 1):
        g0, g1 = g.reshape(1 << i, 2, -1).transpose(1, 0, 2)
        to_one = g0 * kern[0][1]
        g0 *= kern[0][0]
        g0 += g1 * kern[1][0]
        g1 *= kern[1][1]
        g1 += to_one
    joint = float(np.multiply(g, table, out=g).sum())
    q = byte_prob_one(table, p)
    return oracle.NoiseCovariance(p=p, epsilon=epsilon, joint=joint, covariance=joint - q * q)


IDENTITY_SPECS = (["table:%d" % m for m in list(range(1, 13)) + [17]]
                  + ["maj:1", "maj:5", "maj:11", "parity:1", "parity:6", "parity:12",
                     "dap:2", "dap:7", "dap:12", "type2:3", "type2:8", "type2:10",
                     "itermaj3:1", "itermaj3:2", "andor:0", "andor:1", "andor:2",
                     "perc:2,3:1", "perc:2,2:2", "perc:3,2:2"])


def identity_instance(text):
    family, _, m = text.partition(":")
    if family == "table":
        bits = np.random.default_rng(100 + int(m)).integers(0, 2, 1 << int(m))
        return bf.make_instance(bf.FunctionSpec.truth_table(bits.tolist()))
    return inst(text)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("text", IDENTITY_SPECS)
def test_packed_oracles_equal_byte_level_passes(text, p):
    # arities 1-12: one zero-padded word below 6 bits, every in-word stride
    # 1-32, and from 7 bits on the whole-word strides; at 17 bits the noise
    # passes transpose two blocks of rows
    f = identity_instance(text)
    table = oracle._truth_values(f)
    assert oracle.exact_prob_one(f, p) == byte_prob_one(table, p)
    assert oracle.exact_influence_report(f, p) == byte_influence_report(table, p)
    for eps in (0.0, 0.37, 1.0):
        assert oracle.exact_noise_covariance(f, p, eps) == byte_noise_covariance(table, p, eps)


# -- the three table routes ----------------------------------------------------

def packed_bytes(table):
    """A 0/1 table as the bytes of `_words`: little-endian bits, one word at least."""
    return np.packbits(table, bitorder="little").tobytes().ljust(8, b"\0")


def chunked_table(f):
    """The truth table from `_chunks` and `evaluate_rows`, the tree route."""
    out = np.empty(1 << f.arity, dtype=np.uint8)
    for idx, bits in oracle._chunks(f.arity):
        out[idx[0]:idx[-1] + 1] = f.evaluate_rows(bits)
    return out


def counter_specs(max_arity):
    # every valid parameter of every counter family, from its least value on
    for family, (least, shape, _) in bf._COUNTERS.items():
        n = least
        while shape(n)[0] <= max_arity:
            if family != "maj" or n % 2:
                yield "%s:%d" % (family, n)
            n += 1


ROUTE_SPECS = (list(counter_specs(12)) + ["maj:23", "dap:22", "type2:22", "parity:21"]
               + ["itermaj3:2", "andor:2", "perc:3,2:2"])


@pytest.mark.parametrize("text", ROUTE_SPECS)
def test_words_equal_the_chunked_table(text):
    # arities 1-5 fill one zero-padded word; bigtame:2 is 12 bits
    f = inst(text)
    assert oracle._words(f).tobytes() == packed_bytes(chunked_table(f))


@pytest.mark.parametrize("m", [1, 3, 6, 7, 12])
def test_table_words_equal_its_entries(m):
    f = identity_instance("table:%d" % m)
    entries = np.array(f.spec.table, dtype=np.uint8)
    assert oracle._words(f).tobytes() == packed_bytes(entries)
    np.testing.assert_array_equal(oracle._truth_values(f), entries)


@pytest.mark.parametrize("text", ["maj:9", "type2:8"])
def test_counter_oracles_build_no_bit_rows(text, monkeypatch):
    # the byte-level passes over a table from evaluate_batch give the values
    # the oracles gave when they read bit rows; with `_chunks` failing, a
    # counter family must still reach them
    f = inst(text)
    table = bf.evaluate_batch(f, all_configs(f.arity))

    def no_rows(m):
        raise AssertionError("bit rows built for a counter family")

    monkeypatch.setattr(oracle, "_chunks", no_rows)
    for p in (0.3, 0.5):
        assert oracle.exact_prob_one(f, p) == byte_prob_one(table, p)
        assert oracle.exact_influence_report(f, p) == byte_influence_report(table, p)
        assert oracle.exact_noise_covariance(f, p, 0.37) == byte_noise_covariance(table, p, 0.37)
