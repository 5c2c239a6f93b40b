"""Acceptance gate: ten end-to-end criteria, one test and one line each.

Every test prints a single "criterion N: PASS/FAIL" line with the
measured numbers and asserts on pinned tolerances: z <= 4 against exact
values for Monte Carlo means (z <= 3 one-sided where stated), 1e-12 for
float recursion identities, exact equality for rational enumeration,
and fixed trend allowances for the regime and taxonomy criteria.  All
seeds are fixed constants, so outcomes are deterministic.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from boolvol.analysis import (
    Maj3Params,
    andor_survival_floor,
    andor_survival_floor_check,
    maj3_a_seq,
    maj3_b_seq,
    maj3_cutoff_diagnostic,
)
from boolvol.dynamics import (
    DynamicsParams,
    estimate_C_distribution,
    estimate_joint,
    sample_noise_pair,
    survival_estimate,
)
from boolvol.experiments import SequencePlan, classify
from boolvol.functions import FunctionSpec, make_instance, parse_spec
from boolvol.oracle import (
    exact_andor_pivotal,
    exact_prob_one,
    exact_total_influence,
)
from boolvol.perctree import build_profile, regime_experiment, weight_sequence

REPLICAS = 100_000
SEED = 1


def report(num, ok, detail):
    print("criterion %d: %s — %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


_ANDOR_RUNS = {}


def andor_run(n):
    """One shared 1e5-replica run per AND/OR depth (criteria 2 and 8)."""
    if n not in _ANDOR_RUNS:
        inst = make_instance(FunctionSpec("andor", n))
        params = DynamicsParams(p=0.5, T=1.0, seed=SEED, replicas=REPLICAS)
        _ANDOR_RUNS[n] = estimate_C_distribution(inst, params)
    return _ANDOR_RUNS[n]


def test_criterion_01_influence_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for spec_text in ("maj:9", "parity:8", "itermaj3:2", "andor:2", "type2:8"):
        inst = make_instance(parse_spec(spec_text))
        for p in (0.3, 0.5):
            params = DynamicsParams(p=p, T=1.0, seed=SEED, replicas=REPLICAS)
            est = estimate_C_distribution(inst, params)
            want = exact_total_influence(inst, p)
            z = (est.mean_C - want) / math.sqrt(est.var_C / REPLICAS)
            worst = max(worst, abs(z))
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 and elapsed < 120.0
    report(1, ok, "mean C vs exact total influence, 5 functions x 2 biases, "
                  "worst |z| = %.2f (<= 4), %.0fs (< 120s)" % (worst, elapsed))


def test_criterion_02_andor_switch_rate():
    worst = 0.0
    for n in (2, 3, 4, 5):
        S = andor_run(n).S.astype(np.float64)
        want = (n + 2) / 8.0
        z = (S.mean() - want) / (S.std(ddof=1) / math.sqrt(len(S)))
        worst = max(worst, abs(z))
    report(2, worst <= 4.0,
           "mean 1->0 switches vs (n+2)/8 for n in 2..5, worst |z| = %.2f "
           "(<= 4)" % worst)


def test_criterion_03_andor_pivotality_exact():
    ok = True
    for n in range(4):
        for k in range(n + 1):
            want = Fraction(1, 2 ** (k + 2)) if k < n else Fraction(1, 2 ** (n + 1))
            ok = ok and exact_andor_pivotal(n, k) == want
    report(3, ok, "exact rational pivotal probabilities equal 2^-(k+2) "
                  "(k<n) and 2^-(n+1) (k=n) for all n <= 3, zero tolerance")


def test_criterion_04_same_joint_law():
    worst = 0.0
    for spec_text in ("maj:9", "andor:3", "itermaj3:2"):
        inst = make_instance(parse_spec(spec_text))
        for t in (0.1, 0.5, 1.0):
            a = estimate_joint(inst, 0.5, t, REPLICAS, SEED)
            b = sample_noise_pair(inst, 0.5, 1.0 - math.exp(-t), REPLICAS,
                                  SEED + 1)
            pooled = (a.disagree + b.disagree) / 2.0
            z = (a.disagree - b.disagree) / math.sqrt(
                pooled * (1.0 - pooled) * 2.0 / REPLICAS)
            worst = max(worst, abs(z))
    report(4, worst <= 4.0,
           "horizon-t endpoints vs epsilon-pair sampler, 3 families x 3 "
           "times, worst two-proportion |z| = %.2f (<= 4)" % worst)


def test_criterion_05_maj3_recursions():
    inst = make_instance(FunctionSpec("itermaj3", 2))
    err_a = max(abs(exact_prob_one(inst, p) - maj3_a_seq(p, 2).last_value)
                for p in (0.3, 0.4, 0.5))
    eps = 0.05
    a = maj3_a_seq(0.5 - eps, 50)
    b_zero = maj3_b_seq(Maj3Params(n=50, epsilon=eps, t=0.0))
    b_inf = maj3_b_seq(Maj3Params(n=50, epsilon=eps, t=math.inf))
    err_b0 = max(abs(b_zero.value(k) - a.value(k)) for k in range(51))
    err_binf = max(abs(b_inf.value(k) - a.value(k) ** 2) for k in range(51))
    want = maj3_b_seq(Maj3Params(n=2, epsilon=0.2, t=0.5)).value(2)
    est = estimate_joint(inst, 0.3, 0.5, REPLICAS, SEED)
    z = (est.mean_product - want) / est.se_product
    ok = err_a <= 1e-12 and err_b0 <= 1e-12 and err_binf <= 1e-12 and abs(z) <= 4.0
    report(5, ok, "(a) enumeration vs a-recursion err %.1e; (b) b(0)=a and "
                  "b(inf)=a^2 to %.1e over k <= 50; (c) depth-2 joint MC "
                  "|z| = %.2f (<= 4)" % (err_a, max(err_b0, err_binf), z))


def test_criterion_06_cutoff_diagnostic():
    hi = maj3_cutoff_diagnostic(1.0, 300, digits=50).log_diag
    lo = maj3_cutoff_diagnostic(0.4, 300, digits=50).log_diag
    seq = [maj3_cutoff_diagnostic(1.0, n, digits=50).log_diag
           for n in (100, 200, 300, 400)]
    monotone = all(b < a for a, b in zip(seq, seq[1:]))
    ok = hi < 0.0 and lo > 0.0 and monotone
    report(6, ok, "50-digit log diagnostic: alpha=1 gives %.0f (< 0), "
                  "alpha=0.4 gives %.0f (> 0), strictly decreasing over "
                  "n in 100..400" % (hi, lo))


def test_criterion_07_andor_survival_floor():
    worst = math.inf
    for n in (2, 4):
        inst = make_instance(FunctionSpec("andor", n))
        for x in (0.01, 0.04):
            g = survival_estimate(inst, 0.5, x, REPLICAS, SEED)
            se = math.sqrt(max(g * (1.0 - g), 1e-12) / REPLICAS)
            worst = min(worst, (g - andor_survival_floor(x)) / se)
    check = andor_survival_floor_check(grid_resolution=1000)
    ok = worst >= -3.0 and check.min_margin >= -1e-6
    report(7, ok, "MC survival >= floor - 3 sigma (worst margin %.1f "
                  "sigma); fixed-point grid min(RHS - floor) = %.2e "
                  "(>= -1e-6)" % (worst, check.min_margin))


def test_criterion_08_andor_second_moment():
    ratios, pz_bounds, ok = [], [], True
    for n in (3, 4, 5, 6):
        S = andor_run(n).S.astype(np.float64)
        m2 = float((S * S).mean())
        ratios.append(m2 / n**2)
        pz = float(S.mean()) ** 2 / m2
        pz_bounds.append(pz)
        ok = ok and float((S > 0).mean()) >= pz - 0.01
    trend_ok = (all(b <= 1.10 * a for a, b in zip(ratios, ratios[1:]))
                and ratios[-1] <= ratios[0])
    ok = ok and trend_ok and min(pz_bounds) >= 0.2
    report(8, ok, "E[S^2]/n^2 shows no growth over n in 3..6 "
                  "(%.3f -> %.3f); Paley-Zygmund floor on P(S > 0) is "
                  "%.2f (>= 0.2) and holds empirically"
                  % (ratios[0], ratios[-1], min(pz_bounds)))


def test_criterion_09_taxonomy_verdicts():
    plans = {
        "volatile-consistent":
            [("parity:%d" % n, 0.5) for n in (4, 8, 16, 32)],
        "semivolatile-type1-consistent":
            [("dap:%d" % n, 0.5) for n in (8, 16, 32)],
        "semivolatile-type2-consistent":
            [("type2:%d" % n, 0.5) for n in (16, 32, 64)],
    }
    got = {}
    ok = True
    for want, pairs in plans.items():
        verdict = classify(SequencePlan.from_pairs(pairs)).verdict
        got[pairs[0][0].split(":")[0]] = verdict
        ok = ok and verdict == want
    andor_verdict = classify(SequencePlan.from_pairs(
        [("andor:%d" % d, 0.5) for d in (3, 4, 5, 6, 7)])).verdict
    got["andor"] = andor_verdict
    ok = ok and andor_verdict == "semivolatile-type2-consistent"
    report(9, ok, "default thresholds/seeds: %s" %
           ", ".join("%s=%s" % kv for kv in sorted(got.items())))


@pytest.mark.slow
def test_criterion_10_percolation_regimes():
    rep = regime_experiment((2,) * 12, [4, 8, 12], p=0.5, T=1.0,
                            replicas=10_000, seed=SEED)
    p_ones = [lv.p_one for lv in rep.levels]
    binary_ok = all(b < a for a, b in zip(p_ones, p_ones[1:]))

    profile = build_profile("nalpha:3", 10)
    ws = weight_sequence(profile)
    weights_ok = all(k**3 / 4.0 <= ws.w(k) <= 4.0 * k**3
                     for k in range(1, 11))
    rep = regime_experiment(profile, list(range(4, 11)), p=0.5, T=1.0,
                            replicas=10_000, seed=SEED)
    means = [lv.mean_C for lv in rep.levels]
    zeros = [lv.p_always_zero for lv in rep.levels]
    mean_ok = all(m <= 1.05 * means[0] for m in means[1:])
    zeros_ok = all(z > 0.01 for z in zeros)
    ok = binary_ok and weights_ok and mean_ok and zeros_ok
    report(10, ok, "binary p_one strictly decreasing (%s); cubic profile "
                   "w_k within factor 4 of k^3, mean C non-growing over "
                   "levels 4..10 (%.3f -> %.3f), P(never connects) > 0.01 "
                   "everywhere (min %.3f)"
                   % (" -> ".join("%.3f" % v for v in p_ones),
                      means[0], means[-1], min(zeros)))
