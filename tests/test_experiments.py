"""Sequence classification heuristics, and the paper's noise-sensitivity,
tameness and lameness claims checked on the primitives that measure them:
`classify`'s trends, `estimate_C_distribution`, `sample_noise_pair` and the
enumeration oracles."""

import json
import math

import pytest

from boolvol import experiments as exp
from boolvol.dynamics import (
    DynamicsParams,
    EmpiricalC,
    estimate_C_distribution,
    sample_noise_pair,
)
from boolvol.errors import InvalidSpec
from boolvol.functions import FunctionSpec, make_instance, parse_spec
from boolvol.oracle import (
    PAIR_ARITY_CAP,
    exact_influence_report,
    exact_noise_covariance,
    exact_prob_one,
    exact_total_influence,
)


def binom_se(q, n):
    return math.sqrt(max(q * (1.0 - q), 1e-12) / n)


def base_trends(n_points=3, **overrides):
    """Flat trend dict that matches no verdict rule until overridden."""
    flat = [0.5] * n_points
    trends = {
        "p_zero": flat[:],
        "p_initial_one": flat[:],
        "p_ever_one": flat[:],
        "mean_C": [1.0] * n_points,
        "second_moment_ratio": [2.0] * n_points,
    }
    for M in (1, 2, 5):
        trends["cum_le_%d" % M] = flat[:]
        trends["tail_gt_%d" % M] = flat[:]
        trends["middle_le_%d" % M] = [0.14, 0.11, 0.09][:n_points]
    trends.update(overrides)
    return trends


# ---------------------------------------------------------------------------
# plans and thresholds


class TestSequencePlan:
    def test_from_pairs_accepts_strings_and_specs(self):
        plan = exp.SequencePlan.from_pairs(
            [("parity:4", 0.5), (FunctionSpec("parity", 8), 0.3)])
        assert plan.ns == (4, 8)
        assert plan.entries[0][0] == FunctionSpec("parity", 4)
        assert plan.entries[1][1] == 0.3

    def test_defaults(self):
        plan = exp.SequencePlan.from_pairs([("parity:4", 0.5)])
        assert plan.T == 1.0
        assert plan.replicas == 4000
        assert plan.seed == 1

    def test_dyn_params_carries_template(self):
        plan = exp.SequencePlan.from_pairs([("parity:4", 0.5)],
                                           T=0.5, replicas=77, seed=9)
        dp = plan.dyn_params(0.3)
        assert (dp.p, dp.T, dp.replicas, dp.seed) == (0.3, 0.5, 77, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            exp.SequencePlan(entries=())
        with pytest.raises(ValueError):
            exp.SequencePlan.from_pairs([("parity:4", 1.5)])
        with pytest.raises(InvalidSpec):
            exp.SequencePlan.from_pairs([("nosuch:4", 0.5)])
        with pytest.raises(ValueError):
            exp.SequencePlan.from_pairs([("parity:4", 0.5)], replicas=0)


class TestThresholds:
    def test_documented_defaults(self):
        assert exp.TO_ZERO == 0.05
        assert exp.TO_ONE == 0.95
        assert exp.AWAY == 0.1
        assert exp.TAIL_CAP == 0.05
        assert exp.M_GRID == (1, 2, 5)
        assert exp.K_GRID == (1, 2, 5)


# ---------------------------------------------------------------------------
# verdict rules on synthetic trends


class TestVerdictRules:
    def test_volatile_by_vanishing_mass_at_every_cutoff(self):
        tr = base_trends(
            p_zero=[0.3, 0.06, 0.01],
            cum_le_1=[0.5, 0.2, 0.02],
            cum_le_2=[0.6, 0.3, 0.03],
            cum_le_5=[0.9, 0.4, 0.04],
        )
        verdict, notes = exp.verdict_from_trends(tr)
        assert verdict == "volatile-consistent"
        assert any("volatile" in n for n in notes)

    def test_volatile_tie_at_zero_counts_as_decreasing(self):
        tr = base_trends(
            p_zero=[0.3, 0.0, 0.0],
            cum_le_1=[0.5, 0.2, 0.0],
            cum_le_2=[0.6, 0.0, 0.0],
            cum_le_5=[0.9, 0.4, 0.04],
        )
        verdict, _ = exp.verdict_from_trends(tr)
        assert verdict == "volatile-consistent"

    def test_volatility_certificate_overrides(self):
        tr = base_trends(
            p_initial_one=[0.2, 0.04, 0.01],
            p_ever_one=[0.8, 0.97, 0.99],
        )
        verdict, notes = exp.verdict_from_trends(tr)
        assert verdict == "volatile-consistent"
        assert any("certificate" in n for n in notes)

    def test_lame_with_degenerate_marginal(self):
        tr = base_trends(
            p_zero=[0.9, 0.97, 0.99],
            p_initial_one=[0.05, 0.02, 0.01],
        )
        verdict, _ = exp.verdict_from_trends(tr)
        assert verdict == "lame-consistent"

    def test_lame_demoted_when_marginal_stays_balanced(self):
        tr = base_trends(
            p_zero=[0.9, 0.97, 0.99],
            p_initial_one=[0.4, 0.4, 0.4],
        )
        verdict, notes = exp.verdict_from_trends(tr)
        assert verdict == "inconclusive"
        assert any("degenerate" in n for n in notes)

    def test_tame_by_uniformly_small_tails(self):
        tr = base_trends(
            tail_gt_5=[0.01, 0.02, 0.015],
            middle_le_1=[0.3, 0.3, 0.3],
        )
        verdict, _ = exp.verdict_from_trends(tr)
        assert verdict == "tame-consistent"

    def test_tame_demoted_by_second_moment_growth_rule(self):
        tr = base_trends(
            tail_gt_5=[0.01, 0.02, 0.015],
            mean_C=[1.0, 2.5, 6.0],
            second_moment_ratio=[2.0, 2.1, 2.0],
        )
        verdict, notes = exp.verdict_from_trends(tr)
        assert verdict == "inconclusive"
        assert any("second moment" in n for n in notes)

    def test_semivolatile_type1(self):
        tr = base_trends(
            p_zero=[0.35, 0.33, 0.32],
            tail_gt_5=[0.1, 0.35, 0.55],
            middle_le_1=[0.11, 0.05, 0.02],
            middle_le_2=[0.28, 0.11, 0.048],
            middle_le_5=[0.57, 0.31, 0.12],
        )
        verdict, notes = exp.verdict_from_trends(tr)
        assert verdict == "semivolatile-type1-consistent"
        assert any("middle" in n for n in notes)

    def test_semivolatile_type2(self):
        tr = base_trends(
            p_zero=[0.24, 0.19, 0.185],
            tail_gt_5=[0.05, 0.34, 0.57],
            middle_le_1=[0.22, 0.13, 0.10],
            middle_le_2=[0.22, 0.16, 0.133],
            middle_le_5=[0.47, 0.24, 0.17],
        )
        verdict, _ = exp.verdict_from_trends(tr)
        assert verdict == "semivolatile-type2-consistent"

    def test_semivolatile_mixed_middles_inconclusive(self):
        tr = base_trends(
            p_zero=[0.3, 0.3, 0.3],
            tail_gt_5=[0.2, 0.3, 0.4],
            middle_le_1=[0.2, 0.14, 0.09],
            middle_le_2=[0.2, 0.14, 0.09],
            middle_le_5=[0.2, 0.14, 0.09],
        )
        verdict, _ = exp.verdict_from_trends(tr)
        assert verdict == "inconclusive"

    def test_no_rule_matches(self):
        verdict, notes = exp.verdict_from_trends(base_trends())
        assert verdict == "inconclusive"
        assert notes

    def test_tail_cap_separates_tame_from_inconclusive(self):
        # the largest P(C > max M_GRID) decides tameness against TAIL_CAP
        cap = exp.TAIL_CAP
        for tail, want in (([0.06, 0.07, 0.08], "inconclusive"),
                           ([cap - 0.03, cap - 0.02, cap - 0.01], "tame-consistent"),
                           ([cap - 0.02, cap - 0.01, cap], "inconclusive"),
                           ([cap - 0.02, cap, cap + 0.01], "inconclusive")):
            tr = base_trends(tail_gt_5=tail)
            assert exp.verdict_from_trends(tr)[0] == want, tail


# ---------------------------------------------------------------------------
# classify on real sequences


class TestClassify:
    def test_requires_three_levels_sorted_by_arity(self):
        small = exp.SequencePlan.from_pairs([("parity:4", 0.5), ("parity:8", 0.5)])
        with pytest.raises(ValueError):
            exp.classify(small)
        unsorted = exp.SequencePlan.from_pairs(
            [("parity:8", 0.5), ("parity:4", 0.5), ("parity:16", 0.5)])
        with pytest.raises(ValueError):
            exp.classify(unsorted)

    def test_parity_volatile(self):
        plan = exp.SequencePlan.from_pairs(
            [("parity:%d" % n, 0.5) for n in (4, 8, 16, 32)], replicas=2000)
        report = exp.classify(plan)
        assert report.verdict == "volatile-consistent"
        zeros = report.trends["p_zero"].values
        assert zeros[0] == pytest.approx(math.exp(-2.0), abs=5 * binom_se(0.14, 2000))
        assert zeros[-1] < 0.01

    def test_dictator_tame(self):
        plan = exp.SequencePlan.from_pairs(
            [("dictator:%d" % n, 0.5) for n in (4, 8, 16)], replicas=2000)
        report = exp.classify(plan)
        assert report.verdict == "tame-consistent"

    def test_dap_type1(self):
        plan = exp.SequencePlan.from_pairs(
            [("dap:%d" % n, 0.5) for n in (8, 16, 32)])
        report = exp.classify(plan)
        assert report.verdict == "semivolatile-type1-consistent"

    def test_type2_example_type2(self):
        plan = exp.SequencePlan.from_pairs(
            [("type2:%d" % n, 0.5) for n in (16, 32, 64)])
        report = exp.classify(plan)
        assert report.verdict == "semivolatile-type2-consistent"

    def test_andor_type2(self):
        plan = exp.SequencePlan.from_pairs(
            [("andor:%d" % n, 0.5) for n in (3, 4, 5, 6, 7)], replicas=2500)
        report = exp.classify(plan)
        assert report.verdict == "semivolatile-type2-consistent"

    def test_bigtame_desk_scale_signature(self):
        # E[C] grows by 3/2 per step, so mass crosses every fixed tail
        # window; at this depth the honest empirical verdict is the
        # type-2 signature even though the sequence is asymptotically tame
        plan = exp.SequencePlan.from_pairs(
            [("bigtame:%d" % n, 0.5) for n in (2, 3, 4)])
        report = exp.classify(plan)
        assert report.verdict == "semivolatile-type2-consistent"
        means = report.trends["mean_C"].values
        assert means[0] == pytest.approx(1.75, abs=0.15)
        assert means[0] < means[1] < means[2]

    def test_report_carries_raw_trends_and_heuristic_label(self):
        plan = exp.SequencePlan.from_pairs(
            [("dictator:%d" % n, 0.5) for n in (2, 3, 4)], replicas=500)
        report = exp.classify(plan)
        assert report.verdict in exp.VERDICTS
        assert any("heuristic" in n for n in report.notes)
        for name in ("p_zero", "p_initial_one", "p_ever_one", "mean_C",
                     "cum_le_5", "tail_gt_5", "middle_le_5"):
            series = report.trends[name]
            assert len(series.values) == 3
            assert len(series.stderrs) == 3
        assert len(report.per_n) == 3
        assert all(isinstance(e, EmpiricalC) for e in report.per_n)

    def test_json_and_csv_shapes(self):
        plan = exp.SequencePlan.from_pairs(
            [("dictator:%d" % n, 0.5) for n in (2, 3, 4)], replicas=300)
        report = exp.classify(plan)
        blob = json.dumps(report.to_json_dict())
        data = json.loads(blob)
        assert data["verdict"] == report.verdict
        assert data["thresholds"]["away"] == 0.1
        assert len(data["per_n"]) == 3
        rows = report.to_csv_rows()
        assert all(len(r) == 4 for r in rows)
        stats = {r[1] for r in rows}
        assert "p_zero" in stats and "tail_gt_5" in stats
        ns = {r[0] for r in rows}
        assert ns == {2, 3, 4}

    def test_deterministic_and_thread_invariant(self):
        plan = exp.SequencePlan.from_pairs(
            [("parity:%d" % n, 0.5) for n in (4, 8, 16)], replicas=400)
        a = exp.classify(plan)
        b = exp.classify(plan)
        assert a.to_json_dict() == b.to_json_dict()


# ---------------------------------------------------------------------------
# noise sensitivity: `sample_noise_pair` against the enumeration oracles


class TestNoiseProbe:
    def test_dictator_disagree_is_half_epsilon_for_every_n(self):
        dis = {}
        for n in (4, 8):
            inst = make_instance(FunctionSpec("dictator", n))
            for eps in (0.2, 0.6):
                dis[n, eps] = sample_noise_pair(inst, 0.5, eps, 20000, 1).disagree
        for (n, eps), d in dis.items():
            assert abs(d - eps / 2.0) <= 4 * binom_se(eps / 2.0, 20000)
        # independence of n: the two arities agree within noise
        for eps in (0.2, 0.6):
            assert abs(dis[4, eps] - dis[8, eps]) <= 6 * binom_se(eps / 2.0, 20000)

    def test_itermaj3_covariance_decreases_with_depth(self):
        se = binom_se(0.5, 20000)
        covs, exact = [], []
        for d in (1, 2, 3):
            inst = make_instance(parse_spec("itermaj3:%d" % d))
            # itermaj3 is self-dual, so P(f=1) = 1/2 at p = 1/2
            covs.append(sample_noise_pair(inst, 0.5, 0.2, 20000, 1).mean_product - 0.25)
            if inst.arity <= PAIR_ARITY_CAP:
                assert exact_prob_one(inst, 0.5) == pytest.approx(0.5, abs=1e-12)
                exact.append(exact_noise_covariance(inst, 0.5, 0.2).covariance)
                assert abs(covs[-1] - exact[-1]) <= 4 * se
        assert len(exact) == 2  # 27 bits exceeds the pair-enumeration cap
        assert exact[1] < exact[0]
        assert covs[1] < covs[0] + 4 * se
        assert covs[2] < covs[1] + 4 * se

    def test_sum_squared_influence_diagnostic(self):
        # leaf influence at depth d is (1/2)^{d+1}, so the squared sum is
        # 3^d/4^{d+1}, vanishing in depth: the sensitivity signature
        for d, want in ((1, 3.0 / 16.0), (2, 9.0 / 64.0)):
            inst = make_instance(parse_spec("itermaj3:%d" % d))
            got = exact_influence_report(inst, 0.5).sum_squared_influence
            assert got == pytest.approx(want, abs=1e-12)

    def test_majority_stability_signature(self):
        for n in (9, 101, 1001):
            inst = make_instance(FunctionSpec("maj", n))
            dis = [sample_noise_pair(inst, 0.5, eps, 20000, 1).disagree
                   for eps in (0.01, 0.05, 0.1)]
            assert dis[0] < dis[1] < dis[2]
            # uniformly small disagreement at the smallest epsilon
            assert dis[0] < 0.12


# ---------------------------------------------------------------------------
# majority tameness: `classify`'s p_zero and tail_gt_M trends


class TestMajorityTamenessProbe:
    def test_tail_grows_and_zero_mass_stays(self):
        plan = exp.SequencePlan.from_pairs(
            [("maj:%d" % n, 0.5) for n in (9, 101, 1001)], replicas=1500)
        report = exp.classify(plan)
        assert report.ns == (9, 101, 1001)
        tails = report.trends["tail_gt_5"].values
        assert tails[0] < tails[1] < tails[2]
        assert tails[2] > 0.4
        zeros = report.trends["p_zero"]
        for q, se in zip(zeros.values, zeros.stderrs):
            assert q > 0.1
            assert se == pytest.approx(binom_se(q, 1500), abs=1e-12)

    def test_M_zero_identity(self):
        est = estimate_C_distribution(make_instance(FunctionSpec("maj", 9)),
                                      DynamicsParams(p=0.5, T=1.0, seed=3, replicas=800))
        assert est.prob_greater(0) == pytest.approx(1.0 - est.p_zero, abs=1e-12)

    def test_dictator_matches_thinned_poisson_tail(self):
        # a single bit switches at thinned Poisson(1/2) rate
        est = estimate_C_distribution(make_instance(FunctionSpec("dictator", 1)),
                                      DynamicsParams(p=0.5, T=1.0, seed=1, replicas=50000))
        for M in range(6):
            want = 1.0 - math.exp(-0.5) * sum(0.5**j / math.factorial(j)
                                              for j in range(M + 1))
            assert abs(est.prob_greater(M) - want) <= 4 * binom_se(want, 50000)


# ---------------------------------------------------------------------------
# lameness: P(C=0) against the exact first moment E[C] = T * total influence


def markov_floor(spec, p, T):
    """1 - E[C], the first-moment lower bound on P(C=0)."""
    return 1.0 - T * exact_total_influence(make_instance(spec), p)


class TestLamenessProbe:
    def test_constant_function_is_perfectly_lame(self):
        plan = exp.SequencePlan(
            entries=tuple((FunctionSpec.truth_table([0] * (1 << m)), 0.5)
                          for m in (1, 2, 3)),
            replicas=400)
        report = exp.classify(plan)
        assert report.trends["p_zero"].values == (1.0, 1.0, 1.0)
        assert report.verdict == "lame-consistent"
        for spec, p in plan.entries:
            assert markov_floor(spec, p, plan.T) == 1.0

    def test_bigtame_overlay(self):
        spec = parse_spec("bigtame:2")
        assert markov_floor(spec, 0.5, 1.0) == pytest.approx(1.0 - 1.75, abs=1e-12)
        est = estimate_C_distribution(make_instance(spec),
                                      DynamicsParams(p=0.5, T=1.0, seed=1, replicas=4000))
        assert 0.2 < est.p_zero < 0.6

    def test_markov_bound_never_flags_honest_runs(self):
        for text in ("parity:4", "andor:3", "itermaj3:2"):
            spec = parse_spec(text)
            est = estimate_C_distribution(make_instance(spec),
                                          DynamicsParams(p=0.5, T=1.0, seed=1, replicas=3000))
            se = binom_se(est.p_zero, 3000)
            assert est.p_zero >= markov_floor(spec, 0.5, 1.0) - 4.0 * se
