"""Sequence classification heuristics and taxonomy/noise/tameness probes."""

import json
import math

import pytest

from boolvol import experiments as exp
from boolvol.dynamics import EmpiricalC
from boolvol.errors import InvalidSpec
from boolvol.functions import FunctionSpec, make_instance, parse_spec
from boolvol.oracle import exact_noise_covariance


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
            [("parity:4", 0.5), (FunctionSpec.parity(8), 0.3)])
        assert plan.ns == (4, 8)
        assert plan.entries[0][0] == FunctionSpec.parity(4)
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
        th = exp.Thresholds()
        assert th.to_zero == 0.05
        assert th.to_one == 0.95
        assert th.away == 0.1
        assert th.tail_cap == 0.05
        assert th.M_grid == (1, 2, 5)
        assert th.k_grid == (1, 2, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            exp.Thresholds(to_zero=0.0)
        with pytest.raises(ValueError):
            exp.Thresholds(away=1.5)
        with pytest.raises(ValueError):
            exp.Thresholds(M_grid=())
        with pytest.raises(ValueError):
            exp.Thresholds(k_grid=(2, 1))


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

    def test_custom_thresholds_change_outcome(self):
        tr = base_trends(tail_gt_5=[0.06, 0.07, 0.08])
        assert exp.verdict_from_trends(tr)[0] == "inconclusive"
        loose = exp.Thresholds(tail_cap=0.2)
        assert exp.verdict_from_trends(tr, loose)[0] == "tame-consistent"


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
        c = exp.classify(plan, threads=3)
        assert a.to_json_dict() == b.to_json_dict() == c.to_json_dict()

    @pytest.mark.parametrize("bad", [0, -5, 2.5, True])
    def test_rejects_bad_thread_counts(self, bad, monkeypatch):
        # rejected before any sequence entry is simulated
        monkeypatch.setattr(exp, "estimate_C_distribution", None)
        plan = exp.SequencePlan.from_pairs(
            [("parity:%d" % n, 0.5) for n in (4, 8, 16)], replicas=10)
        with pytest.raises(ValueError, match="threads"):
            exp.classify(plan, threads=bad)


# ---------------------------------------------------------------------------
# noise probe


class TestNoiseProbe:
    def test_epsilon_validation(self):
        plan = exp.SequencePlan.from_pairs([("dictator:4", 0.5)], replicas=100)
        with pytest.raises(ValueError):
            exp.noise_probe(plan, [0.0])
        with pytest.raises(ValueError):
            exp.noise_probe(plan, [1.5])
        with pytest.raises(ValueError):
            exp.noise_probe(plan, [])

    def test_dictator_disagree_is_half_epsilon_for_every_n(self):
        plan = exp.SequencePlan.from_pairs(
            [("dictator:4", 0.5), ("dictator:8", 0.5)], replicas=20000)
        report = exp.noise_probe(plan, [0.2, 0.6])
        for row in report.rows:
            want = row["epsilon"] / 2.0
            assert abs(row["disagree"] - want) <= 4 * binom_se(want, 20000)
        # independence of n: the two arities agree within noise
        by_eps = {}
        for row in report.rows:
            by_eps.setdefault(row["epsilon"], []).append(row["disagree"])
        for eps, pair in by_eps.items():
            gap = abs(pair[0] - pair[1])
            assert gap <= 6 * binom_se(eps / 2.0, 20000)

    def test_itermaj3_covariance_decreases_with_depth(self):
        plan = exp.SequencePlan.from_pairs(
            [("itermaj3:%d" % d, 0.5) for d in (1, 2, 3)], replicas=20000)
        report = exp.noise_probe(plan, [0.2])
        rows = report.rows
        assert [r["n"] for r in rows] == [3, 9, 27]
        se = binom_se(0.5, 20000)
        assert rows[1]["covariance"] < rows[0]["covariance"] + 4 * se
        assert rows[2]["covariance"] < rows[1]["covariance"] + 4 * se
        # exact overlays exist up to the pair cap and agree with the oracle
        for row in rows[:2]:
            inst = make_instance(parse_spec(row["spec"]))
            want = exact_noise_covariance(inst, 0.5, 0.2).covariance
            assert row["exact_covariance"] == pytest.approx(want, abs=1e-12)
            assert abs(row["covariance"] - want) <= 4 * se
        assert rows[2]["exact_covariance"] is None

    def test_sum_squared_influence_diagnostic(self):
        # leaf influence at depth d is (1/2)^{d+1}, so the squared sum is
        # 3^d/4^{d+1}, vanishing in depth: the sensitivity signature
        plan = exp.SequencePlan.from_pairs(
            [("itermaj3:%d" % d, 0.5) for d in (1, 2, 3)], replicas=200)
        report = exp.noise_probe(plan, [0.5])
        rows = report.rows
        assert rows[0]["sum_I_sq"] == pytest.approx(3.0 / 16.0, abs=1e-12)
        assert rows[1]["sum_I_sq"] == pytest.approx(9.0 / 64.0, abs=1e-12)
        assert rows[2]["sum_I_sq"] is None  # 27 bits exceeds the enumeration cap

    def test_majority_stability_signature(self):
        plan = exp.SequencePlan.from_pairs(
            [("maj:%d" % n, 0.5) for n in (9, 101, 1001)], replicas=20000)
        report = exp.noise_probe(plan, [0.01, 0.05, 0.1])
        by_n = {}
        for row in report.rows:
            by_n.setdefault(row["n"], []).append((row["epsilon"], row["disagree"]))
        for n, pairs in by_n.items():
            pairs.sort()
            dis = [d for _, d in pairs]
            se = binom_se(0.2, 20000)
            assert dis[0] < dis[1] + 4 * se < dis[2] + 8 * se
        # uniformly small disagreement at the smallest epsilon
        worst = max(d for r in report.rows if r["epsilon"] == 0.01
                    for d in [r["disagree"]])
        assert worst < 0.12

    def test_json_and_csv_shapes(self):
        plan = exp.SequencePlan.from_pairs([("dictator:4", 0.5)], replicas=500)
        report = exp.noise_probe(plan, [0.3])
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["epsilons"] == [0.3]
        assert len(data["rows"]) == 1
        row = data["rows"][0]
        for key in ("n", "spec", "p", "epsilon", "mean_product", "disagree",
                    "se_product", "se_disagree", "covariance", "marginal",
                    "exact_covariance", "sum_I_sq"):
            assert key in row
        rows = report.to_csv_rows()
        assert all(len(r) == 6 for r in rows)


# ---------------------------------------------------------------------------
# majority tameness probe


class TestMajorityTamenessProbe:
    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            exp.majority_tameness_probe([9, 10], M=5, replicas=100, seed=1)
        with pytest.raises(ValueError):
            exp.majority_tameness_probe([], M=5, replicas=100, seed=1)
        with pytest.raises(ValueError):
            exp.majority_tameness_probe([9], M=-1, replicas=100, seed=1)

    def test_tail_grows_and_zero_mass_stays(self):
        report = exp.majority_tameness_probe([9, 101, 1001], M=5,
                                             replicas=1500, seed=1)
        rows = report.rows
        assert [r["n"] for r in rows] == [9, 101, 1001]
        tails = [r["p_greater"] for r in rows]
        assert tails[0] < tails[1] < tails[2]
        assert tails[2] > 0.4
        for row in rows:
            assert row["p_zero"] > 0.1
            assert row["se_zero"] == pytest.approx(
                binom_se(row["p_zero"], 1500), abs=1e-12)

    def test_M_zero_identity(self):
        report = exp.majority_tameness_probe([9], M=0, replicas=800, seed=3)
        row = report.rows[0]
        assert row["p_greater"] == pytest.approx(1.0 - row["p_zero"], abs=1e-12)

    def test_dictator_matches_thinned_poisson_tail(self):
        # a single bit switches at thinned Poisson(1/2) rate
        want = 1.0 - math.exp(-0.5) * sum(0.5**j / math.factorial(j)
                                          for j in range(6))
        report = exp.majority_tameness_probe([1], M=5, replicas=50000, seed=1)
        got = report.rows[0]["p_greater"]
        assert abs(got - want) <= 4 * binom_se(want, 50000)

    def test_json_and_csv(self):
        report = exp.majority_tameness_probe([9, 11, 13], M=2,
                                             replicas=200, seed=1)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["M"] == 2
        assert len(data["rows"]) == 3
        rows = report.to_csv_rows()
        assert all(len(r) == 5 for r in rows)


# ---------------------------------------------------------------------------
# lameness probe


class TestLamenessProbe:
    def test_constant_function_is_perfectly_lame(self):
        plan = exp.SequencePlan(
            entries=tuple((FunctionSpec.truth_table([0] * (1 << m)), 0.5)
                          for m in (1, 2, 3)),
            replicas=400)
        report = exp.lameness_probe(plan)
        for row in report.rows:
            assert row["p_zero"] == 1.0
            assert row["exact_EC"] == 0.0
            assert row["flagged"] is False

    def test_bigtame_overlay(self):
        plan = exp.SequencePlan.from_pairs([("bigtame:2", 0.5)], replicas=4000)
        report = exp.lameness_probe(plan)
        row = report.rows[0]
        assert row["exact_EC"] == pytest.approx(1.75, abs=1e-12)
        assert 0.2 < row["p_zero"] < 0.6
        assert row["markov_floor"] == pytest.approx(1.0 - 1.75, abs=1e-12)
        assert row["flagged"] is False

    def test_markov_bound_never_flags_honest_runs(self):
        plan = exp.SequencePlan.from_pairs(
            [("parity:4", 0.5), ("andor:3", 0.5), ("itermaj3:2", 0.5)],
            replicas=3000)
        report = exp.lameness_probe(plan)
        assert not any(row["flagged"] for row in report.rows)

    def test_exact_overlay_absent_above_enumeration_cap(self):
        plan = exp.SequencePlan.from_pairs([("parity:32", 0.5)], replicas=200)
        report = exp.lameness_probe(plan)
        assert report.rows[0]["exact_EC"] is None
        assert report.rows[0]["markov_floor"] is None

    def test_json_and_csv(self):
        plan = exp.SequencePlan.from_pairs([("parity:4", 0.5)], replicas=200)
        report = exp.lameness_probe(plan)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert len(data["rows"]) == 1
        rows = report.to_csv_rows()
        assert all(len(r) == 6 for r in rows)
