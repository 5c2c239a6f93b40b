"""Recursion engines: frozen hand values, exact identities, and MC cross-checks."""

import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from boolvol import analysis as ana
from boolvol.dynamics import (DynamicsParams, estimate_C_distribution, estimate_joint,
                              simulate_trajectory, survival_curve)
from boolvol.errors import InstanceTooLarge, PrecisionExhausted
from boolvol.functions import FunctionSpec, make_instance, parse_spec
from boolvol.oracle import exact_andor_switch_prob, exact_prob_one


def binom_se(q, n):
    return math.sqrt(max(q * (1.0 - q), 1e-12) / n)


# ---------------------------------------------------------------------------
# parameters


class TestMaj3Params:
    def test_from_alpha_derivations(self):
        p = ana.Maj3Params.from_alpha(20, 1.0)
        expect = 20 * (2.0 / 3.0) ** 20
        assert abs(p.epsilon - expect) <= 1e-12 * expect
        assert p.p == 0.5 - p.epsilon
        assert p.t == 0.0

    def test_epsilon_must_leave_p_in_range(self):
        with pytest.raises(ValueError):
            ana.Maj3Params.from_alpha(2, 5.0)

    def test_explicit_epsilon(self):
        p = ana.Maj3Params(n=5, epsilon=0.01, t=1.0)
        assert p.p == 0.49
        assert p.alpha is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ana.Maj3Params(n=5, epsilon=0.5)
        with pytest.raises(ValueError):
            ana.Maj3Params(n=5, epsilon=-0.1)
        with pytest.raises(ValueError):
            ana.Maj3Params(n=5)
        with pytest.raises(ValueError):
            ana.Maj3Params(n=5, epsilon=0.1, alpha=0.4)
        with pytest.raises(ValueError):
            ana.Maj3Params(n=-1, epsilon=0.1)
        with pytest.raises(ValueError):
            ana.Maj3Params(n=5, epsilon=0.1, t=-0.5)

    def test_log10_epsilon_survives_float_underflow(self):
        p = ana.Maj3Params.from_alpha(2000, 0.4)
        assert p.epsilon == 0.0  # best-effort float underflows
        expect = 0.4 * math.log10(2000) + 2000 * math.log10(2.0 / 3.0)
        assert p.log10_epsilon() == pytest.approx(expect, rel=1e-12)

    def test_critical_exponent_value(self):
        assert ana.MAJ3_CRITICAL_ALPHA == pytest.approx(0.5849625007211562, abs=1e-15)


# ---------------------------------------------------------------------------
# one-time recursion a_k


class TestMaj3ASeq:
    def test_fixed_points(self):
        for p0 in (0.0, 0.5, 1.0):
            s = ana.maj3_a_seq(p0, 10)
            assert len(s) == 11
            assert all(m == "linear" for m in s.modes)
            assert all(v == p0 for v in s.values)

    def test_hand_value(self):
        s = ana.maj3_a_seq(0.4, 2)
        assert abs(s.value(1) - 0.352) <= 1e-15
        assert abs(s.value(2) - 0.284483584) <= 1e-12
        assert s.value(0) > s.value(1) > s.value(2)

    def test_matches_exhaustive_tree_probability(self):
        inst = make_instance(parse_spec("itermaj3:2"))
        for p in (0.3, 0.4, 0.5):
            a2 = ana.maj3_a_seq(p, 2).last_value
            assert abs(a2 - exact_prob_one(inst, p)) <= 1e-12

    def test_log_space_switch(self):
        s = ana.maj3_a_seq(1e-100, 4)
        assert s.modes == ["linear", "linear", "log", "log", "log"]
        # once in log space, the step is log 3 + 2 log a + log1p(-(2/3)a)
        assert s.values[3] == pytest.approx(
            math.log(3.0) + 2.0 * s.values[2], abs=1e-9
        )
        assert s.value(1) == s.values[1]
        assert s.value(2) == 0.0  # below the float range
        assert s.log_value(2) == s.values[2]
        assert s.log_value(1) == pytest.approx(math.log(s.values[1]))
        # linear phase agrees with direct squaring-cubing
        assert s.values[1] == pytest.approx(3e-200, rel=1e-12)

    def test_high_precision_mode(self):
        s = ana.maj3_a_seq(0.4, 3, digits=40)
        f = ana.maj3_a_seq(0.4, 3)
        assert s.precision == 40
        for k in range(4):
            assert s.value(k) == pytest.approx(f.value(k), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ana.maj3_a_seq(1.2, 3)
        with pytest.raises(ValueError):
            ana.maj3_a_seq(0.4, -1)


class TestMaj3PiSeq:
    def test_zero_bias(self):
        s = ana.maj3_pi_seq(0.0, 8)
        assert all(v == 0.0 for v in s.values)

    def test_hand_value(self):
        s = ana.maj3_pi_seq(0.01, 1)
        assert abs(s.value(1) - 0.029996) <= 1e-15

    def test_growth_dominated_by_three_halves(self):
        s = ana.maj3_pi_seq(0.01, 30)
        for k in range(1, 31):
            assert s.value(k) < 2 * 0.01 * 1.5**k

    def test_gap_identity_against_a_seq(self):
        for eps in (0.01, 0.1, 0.3):
            pi = ana.maj3_pi_seq(eps, 25)
            a = ana.maj3_a_seq(0.5 - eps, 25)
            for k in range(26):
                assert abs(a.value(k) - 0.5 * (1.0 - pi.value(k))) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ana.maj3_pi_seq(0.6, 3)
        with pytest.raises(ValueError):
            ana.maj3_pi_seq(-0.1, 3)


# ---------------------------------------------------------------------------
# joint two-time recursion b_k


class TestMaj3BSeq:
    def test_t_zero_reproduces_a_bit_for_bit(self):
        b = ana.maj3_b_seq(ana.Maj3Params(n=50, epsilon=0.01, t=0.0))
        a = ana.maj3_a_seq(0.49, 50)
        assert b.modes == a.modes
        assert b.values == a.values

    def test_t_infinity_gives_independent_square(self):
        a = ana.maj3_a_seq(0.49, 50)
        b = ana.maj3_b_seq(ana.Maj3Params(n=50, epsilon=0.01, t=math.inf))
        for k in range(51):
            if b.modes[k] == "linear" and a.modes[k] == "linear":
                assert abs(b.value(k) - a.value(k) ** 2) <= 1e-14
            else:
                lb, la = b.log_value(k), a.log_value(k)
                assert abs(lb - 2.0 * la) <= 1e-12 * max(1.0, abs(lb))

    def test_t_infinity_exact_at_unbiased(self):
        b = ana.maj3_b_seq(ana.Maj3Params(n=8, epsilon=0.0, t=math.inf))
        assert all(v == 0.25 for v in b.values)

    def test_between_the_limits(self):
        a = ana.maj3_a_seq(0.49, 10)
        b = ana.maj3_b_seq(ana.Maj3Params(n=10, epsilon=0.01, t=0.7))
        for k in range(11):
            assert a.value(k) ** 2 - 1e-15 <= b.value(k) <= a.value(k) + 1e-15

    def test_monte_carlo_cross_check(self):
        b2 = ana.maj3_b_seq(ana.Maj3Params(n=2, epsilon=0.0, t=0.5)).last_value
        assert b2 == pytest.approx(0.354077, abs=1e-6)  # frozen hand iteration
        inst = make_instance(parse_spec("itermaj3:2"))
        est = estimate_joint(inst, 0.5, 0.5, 20_000, 33)
        assert abs(est.mean_product - b2) <= 4.0 * binom_se(b2, 20_000)

    def test_high_precision_mode_matches_float(self):
        params = ana.Maj3Params(n=6, epsilon=0.01, t=0.3)
        hi = ana.maj3_b_seq(params, digits=60)
        lo = ana.maj3_b_seq(params)
        for k in range(7):
            assert hi.value(k) == pytest.approx(lo.value(k), rel=1e-12)

    def test_precision_guard(self):
        with pytest.raises(PrecisionExhausted):
            ana.maj3_b_seq(ana.Maj3Params(n=200, alpha=0.4, t=1e-10), digits=30)


# ---------------------------------------------------------------------------
# cutoff diagnostic


class TestCutoffDiagnostic:
    def test_signs_either_side_of_critical_exponent(self):
        assert ana.maj3_cutoff_diagnostic(1.0, 300).log_diag < 0
        assert ana.maj3_cutoff_diagnostic(0.4, 300).log_diag > 0

    def test_frozen_values(self):
        assert ana.maj3_cutoff_diagnostic(1.0, 300).log_diag == pytest.approx(
            -66294.511, abs=1.0
        )
        assert ana.maj3_cutoff_diagnostic(0.4, 300).log_diag == pytest.approx(
            136.696, abs=1.0
        )

    def test_decreasing_in_alpha(self):
        vals = [
            ana.maj3_cutoff_diagnostic(al, 300).log_diag
            for al in (0.4, 0.7095, 1.0)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_decreasing_in_depth_above_critical(self):
        vals = [
            ana.maj3_cutoff_diagnostic(1.0, n).log_diag for n in (100, 200, 300, 400)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_stable_across_precision(self):
        lo = ana.maj3_cutoff_diagnostic(1.0, 300, digits=50).log_diag
        hi = ana.maj3_cutoff_diagnostic(1.0, 300, digits=80).log_diag
        assert lo == pytest.approx(hi, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ana.maj3_cutoff_diagnostic(1.0, 5)
        with pytest.raises(ValueError):
            ana.maj3_cutoff_diagnostic(1.0, 300, digits=10)
        with pytest.raises(ValueError):
            ana.maj3_cutoff_diagnostic(8.0, 10)  # bias >= 1/2

    def test_serialization(self):
        d = ana.maj3_cutoff_diagnostic(0.4, 300).to_json_dict()
        assert set(d) == {"alpha", "n", "log_diag", "digits"}
        assert d["digits"] == 50


# ---------------------------------------------------------------------------
# volatility ratio


class TestVolatilityRatio:
    def test_t_zero_limit(self):
        v = ana.maj3_volatility_ratio(ana.Maj3Params(n=5, epsilon=0.01, t=0.0))
        a5 = ana.maj3_a_seq(0.49, 5).last_value
        assert v.rho == pytest.approx(1.0 / a5 - 1.0, rel=1e-12)
        assert v.flagged  # t = 0 is never of larger order than epsilon

    def test_t_infinity_limit(self):
        v = ana.maj3_volatility_ratio(ana.Maj3Params(n=4, epsilon=0.0, t=math.inf))
        assert v.rho == 0.0
        assert not v.flagged

    def test_decorrelation_when_t_dominates_bias(self):
        v = ana.maj3_volatility_ratio(ana.Maj3Params(n=200, alpha=0.4, t=1e-10))
        assert not v.flagged
        assert 0.0 <= v.rho < 1e-10

    def test_time_scaled_by_a_needs_large_depth(self):
        # At n=200 the scaled time t = 0.01 a_n sits far below the bias
        # (t ~ 1e-65, eps ~ 1e-34), so the ratio collapses to the t=0 limit
        # 1/a_n - 1 and the precondition flag fires.
        v = ana.maj3_volatility_ratio(
            ana.Maj3Params(n=200, alpha=0.4), t_scale_by_a=0.01
        )
        assert v.flagged
        assert v.rho > 1e50
        assert abs(v.log_rho + v.log_a) <= 0.5

    def test_time_scaled_by_a_certifies_at_large_depth(self):
        v = ana.maj3_volatility_ratio(
            ana.Maj3Params(n=2000, alpha=0.4), t_scale_by_a=0.01
        )
        assert not v.flagged
        assert 0.0 <= v.rho < 0.1  # measured ~7e-30

    def test_explicit_digits_and_precision_guard(self):
        params = ana.Maj3Params(n=5, epsilon=0.01, t=0.25)
        v = ana._volatility_pass(params, None, 80)
        assert v.digits == 80
        auto = ana.maj3_volatility_ratio(params)
        assert v.rho == pytest.approx(auto.rho, rel=1e-9)
        with pytest.raises(PrecisionExhausted):
            ana._volatility_pass(ana.Maj3Params(n=200, alpha=0.4, t=1e-10), None, 30)

    def test_validation(self):
        with pytest.raises(ValueError):
            ana.maj3_volatility_ratio(
                ana.Maj3Params(n=5, epsilon=0.01), t_scale_by_a=0.0
            )


# ---------------------------------------------------------------------------
# AND/OR two-time recursion


class TestAndorXSeq:
    def test_t_zero_fixed_at_half(self):
        s = ana.andor_x_seq(0.0, 12)
        assert s.info["tau"] == 0.0
        assert all(v == 0.5 for v in s.values)
        assert s.info["fixed_point"] == 0.5

    def test_stays_in_range_and_below_damping_bound(self):
        for n in (1, 2, 5, 10, 20, 40):
            for t in (0.01, 0.1, 0.5, 1.0):
                s = ana.andor_x_seq(t, n)
                assert all(0.0 <= v <= 0.5 for v in s.values)
                assert s.last_value <= 0.5 * ana.andor_beta(n, t) + 1e-15

    def test_converges_to_unique_fixed_point(self):
        for t in (0.1, 0.5):
            s = ana.andor_x_seq(t, 200)
            assert s.info["converged"]
            assert abs(s.value(200) - s.value(199)) < 1e-10
            assert s.info["fixed_point_residual"] < 1e-10

    def test_infinite_time_fixed_point(self):
        s = ana.andor_x_seq(math.inf, 50)
        assert s.info["tau"] == 0.5
        assert s.info["fixed_point"] == 0.25
        assert s.last_value == pytest.approx(0.25, abs=1e-12)

    def test_monte_carlo_cross_check(self):
        x3 = ana.andor_x_seq(0.5, 3).last_value
        assert x3 == pytest.approx(0.351281, abs=1e-6)  # frozen iteration value
        inst = make_instance(parse_spec("andor:3"))
        est = estimate_joint(inst, 0.5, 0.5, 20_000, 55)
        assert abs(est.mean_product - x3) <= 4.0 * binom_se(x3, 20_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            ana.andor_x_seq(-0.5, 3)
        with pytest.raises(ValueError):
            ana.andor_x_seq(0.5, -1)


class TestAndorBeta:
    def test_piecewise_form(self):
        assert ana.andor_beta(3, 0.05) == 1.0  # 0.05 < 1/9
        assert ana.andor_beta(3, 0.2) == 1.0 - math.sqrt(0.2) / 24.0
        assert ana.andor_beta(0, 1e9) == 1.0

    def test_nonincreasing_in_t(self):
        ts = [0.01, 0.05, 0.1, 0.12, 0.5, 1.0, 4.0]
        vals = [ana.andor_beta(3, t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# AND/OR switch rate


class TestAndorSwitchRate:
    def test_closed_form(self):
        assert ana.andor_switch_rate(0).expected_switches == 0.25
        assert ana.andor_switch_rate(2).expected_switches == 0.5
        r = ana.andor_switch_rate(3)
        assert r.expected_switches_fraction == Fraction(5, 8)
        assert r.per_update_fraction == Fraction(5, 8 * 15)

    def test_matches_exhaustive_update_enumeration(self):
        for n in (0, 1, 2, 3):
            r = ana.andor_switch_rate(n)
            assert r.per_update_fraction == exact_andor_switch_prob(n)

    def test_monte_carlo_cross_check(self):
        inst = make_instance(parse_spec("andor:3"))
        emp = estimate_C_distribution(
            inst, DynamicsParams(p=0.5, T=1.0, replicas=20_000, seed=99)
        )
        s = emp.S.astype(float)
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert abs(s.mean() - 0.625) <= 4.0 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            ana.andor_switch_rate(-1)


# ---------------------------------------------------------------------------
# AND/OR double-switch bound


class TestAndorBBound:
    def test_seed_and_hand_value(self):
        s = ana.andor_b_bound_seq(3, 0.25)
        assert s.values[:3] == [1.0, 1.0, 1.0]
        beta2 = 1.0 - math.sqrt(0.25) / 24.0
        assert s.value(3) == pytest.approx(0.25 * beta2 + 4.0 / 64.0, abs=1e-15)

    def test_closed_cap(self):
        s = ana.andor_b_bound_seq(10, 0.25)
        cap = 800.0 * (10.0 / (2**11 - 1)) ** 2 * 2.0
        assert s.info["cap"] == pytest.approx(cap)
        assert s.last_value <= cap
        assert s.info["cap_satisfied"]

    def test_cap_holds_across_grid(self):
        for n in (3, 5, 10, 20, 40):
            for t in (0.01, 0.1, 0.25, 1.0, 4.0, 100.0):
                assert ana.andor_b_bound_seq(n, t).info["cap_satisfied"]

    def test_nonneg_and_nonincreasing_in_t(self):
        ts = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0]
        finals = [ana.andor_b_bound_seq(8, t).last_value for t in ts]
        assert all(v >= 0.0 for v in finals)
        assert all(a >= b for a, b in zip(finals, finals[1:]))

    def test_past_depth_511_the_tail_underflows(self):
        # 4.0^(k+1) overflowed at k = 511; k^2 / 4^(k+1) is now formed
        # exactly, and underflows to 0 deeper down, as the bound itself does
        s = ana.andor_b_bound_seq(600, 0.5)
        assert s.values[:512] == ana.andor_b_bound_seq(511, 0.5).values
        assert s.last_value == 0.0
        assert s.info["cap"] == 0.0 and s.info["cap_satisfied"]

    def test_shallow_depths_are_trivial(self):
        assert ana.andor_b_bound_seq(0, 0.5).values == [1.0]
        assert ana.andor_b_bound_seq(2, 0.5).values == [1.0, 1.0, 1.0]
        assert ana.andor_b_bound_seq(2, 0.5).info["cap_satisfied"]

    def test_second_moment_stays_quadratic(self):
        # E[S^2] = E[S] + c n^2 with small fitted c, flat in n; and P(S > 0)
        # stays bounded away from 0 (the anti-concentration signature).
        c_hats, p_pos = [], []
        for n in (3, 4, 5, 6):
            inst = make_instance(parse_spec("andor:%d" % n))
            emp = estimate_C_distribution(
                inst, DynamicsParams(p=0.5, T=1.0, replicas=4000, seed=1234 + n)
            )
            s = emp.S.astype(float)
            se = s.std(ddof=1) / math.sqrt(len(s))
            assert abs(s.mean() - (n + 2) / 8.0) <= 4.0 * se
            c_hats.append(((s * s).mean() - s.mean()) / n**2)
            p_pos.append((s > 0).mean())
        assert max(c_hats) <= 1.0  # measured ~0.03 across n
        assert min(p_pos) >= 0.2  # measured 0.48..0.63, increasing


# ---------------------------------------------------------------------------
# AND/OR survival floor


class TestSurvivalFloor:
    @pytest.mark.parametrize("points", [ana.MAX_GRID + 1, 10**9, 2**62, 2**63 - 1,
                                        np.int64(2**63 - 1)])
    def test_grid_past_the_cap_refused(self, points):
        # 2^63 - 1 points wrapped to an empty grid (IndexError from argmin),
        # 2^62 hit numpy's "array is too big", 10^9 asked for 8 GB
        with pytest.raises(InstanceTooLarge, match="grid cap"):
            ana.andor_survival_floor_check(points)

    def test_floor_endpoints(self):
        assert ana.andor_survival_floor(0.0) == 0.5
        assert ana.andor_survival_floor(1.0 / 16.0) == 0.0
        assert ana.andor_survival_floor(0.25) == 0.0
        for bad in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                ana.andor_survival_floor(bad)

    def test_pair_sum_closed_form(self):
        # With atom 1/2 at 0 and density 1/sqrt(u) on (0, 1/16]:
        # P(X + X' >= x) = 3/4 - 2 sqrt(x) - pi x for 0 < x <= 1/16.
        xs = np.array([0.001, 0.005, 0.01, 0.05])
        got = ana.andor_pair_sum_survival(xs)
        exact = 0.75 - 2.0 * np.sqrt(xs) - math.pi * xs
        assert np.abs(got - exact).max() <= 1e-6
        assert ana.andor_pair_sum_survival(0.0) == 1.0
        assert ana.andor_pair_sum_survival(0.13) == 0.0  # beyond 2/16
        assert math.isnan(ana.andor_pair_sum_survival(math.nan))

    def test_pair_sum_matches_convolution(self):
        # reference: the positive parts of X and X' as k equal-mass atoms at
        # their conditional quantiles ((1 - 2 s)/4)^2, s = (i - 1/2)/(2k),
        # paired by a sorted search; the atoms at 0 add floor(x) for x > 0
        k = 20_000
        s = (np.arange(k) + 0.5) / (2.0 * k)
        u = np.sort(((1.0 - 2.0 * s) / 4.0) ** 2)
        xs = np.concatenate([np.linspace(0.0, 0.14, 57), [0.5, 1.0]])
        want = []
        for x in xs:
            if x <= 0.0:
                want.append(1.0)
                continue
            pairs = int((k - np.searchsorted(u, x - u, side="left")).sum())
            want.append(ana.andor_survival_floor(x) + pairs / (4.0 * k * k))
        got = ana.andor_pair_sum_survival(xs)
        assert np.abs(got - np.array(want)).max() <= 1e-7

    def test_margin_is_exact_polynomial(self):
        # derive RHS - floor on (0, 1/16] exactly, as polynomials in s = sqrt(x)
        # with Fraction coefficients: floor = 1/2 - 2s and P(X + X' >= x) =
        # 3/4 - 2s - pi s^2, the pi part kept apart (RHS is linear in it)
        h, q = Fraction(1, 2), Fraction(1, 4)
        floor, up, down = [h, Fraction(-2)], [h, 0, q], [h, 0, -q]
        rational = P.polysub(P.polyadd(P.polymul(up, P.polymul(floor, floor)),
                                       P.polymul(down, [3 * q, Fraction(-2)])), floor)
        with_pi = P.polymul(down, [0, 0, Fraction(-1)])
        (a1, b1), (a2, b2) = ana._FLOOR_MARGIN
        assert list(rational) == [0, 0, a1, 0, a2]
        assert list(with_pi) == [0, 0, b1, 0, b2]
        rep = ana.andor_survival_floor_check(1000)
        near = (rep.xs > 0) & (rep.xs <= 1.0 / 16.0)
        xs = rep.xs[near]
        poly = (a1 + b1 * math.pi) * xs + (a2 + b2 * math.pi) * xs**2
        assert np.abs(rep.margins[near] - poly).max() <= 1e-12

    def test_certificate_proves_the_floor(self):
        cert = ana._floor_certificate(ana._FLOOR_MARGIN)
        assert cert["proved"] is True
        assert cert["pi_bounds"] == ["333/106", "355/113"]
        assert cert["margin"]["0 < x <= 1/16"] == "(15/8 + (-1/2)*pi)*x + (1 + (1/4)*pi)*x^2"
        assert cert["margin"]["x = 0"] == "1/2"
        assert cert["margin"]["x >= 1/8"] == "0"

    @pytest.mark.parametrize("margin", [
        ((Fraction(15, 8) - Fraction(15, 8), 0), (1, Fraction(1, 4))),  # pi/2 -> 15/8
        ((Fraction(15, 8) - 2, 0), (1, Fraction(1, 4))),                # pi/2 -> 2
        ((Fraction(15, 8), Fraction(-3, 5)), (1, Fraction(1, 4))),      # 15/8 < 3 pi/5
        ((Fraction(15, 8), Fraction(-1, 2)), (1, Fraction(-1, 2))),     # pi/4 -> -pi/2
        ((Fraction(15, 8), Fraction(-1, 2)), (0, 0)),
    ])
    def test_certificate_fails_on_a_perturbed_coefficient(self, margin, monkeypatch):
        assert ana._floor_certificate(margin)["proved"] is False
        monkeypatch.setattr(ana, "_FLOOR_MARGIN", margin)
        rep = ana.andor_survival_floor_check(120)
        assert rep.min_margin >= -rep.tolerance
        assert not rep.passed

    def test_floor_is_preserved_by_depth_recursion(self):
        rep = ana.andor_survival_floor_check(500)
        assert rep.passed
        assert rep.min_margin >= -1e-6
        # at x = 0: RHS = 1 while the floor is 1/2
        assert rep.margins[0] == pytest.approx(0.5, abs=1e-9)
        # near the origin the margin is ~0.304 x (analytic expansion)
        slope = rep.margins[1] / rep.xs[1]
        assert 0.25 <= slope <= 0.35
        # beyond x = 1/8 both sides vanish exactly
        assert rep.argmin_x >= 1.0 / 8.0 - 1e-9
        assert rep.min_margin == 0.0

    def test_report_shape_and_serialization(self):
        rep = ana.andor_survival_floor_check(120)
        assert len(rep.to_csv_rows()) == 120
        d = rep.to_json_dict()
        assert set(d) == {
            "min_margin", "argmin_x", "grid_resolution",
            "certificate", "tolerance", "passed",
        }

    def test_conv_points_is_accepted_and_ignored(self):
        # perfbench/workloads.py still passes it
        a = ana.andor_survival_floor_check(200, conv_points=20_000)
        b = ana.andor_survival_floor_check(200)
        assert a.to_json_dict() == b.to_json_dict()
        assert np.array_equal(a.rhs, b.rhs)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            ana.andor_survival_floor_check(50)

    def test_monte_carlo_respects_floor(self):
        for n in (2, 4):
            inst = make_instance(parse_spec("andor:%d" % n))
            for x in (0.01, 0.04):
                floor = ana.andor_survival_floor(x)
                g_hat = survival_curve(inst, 0.5, [x], 20_000, 77)[0]
                se = binom_se(g_hat, 20_000)
                assert g_hat >= floor - 3.0 * se


# ---------------------------------------------------------------------------
# grid count


def test_series_index_validated():
    # value(-1) read from the end; a float index raised TypeError
    series = ana.andor_x_seq(0.5, 3)
    assert series.value(np.int64(3)) == series.last_value
    for k in (-1, 4, 1.0, math.nan, True, None, "1"):
        for read in (series.value, series.log_value):
            with pytest.raises(ValueError, match="index"):
                read(k)


class TestGridCount:
    def test_constant_function_counts_every_point(self):
        inst = make_instance(FunctionSpec.truth_table([1] * 8))
        gc = ana.maj3_grid_count(
            inst, DynamicsParams(p=0.5, T=1.0, replicas=50, seed=7),
            0.25, target_prob=1.0,
        )
        assert gc.n_points == 4
        assert gc.spacing == 0.25
        assert (gc.Z == 4).all()

    def test_mean_matches_inverse_delta(self):
        inst = make_instance(parse_spec("itermaj3:2"))
        gc = ana.maj3_grid_count(
            inst, DynamicsParams(p=0.4, T=1.0, replicas=3000, seed=11), 0.25
        )
        a2 = 0.284483584
        assert gc.target_prob == pytest.approx(a2, abs=1e-12)
        assert gc.n_points == 14
        expect = gc.n_points * a2  # = 3.98, i.e. 1/delta up to the floor
        se = math.sqrt(gc.Z.var(ddof=1) / gc.replicas)
        assert abs(gc.Z.mean() - expect) <= 4.0 * se
        assert abs(gc.n_points * gc.spacing - 1.0) <= gc.spacing

    def test_positive_with_high_probability_below_cutoff(self):
        # Depth 6 at eps = 0.01 sits below the numerical cutoff (the sign
        # diagnostic is positive): a_6 = 0.388, ten grid points, E[Z] ~ 4.
        inst = make_instance(parse_spec("itermaj3:6"))
        gc = ana.maj3_grid_count(
            inst, DynamicsParams(p=0.49, T=1.0, replicas=800, seed=17), 0.25
        )
        assert gc.n_points == 10
        assert (gc.Z > 0).mean() >= 0.6  # measured 0.878

    def test_rarely_positive_at_shallow_scaled_bias(self):
        # The depth-6 surrogate of the scaled bias n^0.4 (2/3)^n gives
        # p = 0.3202, a_6 = 2.6e-7: the output is essentially never 1, so Z
        # is almost surely 0 even though E[Z] = 1/delta by construction.
        eps = 6**0.4 * (2.0 / 3.0) ** 6
        inst = make_instance(parse_spec("itermaj3:6"))
        gc = ana.maj3_grid_count(
            inst, DynamicsParams(p=0.5 - eps, T=1.0, replicas=400, seed=13), 0.25
        )
        assert gc.n_points > 10**6
        assert (gc.Z > 0).mean() <= 0.01  # measured 0.0

    def test_determinism(self):
        inst = make_instance(parse_spec("itermaj3:2"))
        dp = DynamicsParams(p=0.4, T=1.0, replicas=200, seed=5)
        z1 = ana.maj3_grid_count(inst, dp, 0.25).Z
        z2 = ana.maj3_grid_count(inst, dp, 0.25).Z
        assert (z1 == z2).all()

    @pytest.mark.parametrize("spec,T", [("itermaj3:2", 1.0), ("itermaj3:3", 20.0)])
    def test_equals_per_replica_replay(self, spec, T):
        # the batch kernel's switch times give Z exactly as a walk over
        # each replica's own trajectory
        inst = make_instance(parse_spec(spec))
        dp = DynamicsParams(p=0.45, T=T, replicas=300, seed=19)
        gc = ana.maj3_grid_count(inst, dp, 0.1)
        want = []
        for r in range(dp.replicas):
            traj = simulate_trajectory(inst, dp, r)
            out, prev, z = traj.initial_output, 0.0, 0
            for tt in traj.switch_times:
                if out == 1:
                    z += math.floor(tt / gc.spacing) - math.floor(prev / gc.spacing)
                out, prev = 1 - out, tt
            if out == 1:
                z += gc.n_points - math.floor(prev / gc.spacing)
            want.append(z)
        assert gc.Z.tolist() == want
        assert 0 < gc.Z.sum() < gc.n_points * dp.replicas

    def test_validation(self):
        inst = make_instance(parse_spec("itermaj3:2"))
        dp = DynamicsParams(p=0.4, T=1.0, replicas=10, seed=5)
        with pytest.raises(ValueError):
            ana.maj3_grid_count(inst, dp, 0.0)
        with pytest.raises(ValueError):
            ana.maj3_grid_count(inst, dp, 1.2)
        maj = make_instance(parse_spec("maj:3"))
        with pytest.raises(ValueError):
            ana.maj3_grid_count(maj, dp, 0.25)  # needs explicit target_prob
        with pytest.raises(ValueError):
            ana.maj3_grid_count(inst, dp, 0.25, target_prob=0.0)


# ---------------------------------------------------------------------------
# series container


class TestRecursionSeries:
    def test_csv_and_json_round_trip(self):
        s = ana.maj3_a_seq(0.4, 3)
        rows = s.to_csv_rows()
        assert rows[0] == (0, 0.4, "linear")
        assert len(rows) == 4
        d = s.to_json_dict()
        assert set(d) == {"series", "precision", "info"}
        assert d["precision"] is None
        assert d["series"][1][1] == pytest.approx(0.352)


# ---------------------------------------------------------------------------
# argument checks shared by the engines


class TestArgumentChecks:
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, -1, "3", None])
    def test_depth_must_be_a_nonnegative_integer(self, bad):
        calls = [
            lambda: ana.maj3_a_seq(0.4, bad),
            lambda: ana.maj3_pi_seq(0.1, bad),
            lambda: ana.Maj3Params(n=bad, epsilon=0.1),
            lambda: ana.andor_x_seq(0.5, bad),
            lambda: ana.andor_beta(bad, 0.5),
            lambda: ana.andor_switch_rate(bad),
            lambda: ana.andor_b_bound_seq(bad, 0.5),
            lambda: ana.maj3_cutoff_diagnostic(1.0, bad),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_depth_budget(self):
        # one series value per depth: the budget bounds time, memory and output
        assert len(ana.maj3_a_seq(0.5, ana.MAX_DEPTH).values) == ana.MAX_DEPTH + 1
        calls = [
            lambda n: ana.maj3_a_seq(0.4, n),
            lambda n: ana.maj3_pi_seq(0.1, n),
            lambda n: ana.Maj3Params(n=n, epsilon=0.1),
            lambda n: ana.andor_x_seq(0.5, n),
            lambda n: ana.andor_beta(n, 0.5),
            lambda n: ana.andor_switch_rate(n),
            lambda n: ana.andor_b_bound_seq(n, 0.5),
            lambda n: ana.maj3_cutoff_diagnostic(0.5, n),
        ]
        for call in calls:
            with pytest.raises(InstanceTooLarge, match="recursion budget"):
                call(ana.MAX_DEPTH + 1)

    def test_numpy_integer_depths_run_as_ints(self):
        n = np.int64(12)
        assert ana.maj3_a_seq(0.4, n).values == ana.maj3_a_seq(0.4, 12).values
        assert ana.maj3_pi_seq(0.1, n).values == ana.maj3_pi_seq(0.1, 12).values
        params = ana.Maj3Params(n=np.uint16(12), epsilon=0.1, t=0.5)
        assert type(params.n) is int
        assert ana.maj3_b_seq(params).values == ana.maj3_b_seq(
            ana.Maj3Params(n=12, epsilon=0.1, t=0.5)).values
        assert ana.andor_x_seq(0.5, n).values == ana.andor_x_seq(0.5, 12).values
        assert ana.andor_switch_rate(n) == ana.andor_switch_rate(12)
        assert ana.andor_b_bound_seq(n, 0.5).values == ana.andor_b_bound_seq(12, 0.5).values

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_time_must_be_nonnegative(self, bad):
        for call in (lambda: ana.Maj3Params(n=5, epsilon=0.1, t=bad),
                     lambda: ana.andor_x_seq(bad, 5),
                     lambda: ana.andor_beta(5, bad),
                     lambda: ana.andor_b_bound_seq(5, bad)):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_alpha_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="alpha"):
            ana.Maj3Params(n=10, alpha=bad)
        with pytest.raises(ValueError, match="alpha"):
            ana.maj3_cutoff_diagnostic(bad, 10)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_digits_must_be_a_positive_integer(self, bad):
        params = ana.Maj3Params(n=5, epsilon=0.1, t=0.5)
        for call in (lambda: ana.maj3_a_seq(0.4, 3, digits=bad),
                     lambda: ana.maj3_pi_seq(0.1, 3, digits=bad),
                     lambda: ana.maj3_b_seq(params, digits=bad),
                     lambda: ana._volatility_pass(params, None, bad)):
            with pytest.raises(ValueError, match="digits"):
                call()

    def test_digits_cap(self):
        # a mantissa grows about 3x per step up to the working precision, so
        # the precision is capped where the volatility ratio's search stops
        assert ana.maj3_a_seq(0.4, 2, digits=ana.MAX_DIGITS).precision == ana.MAX_DIGITS
        params = ana.Maj3Params(n=5, epsilon=0.1, t=0.5)
        over = ana.MAX_DIGITS + 1
        for call in (lambda: ana.maj3_a_seq(0.4, 14, digits=over),
                     lambda: ana.maj3_pi_seq(0.1, 14, digits=over),
                     lambda: ana.maj3_b_seq(params, digits=over),
                     lambda: ana._volatility_pass(params, None, over),
                     lambda: ana.maj3_cutoff_diagnostic(0.4, 20, digits=over),
                     lambda: ana.maj3_a_seq(0.4, 14, digits=10**8)):
            with pytest.raises(InstanceTooLarge, match="precision cap"):
                call()

    @pytest.mark.parametrize("bad", [None, "50", 2.5, True, 29])
    def test_cutoff_digits_must_be_an_integer_from_30(self, bad):
        with pytest.raises(ValueError, match="digits must be an integer >= 30"):
            ana.maj3_cutoff_diagnostic(0.4, 20, digits=bad)
