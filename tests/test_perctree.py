"""Tests for tree profiles, weight sequences, and the regime experiment.

Statistical assertions use z <= 4 against exact oracles (root-connectivity
recursion, exact total influence); structural assertions (nesting,
determinism, exact endpoint propagation) are bitwise.
"""

import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest

from boolvol import dynamics, oracle, perctree
from boolvol.dynamics import (
    _KEY_REPLICA,
    _U64,
    EVENT_BUDGET,
    DynamicsParams,
    _mix64,
    _mix64_int,
    _slots,
    estimate_C_distribution,
    simulate_trajectory,
)
from boolvol.errors import InstanceTooLarge, InvalidSpec, UnreachableTarget
from boolvol.functions import FunctionSpec, make_instance, parse_spec
from boolvol.perctree import (
    LevelProfile,
    build_profile,
    edge_skeleton,
    regime_experiment,
    weight_sequence,
)

NALPHA3_CHILDREN = (2, 16, 7, 5, 4, 3, 3, 3, 3, 3)


def theta_root(children, level, p=0.5):
    """P(root connects to `level`) for fresh i.i.d. edge states.

    Bottom-up: a vertex above a block of c subtrees connects iff at least
    one child edge is open (prob p) with a connecting subtree below it.
    """
    th = 1.0
    for c in reversed(children[:level]):
        th = 1.0 - (1.0 - p * th) ** c
    return th


def binom_se(prob, n):
    return math.sqrt(max(prob * (1.0 - prob), 1e-12) / n)


class TestLevelProfile:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            LevelProfile(())
        with pytest.raises(InvalidSpec):
            LevelProfile((2, 0, 3))
        with pytest.raises(InvalidSpec):
            LevelProfile((2, -1))
        with pytest.raises(InvalidSpec):
            LevelProfile((2, 2.5))

    def test_vertex_counts_exact(self):
        prof = LevelProfile((2, 16, 7))
        assert prof.n_levels == 3
        assert prof.vertex_count(0) == 1
        assert prof.vertex_count(1) == 2
        assert prof.vertex_count(2) == 32
        assert prof.vertex_count(3) == 224
        assert prof.vertex_counts() == [1, 2, 32, 224]

    def test_vertex_count_big_integer(self):
        prof = LevelProfile((3,) * 40)
        assert prof.vertex_count(40) == 3 ** 40  # exceeds 2**63; stays exact

    def test_edge_counts(self):
        assert LevelProfile((2,) * 12).edge_count(12) == 2 ** 13 - 2
        assert LevelProfile((2, 16, 7)).edge_count(3) == 2 + 32 + 224
        assert LevelProfile((2, 16, 7)).edge_count(1) == 2

    def test_spec_string_round_trip(self):
        prof = LevelProfile((2, 16, 7))
        spec = parse_spec(prof.spec_string(2))
        assert spec == FunctionSpec.perc((2, 16, 7), 2)

    def test_file_round_trip(self, tmp_path):
        prof = LevelProfile((2, 16, 7, 5))
        path = os.path.join(str(tmp_path), "profile.txt")
        prof.write(path)
        assert LevelProfile.read(path) == prof
        spec = parse_spec("perc:%s:3" % path)
        assert spec.profile == (2, 16, 7, 5)


class TestWeightSequence:
    def test_binary_weights_are_one(self):
        ws = weight_sequence(LevelProfile((2,) * 10))
        assert all(abs(lw) <= 1e-12 for lw in ws.log_w)
        assert all(abs(w - 1.0) <= 1e-12 for w in ws.w_values())

    def test_quaternary_weights(self):
        ws = weight_sequence(LevelProfile((4, 4, 4)))
        assert np.allclose(ws.w_values(), [2.0, 4.0, 8.0], rtol=1e-12)

    def test_weight_times_two_to_k_is_vertex_count(self):
        prof = LevelProfile(NALPHA3_CHILDREN)
        ws = weight_sequence(prof)
        for k in range(1, 11):
            exact = prof.vertex_count(k)
            assert ws.vertex_count(k) == exact
            approx = math.exp(ws.log_w[k - 1]) * 2.0 ** k
            assert abs(approx - exact) <= 1e-9 * exact

    def test_weight_level_validated(self):
        ws = weight_sequence(LevelProfile((2, 3, 4)))
        assert ws.w(1) == pytest.approx(1.0) and ws.w(3) == pytest.approx(3.0)
        for k in (0, -1, 4):
            with pytest.raises(InvalidSpec, match="outside 1..3"):
                ws.w(k)

    def test_serialization_shapes(self):
        ws = weight_sequence(LevelProfile((4, 4, 4)))
        rows = ws.to_csv_rows()
        assert len(rows) == 3 and rows[0][0] == 1
        d = ws.to_json_dict()
        assert d["children"] == [4, 4, 4]
        assert len(d["log_w"]) == 3


class TestBuildProfile:
    def test_constant_target_gives_binary_tree(self):
        prof = build_profile("constant", 8)
        assert prof.children == (2,) * 8
        assert all(abs(lw) <= 1e-12 for lw in weight_sequence(prof).log_w)

    def test_doubling_target_gives_quaternary_tree(self):
        prof = build_profile(lambda k: 2.0 ** k, 6)
        assert prof.children == (4,) * 6

    def test_nalpha3_frozen_children(self):
        prof = build_profile("nalpha:3", 10)
        assert prof.children == NALPHA3_CHILDREN

    def test_nalpha3_within_factor_four(self):
        prof = build_profile("nalpha:3", 10)
        ws = weight_sequence(prof)
        for k in range(1, 11):
            assert abs(ws.log_w[k - 1] - 3.0 * math.log(k)) <= math.log(4.0)

    def test_logn_enforced_from_level_two(self):
        prof = build_profile("logn", 12)
        rows = prof.report
        assert rows[0]["enforced"] is False  # log 1 = 0 is below the grid
        for row in rows[1:]:
            assert row["enforced"] is True
            assert abs(row["log_error"]) <= math.log(4.0)

    def test_other_named_targets_build(self):
        for name in ("logn1p:1", "nlogn:2", "nalpha:0.5"):
            prof = build_profile(name, 12)
            for row in prof.report:
                if row["enforced"]:
                    assert abs(row["log_error"]) <= math.log(4.0)

    def test_unreachable_target_reports_level(self):
        # level 1 demands 2000 children; level 2 then cannot shrink the
        # vertex count back down to 4 * 0.6 with integer child counts
        target = {1: 1000.0, 2: 0.6}
        with pytest.raises(UnreachableTarget) as exc:
            build_profile(lambda k: target.get(k, 1.0), 4)
        assert exc.value.level == 2

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            build_profile("constant", 1)
        with pytest.raises(InvalidSpec):
            build_profile("nosuchtarget", 5)
        with pytest.raises(InvalidSpec):
            build_profile("nalpha:", 5)

    def test_deterministic(self):
        assert build_profile("nlogn:1.5", 9) == build_profile("nlogn:1.5", 9)


def edge_law(monkeypatch, p, T, N):
    """(rings, x0, xT, changes) of edges 0..N-1 of one replica: the rings
    their skeletons draw, and per edge its state at 0 and T and its number
    of state changes.  Each recorded state is the other one than before."""
    rings = [0]
    slot_ticks = dynamics._slot_ticks

    def spy(keys, counts, flip):
        rings[0] += int(counts.sum())
        return slot_ticks(keys, counts, flip)

    monkeypatch.setattr(dynamics, "_slot_ticks", spy)
    sks = [edge_skeleton(5, 0, e, p=p, T=T) for e in range(N)]
    for sk in sks:
        assert list(sk.states) == [(sk.initial + k + 1) % 2 for k in range(len(sk.states))]
    x0 = np.array([sk.initial for sk in sks]) == 1
    changes = np.array([len(sk.times) for sk in sks])
    return rings[0], x0, x0 ^ (changes % 2 == 1), changes


def assert_two_state_law(p, T, rings, x0, xT, changes):
    """Within 4 SE: rings at rate r = max(p, 1 - p), and the stationary
    two-state chain jumping 0 -> 1 at rate p and 1 -> 0 at rate 1 - p."""
    N, r = x0.size, max(p, 1 - p)
    assert abs(rings / N - r * T) <= 4 * math.sqrt(r * T / N)
    assert abs(x0.mean() - p) <= 4 * binom_se(p, N)
    assert abs(xT.mean() - p) <= 4 * binom_se(p, N)
    assert abs(changes.mean() - 2 * p * (1 - p) * T) <= 4 * changes.std(ddof=1) / math.sqrt(N)
    both = p * p + p * (1 - p) * math.exp(-T)
    assert abs(np.mean(x0 & xT) - both) <= 4 * binom_se(both, N)


class TestEdgeSkeleton:
    def test_deterministic_and_distinct(self):
        a = edge_skeleton(7, 3, 11)
        b = edge_skeleton(7, 3, 11)
        assert a == b
        assert edge_skeleton(7, 3, 12) != a or edge_skeleton(7, 4, 11) != a

    def test_times_sorted_in_horizon(self):
        for eid in range(50):
            sk = edge_skeleton(1, 0, eid, T=2.5)
            assert all(0.0 <= t < 2.5 for t in sk.times)
            assert list(sk.times) == sorted(sk.times)
            assert len(sk.states) == len(sk.times)

    def test_marginals(self, monkeypatch):
        # across many edges: initial ~ Bernoulli(p), rings ~ Poisson(r T)
        # with r = max(p, 1 - p), and the two-state law of the edge
        p, T, N = 0.3, 1.5, 4000
        assert_two_state_law(p, T, *edge_law(monkeypatch, p, T, N))

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("T", [1.0, 40.0])
    def test_two_state_law(self, monkeypatch, p, T):
        assert_two_state_law(p, T, *edge_law(monkeypatch, p, T, 500))

    def test_horizon_past_event_budget_refused(self):
        # a long horizon is slotted, so its ring counts stay Poisson(r T)
        # where one Poisson(r T) table would underflow (r T > ~745); at
        # p = 1/2 every ring changes the edge
        T, N = 1600.0, 200
        counts = np.array([len(edge_skeleton(1, r, 0, T=T).times) for r in range(N)])
        assert abs(counts.mean() - T / 2) <= 4 * math.sqrt(T / 2 / N)
        assert counts.std() > 0
        for T in (math.inf, 2.0 * EVENT_BUDGET):
            with pytest.raises(InstanceTooLarge):
                edge_skeleton(1, 0, 0, T=T)

    @pytest.mark.parametrize("T", [1.0, 2.5, 40.0])
    def test_single_edge_trajectory_is_edge_skeleton(self, T):
        # perc:1:1 is one edge; its output switches where the edge flips
        inst = make_instance(parse_spec("perc:1:1"))
        params = DynamicsParams(p=0.4, T=T, seed=21, replicas=30)
        for r in range(30):
            sk = edge_skeleton(21, r, 0, p=0.4, T=T)
            flips, cur = [], sk.initial
            for t, s in zip(sk.times, sk.states):
                if s != cur:
                    flips.append(t)
                cur = s
            tr = simulate_trajectory(inst, params, r)
            assert tr.initial_output == sk.initial
            assert tr.switch_times == flips

    def test_validation(self):
        for T in (-20.0, float("nan")):
            with pytest.raises(ValueError, match="horizon"):
                edge_skeleton(1, 0, 0, T=T)
        with pytest.raises(ValueError, match="p must"):
            edge_skeleton(1, 0, 0, p=2.0)
        for seed in (2.5, 3.0):
            with pytest.raises(ValueError, match="seed"):
                edge_skeleton(seed, 0, 0)

    @pytest.mark.parametrize("replica,edge_id", [(-1, 0), (0.5, 0), (2**64, 0),
                                                 (0, -1), (0, 2.0), (0, 2**64)])
    def test_rejects_bad_ids(self, replica, edge_id):
        with pytest.raises(ValueError, match="must be an integer"):
            edge_skeleton(1, replica, edge_id)

    def test_accepts_every_64_bit_id(self):
        last = edge_skeleton(1, 2**64 - 1, 2**64 - 1, T=3.0)
        assert last == edge_skeleton(1, np.uint64(2**64 - 1), 2**64 - 1, T=3.0)

    def test_degenerate_p(self):
        assert edge_skeleton(1, 0, 0, p=0.0).initial == 0
        assert edge_skeleton(1, 0, 0, p=1.0).initial == 1
        assert all(s == 1 for s in edge_skeleton(1, 0, 3, p=1.0).states)


def reference_regime(children, levels, p, T, replicas, seed):
    """Naive per-replica evaluator built on the public edge skeletons.

    Independent reimplementation of the interval algebra: alternation walk
    per edge, two-pointer intersection down each path, sort-merge union per
    level. Used for bitwise comparison against the vectorized engine.
    """
    n = len(children)
    v = [1]
    for c in children:
        v.append(v[-1] * c)
    offsets = [0, 0]
    for k in range(1, n):
        offsets.append(offsets[k] + v[k])

    def open_intervals(sk):
        out, cur, start = [], bool(sk.initial), 0.0
        for t, s in zip(sk.times, sk.states):
            s = bool(s)
            if s != cur:
                if cur:
                    if t > start:
                        out.append((start, t))
                else:
                    start = t
                cur = s
        if cur and T > start:
            out.append((start, T))
        return out

    def intersect(a, b):
        out, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return out

    levels = sorted(set(levels))
    out = {L: {"init": [], "C": [], "S": []} for L in levels}
    for r in range(replicas):
        frontier = [(0, [(0.0, T)])]
        reached = {}
        for k in range(1, max(levels) + 1):
            c = children[k - 1]
            nxt = []
            for vidx, reach in frontier:
                for a in range(c):
                    child = vidx * c + a
                    sk = edge_skeleton(seed, r, offsets[k] + child, p=p, T=T)
                    riv = intersect(reach, open_intervals(sk))
                    if riv:
                        nxt.append((child, riv))
            frontier = nxt
            if k in levels:
                ivs = sorted(iv for _, reach in frontier for iv in reach)
                merged = []
                for lo, hi in ivs:
                    if merged and lo <= merged[-1][1]:
                        merged[-1][1] = max(merged[-1][1], hi)
                    else:
                        merged.append([lo, hi])
                reached[k] = merged
            if not frontier:
                for L in levels:
                    reached.setdefault(L, [])
                break
        for L in levels:
            U = reached[L]
            out[L]["init"].append(1 if U and U[0][0] == 0.0 else 0)
            out[L]["C"].append(
                sum((1 if lo > 0.0 else 0) + (1 if hi < T else 0) for lo, hi in U))
            out[L]["S"].append(sum(1 for _, hi in U if hi < T))
    return out


class TestRegimeExperiment:
    def test_single_level_or_gate(self):
        # level-1 tree with two child edges is an OR of two bits
        rep = regime_experiment(LevelProfile((2,)), [1], replicas=4000, seed=3)
        lv = rep.levels[0]
        assert abs(lv.p_one - 0.75) <= 4 * binom_se(0.75, 4000)
        # exact mean switch count via total influence
        inst = make_instance(FunctionSpec.perc((2,), 1))
        exact_c = oracle.exact_total_influence(inst, 0.5)
        se = math.sqrt(lv.empirical.var_C / 4000)
        assert abs(lv.mean_C - exact_c) <= 4 * se
        assert lv.p_always_zero == pytest.approx(1.0 - lv.p_ever_one, abs=1e-15)

    def test_connectivity_matches_recursion(self):
        rep = regime_experiment(LevelProfile((2,) * 4), [1, 2, 4],
                                replicas=4000, seed=11)
        for lv in rep.levels:
            exact = theta_root((2,) * 4, lv.level)
            assert abs(lv.p_one - exact) <= 4 * binom_se(exact, 4000), lv.level

    def test_nested_events_exactly_monotone(self):
        rep = regime_experiment(LevelProfile((2,) * 6), [2, 4, 6],
                                replicas=2000, seed=19)
        e2, e4, e6 = [lv.empirical for lv in rep.levels]
        for shallow, deep in ((e2, e4), (e4, e6)):
            init_s, init_d = shallow.initial, deep.initial
            assert np.all(init_d <= init_s)
            ever_s = (init_s == 1) | (shallow.C >= 1)
            ever_d = (init_d == 1) | (deep.C >= 1)
            assert np.all(ever_d <= ever_s)
            alw_s = (init_s == 1) & (shallow.C == 0)
            alw_d = (init_d == 1) & (deep.C == 0)
            assert np.all(alw_d <= alw_s)
        assert rep.levels[0].p_one >= rep.levels[1].p_one >= rep.levels[2].p_one

    def test_level_list_does_not_change_trajectories(self):
        prof = LevelProfile((2,) * 6)
        full = regime_experiment(prof, [2, 4, 6], replicas=500, seed=23)
        solo = regime_experiment(prof, [4], replicas=500, seed=23)
        shuffled = regime_experiment(prof, [6, 2, 4], replicas=500, seed=23)
        lv_full = next(lv for lv in full.levels if lv.level == 4)
        lv_solo = solo.levels[0]
        assert np.array_equal(lv_full.empirical.C, lv_solo.empirical.C)
        assert np.array_equal(lv_full.empirical.initial, lv_solo.empirical.initial)
        for a, b in zip(full.levels, sorted(shuffled.levels, key=lambda l: l.level)):
            assert np.array_equal(a.empirical.C, b.empirical.C)

    def test_block_size_invariance(self):
        prof = LevelProfile((3, 2, 2))
        a = _run_regime(prof.children, [1, 3], dict(replicas=257, seed=5, block=7))
        b = _run_regime(prof.children, [1, 3], dict(replicas=257, seed=5, block=64))
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.empirical.C, lb.empirical.C)
            assert np.array_equal(la.empirical.S, lb.empirical.S)
            assert np.array_equal(la.empirical.initial, lb.empirical.initial)

    @pytest.mark.slow
    def test_matches_reference_engine_exactly(self):
        cases = [
            ((2, 2, 2, 2), [1, 2, 3, 4], 0.5, 1.0, 13),
            ((3, 1, 2), [1, 2, 3], 0.3, 0.7, 29),
            ((2, 16, 3), [2, 3], 0.5, 1.0, 31),
            # most edges hold several open spans, under fragmented reaches
            ((2, 3, 2), [1, 2, 3], 0.5, 6.0, 41),
        ]
        for children, levels, p, T, seed in cases:
            rep = regime_experiment(LevelProfile(children), levels, p=p, T=T,
                                    replicas=300, seed=seed)
            ref = reference_regime(children, levels, p, T, 300, seed)
            for lv in rep.levels:
                want = ref[lv.level]
                assert np.array_equal(lv.empirical.initial, want["init"]), (children, lv.level)
                assert np.array_equal(lv.empirical.C, want["C"]), (children, lv.level)
                assert np.array_equal(lv.empirical.S, want["S"]), (children, lv.level)

    def test_matches_eager_dynamics_engine(self):
        # same law as the event-driven simulator on the materialized instance
        children = (2, 16, 7)
        lazy = regime_experiment(LevelProfile(children), [3],
                                 replicas=1200, seed=101).levels[0]
        inst = make_instance(FunctionSpec.perc(children, 3))
        eager = estimate_C_distribution(
            inst, DynamicsParams(p=0.5, T=1.0, seed=909, replicas=1200))
        for attr in ("p_initial_one", "p_ever_one"):
            a, b = getattr(lazy.empirical, attr), getattr(eager, attr)
            se = math.sqrt(a * (1 - a) / 1200 + b * (1 - b) / 1200) or 1e-6
            assert abs(a - b) <= 4.5 * se, attr
        se_c = math.sqrt(lazy.empirical.var_C / 1200 + eager.var_C / 1200)
        assert abs(lazy.mean_C - eager.mean_C) <= 4.5 * se_c

    @pytest.mark.parametrize("T", [1.0, 2.5, 40.0, 800.0])
    def test_matches_eager_engine_exactly(self, T):
        # both engines replay each edge from the same slotted skeleton
        children, level = ((2, 3, 2), 3) if T < 100 else ((2, 2), 2)
        replicas = 400 if T < 100 else 20
        lazy = regime_experiment(LevelProfile(children), [level], p=0.4, T=T,
                                 replicas=replicas, seed=17).levels[0].empirical
        inst = make_instance(FunctionSpec.perc(children, level))
        eager = estimate_C_distribution(
            inst, DynamicsParams(p=0.4, T=T, seed=17, replicas=replicas))
        assert np.array_equal(lazy.initial, eager.initial)
        assert np.array_equal(lazy.C, eager.C)
        assert np.array_equal(lazy.S, eager.S)
        assert lazy.C.sum() > 0

    def test_always_zero_lower_bound(self):
        # a root edge that starts closed and never updates stays closed;
        # with c_1 root edges: P(always zero) >= ((1/2) e^{-1})^{c_1}
        rep = regime_experiment(LevelProfile(NALPHA3_CHILDREN), [4],
                                replicas=3000, seed=77)
        bound = (0.5 * math.exp(-1.0)) ** 2
        p0 = rep.levels[0].p_always_zero
        assert p0 >= bound - 4 * binom_se(bound, 3000)

    def test_degenerate_p(self):
        always = regime_experiment(LevelProfile((2, 2)), [2], p=1.0,
                                   replicas=50, seed=1).levels[0]
        assert always.p_one == 1.0 and always.p_always_one == 1.0
        assert always.mean_C == 0.0
        never = regime_experiment(LevelProfile((2, 2)), [2], p=0.0,
                                  replicas=50, seed=1).levels[0]
        assert never.p_ever_one == 0.0 and never.mean_C == 0.0

    def test_zero_horizon_is_static(self):
        rep = regime_experiment(LevelProfile((2,) * 3), [3], T=0.0,
                                replicas=3000, seed=13).levels[0]
        assert rep.mean_C == 0.0
        assert float(np.max(rep.empirical.S)) == 0.0
        assert rep.p_always_one == rep.p_one == rep.p_ever_one
        exact = theta_root((2,) * 3, 3)
        assert abs(rep.p_one - exact) <= 4 * binom_se(exact, 3000)

    def test_nonstandard_p_flag(self):
        prof = LevelProfile((2, 2))
        assert regime_experiment(prof, [1], replicas=10, seed=1).nonstandard_p is False
        rep = regime_experiment(prof, [1], p=0.4, replicas=10, seed=1)
        assert rep.nonstandard_p is True
        assert rep.to_json_dict()["nonstandard_p"] is True

    def test_validation(self):
        prof = LevelProfile((2, 2))
        with pytest.raises(InvalidSpec):
            regime_experiment(prof, [], replicas=10, seed=1)
        with pytest.raises(InvalidSpec):
            regime_experiment(prof, [0], replicas=10, seed=1)
        with pytest.raises(InvalidSpec):
            regime_experiment(prof, [3], replicas=10, seed=1)
        with pytest.raises(ValueError):
            regime_experiment(prof, [1], replicas=0, seed=1)
        with pytest.raises(ValueError):
            regime_experiment(prof, [1], p=1.5, replicas=10, seed=1)
        with pytest.raises(ValueError):
            regime_experiment(prof, [1], T=-1.0, replicas=10, seed=1)
        with pytest.raises(ValueError, match="horizon"):
            regime_experiment(prof, [1], T=float("nan"), replicas=10, seed=1)
        for bad in ([2.5], [True], [1, 2.0], [np.float64(2)]):
            with pytest.raises(InvalidSpec, match="levels must be integers"):
                regime_experiment(prof, bad, replicas=10, seed=1)

    def test_numpy_integer_levels(self):
        prof = LevelProfile((2, 2, 2))
        got = regime_experiment(prof, [np.int64(2)], replicas=200, seed=1)
        want = regime_experiment(prof, [2], replicas=200, seed=1)
        assert got.to_json_dict() == want.to_json_dict()
        assert type(got.levels[0].level) is int
        assert np.array_equal(got.levels[0].empirical.C, want.levels[0].empirical.C)

    def test_horizon_past_event_budget_refused(self):
        # the budget counts the root edges' expected updates, c_1 * T
        prof = LevelProfile((2, 2))
        assert regime_experiment(prof, [1], T=800.0, replicas=2, seed=1).T == 800.0
        for T in (math.inf, EVENT_BUDGET / 2 * 1.001):
            with pytest.raises(InstanceTooLarge, match="events per replica"):
                regime_experiment(prof, [2], T=T, replicas=10, seed=1)
        # the root edges expect 2e6 updates, under EVENT_BUDGET, but one
        # replica's descent expects about 6e6 draws
        with pytest.raises(InstanceTooLarge, match="draws"):
            regime_experiment(prof, [2], T=1e6, replicas=1, seed=1)

    def test_draw_bound_sets_the_block(self, monkeypatch):
        # at this horizon every edge is drawn, so the bound is the exact
        # mean; a block holds at most _BLOCK_DRAWS expected draws
        children, T = (2, 2), 2000.0
        bound = perctree._draws_per_replica(children, 0.5, T)
        blocks, drawn, peaks = [], [0], []
        explore, skeleton = perctree._explore_block, perctree._skeleton
        step = perctree._level_step

        def explore_spy(*args):
            blocks.append(args[-2] - args[-3])
            return explore(*args)

        def skeleton_spy(keys, *args):
            out = skeleton(keys, *args)
            drawn[0] += keys.size + out[0].size
            return out

        def step_spy(*args):
            # the memory a level step allocates, per draw it makes: level 2
            # holds about 500 open spans and 500 parent intervals per edge,
            # some 125 (span, interval) pairs per draw if all were paired
            before = drawn[0]
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = step(*args)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / (drawn[0] - before))
            if not tracing:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(perctree, "_explore_block", explore_spy)
        monkeypatch.setattr(perctree, "_skeleton", skeleton_spy)
        monkeypatch.setattr(perctree, "_level_step", step_spy)
        rep = regime_experiment(LevelProfile(children), [2], T=T, replicas=100, seed=3)
        assert len(blocks) > 1
        assert max(blocks) * bound <= perctree._BLOCK_DRAWS < (max(blocks) + 1) * bound
        assert sum(blocks) == 100
        # the bound is on the mean; the total draw count is near Poisson
        assert drawn[0] <= 100 * bound + 4.5 * math.sqrt(100 * bound)
        # the arrays of a step stay near 80 bytes per draw at any horizon
        assert len(peaks) == 2 * len(blocks) and max(peaks) < 160
        small = _run_regime(children, [2], dict(T=T, replicas=100, seed=3,
                                                block=7)).levels[0].empirical
        assert np.array_equal(rep.levels[0].empirical.C, small.C)

    def test_edge_cap(self, monkeypatch):
        # a tree's size is bounded only by its 64-bit edge ids: binary-63
        # has 2^64 - 2 edges, binary-64 twice that.  Slightly supercritical,
        # some replicas reach level 63, whose edge ids pass 2^63
        rep = regime_experiment(LevelProfile((2,) * 63), [63], p=0.55, T=0.05,
                                replicas=20, seed=1)
        assert rep.levels[0].p_one > 0.0
        # 10.24M edges: the draw budget refuses it, not the size
        with pytest.raises(InstanceTooLarge, match="draws"):
            regime_experiment(LevelProfile((3200, 3200)), [2], replicas=10, seed=1)

        def no_draws(*args):
            raise AssertionError("drew edges")

        # a reached vertex draws all its children at once: 2^20 of them is
        # the widest level accepted, even when few replicas reach it
        regime_experiment(LevelProfile((1, 2**20)), [2], p=1e-4, replicas=10, seed=1)

        monkeypatch.setattr(perctree, "_explore_block", no_draws)
        with pytest.raises(InstanceTooLarge, match="2\\^64 edge ids"):
            regime_experiment(LevelProfile((2,) * 64), [10, 64], replicas=10, seed=1)
        with pytest.raises(InstanceTooLarge, match="children drawn at once"):
            regime_experiment(LevelProfile((1, 2**20 + 1)), [2], p=1e-4,
                              replicas=10, seed=1)

    def test_deepest_binary_63_edges_keep_their_streams(self):
        # the last level-63 edges of binary-63 have ids 2^64 - 4 and
        # 2^64 - 3; a level step from their parent, reached throughout,
        # passes on exactly the open spans of their edge skeletons
        p, T, seed, nrep = 0.5, 2.0, 4, 16
        offset = perctree._edge_offsets((2,) * 63)[63]
        parent = 2**62 - 1
        rep = np.arange(nrep, dtype=np.int64)
        repk = _mix64(_U64(_mix64_int(seed)) + rep.astype(np.uint64) * _U64(_KEY_REPLICA))
        front = perctree._Frontier(
            rep=rep, repk=repk, vidx=np.full(nrep, parent, dtype=np.uint64),
            rs=np.zeros(nrep), re=np.full(nrep, T), rc=np.ones(nrep, dtype=np.int64))
        child = perctree._level_step(front, 2, offset, p, _slots(2, T, p), T)
        ends = np.cumsum(child.rc)
        got = {(int(r), int(v)): list(zip(child.rs[e - n:e], child.re[e - n:e]))
               for r, v, n, e in zip(child.rep, child.vidx, child.rc, ends)}
        assert offset + 2 * parent + 1 == 2**64 - 3
        for r in range(nrep):
            for col in (0, 1):
                sk = edge_skeleton(seed, r, offset + 2 * parent + col, p=p, T=T)
                spans, start = [], 0.0 if sk.initial else None
                for t, s in zip(sk.times, sk.states):
                    if s and start is None:
                        start = t
                    elif not s and start is not None:
                        spans.append((start, t))
                        start = None
                if start is not None:
                    spans.append((start, T))
                assert got.pop((r, 2 * parent + col), []) == spans
        assert not got

    def test_level_list_does_not_change_trajectories_past_ten_million_edges(self):
        # binary-40 has 2^41 - 2 edges; requesting its deepest level does
        # not move the draws of level 10
        prof = LevelProfile((2,) * 40)
        solo = regime_experiment(prof, [10], replicas=300, seed=23).levels[0]
        full = regime_experiment(prof, [10, 40], replicas=300, seed=23).level(10)
        assert np.array_equal(full.empirical.C, solo.empirical.C)
        assert np.array_equal(full.empirical.initial, solo.empirical.initial)

    def test_deterministic_and_seed_sensitive(self):
        prof = LevelProfile((2,) * 5)
        a = regime_experiment(prof, [2, 5], replicas=400, seed=55)
        b = regime_experiment(prof, [2, 5], replicas=400, seed=55)
        c = regime_experiment(prof, [2, 5], replicas=400, seed=56)
        assert a.to_json_dict() == b.to_json_dict()
        assert any(np.any(x.empirical.C != y.empirical.C)
                   for x, y in zip(a.levels, c.levels))

    def test_report_serialization(self):
        rep = regime_experiment(LevelProfile((2, 2)), [1, 2], replicas=60, seed=9)
        d = rep.to_json_dict()
        assert d["profile"] == [2, 2]
        assert d["replicas"] == 60 and d["p"] == 0.5
        keys = {"level", "p_one", "p_ever_one", "p_always_one",
                "p_always_zero", "mean_C", "var_C", "mean_S"}
        for lvd in d["levels"]:
            assert keys <= set(lvd)
        rows = rep.to_csv_rows()
        assert len(rows) == 2 and rows[0][0] == 1


# (profile, levels, keyword arguments) -> sha256 of (C, S, initial) per
# level.  Re-recorded when the edges moved to flip and push rings at rate
# max(p, 1 - p); the level step may list its vertices in any order, but no
# draw and no output bit may move.  `python tests/test_perctree.py` prints
# the current digests.
FROZEN_REGIMES = [
    ((2,) * 12, [4, 8, 12], dict(replicas=300, seed=11), {
        4: "46555c2a9fe348b5559c711072b9fa6789ca3f6e9f4053056ea9196d23996fa1",
        8: "509fa81d5683a1b65864db20261367dcc0ee9198c4ff66ba6a1715ea62b475ab",
        12: "6048832574dd63281bee10c506fa70b1e76a56111e690627444572f44c35b9d6",
    }),
    (NALPHA3_CHILDREN, [1, 2, 4, 10], dict(replicas=40, seed=12), {
        1: "4efe71d56bf0702623428085b00ab5eaf37be94a13b8a1cff23426df0b19abb8",
        2: "4efe71d56bf0702623428085b00ab5eaf37be94a13b8a1cff23426df0b19abb8",
        4: "4efe71d56bf0702623428085b00ab5eaf37be94a13b8a1cff23426df0b19abb8",
        10: "4efe71d56bf0702623428085b00ab5eaf37be94a13b8a1cff23426df0b19abb8",
    }),
    ((2, 3, 2, 3, 2), [1, 3, 5], dict(p=0.3, T=40.0, replicas=40, seed=13), {
        1: "2824a0415efb697e9700e3d9d844e72f6a7f1ad112f0f843ab7ed236439cdd9f",
        3: "a8f41d801f7e5f73f4aa852b361d50daf36fec89c6238612426e971f3f808aa9",
        5: "d2652458f5e2a1ba1352c9b9e584862233cfeeeb4422bb3bcf6b7fd37dc71897",
    }),
    ((3, 3, 3), [1, 2, 3], dict(T=0.0, replicas=200, seed=14), {
        1: "e9d64be46ad2d36e6302eda0513fd206479eb57dd1ff9d66772882e3e60f9cfb",
        2: "17bbda955bc1276fd159f0e71be9b753b96021559f94a4ede326946af05e9a01",
        3: "ae10150cf0497d488803110b637f19900c07b00748c222a93a60496f461b5fe8",
    }),
    ((2,) * 6, [1, 3, 6], dict(p=0.9, T=3.0, replicas=100, seed=15), {
        1: "5e6f2f692a922fc0773e87821f9fe25e697e179a985377b39287bb0867e30394",
        3: "5e6f2f692a922fc0773e87821f9fe25e697e179a985377b39287bb0867e30394",
        6: "5e6f2f692a922fc0773e87821f9fe25e697e179a985377b39287bb0867e30394",
    }),
    # 101 replicas in blocks of 13: the last block holds 10
    ((2, 3, 4), [1, 3], dict(T=5.0, replicas=101, seed=16, block=13), {
        1: "a0735e578d0f43b6b42a079b554aaa1b1aa07511ddabd8d12d5250be0cb0f83f",
        3: "2982b21a6a23acf5e33bd5a17d2768abc38ad43f934b0eef56fe4d6ccea7148a",
    }),
]


def _regime_digest(emp):
    h = hashlib.sha256()
    for a, dtype in ((emp.C, "<i8"), (emp.S, "<i8"), (emp.initial, "u1")):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


def _run_regime(children, levels, kw):
    """regime_experiment on the profile `children`; kw's "block", if given,
    is the number of replicas per block, set through perctree._BLOCK_DRAWS."""
    kw = dict(kw)
    block = kw.pop("block", None)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            draws = perctree._draws_per_replica(children[:max(levels)], kw.get("p", 0.5),
                                                kw.get("T", 1.0))
            mp.setattr(perctree, "_BLOCK_DRAWS", (block + 0.5) * draws)
        return regime_experiment(LevelProfile(children), levels, **kw)


def _regime_digests(children, levels, kw):
    rep = _run_regime(children, levels, kw)
    return {lv.level: _regime_digest(lv.empirical) for lv in rep.levels}


@pytest.mark.parametrize("children,levels,kw,want", FROZEN_REGIMES)
def test_regime_stream_is_frozen(children, levels, kw, want):
    assert _regime_digests(children, levels, kw) == want


def _random_frontier(rng, nrep, base_rep, T):
    """Vertices in random replica order, with abutting, equal and
    full-cover intervals; some replicas hold no vertex, some one interval."""
    grid = np.linspace(0.0, T, 9)
    occupied = rng.choice(nrep, size=min(nrep, 30), replace=False)
    rep, rc, rs, re = [], [], [], []
    for r in occupied:
        for _ in range(rng.integers(1, 4)):
            pts = np.unique(rng.choice(grid, size=2 * rng.integers(1, 4)))
            if pts.size % 2:
                pts = pts[:-1]
            if pts.size == 0:
                pts = grid[[2, 3]]
            rep.append(r)
            rc.append(pts.size // 2)
            rs.append(pts[0::2])
            re.append(pts[1::2])
    single = rng.choice(np.setdiff1d(np.arange(nrep), occupied))
    full = occupied[0]
    for r, s, e in ((single, 0.3 * T, 0.6 * T), (full, 0.0, T)):
        rep.append(r)
        rc.append(1)
        rs.append(np.array([s]))
        re.append(np.array([e]))
    order = rng.permutation(len(rep))
    ivs = [(rs[i], re[i]) for i in order]
    rep = np.array(rep, dtype=np.int64)[order] + base_rep
    front = perctree._Frontier(
        rep=rep, repk=rep.astype(np.uint64), vidx=np.zeros(rep.size, dtype=np.uint64),
        rs=np.concatenate([s for s, _ in ivs]), re=np.concatenate([e for _, e in ivs]),
        rc=np.array(rc, dtype=np.int64)[order])
    return front, single, full


@pytest.mark.parametrize("nrep", [40, 300, 70_000])
def test_union_stats_on_unordered_frontier(nrep):
    rng = np.random.default_rng(nrep)
    T, base_rep = 2.0, 1000
    for _ in range(5):
        front, single, full = _random_frontier(rng, nrep, base_rep, T)
        assert np.any(np.diff(front.rep) < 0)
        init = np.zeros(nrep, dtype=np.uint8)
        C = np.zeros(nrep, dtype=np.int64)
        perctree._union_stats(front, base_rep, nrep, T, init, C)

        want = np.zeros((3, nrep), dtype=np.int64)
        irep = np.repeat(front.rep - base_rep, front.rc)
        for r in np.unique(irep):
            merged = []
            for lo, hi in sorted(zip(front.rs[irep == r], front.re[irep == r])):
                if merged and lo <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], hi)
                else:
                    merged.append([lo, hi])
            want[0, r] = merged[0][0] == 0.0
            want[1, r] = sum(int(lo > 0.0) + int(hi < T) for lo, hi in merged)
            want[2, r] = sum(int(hi < T) for _, hi in merged)
        assert want[:, full].tolist() == [1, 0, 0]
        assert want[:, single].tolist() == [0, 2, 1]
        assert np.array_equal(init, want[0])
        assert np.array_equal(C, want[1])
        # switches alternate, so the start and C give the switches to 0
        assert np.array_equal((C + init) // 2, want[2])


def _open_spans(sk, T):
    """Open spans of one edge skeleton: rise (or 0) to fall (or T)."""
    out, cur, start = [], bool(sk.initial), 0.0
    for t, s in zip(sk.times, sk.states):
        if s and not cur:
            start = t
        elif cur and not s:
            out.append((start, t))
        cur = bool(s)
    if cur:
        out.append((start, T))
    return out


@pytest.mark.parametrize("p,T", [(0.5, 0.7), (0.3, 18.0)])
def test_level_step_intersects_every_reach_span_pair(p, T):
    # a hand-built level-3 frontier of (4, 4, 3), keyed as the descent keys
    # it, with full, fragmented and abutting reaches; every child must hold
    # the nonempty reach & span pieces of its edge, in time order
    c, offset, seed = 3, 4 + 16, 29
    rng = np.random.default_rng(int(T))
    grid = np.linspace(0.0, T, 13)
    verts = [(0, 3, [(0.0, T)]), (5, 0, [(0.0, T)]),
             (5, 7, [(0.0, grid[4]), (grid[4], grid[9])]),
             (9, 15, [(grid[1], grid[2]), (grid[2], grid[5]), (grid[7], T)])]
    # a reach split where its first child edge first switches: one piece on
    # each side of the switch touches the edge's span there and must vanish
    v1, t1 = next((v, sk.times[0]) for v in range(16)
                  for sk in [edge_skeleton(seed, 2, v * c + offset, p, T)]
                  if sk.times and sk.states[0] != sk.initial)
    verts.append((2, v1, [(0.0, t1), (t1, T)]))
    # reaches longer than _PAIR_ALL, which are bisected: 40 abutting
    # pieces, and every other piece of a grid cut at each update time of
    # the vertex's child edges, so reach and span ends coincide
    fine = np.linspace(0.0, T, 41)
    verts.append((4, 6, list(zip(fine[:-1], fine[1:]))))
    cuts = sorted(set(np.linspace(0.0, T, 20)).union(
        *(edge_skeleton(seed, 7, 8 * c + offset + col, p, T).times for col in range(c))))
    verts.append((7, 8, list(zip(cuts[0::2], cuts[1::2]))))
    for _ in range(40):
        pts = np.sort(rng.choice(grid, size=2 * int(rng.integers(1, 5)), replace=False))
        if rng.random() < 0.5:  # let some pieces abut
            pts[2::2] = np.minimum(pts[2::2], pts[1:-1:2])
        verts.append((int(rng.integers(0, 12)), int(rng.integers(0, 16)),
                      [(a, b) for a, b in zip(pts[0::2], pts[1::2]) if a < b]))
    rep = np.array([r for r, _, _ in verts], dtype=np.int64)
    seed0 = np.uint64(perctree._mix64_int(seed))
    front = perctree._Frontier(
        rep=rep,
        repk=perctree._mix64(seed0 + rep.astype(np.uint64) * np.uint64(perctree._KEY_REPLICA)),
        vidx=np.array([v for _, v, _ in verts], dtype=np.uint64),
        rs=np.array([a for *_, reach in verts for a, _ in reach]),
        re=np.array([b for *_, reach in verts for _, b in reach]),
        rc=np.array([len(reach) for *_, reach in verts], dtype=np.int64))
    child = perctree._level_step(front, c, offset, p, perctree._slots(1, T, p), T)

    got = {}
    off = 0
    for r, v, n in zip(child.rep.tolist(), child.vidx.tolist(), child.rc.tolist()):
        got.setdefault((r, v), []).append(
            list(zip(child.rs[off:off + n].tolist(), child.re[off:off + n].tolist())))
        off += n
    assert off == child.rs.size
    want = {}
    for r, v, reach in verts:
        for col in range(c):
            spans = _open_spans(edge_skeleton(seed, r, v * c + offset + col, p, T), T)
            pieces = [(max(a, s), min(b, e)) for a, b in reach for s, e in spans]
            pieces = [(lo, hi) for lo, hi in pieces if lo < hi]
            if pieces:
                want.setdefault((r, v * c + col), []).append(pieces)
    assert got == want
    assert sum(len(ps) > 1 for ivs in want.values() for ps in ivs) > 10
    assert sum(len(reach) > perctree._PAIR_ALL for *_, reach in verts) == 2
    by_rep = dict(zip(front.rep.tolist(), front.repk.tolist()))
    assert [by_rep[r] for r in child.rep.tolist()] == child.repk.tolist()


def test_repeated_runs_do_not_refault_block_memory():
    # a level step frees tens of MB in arrays of a few MB; once the engine
    # has set the allocator, later runs reuse that heap instead of taking
    # fresh pages from the kernel (about 36k minor faults without it)
    resource = pytest.importorskip("resource")
    if not perctree._hold_freed_memory():
        pytest.skip("the C library has no mallopt")
    prof = build_profile("nalpha:3", 10)
    regime_experiment(prof, range(4, 11), replicas=12)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        regime_experiment(prof, range(4, 11), replicas=12)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


# ---------------------------------------------------------------------------
# the lookahead along edges open throughout the horizon


@pytest.mark.parametrize("target", ["nlogn:-1", "logn1p:-2", "nalpha:1e308"])
def test_target_arithmetic_errors_are_invalid_spec(target):
    # log 1 = 0 raised to a negative power; 2^1e308 overflows
    with pytest.raises(InvalidSpec, match="cannot be evaluated"):
        build_profile(target, 5)


@pytest.mark.parametrize("max_ratio", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                                       0.5, True, "4", None])
def test_max_ratio_must_be_finite_and_at_least_one(max_ratio):
    with pytest.raises(InvalidSpec, match="max_ratio"):
        build_profile("nalpha:3", 5, max_ratio=max_ratio)


def test_max_ratio_of_one_is_accepted():
    assert build_profile("constant", 4, max_ratio=1).children == (2,) * 4
    assert build_profile("nalpha:3", 5, max_ratio=np.float64(4.0)).children == \
        NALPHA3_CHILDREN[:5]


def _lookahead_spy(monkeypatch):
    """Records how many replicas each lookahead call settles."""
    settled = []
    look = perctree._open_throughout

    def spy(*args):
        done = look(*args)
        settled.append((int(done.sum()), done.size))
        return done

    monkeypatch.setattr(perctree, "_open_throughout", spy)
    return settled


def _without_lookahead(monkeypatch):
    """Make every lookahead settle nothing, so each replica is descended."""
    monkeypatch.setattr(perctree, "_open_throughout",
                        lambda *args: np.zeros(args[-1].size, dtype=bool))


# each case expects at least one always-open path to its deepest level
LOOKAHEAD_CASES = [
    ((2, 3, 2), [1, 2, 3], 0.8, 1.0, 43),
    ((3, 3, 3), [1, 2, 3], 0.6, 0.0, 44),
    ((2, 3, 2), [1, 3], 1.0, 1.0, 45),
]


@pytest.mark.parametrize("children,levels,p,T,seed", LOOKAHEAD_CASES)
def test_lookahead_matches_reference_and_eager_engines(monkeypatch, children,
                                                       levels, p, T, seed):
    settled = _lookahead_spy(monkeypatch)
    rep = regime_experiment(LevelProfile(children), levels, p=p, T=T,
                            replicas=300, seed=seed)
    done = sum(d for d, _ in settled)
    assert sum(n for _, n in settled) == 300
    assert done == 300 if p == 1.0 else 0 < done < 300

    deepest = rep.levels[-1].empirical
    inst = make_instance(FunctionSpec.perc(children, levels[-1]))
    eager = estimate_C_distribution(
        inst, DynamicsParams(p=p, T=T, seed=seed, replicas=300))
    assert np.array_equal(deepest.initial, eager.initial)
    assert np.array_equal(deepest.C, eager.C)
    assert np.array_equal(deepest.S, eager.S)
    # the reference evaluator has no zero horizon (its reach [0, T) is empty)
    if T > 0:
        ref = reference_regime(children, levels, p, T, 300, seed)
        for lv in rep.levels:
            want = ref[lv.level]
            assert np.array_equal(lv.empirical.initial, want["init"]), lv.level
            assert np.array_equal(lv.empirical.C, want["C"]), lv.level
            assert np.array_equal(lv.empirical.S, want["S"]), lv.level


@pytest.mark.parametrize("children,levels,kw", [
    (NALPHA3_CHILDREN, list(range(4, 11)), dict(replicas=40, seed=12)),
    ((2, 3, 2), [1, 2, 3], dict(p=0.8, T=1.0, replicas=300, seed=46)),
    ((2,) * 6, [1, 3, 6], dict(p=0.9, T=3.0, replicas=200, seed=47, block=13)),
    ((3, 3, 3), [2, 3], dict(p=0.6, T=0.0, replicas=300, seed=48)),
    ((4, 4), [1, 2], dict(p=0.97, T=40.0, replicas=100, seed=49)),
])
def test_lookahead_changes_no_output(monkeypatch, children, levels, kw):
    settled = _lookahead_spy(monkeypatch)
    fast = _run_regime(children, levels, kw)
    assert sum(d for d, _ in settled) > 0
    _without_lookahead(monkeypatch)
    slow = _run_regime(children, levels, kw)
    for a, b in zip(fast.levels, slow.levels):
        assert np.array_equal(a.empirical.initial, b.empirical.initial), a.level
        assert np.array_equal(a.empirical.C, b.empirical.C), a.level
        assert np.array_equal(a.empirical.S, b.empirical.S), a.level


def _open_throughout_by_walk(children, depth, p, T, seed, replicas):
    """Replicas with a root path to `depth` of edges open throughout [0, T],
    by a depth-first walk over the public edge skeletons."""
    offsets = perctree._edge_offsets(children)

    def walk(r, k, vidx):
        if k > depth:
            return True
        c = children[k - 1]
        for col in range(c):
            sk = edge_skeleton(seed, r, offsets[k] + vidx * c + col, p=p, T=T)
            if sk.initial and all(sk.states) and walk(r, k + 1, vidx * c + col):
                return True
        return False

    return np.array([walk(r, 1, 0) for r in range(replicas)])


@pytest.mark.parametrize("children,p,T", [
    ((2, 3, 2), 0.8, 1.0),
    ((3, 3, 3), 0.6, 0.0),
    ((2, 4, 3), 0.9, 2.5),
    # three horizon slots: updates come from every slot's key
    ((3, 3), 0.97, 40.0),
])
def test_open_throughout_matches_a_walk_over_edge_skeletons(children, p, T):
    seed, replicas = 51, 200
    slots = perctree._slots(children[0], T, p)
    offsets = perctree._edge_offsets(children)
    rep = np.arange(replicas, dtype=np.uint64)
    repk = perctree._mix64(np.uint64(perctree._mix64_int(seed))
                           + rep * np.uint64(perctree._KEY_REPLICA))
    for depth in range(1, len(children) + 1):
        got = perctree._open_throughout(children, offsets, depth, p, slots, repk)
        want = _open_throughout_by_walk(children, depth, p, T, seed, replicas)
        assert np.array_equal(got, want), depth
        assert 0 < want.sum() < replicas, depth
    # a path open at time 0 that an update closes is not open throughout
    if T > 0:
        at_zero = _open_throughout_by_walk(children, len(children), p, 0.0, seed,
                                           replicas)
        assert np.any(at_zero & ~want)


def test_lookahead_work_counters(monkeypatch):
    # deterministic work counts, no timing: on the criterion-10 profile
    # the lookahead settles 17 of 40 replicas before the first level step;
    # on binary-12 at T = 1 it is gated off (about 0.0025 always-open
    # paths expected) and every draw happens inside a level step
    entered, outside = [], []
    depth = [0]
    step, draw, skeleton = perctree._level_step, perctree._draw, perctree._skeleton

    def step_spy(front, c, offset, *args):
        if offset == 0:
            entered.append(front.rep.size)
        depth[0] += 1
        try:
            return step(front, c, offset, *args)
        finally:
            depth[0] -= 1

    def draw_spy(*args):
        if not depth[0]:
            outside.append("_draw")
        return draw(*args)

    def skeleton_spy(*args):
        if not depth[0]:
            outside.append("_skeleton")
        return skeleton(*args)

    monkeypatch.setattr(perctree, "_level_step", step_spy)
    monkeypatch.setattr(perctree, "_draw", draw_spy)
    monkeypatch.setattr(perctree, "_skeleton", skeleton_spy)

    regime_experiment(LevelProfile(NALPHA3_CHILDREN), range(4, 11), replicas=40,
                      seed=12)
    assert sum(entered) == 23
    assert outside

    entered.clear()
    outside.clear()
    regime_experiment(LevelProfile((2,) * 12), [4, 8, 12], T=1.0, replicas=400,
                      seed=12)
    assert sum(entered) == 400
    assert outside == []


if __name__ == "__main__":
    # the current FROZEN_REGIMES digests, for re-recording a deliberate
    # stream change
    for children, levels, kw, _ in FROZEN_REGIMES:
        print(children, levels, kw)
        for level, digest in _regime_digests(children, levels, kw).items():
            print('        %d: "%s",' % (level, digest))
