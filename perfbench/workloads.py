"""The four benchmark workloads: fixed task lists over the public API.

A workload is run as a closed loop by one caller: each pass issues the
workload's task list back to back, and the next task starts only when the
previous one has returned.  Every pass draws its own seeds (and, where a
task has a continuous parameter, its own parameter values) from the run
seed, so no pass repeats the inputs of another.

Each workload has four parts:

* ``setup``      -- instances and profiles plus one small warm-up call of
                    every entry point; this is what ``setup_s`` times;
* ``references`` -- exact or closed-form values the checks compare against
                    (not timed);
* ``tasks``      -- the task list of one pass;
* task checks    -- run after each task, outside its timed interval.

Library calls go through module attributes at call time (``dyn.estimate...``)
so the traced run's wrappers see them.
"""

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import boolvol.analysis as ana
import boolvol.cli as cli
import boolvol.dynamics as dyn
import boolvol.experiments as exp
import boolvol.oracle as orc
import boolvol.perctree as perc
from boolvol.functions import make_instance, parse_spec

from checks import (
    all_finite,
    andor_pivotal_exact,
    itermaj3_total_influence_half,
    log_close,
    maj3_b_log_reference,
    majority_pivotality,
    perc_static_connect,
    perc_total_influence,
    pivotalities,
    prob_one,
    series_last_log,
    strict_json,
)

# Checks that reproduce ROADMAP 2(a): float maj3 recursions leave the float
# range, and the CLI then prints NaN, which is not JSON.
KNOWN_FLOAT_NONFINITE = "ROADMAP 2(a) float recursion value not finite"
KNOWN_FLOAT_VS_MPF = "ROADMAP 2(a) float recursion disagrees with mpf"
KNOWN_CLI_JSON = "ROADMAP 2(a) recursion CLI output not strict JSON"
# depth from which the float maj3 recursions leave the float range
FLOAT_RANGE_DEPTH = 1028

_MASK63 = (1 << 63) - 1


def mix_seed(*parts):
    """splitmix64 over the parts: a 63-bit seed that depends on all of them."""
    x = 0x243F6A8885A308D3
    for part in parts:
        x = (x + int(part) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 31
    return x & _MASK63


class Task:
    """One public library call or one in-process CLI invocation."""

    __slots__ = ("name", "fn", "check", "work", "tag")

    def __init__(self, name, fn, check, work, tag=None):
        self.name = name    # identical across passes: groups latencies
        self.fn = fn        # () -> output
        self.check = check  # (output, Checker) -> None
        self.work = work    # replicas, or truth-table configurations
        self.tag = tag      # short label used by per-layer metrics


def run_cli(argv):
    """boolvol.cli.main in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def _check_cli_payload(rc, text, schema, ck, label, known=None):
    ck.check(rc == 0, "%s: exit code %r" % (label, rc))
    payload = strict_json(text)
    ck.check(payload is not None, "%s: output is not strict JSON" % label, known)
    if payload is None:
        return None
    ck.check(payload.get("schema") == "boolvol/%s/v1" % schema,
             "%s: schema %r" % (label, payload.get("schema")))
    return payload


def _spec_parts(text):
    family, param = text.split(":")
    return family, int(param)


# ---------------------------------------------------------------------------
# Monte Carlo helpers


def _pool_counts(ck, key, want, counts):
    c = counts.astype(np.float64)
    ck.pool(key, want, float(c.sum()), float((c * c).sum()), int(c.size))


def _check_empirical(ck, label, est, want_C, want_S=None, want_one=None):
    ck.finite([est.mean_C, est.var_C, est.p_zero], label)
    _pool_counts(ck, label + " mean C", want_C, est.C)
    if want_S is not None:
        _pool_counts(ck, label + " mean S", want_S, est.S)
    if want_one is not None:
        ck.pool_prob(label + " P(f=1 at 0)", want_one,
                     int(est.initial.sum()), est.replicas)


def _closed_total_influence(spec_text, p, T=1.0):
    """E[C] on [0, T] from a closed form, or None if there is none here."""
    family, m = _spec_parts(spec_text)
    if family in ("maj", "parity", "dap", "type2"):
        return T * 2 * p * (1 - p) * math.fsum(pivotalities(family, m, p))
    if family == "itermaj3" and p == 0.5:
        return T * itermaj3_total_influence_half(m)
    if family == "andor" and p == 0.5:
        # stationary: as many 0->1 as 1->0 switches, E[S] = (n+2)/8 per unit
        return T * 2 * float(ana.andor_switch_rate(m).expected_switches_fraction)
    return None


class Workload:
    name = ""

    def __init__(self, seed):
        self.seed = seed
        self.refs = {}

    def pass_rng(self, pass_index):
        return random.Random(mix_seed(self.seed, pass_index, 0xABCD))

    def task_seed(self, pass_index, task_index):
        return mix_seed(self.seed, pass_index, task_index)


# ---------------------------------------------------------------------------
# mc-short: setup-bound Monte Carlo on small functions


class McShort(Workload):
    name = "mc-short"
    MIX = ("maj:9", "parity:8", "itermaj3:2", "andor:2", "type2:8")
    BIASES = (0.3, 0.5)
    PLANS = (
        ("parity", (4, 8, 16, 32)),
        ("dap", (8, 16, 32)),
        ("type2", (16, 32, 64)),
        ("andor", (3, 4, 5, 6, 7)),
    )
    JOINT = ("maj:9", "itermaj3:2")
    TIMES = (0.1, 0.5, 1.0)
    R = 1000
    R_PLAN = 150
    R_NOISE = 4000

    def setup(self):
        self.inst = {s: make_instance(parse_spec(s)) for s in self.MIX}
        warm = dyn.DynamicsParams(p=0.5, T=1.0, seed=1, replicas=20)
        dyn.estimate_C_distribution(self.inst["maj:9"], warm)
        dyn.estimate_joint(self.inst["maj:9"], 0.5, 0.5, 20, 1)
        dyn.sample_noise_pair(self.inst["maj:9"], 0.5, 0.4, 20, 1)
        exp.classify(exp.SequencePlan.from_pairs(
            [("parity:%d" % n, 0.5) for n in (2, 3, 4)], replicas=20))
        run_cli(["simulate", "maj:9", "--replicas", "20"])

    def references(self, ck):
        for s in self.MIX:
            for p in self.BIASES:
                exact = orc.exact_total_influence(self.inst[s], p)
                closed = _closed_total_influence(s, p)
                if closed is not None:
                    ck.close(closed, exact, 1e-12 * max(1.0, exact),
                             "closed-form vs exact influence %s p=%g" % (s, p))
                self.refs[s, p] = exact
        for s in self.JOINT:
            for t in self.TIMES:
                eps = 1.0 - math.exp(-t)
                self.refs["joint", s, t] = orc.exact_noise_covariance(
                    self.inst[s], 0.5, eps).joint
        for family, ns in self.PLANS:
            for n in ns:
                spec = "%s:%d" % (family, n)
                self.refs[spec, 0.5] = _closed_total_influence(spec, 0.5)

    def tasks(self, i):
        out = []
        j = 0
        for s in self.MIX:
            for p in self.BIASES:
                j += 1
                out.append(self._estimate(s, p, self.task_seed(i, j)))
        for family, ns in self.PLANS:
            j += 1
            out.append(self._classify(family, ns, self.task_seed(i, j)))
        for s in self.JOINT:
            for t in self.TIMES:
                j += 1
                out.extend(self._joint(s, t, self.task_seed(i, j)))
        j += 1
        out.append(self._cli_simulate(self.task_seed(i, j)))
        return out

    def _estimate(self, s, p, seed):
        inst = self.inst[s]
        params = dyn.DynamicsParams(p=p, T=1.0, seed=seed, replicas=self.R)
        label = "estimate_C %s p=%g" % (s, p)

        def check(est, ck):
            want_S = None
            family, m = _spec_parts(s)
            if family == "andor" and p == 0.5:
                want_S = float(ana.andor_switch_rate(m).expected_switches_fraction)
            _check_empirical(ck, label, est, self.refs[s, p], want_S)

        tag = "maj9" if (s, p) == ("maj:9", 0.5) else None
        return Task(label, lambda: dyn.estimate_C_distribution(inst, params),
                    check, self.R, tag)

    def _classify(self, family, ns, seed):
        pairs = [("%s:%d" % (family, n), 0.5) for n in ns]
        plan = exp.SequencePlan.from_pairs(pairs, T=1.0, replicas=self.R_PLAN,
                                           seed=seed)
        label = "classify %s" % family

        def check(report, ck):
            ck.check(report.verdict in exp.VERDICTS,
                     "%s: verdict %r" % (label, report.verdict))
            for ts in report.trends.values():
                ck.finite([v for v in ts.values if v is not None], label)
            for (spec, _), est in zip(pairs, report.per_n):
                _pool_counts(ck, "classify %s mean C" % spec,
                             self.refs[spec, 0.5], est.C)

        return Task(label, lambda: exp.classify(plan), check,
                    self.R_PLAN * len(ns))

    def _joint(self, s, t, seed):
        inst = self.inst[s]
        eps = 1.0 - math.exp(-t)
        key = "%s t=%g" % (s, t)
        want = self.refs["joint", s, t]

        def check_joint(est, ck):
            ck.finite([est.mean_product, est.disagree], "joint " + key)
            n = est.replicas
            ck.pool_prob("joint %s E[f0 f1]" % key, want,
                         round(est.mean_product * n), n)
            ck.pool_pair("joint vs noise pair %s disagree" % key, 0,
                         round(est.disagree * n), n)

        def check_noise(est, ck):
            ck.finite([est.mean_product, est.disagree], "noise " + key)
            n = est.replicas
            ck.pool_prob("noise pair %s E[f0 f1]" % key, want,
                         round(est.mean_product * n), n)
            ck.pool_pair("joint vs noise pair %s disagree" % key, 1,
                         round(est.disagree * n), n)

        return [
            Task("estimate_joint " + key,
                 lambda: dyn.estimate_joint(inst, 0.5, t, self.R, seed),
                 check_joint, self.R),
            Task("sample_noise_pair " + key,
                 lambda: dyn.sample_noise_pair(inst, 0.5, eps, self.R_NOISE,
                                               seed ^ 1),
                 check_noise, self.R_NOISE, "noise"),
        ]

    def _cli_simulate(self, seed):
        argv = ["simulate", "maj:9", "--replicas", str(self.R), "--seed",
                str(seed)]
        want = self.refs["maj:9", 0.5]

        def check(res, ck):
            payload = _check_cli_payload(*res, "simulate", ck, "cli simulate")
            if payload is None:
                return
            hist = np.array(payload["histogram"], dtype=np.float64)
            ck.pool("cli simulate maj:9 mean C", want,
                    float((hist[:, 0] * hist[:, 1]).sum()),
                    float((hist[:, 0] ** 2 * hist[:, 1]).sum()),
                    int(hist[:, 1].sum()))

        return Task("cli simulate maj:9", lambda: run_cli(argv), check, self.R)


# ---------------------------------------------------------------------------
# mc-long: event-bound Monte Carlo on wide or deep functions


class McLong(Workload):
    name = "mc-long"
    PERC = "perc:2,2,2,2,2,2,2,2:8"
    # (spec, T, replicas per task, per-family throughput tag)
    RUNS = (
        ("maj:1001", 1.0, 90, "maj1001"),
        ("parity:64", 1.0, 500, "parity64"),
        ("itermaj3:6", 1.0, 80, "itermaj3-6"),
        ("andor:8", 1.0, 80, "andor8"),
        (PERC, 1.0, 40, "perc-eager"),
        ("maj:101", 10.0, 80, None),
    )
    SURVIVAL_XS = (0.0, 0.01, 0.04)
    R_SURVIVAL = 300
    R_JOINT = 520
    JOINT_T = 0.5

    def setup(self):
        specs = [r[0] for r in self.RUNS] + ["andor:6", "itermaj3:4"]
        self.inst = {s: make_instance(parse_spec(s)) for s in specs}
        for s, T, _, _ in self.RUNS:
            dyn.estimate_C_distribution(
                self.inst[s], dyn.DynamicsParams(p=0.5, T=T, seed=1, replicas=2))
        dyn.survival_curve(self.inst["andor:6"], 0.5, self.SURVIVAL_XS, 5, 1)
        dyn.estimate_joint(self.inst["itermaj3:4"], 0.5, self.JOINT_T, 5, 1)

    def references(self, ck):
        for s, T, _, _ in self.RUNS:
            if s == self.PERC:
                spec = self.inst[s].spec
                self.refs[s] = T * perc_total_influence(spec.profile, spec.level, 0.5)
                self.refs[s, "one"] = perc_static_connect(spec.profile, spec.level, 0.5)
            else:
                self.refs[s] = _closed_total_influence(s, 0.5, T)
        # the perc closed forms against enumeration on a small tree
        small = make_instance(parse_spec("perc:2,2,2:3"))
        ck.close(perc_total_influence((2, 2, 2), 3, 0.5),
                 orc.exact_total_influence(small, 0.5), 1e-12,
                 "perc pivotality closed form vs exact")
        ck.close(perc_static_connect((2, 2, 2), 3, 0.5),
                 orc.exact_prob_one(small, 0.5), 1e-12,
                 "perc static recursion vs exact")
        self.refs["andor S"] = float(ana.andor_switch_rate(8).expected_switches_fraction)
        b = ana.maj3_b_seq(ana.Maj3Params(n=4, epsilon=0.0, t=self.JOINT_T))
        self.refs["joint"] = b.value(4)

    def tasks(self, i):
        out = []
        j = 0
        for copy in range(2):
            for s, T, R, tag in self.RUNS:
                j += 1
                out.append(self._estimate(s, T, R, tag, self.task_seed(i, j)))
        j += 1
        out.append(self._survival(self.task_seed(i, j)))
        j += 1
        out.append(self._joint(self.task_seed(i, j)))
        return out

    def _estimate(self, s, T, R, tag, seed):
        inst = self.inst[s]
        params = dyn.DynamicsParams(p=0.5, T=T, seed=seed, replicas=R)
        label = "estimate_C %s T=%g" % (s, T)

        def check(est, ck):
            want_S = self.refs["andor S"] if s == "andor:8" else None
            want_one = self.refs.get((s, "one"))
            _check_empirical(ck, label, est, self.refs[s], want_S, want_one)

        return Task(label, lambda: dyn.estimate_C_distribution(inst, params),
                    check, R, tag)

    def _survival(self, seed):
        inst = self.inst["andor:6"]
        xs = self.SURVIVAL_XS
        R = self.R_SURVIVAL

        def check(curve, ck):
            ck.finite(curve, "survival_curve andor:6")
            ck.check(all(b <= a for a, b in zip(curve, curve[1:])),
                     "survival_curve andor:6: not monotone %r" % (curve,))
            # at p = 1/2 the AND/OR output is 1 with probability exactly 1/2
            ck.pool_prob("survival_curve andor:6 at x=0", 0.5,
                         round(curve[0] * R), R)
            for x, g in zip(xs[1:], curve[1:]):
                ck.pool_floor("survival_curve andor:6 at x=%g above floor" % x,
                              ana.andor_survival_floor(x), round(g * R), R)

        return Task("survival_curve andor:6",
                    lambda: dyn.survival_curve(inst, 0.5, xs, R, seed),
                    check, R)

    def _joint(self, seed):
        inst = self.inst["itermaj3:4"]
        R = self.R_JOINT

        def check(est, ck):
            ck.finite([est.mean_product, est.disagree], "joint itermaj3:4")
            ck.pool_prob("joint itermaj3:4 E[f0 f1] vs maj3_b_seq",
                         self.refs["joint"], round(est.mean_product * R), R)

        return Task("estimate_joint itermaj3:4",
                    lambda: dyn.estimate_joint(inst, 0.5, self.JOINT_T, R, seed),
                    check, R)


# ---------------------------------------------------------------------------
# perc-lazy: lazy tree exploration on the criterion-10 profiles


def _check_regime(ck, label, report, children):
    levels = report.levels
    for stat in ("p_one", "p_ever_one", "p_always_one"):
        vals = [getattr(lv, stat) for lv in levels]
        ck.finite(vals, label)
        ck.check(all(b <= a for a, b in zip(vals, vals[1:])),
                 "%s: %s not nested across levels %r" % (label, stat, vals))
    for lv in levels:
        ck.finite([lv.mean_C, lv.mean_S, lv.empirical.var_C], label)
        ck.pool_prob("%s level %d p_one vs static recursion" % (label, lv.level),
                     perc_static_connect(children, lv.level, report.p),
                     int(lv.empirical.initial.sum()), report.replicas)


class PercLazy(Workload):
    name = "perc-lazy"
    BINARY = (2,) * 12
    BINARY_LEVELS = (4, 8, 12)
    NALPHA_LEVELS = tuple(range(4, 11))
    R_NALPHA = 12
    R_BINARY = 400
    COPIES = (6, 6, 3)  # nalpha, binary, cli tasks per pass

    def setup(self):
        self.nalpha = perc.build_profile("nalpha:3", 10)
        perc.regime_experiment(self.nalpha, [4], replicas=2, seed=1)
        perc.regime_experiment(self.BINARY, [4], replicas=2, seed=1)
        run_cli(["perc", "run", "--profile", "2,2,2,2", "--levels", "2,4",
                 "--replicas", "2"])

    def references(self, ck):
        pass

    def tasks(self, i):
        out = []
        j = 0
        n_nalpha, n_binary, n_cli = self.COPIES
        for _ in range(n_nalpha):
            j += 1
            out.append(self._regime("nalpha3", self.nalpha, self.NALPHA_LEVELS,
                                    self.R_NALPHA, self.task_seed(i, j)))
        for _ in range(n_binary):
            j += 1
            out.append(self._regime("binary12", self.BINARY, self.BINARY_LEVELS,
                                    self.R_BINARY, self.task_seed(i, j)))
        for _ in range(n_cli):
            j += 1
            out.append(self._cli_run(self.task_seed(i, j)))
        return out

    def _regime(self, tag, profile, levels, R, seed):
        children = getattr(profile, "children", profile)
        label = "regime_experiment %s" % tag

        def check(report, ck):
            _check_regime(ck, label, report, children)

        return Task(label,
                    lambda: perc.regime_experiment(profile, list(levels), p=0.5,
                                                   T=1.0, replicas=R, seed=seed),
                    check, R, tag)

    def _cli_run(self, seed):
        argv = ["perc", "run", "--profile", ",".join(map(str, self.BINARY)),
                "--levels", ",".join(map(str, self.BINARY_LEVELS)),
                "--replicas", str(self.R_BINARY), "--seed", str(seed)]

        def check(res, ck):
            payload = _check_cli_payload(*res, "perc-run", ck, "cli perc run")
            if payload is None:
                return
            levels = payload["levels"]
            p_one = [lv["p_one"] for lv in levels]
            ck.check(all(b <= a for a, b in zip(p_one, p_one[1:])),
                     "cli perc run: p_one not nested %r" % (p_one,))
            R = payload["replicas"]
            for lv in levels:
                ck.pool_prob("cli perc run level %d p_one" % lv["level"],
                             perc_static_connect(self.BINARY, lv["level"], 0.5),
                             round(lv["p_one"] * R), R)

        return Task("cli perc run binary12", lambda: run_cli(argv), check,
                    self.R_BINARY, "cli")


# ---------------------------------------------------------------------------
# exact: enumeration oracles and analytic recursions, no Monte Carlo


def _check_influence(ck, label, report, family, m, p):
    per_bit = report.per_bit
    ck.check(len(per_bit) == m, "%s: %d bits reported" % (label, len(per_bit)))
    want = pivotalities(family, m, p)
    for (i, infl, piv), w in zip(per_bit, want):
        ck.check(abs(infl - 2 * p * (1 - p) * piv) <= 1e-12
                 and abs(piv - w) <= 1e-12,
                 "%s: bit %d influence %r pivotality %r (want %r)"
                 % (label, i, infl, piv, w))
    ck.close(report.total_influence, math.fsum(x for _, x, _ in per_bit),
             1e-12 * m, label + " total")


class Exact(Workload):
    name = "exact"
    # (spec, p); None draws p per pass from [0.2, 0.4]
    INFLUENCE = (("maj:23", 0.5), ("maj:21", 0.5), ("parity:21", 0.5),
                 ("dap:21", 0.5), ("type2:21", 0.5), ("dap:20", None),
                 ("parity:20", None))
    PROB_ONE = (("type2:22", 0.5), ("dap:22", 0.5), ("dap:22", None))
    NOISE = ("type2:20", "maj:19")
    NOISE_EDGES = "maj:17"  # epsilon = 0 and 1 identities
    # The many cheap float recursions set the median task: the a-sweeps
    # sit below it, the b-sweeps at depths 1000 and 1100 around it, and the
    # mpf runs and oracles above it.
    A_DEPTHS = (250, 400, 550, 700, 1000, 1100)
    B_DEPTHS = (1000, 1100)
    MPF_DEPTHS = (250, 1000, 1100)
    BIASES = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3)
    DIGITS = 30
    VOL_ALPHAS = (0.3, 0.5, 0.7)
    CUTOFF = ((0.4, 100), (0.4, 300), (1.0, 100), (1.0, 200), (1.0, 300))
    BBOUND = ((12, 0.25), (40, 1.0))

    def setup(self):
        specs = {s for s, _ in self.INFLUENCE + self.PROB_ONE}
        specs |= set(self.NOISE) | {self.NOISE_EDGES}
        self.inst = {s: make_instance(parse_spec(s)) for s in specs}
        small = make_instance(parse_spec("maj:5"))
        orc.exact_influence_report(small, 0.3)
        orc.exact_noise_covariance(small, 0.3, 0.2)
        orc.exact_prob_one(small, 0.3)
        orc.exact_andor_pivotal(1, 0)
        ana.maj3_a_seq(0.4, 10)
        ana.maj3_a_seq(0.4, 10, digits=self.DIGITS)
        ana.maj3_b_seq(ana.Maj3Params(n=10, epsilon=0.1, t=0.5))
        ana.maj3_b_seq(ana.Maj3Params(n=10, epsilon=0.1, t=0.5), digits=self.DIGITS)
        ana.maj3_volatility_ratio(ana.Maj3Params.from_alpha(10, 0.3), t_scale_by_a=1.0)
        ana.maj3_cutoff_diagnostic(0.4, 20, digits=50)
        ana.andor_survival_floor_check(grid_resolution=100, conv_points=1000)
        ana.andor_b_bound_seq(5, 0.5)
        run_cli(["influence", "maj:3"])
        run_cli(["recursion", "andor-x", "--t", "0.5", "--n", "3"])

    def references(self, ck):
        pass

    def tasks(self, i):
        rng = self.pass_rng(i)
        out = []
        for s, p in self.INFLUENCE:
            out.append(self._influence(s, p if p is not None else _draw_p(rng)))
        for s, p in self.PROB_ONE:
            out.append(self._prob_one(s, p if p is not None else _draw_p(rng)))

        for s in self.NOISE:
            out.append(self._noise(s, _draw_p(rng), rng.uniform(0.05, 0.95)))
        p = _draw_p(rng)
        out.append(self._noise(self.NOISE_EDGES, p, 0.0))
        out.append(self._noise(self.NOISE_EDGES, p, 1.0))
        for k in range(4):
            out.append(self._pivotal(3, k))
        out.append(self._cli_influence())
        for n in sorted(set(self.A_DEPTHS + self.B_DEPTHS + self.MPF_DEPTHS)):
            for k, base in enumerate(self.BIASES):
                eps = base * rng.uniform(0.9, 1.1)
                kinds = [kind for kind, depths in (("a", self.A_DEPTHS),
                                                   ("b", self.B_DEPTHS))
                         if n in depths]
                with_mpf = n in self.MPF_DEPTHS and k in (0, len(self.BIASES) - 1)
                out.extend(self._grid(n, eps, kinds, with_mpf))
        out.append(self._b_limits(rng.uniform(0.02, 0.2)))
        for alpha in self.VOL_ALPHAS:
            out.append(self._volatility(alpha + rng.uniform(-0.02, 0.02)))
        out.append(self._cutoff())
        for n, t in self.BBOUND:
            out.append(self._bbound(n, t * rng.uniform(0.9, 1.1)))
        out.append(self._gfloor())
        out.append(self._cli_gfloor())
        out.append(self._cli_b_defect())
        return out

    # -- oracle ---------------------------------------------------------
    def _influence(self, s, p):
        inst = self.inst[s]
        family, m = _spec_parts(s)
        label = "exact_influence_report %s p=%.3f" % (s, p)
        return Task(_stable_name("exact_influence_report", s, p), lambda: orc.exact_influence_report(inst, p),
                    lambda r, ck: _check_influence(ck, label, r, family, m, p),
                    1 << inst.arity)

    def _prob_one(self, s, p):
        inst = self.inst[s]
        family, m = _spec_parts(s)
        label = "exact_prob_one %s p=%.3f" % (s, p)
        return Task(_stable_name("exact_prob_one", s, p), lambda: orc.exact_prob_one(inst, p),
                    lambda q, ck: ck.close(q, prob_one(family, m, p), 1e-12, label),
                    1 << inst.arity)

    def _noise(self, s, p, eps):
        inst = self.inst[s]
        family, m = _spec_parts(s)
        q = prob_one(family, m, p)
        label = "exact_noise_covariance %s eps=%.3g" % (s, eps)

        def check(res, ck):
            ck.finite([res.joint, res.covariance], label)
            if eps == 0.0:
                ck.close(res.joint, q, 1e-12, label + " joint = P(f=1)")
            elif eps == 1.0:
                ck.close(res.covariance, 0.0, 1e-12, label + " covariance = 0")
            else:
                # noise stability exceeds the independent value q^2
                ck.check(-1e-12 <= res.covariance <= q * (1 - q) + 1e-12,
                         "%s: covariance %r outside [0, q(1-q)]"
                         % (label, res.covariance))

        name = "exact_noise_covariance %s%s" % (
            s, "" if 0.0 < eps < 1.0 else " eps=%g" % eps)
        return Task(name, lambda: orc.exact_noise_covariance(inst, p, eps),
                    check, 1 << inst.arity)

    def _pivotal(self, n, k):
        label = "exact_andor_pivotal %d %d" % (n, k)
        return Task(label, lambda: orc.exact_andor_pivotal(n, k),
                    lambda r, ck: ck.check(r == andor_pivotal_exact(n, k),
                                           "%s: %s" % (label, r)),
                    1 << (2 ** (n + 1) - 1))

    def _cli_influence(self):
        family, m = "maj", 21

        def check(res, ck):
            payload = _check_cli_payload(*res, "influence", ck, "cli influence")
            if payload is None:
                return
            want = 2 * 0.25 * m * majority_pivotality(m, 0.5)
            ck.close(payload["total_I"], want, 1e-12 * m, "cli influence total_I")

        return Task("cli influence maj:21",
                    lambda: run_cli(["influence", "%s:%d" % (family, m)]),
                    check, 1 << m)

    # -- analysis -------------------------------------------------------
    def _grid(self, n, eps, float_kinds, with_mpf):
        """maj3 a- and b-recursions at depth n: float for `float_kinds`, and
        both kinds in mpf if `with_mpf`.  An mpf run after a float run of the
        same kind is checked against it; an mpf run without one (only b: the
        mpf depths are all in A_DEPTHS) against an independent mpmath
        recursion.

        Only a non-finite float series beyond the float range is the known
        ROADMAP 2(a) defect: a finite float series is compared with mpf, and
        counted, at every depth."""
        box = {}
        beyond = n >= FLOAT_RANGE_DEPTH
        params = ana.Maj3Params(n=n, epsilon=eps, t=0.5)
        runs = [(kind, None) for kind in float_kinds]
        if with_mpf:
            runs += [("a", self.DIGITS), ("b", self.DIGITS)]
        tasks = []
        for kind, digits in runs:
            if kind == "a":
                fn = (lambda d: lambda: ana.maj3_a_seq(0.5 - eps, n, digits=d))(digits)
            else:
                fn = (lambda d: lambda: ana.maj3_b_seq(params, digits=d))(digits)
            mode = "float" if digits is None else "mpf"
            label = "maj3_%s_seq n=%d eps~%g %s" % (kind, n, round(eps, 3), mode)

            def check(series, ck, kind=kind, mode=mode, label=label):
                last = series_last_log(series)
                if mode == "float":
                    finite = all_finite(series.values)
                    ck.finite(series.values, label,
                              KNOWN_FLOAT_NONFINITE if beyond and not finite else None)
                    box[kind] = (last, finite)
                    return
                ck.finite(series.values + [last], label)
                if kind in box:
                    want, finite = box[kind]
                    ck.check(log_close(want, last), "%s: float log %s vs mpf %s"
                             % (label, want, last),
                             KNOWN_FLOAT_VS_MPF if beyond and not finite else None)
                else:
                    want = maj3_b_log_reference(eps, params.t, n)
                    ck.check(log_close(want, last),
                             "%s: log %s vs reference %s" % (label, last, want))

            tasks.append(Task("maj3_%s_seq n=%d %s" % (kind, n, mode), fn, check, 0))
        return tasks

    def _b_limits(self, eps):
        n = 50

        def run():
            return (ana.maj3_a_seq(0.5 - eps, n),
                    ana.maj3_b_seq(ana.Maj3Params(n=n, epsilon=eps, t=0.0)),
                    ana.maj3_b_seq(ana.Maj3Params(n=n, epsilon=eps, t=math.inf)))

        def check(res, ck):
            a, b0, binf = res
            ck.check(max(abs(b0.value(k) - a.value(k)) for k in range(n + 1)) <= 1e-12,
                     "maj3_b_seq: b(0) != a")
            ck.check(max(abs(binf.value(k) - a.value(k) ** 2)
                         for k in range(n + 1)) <= 1e-12,
                     "maj3_b_seq: b(inf) != a^2")

        return Task("maj3_b_seq limits n=50", run, check, 0)

    def _volatility(self, alpha):
        params = ana.Maj3Params.from_alpha(60, alpha)
        label = "maj3_volatility_ratio alpha~%.1f" % alpha

        def check(res, ck):
            ck.finite([res.log_rho, res.log_a], label)
            ck.check(res.digits >= 60, "%s: %d digits" % (label, res.digits))

        return Task(label, lambda: ana.maj3_volatility_ratio(params, t_scale_by_a=1.0),
                    check, 0)

    def _cutoff(self):
        def run():
            return [ana.maj3_cutoff_diagnostic(a, n, digits=50).log_diag
                    for a, n in self.CUTOFF]

        def check(vals, ck):
            ck.finite(vals, "maj3_cutoff_diagnostic")
            lo = [v for (a, _), v in zip(self.CUTOFF, vals) if a < 0.5]
            hi = [v for (a, _), v in zip(self.CUTOFF, vals) if a >= 0.5]
            ck.check(all(v > 0 for v in lo) and all(v < 0 for v in hi),
                     "maj3_cutoff_diagnostic: signs %r" % (vals,))
            ck.check(all(b < a for a, b in zip(hi, hi[1:])),
                     "maj3_cutoff_diagnostic: alpha=1 not decreasing %r" % (hi,))

        return Task("maj3_cutoff_diagnostic", run, check, 0)

    def _bbound(self, n, t):
        label = "andor_b_bound_seq n=%d" % n

        def check(series, ck):
            ck.finite(series.values + [series.info["cap"]], label)
            ck.check(series.info["cap_satisfied"], "%s: cap not satisfied" % label)

        return Task(label, lambda: ana.andor_b_bound_seq(n, t), check, 0)

    def _gfloor(self):
        return Task("andor_survival_floor_check",
                    lambda: ana.andor_survival_floor_check(grid_resolution=200,
                                                           conv_points=20_000),
                    lambda r, ck: ck.check(r.passed, "survival floor check failed"),
                    0)

    def _cli_gfloor(self):
        def check(res, ck):
            payload = _check_cli_payload(*res, "survival-floor", ck, "cli gfloor")
            if payload is not None:
                ck.check(payload["passed"] is True, "cli gfloor: not passed")

        return Task("cli recursion andor-gfloor",
                    lambda: run_cli(["recursion", "andor-gfloor"]), check, 0)

    def _cli_b_defect(self):
        argv = ["recursion", "maj3-b", "--n", "1100", "--epsilon", "0.01",
                "--t", "0.5"]
        return Task("cli recursion maj3-b n=1100", lambda: run_cli(argv),
                    lambda res, ck: _check_cli_payload(
                        *res, "recursion-series", ck, "cli maj3-b n=1100",
                        known=KNOWN_CLI_JSON),
                    0)


def _stable_name(call, spec, p):
    """Task name without the per-pass bias, so latencies group across passes."""
    return "%s %s %s" % (call, spec, "p=1/2" if p == 0.5 else "p~U(0.2,0.4)")


def _draw_p(rng):
    return round(rng.uniform(0.2, 0.4), 6)


WORKLOADS = {w.name: w for w in (McShort, McLong, PercLazy, Exact)}
