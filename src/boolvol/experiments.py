"""Sequence-level switch-count taxonomy heuristics.

A sequence of Boolean functions is classified by the shape of its
switch-count distributions across n: mass at zero (lame), mass escaping
every window (volatile), uniformly small tails (tame), or mass at zero
and near infinity simultaneously (semi-volatile, split by whether the
middle bands P(1 <= C <= k) vanish or persist).  Finite-n Monte Carlo
cannot prove membership in any of these asymptotic classes, so every
verdict is a "-consistent" label computed from fixed, documented trend
conventions (the constants below), and every report carries the raw
trend numbers and the thresholds that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsParams, estimate_C_distribution
from .functions import FunctionSpec, make_instance, parse_spec

VERDICTS = (
    "lame-consistent",
    "tame-consistent",
    "volatile-consistent",
    "semivolatile-type1-consistent",
    "semivolatile-type2-consistent",
    "inconclusive",
)


def _binom_se(q, n):
    return math.sqrt(max(q * (1.0 - q), 0.0) / n)


# ---------------------------------------------------------------------------
# plans


@dataclass(frozen=True)
class SequencePlan:
    """Ordered (FunctionSpec, p) pairs sharing one simulation template."""

    entries: tuple
    T: float = 1.0
    replicas: int = 4000
    seed: int = 1

    def __post_init__(self):
        entries = tuple((spec, float(p)) for spec, p in self.entries)
        if not entries:
            raise ValueError("plan needs at least one (spec, p) entry")
        for spec, p in entries:
            if not isinstance(spec, FunctionSpec):
                raise ValueError("plan entries must pair FunctionSpec with p, got %r" % (spec,))
            if not 0.0 <= p <= 1.0:
                raise ValueError("p must lie in [0, 1], got %r" % (p,))
        object.__setattr__(self, "entries", entries)
        self.dyn_params(entries[0][1])  # validates T/replicas/seed once

    @classmethod
    def from_pairs(cls, pairs, T=1.0, replicas=4000, seed=1):
        """Builds a plan from (spec-string-or-FunctionSpec, p) pairs."""
        entries = []
        for spec, p in pairs:
            if isinstance(spec, str):
                spec = parse_spec(spec)
            entries.append((spec, p))
        return cls(entries=tuple(entries), T=T, replicas=replicas, seed=seed)

    def dyn_params(self, p):
        return DynamicsParams(p=p, T=self.T, seed=self.seed, replicas=self.replicas)


# ---------------------------------------------------------------------------
# trend conventions

# Finite-n trend conventions behind every verdict, recorded in every report.
# "-> 0" means the last value sits below TO_ZERO and the sequence decreases
# at every step (ties allowed only at exactly 0); "-> 1" is the mirror image
# with TO_ONE; "bounded away" means the last value exceeds AWAY.  Two
# desk-scale refinements: a middle band also counts as vanishing when it
# decreases strictly to at most VANISH_RATIO of its first value (heading to 0
# but not there yet), and bounded-away persistence additionally requires the
# last value to keep at least RETAIN_RATIO of the first (a stabilized level,
# not a slow decay).  Tameness demands every P(C > max M_GRID) stay below
# TAIL_CAP.  The second-moment rule fires when the mean switch count grows
# by GROWTH_FACTOR while E[C^2]/E[C]^2 stays below SECOND_MOMENT_CAP.
TO_ZERO = 0.05
TO_ONE = 0.95
AWAY = 0.1
TAIL_CAP = 0.05
VANISH_RATIO = 0.25
RETAIN_RATIO = 0.4
GROWTH_FACTOR = 2.0
SECOND_MOMENT_CAP = 10.0
M_GRID = (1, 2, 5)
K_GRID = (1, 2, 5)


def _thresholds_json():
    return {
        "to_zero": TO_ZERO,
        "to_one": TO_ONE,
        "away": AWAY,
        "tail_cap": TAIL_CAP,
        "vanish_ratio": VANISH_RATIO,
        "retain_ratio": RETAIN_RATIO,
        "growth_factor": GROWTH_FACTOR,
        "second_moment_cap": SECOND_MOMENT_CAP,
        "M_grid": list(M_GRID),
        "k_grid": list(K_GRID),
    }


def _heads_to_zero(xs):
    ok_steps = all(b < a or b == a == 0.0 for a, b in zip(xs, xs[1:]))
    return xs[-1] < TO_ZERO and ok_steps


def _heads_to_one(xs):
    ok_steps = all(b > a or b == a == 1.0 for a, b in zip(xs, xs[1:]))
    return xs[-1] > TO_ONE and ok_steps


def _vanishing(xs):
    if _heads_to_zero(xs):
        return True
    strict = all(b < a for a, b in zip(xs, xs[1:]))
    return strict and xs[-1] <= VANISH_RATIO * xs[0]


def _retained(xs):
    return xs[-1] > AWAY and xs[-1] >= RETAIN_RATIO * xs[0]


def _fmt(xs):
    return "->".join("%.4g" % x for x in xs)


def verdict_from_trends(trends):
    """Applies the documented verdict rules to per-n trend sequences.

    `trends` maps stat names to equal-length lists over n: p_zero,
    p_initial_one, p_ever_one, mean_C, second_moment_ratio (None where
    the mean vanishes), and cum_le_M / tail_gt_M / middle_le_k for every
    M in M_GRID and k in K_GRID.  Rules fire in a fixed order:
    volatility certificate, volatile, lame (demoted if the marginal
    P(f=1) is not heading degenerate), tame (demoted under the
    second-moment growth rule), then the semi-volatile gate with Type 2
    checked before Type 1.  Returns (verdict, notes).
    """
    p_zero = list(trends["p_zero"])
    p_one = list(trends["p_initial_one"])
    ever = list(trends["p_ever_one"])
    cum = {M: list(trends["cum_le_%d" % M]) for M in M_GRID}
    tail = {M: list(trends["tail_gt_%d" % M]) for M in M_GRID}
    mid = {k: list(trends["middle_le_%d" % k]) for k in K_GRID}
    M_max = max(M_GRID)

    if _heads_to_zero(p_one) and _heads_to_one(ever):
        return "volatile-consistent", [
            "volatility certificate: P(f=1) %s heads to 0 while "
            "P(exists t: f=1) %s heads to 1" % (_fmt(p_one), _fmt(ever))]

    if _heads_to_zero(p_zero) and all(_heads_to_zero(cum[M]) for M in M_GRID):
        return "volatile-consistent", [
            "volatile signature: P(C=0) %s and every P(C<=M), M in %s, "
            "head to 0" % (_fmt(p_zero), list(M_GRID))]

    if _heads_to_one(p_zero):
        degeneracy = [q * (1.0 - q) for q in p_one]
        if _vanishing(degeneracy):
            return "lame-consistent", [
                "lame signature: P(C=0) %s heads to 1; degenerate marginal "
                "confirmed, P(f=1)P(f=0) %s" % (_fmt(p_zero), _fmt(degeneracy))]
        return "inconclusive", [
            "P(C=0) %s heads to 1 but the marginal stays non-degenerate "
            "(P(f=1)P(f=0) %s); lameness implies a degenerate marginal, so "
            "the lame verdict is withheld" % (_fmt(p_zero), _fmt(degeneracy))]

    if max(tail[M_max]) < TAIL_CAP:
        means = list(trends["mean_C"])
        ratios = [r for r in trends["second_moment_ratio"] if r is not None]
        growing = (all(b > a for a, b in zip(means, means[1:]))
                   and means[-1] >= GROWTH_FACTOR * means[0] > 0.0)
        bounded = (len(ratios) == len(means)
                   and max(ratios) <= SECOND_MOMENT_CAP)
        if growing and bounded:
            return "inconclusive", [
                "tails are uniformly small but E[C] grows %s with "
                "E[C^2]/E[C]^2 bounded by %.3g; by the second moment rule a "
                "tight sequence cannot do this, so tame-consistent is "
                "excluded" % (_fmt(means), max(ratios))]
        return "tame-consistent", [
            "tame signature: every P(C>%d) stays below %.3g "
            "(max %.4g)" % (M_max, TAIL_CAP, max(tail[M_max]))]

    if _retained(p_zero) and any(_retained(tail[M]) for M in M_GRID):
        gate = ("semi-volatile gate: P(C=0) %s stays bounded away from 0 and "
                "some tail mass persists" % _fmt(p_zero))
        kept = [k for k in K_GRID if _retained(mid[k])]
        if kept:
            k = kept[0]
            return "semivolatile-type2-consistent", [
                gate,
                "middle band P(1<=C<=%d) %s stays bounded away from 0"
                % (k, _fmt(mid[k]))]
        if all(_vanishing(mid[k]) for k in K_GRID):
            return "semivolatile-type1-consistent", [
                gate,
                "every middle band P(1<=C<=k), k in %s, vanishes"
                % (list(K_GRID),)]
        return "inconclusive", [
            gate + ", but the middle-band trends are mixed (neither all "
            "vanishing nor any persisting)"]

    return "inconclusive", ["no verdict rule matched the observed trends"]


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class TrendSeries:
    stat: str
    values: tuple
    stderrs: tuple


@dataclass(frozen=True)
class ClassificationReport:
    """Per-n summaries, trend statistics, and a heuristic verdict."""

    entries: tuple       # (spec_string, p) per n
    ns: tuple
    T: float
    replicas: int
    seed: int
    per_n: tuple         # EmpiricalC per n
    trends: dict         # stat name -> TrendSeries
    verdict: str
    notes: tuple

    def to_json_dict(self):
        return {
            "entries": [[s, p] for s, p in self.entries],
            "ns": list(self.ns),
            "T": self.T,
            "replicas": self.replicas,
            "seed": self.seed,
            "thresholds": _thresholds_json(),
            "trends": {
                name: {"values": list(ts.values), "stderr": list(ts.stderrs)}
                for name, ts in sorted(self.trends.items())
            },
            "verdict": self.verdict,
            "notes": list(self.notes),
            "per_n": [est.to_json_dict() for est in self.per_n],
        }

    def to_csv_rows(self):
        """Plot-data rows (n, stat, value, stderr)."""
        rows = []
        for name, ts in sorted(self.trends.items()):
            for n, v, se in zip(self.ns, ts.values, ts.stderrs):
                rows.append((n, name, v, se))
        return rows


def _trend_table(estimates, replicas):
    """All per-n trend statistics, each paired with its standard error."""
    table = {}

    def add(name, values, ses):
        table[name] = TrendSeries(stat=name, values=tuple(values), stderrs=tuple(ses))

    def add_prob(name, values):
        add(name, values, [_binom_se(q, replicas) for q in values])

    add_prob("p_zero", [e.p_zero for e in estimates])
    add_prob("p_initial_one", [e.p_initial_one for e in estimates])
    add_prob("p_ever_one", [e.p_ever_one for e in estimates])
    add("mean_C", [e.mean_C for e in estimates],
        [math.sqrt(e.var_C / replicas) for e in estimates])
    ratios = []
    for e in estimates:
        if e.mean_C > 0.0:
            ratios.append(float(np.mean(e.C.astype(np.float64) ** 2)) / e.mean_C**2)
        else:
            ratios.append(None)
    add("second_moment_ratio", ratios, [None] * len(estimates))
    for M in M_GRID:
        add_prob("cum_le_%d" % M, [e.prob_between(0, M) for e in estimates])
        add_prob("tail_gt_%d" % M, [e.prob_greater(M) for e in estimates])
    for k in K_GRID:
        add_prob("middle_le_%d" % k, [e.prob_between(1, k) for e in estimates])
    return table


def classify(plan):
    """Runs the plan and labels the sequence by its switch-count trends.

    Requires at least three entries in strictly increasing arity order.
    The verdict is a finite-n heuristic from `verdict_from_trends`; the
    report always carries the raw per-n summaries, every trend series
    with standard errors, and the fixed thresholds.
    """
    insts = [make_instance(spec) for spec, _ in plan.entries]
    ns = tuple(inst.arity for inst in insts)
    if len(ns) < 3:
        raise ValueError("classification needs at least 3 sequence entries, got %d" % len(ns))
    if list(ns) != sorted(set(ns)):
        raise ValueError("plan entries must be in strictly increasing arity order: %r" % (ns,))

    estimates = [estimate_C_distribution(inst, plan.dyn_params(p))
                 for inst, (_, p) in zip(insts, plan.entries)]

    trends = _trend_table(estimates, plan.replicas)
    flat = {name: list(ts.values) for name, ts in trends.items()}
    verdict, notes = verdict_from_trends(flat)
    notes = list(notes)
    notes.append("verdicts are finite-n heuristic labels (thresholds recorded "
                 "in this report), not proofs of the asymptotic class")
    return ClassificationReport(
        entries=tuple((spec.spec_string(), p) for spec, p in plan.entries),
        ns=ns,
        T=plan.T,
        replicas=plan.replicas,
        seed=plan.seed,
        per_n=tuple(estimates),
        trends=trends,
        verdict=verdict,
        notes=tuple(notes),
    )
