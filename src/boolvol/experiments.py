"""Sequence-level switch-count taxonomy heuristics.

A sequence of Boolean functions is classified by the shape of its
switch-count distributions across n: mass at zero (lame), mass escaping
every window (volatile), uniformly small tails (tame), or mass at zero
and near infinity simultaneously (semi-volatile, split by whether the
middle bands P(1 <= C <= k) vanish or persist).  Finite-n Monte Carlo
cannot prove membership in any of these asymptotic classes, so every
verdict is a "-consistent" label computed from documented trend
conventions, and every report carries the raw trend numbers and the
thresholds that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsParams, _check_int, estimate_C_distribution
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

    @property
    def ns(self):
        """Arity of each entry, the sequence index n."""
        return tuple(make_instance(spec).arity for spec, _ in self.entries)

    def dyn_params(self, p):
        return DynamicsParams(p=p, T=self.T, seed=self.seed, replicas=self.replicas)


# ---------------------------------------------------------------------------
# trend conventions


@dataclass(frozen=True)
class Thresholds:
    """Finite-n trend conventions behind every verdict.

    "-> 0" means the last value sits below `to_zero` and the sequence
    decreases at every step (ties allowed only at exactly 0); "-> 1" is
    the mirror image with `to_one`; "bounded away" means the last value
    exceeds `away`.  Two desk-scale refinements: a middle band also
    counts as vanishing when it decreases strictly to at most
    `vanish_ratio` of its first value (heading to 0 but not there yet),
    and bounded-away persistence additionally requires the last value to
    keep at least `retain_ratio` of the first (a stabilized level, not a
    slow decay).  Tameness demands every P(C > max M_grid) stay below
    `tail_cap`.  The second-moment rule fires when the mean switch count
    grows by `growth_factor` while E[C^2]/E[C]^2 stays below
    `second_moment_cap`.
    """

    to_zero: float = 0.05
    to_one: float = 0.95
    away: float = 0.1
    tail_cap: float = 0.05
    vanish_ratio: float = 0.25
    retain_ratio: float = 0.4
    growth_factor: float = 2.0
    second_moment_cap: float = 10.0
    M_grid: tuple = (1, 2, 5)
    k_grid: tuple = (1, 2, 5)

    def __post_init__(self):
        for name in ("to_zero", "to_one", "away", "tail_cap", "vanish_ratio",
                     "retain_ratio"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError("%s must lie strictly in (0, 1), got %r" % (name, v))
        # chained comparisons are false for NaN, so these also reject it
        if not 1.0 < self.growth_factor < math.inf:
            raise ValueError("growth_factor must be a finite number > 1, got %r"
                             % (self.growth_factor,))
        if not 0.0 < self.second_moment_cap < math.inf:
            raise ValueError("second_moment_cap must be a finite number > 0, got %r"
                             % (self.second_moment_cap,))
        for name in ("M_grid", "k_grid"):
            grid = tuple(_check_int(name, v, 1) for v in getattr(self, name))
            if not grid or list(grid) != sorted(set(grid)):
                raise ValueError("%s must be strictly increasing positive ints" % name)
            object.__setattr__(self, name, grid)

    def to_json_dict(self):
        return {
            "to_zero": self.to_zero,
            "to_one": self.to_one,
            "away": self.away,
            "tail_cap": self.tail_cap,
            "vanish_ratio": self.vanish_ratio,
            "retain_ratio": self.retain_ratio,
            "growth_factor": self.growth_factor,
            "second_moment_cap": self.second_moment_cap,
            "M_grid": list(self.M_grid),
            "k_grid": list(self.k_grid),
        }


def _heads_to_zero(xs, thr):
    ok_steps = all(b < a or b == a == 0.0 for a, b in zip(xs, xs[1:]))
    return xs[-1] < thr and ok_steps


def _heads_to_one(xs, thr):
    ok_steps = all(b > a or b == a == 1.0 for a, b in zip(xs, xs[1:]))
    return xs[-1] > thr and ok_steps


def _vanishing(xs, th):
    if _heads_to_zero(xs, th.to_zero):
        return True
    strict = all(b < a for a, b in zip(xs, xs[1:]))
    return strict and xs[-1] <= th.vanish_ratio * xs[0]


def _retained(xs, th):
    return xs[-1] > th.away and xs[-1] >= th.retain_ratio * xs[0]


def _fmt(xs):
    return "->".join("%.4g" % x for x in xs)


def verdict_from_trends(trends, thresholds=None):
    """Applies the documented verdict rules to per-n trend sequences.

    `trends` maps stat names to equal-length lists over n: p_zero,
    p_initial_one, p_ever_one, mean_C, second_moment_ratio (None where
    the mean vanishes), and cum_le_M / tail_gt_M / middle_le_k for every
    M and k in the threshold grids.  Rules fire in a fixed order:
    volatility certificate, volatile, lame (demoted if the marginal
    P(f=1) is not heading degenerate), tame (demoted under the
    second-moment growth rule), then the semi-volatile gate with Type 2
    checked before Type 1.  Returns (verdict, notes).
    """
    th = thresholds if thresholds is not None else Thresholds()
    p_zero = list(trends["p_zero"])
    p_one = list(trends["p_initial_one"])
    ever = list(trends["p_ever_one"])
    cum = {M: list(trends["cum_le_%d" % M]) for M in th.M_grid}
    tail = {M: list(trends["tail_gt_%d" % M]) for M in th.M_grid}
    mid = {k: list(trends["middle_le_%d" % k]) for k in th.k_grid}
    M_max = max(th.M_grid)

    if _heads_to_zero(p_one, th.to_zero) and _heads_to_one(ever, th.to_one):
        return "volatile-consistent", [
            "volatility certificate: P(f=1) %s heads to 0 while "
            "P(exists t: f=1) %s heads to 1" % (_fmt(p_one), _fmt(ever))]

    if _heads_to_zero(p_zero, th.to_zero) and all(
            _heads_to_zero(cum[M], th.to_zero) for M in th.M_grid):
        return "volatile-consistent", [
            "volatile signature: P(C=0) %s and every P(C<=M), M in %s, "
            "head to 0" % (_fmt(p_zero), list(th.M_grid))]

    if _heads_to_one(p_zero, th.to_one):
        degeneracy = [q * (1.0 - q) for q in p_one]
        if _vanishing(degeneracy, th):
            return "lame-consistent", [
                "lame signature: P(C=0) %s heads to 1; degenerate marginal "
                "confirmed, P(f=1)P(f=0) %s" % (_fmt(p_zero), _fmt(degeneracy))]
        return "inconclusive", [
            "P(C=0) %s heads to 1 but the marginal stays non-degenerate "
            "(P(f=1)P(f=0) %s); lameness implies a degenerate marginal, so "
            "the lame verdict is withheld" % (_fmt(p_zero), _fmt(degeneracy))]

    if max(tail[M_max]) < th.tail_cap:
        means = list(trends["mean_C"])
        ratios = [r for r in trends["second_moment_ratio"] if r is not None]
        growing = (all(b > a for a, b in zip(means, means[1:]))
                   and means[-1] >= th.growth_factor * means[0] > 0.0)
        bounded = (len(ratios) == len(means)
                   and max(ratios) <= th.second_moment_cap)
        if growing and bounded:
            return "inconclusive", [
                "tails are uniformly small but E[C] grows %s with "
                "E[C^2]/E[C]^2 bounded by %.3g; by the second moment rule a "
                "tight sequence cannot do this, so tame-consistent is "
                "excluded" % (_fmt(means), max(ratios))]
        return "tame-consistent", [
            "tame signature: every P(C>%d) stays below %.3g "
            "(max %.4g)" % (M_max, th.tail_cap, max(tail[M_max]))]

    if _retained(p_zero, th) and any(_retained(tail[M], th) for M in th.M_grid):
        gate = ("semi-volatile gate: P(C=0) %s stays bounded away from 0 and "
                "some tail mass persists" % _fmt(p_zero))
        kept = [k for k in th.k_grid if _retained(mid[k], th)]
        if kept:
            k = kept[0]
            return "semivolatile-type2-consistent", [
                gate,
                "middle band P(1<=C<=%d) %s stays bounded away from 0"
                % (k, _fmt(mid[k]))]
        if all(_vanishing(mid[k], th) for k in th.k_grid):
            return "semivolatile-type1-consistent", [
                gate,
                "every middle band P(1<=C<=k), k in %s, vanishes"
                % (list(th.k_grid),)]
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
    thresholds: Thresholds
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
            "thresholds": self.thresholds.to_json_dict(),
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


def _trend_table(estimates, thresholds, replicas):
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
    for M in thresholds.M_grid:
        add_prob("cum_le_%d" % M, [e.prob_between(0, M) for e in estimates])
        add_prob("tail_gt_%d" % M, [e.prob_greater(M) for e in estimates])
    for k in thresholds.k_grid:
        add_prob("middle_le_%d" % k, [e.prob_between(1, k) for e in estimates])
    return table


def classify(plan, thresholds=None, threads=1):
    """Runs the plan and labels the sequence by its switch-count trends.

    Requires at least three entries in strictly increasing arity order.
    The verdict is a finite-n heuristic from `verdict_from_trends`; the
    report always carries the raw per-n summaries, every trend series
    with standard errors, and the thresholds used.
    """
    threads = _check_int("threads", threads, 1)
    th = thresholds if thresholds is not None else Thresholds()
    ns = plan.ns
    if len(ns) < 3:
        raise ValueError("classification needs at least 3 sequence entries, got %d" % len(ns))
    if list(ns) != sorted(set(ns)):
        raise ValueError("plan entries must be in strictly increasing arity order: %r" % (ns,))

    estimates = []
    for spec, p in plan.entries:
        inst = make_instance(spec)
        estimates.append(estimate_C_distribution(inst, plan.dyn_params(p), threads=threads))

    trends = _trend_table(estimates, th, plan.replicas)
    flat = {name: list(ts.values) for name, ts in trends.items()}
    verdict, notes = verdict_from_trends(flat, th)
    notes = list(notes)
    notes.append("verdicts are finite-n heuristic labels (thresholds recorded "
                 "in this report), not proofs of the asymptotic class")
    return ClassificationReport(
        entries=tuple((spec.spec_string(), p) for spec, p in plan.entries),
        ns=ns,
        T=plan.T,
        replicas=plan.replicas,
        seed=plan.seed,
        thresholds=th,
        per_n=tuple(estimates),
        trends=trends,
        verdict=verdict,
        notes=tuple(notes),
    )
