"""Event-driven simulation of i.i.d. bit rerandomization over a time window.

Every bit carries an exponential rate-1 update clock; an update redraws
the bit to 1 with probability p.  Events are generated by superposition
(one global Exponential(arity) clock plus a uniform bit choice), so each
event costs O(1) plus an incremental re-evaluation.

Per replica the draw order is fixed: initial configuration, event count
(Poisson(arity*T)), event bits, event values, and sorted event times
last.  Because the value/bit marks are i.i.d. and independent of the
times, pairing mark j with the j-th order statistic is lawful, and
count-only paths can skip drawing times entirely while producing the
same switch counts as the full trajectory.

One kernel, `_replicas`, replays every trajectory; each clock-driven entry
point reads its statistic off the kernel's per-replica result.  A replica
expecting more than EVENT_BUDGET events (arity*T) is refused before any
draw.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InstanceTooLarge

_PAIR_CHUNK = 4096

# expected events per replica (arity * T) above which a run is refused;
# the same order as perctree's default edge budget
EVENT_BUDGET = 10_000_000


def replica_stream(seed, replica_index):
    """Independent per-replica generator: PCG64 seeded by (seed, replica)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, replica_index))))


@dataclass(frozen=True)
class DynamicsParams:
    p: float
    T: float
    seed: int
    replicas: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1], got %r" % (self.p,))
        if self.T < 0:
            raise ValueError("horizon must be >= 0, got %r" % (self.T,))
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1, got %r" % (self.replicas,))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit nonnegative integer")


@dataclass
class Trajectory:
    initial_output: int
    switch_times: list
    C: int  # all output switches in (0, T]
    S: int  # switches landing on 0 (the 1->0 direction)


def _replica_draws(instance, p, T, rng, with_times):
    m = instance.arity
    if m * T > EVENT_BUDGET:
        raise InstanceTooLarge("arity %d x horizon %g expects more than %d "
                               "events per replica" % (m, T, EVENT_BUDGET))
    config = (rng.random(m) < p).astype(np.uint8).tolist()
    n_events = int(rng.poisson(m * T))
    bits = rng.integers(0, m, size=n_events).tolist()
    vals = (rng.random(n_events) < p).astype(np.uint8).tolist()
    times = np.sort(rng.random(n_events) * T).tolist() if with_times else None
    return config, bits, vals, times


def _replicas(instance, p, T, seed, lo, hi, with_times):
    """Replays replicas lo..hi-1 in order, one draw stream each.

    Yields (initial output, switch times, 1->0 count, final output) per
    replica.  Without times each switch is recorded as None, so the
    list's len() is still the switch count C.
    """
    for r in range(lo, hi):
        config, bits, vals, times = _replica_draws(
            instance, p, T, replica_stream(seed, r), with_times)
        st = instance.build_state(config)
        cfg = st.config
        init = st.output
        switches = []
        n_down = 0
        for b, v, t in zip(bits, vals, repeat(None) if times is None else times):
            if cfg[b] == v:
                continue
            out, changed = st._update(b, v)
            if changed:
                switches.append(t)
                if out == 0:
                    n_down += 1
        yield init, switches, n_down, st.output


def simulate_trajectory(instance, dyn_params, replica_index):
    """One full replica: initial config, Poisson event skeleton, switch times."""
    init, times, n_down, _ = next(_replicas(
        instance, dyn_params.p, dyn_params.T, dyn_params.seed,
        replica_index, replica_index + 1, with_times=True))
    return Trajectory(initial_output=init, switch_times=times, C=len(times), S=n_down)


@dataclass
class EmpiricalC:
    """Per-replica switch counts plus derived summary statistics."""

    spec: str
    p: float
    T: float
    seed: int
    replicas: int
    C: np.ndarray
    S: np.ndarray
    initial: np.ndarray

    @property
    def mean_C(self):
        return float(self.C.mean())

    @property
    def var_C(self):
        if self.replicas < 2:
            return 0.0
        return float(self.C.var(ddof=1))

    @property
    def p_zero(self):
        return float(np.count_nonzero(self.C == 0)) / self.replicas

    @property
    def p_initial_one(self):
        return float(self.initial.mean())

    @property
    def p_ever_one(self):
        """Fraction of replicas whose output is 1 at some point in [0, T]."""
        return float(np.count_nonzero((self.initial == 1) | (self.C >= 1))) / self.replicas

    @property
    def p_always_one(self):
        return float(np.count_nonzero((self.initial == 1) & (self.C == 0))) / self.replicas

    def prob_greater(self, M):
        return float(np.count_nonzero(self.C > M)) / self.replicas

    def prob_between(self, lo, hi):
        return float(np.count_nonzero((self.C >= lo) & (self.C <= hi))) / self.replicas

    def histogram(self):
        counts = np.bincount(self.C)
        return [[int(c), int(k)] for c, k in enumerate(counts) if k]

    def to_json_dict(self, tail_grid=(1, 2, 5, 10, 20)):
        return {
            "spec": self.spec,
            "p": self.p,
            "T": self.T,
            "replicas": self.replicas,
            "seed": self.seed,
            "histogram": self.histogram(),
            "mean_C": self.mean_C,
            "var_C": self.var_C,
            "p_zero": self.p_zero,
            "tail": [[int(M), self.prob_greater(M)] for M in tail_grid],
        }


def estimate_C_distribution(instance, dyn_params, threads=1):
    """Aggregates independent replicas; identical output for any thread count.

    Replica r is a deterministic function of (seed, r), and results land
    in arrays indexed by r, so parallel execution cannot reorder them.
    """
    R = dyn_params.replicas
    C = np.zeros(R, dtype=np.int64)
    S = np.zeros(R, dtype=np.int64)
    initial = np.zeros(R, dtype=np.uint8)

    def run_block(lo, hi):
        runs = _replicas(instance, dyn_params.p, dyn_params.T, dyn_params.seed,
                         lo, hi, with_times=False)
        for r, (init, switches, n_down, _) in enumerate(runs, lo):
            initial[r], C[r], S[r] = init, len(switches), n_down

    if threads <= 1 or R < 2 * threads:
        run_block(0, R)
    else:
        step = -(-R // threads)
        bounds = [(lo, min(lo + step, R)) for lo in range(0, R, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: run_block(*b), bounds))
    return EmpiricalC(
        spec=instance.spec.spec_string(), p=dyn_params.p, T=dyn_params.T,
        seed=dyn_params.seed, replicas=R, C=C, S=S, initial=initial,
    )


@dataclass
class JointEstimate:
    mean_product: float  # E[f(start) f(end)]
    disagree: float      # P(f(start) != f(end))
    se_product: float
    se_disagree: float
    replicas: int


def _pair_summary(f0, f1, replicas):
    prod = float(np.mean(f0 & f1))
    dis = float(np.mean(f0 != f1))
    return JointEstimate(
        mean_product=prod,
        disagree=dis,
        se_product=math.sqrt(prod * (1 - prod) / replicas),
        se_disagree=math.sqrt(dis * (1 - dis) / replicas),
        replicas=replicas,
    )


def estimate_joint(instance, p, t, replicas, seed):
    """Simulates each replica to horizon t and compares the two endpoints."""
    DynamicsParams(p=p, T=t, seed=seed, replicas=replicas)
    runs = _replicas(instance, p, t, seed, 0, replicas, with_times=False)
    ends = np.array([(init, final) for init, _, _, final in runs], dtype=np.uint8)
    return _pair_summary(ends[:, 0], ends[:, 1], replicas)


def sample_noise_pair(instance, p, epsilon, replicas, seed):
    """Draws (X, Y) directly: each bit of Y independently redrawn w.p. epsilon.

    No clock is involved; at epsilon = 1-e^{-t} the pair has the same law
    as the endpoints of a horizon-t simulation.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1], got %r" % (epsilon,))
    DynamicsParams(p=p, T=0.0, seed=seed, replicas=replicas)
    rng = replica_stream(seed, 0)
    m = instance.arity
    f0 = np.empty(replicas, dtype=np.uint8)
    f1 = np.empty(replicas, dtype=np.uint8)
    for lo in range(0, replicas, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, replicas)
        n = hi - lo
        x = (rng.random((n, m)) < p).astype(np.uint8)
        redraw = rng.random((n, m)) < epsilon
        fresh = (rng.random((n, m)) < p).astype(np.uint8)
        y = np.where(redraw, fresh, x)
        f0[lo:hi] = instance.evaluate_rows(x)
        f1[lo:hi] = instance.evaluate_rows(y)
    return _pair_summary(f0, f1, replicas)


def survival_curve(instance, p, xs, replicas, seed):
    """P(output is 1 throughout [0, x]) for each x, on shared replicas.

    Each replica contributes its initial output and first switch time, so
    the estimates are exactly monotone in x (nested events).
    """
    xs = [float(x) for x in xs]
    if any(x < 0 for x in xs):
        raise ValueError("survival horizons must be >= 0")
    horizon = max(xs, default=0.0)
    DynamicsParams(p=p, T=horizon, seed=seed, replicas=replicas)
    runs = _replicas(instance, p, horizon, seed, 0, replicas, with_times=True)
    initial, first_switch = np.array(
        [(init, times[0] if times else np.inf) for init, times, _, _ in runs]).T
    ones = initial == 1
    return [float(np.mean(ones & (first_switch > x))) for x in xs]


def survival_estimate(instance, p, x, replicas, seed):
    """P(output is 1 throughout [0, x]); see survival_curve."""
    return survival_curve(instance, p, [x], replicas, seed)[0]
