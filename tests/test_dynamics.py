"""Event-driven simulation: closed forms, oracle cross-checks, determinism."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from boolvol import dynamics as dyn
from boolvol import functions as bf
from boolvol import oracle
from boolvol.errors import InstanceTooLarge

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def inst(text):
    return bf.make_instance(bf.parse_spec(text))


def params(p=0.5, T=1.0, seed=7, replicas=1):
    return dyn.DynamicsParams(p=p, T=T, seed=seed, replicas=replicas)


def binom_se(q, n):
    return math.sqrt(max(q * (1 - q), 1e-12) / n)


# -- parameters ---------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=-0.1),
        dict(p=1.5),
        dict(T=-1.0),
        dict(replicas=0),
        dict(seed=-1),
        dict(T=math.nan),
        dict(seed=0.5),
        dict(seed=3.0),
        dict(replicas=2.5),
        dict(replicas=True),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        params(**kwargs)


def test_params_accept_numpy_integers():
    # numpy integer seeds and replica counts are stored as Python ints, so
    # they key the same replicas as the equal int
    pr = params(seed=np.int64(7), replicas=np.uint64(40))
    assert pr == params(seed=7, replicas=40)
    assert type(pr.seed) is int and type(pr.replicas) is int
    a = dyn.estimate_C_distribution(inst("maj:3"), pr)
    b = dyn.estimate_C_distribution(inst("maj:3"), params(seed=7, replicas=40))
    assert np.array_equal(a.C, b.C)


@pytest.mark.parametrize("bad", [0, -5, 1.5, 2.0, True, None])
def test_estimate_rejects_bad_thread_counts(bad):
    with pytest.raises(ValueError, match="threads"):
        dyn.estimate_C_distribution(inst("maj:3"), params(replicas=4), threads=bad)


def test_estimate_accepts_numpy_thread_counts():
    pr = params(replicas=40)
    a = dyn.estimate_C_distribution(inst("maj:3"), pr, threads=np.int64(2))
    assert np.array_equal(a.C, dyn.estimate_C_distribution(inst("maj:3"), pr).C)


# -- single trajectories ------------------------------------------------------

@pytest.mark.parametrize("bad", [-1, 2**64, 0.5, "3", None])
def test_trajectory_rejects_bad_replica_index(bad):
    with pytest.raises(ValueError, match="replica index"):
        dyn.simulate_trajectory(inst("maj:3"), params(), bad)


def test_trajectory_accepts_every_64_bit_replica_index():
    # a replica is a pure function of (seed, index): indices past
    # `replicas` are valid, up to the last 64-bit one
    f = inst("maj:3")
    pr = params(T=2.0)
    for r in (5, np.uint64(7), 2**64 - 1):
        traj = dyn.simulate_trajectory(f, pr, r)
        assert traj == dyn.simulate_trajectory(f, params(T=2.0, replicas=int(r) + 1), int(r))

def test_horizon_zero_has_no_switches():
    traj = dyn.simulate_trajectory(inst("maj:3"), params(T=0.0), 0)
    assert traj.C == 0 and traj.S == 0 and traj.switch_times == []


def test_trajectory_deterministic_and_replica_dependent():
    f = inst("parity:8")
    pr = params(seed=123)
    a = dyn.simulate_trajectory(f, pr, 4)
    b = dyn.simulate_trajectory(f, pr, 4)
    assert a == b
    others = [dyn.simulate_trajectory(f, pr, r) for r in range(10)]
    assert any(o.switch_times != a.switch_times for o in others)


@pytest.mark.parametrize("text", ["maj:3", "type2:5"])
def test_trajectory_alternation(text):
    f = inst(text)
    pr = params(p=0.3, T=2.0, seed=42)
    for r in range(300):
        traj = dyn.simulate_trajectory(f, pr, r)
        assert traj.C == len(traj.switch_times)
        assert all(0.0 < t <= pr.T for t in traj.switch_times)
        assert all(a < b for a, b in zip(traj.switch_times, traj.switch_times[1:]))
        # switches alternate, so the 1->0 count is pinned by C and the start
        assert traj.S == (traj.C + traj.initial_output) // 2


# -- entry points against each other -------------------------------------------

@pytest.mark.parametrize("text,p", [("maj:7", 0.3), ("andor:2", 0.5)])
def test_entry_points_agree_replica_by_replica(text, p):
    # every entry point replays the same per-replica streams, so their
    # statistics coincide exactly with the full trajectories'
    f = inst(text)
    pr = params(p=p, T=1.5, seed=31, replicas=300)
    R = pr.replicas
    trajs = [dyn.simulate_trajectory(f, pr, r) for r in range(R)]
    for threads in (1, 2):
        emp = dyn.estimate_C_distribution(f, pr, threads=threads)
        assert emp.C.tolist() == [t.C for t in trajs]
        assert emp.S.tolist() == [t.S for t in trajs]
        assert emp.initial.tolist() == [t.initial_output for t in trajs]

    f0 = np.array([t.initial_output for t in trajs], dtype=np.uint8)
    f1 = np.array([t.initial_output ^ (t.C & 1) for t in trajs], dtype=np.uint8)
    joint = dyn.estimate_joint(f, p, pr.T, R, pr.seed)
    assert joint.mean_product == float(np.mean(f0 & f1))
    assert joint.disagree == float(np.mean(f0 != f1))

    xs = [0.0, 0.2, 0.7, pr.T]  # the largest x is the horizon, as above
    first = np.array([t.switch_times[0] if t.C else math.inf for t in trajs])
    want = [float(np.mean((f0 == 1) & (first > x))) for x in xs]
    assert dyn.survival_curve(f, p, xs, R, pr.seed) == want


def test_event_budget_applies_to_every_entry_point():
    f = inst("maj:9")
    T = 2 * dyn.EVENT_BUDGET / f.arity
    with pytest.raises(InstanceTooLarge):
        dyn.simulate_trajectory(f, params(T=T), 0)
    with pytest.raises(InstanceTooLarge):
        dyn.estimate_C_distribution(f, params(T=T, replicas=4), threads=2)
    with pytest.raises(InstanceTooLarge):
        dyn.estimate_joint(f, 0.5, T, 4, 1)
    with pytest.raises(InstanceTooLarge):
        dyn.survival_curve(f, 0.5, [T], 4, 1)


def oracle_replay(f, p, T, seed, R):
    """Replays every bit change of replicas 0..R-1 through apply_update.

    The changes come from one skeleton of the whole run, ordered per
    replica by time (ties keep draw order), so neither the kernel's
    blocks nor its time sort is involved.
    """
    n_slots, length, table = dyn._slots(f.arity, T, p)
    nsl = max(1, n_slots)
    config, cell, value, key = dyn._replica_draws(f, p, table, seed, 0, R, 0, n_slots)
    rep, bit = np.divmod(cell, f.arity)
    times = dyn._event_times(key, 0, nsl, length).tolist()
    for r in range(R):
        idx = sorted(np.flatnonzero(rep == r).tolist(), key=times.__getitem__)
        st = bf.build_state(f, config[r])
        init, switch_times, n_down = st.output, [], 0
        for i in idx:
            out, changed = bf.apply_update(st, int(bit[i]), int(value[i]))
            if changed:
                switch_times.append(times[i])
                n_down += out == 0
        yield init, switch_times, n_down, st.output


COUNTER_SPECS = ["dictator:3", "parity:6", "dap:5", "type2:6", "maj:7", "bigtame:2",
                 "table"]


@pytest.mark.parametrize("text", COUNTER_SPECS)
@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize("T", [0.0, 1.5, 40.0])
def test_counter_kernel_matches_oracle_replay(monkeypatch, text, p, T):
    if text == "table":
        f = oracle.import_truth_table([0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0])
    else:
        f = inst(text)
    assert f.counter_weights() is not None
    # small blocks: many blocks per run, and T = 40 (three slots) cuts each
    # replica into slot spans replayed one after another
    monkeypatch.setattr(dyn, "_BLOCK_DRAWS", 120)
    R = 40
    pr = params(p=p, T=T, seed=77, replicas=R)
    batch = dyn.simulate_batch(f, pr)
    off = batch.offsets
    for r, (init, times, n_down, final) in enumerate(oracle_replay(f, p, T, 77, R)):
        assert batch.initial[r] == init
        assert batch.times[off[r]:off[r + 1]].tolist() == times
        assert batch.C[r] == len(times) and batch.S[r] == n_down
        assert batch.final[r] == final
    one = dyn.estimate_C_distribution(f, pr, threads=1)
    two = dyn.estimate_C_distribution(f, pr, threads=2)
    for a, b in ((one.C, two.C), (one.S, two.S), (one.initial, two.initial)):
        assert a.tobytes() == b.tobytes()
    assert one.C.tolist() == batch.C.tolist()


# depth-0 trees, deeper trees, a perc level with one child per vertex and a
# perc level below the end of its profile; p = 0.3 keeps the bare spec as id
TREE_SPECS = ["andor:2", "itermaj3:2", "perc:2,3:2", "itermaj3:0", "andor:0", "perc:1:1",
              "itermaj3:3", "andor:4", "perc:3,1,2:3", "perc:2,3,2:2"]


def test_every_family_is_replayed_by_one_kernel():
    # every family meets the apply_update oracle above, through the counter
    # kernel (counter_weights, no steps) or the tree kernel (the reverse)
    assert set(bf._CLASSES) <= {text.split(":")[0] for text in COUNTER_SPECS + TREE_SPECS}
    for text in COUNTER_SPECS:
        f = oracle.import_truth_table([0, 1, 1, 1]) if text == "table" else inst(text)
        assert f.counter_weights() is not None and not hasattr(f, "steps")
    for text in TREE_SPECS:
        f = inst(text)
        assert f.counter_weights() is None and hasattr(f, "steps")


@pytest.mark.parametrize("text,p", [
    pytest.param(text, p, id=text if p == 0.3 else "%s-p%g" % (text, p))
    for text in TREE_SPECS for p in (0.3, 0.5, 0.7)])
@pytest.mark.parametrize("T", [1.5, 20.0, 0.0, 40.0])
def test_tree_kernel_matches_oracle_replay(monkeypatch, text, p, T):
    # small blocks cut the wider replicas at T >= 20 into slot spans, so node
    # values must carry from one span to the next
    monkeypatch.setattr(dyn, "_BLOCK_DRAWS", 120)
    f = inst(text)
    assert f.counter_weights() is None
    pr = params(p=p, T=T, seed=5, replicas=12)
    batch = dyn.simulate_batch(f, pr)
    off = batch.offsets
    for r, (init, times, n_down, final) in enumerate(oracle_replay(f, p, T, 5, 12)):
        assert batch.initial[r] == init
        assert batch.times[off[r]:off[r + 1]].tolist() == times
        assert batch.S[r] == n_down and batch.final[r] == final
    one = dyn.estimate_C_distribution(f, pr, threads=1)
    two = dyn.estimate_C_distribution(f, pr, threads=2)
    for a, b in ((one.C, two.C), (one.S, two.S), (one.initial, two.initial)):
        assert a.tobytes() == b.tobytes()
    assert one.C.tolist() == batch.C.tolist()


@pytest.mark.parametrize("text,T", [("maj:9", 1.0), ("itermaj3:2", 1.0), ("maj:3", 50.0)])
def test_trajectory_is_row_of_batch(text, T):
    # replica access stays random: replica r alone equals row r of a run
    # spanning several blocks (and, at T = 50, several slots)
    f = inst(text)
    pr = params(T=T, seed=23, replicas=5000 if T == 1.0 else 400)
    emp = dyn.estimate_C_distribution(f, pr)
    for r in (0, 1, 2500 % pr.replicas, pr.replicas - 1):
        traj = dyn.simulate_trajectory(f, pr, r)
        assert (traj.C, traj.S, traj.initial_output) == (emp.C[r], emp.S[r], emp.initial[r])


def test_long_horizon_law():
    # the per-slot count tables stay exact past exp(-T) underflow (T > ~745)
    f = inst("maj:3")
    T = 1000.0
    emp = dyn.estimate_C_distribution(f, params(T=T, seed=29, replicas=200))
    want = T * oracle.exact_total_influence(f, 0.5)
    assert abs(emp.mean_C - want) <= 4 * math.sqrt(emp.var_C / emp.replicas)


@pytest.mark.parametrize("entry,text", [("C", "parity:64"), ("joint", "parity:64"),
                                        ("survival", "parity:64"), ("C", "andor:6")],
                         ids=["C", "joint", "survival", "C-andor:6"])
def test_count_only_runs_hold_one_block(entry, text):
    # count-only entry points keep no switch times: ten times the replicas,
    # each with ~1300 switches on parity:64, adds only the per-replica
    # result arrays to the peak allocation, not the run's switch times
    # (~3 MB there); on a tree family, the level replay's arrays too stay
    # within one block
    f = inst(text)
    runs = {
        "C": lambda R: dyn.estimate_C_distribution(f, params(T=40.0, seed=3, replicas=R)),
        "joint": lambda R: dyn.estimate_joint(f, 0.5, 40.0, R, 3),
        "survival": lambda R: dyn.survival_curve(f, 0.5, [0.5, 40.0], R, 3),
    }

    def peak(R):
        tracemalloc.start()
        try:
            runs[entry](R)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(330) - peak(30) < 2**20


# -- the law of one clock --------------------------------------------------------

def count_rings(monkeypatch):
    """A one-item list that adds up the rings every skeleton draws from now on."""
    rings = [0]
    slot_ticks = dyn._slot_ticks

    def spy(keys, counts, flip):
        rings[0] += int(counts.sum())
        return slot_ticks(keys, counts, flip)

    monkeypatch.setattr(dyn, "_slot_ticks", spy)
    return rings


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("T", [1.0, 40.0])
def test_one_clock_is_the_two_state_chain(monkeypatch, p, T):
    # dictator:1 is one bit: its output switches where the bit changes.
    # Its clock rings at rate r = max(p, 1 - p), and its bit is the
    # stationary chain jumping 0 -> 1 at rate p and 1 -> 0 at rate 1 - p
    N, r = 20000, max(p, 1 - p)
    rings = count_rings(monkeypatch)
    b = dyn._replicas(inst("dictator:1"), p, T, 31, 0, N)
    x0, xT, changes = b.initial == 1, b.final == 1, b.C
    assert abs(rings[0] / N - r * T) <= 4 * math.sqrt(r * T / N)
    assert abs(xT.mean() - p) <= 4 * binom_se(p, N)
    assert abs(changes.mean() - 2 * p * (1 - p) * T) <= 4 * changes.std(ddof=1) / math.sqrt(N)
    both = p * p + p * (1 - p) * math.exp(-T)
    assert abs(np.mean(x0 & xT) - both) <= 4 * binom_se(both, N)


# -- counter-based draws --------------------------------------------------------

def unit(u):
    """The float reading of a draw: a uniform in [0, 1) from its top 53 bits."""
    return (u >> np.uint64(11)) * 2.0 ** -53


def float_poisson_cdf(mean):
    """Poisson CDF table of a slot's update count, as float64 partial sums."""
    kmax = max(30, int(mean + 12.0 * math.sqrt(mean) + 20.0))
    pmf = np.empty(kmax + 1)
    pmf[0] = math.exp(-mean)
    for k in range(1, kmax + 1):
        pmf[k] = pmf[k - 1] * mean / k
    return np.cumsum(pmf)


def edge_draws(k, rng, n=2000):
    """Random draws plus the three around k << 11 that fall in 64 bits."""
    edge = [(k << 11) + d for d in (-1, 0, 2047) if 0 <= (k << 11) + d < 2**64]
    return np.concatenate((np.array(edge, dtype=np.uint64),
                           rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)))


def test_below_matches_float_compare():
    rng = np.random.default_rng(2)
    ps = [0.0, 2.0 ** -53, 1 / 3, 0.5, 1 - 2.0 ** -53, 1.0] + rng.random(20).tolist()
    for p in ps:
        u = edge_draws(math.ceil(p * 2.0 ** 53), rng)
        assert np.array_equal(dyn._below(u, p), unit(u) < p), p


def test_count_thresholds_match_float_inverse_cdf():
    rng = np.random.default_rng(3)
    means = [2.0 ** -40, 1e-3, 0.3, 1.0, 16 / 3, 40 / 3, 15.9, 16.0]
    means += (16 * rng.random(8)).tolist()
    tails = 0
    for mean in means:
        cdf = float_poisson_cdf(mean)
        tails += cdf[-1] >= 1.0
        thr = dyn._poisson_cdf(mean)
        u = np.concatenate([edge_draws(math.ceil(c * 2.0 ** 53), rng, 200) for c in cdf])
        got = np.searchsorted(thr, u, side="right")
        assert np.array_equal(got, np.searchsorted(cdf, unit(u), side="right")), mean
        # the kernel's count path, a guide table over the same thresholds
        assert np.array_equal(dyn._counts(dyn._count_table(mean), u), got), mean
    assert tails  # some tables end in entries that round to 1 or above


def count_probes(thr, rng):
    """Draws at, one below and one above every threshold, at the first and
    last draw of every guide bucket, and random draws."""
    near = [t + d for t in thr.tolist() for d in (-1, 0, 1) if 0 <= t + d < 2**64]
    starts = np.arange(4096, dtype=np.uint64) << np.uint64(52)
    return np.concatenate((np.array(near, dtype=np.uint64), starts,
                           starts | np.uint64(2**52 - 1),
                           rng.integers(0, 2**64, 4000, dtype=np.uint64, endpoint=False)))


@pytest.mark.parametrize("length", [0.0, 2.0 ** -40, 1.0, 16.0])
def test_count_guide_matches_bisection(length):
    # the guide's counts equal the bisection it replaces,
    # np.searchsorted(thresholds, u, "right"); at slot length 16 the
    # thresholds hold duplicates, and T = 0 has none at all
    table = dyn._count_table(length)
    thr = table.thresholds
    assert np.array_equal(thr, dyn._poisson_cdf(length))
    if length == 0.0:
        assert thr.size == 0 and not table.guide.any()
    if length == 16.0:
        assert np.any(thr[1:] == thr[:-1])
    u = count_probes(thr, np.random.default_rng(8))
    assert np.array_equal(dyn._counts(table, u), np.searchsorted(thr, u, side="right"))
    assert dyn._slots(3, length, 1.0)[2] is table  # built once per slot mean


def test_count_guide_matches_bisection_on_duplicate_thresholds():
    # repeated thresholds at a bucket's first and last draw and inside one
    b = 2**52
    thr = np.array(sorted([0, 0, b - 1, b, b, 3 * b + 5, 3 * b + 5, 3 * b + 9,
                           2**64 - 1, 2**64 - 1]), dtype=np.uint64)
    table = dyn.CountTable(thr, dyn._count_guide(thr))
    # only buckets split by a threshold bisect; one starting at a threshold does not
    assert table.guide.tolist() == [-1, 5, 5, -1] + [8] * 4091 + [-1]
    u = count_probes(thr, np.random.default_rng(9))
    assert np.array_equal(dyn._counts(table, u), np.searchsorted(thr, u, side="right"))


def stable_effective_events(m, cell, value, key):
    """`_effective_events` as written with one stable argsort."""
    idx = np.argsort(key, kind="stable")
    rep, bit = np.divmod(cell[idx], m)
    return rep, bit, value[idx], key[idx]


def test_time_order_repairs_ties_to_the_stable_order():
    # equal keys need equal replica, slot and tick, which no seeded run
    # here reaches; force them with a few ticks over few replicas
    rng = np.random.default_rng(10)
    n, m = 6000, 5
    key = (rng.integers(0, 40, n).astype(np.uint64) << np.uint64(40)
           | rng.integers(0, 6, n).astype(np.uint64))
    stable = np.argsort(key, kind="stable")
    assert not np.array_equal(np.argsort(key), stable)  # ties reach the repair
    order, ordered = dyn._time_order(key)
    assert np.array_equal(order, stable) and np.array_equal(ordered, key[stable])
    # the whole effective-event step: cells in (replica, bit) generation order
    cell = np.sort(rng.integers(0, 40 * m, n))
    key = (cell // m).astype(np.uint64) << np.uint64(40) | rng.integers(0, 6, n).astype(np.uint64)
    value = rng.integers(0, 2, n).astype(np.uint8)
    got = dyn._effective_events(m, cell, value, key)
    want = stable_effective_events(m, cell, value, key)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # without ties the default sort stands
    key = rng.permutation(n).astype(np.uint64)
    order, ordered = dyn._time_order(key)
    assert np.array_equal(order, np.argsort(key, kind="stable"))


def grouped_replay(group, step, init, output):
    """The output replay the threshold test replaces: output after every
    event and the mask of the events that switch it."""
    head = np.ones(group.size, dtype=bool)
    head[1:] = group[1:] != group[:-1]
    run = np.cumsum(step, axis=0)
    first = init[group[head]]
    after = run + (first - run[head] + step[head])[np.cumsum(head) - 1]
    out = output(after)
    before = np.empty_like(out)
    before[1:] = out[:-1]
    before[head] = output(first)
    return out, out != before


@pytest.mark.parametrize("t", [1, 2, 3])
def test_threshold_switches_match_output_replay(t):
    rng = np.random.default_rng(t)
    for _ in range(30):
        nodes = int(rng.integers(1, 40))
        n = int(rng.integers(0, 300))
        group = np.sort(rng.integers(0, nodes, n))
        value = rng.integers(0, 2, n)
        init = rng.integers(-1, 5, nodes)
        out, switch = grouped_replay(group, 2 * value - 1, init, lambda c: c >= t)
        got = dyn._threshold_switches(group, value, init, t)
        assert np.array_equal(got, switch)
        assert np.array_equal(out[switch], value[switch] == 1)  # the new output is the value


# (initial, C, times) of `_replicas(..., keep="all")` over p in {0, .3, .5, 1}
# and T in {0, 1, 17, 40}, re-recorded when the bits moved to flip and push
# rings at rate max(p, 1 - p); any change to a draw moves them, and
# `python tests/test_dynamics.py` prints the current digests
FROZEN_MC = {
    "maj:7": "2b0fdf185aeaf5d5bd1215d1bbfd0a9784003fde608ed10541877255eeaa87da",
    "parity:6": "6ffa6f53cef41cf4fd4ac0f72973e429664d09f439f0d9768aacb4cb3c3a2139",
    "type2:6": "fd0cae3faf9c705587c7f61796843524b36282037ac418ccefaed96f00536cdc",
    "itermaj3:3": "cd4cc503f30dae454ed26029d49f5d178b8861a6e48803468b97852cf49cf262",
    "andor:4": "945fbadf640087ef90243a7538bfc02193b913c523526499df04880fc8db7881",
    "perc:2,3:2": "63950a284361a9b5fbf2aab9717c218d5b8762f75fbd06487902ef58d58fdd62",
}


def mc_digest(text):
    f = inst(text)
    h = hashlib.sha256()
    for p in (0.0, 0.3, 0.5, 1.0):
        for T in (0.0, 1.0, 17.0, 40.0):
            b = dyn._replicas(f, p, T, 2024, 3, 33, keep="all")
            for a, dtype in ((b.initial, "u1"), (b.C, "<i8"), (b.times, "<f8")):
                h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("block", [2**10, dyn._BLOCK_DRAWS])
@pytest.mark.parametrize("text", sorted(FROZEN_MC))
def test_mc_stream_is_frozen(monkeypatch, text, block):
    monkeypatch.setattr(dyn, "_BLOCK_DRAWS", block)
    assert mc_digest(text) == FROZEN_MC[text]


@pytest.mark.parametrize("text", ["maj:1001", "itermaj3:6"])
def test_counts_do_not_depend_on_block_size(monkeypatch, text):
    # at T = 20 a 2^10 block cuts every replica into slot spans, while
    # larger blocks hold several whole replicas
    f = inst(text)
    for T in (1.0, 20.0):
        pr = params(T=T, seed=41, replicas=24)
        runs = []
        for block in (2**10, 2**14, dyn._BLOCK_DRAWS):
            monkeypatch.setattr(dyn, "_BLOCK_DRAWS", block)
            emp = dyn.estimate_C_distribution(f, pr)
            runs.append(emp.C.tobytes() + emp.S.tobytes() + emp.initial.tobytes())
        assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("block", [2**10, dyn._BLOCK_DRAWS])
def test_blocks_hold_at_most_block_draws(monkeypatch, block):
    monkeypatch.setattr(dyn, "_BLOCK_DRAWS", block)
    for m in (1, 3, 64, 1001):
        for T in (0.0, 0.5, 1.0, 17.0, 40.0, 300.0):
            n_slots = math.ceil(T / dyn._SLOT)
            slot_len = T / n_slots if n_slots else 0.0
            per_rep = m + n_slots * m * (1.0 + slot_len)
            blocks = dyn._blocks(m, n_slots, slot_len, 5, 700)
            assert [a for a, _, _ in blocks] == [5] + [b for _, b, _ in blocks[:-1]]
            assert blocks[-1][1] == 700
            for a, b, spans in blocks:
                if b - a > 1:
                    assert (b - a) * per_rep <= block
                    assert spans == [(0, n_slots)]


# -- C distribution vs exact oracle -------------------------------------------

@pytest.mark.parametrize(
    "text,p",
    [
        ("maj:3", 0.5),
        ("maj:3", 0.3),
        ("dap:4", 0.5),
        ("type2:4", 0.5),
        ("andor:2", 0.5),
        ("itermaj3:2", 0.5),
        ("bigtame:2", 0.5),
    ],
)
def test_mean_switch_count_matches_total_influence(text, p):
    f = inst(text)
    emp = dyn.estimate_C_distribution(f, params(p=p, seed=9, replicas=4000))
    exact = oracle.exact_total_influence(f, p)
    se = math.sqrt(emp.var_C / emp.replicas)
    assert abs(emp.mean_C - exact) <= 4 * se + 1e-12


def test_dictator_closed_forms():
    emp = dyn.estimate_C_distribution(inst("dictator:1"), params(seed=5, replicas=20000))
    se_mean = math.sqrt(emp.var_C / emp.replicas)
    assert abs(emp.mean_C - 0.5) <= 4 * se_mean
    # value-changing updates thin to Poisson(1/2)
    target = math.exp(-0.5)
    assert abs(emp.p_zero - target) <= 4 * binom_se(target, emp.replicas)


def test_parity2_p_zero():
    emp = dyn.estimate_C_distribution(inst("parity:2"), params(seed=6, replicas=20000))
    target = math.exp(-1.0)
    assert abs(emp.p_zero - target) <= 4 * binom_se(target, emp.replicas)


def test_parity8_mean():
    emp = dyn.estimate_C_distribution(inst("parity:8"), params(seed=8, replicas=5000))
    se = math.sqrt(emp.var_C / emp.replicas)
    assert abs(emp.mean_C - 4.0) <= 4 * se


def test_constant_function_never_switches():
    f = oracle.import_truth_table([1] * 8)
    emp = dyn.estimate_C_distribution(f, params(seed=3, replicas=500))
    assert emp.p_zero == 1.0 and emp.mean_C == 0.0
    assert np.all(emp.C == 0)


def test_time_homogeneity():
    emp = dyn.estimate_C_distribution(inst("maj:3"), params(T=3.0, seed=10, replicas=4000))
    se = math.sqrt(emp.var_C / emp.replicas)
    assert abs(emp.mean_C - 3 * 0.75) <= 4 * se


def test_estimate_determinism_and_thread_independence():
    f = inst("maj:5")
    pr = params(seed=11, replicas=600)
    e1 = dyn.estimate_C_distribution(f, pr)
    e2 = dyn.estimate_C_distribution(f, pr)
    e4 = dyn.estimate_C_distribution(f, pr, threads=4)
    for other in (e2, e4):
        assert np.array_equal(e1.C, other.C)
        assert np.array_equal(e1.S, other.S)
        assert np.array_equal(e1.initial, other.initial)
        assert e1.to_json_dict() == other.to_json_dict()


def test_empirical_summary_shape():
    f = inst("maj:5")
    emp = dyn.estimate_C_distribution(f, params(seed=12, replicas=800))
    doc = emp.to_json_dict()
    assert set(doc) == {"spec", "p", "T", "replicas", "seed", "histogram",
                        "mean_C", "var_C", "p_zero", "tail"}
    assert doc["spec"] == "maj:5"
    assert sum(cnt for _, cnt in doc["histogram"]) == 800
    gts = [q for _, q in doc["tail"]]
    assert all(a >= b for a, b in zip(gts, gts[1:]))
    assert emp.prob_greater(0) == 1.0 - emp.p_zero
    k_mass = emp.prob_between(1, 3)
    assert abs(k_mass - (emp.prob_greater(0) - emp.prob_greater(3))) < 1e-12


# -- endpoint pair statistics --------------------------------------------------

def test_joint_zero_horizon():
    est = dyn.estimate_joint(inst("maj:3"), 0.5, 0.0, 200, 4)
    assert est.disagree == 0.0


def test_joint_dictator_kernel():
    t = 0.7
    est = dyn.estimate_joint(inst("dictator:1"), 0.5, t, 20000, 13)
    target = (1 - math.exp(-t)) / 2
    assert abs(est.disagree - target) <= 4 * binom_se(target, 20000)


def test_joint_parity_kernel():
    t = 0.5
    est = dyn.estimate_joint(inst("parity:3"), 0.5, t, 20000, 14)
    target = (1 - math.exp(-3 * t)) / 2
    assert abs(est.disagree - target) <= 4 * binom_se(target, 20000)


def test_noise_pair_trivial_epsilons():
    f = inst("maj:3")
    assert dyn.sample_noise_pair(f, 0.5, 0.0, 500, 15).disagree == 0.0
    est = dyn.sample_noise_pair(f, 0.5, 1.0, 20000, 16)
    assert abs(est.mean_product - 0.25) <= 4 * binom_se(0.25, 20000)


@pytest.mark.parametrize("text", ["maj:9", "itermaj3:2", "andor:3"])
@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
def test_time_vs_noise_same_joint(text, t):
    # running the clock to t must match direct eps = 1-e^{-t} rerandomization
    f = inst(text)
    R = 8000
    sim = dyn.estimate_joint(f, 0.5, t, R, 17)
    direct = dyn.sample_noise_pair(f, 0.5, 1 - math.exp(-t), R, 18)
    pool = (sim.disagree + direct.disagree) / 2
    se = math.sqrt(max(pool * (1 - pool), 1e-12) * 2 / R)
    assert abs(sim.disagree - direct.disagree) <= 4 * se


# -- survival ------------------------------------------------------------------

def test_survival_at_zero_estimates_prob_one():
    got = dyn.survival_estimate(inst("maj:3"), 0.5, 0.0, 3000, 19)
    assert abs(got - 0.5) <= 4 * binom_se(0.5, 3000)


@pytest.mark.parametrize("x", [0.5, 1.0])
def test_survival_single_gate(x):
    # gate starts OR (prob 1/2) and no update redraws it to AND
    got = dyn.survival_estimate(inst("andor:0"), 0.5, x, 20000, 20)
    target = 0.5 * math.exp(-x / 2)
    assert abs(got - target) <= 4 * binom_se(target, 20000)


def test_survival_rejects_nan_horizon():
    with pytest.raises(ValueError, match="survival horizons"):
        dyn.survival_curve(inst("maj:3"), 0.5, [0.5, math.nan], 10, 1)


def test_survival_curve_monotone():
    xs = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    vals = dyn.survival_curve(inst("itermaj3:2"), 0.5, xs, 2000, 21)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# -- allocator -----------------------------------------------------------------

def test_only_the_block_engines_set_the_allocator():
    # importing the package and running the oracles and recursions leave
    # the allocator as it is; the first Monte Carlo call sets it
    code = "\n".join([
        "import boolvol.cli, boolvol.perctree",
        "from boolvol import analysis, dynamics, functions, oracle",
        "held = dynamics._hold_freed_memory.cache_info",
        "f = functions.make_instance(functions.parse_spec('maj:5'))",
        "oracle.exact_influence_report(f, 0.3)",
        "analysis.maj3_a_seq(0.4, 10)",
        "dynamics.sample_noise_pair(f, 0.5, 0.2, 10, 1)",
        "assert held().misses == 0",
        "dynamics.estimate_joint(f, 0.5, 1.0, 10, 1)",
        "assert held().misses == 1",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


if __name__ == "__main__":
    # the current FROZEN_MC digests, for re-recording a deliberate stream change
    for text in sorted(FROZEN_MC):
        print('    "%s": "%s",' % (text, mc_digest(text)))
