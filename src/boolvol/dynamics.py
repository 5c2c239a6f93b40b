"""Event-driven simulation of i.i.d. bit rerandomization over a time window.

Every bit carries an exponential rate-1 update clock; an update redraws
the bit to 1 with probability p.

Randomness is counter based: every draw is splitmix64(key + counter *
step) (Steele et al., OOPSLA 2014; Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11), a pure function of (seed, replica, bit,
counter).  Replica r is therefore the same whichever block or thread
replays it.  Bit b of replica r has the key K of `_edge_keys`; the
horizon is cut into ceil(T / 16) equal slots (`_slots`) and slot j of the
bit is keyed K + j * _KEY_SLOT.  On a slot key, counter 0 draws the
slot's Poisson update count by inverse CDF (slot means stay <= 16, far
from the underflow of exp(-mean)), counter 1 (slot 0 only) the bit's
initial value, counters 2+2k and 3+2k the k-th exponential spacing and
redrawn value; normalised partial sums of the k+1 spacings give the
slot's sorted update times.  Within a slot a time is kept as a 40-bit
tick, so one argsort of a packed uint64 key orders a whole block of
events by (replica, time).

A draw u is read as the uniform (u >> 11) * 2^-53, but never converted:
"uniform < p" is the integer test u < ceil(p * 2^53) << 11 (`_below`),
and a count is the number of `_poisson_cdf` thresholds ceil(cdf_k *
2^53) << 11 at or below u, which picks the same outcome bit for bit.
splitmix64 adds its gamma before mixing; since uint64 addition wraps and
is associative, the gamma is folded with the counter offset into one
constant (`_offset`), so a draw is one add and the in-place finalizer
(`_finish`), and a slot's spacing and value keys are one gather of the
slot key plus a multiple of the counter step.

`_skeleton` is this recipe for any array of clock keys, and `_tick_time`
turns a (slot, tick) into a time.  `perctree` keys the edges of its lazy
engine as the bits of `perc:children:L` are keyed here and draws them
through the same two functions, so both percolation engines replay the
same edge histories and agree replica by replica.

One kernel, `_replica_spans`, replays blocks of replicas, each bounded by
its expected number of draws (a replica too long for one block is
replayed in slot chunks), and hands each chunk's switches on as it goes;
`_replicas` folds them into counts and keeps switch times only when asked,
so a count-only run holds one block at a time.  A block pays some 80
numpy calls of fixed cost (more per tree step on the tree families), so
larger blocks amortise them, while its arrays of a few tens of bytes per
draw should stay near a per-core cache: 2^15 expected draws
(`_BLOCK_DRAWS`) measured faster than 2^14 and 2^16.  Draws are keyed by
replica, so the block size moves no output.  Both family classes replay
through one grouped cumsum, `_grouped_replay`, with no Python loop over
events:

* counter families (dictator, parity, dap, type2, maj, bigtame, table):
  the output is a function of a few weighted bit sums
  (`counter_weights`); one group per replica;
* tree families (itermaj3, andor, perc): read-once trees of threshold
  nodes (`TreeStep`), replayed level by level (`_level_replay`): one
  group per (replica, node) and one sort and grouped cumsum per tree
  step, whose output switches are the next step's events.

Every clock-driven entry point reads its statistic off `_replicas`.  A
replica expecting more than EVENT_BUDGET events (arity*T here, c_1*T
root-edge updates in `perctree`) is refused by `_slots`, before any draw.

Each block allocates and frees tens of MB of temporaries in arrays of a
few MB.  By default glibc maps such arrays fresh and returns freed heap
to the kernel, so every block faults its memory in again, page by page.
The block engines (`_replica_spans` here, `perctree.regime_experiment`)
therefore call `_hold_freed_memory` on entry, which raises glibc's mmap
and trim thresholds once per process; importing the package changes
nothing, and no output depends on the allocator.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InstanceTooLarge

_PAIR_CHUNK = 4096

# expected events per replica (arity * T) above which a run is refused;
# the same order as perctree's default edge budget
EVENT_BUDGET = 10_000_000


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


@functools.cache
def _hold_freed_memory():
    """Keep freed block memory in the process instead of re-faulting it.

    Once per process, has glibc serve arrays below 32 MiB from the heap
    (M_MMAP_THRESHOLD) and keep up to 64 MiB of freed heap
    (M_TRIM_THRESHOLD); returns whether it did.  Where the C library has
    no `mallopt` (not glibc) it does nothing and returns False.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(_M_TRIM_THRESHOLD, 64 << 20))


def replica_stream(seed, replica_index):
    """Independent per-replica generator: PCG64 seeded by (seed, replica)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, replica_index))))


# ---------------------------------------------------------------------------
# counter-based randomness
#
# Every random draw is splitmix64(key + counter * step): a pure function of
# (seed, replica, bit or edge id, counter), so exploration order, replica
# blocking and thread partitioning cannot change any trajectory.

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB
_KEY_REPLICA = 0xA24BAED4963EE407
_KEY_EDGE = 0x9FB21C651E98DF25
_KEY_DRAW = 0xD1342543DE82EF95
_KEY_SLOT = 0x670A55F755DC72D5


_SHIFTS = tuple(_U64(c) for c in (30, 27, 31))
_MULS = tuple(_U64(c) for c in (_SM_MUL1, _SM_MUL2))


def _finish(x):
    """splitmix64 output function, in place on a uint64 array the caller owns."""
    (s1, s2, s3), (m1, m2) = _SHIFTS, _MULS
    t = x >> s1
    x ^= t
    x *= m1
    np.right_shift(x, s2, out=t)
    x ^= t
    x *= m2
    np.right_shift(x, s3, out=t)
    x ^= t
    return x


def _offset(c):
    """uint64 constant c + gamma (mod 2^64): splitmix64(x + c) is _finish(x + _offset(c))."""
    return _U64((c + _SM_GAMMA) & _MASK64)


def _mix64(x):
    """splitmix64 of a uint64 array (wrapping arithmetic)."""
    return _finish(x + _offset(0))


def _mix64_int(x):
    x = (x + _SM_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _SM_MUL1) & _MASK64
    x = ((x ^ (x >> 27)) * _SM_MUL2) & _MASK64
    return x ^ (x >> 31)


def _draw(keys, ctr):
    """Draw number `ctr` (a Python int) of every key."""
    return _finish(keys + _offset(ctr * _KEY_DRAW))


def _below(u, p):
    """Whether the uniform in [0, 1) carried by u's top 53 bits lies below p.

    Compared as integers: for an integer k, k * 2^-53 < p iff k <
    ceil(p * 2^53), so the test is u < ceil(p * 2^53) << 11, true for
    every u once that ceiling reaches 2^53.
    """
    k = math.ceil(p * 2.0 ** 53)
    if k >> 53:
        return np.ones(u.shape, dtype=bool)
    return u < _U64(k << 11)


def _edge_keys(seed0, replicas_u64, edge_ids_u64):
    rep_keys = _finish(replicas_u64 * _U64(_KEY_REPLICA) + _offset(seed0))
    return _finish(rep_keys + (edge_ids_u64 * _U64(_KEY_EDGE) + _offset(_KEY_EDGE)))


def _poisson_cdf(mean):
    """Count thresholds of Poisson(mean): ceil(cdf_k * 2^53) << 11 per k,
    without the entries whose ceiling reaches 2^53 (no draw reaches them).

    A slot draw u gets count searchsorted(thresholds, u, "right"), the
    number of k with cdf_k <= (u >> 11) * 2^-53: inverse-CDF sampling
    from u's top 53 bits, compared as integers.
    """
    kmax = max(30, int(mean + 12.0 * math.sqrt(mean) + 20.0))
    pmf = np.empty(kmax + 1)
    pmf[0] = math.exp(-mean)
    for k in range(1, kmax + 1):
        pmf[k] = pmf[k - 1] * mean / k
    thr = np.ceil(np.cumsum(pmf) * 2.0 ** 53)
    return thr[thr < 2.0 ** 53].astype(np.uint64) << _U64(11)


# ---------------------------------------------------------------------------
# replica skeletons and the replay kernel

_SLOT = 16.0            # longest horizon slot
_TICK_BITS = 40         # time resolution: 2^-40 of a slot
_TICK_MASK = _U64((1 << _TICK_BITS) - 1)
_BLOCK_DRAWS = 1 << 15  # expected draws per block


@dataclass(frozen=True)
class DynamicsParams:
    p: float
    T: float
    seed: int
    replicas: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1], got %r" % (self.p,))
        if not self.T >= 0:
            raise ValueError("horizon must be >= 0, got %r" % (self.T,))
        if not isinstance(self.replicas, numbers.Integral) or self.replicas < 1:
            raise ValueError("replicas must be an integer >= 1, got %r" % (self.replicas,))
        object.__setattr__(self, "replicas", int(self.replicas))
        object.__setattr__(self, "seed", _check_id("seed", self.seed))


def _check_id(name, value):
    """`value` as an int, or ValueError unless it is an integer in [0, 2^64)."""
    if not isinstance(value, numbers.Integral) or not 0 <= value < 2**64:
        raise ValueError("%s must be an integer in [0, 2^64), got %r" % (name, value))
    return int(value)


@dataclass
class Trajectory:
    initial_output: int
    switch_times: list
    C: int  # all output switches in (0, T]
    S: int  # switches landing on 0 (the 1->0 direction)


def _slot_ticks(keys, counts, p):
    """Sorted update ticks and redrawn values of slots holding counts >= 1.

    Slot i's events are owner == i.  Tick k of a slot is the partial sum
    of spacings 0..k over the sum of all counts+1 spacings (the uniform
    order statistics up to equality in law), scaled to 2^40.  Spacings are
    summed as 2^-40 fixed-point integers, so every tick is exact and
    independent of which other slots share the block.
    """
    cm = np.cumsum(counts)
    head = cm - counts
    owner = np.repeat(np.arange(counts.size), counts)
    # event i, the (i - head)-th of its slot, draws its spacing at counter
    # 2 + 2 (i - head) and its value one counter above, so each key is the
    # slot's key shifted back by head counter pairs plus i counter pairs
    pair = _U64(2 * _KEY_DRAW & _MASK64)
    base = keys + _offset(2 * _KEY_DRAW)
    skey = (base - head.astype(np.uint64) * pair)[owner]
    skey += np.arange(owner.size, dtype=np.uint64) * pair
    vkey = skey + _U64(_KEY_DRAW)

    def spacings(u):
        u >>= _U64(11)
        return (np.log1p(u * -2.0 ** -53) * -2.0 ** _TICK_BITS).astype(np.int64)

    spac = spacings(_finish(skey))
    run = np.cumsum(spac)  # int64; a wrap cancels in the differences below
    partial = run - (run[head] - spac[head])[owner]
    base += counts.astype(np.uint64) * pair  # the slot's last spacing, counter 2 + 2 counts
    totals = partial[cm - 1] + spacings(_finish(base))
    ticks = partial / totals[owner] * 2.0 ** _TICK_BITS
    return owner, np.minimum(ticks.astype(np.uint64), _TICK_MASK), _below(_finish(vkey), p)


def _slots(clocks, T):
    """(n, length, thresholds): horizon T cut into n = ceil(T / _SLOT) equal
    slots and the `_poisson_cdf` thresholds of one slot's update count.

    A replica with `clocks` update clocks expecting more than EVENT_BUDGET
    events (clocks * T) is refused here, before any draw.
    """
    if clocks * T > EVENT_BUDGET:
        raise InstanceTooLarge("%d clocks x horizon %g expect more than %d "
                               "events per replica" % (clocks, T, EVENT_BUDGET))
    n = math.ceil(T / _SLOT)
    length = T / n if n else 0.0
    return n, length, _poisson_cdf(length)


def _skeleton(keys, p, cdf, j0, j1):
    """Update events over slots j0..j1-1 of the clocks keyed `keys`.

    Slot j of a clock is keyed key + j * _KEY_SLOT; counter 0 draws its
    update count from the `_poisson_cdf` thresholds `cdf` and `_slot_ticks`
    its ticks and redrawn values.  Returns (clock, slot, tick, value) per
    event in (clock, time) order: clock indexes `keys`, slot counts from j0.
    """
    nsl = j1 - j0
    if nsl == 0:
        none = np.empty(0, dtype=np.int64)
        return none, none, none.astype(np.uint64), none.astype(bool)
    if nsl == 1:
        gkeys = keys + _U64(j0 * _KEY_SLOT & _MASK64) if j0 else keys
    else:
        slots = np.arange(j0, j1, dtype=np.uint64) * _U64(_KEY_SLOT)
        gkeys = (keys[:, None] + slots).ravel()
    counts = np.searchsorted(cdf, _draw(gkeys, 0), side="right")
    nz = np.flatnonzero(counts)
    owner, tick, value = _slot_ticks(gkeys[nz], counts[nz], p)
    if nsl == 1:
        return nz[owner], np.zeros(owner.size, dtype=np.int64), tick, value
    clock, slot = np.divmod(nz, nsl)
    return clock[owner], slot[owner], tick, value


def _tick_time(slot, tick, slot_len):
    """Time of an event from its slot and tick: the middle of the tick."""
    return (slot + (tick + 0.5) * 2.0 ** -_TICK_BITS) * slot_len


def _replica_draws(instance, p, cdf, seed, lo, hi, j0, j1, config=None):
    """Skeleton of replicas lo..hi-1 over horizon slots j0..j1-1.

    `cdf` holds the `_poisson_cdf` thresholds of one slot's update count.  Returns
    (config, cell, value, key).  `config` holds the (hi-lo, arity) bits at
    the start of slot j0: drawn when not given (slot 0).  The other three
    hold one entry per drawn event, in generation order (replica, bit,
    slot, time): cell = (replica - lo) * arity + bit, and key packs
    (replica - lo) * (j1 - j0) + (slot - j0) above a 40-bit tick, so
    sorting it orders events by (replica, time).  `_blocks` keeps that
    packed index below 2^24.
    """
    m = instance.arity
    keys = _edge_keys(_mix64_int(seed), np.arange(lo, hi, dtype=np.uint64)[:, None],
                      np.arange(m, dtype=np.uint64)).ravel()
    if config is None:
        config = _below(_draw(keys, 1), p).astype(np.uint8).reshape(hi - lo, m)
    cell, slot, tick, value = _skeleton(keys, p, cdf, j0, j1)
    place = (cell // m * (j1 - j0) + slot).astype(np.uint64) << _U64(_TICK_BITS)
    return config, cell, value.astype(np.uint8), place | tick


def _effective_events(config, cell, value, key):
    """Events that change their bit, ordered by (replica, time).

    Returns (rep, bit, value, key) of each effective event, its replica
    counted from the block's first.
    """
    first = np.ones(cell.size, dtype=bool)
    first[1:] = cell[1:] != cell[:-1]
    prev = np.empty_like(value)
    prev[1:] = value[:-1]
    old = np.where(first, config.reshape(-1)[cell], prev)
    idx = np.flatnonzero(value != old)
    idx = idx[np.argsort(key[idx], kind="stable")]
    rep, bit = np.divmod(cell[idx], config.shape[1])
    return rep, bit, value[idx], key[idx]


def _advance(config, cell, value):
    """The configuration after every event of the skeleton."""
    last = np.ones(cell.size, dtype=bool)
    last[:-1] = cell[1:] != cell[:-1]
    end = config.copy()
    end.reshape(-1)[cell[last]] = value[last]
    return end


def _event_times(key, j0, nsl, slot_len):
    """Times of events from their keys: the middle of their tick."""
    slot = (key >> _U64(_TICK_BITS)) % _U64(nsl) + _U64(j0)
    return _tick_time(slot, key & _TICK_MASK, slot_len)


def _grouped_replay(group, step, init, output):
    """Output after every event and the mask of the events that switch it.

    Events come sorted by group, then by time.  A group's input sums start
    at init[group] and every event adds its step to them, so one cumsum
    restarted at each group's first event gives the sums after every
    event; `output` maps sums to the group's output.
    """
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


def _counter_replay(instance, weights, start, rep, bit, value):
    """Outputs at the start and the switch mask of effective events.

    The output is a function of the weighted bit sums `start @ weights`,
    and every effective event moves its bit by +-1; each replica is one
    group of `_grouped_replay`.
    """
    sums = start.astype(np.int64) @ weights
    step = weights[bit] * (2 * value.astype(np.int64) - 1)[:, None]
    _, switch = _grouped_replay(rep, step, sums, instance.counter_output)
    return instance.counter_output(sums), switch


def _level_replay(instance, start, rep, bit, value):
    """Outputs at the start and the positions of the switching events.

    The tree is replayed step by step, bottom up.  Every effective event
    has a rank, its position in the block's (replica, time) order; the
    events entering a step are its bits' own events and the output
    switches of the step below, each at the rank of the bit event behind
    it (a read-once tree sends a bit event up one path, so ranks stay
    unique within a step).  A step sorts its events by (replica and node,
    rank) as packed int64 keys, each carrying its new input value in the
    lowest bit, and keeps the events that switch their node's output: one
    `_grouped_replay` of input counts per step.  Ties in time resolve in
    draw order, as in a replay event by event.
    """
    steps = instance.steps
    if not steps:
        return start[:, 0].copy(), np.arange(rep.size)
    counts = instance.input_counts(start)
    # a key packs (replica, node) above the rank above the value; a block
    # holds under 2^31 nodes per step and far fewer events, so keys fit int64
    b = max(1, int(rep.size).bit_length()) + 1  # rank and value bits
    low = (1 << b) - 2                           # mask of the rank bits
    step, node = instance.bit_inputs(bit)
    nodes = np.array([st.nodes for st in steps])
    keys = ((rep * nodes[step] + node) << b) | (np.arange(rep.size) << 1) | value
    order = np.argsort(step)
    entering = np.split(keys[order], np.searchsorted(step[order], np.arange(1, len(steps))))
    carry = keys[:0]
    for s, st in enumerate(steps):
        keys = np.sort(np.concatenate((carry, entering[s])))
        out, switch = _grouped_replay(keys >> b, 2 * (keys & 1) - 1, counts[s].ravel(),
                                      lambda c, t=st.threshold: c >= t)
        keys = keys[switch]
        if s + 1 < len(steps):
            fan = st.nodes // steps[s + 1].nodes
            carry = (keys >> b) // fan << b | keys & low | out[switch]
    out0 = counts[-1][:, 0] >= steps[-1].threshold
    return out0.astype(np.uint8), (keys & low) >> 1


def _blocks(m, n_slots, slot_len, lo, hi):
    """(first, stop, slot spans) per block of about _BLOCK_DRAWS expected
    draws; a replica needing more gets a block of its own, cut into spans."""
    per_slot = m * (1.0 + slot_len)
    per_rep = m + n_slots * per_slot
    if per_rep <= _BLOCK_DRAWS:
        step = int(_BLOCK_DRAWS // per_rep)
        return [(a, min(a + step, hi), [(0, n_slots)]) for a in range(lo, hi, step)]
    width = max(1, int(_BLOCK_DRAWS // per_slot))
    spans = [(j, min(j + width, n_slots)) for j in range(0, n_slots, width)]
    return [(r, r + 1, spans or [(0, 0)]) for r in range(lo, hi)]


class ReplicaBatch(NamedTuple):
    """Per-replica results of a run of replicas.

    Replica i's switch times, increasing in (0, T], are
    times[offsets[i]:offsets[i + 1]] when all of them are kept.
    """

    initial: np.ndarray  # output at time 0 (uint8)
    C: np.ndarray        # output switches in (0, T] (int64)
    times: np.ndarray    # switch times kept (float64), or None

    @property
    def offsets(self):
        return np.concatenate(([0], np.cumsum(self.C)))

    @property
    def S(self):
        """Switches landing on 0: switches alternate, so C and the start fix it."""
        return (self.C + self.initial) // 2

    @property
    def final(self):
        return (self.initial ^ (self.C & 1)).astype(np.uint8)


def _replica_spans(instance, p, T, seed, lo, hi, with_times):
    """Replays replicas lo..hi-1 block by block, one slot span at a time.

    Yields (first, stop, initial, rep, times) per span of the block
    first..stop-1: `initial` holds the block's outputs at time 0 on its
    first span and is None after it, `rep` the replica (counted from
    `first`) of each switch of the span, in (replica, time) order, and
    `times` their times (None without `with_times`).  Nothing is kept from
    one span to the next but a long replica's configuration, so
    the kernel's memory is set by one block, whatever the replica count.
    """
    m = instance.arity
    n_slots, slot_len, cdf = _slots(m, T)
    _hold_freed_memory()
    weights = instance.counter_weights()
    for a, b, spans in _blocks(m, n_slots, slot_len, lo, hi):
        config = None
        for j0, j1 in spans:
            start, cell, value, key = _replica_draws(instance, p, cdf, seed, a, b,
                                                     j0, j1, config)
            if len(spans) > 1:
                config = _advance(start, cell, value)
            rep, bit, value, key = _effective_events(start, cell, value, key)
            if weights is not None:
                out0, switch = _counter_replay(instance, weights, start, rep, bit, value)
            else:
                out0, switch = _level_replay(instance, start, rep, bit, value)
            times = None
            if with_times:
                times = _event_times(key[switch], j0, max(1, j1 - j0), slot_len)
            yield a, b, (out0 if j0 == 0 else None), rep[switch], times


def _replicas(instance, p, T, seed, lo, hi, keep=None):
    """ReplicaBatch of replicas lo..hi-1, folded span by span.

    `keep` picks the switch times kept in `times`: None, none (times is
    None); "first", each replica's first switch time (inf if it never
    switches); "all", every switch time, replica by replica.  Only "all"
    holds memory in proportion to the switches of the run.
    """
    initial = np.zeros(hi - lo, dtype=np.uint8)
    C = np.zeros(hi - lo, dtype=np.int64)
    kept = np.full(hi - lo, np.inf) if keep == "first" else []
    for a, b, out0, rep, times in _replica_spans(instance, p, T, seed, lo, hi,
                                                 keep is not None):
        if out0 is not None:
            initial[a - lo:b - lo] = out0
        C[a - lo:b - lo] += np.bincount(rep, minlength=b - a)
        if keep == "all":
            kept.append(times)
        elif keep == "first" and rep.size:
            # spans run in time order, so a replica's first switch is the
            # first one of the earliest span holding any
            head = np.flatnonzero(np.diff(rep, prepend=-1))
            dst = a - lo + rep[head]
            kept[dst] = np.minimum(kept[dst], times[head])
    if keep is None:
        kept = None
    elif keep == "all":
        kept = np.concatenate(kept)
    return ReplicaBatch(initial=initial, C=C, times=kept)


def simulate_batch(instance, dyn_params):
    """Every replica of `dyn_params` with all its switch times."""
    return _replicas(instance, dyn_params.p, dyn_params.T, dyn_params.seed,
                     0, dyn_params.replicas, keep="all")


def simulate_trajectory(instance, dyn_params, replica_index):
    """One full replica: initial output, switch times and counts.

    Replica `replica_index` is a pure function of (seed, index), so any
    integer in [0, 2^64) is valid, `dyn_params.replicas` or above too;
    anything else raises ValueError.
    """
    replica_index = _check_id("replica index", replica_index)
    b = _replicas(instance, dyn_params.p, dyn_params.T, dyn_params.seed,
                  replica_index, replica_index + 1, keep="all")
    return Trajectory(initial_output=int(b.initial[0]), switch_times=b.times.tolist(),
                      C=int(b.C[0]), S=int(b.S[0]))


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
    initial = np.zeros(R, dtype=np.uint8)

    def run_block(lo, hi):
        b = _replicas(instance, dyn_params.p, dyn_params.T, dyn_params.seed, lo, hi)
        initial[lo:hi], C[lo:hi] = b.initial, b.C

    if threads <= 1 or R < 2 * threads:
        run_block(0, R)
    else:
        step = -(-R // threads)
        bounds = [(lo, min(lo + step, R)) for lo in range(0, R, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: run_block(*b), bounds))
    return EmpiricalC(
        spec=instance.spec.spec_string(), p=dyn_params.p, T=dyn_params.T,
        seed=dyn_params.seed, replicas=R, C=C, S=ReplicaBatch(initial, C, None).S,
        initial=initial,
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
    b = _replicas(instance, p, t, seed, 0, replicas)
    return _pair_summary(b.initial, b.final, replicas)


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
    if not all(x >= 0 for x in xs):
        raise ValueError("survival horizons must be >= 0, got %r" % (xs,))
    horizon = max(xs, default=0.0)
    DynamicsParams(p=p, T=horizon, seed=seed, replicas=replicas)
    b = _replicas(instance, p, horizon, seed, 0, replicas, keep="first")
    ones = b.initial == 1
    return [float(np.mean(ones & (b.times > x))) for x in xs]


def survival_estimate(instance, p, x, replicas, seed):
    """P(output is 1 throughout [0, x]); see survival_curve."""
    return survival_curve(instance, p, [x], replicas, seed)[0]
