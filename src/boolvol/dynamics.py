"""Event-driven simulation of i.i.d. bit rerandomization over a time window.

Every bit is a two-state chain that jumps 0 -> 1 at rate p and 1 -> 0 at
rate q = 1 - p: the paper's rate-1 clock that redraws the bit to 1 with
probability p.  The chain is simulated uniformized at its smallest valid
rate r = max(p, q) (Jensen, 1953): a clock rings at rate r, and each ring
is a *flip* (probability min(p, q) / r), which toggles the bit, or a
*push* (probability |p - q| / r), which sets it to the favoured value F
(1 if p > 1/2, else 0).  At p = 1/2 every ring flips, so no ring is
wasted on a redraw that leaves the bit as it was.

Randomness is counter based: every draw is splitmix64(key + counter *
step) (Steele et al., OOPSLA 2014; Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11), a pure function of (seed, replica, bit,
counter).  Replica r is therefore the same whichever block or thread
replays it.  Bit b of replica r has the key K of `_edge_keys`; the
horizon is cut into ceil(T / 16) equal slots (`_slots`) and slot j of the
bit is keyed K + j * _KEY_SLOT.  On a slot key, counter 0 draws the
slot's Poisson(r * length) ring count by inverse CDF (slot means stay
<= 16, far from the underflow of exp(-mean)), counter 1 (slot 0 only) the
bit's initial value, counter 2+2k the k-th exponential spacing and,
unless p = 1/2, counter 3+2k whether the k-th ring flips; normalised
partial sums of the k+1 spacings give the slot's sorted ring times.  The
type of a ring does not depend on the state, so the bits' states after
every ring follow from running flip parities restarted at each push
(`_ring_states`), and the skeleton hands on only the rings that change a
bit.  Within a slot a time is kept as a 40-bit tick, so one argsort of a
packed uint64 key orders a whole block of events by (replica, time).
That argsort is numpy's default, unstable one; events of equal key, which
need the same replica, slot and tick, keep their draw order because a
block whose sorted keys hold a tie is sorted again stably (`_time_order`).

A draw u is read as the uniform (u >> 11) * 2^-53, but never converted:
"uniform < p" is the integer test u < ceil(p * 2^53) << 11 (`_below`),
and a count is the number of `_poisson_cdf` thresholds ceil(cdf_k *
2^53) << 11 at or below u, which picks the same outcome bit for bit.
The count is read from a guide table (`CountTable`, built once per slot
length): u's top 12 bits index 4096 buckets, each holding the count of
all its draws, or -1 where a threshold lies inside it, and only the draws
in such buckets (under 1% of them) bisect the thresholds (`_counts`).
splitmix64 adds its gamma before mixing; since uint64 addition wraps and
is associative, the gamma is folded with the counter offset into one
constant (`_offset`), so a draw is one add and the in-place finalizer
(`_finish`), and a slot's spacing and type keys are one gather of the
slot key plus a multiple of the counter step.

`_skeleton` is this recipe for any array of clock keys and start states,
and `_tick_time` turns a (slot, tick) into a time.  `perctree` keys the
edges of its lazy engine as the bits of `perc:children:L` are keyed here
and draws them through the same two functions, so both percolation
engines replay the same edge histories and agree replica by replica.

One kernel, `_replicas`, replays blocks of replicas, each bounded by its
expected number of draws (a replica too long for one block is replayed in
slot spans), folds each span's switches into counts as it goes and keeps
switch times only when asked.  A span's arrays are freed before the next
span is drawn, so a count-only run holds one block at a time.  A block
pays some 80 numpy calls of fixed cost (more per tree step on the tree
families), so larger blocks amortise them, while its arrays of a few tens
of bytes per draw should stay near a per-core cache.  Blocks are sized in
rate-1 draws, so at p = 1/2 a block holds about half the rings it is
sized for.  Over the mc-long benchmark's task list (2 vCPUs), 2^17
expected draws (`_BLOCK_DRAWS`) took 38.0 ms against 51.2, 42.0 and 38.0
ms at 2^15, 2^16 and 2^18, and its largest task peaked at 3.2 MB of
traced memory against 5.3 MB at 2^18.  Draws are keyed by replica, so the block size
moves no output.  Both family classes replay through one grouped cumsum
of input sums, `_grouped_sums`, with no Python loop over events:

* counter families (dictator, parity, dap, type2, maj, bigtame, table):
  the output is a function of a few weighted bit sums
  (`counter_weights`), read off the sums by `counter_output`; one group
  per replica;
* tree families (itermaj3, andor, perc): read-once trees of threshold
  nodes (`TreeStep`), replayed level by level (`_level_replay`): one
  group per (replica, node) and one sort and grouped cumsum per tree
  step, whose output switches are the next step's events.  A unit step
  switches a threshold node exactly when the count after it sits at the
  threshold (`_threshold_switches`), so no output is evaluated.

Every clock-driven entry point reads its statistic off `_replicas`.  A
replica expecting more than EVENT_BUDGET events, clocks * max(T, 1) since
it draws every clock's start state (clocks = arity here, c_1 root edges in
`perctree`; `sample_noise_pair` draws at T = 0), is refused by
`_check_budget` before any draw.  The budget, like the block sizes of
`_blocks`, counts rate-1 updates, an upper bound on the rate-r rings drawn.

Each block allocates and frees tens of MB of temporaries in arrays of a
few MB.  By default glibc maps such arrays fresh and returns freed heap
to the kernel, so every block faults its memory in again, page by page.
The block engines (`_replicas` here, `perctree.regime_experiment`)
therefore call `_hold_freed_memory` on entry, which raises glibc's mmap
and trim thresholds once per process; importing the package changes
nothing, and no output depends on the allocator.
"""

from __future__ import annotations

import ctypes
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InstanceTooLarge, _check_id, _check_int, _check_real, _check_seq, _check_type
from .functions import _check_instance

_PAIR_CHUNK = 4096

# expected events per replica (arity * max(T, 1)) above which a run is refused
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
    key = (_check_id("seed", seed), _check_id("replica index", replica_index))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


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


_GUIDE_SHIFT = _U64(52)  # a draw's guide bucket is its top 12 bits
_GUIDE_SPAN = _U64((1 << 52) - 1)


class CountTable(NamedTuple):
    """A slot's `_poisson_cdf` thresholds and their guide table.

    guide[b] is the count of every draw u with u >> 52 == b, or -1 where a
    threshold lies inside that bucket (Chen & Asau, AIIE Trans. 6(2), 1974).
    """

    thresholds: np.ndarray
    guide: np.ndarray  # int8: counts stay far below 127 for slot means <= 16


def _count_guide(thresholds):
    """The guide table of sorted uint64 count thresholds."""
    assert thresholds.size < 128, "counts must fit the int8 guide"
    starts = np.arange(1 << 12, dtype=np.uint64) << _GUIDE_SHIFT
    first = np.searchsorted(thresholds, starts, side="right")
    last = np.searchsorted(thresholds, starts | _GUIDE_SPAN, side="right")
    return np.where(first == last, first, -1).astype(np.int8)


@functools.lru_cache(maxsize=64)
def _count_table(mean):
    """CountTable of a Poisson(mean) slot count, built once per slot mean."""
    thr = _poisson_cdf(mean)
    table = CountTable(thr, _count_guide(thr))
    for a in table:
        a.flags.writeable = False
    return table


def _counts(table, u):
    """Per draw u, the number of `table` thresholds at or below it: the
    guide's entry, or a bisection where the guide has none."""
    c = table.guide[(u >> _GUIDE_SHIFT).view(np.int64)]
    miss = np.flatnonzero(c < 0)
    if miss.size:
        c[miss] = np.searchsorted(table.thresholds, u[miss], side="right")
    return c


# ---------------------------------------------------------------------------
# replica skeletons and the replay kernel

_SLOT = 16.0            # longest horizon slot
_TICK_BITS = 40         # time resolution: 2^-40 of a slot
_TICK_MASK = _U64((1 << _TICK_BITS) - 1)
_BLOCK_DRAWS = 1 << 17  # expected draws per block


@dataclass(frozen=True)
class DynamicsParams:
    p: float
    T: float
    seed: int
    replicas: int

    def __post_init__(self):
        object.__setattr__(self, "p", _check_real("p", self.p, 0, 1))
        object.__setattr__(self, "T", _check_real("horizon", self.T, 0, math.inf))
        object.__setattr__(self, "replicas", _check_int("replicas", self.replicas, 1))
        object.__setattr__(self, "seed", _check_id("seed", self.seed))


@dataclass
class Trajectory:
    initial_output: int
    switch_times: list
    C: int  # all output switches in (0, T]
    S: int  # switches landing on 0 (the 1->0 direction)


def _slot_ticks(keys, counts, flip):
    """Sorted ring ticks of slots holding counts >= 1, and which rings flip.

    Slot i's rings are owner == i.  Tick k of a slot is the partial sum
    of spacings 0..k over the sum of all counts+1 spacings (the uniform
    order statistics up to equality in law), scaled to 2^40.  Spacings are
    summed as 2^-40 fixed-point integers, so every tick is exact and
    independent of which other slots share the block.  A ring flips with
    probability `flip` and pushes otherwise; with `flip` None every ring
    flips and no type is drawn (flips is None).
    """
    cm = np.cumsum(counts)
    head = cm - counts
    owner = np.repeat(np.arange(counts.size), counts)
    # ring i, the (i - head)-th of its slot, draws its spacing at counter
    # 2 + 2 (i - head) and its type one counter above, so each key is the
    # slot's key shifted back by head counter pairs plus i counter pairs
    pair = _U64(2 * _KEY_DRAW & _MASK64)
    base = keys + _offset(2 * _KEY_DRAW)
    skey = (base - head.astype(np.uint64) * pair)[owner]
    skey += np.arange(owner.size, dtype=np.uint64) * pair
    flips = None if flip is None else _below(_finish(skey + _U64(_KEY_DRAW)), flip)

    def spacings(u):
        u >>= _U64(11)
        return (np.log1p(u * -2.0 ** -53) * -2.0 ** _TICK_BITS).astype(np.int64)

    spac = spacings(_finish(skey))
    run = np.cumsum(spac)  # int64; a wrap cancels in the differences below
    partial = run - (run[head] - spac[head])[owner]
    base += counts.astype(np.uint64) * pair  # the slot's last spacing, counter 2 + 2 counts
    totals = partial[cm - 1] + spacings(_finish(base))
    ticks = partial / totals[owner] * 2.0 ** _TICK_BITS
    return owner, np.minimum(ticks.astype(np.uint64), _TICK_MASK), flips


def _check_budget(clocks, T):
    """Refuses a replica of `clocks` clocks whose start states and rate-1
    updates over horizon T, clocks * max(T, 1), pass EVENT_BUDGET."""
    if clocks * max(T, 1.0) > EVENT_BUDGET:
        raise InstanceTooLarge("%d clocks x max(horizon %g, 1) expect more than "
                               "%d events per replica" % (clocks, T, EVENT_BUDGET))


def _slots(clocks, T, p):
    """(n, length, table): horizon T cut into n = ceil(T / _SLOT) equal
    slots and the `CountTable` of one slot's ring count, Poisson with mean
    max(p, 1 - p) * length.  A replica past the budget is refused first.
    """
    _check_budget(clocks, T)
    n = math.ceil(T / _SLOT)
    length = T / n if n else 0.0
    return n, length, _count_table(max(p, 1.0 - p) * length)


def _ring_states(clock, state, flips, favoured):
    """Each ring's new state, and the mask of the rings that change it.

    Rings come in (clock, time) order, and `state` holds each clock's
    state before its first ring.  After a restart, a clock's first ring
    or a push, the state is known: `favoured` after a push, else the
    flipped start state.  After any other ring it is the state at the
    last restart xored with the parity of the flips since; with par the
    running parity of all flips, that is par xored with (state xor par)
    at the last restart.  With `flips` None every ring flips, so every
    ring changes its clock's state (the mask is None).
    """
    n = clock.size
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(clock[1:], clock[:-1], out=first[1:])
    start = state[clock]
    if flips is None:
        rank = np.arange(n)
        rank -= np.maximum.accumulate(np.where(first, rank, 0))
        return start ^ (rank & 1 == 0), None
    par = np.logical_xor.accumulate(flips)
    restart = np.where(first >= flips, np.arange(n), 0)  # first, or a push
    np.maximum.accumulate(restart, out=restart)
    at = np.where(flips, ~start, favoured)
    at ^= par
    value = at[restart]
    value ^= par
    before = np.empty_like(value)
    before[1:] = value[:-1]
    np.copyto(before, start, where=first)
    return value, value != before


def _skeleton(keys, state, p, table, j0, j1):
    """State changes over slots j0..j1-1 of the clocks keyed `keys`.

    `state` holds each clock's state (bool) at the start of slot j0.
    Slot j of a clock is keyed key + j * _KEY_SLOT; counter 0 draws its
    ring count from the `CountTable` `table` and `_slot_ticks` its ticks
    and ring types.  Returns (clock, slot, tick, value) per ring that
    changes its clock's state, value the state it enters, in (clock, time)
    order: clock indexes `keys`, slot counts from j0.
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
    counts = _counts(table, _draw(gkeys, 0))
    nz = np.flatnonzero(counts)
    flip = None if p == 0.5 else min(p, 1.0 - p) / max(p, 1.0 - p)
    owner, tick, flips = _slot_ticks(gkeys[nz], counts[nz], flip)
    clock, slot = (nz, None) if nsl == 1 else np.divmod(nz, nsl)
    clock = clock[owner]
    value, change = _ring_states(clock, state, flips, p > 0.5)
    if change is not None:
        kept = np.flatnonzero(change)
        owner, clock, tick, value = owner[kept], clock[kept], tick[kept], value[kept]
    slot = np.zeros(owner.size, dtype=np.int64) if nsl == 1 else slot[owner]
    return clock, slot, tick, value


def _tick_time(slot, tick, slot_len):
    """Time of an event from its slot and tick: the middle of the tick."""
    return (slot + (tick + 0.5) * 2.0 ** -_TICK_BITS) * slot_len


def _replica_draws(instance, p, table, seed, lo, hi, j0, j1, config=None):
    """Skeleton of replicas lo..hi-1 over horizon slots j0..j1-1.

    `table` is the `CountTable` of one slot's ring count.  Returns
    (config, cell, value, key).  `config` holds the (hi-lo, arity) bits at
    the start of slot j0: drawn when not given (slot 0).  The other three
    hold one entry per event that changes a bit, in generation order
    (replica, bit, slot, time): cell = (replica - lo) * arity + bit, value
    the bit's new value, and key packs (replica - lo) * (j1 - j0) +
    (slot - j0) above a 40-bit tick, so sorting it orders events by
    (replica, time).  `_blocks` keeps that packed index below 2^24.
    """
    m = instance.arity
    keys = _edge_keys(_mix64_int(seed), np.arange(lo, hi, dtype=np.uint64)[:, None],
                      np.arange(m, dtype=np.uint64)).ravel()
    if config is None:
        config = _below(_draw(keys, 1), p).astype(np.uint8).reshape(hi - lo, m)
    cell, slot, tick, value = _skeleton(keys, config.reshape(-1).view(bool), p, table,
                                        j0, j1)
    place = (cell // m * (j1 - j0) + slot).astype(np.uint64) << _U64(_TICK_BITS)
    return config, cell, value.astype(np.uint8), place | tick


def _effective_events(m, cell, value, key):
    """Events of an m-bit skeleton ordered by (replica, time).

    Returns (rep, bit, value, key) of each event, its replica counted
    from the block's first.  Events of equal key (same replica, slot and
    tick) keep their draw order (`_time_order`).
    """
    order, key = _time_order(key)
    rep, bit = np.divmod(cell[order], m)
    return rep, bit, value[order], key


def _time_order(key):
    """(order, key[order]) with order the stable argsort of `key`.

    The default sort is several times faster than the stable one on
    uint64 keys; it can only differ from it on equal keys, which need the
    same replica, slot and 40-bit tick, so the stable sort reruns only when
    the sorted keys hold a tie.
    """
    order = np.argsort(key)
    ordered = key[order]
    if np.any(ordered[1:] == ordered[:-1]):
        order = np.argsort(key, kind="stable")
    return order, ordered


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


def _grouped_sums(group, step, init):
    """Input sums after every event, and the mask of each group's first event.

    Events come sorted by group, then by time.  A group's input sums start
    at init[group] and every event adds its step to them, so the sums
    after every event are one cumsum of the steps plus each group's
    offset, repeated over the group's events.
    """
    head = np.ones(group.size, dtype=bool)
    head[1:] = group[1:] != group[:-1]
    run = np.cumsum(step, axis=0)
    first = np.flatnonzero(head)
    offset = init[group[first]] - run[first] + step[first]
    after = run + np.repeat(offset, np.diff(first, append=group.size), axis=0)
    return after, head


def _threshold_switches(group, value, init, t):
    """Mask of the events that switch the output of a threshold-t node.

    Events are grouped as in `_grouped_sums`; each moves its node's input
    count by s = 2 * value - 1.  A node outputs count >= t, so an event
    switches it exactly when the count c after it has 2c - s = 2t - 1
    (c = t after a rise, t - 1 after a fall), and the node's new output
    is then the event's value.
    """
    after, _ = _grouped_sums(group, 2 * value - 1, init)
    after -= value
    return after == t - 1


def _counter_replay(instance, weights, start, rep, bit, value):
    """Outputs at the start and the switch mask of effective events.

    The output is a function of the weighted bit sums `start @ weights`,
    and every effective event moves its bit by +-1; each replica is one
    group of `_grouped_sums`.
    """
    sums = start.astype(np.int64) @ weights
    step = weights[bit] * (2 * value.astype(np.int64) - 1)[:, None]
    after, head = _grouped_sums(rep, step, sums)
    out0 = instance.counter_output(sums)
    out = instance.counter_output(after)
    before = np.empty_like(out)
    before[1:] = out[:-1]
    before[head] = out0[rep[head]]
    return out0, out != before


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
    grouped cumsum of input counts per step, read by `_threshold_switches`.
    A kept event's value bit is its node's new output, so its key moves up
    a step with only its node replaced.  Ties in time resolve in draw
    order, as in a replay event by event.
    """
    steps = instance.steps
    if not steps:
        return start[:, 0].copy(), np.arange(rep.size)
    counts = instance.input_counts(start)
    # a key packs (replica, node) above the rank above the value; a block
    # holds under 2^31 nodes per step and far fewer events, so keys fit int64
    b = max(1, int(rep.size).bit_length()) + 1  # rank and value bits
    low = (1 << b) - 1                           # mask of the rank and value bits
    step, node = instance.bit_inputs(bit)
    nodes = np.array([st.nodes for st in steps])
    keys = ((rep * nodes[step] + node) << b) | (np.arange(rep.size) << 1) | value
    # a stable sort of small unsigned integers is a radix sort
    order = np.argsort(step.astype(np.min_scalar_type(len(steps))), kind="stable")
    entering = np.split(keys[order], np.searchsorted(step[order], np.arange(1, len(steps))))
    carry = keys[:0]
    for s, st in enumerate(steps):
        keys = np.sort(np.concatenate((carry, entering[s])))
        keys = keys[_threshold_switches(keys >> b, keys & 1, counts[s].ravel(), st.threshold)]
        if s + 1 < len(steps):
            fan = st.nodes // steps[s + 1].nodes
            carry = (keys >> b) // fan << b | keys & low
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


def _replicas(instance, p, T, seed, lo, hi, keep=None):
    """ReplicaBatch of replicas lo..hi-1, replayed block by block, one slot
    span at a time.

    `keep` picks the switch times kept in `times`: None, none (times is
    None); "first", each replica's first switch time (inf if it never
    switches); "all", every switch time, replica by replica.  A span's
    arrays die when its replay returns, and nothing is kept from one span
    to the next but a long replica's configuration and the per-replica
    results, so the kernel's memory is set by one block, whatever the
    replica count; only "all" holds memory in proportion to the switches
    of the run.
    """
    _check_instance(instance)
    m = instance.arity
    n_slots, slot_len, table = _slots(m, T, p)
    _hold_freed_memory()
    weights = instance.counter_weights()
    initial = np.zeros(hi - lo, dtype=np.uint8)
    C = np.zeros(hi - lo, dtype=np.int64)
    kept = np.full(hi - lo, np.inf) if keep == "first" else []

    def replay(a, b, j0, j1, config, carry):
        # a function of its own, so that a span's arrays die on return, not
        # when the next span's draw rebinds them; returns the configuration
        # after the span when `carry` is set
        start, cell, value, key = _replica_draws(instance, p, table, seed, a, b,
                                                 j0, j1, config)
        end = _advance(start, cell, value) if carry else None
        rep, bit, value, key = _effective_events(m, cell, value, key)
        if weights is not None:
            out0, switch = _counter_replay(instance, weights, start, rep, bit, value)
        else:
            out0, switch = _level_replay(instance, start, rep, bit, value)
        if j0 == 0:
            initial[a - lo:b - lo] = out0
        rep = rep[switch]
        C[a - lo:b - lo] += np.bincount(rep, minlength=b - a)
        if keep is None:
            return end
        times = _event_times(key[switch], j0, max(1, j1 - j0), slot_len)
        if keep == "all":
            kept.append(times)
        elif rep.size:
            # spans run in time order, so a replica's first switch is the
            # first one of the earliest span holding any
            head = np.flatnonzero(np.diff(rep, prepend=-1))
            dst = a - lo + rep[head]
            kept[dst] = np.minimum(kept[dst], times[head])
        return end

    for a, b, spans in _blocks(m, n_slots, slot_len, lo, hi):
        config = None
        for j0, j1 in spans:
            config = replay(a, b, j0, j1, config, len(spans) > 1)
    if keep == "all":
        kept = np.concatenate(kept)
    return ReplicaBatch(initial=initial, C=C, times=None if keep is None else kept)


def simulate_batch(instance, dyn_params):
    """Every replica of `dyn_params` with all its switch times."""
    _check_type("dyn_params", dyn_params, DynamicsParams)
    return _replicas(instance, dyn_params.p, dyn_params.T, dyn_params.seed,
                     0, dyn_params.replicas, keep="all")


def simulate_trajectory(instance, dyn_params, replica_index):
    """One full replica: initial output, switch times and counts.

    Replica `replica_index` is a pure function of (seed, index), so any
    integer in [0, 2^64) is valid, `dyn_params.replicas` or above too;
    anything else raises ValueError.
    """
    replica_index = _check_id("replica index", replica_index)
    _check_type("dyn_params", dyn_params, DynamicsParams)
    b = _replicas(instance, dyn_params.p, dyn_params.T, dyn_params.seed,
                  replica_index, replica_index + 1, keep="all")
    return Trajectory(initial_output=int(b.initial[0]), switch_times=b.times.tolist(),
                      C=int(b.C[0]), S=int(b.S[0]))


# the M of every P(C > M) a serialized EmpiricalC reports
_TAIL_GRID = (1, 2, 5, 10, 20)


@dataclass
class EmpiricalC:
    """Per-replica switch counts plus derived summary statistics."""

    spec: str
    p: float
    T: float
    seed: int
    replicas: int
    C: np.ndarray
    initial: np.ndarray

    @property
    def S(self):
        """Switches landing on 0: switches alternate, so C and the start fix it."""
        return (self.C + self.initial) // 2

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
        M = _check_real("threshold M", M, -math.inf, math.inf)
        return float(np.count_nonzero(self.C > M)) / self.replicas

    def prob_between(self, lo, hi):
        lo = _check_real("lower threshold", lo, -math.inf, math.inf)
        hi = _check_real("upper threshold", hi, -math.inf, math.inf)
        return float(np.count_nonzero((self.C >= lo) & (self.C <= hi))) / self.replicas

    def histogram(self):
        counts = np.bincount(self.C)
        return [[int(c), int(k)] for c, k in enumerate(counts) if k]

    def to_json_dict(self):
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
            "tail": [[M, self.prob_greater(M)] for M in _TAIL_GRID],
        }


def estimate_C_distribution(instance, dyn_params, threads=1):
    """Aggregates independent replicas; identical output for any thread count.

    Replica r is a deterministic function of (seed, r), and results land
    in arrays indexed by r, so parallel execution cannot reorder them.
    """
    threads = _check_int("threads", threads, 1)
    R = _check_type("dyn_params", dyn_params, DynamicsParams).replicas
    C = np.zeros(R, dtype=np.int64)
    initial = np.zeros(R, dtype=np.uint8)

    def run_block(lo, hi):
        b = _replicas(instance, dyn_params.p, dyn_params.T, dyn_params.seed, lo, hi)
        initial[lo:hi], C[lo:hi] = b.initial, b.C

    if threads == 1 or R < 2 * threads:
        run_block(0, R)
    else:
        step = -(-R // threads)
        bounds = [(lo, min(lo + step, R)) for lo in range(0, R, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: run_block(*b), bounds))
    return EmpiricalC(
        spec=instance.spec.spec_string(), p=dyn_params.p, T=dyn_params.T,
        seed=dyn_params.seed, replicas=R, C=C, initial=initial,
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
    pr = DynamicsParams(p=p, T=t, seed=seed, replicas=replicas)
    b = _replicas(instance, pr.p, pr.T, pr.seed, 0, pr.replicas)
    return _pair_summary(b.initial, b.final, pr.replicas)


def sample_noise_pair(instance, p, epsilon, replicas, seed):
    """Draws (X, Y) directly: each bit of Y independently redrawn w.p. epsilon.

    No clock is involved; at epsilon = 1-e^{-t} the pair has the same law
    as the endpoints of a horizon-t simulation.
    """
    epsilon = _check_real("epsilon", epsilon, 0, 1)
    pr = DynamicsParams(p=p, T=0.0, seed=seed, replicas=replicas)
    p, seed, replicas = pr.p, pr.seed, pr.replicas
    _check_instance(instance)
    m = instance.arity
    _check_budget(m, 0.0)
    rng = replica_stream(seed, 0)
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
    xs = [float(_check_real("survival horizons", x, 0, math.inf))
          for x in _check_seq("survival horizons", xs)]
    pr = DynamicsParams(p=p, T=max(xs, default=0.0), seed=seed, replicas=replicas)
    b = _replicas(instance, pr.p, pr.T, pr.seed, 0, pr.replicas, keep="first")
    ones = b.initial == 1
    return [float(np.mean(ones & (b.times > x))) for x in xs]
