"""Root connectivity of spherically symmetric trees under edge rerandomization.

A *level profile* lists integer child counts c_1..c_n; level k of the tree
holds v_k = c_1 * ... * c_k vertices and the level-k weight is
w_k = v_k / 2^k, the expected number of level-k vertices whose path to the
root is fully open under i.i.d. fair edge states.  The profile builder
searches integer child counts whose weights track a requested growth law;
the regime experiment measures, per level, how often and how persistently
the root stays connected while every edge is rerandomized at rate 1: it
opens at rate p and closes at rate 1 - p.

The experiment never materializes the tree.  Each edge's skeleton (initial
state, and the times at which its state changes) is a pure function of
(seed, replica, edge id), drawn by `dynamics._skeleton`, the recipe that
also draws the bits of the eager engine: the edge's clock rings at rate
max(p, 1 - p), each ring flips the edge or pushes it to the likelier state,
the horizon is cut into ceil(T / 16) equal slots, and each slot's ring
times are exact 2^-40 fixed-point ticks.  Edge ids come from
`functions._edge_offsets`, which also numbers the bits of
`perc:children:L`, so edge e has the same history here and in `dynamics`,
and the two engines agree replica by replica.  A replica whose c_1 root
edges expect more than `dynamics.EVENT_BUDGET` events (c_1 * max(T, 1))
is refused before any draw.  A replica expected to draw more than _REPLICA_DRAWS
edges and rate-1 updates in its descent is refused too, and so is a level
of more than _REPLICA_DRAWS children per vertex, since a reached vertex
draws them all at once.  Blocks of replicas are sized separately, by
_BLOCK_DRAWS expected draws, which bounds one level's arrays.  Rate-1
updates bound the rings drawn at rate max(p, 1 - p), so these are upper
bounds.

Before the descent, a lookahead settles the replicas that stay connected
throughout.  An edge open at time 0 whose state never changes is open on
all of [0, T], with probability q = p e^{-(1-p) T}; such edges form static
percolation.  The lookahead follows only them, from the keys and
draws of the descent.  A replica it brings to the deepest requested level
has the union [0, T) at every level: output 1 at time 0, no switch.  It
skips the descent, and the rest descend as before.  The lookahead runs
only when the tree expects at least one such path, prod_k c_k q >= 1 down
to that level, since otherwise its per-level calls cost more than the
replicas it settles save.

The exploration descends lazily: a vertex is visited only while some time
interval keeps its whole root path open.  Interval endpoints are derived
arithmetically from event times by max/min alone — never by float
arithmetic — so the per-replica events "connected to level k at time t"
are exactly nested across levels, and every statistic below is exactly
monotone in the level, not just in expectation.

Replicas are processed in blocks with ragged interval arrays (flat bounds
plus per-vertex counts).  A level step intersects each child open span
with the parent reach intervals it can meet, all pairs at once; bisection
skips the rest, so a step's arrays grow with its spans and the parent's
intervals, not with their product.  Both lists are disjoint and in time
order, so the pieces come out in time order without a sort.  A level's
frontier lists its vertices in edge order; each vertex keeps its
intervals contiguous and in time order, and the union statistics sort by
replica themselves, whatever the vertex order.  An edge's change times
come from its own key alone, so results are independent, bit for bit, of
the block size, of the order of the frontier and of which levels are
requested.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    _KEY_EDGE,
    _KEY_REPLICA,
    _U64,
    DynamicsParams,
    EmpiricalC,
    _below,
    _draw,
    _edge_keys,
    _finish,
    _hold_freed_memory,
    _mix64,
    _mix64_int,
    _offset,
    _skeleton,
    _slots,
    _tick_time,
)
from .errors import (_FINITE, InstanceTooLarge, InvalidSpec, UnreachableTarget, _check_depth,
                     _check_id, _check_int, _check_ints, _check_real, _check_type)
from .functions import FunctionSpec, _edge_offsets, _level_sizes, read_profile_file

__all__ = [
    "LevelProfile",
    "WeightSequence",
    "EdgeSkeleton",
    "RegimeLevel",
    "RegimeReport",
    "build_profile",
    "weight_sequence",
    "edge_skeleton",
    "regime_experiment",
]

_LN2 = math.log(2.0)

# ---------------------------------------------------------------------------
# profiles and weights


@dataclass(frozen=True)
class LevelProfile:
    """Child counts per level, root downward; all counts are integers >= 1."""

    children: tuple
    report: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        children = _check_ints("a profile", self.children, 1, InvalidSpec)
        object.__setattr__(self, "children", children)

    @property
    def n_levels(self):
        return len(self.children)

    def vertex_count(self, k):
        """Exact number of level-k vertices (arbitrary-precision integer)."""
        return self.vertex_counts()[_check_int("level", k, 0, InvalidSpec, self.n_levels)]

    def vertex_counts(self):
        return _level_sizes(_edge_offsets(self.children))

    def edge_count(self, level):
        """Total edges of the tree truncated at `level` (one edge per vertex)."""
        level = _check_int("level", level, 0, InvalidSpec, self.n_levels)
        return _edge_offsets(self.children[:level])[-1]

    def spec_string(self, level):
        level = _check_int("level", level, 1, InvalidSpec, self.n_levels)
        return FunctionSpec.perc(self.children, level).spec_string()

    def write(self, path):
        path = _check_type("a profile path", path, (str, os.PathLike), InvalidSpec)
        with open(path, "w") as fh:
            for c in self.children:
                fh.write("%d\n" % c)

    @classmethod
    def read(cls, path):
        return cls(read_profile_file(path))


@dataclass(frozen=True)
class WeightSequence:
    """Log weights log w_k = sum_j log c_j - k log 2 for k = 1..n."""

    profile: LevelProfile
    log_w: tuple

    def vertex_count(self, k):
        """w_k * 2^k is exactly the integer level-k vertex count."""
        return self.profile.vertex_count(k)

    def w(self, k):
        k = _check_int("level", k, 1, InvalidSpec, self.profile.n_levels)
        return math.exp(self.log_w[k - 1])

    def w_values(self):
        return [math.exp(lw) for lw in self.log_w]

    def to_csv_rows(self):
        return [(k, self.profile.children[k - 1], self.log_w[k - 1],
                 math.exp(self.log_w[k - 1]))
                for k in range(1, self.profile.n_levels + 1)]

    def to_json_dict(self):
        return {
            "children": list(self.profile.children),
            "log_w": list(self.log_w),
            "w": self.w_values(),
        }


def weight_sequence(profile):
    """Weights of a profile, accumulated in log space to survive any depth."""
    profile = _as_profile(profile)
    log_w = []
    acc = 0.0
    for k, c in enumerate(profile.children, start=1):
        acc += math.log(c)
        log_w.append(acc - k * _LN2)
    return WeightSequence(profile=profile, log_w=tuple(log_w))


def _as_profile(obj):
    return obj if isinstance(obj, LevelProfile) else LevelProfile(obj)


# ---------------------------------------------------------------------------
# profile builder

def _resolve_target(target):
    """Accepts a callable k -> weight or a named growth law.

    Names: "constant", "logn", "logn1p:<delta>" for (log k)^(1+delta),
    "nlogn:<alpha>" for k (log k)^alpha, "nalpha:<alpha>" for k^alpha.
    """
    if callable(target):
        return target, "custom"
    text = str(target).strip().lower()
    name, _, arg = text.partition(":")
    try:
        if name == "constant" and not arg:
            return (lambda k: 1.0), text
        if name == "logn" and not arg:
            return (lambda k: math.log(k)), text
        if name == "logn1p":
            delta = float(arg)
            return (lambda k: math.log(k) ** (1.0 + delta)), text
        if name == "nlogn":
            alpha = float(arg)
            return (lambda k: k * math.log(k) ** alpha), text
        if name == "nalpha":
            alpha = float(arg)
            return (lambda k: float(k) ** alpha), text
    except ValueError:
        raise InvalidSpec("bad numeric parameter in target %r" % (target,)) from None
    raise InvalidSpec("unknown weight target %r" % (target,))


def build_profile(target, n_levels, max_ratio=4.0):
    """Greedy integer child counts whose weights track `target(k)`.

    At each level the child count minimizing |log v_k - log(2^k target(k))|
    is chosen among the two integers bracketing the ideal ratio.  Levels
    where target(k) >= 1/2 are enforced: their weight must land within
    `max_ratio` of the target or UnreachableTarget is raised.  Smaller
    targets sit below the coarse low-level weight grid (w_1 is a multiple
    of 1/2), so they only guide the choice and are reported unenforced.
    `n_levels` must be an integer >= 2 and `max_ratio` a finite number >= 1.
    A target whose evaluation fails arithmetically (a zero to a negative
    power, an overflow) or yields anything but a finite number raises
    InvalidSpec.
    More than `MAX_DEPTH` levels raise InstanceTooLarge.
    """
    max_ratio = _check_real("max_ratio", max_ratio, 1, _FINITE, InvalidSpec)
    n_levels = _check_depth("n_levels", n_levels, 2, InvalidSpec)
    fn, label = _resolve_target(target)
    log_cap = math.log(max_ratio)
    children = []
    rows = []
    v = 1
    for k in range(1, n_levels + 1):
        try:
            t = float(_check_real("target(%d)" % k, fn(k), -_FINITE, _FINITE, InvalidSpec))
        except ArithmeticError as exc:
            raise InvalidSpec("target(%d) cannot be evaluated: %s" % (k, exc)) from None
        guide = max(t, 2.0 ** -k)
        log_vt = k * _LN2 + math.log(guide)
        ideal = math.exp(log_vt - math.log(v))
        cands = {1, max(1, math.floor(ideal)), math.ceil(ideal)}
        c = min(cands, key=lambda cc: (abs(math.log(v * cc) - log_vt), cc))
        v *= c
        children.append(c)
        log_w = math.log(v) - k * _LN2
        enforced = t >= 0.5
        log_err = log_w - math.log(t) if t > 0 else math.inf
        if enforced and abs(log_err) > log_cap + 1e-12:
            raise UnreachableTarget(
                k, "no integer child count at level %d keeps the weight "
                   "within a factor %.3g of target %.6g (best off by e^%.3g)"
                   % (k, max_ratio, t, log_err))
        rows.append({
            "level": k,
            "children": c,
            "log_w": log_w,
            "target": t,
            "log_error": log_err if math.isfinite(log_err) else None,
            "enforced": enforced,
        })
    return LevelProfile(tuple(children), report=tuple(rows))


@dataclass(frozen=True)
class EdgeSkeleton:
    """One edge's history: initial state, then the times at which its state
    changes and the state entered at each (so the states alternate)."""

    initial: int
    times: tuple
    states: tuple


def edge_skeleton(seed, replica, edge_id, p=0.5, T=1.0):
    """The deterministic skeleton of one edge in one replica.

    The edge starts open with probability p, then opens at rate p and
    closes at rate 1 - p on [0, T): its clock rings Poisson(max(p, 1 - p)
    T) times at i.i.d. uniform times, and each ring flips the state or
    pushes it to the likelier one; only the rings that change the state
    are listed.  This is, bit for bit, the edge's history
    in both percolation engines (`dynamics._skeleton` over ceil(T / 16)
    slots).  p and T are checked as in `regime_experiment`; T above
    `dynamics.EVENT_BUDGET` raises InstanceTooLarge.  `replica` and
    `edge_id` may be any integers in [0, 2^64) (ValueError otherwise).
    Exposed for debugging and for independent reimplementations of the
    exploration.
    """
    pr = DynamicsParams(p=p, T=T, seed=seed, replicas=1)
    replica = _check_id("replica", replica)
    edge_id = _check_id("edge id", edge_id)
    n_slots, slot_len, table = _slots(1, pr.T, pr.p)
    keys = _edge_keys(_mix64_int(pr.seed), np.array([replica], dtype=np.uint64),
                      np.array([edge_id], dtype=np.uint64))
    initial = _below(_draw(keys, 1), pr.p)
    _, slot, tick, states = _skeleton(keys, initial, pr.p, table, 0, n_slots)
    times = _tick_time(slot, tick, slot_len)
    return EdgeSkeleton(initial=int(initial[0]),
                        times=tuple(float(t) for t in times),
                        states=tuple(int(s) for s in states))


# ---------------------------------------------------------------------------
# vectorized lazy exploration


def _gather_ragged(src_offsets, counts):
    """Source indices picking `counts_i` consecutive items from offset i."""
    shift = src_offsets - (np.cumsum(counts) - counts)
    return np.repeat(shift, counts) + np.arange(int(counts.sum()))


def _running(counts):
    """Running totals of `counts`, from 0 before the first to the full sum."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _search(vals, lo, hi, x, side):
    """Per query i, the first j in [lo_i, hi_i) with vals[j] > x_i (side
    "right") or vals[j] >= x_i ("left"), else hi_i; vals[lo_i:hi_i] must
    be ascending.  All queries bisect together, one halving per pass."""
    for _ in range(int(np.max(hi - lo, initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        v = vals[np.minimum(mid, vals.size - 1)]
        go = (v <= x if side == "right" else v < x) & (mid < hi)
        lo = np.where(go, mid + 1, lo)
        hi = np.where(go, hi, mid)
    return lo


# a span is paired with every interval of a parent reach this short, which
# costs less than bisecting it; longer reaches are bisected (the reaches of
# horizon T hold about T/4 intervals at p = 1/2)
_PAIR_ALL = 8


class _Frontier:
    """Vertices with a nonempty root-path-open time set, as ragged intervals."""

    __slots__ = ("rep", "repk", "vidx", "rs", "re", "rc")

    def __init__(self, rep, repk, vidx, rs, re, rc):
        self.rep = rep      # global replica ids, in no particular order (int64)
        self.repk = repk    # per-replica key hash, aligned with rep (uint64)
        self.vidx = vidx    # vertex index within the level (uint64)
        self.rs = rs        # flat interval starts (float64)
        self.re = re        # flat interval ends (float64)
        self.rc = rc        # intervals per vertex (int64, >= 1)


def _child_keys(vidx, repk, c, offset):
    """Keys of the c child edges of every vertex, vertex by vertex.

    Edge e = vidx*c + offset + col of the replica keyed repk is keyed
    mix(repk + (e+1)*step); distributing the multiply over the three terms
    keeps each edge's stream.
    """
    base = vidx * _U64(c)
    base *= _U64(_KEY_EDGE)
    base += repk
    base += _offset((int(offset) + 1) * _KEY_EDGE)
    return _finish(np.add.outer(base, np.arange(c, dtype=np.uint64) * _U64(_KEY_EDGE)).ravel())


def _child_vertices(vidx, eidx, c):
    """Parent position and level index of entries `eidx` of `_child_keys(vidx, ...)`."""
    kpar = eidx // c
    return kpar, vidx[kpar] * _U64(c) + (eidx - kpar * c).astype(np.uint64)


def _level_step(front, c, offset, p, slots, horizon):
    """Descend one level: sample child edges, intersect reach with open sets.

    An edge's open spans run from each rise to the next fall of its state,
    read along a timeline of a head at time 0 (its initial state), its
    state changes and a closed tail at the horizon; an edge with no change
    that starts open has the one span [0, horizon).  A child's reach is the
    nonempty intersections of its edge's open spans with its parent's
    reach, listed span by span and, within a span, in reach order.  Both
    lists are disjoint and in time order, and every piece lies inside its
    span, so the pieces come out in time order without a sort.  The
    parent's intervals that cannot meet a span are skipped by bisection
    once there are more than _PAIR_ALL of them, so the pairs grow with
    the spans and reach intervals, not with their product.  The child
    frontier lists its vertices in edge order.
    """
    keys = _child_keys(front.vidx, front.repk, c, offset)
    E = keys.size

    n_slots, slot_len, table = slots
    s0 = _below(_draw(keys, 1), p)
    edge, slot, tick, _ = _skeleton(keys, s0, p, table, 0, n_slots)
    m = np.bincount(edge, minlength=E)

    # every edge's timeline in edge order: head, state changes, tail.  A
    # span of zero length (colliding change times) intersects to nothing
    # below
    tail = np.cumsum(m + 2) - 1
    head = tail - m - 1
    at = edge * 2 + np.arange(1, edge.size + 1)
    t = np.empty(2 * E + edge.size)
    t[head] = 0.0
    t[at] = _tick_time(slot, tick, slot_len)
    t[tail] = horizon
    # a timeline rises at its head if the edge starts open, flips at every
    # change and falls at its tail if the edge ends open, so its flips
    # alternate rise, fall, rise, ...; n_open counts the spans up to each
    # edge's end
    flip = np.ones(t.size, dtype=bool)
    flip[head] = s0
    flip[tail] = s0 ^ (m & 1).astype(bool)
    flips = np.flatnonzero(flip)
    open_s, open_e = t[flips[0::2]], t[flips[1::2]]
    n_open = np.cumsum(flip)[tail] // 2

    # each open span pairs with its parent's reach intervals; a reach of
    # more than _PAIR_ALL intervals is first narrowed by bisection to the
    # ones the span meets, from the first ending after its start to the
    # last starting before its end.  A level step thus makes at most
    # _PAIR_ALL pairs per span beyond the pieces it keeps; the kept pieces
    # of each edge come from running counts at its last pair
    spans = np.diff(n_open[c - 1::c], prepend=0)  # per parent vertex
    lo = np.repeat(np.cumsum(front.rc) - front.rc, spans)
    npair = np.repeat(front.rc, spans)
    far = np.flatnonzero(npair > _PAIR_ALL)
    if far.size:
        lo_f = lo[far]
        hi_f = lo_f + npair[far]
        lo_f = _search(front.re, lo_f, hi_f, open_s[far], "right")
        lo[far] = lo_f
        npair[far] = _search(front.rs, lo_f, hi_f, open_e[far], "left") - lo_f
    gR = _gather_ragged(lo, npair)
    cs = np.maximum(front.rs[gR], np.repeat(open_s, npair))
    ce = np.minimum(front.re[gR], np.repeat(open_e, npair))
    keep = cs < ce
    rc = np.diff(_running(keep)[_running(npair)[n_open]], prepend=0)

    eidx = np.flatnonzero(rc > 0)
    rc = rc[eidx]
    kpar, vidx = _child_vertices(front.vidx, eidx, c)
    return _Frontier(rep=front.rep[kpar], repk=front.repk[kpar], vidx=vidx,
                     rs=cs[keep], re=ce[keep], rc=rc)


def _union_stats(front, base_rep, nrep, horizon, init, C):
    """Per-replica connectivity summaries of the frontier's interval union.

    Sorted starts and sorted ends within a replica delimit the union's
    components: a new component opens at index i exactly when
    start_(i) > end_(i-1); abutting intervals merge, matching the
    half-open [s, e) semantics, so switch counts come straight from the
    component boundaries interior to (0, horizon).  Each reached replica's
    output at time 0 is written to `init` and its switches added to `C`.
    """
    if front.rep.size == 0:
        return

    # replica of each interval as the narrowest unsigned integer holding
    # the block: numpy radix-sorts keys of 16 bits or fewer
    irep = np.repeat((front.rep - base_rep).astype(np.min_scalar_type(nrep - 1)),
                     front.rc)

    def _sort_within_replicas(vals):
        # argsort the floats, then group by replica with a stable sort of
        # the narrow replica key — cheaper than lexsort
        o1 = np.argsort(vals)
        key = irep[o1]
        o2 = np.argsort(key, kind="stable")
        return vals[o1[o2]], key[o2]

    ss, rr = _sort_within_replicas(front.rs)
    es, _ = _sort_within_replicas(front.re)
    n = rr.size
    hd = np.empty(n, dtype=bool)
    hd[0] = True
    hd[1:] = rr[1:] != rr[:-1]
    prev_e = np.empty(n)
    prev_e[0] = -1.0
    prev_e[1:] = es[:-1]
    newc = hd | (ss > prev_e)
    endm = np.empty(n, dtype=bool)
    endm[:-1] = newc[1:]
    endm[-1] = True
    comp_s = ss[newc]
    comp_e = es[endm]
    crep = rr[newc]
    heads = rr[hd]
    init[heads] = (ss[hd] == 0.0).astype(np.uint8)
    weights = (comp_s > 0.0).astype(np.int64) + (comp_e < horizon).astype(np.int64)
    C += np.bincount(crep, weights=weights, minlength=nrep).astype(np.int64)


def _open_throughout(children, offsets, depth, p, slots, repk):
    """Which replicas keyed `repk` have a root path to level `depth` whose
    edges are all open throughout: open at time 0, and never changed.

    The walk follows only such edges, from the keys and draws of
    `_level_step`, so each edge it meets has the same history there.
    """
    n_slots, _, table = slots
    rid = np.arange(repk.size)
    vidx = np.zeros(repk.size, dtype=np.uint64)
    for k in range(1, depth + 1):
        c = children[k - 1]
        keys = _child_keys(vidx, repk[rid], c, offsets[k])
        eidx = np.flatnonzero(_below(_draw(keys, 1), p))
        edge, _, _, _ = _skeleton(keys[eidx], np.ones(eidx.size, dtype=bool), p,
                                  table, 0, n_slots)
        kept = np.ones(eidx.size, dtype=bool)
        kept[edge] = False
        kpar, vidx = _child_vertices(vidx, eidx[kept], c)
        rid = rid[kpar]
        if rid.size == 0:
            break
    done = np.zeros(repk.size, dtype=bool)
    done[rid] = True
    return done


def _explore_block(children, offsets, out, p, slots, horizon, rep_lo,
                   rep_hi, seed0):
    """All requested levels for replicas [rep_lo, rep_hi) in one descent.

    `out` maps each requested level to its (init, C) arrays for the block,
    zero on entry; the results are written into them.  A replica with a
    root path open throughout down to the deepest level is settled before
    the descent, when such paths are expected: every vertex on that path
    keeps the reach [0, horizon), so at every level the union is
    [0, horizon), which starts at one and never switches.
    """
    depth = max(out)
    rep = np.arange(rep_lo, rep_hi, dtype=np.int64)
    repk = _mix64(_U64(seed0) + rep.astype(np.uint64) * _U64(_KEY_REPLICA))
    # an edge is open throughout with probability q = p e^{-(1-p) T}; look
    # ahead only when the tree expects at least one such path to `depth`
    n_slots, slot_len, _ = slots
    q = p * math.exp(-(1.0 - p) * n_slots * slot_len)
    if math.prod(c * q for c in children[:depth]) >= _LOOKAHEAD_PATHS:
        done = _open_throughout(children, offsets, depth, p, slots, repk)
        for init, _ in out.values():
            init[done] = 1
        rep, repk = rep[~done], repk[~done]
    front = _Frontier(
        rep=rep,
        repk=repk,
        vidx=np.zeros(rep.size, dtype=np.uint64),
        rs=np.zeros(rep.size),
        re=np.full(rep.size, horizon),
        rc=np.ones(rep.size, dtype=np.int64),
    )
    for k in range(1, depth + 1):
        if front.rep.size == 0:
            break
        front = _level_step(front, children[k - 1], offsets[k], p,
                            slots, horizon)
        if k in out:
            _union_stats(front, rep_lo, rep_hi - rep_lo, horizon, *out[k])


# expected always-open root paths to the deepest level (prod c_k q) from
# which a block looks ahead
_LOOKAHEAD_PATHS = 1.0

# expected edges and updates drawn by one replica (more is refused) and by
# one block of replicas.  A level step peaks near 80 bytes per draw; blocks
# of half the refusal limit lower that peak.  Each level step pays fixed
# numpy calls per block, so the time depends on the replicas a block holds:
# a 12-replica nalpha:3 task at levels 4-10 (a 56.7k-draw bound per
# replica; median of 40 runs, 2-vCPU x86 VM) took 26.9, 25.0, 20.0, 18.6
# and 17.8 ms at 2, 4, 6, 9 and 12 replicas per block, and 2^19 draws hold
# 9 of them.  `dynamics` blocks hold 2^17 draws: each engine keeps its own
# measured optimum for its bytes per draw, and at 2^17 this task would run
# in 2-replica blocks
_REPLICA_DRAWS = 1 << 20
_BLOCK_DRAWS = 1 << 19


def _draws_per_replica(children, p, T):
    """Upper bound on one replica's expected draws: edges plus updates.

    A level-k edge is drawn when its parent's k-1 path edges are open at a
    common time in [0, T]: each is ever open with probability
    q = 1 - (1-p) e^{-pT}, and the path is open at time 0 or opens at an
    update, so the chance is at most min(q^(k-1), p^(k-1) (1 + (k-1)(1-p) T)).
    """
    q = 1.0 - (1.0 - p) * math.exp(-p * T)
    draws, v = 0.0, 1.0
    for k, c in enumerate(children):
        v *= c
        draws += v * min(q ** k, p ** k * (1.0 + k * (1.0 - p) * T)) * (1.0 + T)
    return draws


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class RegimeLevel:
    """One level's connectivity statistics, backed by per-replica counts."""

    level: int
    empirical: EmpiricalC

    @property
    def p_one(self):
        return self.empirical.p_initial_one

    @property
    def p_ever_one(self):
        return self.empirical.p_ever_one

    @property
    def p_always_one(self):
        return self.empirical.p_always_one

    @property
    def p_always_zero(self):
        return 1.0 - self.empirical.p_ever_one

    @property
    def mean_C(self):
        return self.empirical.mean_C

    @property
    def mean_S(self):
        return float(self.empirical.S.mean())

    def to_json_dict(self):
        return {
            "level": self.level,
            "p_one": self.p_one,
            "p_ever_one": self.p_ever_one,
            "p_always_one": self.p_always_one,
            "p_always_zero": self.p_always_zero,
            "mean_C": self.mean_C,
            "var_C": self.empirical.var_C,
            "mean_S": self.mean_S,
            "p_zero": self.empirical.p_zero,
        }


@dataclass(frozen=True)
class RegimeReport:
    """Per-level regime statistics from one shared set of trajectories."""

    profile: LevelProfile
    p: float
    T: float
    replicas: int
    seed: int
    levels: tuple

    @property
    def nonstandard_p(self):
        return self.p != 0.5

    def level(self, k):
        k = _check_int("level", k, 1, InvalidSpec)
        for lv in self.levels:
            if lv.level == k:
                return lv
        raise InvalidSpec("level %d is not in the report, which holds %s"
                          % (k, [lv.level for lv in self.levels]))

    def to_json_dict(self):
        return {
            "profile": list(self.profile.children),
            "p": self.p,
            "T": self.T,
            "replicas": self.replicas,
            "seed": self.seed,
            "nonstandard_p": self.nonstandard_p,
            "levels": [lv.to_json_dict() for lv in self.levels],
        }

    def to_csv_rows(self):
        return [(lv.level, lv.p_one, lv.p_ever_one, lv.p_always_one,
                 lv.p_always_zero, lv.mean_C, lv.empirical.var_C, lv.mean_S)
                for lv in self.levels]


def regime_experiment(profile, levels, p=0.5, T=1.0, replicas=1000, seed=1):
    """Root-connectivity statistics per level on shared edge trajectories.

    Every requested level is evaluated on the same per-replica edge
    process, so the per-level events {output 1 at time 0}, {ever 1} and
    {always 1} are nested across levels and the reported probabilities are
    exactly nonincreasing in the level.  A zero horizon degenerates to
    static percolation of the initial edge states: switch counts are zero
    and p_one equals p_always_one.

    InstanceTooLarge is raised before any draw when the c_1 root edges
    expect more than `dynamics.EVENT_BUDGET` updates, when one replica
    expects more than _REPLICA_DRAWS draws (edges and updates) or a level
    has more than _REPLICA_DRAWS children per vertex (a reached vertex
    draws them all at once), or when the tree truncated at the deepest
    requested level has more than 2^64 edges, past its 64-bit edge ids.
    Levels must be integers in 1..n_levels, or InvalidSpec is raised.
    """
    profile = _as_profile(profile)
    levels = sorted(set(_check_ints("levels", levels, 1, InvalidSpec)))
    if levels[-1] > profile.n_levels:
        raise InvalidSpec("levels %r outside 1..%d" % (levels, profile.n_levels))
    pr = DynamicsParams(p=p, T=T, seed=seed, replicas=replicas)
    p, T, seed, replicas = pr.p, pr.T, pr.seed, pr.replicas
    slots = _slots(profile.children[0], T, p)
    children = profile.children
    offsets = _edge_offsets(children[:levels[-1]])
    need, widest = offsets[-1], max(children[:levels[-1]])
    if need > 2**64 or widest > _REPLICA_DRAWS:
        raise InstanceTooLarge(
            "level-%d tree has %d edges and up to %d children per vertex; "
            "limits are 2^64 edge ids and %d children drawn at once"
            % (levels[-1], need, widest, _REPLICA_DRAWS))
    draws = _draws_per_replica(children[:levels[-1]], p, T)
    if not draws <= _REPLICA_DRAWS:
        raise InstanceTooLarge(
            "a level-%d replica at horizon %g expects up to %.3g draws, "
            "budget is %d" % (levels[-1], T, draws, _REPLICA_DRAWS))
    per_block = max(1, int(_BLOCK_DRAWS // draws))

    # a zero horizon still needs nonempty intervals to carry initial states
    horizon = T if T > 0 else 1.0
    seed0 = _mix64_int(seed)
    _hold_freed_memory()

    agg = {L: (np.zeros(replicas, dtype=np.uint8), np.zeros(replicas, dtype=np.int64))
           for L in levels}
    for lo in range(0, replicas, per_block):
        hi = min(lo + per_block, replicas)
        _explore_block(children, offsets,
                       {L: (init[lo:hi], C[lo:hi]) for L, (init, C) in agg.items()},
                       p, slots, horizon, lo, hi, seed0)

    out = []
    for L in levels:
        init, C = agg[L]
        emp = EmpiricalC(spec=profile.spec_string(L), p=p, T=T, seed=seed,
                         replicas=replicas, C=C, initial=init)
        out.append(RegimeLevel(level=L, empirical=emp))
    return RegimeReport(profile=profile, p=p, T=T, replicas=replicas,
                        seed=seed, levels=tuple(out))
