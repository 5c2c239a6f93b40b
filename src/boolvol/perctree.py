"""Root connectivity of spherically symmetric trees under edge rerandomization.

A *level profile* lists integer child counts c_1..c_n; level k of the tree
holds v_k = c_1 * ... * c_k vertices and the level-k weight is
w_k = v_k / 2^k, the expected number of level-k vertices whose path to the
root is fully open under i.i.d. fair edge states.  The profile builder
searches integer child counts whose weights track a requested growth law;
the regime experiment measures, per level, how often and how persistently
the root stays connected while every edge flips at rate 1.

The experiment never materializes the tree.  Each edge's update skeleton
(initial state, Poisson update times, resampled states) is a pure function
of (seed, replica, edge id), drawn by `dynamics._skeleton`, the recipe
that also draws the bits of the eager engine: the horizon is cut into
ceil(T / 16) equal slots, and each slot's update times are exact 2^-40
fixed-point ticks.  Edge e of `perc:children:L` therefore has the same
history here and in `dynamics`, and the two engines agree replica by
replica.  A replica whose c_1 root edges expect more than
`dynamics.EVENT_BUDGET` updates (c_1 * T) is refused before any draw.
A replica expected to draw more than _REPLICA_DRAWS edges and updates in
its descent is refused too.  Blocks of replicas are sized separately, by
_BLOCK_DRAWS expected draws, so that one level's arrays stay near the
per-core cache.

The exploration descends lazily: a vertex is visited only while some time
interval keeps its whole root path open.  Interval endpoints are derived
arithmetically from event times by max/min alone — never by float
arithmetic — so the per-replica events "connected to level k at time t"
are exactly nested across levels, and every statistic below is exactly
monotone in the level, not just in expectation.

Replicas are processed in blocks with ragged interval arrays (flat bounds
plus per-vertex counts); intersections take a vectorized fast path when
either side is a single interval and an event-count sweep otherwise.  A
level's frontier lists its vertices case by case, not by replica; each
vertex keeps its intervals contiguous and in time order, and the union
statistics sort by replica themselves.  An edge's update times come from
its own key alone, so results are independent, bit for bit, of the block
size, of the order of the frontier and of which levels are requested.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    _KEY_EDGE,
    _KEY_REPLICA,
    _U64,
    DynamicsParams,
    EmpiricalC,
    _below,
    _check_id,
    _draw,
    _edge_keys,
    _finish,
    _mix64,
    _mix64_int,
    _offset,
    _skeleton,
    _slots,
    _tick_time,
)
from .errors import InstanceTooLarge, InvalidSpec, UnreachableTarget
from .functions import FunctionSpec, read_profile_file

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
        ch = tuple(self.children)
        if not ch:
            raise InvalidSpec("level profile must have at least one level")
        for c in ch:
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise InvalidSpec("child counts must be integers, got %r" % (c,))
            if c < 1:
                raise InvalidSpec("child counts must be >= 1, got %r" % (c,))
        object.__setattr__(self, "children", tuple(int(c) for c in ch))

    @property
    def n_levels(self):
        return len(self.children)

    def vertex_count(self, k):
        """Exact number of level-k vertices (arbitrary-precision integer)."""
        if not 0 <= k <= self.n_levels:
            raise InvalidSpec("level %d outside 0..%d" % (k, self.n_levels))
        return self.vertex_counts()[k]

    def vertex_counts(self):
        out = [1]
        for c in self.children:
            out.append(out[-1] * c)
        return out

    def edge_count(self, level):
        """Total edges of the tree truncated at `level` (one edge per vertex)."""
        v = self.vertex_counts()
        return sum(v[1:level + 1])

    def spec_string(self, level):
        return FunctionSpec.perc(self.children, level).spec_string()

    def write(self, path):
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
        if not 1 <= k <= self.profile.n_levels:
            raise InvalidSpec("level %d outside 1..%d" % (k, self.profile.n_levels))
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
    if isinstance(obj, LevelProfile):
        return obj
    return LevelProfile(tuple(obj))


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
    """
    if n_levels < 2:
        raise InvalidSpec("profile needs at least 2 levels, got %d" % n_levels)
    fn, label = _resolve_target(target)
    log_cap = math.log(max_ratio)
    children = []
    rows = []
    v = 1
    for k in range(1, n_levels + 1):
        t = float(fn(k))
        if not math.isfinite(t):
            raise InvalidSpec("target(%d) is not finite: %r" % (k, t))
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
    """One edge's update history: initial state, times, resampled states."""

    initial: int
    times: tuple
    states: tuple


def edge_skeleton(seed, replica, edge_id, p=0.5, T=1.0):
    """The deterministic update skeleton of one edge in one replica.

    The edge starts open with probability p, receives Poisson(T) updates
    at i.i.d. uniform times on [0, T), and each update resamples the state
    to open with probability p.  This is, bit for bit, the edge's history
    in both percolation engines (`dynamics._skeleton` over ceil(T / 16)
    slots).  p and T are checked as in `regime_experiment`; T above
    `dynamics.EVENT_BUDGET` raises InstanceTooLarge.  `replica` and
    `edge_id` may be any integers in [0, 2^64) (ValueError otherwise).
    Exposed for debugging and for independent reimplementations of the
    exploration.
    """
    DynamicsParams(p=p, T=T, seed=seed, replicas=1)
    replica = _check_id("replica", replica)
    edge_id = _check_id("edge id", edge_id)
    n_slots, slot_len, cdf = _slots(1, T)
    keys = _edge_keys(_mix64_int(seed), np.array([replica], dtype=np.uint64),
                      np.array([edge_id], dtype=np.uint64))
    initial = int(_below(_draw(keys, 1), p)[0])
    _, slot, tick, states = _skeleton(keys, p, cdf, 0, n_slots)
    times = _tick_time(slot, tick, slot_len)
    return EdgeSkeleton(initial=initial,
                        times=tuple(float(t) for t in times),
                        states=tuple(int(s) for s in states))


# ---------------------------------------------------------------------------
# vectorized lazy exploration


def _gather_ragged(src_offsets, counts):
    """Source indices picking `counts_i` consecutive items from offset i."""
    shift = src_offsets - (np.cumsum(counts) - counts)
    return np.repeat(shift, counts) + np.arange(int(counts.sum()))


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


def _level_step(front, c, offset, p, slots, horizon):
    """Descend one level: sample child edges, intersect reach with open sets.

    The child frontier lists its vertices case by case, each case in edge
    order: edges open throughout, the two single-interval clips, the sweep.
    """
    F = front.rep.size
    # key of edge e is mix(rep_key + (e+1)*step) with e = vidx*c + offset + col;
    # distributing the multiply over the three terms keeps each edge's stream
    first = front.vidx * _U64(c)
    base = first * _U64(_KEY_EDGE)
    base += front.repk
    base += _offset((int(offset) + 1) * _KEY_EDGE)
    keys = _finish(np.add.outer(base, np.arange(c, dtype=np.uint64) * _U64(_KEY_EDGE)).ravel())
    E = F * c

    n_slots, slot_len, cdf = slots
    s0 = _below(_draw(keys, 1), p)
    edge, slot, tick, st_ev = _skeleton(keys, p, cdf, 0, n_slots)
    m = np.bincount(edge, minlength=E)
    roffsets = np.cumsum(front.rc) - front.rc

    # edges with no update that start open leave the parent reach intact
    fidx = np.flatnonzero((m == 0) & s0)
    fpar = fidx // c
    nF = front.rc[fpar]
    src = _gather_ragged(roffsets[fpar], nF)
    parts = [(fidx, nF, front.rs[src], front.re[src])]  # (edges, counts, s, e)

    lidx = np.flatnonzero(m)
    if lidx.size:
        mL = m[lidx]
        s0L = s0[lidx]
        L = lidx.size
        cm = np.cumsum(mL)
        hpos, last = cm - mL, cm - 1
        final = st_ev[last]
        t_ev = _tick_time(slot, tick, slot_len)

        prev = np.empty(st_ev.size, dtype=bool)
        prev[1:] = st_ev[:-1]
        prev[hpos] = s0L
        # an edge's open spans start at its rises, or at 0 on its first event
        # if it starts open, and end at its falls, or at the horizon on its
        # last event if it ends open: each stream lists them in edge and
        # time order
        start = st_ev > prev
        start[hpos] |= s0L
        end = st_ev < prev
        end[last] |= final
        n_start = np.cumsum(start)
        ooff_raw = n_start[hpos] - start[hpos]
        ostop = n_start[last]
        nO_raw = ostop - ooff_raw
        open_s, open_e = t_ev[start], t_ev[end]
        open_s[ooff_raw[s0L]] = 0.0
        open_e[ostop[final] - 1] = horizon
        pos = open_s < open_e  # drop zero-length spans from colliding times
        if not np.all(pos):
            oedge = np.repeat(np.arange(L, dtype=np.int64), nO_raw)[pos]
            open_s, open_e = open_s[pos], open_e[pos]
            nO = np.bincount(oedge, minlength=L)
        else:
            nO = nO_raw
        ooffsets = np.cumsum(nO) - nO

        lpar = lidx // c
        nR = front.rc[lpar]
        roffL = roffsets[lpar]

        def clip(case, n, off, s, e, one, one_s, one_e):
            # edges in `case`: n intervals from off clipped to interval one
            idx = np.flatnonzero(case)
            if idx.size == 0:
                return
            n, one = n[idx], one[idx]
            seg = np.repeat(np.arange(idx.size), n)
            g = (off[idx] - (np.cumsum(n) - n))[seg] + np.arange(seg.size)
            cs = np.maximum(s[g], one_s[one][seg])
            ce = np.minimum(e[g], one_e[one][seg])
            keep = cs < ce
            parts.append((lidx[idx], np.bincount(seg[keep], minlength=idx.size),
                          cs[keep], ce[keep]))

        # a single-interval reach clips every open span; a single open
        # span clips a fragmented reach
        clip((nR == 1) & (nO > 0), nO, ooffsets, open_s, open_e,
             roffL, front.rs, front.re)
        clip((nR > 1) & (nO == 1), nR, roffL, front.rs, front.re,
             ooffsets, open_s, open_e)

        # fragmented on both sides (rare): event-count sweep
        sweep = (nR > 1) & (nO > 1)
        if np.any(sweep):
            sidx = np.flatnonzero(sweep)
            S = sidx.size
            nRs, nOs = nR[sidx], nO[sidx]
            gR = _gather_ragged(roffL[sidx], nRs)
            gO = _gather_ragged(ooffsets[sidx], nOs)
            seg = np.arange(S, dtype=np.int64)
            ev_t = np.concatenate([front.rs[gR], open_s[gO],
                                   front.re[gR], open_e[gO]])
            ev_e = np.concatenate([np.repeat(seg, nRs), np.repeat(seg, nOs)] * 2)
            n_up = int(nRs.sum() + nOs.sum())
            ev_d = np.concatenate([np.ones(n_up, dtype=np.int64),
                                   np.full(n_up, -1, dtype=np.int64)])
            o3 = np.lexsort((ev_t, ev_e))
            ev_t, ev_e, ev_d = ev_t[o3], ev_e[o3], ev_d[o3]
            acts = np.cumsum(ev_d)
            n_ev = 2 * (nRs + nOs)
            ends = np.cumsum(n_ev)
            bases = np.concatenate([[0], acts[ends[:-1] - 1]])
            act = acts - np.repeat(bases, n_ev)
            rise2 = (ev_d == 1) & (act == 2)
            fall2 = (ev_d == -1) & (act == 1)
            cs_t, ce_t = ev_t[rise2], ev_t[fall2]
            cedge = ev_e[rise2]
            keepS = cs_t < ce_t
            parts.append((lidx[sidx], np.bincount(cedge[keepS], minlength=S),
                          cs_t[keepS], ce_t[keepS]))

    eidx, rc, rs, re = (np.concatenate(a) for a in zip(*parts))
    kept = rc > 0
    eidx, rc = eidx[kept], rc[kept]
    kpar = eidx // c
    return _Frontier(rep=front.rep[kpar], repk=front.repk[kpar],
                     vidx=first[kpar] + (eidx - kpar * c).astype(np.uint64),
                     rs=rs, re=re, rc=rc)


def _union_stats(front, base_rep, nrep, horizon, init, C, S):
    """Per-replica connectivity summaries of the frontier's interval union.

    Sorted starts and sorted ends within a replica delimit the union's
    components: a new component opens at index i exactly when
    start_(i) > end_(i-1); abutting intervals merge, matching the
    half-open [s, e) semantics, so switch counts come straight from the
    component boundaries interior to (0, horizon).
    """
    if front.rep.size == 0:
        return

    # replica of each interval as the narrowest unsigned integer holding
    # the block: numpy radix-sorts keys of 16 bits or fewer
    irep = np.repeat((front.rep - base_rep).astype(np.min_scalar_type(nrep - 1)),
                     front.rc)

    # a vertex that kept its full [0, horizon) reach makes the whole union
    # [0, horizon): initially one, never switching — no sort needed there
    fullcover = (front.rs == 0.0) & (front.re == horizon)
    if np.any(fullcover):
        sat = np.zeros(nrep, dtype=bool)
        sat[irep[fullcover]] = True
        init[sat] = 1
        live = ~sat[irep]
        if not np.any(live):
            return
        irep = irep[live]
        starts, ends = front.rs[live], front.re[live]
    else:
        starts, ends = front.rs, front.re

    def _sort_within_replicas(vals):
        # argsort the floats, then group by replica with a stable sort of
        # the narrow replica key — cheaper than lexsort
        o1 = np.argsort(vals)
        key = irep[o1]
        o2 = np.argsort(key, kind="stable")
        return vals[o1[o2]], key[o2]

    ss, rr = _sort_within_replicas(starts)
    es, _ = _sort_within_replicas(ends)
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
    S += np.bincount(crep, weights=(comp_e < horizon).astype(np.int64),
                     minlength=nrep).astype(np.int64)


def _explore_block(children, offsets, level_set, p, slots, horizon, rep_lo,
                   rep_hi, seed0):
    """All requested levels for replicas [rep_lo, rep_hi) in one descent."""
    nrep = rep_hi - rep_lo
    out = {L: (np.zeros(nrep, dtype=np.uint8), np.zeros(nrep, dtype=np.int64),
               np.zeros(nrep, dtype=np.int64)) for L in level_set}
    rep = np.arange(rep_lo, rep_hi, dtype=np.int64)
    front = _Frontier(
        rep=rep,
        repk=_mix64(_U64(seed0) + rep.astype(np.uint64) * _U64(_KEY_REPLICA)),
        vidx=np.zeros(nrep, dtype=np.uint64),
        rs=np.zeros(nrep),
        re=np.full(nrep, horizon),
        rc=np.ones(nrep, dtype=np.int64),
    )
    for k in range(1, max(level_set) + 1):
        front = _level_step(front, children[k - 1], offsets[k], p,
                            slots, horizon)
        if k in level_set:
            init, C, S = out[k]
            _union_stats(front, rep_lo, nrep, horizon, init, C, S)
        if front.rep.size == 0:
            break
    return out


def _edge_offsets(children):
    """offsets[k] = id of the first level-k edge under breadth-first order."""
    offsets = [0, 0]
    v = 1
    for c in children[:-1]:
        v *= c
        offsets.append(offsets[-1] + v)
    return offsets


# expected edges and updates drawn by one replica (more is refused) and by
# one block of replicas.  A level step peaks near 80 bytes per draw; blocks
# of half the refusal limit keep the deep levels' arrays closer to a 2 MB
# per-core cache, which measured faster, and lower the peak
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
        for lv in self.levels:
            if lv.level == k:
                return lv
        raise KeyError(k)

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


def regime_experiment(profile, levels, p=0.5, T=1.0, replicas=1000, seed=1,
                      edge_cap=10_000_000, _block=None):
    """Root-connectivity statistics per level on shared edge trajectories.

    Every requested level is evaluated on the same per-replica edge
    process, so the per-level events {output 1 at time 0}, {ever 1} and
    {always 1} are nested across levels and the reported probabilities are
    exactly nonincreasing in the level.  The tree truncated at the deepest
    requested level must have at most `edge_cap` edges; the exploration
    itself only ever touches edges on some momentarily-open root path.

    A zero horizon degenerates to static percolation of the initial edge
    states: switch counts are zero and p_one equals p_always_one.  A
    horizon at which the c_1 root edges expect more than
    `dynamics.EVENT_BUDGET` updates, or one replica more than _REPLICA_DRAWS
    draws (edges and updates), raises InstanceTooLarge.
    """
    profile = _as_profile(profile)
    levels = sorted(set(int(L) for L in levels))
    if not levels:
        raise InvalidSpec("at least one level is required")
    if levels[0] < 1 or levels[-1] > profile.n_levels:
        raise InvalidSpec("levels %r outside 1..%d" % (levels, profile.n_levels))
    DynamicsParams(p=p, T=T, seed=seed, replicas=replicas)
    slots = _slots(profile.children[0], T)
    need = profile.edge_count(levels[-1])
    if need > edge_cap:
        raise InstanceTooLarge(
            "level-%d tree needs %d edges, budget is %d"
            % (levels[-1], need, edge_cap))
    children = profile.children
    draws = _draws_per_replica(children[:levels[-1]], p, T)
    if not draws <= _REPLICA_DRAWS:
        raise InstanceTooLarge(
            "a level-%d replica at horizon %g expects up to %.3g draws, "
            "budget is %d" % (levels[-1], T, draws, _REPLICA_DRAWS))
    per_block = int(_BLOCK_DRAWS // draws)
    _block = max(1, per_block if _block is None else min(_block, per_block))

    offsets = _edge_offsets(children[:levels[-1]])
    # a zero horizon still needs nonempty intervals to carry initial states
    horizon = T if T > 0 else 1.0
    seed0 = _mix64_int(seed)
    level_set = set(levels)

    agg = {L: (np.zeros(replicas, dtype=np.uint8),
               np.zeros(replicas, dtype=np.int64),
               np.zeros(replicas, dtype=np.int64)) for L in levels}
    for lo in range(0, replicas, _block):
        hi = min(lo + _block, replicas)
        block = _explore_block(children, offsets, level_set, p, slots, horizon,
                               lo, hi, seed0)
        for L in levels:
            for dst, src in zip(agg[L], block[L]):
                dst[lo:hi] = src

    out = []
    for L in levels:
        init, C, S = agg[L]
        emp = EmpiricalC(spec=profile.spec_string(L), p=p, T=T, seed=seed,
                         replicas=replicas, C=C, S=S, initial=init)
        out.append(RegimeLevel(level=L, empirical=emp))
    return RegimeReport(profile=profile, p=p, T=T, replicas=replicas,
                        seed=seed, levels=tuple(out))
