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
of (seed, replica, edge id) through the counter-based hash helpers of
`dynamics` (the same convention keys its bit skeletons), so the
exploration can descend lazily: a vertex is visited only while some time
interval keeps its whole root path open.  Interval endpoints are derived
arithmetically from event times by max/min alone — never by float
arithmetic — so the per-replica events "connected to level k at time t"
are exactly nested across levels, and every statistic below is exactly
monotone in the level, not just in expectation.

Replicas are processed in blocks with ragged interval arrays (flat bounds
plus per-vertex counts); intersections take a vectorized fast path when
both sides are single intervals and an event-count sweep otherwise.
Results are independent of the block size and of which levels are
requested.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    _KEY_EDGE,
    _KEY_REPLICA,
    _U64,
    EmpiricalC,
    _draw,
    _edge_keys,
    _mix64,
    _mix64_int,
    _poisson_cdf,
    _unit,
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
_LN4 = math.log(4.0)

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
        out = 1
        for c in self.children[:k]:
            out *= c
        return out

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


def _check_horizon(T):
    """Refuses a horizon whose Poisson(T) count table would fail.

    The table starts at exp(-T); below the smallest normal double it loses
    precision, and past T ~ 745 it is all zeros, which would give every
    edge the same update count.
    """
    if math.exp(-T) < sys.float_info.min:
        raise ValueError("horizon must be at most %.2f (exp(-T) leaves the normal "
                         "float range), got %r" % (-math.log(sys.float_info.min), T))


def edge_skeleton(seed, replica, edge_id, p=0.5, T=1.0):
    """The deterministic update skeleton of one edge in one replica.

    The edge starts open with probability p, receives Poisson(T) updates
    at i.i.d. uniform times on [0, T), and each update resamples the state
    to open with probability p.  Update times come out sorted because they
    are built as normalized partial sums of m+1 exponential spacings, which
    is the uniform order statistic up to equality in law.  Exposed for
    debugging and for independent reimplementations of the exploration.
    """
    _check_horizon(T)
    keys = _edge_keys(_mix64_int(seed), np.array([replica], dtype=np.uint64),
                      np.array([edge_id], dtype=np.uint64))
    cdf = _poisson_cdf(T)
    m = int(np.searchsorted(cdf, _unit(_draw(keys, _U64(0)))[0], side="right"))
    initial = int(_unit(_draw(keys, _U64(1)))[0] < p)
    if m == 0:
        return EdgeSkeleton(initial=initial, times=(), states=())
    ctr = np.arange(m + 1, dtype=np.uint64)
    spacings = -np.log1p(-_unit(_draw(keys[0], _U64(2) + _U64(2) * ctr)))
    partial = np.cumsum(spacings)
    times = T * partial[:m] / partial[m]
    ctr_s = np.arange(m, dtype=np.uint64)
    states = _unit(_draw(keys[0], _U64(3) + _U64(2) * ctr_s)) < p
    return EdgeSkeleton(initial=initial,
                        times=tuple(float(t) for t in times),
                        states=tuple(int(s) for s in states))


# ---------------------------------------------------------------------------
# vectorized lazy exploration


def _ragged_positions(counts):
    """Flat destination indices for ragged rows: offset_i + 0..counts_i-1."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), 0
    offsets = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return np.repeat(offsets, counts) + within, total


def _gather_ragged(src_offsets, counts):
    """Source indices picking `counts_i` consecutive items from offset i."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts)
    return np.repeat(src_offsets, counts) + within


class _Frontier:
    """Vertices with a nonempty root-path-open time set, as ragged intervals."""

    __slots__ = ("rep", "repk", "vidx", "rs", "re", "rc")

    def __init__(self, rep, repk, vidx, rs, re, rc):
        self.rep = rep      # global replica ids, nondecreasing (int64)
        self.repk = repk    # per-replica key hash, aligned with rep (uint64)
        self.vidx = vidx    # vertex index within the level (uint64)
        self.rs = rs        # flat interval starts (float64)
        self.re = re        # flat interval ends (float64)
        self.rc = rc        # intervals per vertex (int64, >= 1)


def _level_step(front, c, offset, p, cdf, horizon):
    """Descend one level: sample child edges, intersect reach with open sets."""
    F = front.rep.size
    col = np.arange(c, dtype=np.uint64)
    first = front.vidx * _U64(c)
    evidx = np.add.outer(first, col).ravel()
    # key of edge e is mix(rep_key + (e+1)*step); distributing the multiply
    # over (first + offset + 1) + col keeps the stream identical per edge
    keys = _mix64(np.add.outer(
        front.repk + (first + _U64(offset + 1)) * _U64(_KEY_EDGE),
        col * _U64(_KEY_EDGE)).ravel())
    E = F * c

    m = np.searchsorted(cdf, _unit(_draw(keys, _U64(0))), side="right")
    s0 = _unit(_draw(keys, _U64(1))) < p
    parent = np.repeat(np.arange(F, dtype=np.int64), c)

    roffsets = np.cumsum(front.rc) - front.rc
    nc_all = np.zeros(E, dtype=np.int64)

    # edges with no update that start open leave the parent reach intact
    fullm = (m == 0) & s0
    nc_all[fullm] = front.rc[parent[fullm]]

    lidx = np.flatnonzero(m > 0)
    clips = []  # (edge positions within lidx, counts, starts, ends)
    if lidx.size:
        mL = m[lidx]
        s0L = s0[lidx]
        keysL = keys[lidx]
        L = lidx.size
        tot = int(mL.sum())
        eseq = np.repeat(np.arange(L, dtype=np.int64), mL)
        cm = np.cumsum(mL)
        hpos = cm - mL
        last = cm - 1
        occ = np.arange(tot, dtype=np.uint64) - np.repeat(
            hpos.astype(np.uint64), mL)
        kk = keysL[eseq]
        # update times arrive sorted per edge: normalized partial sums of
        # m+1 exponential spacings are the uniform order statistics
        spac = -np.log1p(-_unit(_draw(kk, _U64(2) + _U64(2) * occ)))
        cums = np.cumsum(spac)
        base = np.empty(L)
        base[0] = 0.0
        base[1:] = cums[hpos[1:] - 1]
        partial = cums - np.repeat(base, mL)
        closing = -np.log1p(-_unit(_draw(keysL, _U64(2) + _U64(2) * mL.astype(np.uint64))))
        totals = partial[last] + closing
        t_ev = horizon * partial / np.repeat(totals, mL)
        st_ev = _unit(_draw(kk, _U64(3) + _U64(2) * occ)) < p

        prev = np.empty(tot, dtype=bool)
        prev[1:] = st_ev[:-1]
        prev[hpos] = s0L
        flip = st_ev != prev
        rise = flip & st_ev
        fall = flip ^ rise
        final = st_ev[last]

        # open spans assemble positionally: within an edge the start at 0
        # (if initially open) precedes the rises, which the event stream
        # already orders by time; ends mirror this with the horizon last
        risecnt = np.bincount(eseq[rise], minlength=L)
        fallcnt = np.bincount(eseq[fall], minlength=L)
        nO_raw = s0L.astype(np.int64) + risecnt
        total_o = int(nO_raw.sum())
        ooff_raw = np.cumsum(nO_raw) - nO_raw
        open_s = np.empty(total_o)
        open_e = np.empty(total_o)
        open_s[ooff_raw[s0L]] = 0.0
        rise_e = eseq[rise]
        within_r = np.arange(rise_e.size) - np.repeat(
            np.cumsum(risecnt) - risecnt, risecnt)
        open_s[ooff_raw[rise_e] + s0L[rise_e] + within_r] = t_ev[rise]
        fall_e = eseq[fall]
        within_f = np.arange(fall_e.size) - np.repeat(
            np.cumsum(fallcnt) - fallcnt, fallcnt)
        open_e[ooff_raw[fall_e] + within_f] = t_ev[fall]
        open_e[ooff_raw[final] + fallcnt[final]] = horizon
        pos = open_s < open_e  # drop zero-length spans from colliding times
        if not np.all(pos):
            oedge = np.repeat(np.arange(L, dtype=np.int64), nO_raw)[pos]
            open_s, open_e = open_s[pos], open_e[pos]
            nO = np.bincount(oedge, minlength=L)
        else:
            nO = nO_raw
        ooffsets = np.cumsum(nO) - nO

        lpar = parent[lidx]
        nR = front.rc[lpar]
        roffL = roffsets[lpar]

        # single-interval reach: clip every open span against it
        caseA = (nR == 1) & (nO > 0)
        if np.any(caseA):
            aidx = np.flatnonzero(caseA)
            nOa = nO[aidx]
            gO = _gather_ragged(ooffsets[aidx], nOa)
            lo = np.repeat(front.rs[roffL[aidx]], nOa)
            hi = np.repeat(front.re[roffL[aidx]], nOa)
            sA = np.maximum(open_s[gO], lo)
            eA = np.minimum(open_e[gO], hi)
            keepA = sA < eA
            cntA = np.bincount(np.repeat(np.arange(aidx.size), nOa)[keepA],
                               minlength=aidx.size)
            nc_all[lidx[aidx]] = cntA
            clips.append((aidx, cntA, sA[keepA], eA[keepA]))

        # single open span against a fragmented reach: clip the reach
        caseB = (nR > 1) & (nO == 1)
        if np.any(caseB):
            bidx = np.flatnonzero(caseB)
            nRb = nR[bidx]
            gR = _gather_ragged(roffL[bidx], nRb)
            lo = np.repeat(open_s[ooffsets[bidx]], nRb)
            hi = np.repeat(open_e[ooffsets[bidx]], nRb)
            sB = np.maximum(front.rs[gR], lo)
            eB = np.minimum(front.re[gR], hi)
            keepB = sB < eB
            cntB = np.bincount(np.repeat(np.arange(bidx.size), nRb)[keepB],
                               minlength=bidx.size)
            nc_all[lidx[bidx]] = cntB
            clips.append((bidx, cntB, sB[keepB], eB[keepB]))

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
            cs_t, ce_t, cedge = cs_t[keepS], ce_t[keepS], cedge[keepS]
            cntS = np.bincount(cedge, minlength=S)
            nc_all[lidx[sidx]] = cntS
            clips.append((sidx, cntS, cs_t, ce_t))

    out_off = np.cumsum(nc_all) - nc_all
    total = int(nc_all.sum())
    new_rs = np.empty(total)
    new_re = np.empty(total)

    if np.any(fullm):
        fidx = np.flatnonzero(fullm)
        nF = front.rc[parent[fidx]]
        dst = _gather_ragged(out_off[fidx], nF)
        src = _gather_ragged(roffsets[parent[fidx]], nF)
        new_rs[dst] = front.rs[src]
        new_re[dst] = front.re[src]
    for cidx, ccnt, cs, ce in clips:
        dst = _gather_ragged(out_off[lidx[cidx]], ccnt)
        new_rs[dst] = cs
        new_re[dst] = ce

    keep_edge = nc_all > 0
    kpar = parent[keep_edge]
    return _Frontier(rep=front.rep[kpar], repk=front.repk[kpar],
                     vidx=evidx[keep_edge], rs=new_rs, re=new_re,
                     rc=nc_all[keep_edge])


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

    irep = np.repeat(front.rep, front.rc) - base_rep

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
        # argsort the floats, then restore the (already nondecreasing)
        # replica grouping with a stable integer sort — cheaper than lexsort
        o1 = np.argsort(vals)
        o2 = np.argsort(irep[o1], kind="stable")
        return vals[o1[o2]]

    ss = _sort_within_replicas(starts)
    es = _sort_within_replicas(ends)
    rr = irep
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


def _explore_block(children, offsets, level_set, p, cdf, horizon, rep_lo,
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
                            cdf, horizon)
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
                      edge_cap=10_000_000, _block=256):
    """Root-connectivity statistics per level on shared edge trajectories.

    Every requested level is evaluated on the same per-replica edge
    process, so the per-level events {output 1 at time 0}, {ever 1} and
    {always 1} are nested across levels and the reported probabilities are
    exactly nonincreasing in the level.  The tree truncated at the deepest
    requested level must have at most `edge_cap` edges; the exploration
    itself only ever touches edges on some momentarily-open root path.

    A zero horizon degenerates to static percolation of the initial edge
    states: switch counts are zero and p_one equals p_always_one.
    """
    profile = _as_profile(profile)
    levels = sorted(set(int(L) for L in levels))
    if not levels:
        raise InvalidSpec("at least one level is required")
    if levels[0] < 1 or levels[-1] > profile.n_levels:
        raise InvalidSpec("levels %r outside 1..%d" % (levels, profile.n_levels))
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1], got %r" % (p,))
    if not T >= 0:
        raise ValueError("horizon must be >= 0, got %r" % (T,))
    _check_horizon(T)
    if replicas < 1:
        raise ValueError("replicas must be >= 1, got %r" % (replicas,))
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be a 64-bit nonnegative integer")
    need = profile.edge_count(levels[-1])
    if need > edge_cap:
        raise InstanceTooLarge(
            "level-%d tree needs %d edges, budget is %d"
            % (levels[-1], need, edge_cap))

    children = profile.children
    offsets = _edge_offsets(children[:levels[-1]])
    # a zero horizon still needs nonempty intervals to carry initial states
    horizon = T if T > 0 else 1.0
    seed0 = _mix64_int(seed)
    level_set = set(levels)
    cdf = _poisson_cdf(T)

    agg = {L: (np.zeros(replicas, dtype=np.uint8),
               np.zeros(replicas, dtype=np.int64),
               np.zeros(replicas, dtype=np.int64)) for L in levels}
    for lo in range(0, replicas, _block):
        hi = min(lo + _block, replicas)
        block = _explore_block(children, offsets, level_set, p, cdf, horizon,
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
