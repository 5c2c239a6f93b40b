# %% [markdown]
# # Analytic recursions and tree percolation regimes
#
# Two tree families admit exact depth recursions that the Monte Carlo
# engines can be checked against — and that reach depths no sampler
# could touch:
#
# - **iterated 3-majority**: `P(root = 1)` obeys
#   `a_{k+1} = 3 a_k^2 - 2 a_k^3`, and a two-time companion recursion
#   tracks `P(root = 1 at both 0 and t)`;
# - **AND/OR trees**: the expected number of `1 -> 0` output switches on
#   `[0, 1]` is exactly `(n + 2) / 8`.
#
# Last, a spherically symmetric tree — constant child count per level —
# turns root connectivity under edge rerandomization into a switch-count
# process whose regime is set by how fast the level weights
# `w_k = (vertices at level k) / 2^k` grow.

# %% Setup
import math

from boolvol.analysis import (
    andor_switch_rate,
    maj3_a_seq,
    maj3_cutoff_diagnostic,
)
from boolvol.dynamics import DynamicsParams, estimate_C_distribution
from boolvol.functions import FunctionSpec, make_instance
from boolvol.oracle import exact_prob_one
from boolvol.perctree import build_profile, regime_experiment, weight_sequence

# %% [markdown]
# ## The 3-majority recursion crashes doubly exponentially
#
# Below the fixed point 1/2 each level squares the distance to zero.
# The recursion agrees with exact enumeration at enumerable depths, then
# keeps going far past them (log-space once values underflow).

# %%
series = maj3_a_seq(0.4, 8)
print("a_k for p0 = 0.4:")
for k in range(9):
    print("  depth %d:  %.3e" % (k, series.value(k)))
for depth in (1, 2):
    inst = make_instance(FunctionSpec("itermaj3", depth))
    print("enumeration check, depth %d: recursion %.12f  exact %.12f"
          % (depth, maj3_a_seq(0.4, depth).last_value, exact_prob_one(inst, 0.4)))

# %% [markdown]
# ## A sharp exponent, located by arbitrary precision
#
# Scale the leaf bias as `epsilon_n = n^alpha (2/3)^n` and ask whether
# the first-moment quantity `3^n a_n` survives.  Its log flips sign at
# the critical exponent between 0.4 and 1 — far beyond float range, so
# the diagnostic runs at 50 decimal digits.

# %%
for alpha in (0.4, 1.0):
    diag = maj3_cutoff_diagnostic(alpha, 300)
    regime = "diverges (volatile side)" if diag.log_diag > 0 else "vanishes (frozen side)"
    print("alpha = %.1f:  log(3^n a_n) at n=300 is %+.1f  -> %s"
          % (alpha, diag.log_diag, regime))

# %% [markdown]
# ## AND/OR switch rate: (n + 2) / 8 exactly

# %%
print("%5s %12s %12s %7s" % ("depth", "mean S", "(n+2)/8", "z"))
for n in (2, 3, 4, 5):
    inst = make_instance(FunctionSpec("andor", n))
    est = estimate_C_distribution(
        inst, DynamicsParams(p=0.5, T=1.0, seed=1, replicas=20_000))
    s = est.S.astype(float)
    want = andor_switch_rate(n).expected_switches
    z = (s.mean() - want) / (s.std(ddof=1) / math.sqrt(len(s)))
    print("%5d %12.4f %12.4f %+7.2f" % (n, s.mean(), want, z))

# %% [markdown]
# ## Building a tree whose weights track k^3
#
# `build_profile` picks integer child counts per level so that `w_k`
# follows a requested growth law within a factor of 4.  Cubic weight
# growth sits in the regime where connectivity switches stay rare even
# though the tree fans out quickly.

# %%
profile = build_profile("nalpha:3", 10)
ws = weight_sequence(profile)
print("children per level:", profile.children)
print("%5s %10s %10s %8s" % ("k", "w_k", "k^3", "ratio"))
for k in range(1, 11):
    print("%5d %10.1f %10d %8.2f" % (k, ws.w(k), k**3, ws.w(k) / k**3))

# %% [markdown]
# ## Regime statistics on shared trajectories
#
# One set of edge trajectories, evaluated at several levels: the events
# are nested, so `P(root connects at time 0)` is exactly nonincreasing
# in the level.  On the *binary* tree (`w_k = 1`, the critical growth)
# connectivity keeps draining level by level.  On the cubic profile the
# fan-out saturates everything below the root almost immediately: the
# statistics go flat in the level, the mean switch count stops growing,
# and `P(never connects)` keeps a foothold — rare-switch territory.

# %%
def regime_table(title, prof, levels):
    report = regime_experiment(prof, levels=levels, p=0.5, T=1.0,
                               replicas=1500, seed=1)
    print(title)
    print("%6s %8s %10s %14s %8s"
          % ("level", "p_one", "mean_C", "p_always_zero", "mean_S"))
    for lv in report.levels:
        print("%6d %8.4f %10.4f %14.4f %8.4f"
              % (lv.level, lv.p_one, lv.mean_C, lv.p_always_zero, lv.mean_S))

regime_table("binary tree, w_k = 1:", (2,) * 10, (2, 4, 6, 8))
print()
regime_table("cubic-weight profile:", profile, (2, 4, 6, 8))
