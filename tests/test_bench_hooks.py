"""The bench tracer wraps package functions and methods by name; a refactor
that drops one of them breaks `Tracer.install`, which this catches fast."""

import importlib.util
import pathlib

import numpy as np

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_tracer_installs_and_restores_every_hook():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)


def test_bench_tracer_reads_every_level_step():
    # `--trace 1` reads the frontier sizes of each level step's arguments
    # and result; a level step whose frontier loses those fields breaks it
    from boolvol import perctree

    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        perctree.regime_experiment((2, 3, 2), [1, 3], T=2.0, replicas=50, seed=4)
    finally:
        tracer.uninstall()
    steps = [sp for sp in tracer.spans if sp.name == "perctree._level_step"]
    assert [sp.attrs["level"] for sp in steps] == [1, 2, 3]
    for sp in steps:
        assert {"sampled", "kept", "intervals"} <= set(sp.attrs)
        assert 0 < sp.attrs["kept"] <= min(sp.attrs["sampled"], sp.attrs["intervals"])
    assert sum(sp.name == "perctree._union_stats" for sp in tracer.spans) == 2


def test_bench_tracer_counts_every_drawn_event(monkeypatch):
    # `dynamics.events` adds len(cell) of every `_replica_draws` call (small
    # blocks make many calls, and cut replicas into slot spans), so
    # `_replica_draws` must hand on every bit change that one skeleton of
    # the whole run's bit clocks hands on
    from boolvol import dynamics, functions

    f = functions.make_instance(functions.parse_spec("andor:3"))
    monkeypatch.setattr(dynamics, "_BLOCK_DRAWS", 200)
    pr = dynamics.DynamicsParams(p=0.4, T=20.0, seed=9, replicas=30)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        dynamics.estimate_C_distribution(f, pr)
    finally:
        tracer.uninstall()
    n_slots, _, cdf = dynamics._slots(f.arity, pr.T, pr.p)
    keys = dynamics._edge_keys(dynamics._mix64_int(pr.seed),
                               np.arange(pr.replicas, dtype=np.uint64)[:, None],
                               np.arange(f.arity, dtype=np.uint64)).ravel()
    start = dynamics._below(dynamics._draw(keys, 1), pr.p)
    clock, _, _, _ = dynamics._skeleton(keys, start, pr.p, cdf, 0, n_slots)
    assert clock.size > 0
    assert tracer.counts["dynamics.events"] == clock.size
