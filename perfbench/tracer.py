"""Spans and work counters for the traced run, installed from outside the package.

``Tracer.install`` wraps the package's cross-module entry points in place
(module attributes, re-exported names and class methods) and ``uninstall``
restores them; nothing under ``src/`` changes and no payload gains a field.

Coarse calls (public functions, CLI handlers, one ``_level_step``, one
``_truth_values``, ...) are kept as individual spans: name, start, end,
parent span and task id.  The per-replica and per-event calls
(``replica_stream``, ``_replica_draws``, ``build_state``, ``_update``,
``evaluate_rows``) run millions of times, so they are kept as one aggregate
per (task, parent span name, name): call count and total time.  Both kinds
are charged to their parent, so a span's self time is its duration minus
the time its children cover.  Everything stays in memory and is written as
JSON lines when the worker ends.
"""

import json
import math
import time
from collections import defaultdict

_clock = time.perf_counter

NALPHA_LEVELS = range(1, 11)

# per-family throughput tags, measured on the untraced run of the same command
FAMILY_TAGS = ("maj9", "parity64", "itermaj3-6", "andor8", "perc-eager", "maj1001")

# (name, unit) of every per-layer metric, in output order
PER_LAYER = (
    [("dynamics.rng_setup_us", "us"),
     ("dynamics.draws_us", "us"),
     ("dynamics.events", "count"),
     ("dynamics.effective_ratio", "ratio"),
     ("dynamics.switch_ratio", "ratio"),
     ("dynamics.loop_self_s", "s")]
    + [("dynamics.replicas_per_s.%s" % t, "1/s") for t in FAMILY_TAGS]
    + [("dynamics.noise_pairs_per_s", "1/s"),
       ("dynamics.threads2_speedup", "ratio"),
       ("functions.build_state_us", "us"),
       ("functions.build_state_calls", "count"),
       ("functions.update_us", "us"),
       ("functions.effective_updates", "count"),
       ("functions.recomputes_per_update", "ratio"),
       ("functions.evaluate_rows_per_s", "1/s")]
    + [("perctree.level_step_s.L%d" % k, "s") for k in NALPHA_LEVELS]
    + [("perctree.edges_sampled.L%d" % k, "count") for k in NALPHA_LEVELS]
    + [("perctree.kept_ratio.L%d" % k, "ratio") for k in NALPHA_LEVELS]
    + [("perctree.level_step_s", "s"),
       ("perctree.union_stats_s", "s"),
       ("perctree.intervals", "count"),
       ("oracle.truth_table_passes", "count"),
       ("oracle.configs", "count"),
       ("oracle.truth_table_s", "s"),
       ("oracle.influence_s", "s"),
       ("oracle.noise_cov_s", "s"),
       ("oracle.prob_one_s", "s"),
       ("analysis.float_step_us", "us"),
       ("analysis.mpf_step_us", "us"),
       ("analysis.precision_passes", "count"),
       ("analysis.volatility_ratio_s", "s"),
       ("analysis.gfloor_s", "s"),
       ("analysis.cutoff_s", "s"),
       ("analysis.float_nonfinite", "count"),
       ("experiments.self_s", "s"),
       ("cli.handler_s", "s"),
       ("cli.emit_s", "s"),
       ("cli.nonstrict_json", "count"),
       ("trace.overhead_ratio", "ratio")]
)

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = (
    ["dynamics.events", "functions.build_state_calls",
     "functions.effective_updates", "perctree.intervals",
     "oracle.truth_table_passes", "oracle.configs",
     "analysis.precision_passes", "analysis.float_nonfinite",
     "cli.nonstrict_json"]
    + ["perctree.edges_sampled.L%d" % k for k in NALPHA_LEVELS]
    + ["perctree.kept_ratio.L%d" % k for k in NALPHA_LEVELS]
    + ["counter.recomputes", "counter.switches"]
)

PUBLIC = {
    "functions": ["make_instance"],
    "dynamics": ["estimate_C_distribution", "estimate_joint",
                 "sample_noise_pair", "survival_curve"],
    "experiments": ["classify"],
    "perctree": ["regime_experiment", "build_profile"],
    "oracle": ["exact_influence_report", "exact_noise_covariance",
               "exact_prob_one", "exact_andor_pivotal", "exact_total_influence"],
    "analysis": ["maj3_a_seq", "maj3_b_seq", "maj3_volatility_ratio",
                 "maj3_cutoff_diagnostic", "andor_survival_floor_check",
                 "andor_b_bound_seq", "andor_switch_rate"],
    "cli": ["main", "cmd_simulate", "cmd_influence", "cmd_recursion",
            "cmd_perc", "cmd_classify", "cmd_joint", "cmd_noise"],
}
INTERNAL = {
    "perctree": ["_explore_block", "_level_step", "_union_stats"],
    "oracle": ["_truth_values"],
    "analysis": ["_volatility_pass"],
    "cli": ["_emit"],
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "task", "child", "attrs")

    def __init__(self, sid, name, parent, task, attrs):
        self.id = sid
        self.name = name
        self.parent = parent
        self.task = task
        self.attrs = attrs
        self.child = 0.0
        self.start = _clock()
        self.end = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.end - self.start - self.child


def _analysis_attrs(name, args, kwargs):
    if name == "maj3_a_seq":
        n = args[1] if len(args) > 1 else kwargs["n"]
        digits = args[2] if len(args) > 2 else kwargs.get("digits")
    else:
        n = (args[0] if args else kwargs["params"]).n
        digits = args[1] if len(args) > 1 else kwargs.get("digits")
    return {"n": n, "digits": digits}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = "setup"
        self.task_info = {}
        self.fine = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self._patched = []
        self._next_id = 0

    # -- span bookkeeping -----------------------------------------------
    def begin_task(self, task_id, name, tag):
        self.task = task_id
        self.task_info[task_id] = (name, tag)

    def open(self, name, attrs=None):
        self._next_id += 1
        parent = self.stack[-1].id if self.stack else None
        sp = Span(self._next_id, name, parent, self.task, attrs)
        self.stack.append(sp)
        return sp

    def close(self, sp):
        sp.end = _clock()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += sp.end - sp.start
        self.spans.append(sp)

    def add_fine(self, name, dt):
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += dt
        slot = self.fine[self.task, parent.name if parent else None, name]
        slot[0] += 1
        slot[1] += dt

    # -- wrappers --------------------------------------------------------
    def _coarse(self, name, fn, attrs=None, after=None):
        tr = self

        def wrapper(*args, **kwargs):
            sp = tr.open(name, attrs(args, kwargs) if attrs else None)
            try:
                res = fn(*args, **kwargs)
            finally:
                tr.close(sp)
            if after is not None:
                after(sp, args, res)
            return res

        return wrapper

    def _fine(self, name, fn, after=None):
        tr = self

        def wrapper(*args, **kwargs):
            t0 = _clock()
            res = fn(*args, **kwargs)
            tr.add_fine(name, _clock() - t0)
            if after is not None:
                after(args, res)
            return res

        return wrapper

    def _replace(self, modules, original, wrapper):
        """Rebinds every module-level name bound to `original`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        import boolvol
        from boolvol import (analysis, cli, dynamics, experiments, functions,
                             oracle, perctree)

        layers = {"functions": functions, "dynamics": dynamics,
                  "experiments": experiments, "perctree": perctree,
                  "oracle": oracle, "analysis": analysis, "cli": cli}
        modules = [boolvol] + list(layers.values())
        counts = self.counts

        for layer, names in PUBLIC.items():
            for name in names:
                fn = getattr(layers[layer], name)
                attrs = None
                if name in ("maj3_a_seq", "maj3_b_seq"):
                    attrs = (lambda nm: lambda a, k: _analysis_attrs(nm, a, k))(name)
                self._replace(modules, fn, self._coarse("%s.%s" % (layer, name), fn, attrs))

        tracer = self

        def level_attrs(args, kwargs):
            block = tracer.stack[-1]
            block.attrs["steps"] += 1
            return {"level": block.attrs["steps"]}

        def level_after(sp, args, res):
            front, c = args[0], args[1]
            sp.attrs["sampled"] = int(front.rep.size) * int(c)
            sp.attrs["kept"] = int(res.rep.size)
            sp.attrs["intervals"] = int(res.rs.size)

        internal_attrs = {"_explore_block": lambda a, k: {"steps": 0},
                          "_level_step": level_attrs}
        internal_after = {"_level_step": level_after}
        for layer, names in INTERNAL.items():
            for name in names:
                fn = getattr(layers[layer], name)
                self._replace(modules, fn, self._coarse(
                    "%s.%s" % (layer, name), fn, internal_attrs.get(name),
                    internal_after.get(name)))

        orig_chunks = oracle._chunks

        def chunks(m):
            counts["oracle.truth_table_passes"] += 1
            for idx, bits in orig_chunks(m):
                counts["oracle.configs"] += int(idx.size)
                yield idx, bits

        self._replace(modules, orig_chunks, chunks)

        def draws_after(args, res):
            counts["dynamics.events"] += len(res[1])

        self._replace(modules, dynamics.replica_stream,
                      self._fine("dynamics.replica_stream", dynamics.replica_stream))
        self._replace(modules, dynamics._replica_draws,
                      self._fine("dynamics._replica_draws", dynamics._replica_draws,
                                 draws_after))

        classes = set(functions._CLASSES.values())
        for cls in classes:
            self._replace_method(cls, "build_state", self._fine(
                "functions.build_state", cls.__dict__["build_state"]))

            def rows_after(args, res):
                counts["functions.evaluated_rows"] += int(args[1].shape[0])

            self._replace_method(cls, "evaluate_rows", self._fine(
                "functions.evaluate_rows", cls.__dict__["evaluate_rows"], rows_after))

        orig_update = functions.EvaluationState._update
        add_fine = self.add_fine

        def _update(st, i, v):
            r0 = st.recompute_count
            t0 = _clock()
            out, changed = orig_update(st, i, v)
            add_fine("functions._update", _clock() - t0)
            counts["counter.recomputes"] += st.recompute_count - r0
            counts["counter.switches"] += changed
            return out, changed

        self._replace_method(functions.EvaluationState, "_update", _update)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- output ----------------------------------------------------------
    def write(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "name": sp.name, "start": sp.start,
                    "end": sp.end, "parent": sp.parent, "task": sp.task,
                    "attrs": sp.attrs}) + "\n")
            for (task, parent, name), (n, t) in sorted(
                    self.fine.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]), kv[0][2])):
                fh.write(json.dumps({"aggregate": name, "parent": parent,
                                     "task": task, "count": n, "time": t}) + "\n")
            for task, (name, tag) in self.task_info.items():
                fh.write(json.dumps({"task": task, "name": name, "tag": tag}) + "\n")

    def metrics(self):
        """Per-layer metrics of everything traced after setup."""
        by_name = defaultdict(list)
        for sp in self.spans:
            by_name[sp.name].append(sp)
        fine = defaultdict(lambda: [0, 0.0])
        for (_, _, name), (n, t) in self.fine.items():
            fine[name][0] += n
            fine[name][1] += t
        c = self.counts

        def total(name):
            return math.fsum(sp.duration for sp in by_name[name])

        def self_total(names):
            return math.fsum(sp.self_time for nm in names for sp in by_name[nm])

        def per_call_us(name):
            n, t = fine[name]
            return 1e6 * t / n if n else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        updates = fine["functions._update"][0]
        m["dynamics.rng_setup_us"] = per_call_us("dynamics.replica_stream")
        m["dynamics.draws_us"] = per_call_us("dynamics._replica_draws")
        m["dynamics.events"] = c["dynamics.events"]
        m["dynamics.effective_ratio"] = ratio(updates, c["dynamics.events"])
        m["dynamics.switch_ratio"] = ratio(c["counter.switches"], updates)
        m["dynamics.loop_self_s"] = self_total(
            ["dynamics.%s" % n for n in PUBLIC["dynamics"]])
        m["functions.build_state_us"] = per_call_us("functions.build_state")
        m["functions.build_state_calls"] = fine["functions.build_state"][0]
        m["functions.update_us"] = per_call_us("functions._update")
        m["functions.effective_updates"] = updates
        m["functions.recomputes_per_update"] = ratio(c["counter.recomputes"], updates)
        m["functions.evaluate_rows_per_s"] = ratio(
            c["functions.evaluated_rows"], fine["functions.evaluate_rows"][1])

        level_t = defaultdict(float)
        sampled = defaultdict(int)
        kept = defaultdict(int)
        intervals = 0
        for sp in by_name["perctree._level_step"]:
            intervals += sp.attrs["intervals"]
            if self.task_info.get(sp.task, (None, None))[1] == "nalpha3":
                k = sp.attrs["level"]
                level_t[k] += sp.duration
                sampled[k] += sp.attrs["sampled"]
                kept[k] += sp.attrs["kept"]
        for k in NALPHA_LEVELS:
            m["perctree.level_step_s.L%d" % k] = level_t[k]
            m["perctree.edges_sampled.L%d" % k] = sampled[k]
            m["perctree.kept_ratio.L%d" % k] = ratio(kept[k], sampled[k])
        m["perctree.level_step_s"] = total("perctree._level_step")
        m["perctree.union_stats_s"] = total("perctree._union_stats")
        m["perctree.intervals"] = intervals

        m["oracle.truth_table_passes"] = c["oracle.truth_table_passes"]
        m["oracle.configs"] = c["oracle.configs"]
        m["oracle.truth_table_s"] = total("oracle._truth_values")
        m["oracle.influence_s"] = total("oracle.exact_influence_report")
        m["oracle.noise_cov_s"] = total("oracle.exact_noise_covariance")
        m["oracle.prob_one_s"] = total("oracle.exact_prob_one")

        steps = {"float": [0.0, 0], "mpf": [0.0, 0]}
        for nm in ("analysis.maj3_a_seq", "analysis.maj3_b_seq"):
            for sp in by_name[nm]:
                slot = steps["float" if sp.attrs["digits"] is None else "mpf"]
                slot[0] += sp.duration
                slot[1] += sp.attrs["n"]
        m["analysis.float_step_us"] = 1e6 * ratio(*steps["float"])
        m["analysis.mpf_step_us"] = 1e6 * ratio(*steps["mpf"])
        m["analysis.precision_passes"] = len(by_name["analysis._volatility_pass"])
        m["analysis.volatility_ratio_s"] = total("analysis.maj3_volatility_ratio")
        m["analysis.gfloor_s"] = total("analysis.andor_survival_floor_check")
        m["analysis.cutoff_s"] = total("analysis.maj3_cutoff_diagnostic")
        m["experiments.self_s"] = self_total(["experiments.classify"])
        m["cli.handler_s"] = self_total(
            ["cli.%s" % n for n in PUBLIC["cli"]])
        m["cli.emit_s"] = total("cli._emit")
        return m


def exact_count_snapshot(metrics, counts):
    """The values of EXACT_COUNTS, for comparing two traced runs."""
    out = {}
    for name in EXACT_COUNTS:
        out[name] = counts[name] if name.startswith("counter.") else metrics[name]
    return out
