"""The library's argument contract, swept over every public entry point.

Each row of ENTRIES is a public function, a validating constructor or a
public method bound to a small valid object, the valid keyword arguments
of one cheap call and the kind of each argument.
Every argument in turn takes each value of BAD while the others stay
valid; an argument that holds an object also takes NOT_INSTANCE, and one
that holds a sequence takes NOT_SEQUENCE and a one-element sequence of
each BAD value.  A call may return, or raise a BoolvolError or a
ValueError (and a file reader an OSError); any other exception, a
TypeError, AttributeError or OverflowError among them, or any warning,
fails the sweep.  The sweep runs in a temporary directory, since a method
that writes a file may take "1" as its path.
`test_every_public_entry_point_is_swept` keeps the table complete: a new
public function, constructor or method that takes an argument must join
ENTRIES or EXEMPT.
"""

import inspect
import math
import warnings

import pytest

from boolvol import analysis, dynamics, experiments, functions, oracle, perctree
from boolvol.errors import BoolvolError

MODULES = (analysis, dynamics, experiments, functions, oracle, perctree)

Spec = functions.FunctionSpec
BAD = [math.nan, math.inf, -math.inf, 0, -1, 0.5, 2**64, 1e300, True, None, "1"]
NOT_INSTANCE = Spec("maj", 3)  # a spec, never built
NOT_SEQUENCE = object()

MAJ3 = functions.make_instance(Spec("maj", 3))
ITERMAJ3 = functions.make_instance(Spec("itermaj3", 2))
PARAMS = dynamics.DynamicsParams(p=0.5, T=1.0, seed=1, replicas=10)
MAJ3_PARAMS = analysis.Maj3Params(n=5, epsilon=0.1, t=0.5)
PLAN = experiments.SequencePlan.from_pairs([("parity:%d" % n, 0.5) for n in (1, 3, 5)],
                                          replicas=10)
PROFILE_FILE = "<profile file>"  # a file of the profile 2, 2, written per run
# the objects whose methods the sweep calls
PROFILE = perctree.LevelProfile((2, 2))
WEIGHTS = perctree.weight_sequence(PROFILE)
REPORT = perctree.regime_experiment(PROFILE, [1, 2], replicas=10, seed=1)
EMPIRICAL = dynamics.estimate_C_distribution(MAJ3, PARAMS)
SERIES = analysis.andor_x_seq(0.5, 3)
STATE = functions.build_state(MAJ3, (0, 1, 1))


def obj(value):
    return ("obj", value)


def seq(value):
    return ("seq", value)


# "module.name" -> (callable, {argument: valid value, or its kind and value});
# an argument that is neither an object nor a sequence is a number or text
ENTRIES = {
    # functions
    "functions.parse_spec": (functions.parse_spec, {"text": "maj:3"}),
    "functions.parse_profile": (functions.parse_profile, {"text": "2,2"}),
    "functions.read_profile_file": (functions.read_profile_file, {"path": PROFILE_FILE}),
    "functions.make_instance": (functions.make_instance, {"spec": obj(Spec("maj", 3))}),
    # the fields of a spec, checked by make_instance
    "functions.make_instance(family, param)": (
        lambda family, param: functions.make_instance(Spec(family, param)),
        {"family": "maj", "param": 3}),
    "functions.make_instance(perc)": (
        lambda profile, level: functions.make_instance(Spec("perc", 0, profile, level)),
        {"profile": seq((2, 2)), "level": 2}),
    "functions.make_instance(table)": (
        lambda table: functions.make_instance(Spec("table", table=table)),
        {"table": seq((0, 1, 1, 0))}),
    "functions.FunctionSpec.perc": (Spec.perc, {"profile": seq((2, 2)), "level": 2}),
    "functions.FunctionSpec.truth_table": (Spec.truth_table, {"bits": seq((0, 1, 1, 0))}),
    "functions.evaluate": (functions.evaluate, {"instance": obj(MAJ3), "config": seq((0, 1, 1))}),
    "functions.evaluate_batch": (functions.evaluate_batch,
                                 {"instance": obj(MAJ3), "bits": seq(((0, 1, 1),))}),
    "functions.build_state": (functions.build_state,
                              {"instance": obj(MAJ3), "config": seq((0, 1, 1))}),
    "functions.EvaluationState.apply_update": (STATE.apply_update,
                                               {"bit_index": 0, "new_value": 1}),
    # dynamics
    "dynamics.replica_stream": (dynamics.replica_stream, {"seed": 1, "replica_index": 0}),
    "dynamics.DynamicsParams": (dynamics.DynamicsParams,
                                {"p": 0.5, "T": 1.0, "seed": 1, "replicas": 10}),
    "dynamics.simulate_batch": (dynamics.simulate_batch,
                                {"instance": obj(MAJ3), "dyn_params": obj(PARAMS)}),
    "dynamics.simulate_trajectory": (dynamics.simulate_trajectory,
                                     {"instance": obj(MAJ3), "dyn_params": obj(PARAMS),
                                      "replica_index": 0}),
    "dynamics.estimate_C_distribution": (dynamics.estimate_C_distribution,
                                         {"instance": obj(MAJ3), "dyn_params": obj(PARAMS),
                                          "threads": 1}),
    "dynamics.estimate_joint": (dynamics.estimate_joint,
                                {"instance": obj(MAJ3), "p": 0.5, "t": 1.0, "replicas": 10,
                                 "seed": 1}),
    "dynamics.sample_noise_pair": (dynamics.sample_noise_pair,
                                   {"instance": obj(MAJ3), "p": 0.5, "epsilon": 0.2,
                                    "replicas": 10, "seed": 1}),
    "dynamics.survival_curve": (dynamics.survival_curve,
                                {"instance": obj(MAJ3), "p": 0.5, "xs": seq((0.5,)),
                                 "replicas": 10, "seed": 1}),
    "dynamics.EmpiricalC.prob_greater": (EMPIRICAL.prob_greater, {"M": 1}),
    "dynamics.EmpiricalC.prob_between": (EMPIRICAL.prob_between, {"lo": 0, "hi": 2}),
    # experiments
    "experiments.SequencePlan": (experiments.SequencePlan,
                                 {"entries": seq(((Spec("parity", 1), 0.5),)),
                                  "T": 1.0, "replicas": 10, "seed": 1}),
    "experiments.SequencePlan.from_pairs": (experiments.SequencePlan.from_pairs,
                                            {"pairs": seq((("parity:1", 0.5),)), "T": 1.0,
                                             "replicas": 10, "seed": 1}),
    "experiments.classify": (experiments.classify, {"plan": obj(PLAN)}),
    "experiments.SequencePlan.dyn_params": (PLAN.dyn_params, {"p": 0.3}),
    # oracle
    "oracle.exact_prob_one": (oracle.exact_prob_one, {"instance": obj(MAJ3), "p": 0.3}),
    "oracle.exact_influence_report": (oracle.exact_influence_report,
                                      {"instance": obj(MAJ3), "p": 0.3}),
    "oracle.exact_total_influence": (oracle.exact_total_influence,
                                     {"instance": obj(MAJ3), "p": 0.3}),
    "oracle.exact_noise_covariance": (oracle.exact_noise_covariance,
                                      {"instance": obj(MAJ3), "p": 0.3, "epsilon": 0.2}),
    "oracle.exact_andor_pivotal": (oracle.exact_andor_pivotal, {"n": 2, "k": 1}),
    "oracle.exact_andor_switch_prob": (oracle.exact_andor_switch_prob, {"n": 2}),
    # perctree
    "perctree.LevelProfile": (perctree.LevelProfile, {"children": seq((2, 2))}),
    "perctree.LevelProfile.read": (perctree.LevelProfile.read, {"path": PROFILE_FILE}),
    "perctree.build_profile": (perctree.build_profile,
                               {"target": "nalpha:1", "n_levels": 4, "max_ratio": 4.0}),
    "perctree.weight_sequence": (perctree.weight_sequence, {"profile": seq((2, 2))}),
    "perctree.edge_skeleton": (perctree.edge_skeleton,
                               {"seed": 1, "replica": 0, "edge_id": 0, "p": 0.5, "T": 1.0}),
    "perctree.regime_experiment": (perctree.regime_experiment,
                                   {"profile": seq((2, 2)), "levels": seq((1, 2)), "p": 0.5,
                                    "T": 1.0, "replicas": 10, "seed": 1}),
    "perctree.LevelProfile.vertex_count": (PROFILE.vertex_count, {"k": 1}),
    "perctree.LevelProfile.edge_count": (PROFILE.edge_count, {"level": 2}),
    "perctree.LevelProfile.spec_string": (PROFILE.spec_string, {"level": 2}),
    "perctree.LevelProfile.write": (PROFILE.write, {"path": PROFILE_FILE}),
    "perctree.WeightSequence.vertex_count": (WEIGHTS.vertex_count, {"k": 1}),
    "perctree.WeightSequence.w": (WEIGHTS.w, {"k": 1}),
    "perctree.RegimeReport.level": (REPORT.level, {"k": 2}),
    # analysis
    "analysis.Maj3Params": (analysis.Maj3Params, {"n": 5, "epsilon": 0.1, "t": 0.5}),
    "analysis.Maj3Params.from_alpha": (analysis.Maj3Params.from_alpha,
                                       {"n": 10, "alpha": 0.5, "t": 0.5}),
    "analysis.maj3_a_seq": (analysis.maj3_a_seq, {"p0": 0.4, "n": 5, "digits": 20}),
    "analysis.maj3_pi_seq": (analysis.maj3_pi_seq, {"epsilon": 0.1, "n": 5, "digits": 20}),
    "analysis.maj3_b_seq": (analysis.maj3_b_seq, {"params": obj(MAJ3_PARAMS), "digits": 20}),
    "analysis.maj3_cutoff_diagnostic": (analysis.maj3_cutoff_diagnostic,
                                        {"alpha": 0.5, "n": 20, "digits": 50}),
    "analysis.maj3_volatility_ratio": (analysis.maj3_volatility_ratio,
                                       {"params": obj(MAJ3_PARAMS), "t_scale_by_a": 1.0}),
    "analysis.maj3_grid_count": (analysis.maj3_grid_count,
                                 {"instance": obj(ITERMAJ3), "dyn_params": obj(PARAMS),
                                  "delta": 0.5, "target_prob": 0.25}),
    "analysis.andor_x_seq": (analysis.andor_x_seq, {"t": 0.5, "n": 5}),
    "analysis.andor_beta": (analysis.andor_beta, {"n": 5, "t": 0.5}),
    "analysis.andor_switch_rate": (analysis.andor_switch_rate, {"n": 5}),
    "analysis.andor_b_bound_seq": (analysis.andor_b_bound_seq, {"n": 5, "t": 0.5}),
    "analysis.andor_survival_floor": (analysis.andor_survival_floor, {"x": 0.01}),
    "analysis.andor_pair_sum_survival": (analysis.andor_pair_sum_survival,
                                         {"xs": seq((0.01, 0.1))}),
    "analysis.andor_survival_floor_check": (analysis.andor_survival_floor_check,
                                            {"grid_resolution": 100}),
    "analysis.RecursionSeries.value": (SERIES.value, {"k": 1}),
    "analysis.RecursionSeries.log_value": (SERIES.log_value, {"k": 1}),
}

# public entry points the sweep leaves out, and why
EXEMPT = {
    # a fixed rule table over the trend lists `classify` builds from its own
    # estimates; it refuses nothing, and no command hands it user input
    "experiments.verdict_from_trends",
}
# the instance classes' kernel interface: the engines call it with arrays
# they built, and evaluate_batch and build_state are the checked entry points
EXEMPT |= {"functions.%s.%s" % (cls.__name__, attr)
           for cls in (functions.CounterInstance, functions.TreeInstance, functions.TableInstance)
           for attr in ("evaluate_rows", "counter_output", "input_counts", "bit_inputs",
                        "counter_weights", "build_state") if attr in vars(cls)}


def _variants(kind):
    """The values one argument takes in the sweep."""
    values = list(BAD)
    if kind == "obj":
        values.append(NOT_INSTANCE)
    if kind == "seq":
        values += [NOT_SEQUENCE] + [[v] for v in BAD]
    return values


def _call(fn, kwargs, allowed):
    """None if fn(**kwargs) returns or raises one of `allowed`, else what it
    raised or warned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(**kwargs)
        except allowed:
            return None
        except Exception as exc:  # a warning raised as an error included
            return "%s: %s" % (type(exc).__name__, exc)
    return None


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "profile.txt"
    path.write_text("2\n2\n")
    return str(path)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_every_argument_refuses_cleanly(name, profile_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fn, spec = ENTRIES[name]
    kinds = {k: v if isinstance(v, tuple) and v and v[0] in ("obj", "seq") else (None, v)
             for k, v in spec.items()}
    valid = {k: profile_file if v == PROFILE_FILE else v for k, (_, v) in kinds.items()}
    allowed = (BoolvolError, ValueError, OSError) if PROFILE_FILE in spec.values() \
        else (BoolvolError, ValueError)
    assert _call(fn, valid, ()) is None, "the valid call itself must return"
    failures = []
    for arg, (kind, _) in kinds.items():
        for value in _variants(kind):
            outcome = _call(fn, {**valid, arg: value}, allowed)
            if outcome is not None:
                failures.append("%s=%r: %s" % (arg, value, outcome))
    assert not failures, "\n".join(failures)


def _public_entry_points():
    """"module.name" of every public function, validating constructor and
    public classmethod defined in the swept modules, and "module.class.name"
    of every public method of their public classes that takes an argument."""
    out = set()
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, value in vars(mod).items():
            if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                out.add("%s.%s" % (short, name))
            elif inspect.isclass(value):
                if "__post_init__" in vars(value):
                    out.add("%s.%s" % (short, name))
                out.update("%s.%s.%s" % (short, name, attr) for attr, member in vars(value).items()
                           if not attr.startswith("_") and (isinstance(member, classmethod) or (
                               inspect.isfunction(member)
                               and len(inspect.signature(member).parameters) > 1)))
    return out


def test_every_public_entry_point_is_swept():
    missing = _public_entry_points() - set(ENTRIES) - EXEMPT
    assert not missing, "add to ENTRIES or EXEMPT: %s" % sorted(missing)
    assert not EXEMPT & set(ENTRIES)
