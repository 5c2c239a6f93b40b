"""Every public entry point that takes a function instance refuses anything
else with InvalidSpec, before reading a field of it."""

import pytest

from boolvol import analysis, dynamics, oracle
from boolvol import functions as bf
from boolvol.errors import InvalidSpec

PARAMS = dynamics.DynamicsParams(p=0.5, T=1.0, seed=1, replicas=10)

ENTRY_POINTS = {
    "estimate_C_distribution": lambda f: dynamics.estimate_C_distribution(f, PARAMS),
    "estimate_joint": lambda f: dynamics.estimate_joint(f, 0.5, 1.0, 10, 1),
    "survival_curve": lambda f: dynamics.survival_curve(f, 0.5, [0.5], 10, 1),
    "sample_noise_pair": lambda f: dynamics.sample_noise_pair(f, 0.5, 0.2, 10, 1),
    "simulate_batch": lambda f: dynamics.simulate_batch(f, PARAMS),
    "simulate_trajectory": lambda f: dynamics.simulate_trajectory(f, PARAMS, 0),
    "maj3_grid_count": lambda f: analysis.maj3_grid_count(f, PARAMS, 0.25),
    "exact_prob_one": lambda f: oracle.exact_prob_one(f, 0.5),
    "exact_influence_report": lambda f: oracle.exact_influence_report(f, 0.5),
    "exact_total_influence": lambda f: oracle.exact_total_influence(f, 0.5),
    "exact_noise_covariance": lambda f: oracle.exact_noise_covariance(f, 0.5, 0.1),
    "evaluate": lambda f: bf.evaluate(f, [0, 1, 1]),
    "evaluate_batch": lambda f: bf.evaluate_batch(f, [[0, 1, 1]]),
    "build_state": lambda f: bf.build_state(f, [0, 1, 1]),
}

# spec text, no value, a spec that was never built, a number
NOT_INSTANCES = ["maj:3", None, bf.FunctionSpec("maj", 3), 3]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("value", NOT_INSTANCES, ids=repr)
def test_a_non_instance_raises_invalid_spec(entry, value):
    with pytest.raises(InvalidSpec, match="not a function instance"):
        ENTRY_POINTS[entry](value)
