"""One pass of every benchmark workload, under the benchmark's own checks.

`perfbench/workloads.py` drives the package through the names it depends
on and checks every result against closed forms and exact values.  One
seeded pass of each workload here makes a change that breaks one of those
names, or a result the benchmark checks, fail fast.  Nothing under
`perfbench/` is written.
"""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1001


@pytest.fixture(scope="module")
def bench():
    # workloads.py imports checks.py as a top-level module, as the
    # benchmark worker does with perfbench/ first on its path
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("checks"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["mc-short", "mc-long", "perc-lazy", "exact"])
def test_one_pass_fails_no_check(bench, name):
    checks, workloads = bench
    wl = workloads.WORKLOADS[name](SEED)
    wl.setup()
    ck = checks.Checker()
    wl.references(ck)
    for task in wl.tasks(0):
        task.check(task.fn(), ck)
    ck.finish_pools()
    assert ck.attempted > 0
    assert ck.failed == 0, ck.messages
