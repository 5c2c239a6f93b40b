"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload: two traced processes with seed SEED must give identical
counts (events, effective updates, recomputes, edges sampled and kept per
level, intervals, configurations, precision passes) and identical task
outputs; a third with seed SEED + 1 must change the Monte Carlo counts.
Every metric name and unit must match BENCHMARK.json and the pattern
[A-Za-z0-9_.-]+, and run.py must print each of them, with its unit, for
every workload.  Exits 1 on any failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, WORKLOADS, call_worker  # noqa: E402
from tracer import EXACT_COUNTS, PER_LAYER, exact_count_snapshot  # noqa: E402

SEED = 11
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# counts that a new seed must move, per workload
SEED_SENSITIVE = {
    "mc-short": ["dynamics.events", "functions.effective_updates"],
    "mc-long": ["dynamics.events", "functions.effective_updates"],
    "perc-lazy": ["perctree.intervals", "perctree.edges_sampled.L10"],
    "exact": [],  # no Monte Carlo: counts depend on the task list only
}


def traced(workload, seed):
    res = call_worker(["--workload", workload, "--seed", str(seed),
                       "--mode", "trace", "--passes", "1"])
    return exact_count_snapshot(res["layer"], res["counts"]), res["digest"], res


def main():
    if not os.path.isfile(os.path.join("src", "boolvol", "__init__.py")):
        print("error: run from the root of a boolvol checkout", file=sys.stderr)
        return 2

    failures = []

    def expect(ok, what):
        print("%s  %s" % ("PASS" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        a, digest_a, res = traced(w, SEED)
        b, digest_b, _ = traced(w, SEED)
        diff = sorted(k for k in EXACT_COUNTS if a[k] != b[k])
        expect(not diff, "%s: counts repeat for seed %d %s"
               % (w, SEED, diff or ""))
        expect(digest_a == digest_b, "%s: task outputs repeat for seed %d"
               % (w, SEED))
        expect(res["checks"]["failed"] == 0, "%s: traced checks pass" % w)
        if SEED_SENSITIVE[w]:
            c, digest_c, _ = traced(w, SEED + 1)
            moved = [k for k in SEED_SENSITIVE[w] if c[k] != a[k]]
            expect(moved == SEED_SENSITIVE[w] and digest_c != digest_a,
                   "%s: seed %d changes %s" % (w, SEED + 1,
                                               ", ".join(SEED_SENSITIVE[w])))

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    expect(all(NAME.match(n) for n in declared), "metric names match the pattern")
    expect(dict(END_TO_END) == {m["name"]: m["unit"] for m in bench["end_to_end"]},
           "end-to-end metrics and units match BENCHMARK.json")
    expect(dict(PER_LAYER) == {m["name"]: m["unit"] for m in bench["per_layer"]},
           "per-layer metrics and units match BENCHMARK.json")
    expect([wl["name"] for wl in bench["workloads"]] == list(WORKLOADS),
           "workloads match BENCHMARK.json")

    for w in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=400)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            want = bench["per_layer" if trace else "end_to_end"]
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(proc.returncode == 0 and got == {m["name"]: m["unit"] for m in want},
                   "%s --trace %d prints every metric with its unit" % (w, trace))
            printed = proc.stdout.splitlines()
            expect(all(any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                           for line in printed) for m in want),
                   "%s --trace %d prints a 'name value unit' line per metric" % (w, trace))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
