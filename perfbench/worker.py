"""One workload in one fresh process; prints its raw measurements as JSON.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --mode setup
    python3 perfbench/worker.py --workload NAME --seed N --mode run --seconds S
    python3 perfbench/worker.py --workload NAME --seed N --mode trace --passes P

``setup`` times import + setup and exits.  ``run`` repeats passes over the
task list until ``--seconds`` have elapsed (at least one pass).  ``trace``
installs the tracer and runs exactly ``--passes`` passes, so its counts
repeat exactly for one seed.  The last stdout line is the result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import boolvol  # noqa: E402

if not os.path.abspath(boolvol.__file__).startswith(SRC + os.sep):
    sys.exit("boolvol was imported from %s, not from %s" % (boolvol.__file__, SRC))

import numpy as np  # noqa: E402

from checks import Checker  # noqa: E402
from workloads import KNOWN_CLI_JSON, KNOWN_FLOAT_NONFINITE, WORKLOADS  # noqa: E402


def fingerprint(obj, h):
    """Feeds a canonical byte form of a task output into hash `h`."""
    if dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            fingerprint(getattr(obj, f.name), h)
    elif isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode() + str(obj.shape).encode() + obj.tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj, key=repr):
            fingerprint(k, h)
            fingerprint(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for v in obj:
            fingerprint(v, h)
    elif hasattr(obj, "_mpf_"):
        # the binary form; printing an mpf with a huge exponent is very slow
        h.update(repr(obj._mpf_).encode())
    else:
        h.update(repr(obj).encode())


_CAL_DATA = np.random.default_rng(0).random(8192)
_CAL_SMALL = np.arange(64, dtype=np.float64)


def calibrate():
    """Times a fixed kernel (~0.5 ms) of the kinds of work the tasks do.

    Interpreter arithmetic, a numpy generator set-up, small numpy calls and
    one sort of 8192 floats.  It runs before every task and after the last
    one of a pass; run.py divides each task's latency by the kernel time
    around it, which removes the machine's speed changes (see README.md).
    """
    t0 = time.perf_counter()
    acc = 0
    for k in range(5000):
        acc += k * k
    for seed in range(2):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, seed))))
        for _ in range(15):
            gen.random(16)
            (_CAL_SMALL < 0.5).astype(np.uint8).tolist()
    np.sort(_CAL_DATA)
    return time.perf_counter() - t0


def run_passes(wl, ck, seconds=None, passes=None, tracer=None, digest=None):
    """Closed loop over the task list; returns per-pass task records."""
    records = []
    cals = []
    start = time.perf_counter()
    i = 0
    while True:
        if passes is not None and i >= passes:
            break
        if passes is None and i > 0 and time.perf_counter() - start >= seconds:
            break
        tasks = wl.tasks(i)
        rows = []
        cal = []
        for j, task in enumerate(tasks):
            cal.append(calibrate())
            if tracer is not None:
                tracer.begin_task("p%d.t%d" % (i, j), task.name, task.tag)
            t0 = time.perf_counter()
            try:
                out = task.fn()
                err = None
            except Exception:  # a failing task is counted, the loop goes on
                err = traceback.format_exc()
            dt = time.perf_counter() - t0
            if err is None and digest is not None:
                fingerprint(out, digest)
            if err is None:
                try:
                    task.check(out, ck)
                except Exception:
                    err = traceback.format_exc()
            if err is not None:
                ck.check(False, "%s raised:\n%s" % (task.name, err))
            rows.append([task.name, dt, task.work, task.tag])
        cal.append(calibrate())
        records.append(rows)
        cals.append(cal)
        i += 1
    if tracer is not None:
        tracer.begin_task("checks", "checks", None)
    ck.finish_pools()
    return records, cals


def threads_speedup(wl):
    """threads=2 against threads=1 on one mc-short task, median of 3 each."""
    from boolvol.dynamics import DynamicsParams, estimate_C_distribution
    from boolvol.functions import make_instance, parse_spec

    inst = make_instance(parse_spec("maj:9"))
    params = DynamicsParams(p=0.5, T=1.0, seed=wl.task_seed(999, 1), replicas=4000)
    times = {1: [], 2: []}
    for _ in range(3):
        for threads in (1, 2):
            t0 = time.perf_counter()
            estimate_C_distribution(inst, params, threads=threads)
            times[threads].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[2])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--passes", type=int, default=2)
    ap.add_argument("--threads-probe", action="store_true")
    ap.add_argument("--spans", default=None, help="trace mode: JSON-lines file")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s,
              "setup_cal": statistics.median(calibrate() for _ in range(5))}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ck = Checker()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_task("reference", "reference", None)
    wl.references(ck)
    if tracer is None:
        records, cals = run_passes(wl, ck, seconds=args.seconds)
    else:
        digest = hashlib.sha256()
        records, cals = run_passes(wl, ck, passes=args.passes, tracer=tracer,
                                   digest=digest)
        tracer.uninstall()
        result["digest"] = digest.hexdigest()
        layer = tracer.metrics()
        for name, tag in (("analysis.float_nonfinite", KNOWN_FLOAT_NONFINITE),
                          ("cli.nonstrict_json", KNOWN_CLI_JSON)):
            layer[name] = ck.known.get(tag, [0, 0])[1]
        result["layer"] = layer
        result["counts"] = dict(tracer.counts)
        if args.spans:
            tracer.write(args.spans)
    result["passes"] = records
    result["cal"] = cals
    result["checks"] = ck.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.threads_probe:
        result["threads2_speedup"] = threads_speedup(wl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
