"""boolvol benchmark: one workload per invocation, measured in fresh processes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-short --seed 1 --seconds 20 --trace 0

Workloads: mc-short, mc-long, perc-lazy, exact (see perfbench/README.md).

--trace 0 measures the end-to-end metrics.  Set-up is timed in eleven fresh
processes (ten set-up-only probes and the measured process itself) and
reported as their median; the measured process then runs the workload's
task list in a closed loop for --seconds.  Times are rescaled to a fixed
machine speed with a calibration kernel run around every task (README.md).

--trace 1 measures the per-layer metrics: one untraced process runs for
--seconds (per-family throughput, the thread probe, and the base of the
tracing overhead), then one traced process runs a fixed number of passes,
so its counts repeat exactly for a seed.

Every process gets OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 and imports
boolvol from ./src.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc-short", "mc-long", "perc-lazy", "exact")
SETUP_PROBES = 10
TRACED_PASSES = 2
# tail percentile: the highest of these with at least 10 tasks beyond it
TAIL_LADDER = (0.5, 0.9, 0.99, 0.999)
WORKER_TIMEOUT = 170
# the calibration kernel's time on a 2-vCPU Xeon VM at full speed (README.md)
REF_KERNEL_S = 5e-4

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def call_worker(args, timeout=WORKER_TIMEOUT):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(sorted_vals, q):
    """Linear interpolation between order statistics (inclusive method)."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])


def tail(latencies):
    """(q, q-quantile of all of the run's task latencies).

    q is the highest ladder entry with at least 10 of the run's tasks
    beyond it.
    """
    n = len(latencies)
    q = max([q for q in TAIL_LADDER if n * (1 - q) >= 10], default=TAIL_LADDER[0])
    return q, quantile(sorted(latencies), q)


def scaled_passes(res):
    """Task rows with each latency rescaled to the reference machine speed.

    A latency is divided by the mean of the calibration-kernel times just
    before and just after the task, and multiplied by REF_KERNEL_S.
    """
    out = []
    for rows, cal in zip(res["passes"], res["cal"]):
        out.append([(name, dt * REF_KERNEL_S * 2 / (cal[j] + cal[j + 1]), work, tag)
                    for j, (name, dt, work, tag) in enumerate(rows)])
    return out


def mean_pass(passes):
    """Task time of the run divided by its number of (complete) passes."""
    return math.fsum(row[1] for rows in passes for row in rows) / len(passes)


def end_to_end(setups, res):
    passes = scaled_passes(res)
    lat = [row[1] for rows in passes for row in rows]
    wall = mean_pass(passes)
    work = sum(row[2] for row in passes[0])
    q, tail_s = tail(lat)
    cal = [c for pass_cal in res["cal"] for c in pass_cal]
    print("machine speed: calibration kernel median %.4f ms, min %.4f ms, "
          "reference %.4f ms" % (1e3 * statistics.median(cal), 1e3 * min(cal),
                                 1e3 * REF_KERNEL_S))
    print("set-up samples (s, rescaled): %s" % " ".join("%.4f" % s for s in setups))
    print("unscaled: mean pass %.4f s, task p50 %.6f s"
          % (mean_pass(res["passes"]),
             statistics.median(row[1] for rows in res["passes"] for row in rows)))
    print("tasks: %d in %d passes; task_tail_s is p%g with %d tasks beyond it"
          % (len(lat), len(passes), 100 * q, round(len(lat) * (1 - q))))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "work_per_s": work / wall,
        "task_p50_s": statistics.median(lat),
        "task_tail_s": tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def scaled_setup(res):
    return res["setup_s"] * REF_KERNEL_S / res["setup_cal"]


def family_throughput(passes):
    """Replicas per second of each tagged task: replicas / median latency."""
    lat, work = {}, {}
    for rows in passes:
        for _, dt, w, tag in rows:
            if tag:
                lat.setdefault(tag, []).append(dt)
                work.setdefault(tag, []).append(w)
    return {tag: statistics.median(work[tag]) / statistics.median(lat[tag])
            for tag in lat}


def per_layer(base, traced):
    from tracer import FAMILY_TAGS, PER_LAYER

    units = dict(PER_LAYER)
    # span times of the traced run are rescaled by its median kernel time
    speed = REF_KERNEL_S / statistics.median(c for cal in traced["cal"] for c in cal)
    m = {}
    for name, value in traced["layer"].items():
        if units[name] in ("s", "us"):
            value *= speed
        elif units[name] == "1/s":
            value /= speed
        m[name] = value
    base_passes = scaled_passes(base)
    fam = family_throughput(base_passes)
    for tag in FAMILY_TAGS:
        m["dynamics.replicas_per_s.%s" % tag] = fam.get(tag, 0.0)
    m["dynamics.noise_pairs_per_s"] = fam.get("noise", 0.0)
    m["dynamics.threads2_speedup"] = base["threads2_speedup"]
    m["trace.overhead_ratio"] = (mean_pass(scaled_passes(traced))
                                 / mean_pass(base_passes))
    return {name: m[name] for name, _ in PER_LAYER}, units


def environment():
    import importlib.metadata as md

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = []
    for pkg in ("numpy", "mpmath"):
        try:
            versions.append("%s %s" % (pkg, md.version(pkg)))
        except md.PackageNotFoundError:
            versions.append("%s missing" % pkg)
    return "nproc %d; cpu %s; python %s; %s" % (
        os.cpu_count() or 0, cpu, platform.python_version(), "; ".join(versions))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "boolvol", "__init__.py")):
        print("error: run from the root of a boolvol checkout (no src/boolvol here)",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("error: --seed must lie in [0, 2^63)", file=sys.stderr)
        return 2
    out_dir = ".perfbench_out"
    os.makedirs(out_dir, exist_ok=True)
    print("environment: %s" % environment())

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        setups = [scaled_setup(call_worker(common + ["--mode", "setup"]))
                  for _ in range(SETUP_PROBES)]
        res = call_worker(common + ["--mode", "run", "--seconds", str(args.seconds)])
        setups.append(scaled_setup(res))
        raw = os.path.join(out_dir, "run-%s-%d.json" % (args.workload, args.seed))
        with open(raw, "w") as fh:
            json.dump({"setup_samples": setups, "run": res}, fh)
        print("raw measurements: %s" % raw)
        metrics = end_to_end(setups, res)
        units = dict(END_TO_END)
        checks = [res["checks"]]
    else:
        base = call_worker(common + ["--mode", "run", "--seconds", str(args.seconds),
                                     "--threads-probe"])
        spans = os.path.join(out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        traced = call_worker(common + ["--mode", "trace", "--passes",
                                       str(TRACED_PASSES), "--spans", spans])
        metrics, units = per_layer(base, traced)
        checks = [base["checks"], traced["checks"]]
        print("spans: %s" % spans)

    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    for c in checks:
        for msg in c["messages"]:
            print("check failed: %s" % msg)
    known = {}
    for c in checks:
        for tag, (n, hit) in c["known"].items():
            slot = known.setdefault(tag, [0, 0])
            slot[0] += n
            slot[1] += hit
    for tag, (n, hit) in sorted(known.items()):
        print("known defect: %s: reproduced by %d of %d checks" % (tag, hit, n))
    print("checks: %d attempted, %d failed (check_fail_ratio %.6g)"
          % (attempted, failed, failed / attempted if attempted else 0.0))
    for name, value in metrics.items():
        print("%-36s %.9g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
