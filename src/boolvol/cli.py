"""Command-line surface: reproducible runs of every module, JSON or CSV out.

Exit codes: 0 success; 2 malformed input (unknown function family, bad flag
values, unreadable plan or profile files, an unwritable --out file); 3 a
fixed resource cap (enumeration arity, pair-enumeration arity, replica
event or draw budget, edge ids past 2^64) or memory exhausted.

Every command is deterministic given its flags: the seed defaults to the
fixed constant 1, never the clock, and --threads only controls the replica
worker pool, never the output bytes.  JSON payloads carry a "schema" key
naming the matching file shipped under boolvol/schemas/.  CSV column layouts
are listed in each subcommand's --help.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass

from .analysis import (
    Maj3Params,
    andor_b_bound_seq,
    andor_survival_floor_check,
    andor_x_seq,
    maj3_a_seq,
    maj3_b_seq,
    maj3_cutoff_diagnostic,
)
from .dynamics import (
    DynamicsParams,
    estimate_C_distribution,
    estimate_joint,
    sample_noise_pair,
)
from .errors import BoolvolError, InvalidSpec, ResourceLimit
from .experiments import SequencePlan, classify
from .functions import make_instance, parse_profile, parse_spec
from .oracle import exact_influence_report
from .perctree import LevelProfile, build_profile, regime_experiment, weight_sequence

_SCHEMA_PREFIX = "boolvol"


def _schema(name):
    return "%s/%s/v1" % (_SCHEMA_PREFIX, name)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Global flags resolved once and threaded through every handler."""

    seed: int = 1
    replicas: int | None = None
    fmt: str = "json"
    out: str | None = None
    precision: int | None = None
    threads: int = 1

    def resolve_replicas(self, default):
        """--replicas wins; otherwise the subcommand's documented default."""
        return self.replicas if self.replicas is not None else default


def _emit(cfg, payload, header, rows):
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_levels(text):
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise InvalidSpec("levels must be comma-separated integers: %r" % text) from None


# ---------------------------------------------------------------------------
# handlers: each returns (json payload, csv header, csv rows)


def cmd_simulate(cfg, args):
    inst = make_instance(parse_spec(args.spec))
    params = DynamicsParams(p=args.p, T=args.T, seed=cfg.seed,
                            replicas=cfg.resolve_replicas(10_000))
    est = estimate_C_distribution(inst, params, threads=cfg.threads)
    payload = {"schema": _schema("simulate"), **est.to_json_dict()}
    return payload, ("C", "count"), est.histogram()


def cmd_influence(cfg, args):
    spec = parse_spec(args.spec)
    report = exact_influence_report(make_instance(spec), args.p)
    payload = {"schema": _schema("influence"), "spec": spec.spec_string(),
               **report.to_json_dict()}
    return payload, ("bit", "influence", "pivotality"), report.per_bit


_JOINT_COLUMNS = ("mean_product", "disagree", "se_product", "se_disagree",
                  "replicas")


def _joint_payload(name, spec, seed, est, **params):
    """Payload and CSV row of a `JointEstimate` (the joint and noise commands)."""
    payload = {"schema": _schema(name), "spec": spec.spec_string(), **params,
               "replicas": est.replicas, "seed": seed,
               "mean_product": est.mean_product, "disagree": est.disagree,
               "se_product": est.se_product, "se_disagree": est.se_disagree}
    return payload, _JOINT_COLUMNS, [tuple(payload[k] for k in _JOINT_COLUMNS)]


def cmd_joint(cfg, args):
    spec = parse_spec(args.spec)
    est = estimate_joint(make_instance(spec), args.p, args.t,
                         cfg.resolve_replicas(10_000), cfg.seed)
    return _joint_payload("joint", spec, cfg.seed, est, p=args.p, t=args.t)


def cmd_noise(cfg, args):
    spec = parse_spec(args.spec)
    est = sample_noise_pair(make_instance(spec), args.p, args.epsilon,
                            cfg.resolve_replicas(10_000), cfg.seed)
    return _joint_payload("noise", spec, cfg.seed, est, p=args.p,
                          epsilon=args.epsilon)


def _series_payload(op, params, series):
    payload = {"schema": _schema("recursion-series"), "op": op,
               "params": params, **series.to_json_dict()}
    return payload, ("k", "value", "mode"), series.to_csv_rows()


def cmd_recursion(cfg, args):
    op = args.op
    if op == "maj3-a":
        if args.p0 is None:
            raise InvalidSpec("maj3-a needs --p0")
        series = maj3_a_seq(args.p0, args.n, digits=cfg.precision)
        return _series_payload(op, {"p0": args.p0, "n": args.n}, series)
    if op == "maj3-b":
        params = Maj3Params(n=args.n, epsilon=args.epsilon, alpha=args.alpha,
                            t=args.t)
        series = maj3_b_seq(params, digits=cfg.precision)
        return _series_payload(op, {"n": args.n, "epsilon": args.epsilon,
                                    "alpha": args.alpha, "t": args.t}, series)
    if op == "maj3-cutoff":
        if args.alpha is None:
            raise InvalidSpec("maj3-cutoff needs --alpha")
        digits = cfg.precision if cfg.precision is not None else 50
        diag = maj3_cutoff_diagnostic(args.alpha, args.n, digits=digits)
        payload = {"schema": _schema("recursion-cutoff"), **diag.to_json_dict()}
        row = (diag.alpha, diag.n, diag.log_diag, diag.digits)
        return payload, ("alpha", "n", "log_diag", "digits"), [row]
    if op == "andor-x":
        series = andor_x_seq(args.t, args.n)
        return _series_payload(op, {"t": args.t, "n": args.n}, series)
    if op == "andor-bbound":
        series = andor_b_bound_seq(args.n, args.t)
        return _series_payload(op, {"n": args.n, "t": args.t}, series)
    # andor-gfloor
    report = andor_survival_floor_check(grid_resolution=args.grid,
                                        conv_points=args.conv_points)
    payload = {"schema": _schema("survival-floor"), **report.to_json_dict()}
    return payload, ("x", "floor", "rhs", "margin"), report.to_csv_rows()


_MAX_RATIO = 4.0  # the --max-ratio of perc build and weights --target


def cmd_perc(cfg, args):
    if args.op == "build":
        if args.target is None or args.levels is None:
            raise InvalidSpec("perc build needs --target and --levels")
        args.levels = int(args.levels)
        profile = build_profile(args.target, args.levels, max_ratio=args.max_ratio)
        if args.profile_out:
            profile.write(args.profile_out)
        payload = {
            "schema": _schema("perc-build"),
            "target": args.target,
            "levels": args.levels,
            "max_ratio": args.max_ratio,
            "children": list(profile.children),
            "profile_out": args.profile_out,
            "report": [dict(r) for r in profile.report],
        }
        rows = [(r["level"], r["children"], r["log_w"], r["target"],
                 r["log_error"], r["enforced"]) for r in profile.report]
        return payload, ("level", "children", "log_w", "target", "log_error",
                         "enforced"), rows
    if args.op == "weights":
        if (args.profile is None) == (args.target is None):
            raise InvalidSpec("give exactly one of --profile or --target")
        if args.profile is not None:
            if args.levels is not None or args.max_ratio is not None:
                raise InvalidSpec("perc weights with --profile takes no --levels "
                                  "or --max-ratio")
            profile = LevelProfile(parse_profile(args.profile))
        else:
            if args.levels is None:
                raise InvalidSpec("perc weights with --target needs --levels")
            max_ratio = _MAX_RATIO if args.max_ratio is None else args.max_ratio
            profile = build_profile(args.target, int(args.levels), max_ratio=max_ratio)
        ws = weight_sequence(profile)
        payload = {"schema": _schema("perc-weights"), **ws.to_json_dict()}
        return payload, ("k", "children", "log_w", "w"), ws.to_csv_rows()
    # run
    if args.profile is None or args.levels is None:
        raise InvalidSpec("perc run needs --profile and --levels")
    profile = LevelProfile(parse_profile(args.profile))
    report = regime_experiment(
        profile, _parse_levels(args.levels), p=args.p, T=args.T,
        replicas=cfg.resolve_replicas(1000), seed=cfg.seed)
    payload = {"schema": _schema("perc-run"), **report.to_json_dict()}
    return payload, ("level", "p_one", "p_ever_one", "p_always_one",
                     "p_always_zero", "mean_C", "var_C", "mean_S"), report.to_csv_rows()


def cmd_classify(cfg, args):
    with open(args.planfile) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
            and isinstance(e[1], (int, float)) and not isinstance(e[1], bool)
            for e in raw):
        raise InvalidSpec("plan file must be a JSON list of [spec, p] pairs, "
                          "each a string and a number")
    plan = SequencePlan.from_pairs(
        [(s, float(p)) for s, p in raw],
        T=args.T, replicas=cfg.resolve_replicas(4000), seed=cfg.seed)
    report = classify(plan, threads=cfg.threads)
    payload = {"schema": _schema("classify"), **report.to_json_dict()}
    return payload, ("n", "stat", "value", "stderr"), report.to_csv_rows()


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("global flags")
    g.add_argument("--seed", type=int, default=1,
                   help="base seed, a fixed constant by default (default: 1)")
    g.add_argument("--replicas", type=int, default=None,
                   help="Monte Carlo replica count (defaults: simulate/joint/"
                        "noise 10000, classify 4000, perc run 1000)")
    fmt = g.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                     help="emit JSON (the default)")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv",
                     help="emit CSV plot data (columns listed per subcommand)")
    g.add_argument("--out", metavar="FILE", default=None,
                   help="write output to FILE instead of stdout")
    g.add_argument("--precision", type=int, metavar="DIGITS", default=None,
                   help="working decimal digits for recursions (default: "
                        "machine floats; maj3-cutoff: 50)")
    g.add_argument("--threads", type=int, default=1,
                   help="replica worker threads; never changes output bytes")
    common.set_defaults(fmt="json")

    parser = argparse.ArgumentParser(
        prog="boolvol",
        description="Switch-count volatility of Boolean functions under "
                    "continuous-time bit rerandomization.",
        epilog="exit codes: 0 ok, 2 malformed input, 3 resource cap exceeded")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    raw = argparse.RawDescriptionHelpFormatter

    p = sub.add_parser(
        "simulate", parents=[common], formatter_class=raw,
        help="sample the switch-count distribution of one function",
        description="Sample the switch-count distribution C over [0, T].\n"
                    "CSV columns: C,count (the switch-count histogram).")
    p.add_argument("spec", help="function spec, e.g. maj:9, parity:16, "
                                "andor:5, perc:FILE:3, table:FILE")
    p.add_argument("--p", type=float, default=0.5,
                   help="rerandomize-to-one probability (default: 0.5)")
    p.add_argument("--T", type=float, default=1.0,
                   help="time horizon (default: 1.0)")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser(
        "influence", parents=[common], formatter_class=raw,
        help="exact per-bit influence and pivotality by enumeration",
        description="Exact per-bit influence/pivotality (arity-capped).\n"
                    "CSV columns: bit,influence,pivotality.")
    p.add_argument("spec")
    p.add_argument("--p", type=float, default=0.5)
    p.set_defaults(handler=cmd_influence)

    p = sub.add_parser(
        "joint", parents=[common], formatter_class=raw,
        help="joint law of the output at times 0 and t",
        description="Simulate to horizon t and compare the two endpoints.\n"
                    "CSV columns: mean_product,disagree,se_product,"
                    "se_disagree,replicas.")
    p.add_argument("spec")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--t", type=float, required=True, help="second time point")
    p.set_defaults(handler=cmd_joint)

    p = sub.add_parser(
        "noise", parents=[common], formatter_class=raw,
        help="clock-free epsilon-rerandomized pair statistics",
        description="Draw (X, Y) with each bit of Y redrawn w.p. epsilon.\n"
                    "CSV columns: mean_product,disagree,se_product,"
                    "se_disagree,replicas.")
    p.add_argument("spec")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(handler=cmd_noise)

    p = sub.add_parser(
        "recursion", parents=[common], formatter_class=raw,
        help="analytic recursions for 3-majority and AND/OR trees",
        description="Analytic recursions; --precision sets working digits.\n"
                    "CSV columns: series ops k,value,mode (value is the\n"
                    "natural log where mode=log); maj3-cutoff alpha,n,"
                    "log_diag,digits;\nandor-gfloor x,floor,rhs,margin.")
    p.add_argument("op", choices=["maj3-a", "maj3-b", "maj3-cutoff",
                                  "andor-x", "andor-bbound", "andor-gfloor"])
    p.add_argument("--p0", type=float, default=None,
                   help="leaf probability (maj3-a)")
    p.add_argument("--n", type=int, default=0, help="depth")
    p.add_argument("--epsilon", type=float, default=None,
                   help="leaf bias 1/2 - p (maj3-b)")
    p.add_argument("--alpha", type=float, default=None,
                   help="bias scaling exponent n^alpha (2/3)^n "
                        "(maj3-b, maj3-cutoff)")
    p.add_argument("--t", type=float, default=0.0, help="second time point")
    p.add_argument("--grid", type=int, default=1000,
                   help="x-grid resolution (andor-gfloor)")
    p.add_argument("--conv-points", type=int, default=200_000,
                   help="convolution atoms (andor-gfloor)")
    p.set_defaults(handler=cmd_recursion)

    # each op reads its own flags, so a flag another op reads is an error
    p = sub.add_parser(
        "perc", formatter_class=raw,
        help="spherically symmetric tree percolation",
        description="Build weight-tracking profiles and run the regime "
                    "experiment.")
    ops = p.add_subparsers(dest="op", required=True, metavar="OP")
    target = ("weight growth law: constant, logn, logn1p:D, nlogn:A, "
              "nalpha:A")
    max_ratio = ("allowed weight/target factor when building from --target "
                 "(default: 4)")
    profile = "child counts, inline (2,16,7) or a file (one per line)"

    o = ops.add_parser(
        "build", parents=[common], formatter_class=raw,
        help="child counts whose weights track a growth law",
        description="Build a weight-tracking profile.\nCSV columns: level,"
                    "children,log_w,target,log_error,enforced.")
    o.add_argument("--target", default=None, help=target)
    o.add_argument("--levels", default=None, help="level count")
    o.add_argument("--max-ratio", type=float, default=_MAX_RATIO, help=max_ratio)
    o.add_argument("--profile-out", default=None, metavar="FILE",
                   help="also write the profile to FILE")

    o = ops.add_parser(
        "weights", parents=[common], formatter_class=raw,
        help="level weights of a profile or a growth law",
        description="Level weights of --profile, or of the profile built "
                    "from --target.\nCSV columns: k,children,log_w,w.")
    o.add_argument("--target", default=None, help=target)
    o.add_argument("--levels", default=None, help="level count (with --target)")
    o.add_argument("--max-ratio", type=float, default=None,
                   help=max_ratio + " (with --target)")
    o.add_argument("--profile", default=None, help=profile)

    o = ops.add_parser(
        "run", parents=[common], formatter_class=raw,
        help="the regime experiment on one profile",
        description="Root-connectivity statistics per level.\nCSV columns: "
                    "level,p_one,p_ever_one,p_always_one,p_always_zero,"
                    "mean_C,var_C,mean_S.")
    o.add_argument("--profile", default=None, help=profile)
    o.add_argument("--levels", default=None,
                   help="comma-separated levels, e.g. 4,8,12")
    o.add_argument("--p", type=float, default=0.5,
                   help="edge-open probability (default: 0.5)")
    o.add_argument("--T", type=float, default=1.0,
                   help="time horizon (default: 1.0)")
    p.set_defaults(handler=cmd_perc)

    p = sub.add_parser(
        "classify", parents=[common], formatter_class=raw,
        help="taxonomy verdict for a sequence of functions",
        description="Classify a sequence given as a JSON plan file: a list "
                    "of [spec, p] pairs\nin strictly increasing arity order "
                    "(at least three).\nCSV columns: n,stat,value,stderr.")
    p.add_argument("planfile", help="JSON list of [spec, p] pairs")
    p.add_argument("--T", type=float, default=1.0,
                   help="time horizon (default: 1.0)")
    p.set_defaults(handler=cmd_classify)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(seed=args.seed, replicas=args.replicas, fmt=args.fmt,
                    out=args.out, precision=args.precision,
                    threads=args.threads)
    try:
        _emit(cfg, *args.handler(cfg, args))
    except ResourceLimit as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return 3
    except (BoolvolError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
