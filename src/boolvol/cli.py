"""Command-line surface: reproducible runs of every module, JSON or CSV out.

Exit codes: 0 success; 2 malformed input (unknown function family, bad flag
values, unreadable plan or profile files, an unwritable --out file); 3 a
fixed resource cap (enumeration arity, pair-enumeration arity, replica
event or draw budget, edge ids past 2^64) or memory exhausted.

Every command is deterministic given its flags: the seed defaults to the
fixed constant 1, never the clock.  Each command, and each recursion and
perc op, takes only the flags its handler reads, so any other flag exits 2.
JSON payloads carry a "schema" key naming the matching file shipped under
boolvol/schemas/.  CSV column layouts are listed in each subcommand's --help.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from .analysis import (
    MAX_DIGITS,
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


def _emit(args, payload, header, rows):
    if args.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
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


def cmd_simulate(args):
    inst = make_instance(parse_spec(args.spec))
    params = DynamicsParams(p=args.p, T=args.T, seed=args.seed,
                            replicas=args.replicas)
    est = estimate_C_distribution(inst, params)
    payload = {"schema": _schema("simulate"), **est.to_json_dict()}
    return payload, ("C", "count"), est.histogram()


def cmd_influence(args):
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


def cmd_joint(args):
    spec = parse_spec(args.spec)
    est = estimate_joint(make_instance(spec), args.p, args.t, args.replicas,
                         args.seed)
    return _joint_payload("joint", spec, args.seed, est, p=args.p, t=args.t)


def cmd_noise(args):
    spec = parse_spec(args.spec)
    est = sample_noise_pair(make_instance(spec), args.p, args.epsilon,
                            args.replicas, args.seed)
    return _joint_payload("noise", spec, args.seed, est, p=args.p,
                          epsilon=args.epsilon)


def _series_payload(op, params, series):
    payload = {"schema": _schema("recursion-series"), "op": op,
               "params": params, **series.to_json_dict()}
    return payload, ("k", "value", "mode"), series.to_csv_rows()


def cmd_recursion(args):
    op = args.op
    # the library takes the t = inf limit, but a JSON payload cannot hold it
    if not math.isfinite(getattr(args, "t", 0.0)):
        raise InvalidSpec("time t must be finite, got %r" % args.t)
    if op == "maj3-a":
        series = maj3_a_seq(args.p0, args.n, digits=args.precision)
        return _series_payload(op, {"p0": args.p0, "n": args.n}, series)
    if op == "maj3-b":
        params = Maj3Params(n=args.n, epsilon=args.epsilon, alpha=args.alpha,
                            t=args.t)
        series = maj3_b_seq(params, digits=args.precision)
        return _series_payload(op, {"n": args.n, "epsilon": args.epsilon,
                                    "alpha": args.alpha, "t": args.t}, series)
    if op == "maj3-cutoff":
        diag = maj3_cutoff_diagnostic(args.alpha, args.n, digits=args.precision)
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
    report = andor_survival_floor_check(grid_resolution=args.grid)
    payload = {"schema": _schema("survival-floor"), **report.to_json_dict()}
    return payload, ("x", "floor", "rhs", "margin"), report.to_csv_rows()


_MAX_RATIO = 4.0  # the --max-ratio of perc build and weights --target


def cmd_perc(args):
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
        replicas=args.replicas, seed=args.seed)
    payload = {"schema": _schema("perc-run"), **report.to_json_dict()}
    return payload, ("level", "p_one", "p_ever_one", "p_always_one",
                     "p_always_zero", "mean_C", "var_C", "mean_S"), report.to_csv_rows()


def cmd_classify(args):
    with open(args.planfile) as fh:
        raw = json.load(fh)
    # the plan checks its own pairs: a spec and a number p
    plan = SequencePlan.from_pairs(raw, T=args.T, replicas=args.replicas, seed=args.seed)
    report = classify(plan)
    payload = {"schema": _schema("classify"), **report.to_json_dict()}
    return payload, ("n", "stat", "value", "stderr"), report.to_csv_rows()


# ---------------------------------------------------------------------------
# parser


def _leaf(parsers, name, **kw):
    """A leaf command's parser with the output flags, added per parser: argparse
    would lift a parent parser's exclusive group out of its argument group."""
    parser = parsers.add_parser(
        name, formatter_class=argparse.RawDescriptionHelpFormatter, **kw)
    g = parser.add_argument_group("output flags")
    fmt = g.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                     help="emit JSON (the default)")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv",
                     help="emit CSV plot data (columns listed per subcommand)")
    g.add_argument("--out", metavar="FILE", default=None,
                   help="write output to FILE instead of stdout")
    parser.set_defaults(fmt="json")
    return parser


def _monte_carlo_flags(parser, replicas):
    # added per parser, not through a parent: argparse parents share their
    # Action objects, so a default set on one child would change the rest
    g = parser.add_argument_group("Monte Carlo flags")
    g.add_argument("--seed", type=int, default=1,
                   help="base seed, a fixed constant by default (default: 1)")
    g.add_argument("--replicas", type=int, default=replicas,
                   help="replica count (default: %(default)s)")


def _precision_flag(parser, default):
    parser.add_argument("--precision", type=int, metavar="DIGITS", default=default,
                        help="working decimal digits, 1 to %d (default: %s)"
                             % (MAX_DIGITS, default or "machine floats"))


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="boolvol",
        description="Switch-count volatility of Boolean functions under "
                    "continuous-time bit rerandomization.",
        epilog="exit codes: 0 ok, 2 malformed input, 3 resource cap exceeded")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = _leaf(
        sub, "simulate",
        help="sample the switch-count distribution of one function",
        description="Sample the switch-count distribution C over [0, T].\n"
                    "CSV columns: C,count (the switch-count histogram).")
    p.add_argument("spec", help="function spec, e.g. maj:9, parity:16, "
                                "andor:5, perc:FILE:3, table:FILE")
    p.add_argument("--p", type=float, default=0.5,
                   help="rerandomize-to-one probability (default: 0.5)")
    p.add_argument("--T", type=float, default=1.0,
                   help="time horizon (default: 1.0)")
    _monte_carlo_flags(p, 10_000)
    p.set_defaults(handler=cmd_simulate)

    p = _leaf(
        sub, "influence",
        help="exact per-bit influence and pivotality by enumeration",
        description="Exact per-bit influence/pivotality (arity-capped).\n"
                    "CSV columns: bit,influence,pivotality.")
    p.add_argument("spec")
    p.add_argument("--p", type=float, default=0.5)
    p.set_defaults(handler=cmd_influence)

    p = _leaf(
        sub, "joint",
        help="joint law of the output at times 0 and t",
        description="Simulate to horizon t and compare the two endpoints.\n"
                    "CSV columns: mean_product,disagree,se_product,"
                    "se_disagree,replicas.")
    p.add_argument("spec")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--t", type=float, required=True, help="second time point")
    _monte_carlo_flags(p, 10_000)
    p.set_defaults(handler=cmd_joint)

    p = _leaf(
        sub, "noise",
        help="clock-free epsilon-rerandomized pair statistics",
        description="Draw (X, Y) with each bit of Y redrawn w.p. epsilon.\n"
                    "CSV columns: mean_product,disagree,se_product,"
                    "se_disagree,replicas.")
    p.add_argument("spec")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, required=True)
    _monte_carlo_flags(p, 10_000)
    p.set_defaults(handler=cmd_noise)

    # each op reads its own flags, so a flag another op reads is an error
    p = sub.add_parser(
        "recursion", help="analytic recursions for 3-majority and AND/OR trees",
        description="Analytic series and certificates.")
    ops = p.add_subparsers(dest="op", required=True, metavar="OP")
    series = "k,value,mode (value is the natural log where mode=log)"
    alpha = "bias scaling exponent: n^alpha (2/3)^n"

    def op(name, what, columns):
        return _leaf(ops, name, help=what,
                     description="%s.\nCSV columns: %s." % (what, columns))

    o = op("maj3-a", "3-majority tree: P(root = 1) by depth", series)
    o.add_argument("--p0", type=float, required=True, help="leaf probability")
    o.add_argument("--n", type=int, default=0, help="depth")
    _precision_flag(o, None)
    o = op("maj3-b", "3-majority tree: P(root = 1 at times 0 and t) by depth, "
           "biased by exactly one of --epsilon and --alpha", series)
    o.add_argument("--n", type=int, default=0, help="depth")
    o.add_argument("--epsilon", type=float, default=None, help="leaf bias 1/2 - p")
    o.add_argument("--alpha", type=float, default=None, help=alpha)
    o.add_argument("--t", type=float, default=0.0, help="second time point")
    _precision_flag(o, None)
    o = op("maj3-cutoff", "3-majority tree: sign of n log 3 + log a_n",
           "alpha,n,log_diag,digits")
    o.add_argument("--alpha", type=float, required=True, help=alpha)
    o.add_argument("--n", type=int, default=0, help="depth")
    _precision_flag(o, 50)
    o = op("andor-x", "AND/OR tree: P(root = 1 at times 0 and t) by depth", series)
    o.add_argument("--t", type=float, default=0.0, help="second time point")
    o.add_argument("--n", type=int, default=0, help="depth")
    o = op("andor-bbound", "AND/OR tree: double-switch upper bounds by depth", series)
    o.add_argument("--n", type=int, default=0, help="depth")
    o.add_argument("--t", type=float, default=0.0, help="second time point")
    o = op("andor-gfloor", "AND/OR tree: survival-floor certificate",
           "x,floor,rhs,margin")
    o.add_argument("--grid", type=int, default=1000, help="x-grid resolution")
    p.set_defaults(handler=cmd_recursion)

    # each op reads its own flags, so a flag another op reads is an error
    p = sub.add_parser(
        "perc", formatter_class=argparse.RawDescriptionHelpFormatter,
        help="spherically symmetric tree percolation",
        description="Build weight-tracking profiles and run the regime "
                    "experiment.")
    ops = p.add_subparsers(dest="op", required=True, metavar="OP")
    target = ("weight growth law: constant, logn, logn1p:D, nlogn:A, "
              "nalpha:A")
    max_ratio = ("allowed weight/target factor when building from --target "
                 "(default: 4)")
    profile = "child counts, inline (2,16,7) or a file (one per line)"

    o = _leaf(
        ops, "build",
        help="child counts whose weights track a growth law",
        description="Build a weight-tracking profile.\nCSV columns: level,"
                    "children,log_w,target,log_error,enforced.")
    o.add_argument("--target", default=None, help=target)
    o.add_argument("--levels", default=None, help="level count")
    o.add_argument("--max-ratio", type=float, default=_MAX_RATIO, help=max_ratio)
    o.add_argument("--profile-out", default=None, metavar="FILE",
                   help="also write the profile to FILE")

    o = _leaf(
        ops, "weights",
        help="level weights of a profile or a growth law",
        description="Level weights of --profile, or of the profile built "
                    "from --target.\nCSV columns: k,children,log_w,w.")
    o.add_argument("--target", default=None, help=target)
    o.add_argument("--levels", default=None, help="level count (with --target)")
    o.add_argument("--max-ratio", type=float, default=None,
                   help=max_ratio + " (with --target)")
    o.add_argument("--profile", default=None, help=profile)

    o = _leaf(
        ops, "run",
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
    _monte_carlo_flags(o, 1000)
    p.set_defaults(handler=cmd_perc)

    p = _leaf(
        sub, "classify",
        help="taxonomy verdict for a sequence of functions",
        description="Classify a sequence given as a JSON plan file: a list "
                    "of [spec, p] pairs\nin strictly increasing arity order "
                    "(at least three).\nCSV columns: n,stat,value,stderr.")
    p.add_argument("planfile", help="JSON list of [spec, p] pairs")
    p.add_argument("--T", type=float, default=1.0,
                   help="time horizon (default: 1.0)")
    _monte_carlo_flags(p, 4000)
    p.set_defaults(handler=cmd_classify)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _emit(args, *args.handler(args))
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
