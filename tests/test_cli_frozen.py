"""Frozen stdout of every CLI leaf.

One small argv per leaf command (each `recursion` and `perc` op is a leaf
of its own), run in-process through `cli.main` once with JSON output and
once with `--csv`.  A sha256 over every (argv, exit code, stdout) triple
pins the bytes each leaf prints, so a change meant to keep every output
can prove it with this one test.  No case uses an AND/OR spec.

Run `python tests/test_cli_frozen.py` to print the current digest.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from boolvol import cli

FROZEN_SHA256 = "82eb970f7fe70a00ceb23b57b3f942d58aff8b4a35d5a9f96cd64d72952cfe2b"

# the classify plan is written to a temporary file; its path never reaches
# stdout
_PLAN = [["parity:%d" % n, 0.5] for n in (3, 5, 7)]

_LEAVES = [
    ["simulate", "maj:9", "--p", "0.3", "--T", "2", "--replicas", "300", "--seed", "5"],
    ["simulate", "itermaj3:2", "--T", "1.5", "--replicas", "200"],
    ["influence", "maj:7", "--p", "0.3"],
    ["influence", "perc:2,2:2"],
    ["joint", "itermaj3:2", "--t", "0.5", "--replicas", "300", "--seed", "2"],
    ["noise", "type2:6", "--epsilon", "0.2", "--replicas", "300", "--seed", "3"],
    ["recursion", "maj3-a", "--p0", "0.4", "--n", "20"],
    ["recursion", "maj3-b", "--n", "25", "--epsilon", "0.01", "--t", "0.5"],
    ["recursion", "maj3-cutoff", "--alpha", "0.5", "--n", "40"],
    ["recursion", "andor-x", "--t", "0.5", "--n", "12"],
    ["recursion", "andor-bbound", "--n", "12", "--t", "0.5"],
    ["recursion", "andor-gfloor", "--grid", "100"],
    ["perc", "build", "--target", "nalpha:1", "--levels", "6"],
    ["perc", "weights", "--profile", "2,3,2"],
    ["perc", "run", "--profile", "2,3,2", "--levels", "1,3", "--T", "2",
     "--replicas", "200", "--seed", "4"],
    ["classify", "<plan>", "--replicas", "200", "--seed", "6"],
]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def digest():
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        plan = Path(tmp) / "plan.json"
        plan.write_text(json.dumps(_PLAN))
        for leaf in _LEAVES:
            for fmt in ("--json", "--csv"):
                argv = [str(plan) if a == "<plan>" else a for a in leaf] + [fmt]
                code, out = _run(argv)
                assert code == 0, argv
                h.update(repr((leaf, fmt, code, out)).encode())
    return h.hexdigest()


def test_every_leaf_is_covered():
    commands = {tuple(leaf[:2]) if leaf[0] in ("recursion", "perc") else (leaf[0],)
                for leaf in _LEAVES}
    parser = cli._build_parser()
    sub = parser._subparsers._group_actions[0]
    want = set()
    for name, p in sub.choices.items():
        if p._subparsers is None:
            want.add((name,))
        else:
            want |= {(name, op) for op in p._subparsers._group_actions[0].choices}
    assert commands == want


def test_cli_outputs_are_frozen():
    assert digest() == FROZEN_SHA256


if __name__ == "__main__":
    print(digest())
