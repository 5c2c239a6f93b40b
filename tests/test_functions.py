import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boolvol import functions as bf
from boolvol.errors import ArityMismatch, IndexOutOfRange, InstanceTooLarge, InvalidSpec

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# instance construction and arity
# ---------------------------------------------------------------------------

def test_arities():
    assert bf.make_instance(bf.FunctionSpec("maj", 3)).arity == 3
    assert bf.make_instance(bf.FunctionSpec("itermaj3", 2)).arity == 9
    assert bf.make_instance(bf.FunctionSpec("andor", 2)).arity == 7
    assert bf.make_instance(bf.FunctionSpec("bigtame", 2)).arity == 12
    assert bf.make_instance(bf.FunctionSpec("parity", 16)).arity == 16
    assert bf.make_instance(bf.FunctionSpec("dictator", 1)).arity == 1
    assert bf.make_instance(bf.FunctionSpec("dap", 8)).arity == 8
    assert bf.make_instance(bf.FunctionSpec("type2", 8)).arity == 8
    # binary tree with 2 levels: 2 + 4 edges
    assert bf.make_instance(bf.FunctionSpec.perc((2, 2), 2)).arity == 6
    # only the first `level` levels of the profile are used
    assert bf.make_instance(bf.FunctionSpec.perc((2, 2, 2), 1)).arity == 2
    # the largest parameters under the 2^31 - 1 cap
    assert bf.make_instance(bf.FunctionSpec("andor", 30)).arity == 2**31 - 1
    assert bf.make_instance(bf.FunctionSpec("itermaj3", 19)).arity == 3**19
    assert bf.make_instance(bf.FunctionSpec("bigtame", 19)).arity == 20 + 3**19


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        bf.make_instance(bf.FunctionSpec("maj", 4))  # even
    with pytest.raises(InvalidSpec):
        bf.make_instance(bf.FunctionSpec("maj", -3))
    with pytest.raises(InvalidSpec):
        bf.make_instance(bf.FunctionSpec("itermaj3", -1))
    with pytest.raises(InvalidSpec):
        bf.make_instance(bf.FunctionSpec("andor", -2))
    with pytest.raises(InvalidSpec):
        bf.make_instance(bf.FunctionSpec.perc((), 1))  # empty profile
    with pytest.raises(InvalidSpec):
        bf.make_instance(bf.FunctionSpec.perc((2, 2), 3))  # level > profile
    with pytest.raises(InvalidSpec):
        bf.make_instance(bf.FunctionSpec.perc((2, 0), 2))  # child count < 1
    with pytest.raises(InvalidSpec):
        bf.make_instance(bf.FunctionSpec("parity", 0))
    for spec in (bf.FunctionSpec("bigtame", 20), bf.FunctionSpec("itermaj3", 20),
                 bf.FunctionSpec("andor", 31)):
        with pytest.raises(InstanceTooLarge):
            bf.make_instance(spec)  # arity above 2^31 - 1


_ROWS = {**bf._COUNTERS, **bf._TREES}


@pytest.mark.parametrize("family", sorted(_ROWS))
def test_every_row_states_its_least_parameter(family):
    least = _ROWS[family][0]

    def spec(param):
        # counters ignore the profile and level that perc reads
        return bf.FunctionSpec(family, param, (2,), 1)

    assert bf.make_instance(spec(least)).spec.param == least
    for bad in (least - 1, float(least), bool(least), str(least)):
        with pytest.raises(InvalidSpec):
            bf.make_instance(spec(bad))


@pytest.mark.parametrize("spec", [
    bf.FunctionSpec("maj", 9.5),
    bf.FunctionSpec("parity", 2.0),
    bf.FunctionSpec("perc", 0, (2, 2.5), 2),
    bf.FunctionSpec("perc", 0, (2, 2), 1.5),
    bf.FunctionSpec("itermaj3", 1.5),
    bf.FunctionSpec("maj", True),
    bf.FunctionSpec("table", 0, (), 0, (0, 2)),
    bf.FunctionSpec("table", 0, (), 0, (0, -1)),
    bf.FunctionSpec.perc((2, 2.0), 2),
    bf.FunctionSpec.perc((2, 2), 1.9),
    bf.FunctionSpec.truth_table([0, 1.0]),
], ids=repr)
def test_spec_fields_are_checked_not_coerced(spec):
    # each of these used to build (some with a non-integer arity or a
    # truncated field) or to raise a TypeError or OverflowError
    with pytest.raises(InvalidSpec):
        bf.make_instance(spec)


@pytest.mark.parametrize("spec", ["maj:3", ("maj", 3), None], ids=repr)
def test_make_instance_refuses_what_is_not_a_spec(spec):
    # spec text goes through parse_spec; make_instance used to raise
    # AttributeError reading .family off anything else
    with pytest.raises(InvalidSpec, match="not a FunctionSpec"):
        bf.make_instance(spec)


@pytest.mark.parametrize("make", [
    lambda: bf.FunctionSpec.perc(5, 1),
    lambda: bf.FunctionSpec.truth_table(1),
    lambda: bf.make_instance(bf.FunctionSpec("perc", 0, 5, 1)),
], ids=["perc", "truth_table", "perc-field"])
def test_a_sequence_field_must_be_a_sequence(make):
    # tuple(5) used to escape as a TypeError
    with pytest.raises(InvalidSpec, match="must be a sequence"):
        make()


@pytest.mark.parametrize("call,config", [
    (bf.evaluate, [0.5, 0, 1]),
    (bf.evaluate_batch, [[0.7, 1, 1]]),
    (bf.build_state, [0.5, 1, 1]),
    (bf.evaluate, ["1", "0", "1"]),
    (bf.evaluate, [-1, 0, 1]),
    (bf.evaluate, [256, 0, 1]),
    (bf.evaluate_batch, [[-1, 0, 1]]),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_bits_must_equal_0_or_1(call, config):
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        call(bf.make_instance(bf.FunctionSpec("maj", 3)), config)


def test_bits_may_be_bools_or_any_integer_type():
    inst = bf.make_instance(bf.FunctionSpec("maj", 3))
    assert bf.evaluate(inst, [True, False, True]) == 1
    assert bf.evaluate(inst, np.array([1, 0, 1], dtype=np.int64)) == 1
    assert bf.build_state(inst, [np.uint8(1), 1, 0]).output == 1


_HUGE_PARAMETERS = """
import contextlib, io, tracemalloc
from boolvol import cli
from boolvol.errors import InstanceTooLarge
from boolvol.functions import make_instance, parse_spec
for family in ("itermaj3", "bigtame", "andor"):
    assert cli.main(["influence", family + ":1000000000"]) == 3, family
try:
    make_instance(parse_spec("itermaj3:100000"))
    raise AssertionError("itermaj3:100000 accepted")
except InstanceTooLarge:
    pass
# every family at its largest parameter builds with no per-bit array
for text in ("andor:30", "itermaj3:19", "bigtame:19", "parity:2147483647",
             "perc:46340,46340:2"):
    tracemalloc.start()
    make_instance(parse_spec(text))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20, (text, peak)
# a huge depth is refused before a recursion holds one value per level
for op in (["maj3-a", "--p0", "0.5"], ["andor-x", "--t", "0.5"],
           ["andor-bbound", "--t", "0.5"], ["maj3-cutoff", "--alpha", "0.5"]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["recursion", *op, "--n", "18446744073709551616"])
    assert code == 3 and out.getvalue() == "", op
    assert "recursion budget" in err.getvalue(), err.getvalue()
# a huge arity is refused by a budget or a cap before any per-bit draw,
# whatever the horizon
for argv in (["simulate", "parity:2000000000", "--T", "1e-9", "--replicas", "1"],
             ["simulate", "andor:30", "--T", "1e-9", "--replicas", "1"],
             ["simulate", "andor:30", "--replicas", "2"],
             ["noise", "parity:2000000000", "--epsilon", "0.5", "--replicas", "1"],
             ["influence", "andor:30"]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 3 and out.getvalue() == "", argv
    assert "events per replica" in err.getvalue() or "cap" in err.getvalue(), err.getvalue()
"""


def test_huge_parameter_refused_before_its_power():
    # forming 3^d or 2^(d+1) for such a d runs for minutes; the cap refuses
    # the parameter first, and a huge arity allocates nothing per bit until
    # a budget admits a run.  The child process runs under a timeout and a
    # 2 GB address-space limit, so a regression fails instead of hanging
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _HUGE_PARAMETERS], env=env,
                          preexec_fn=limit_memory, capture_output=True, text=True,
                          timeout=20)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_spec_string_round_trip():
    for text in ["maj:9", "itermaj3:4", "andor:5", "parity:16", "dap:16",
                 "type2:16", "bigtame:2", "dictator:3", "perc:2,2,2:2"]:
        spec = bf.parse_spec(text)
        assert spec.spec_string() == text
        assert bf.parse_spec(spec.spec_string()) == spec


def test_parse_spec_profile_file(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("2\n16\n7\n")
    spec = bf.parse_spec(f"perc:{path}:3")
    assert spec.profile == (2, 16, 7)
    assert spec.level == 3


def test_parse_profile_inline_or_file(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("2\n16\n7\n")
    assert bf.parse_profile("2,16,7") == bf.parse_profile(str(path)) == (2, 16, 7)
    for bad in ["2,,7", "2;16", str(tmp_path / "missing.txt")]:
        with pytest.raises(InvalidSpec):
            bf.parse_profile(bad)


def test_parse_spec_errors():
    for bad in ["maj", "maj:x", "nosuch:3", "perc:2,2", "maj:9:9"]:
        with pytest.raises(InvalidSpec):
            bf.parse_spec(bad)


# ---------------------------------------------------------------------------
# full evaluation on pinned configurations
# ---------------------------------------------------------------------------

def test_evaluate_majority():
    inst = bf.make_instance(bf.FunctionSpec("maj", 3))
    assert bf.evaluate(inst, [1, 1, 0]) == 1
    assert bf.evaluate(inst, [1, 0, 0]) == 0
    assert bf.evaluate(inst, [0, 0, 0]) == 0


def test_evaluate_parity():
    inst = bf.make_instance(bf.FunctionSpec("parity", 4))
    assert bf.evaluate(inst, [1, 1, 0, 1]) == 1
    assert bf.evaluate(inst, [1, 1, 0, 0]) == 0


def test_evaluate_dictator():
    inst = bf.make_instance(bf.FunctionSpec("dictator", 3))
    assert bf.evaluate(inst, [1, 0, 0]) == 1
    assert bf.evaluate(inst, [0, 1, 1]) == 0


def test_evaluate_dap():
    # 1 iff first bit is 1 and the mod-2 sum of the remaining bits is 0
    inst = bf.make_instance(bf.FunctionSpec("dap", 4))
    assert bf.evaluate(inst, [1, 0, 0, 0]) == 1
    assert bf.evaluate(inst, [1, 1, 1, 0]) == 1
    assert bf.evaluate(inst, [1, 1, 0, 0]) == 0
    assert bf.evaluate(inst, [0, 0, 0, 0]) == 0


def test_evaluate_type2():
    # first bit when second bit is 1, else mod-2 sum of bits 3..m
    inst = bf.make_instance(bf.FunctionSpec("type2", 5))
    assert bf.evaluate(inst, [1, 1, 0, 0, 0]) == 1
    assert bf.evaluate(inst, [0, 1, 1, 1, 1]) == 0
    assert bf.evaluate(inst, [1, 0, 1, 0, 0]) == 1
    assert bf.evaluate(inst, [1, 0, 1, 1, 0]) == 0


def test_evaluate_bigtame():
    # first bit unless the n selector bits are all 1, then parity of the tail
    inst = bf.make_instance(bf.FunctionSpec("bigtame", 2))
    cfg = [1, 1, 0] + [0] * 9
    assert bf.evaluate(inst, cfg) == 1
    cfg = [0, 1, 1] + [1] + [0] * 8
    assert bf.evaluate(inst, cfg) == 1
    cfg = [1, 1, 1] + [1, 1] + [0] * 7
    assert bf.evaluate(inst, cfg) == 0


def test_evaluate_andor():
    # gate encoding: 1 = OR, 0 = AND; a leaf gate sees in-signals 0 and 1,
    # so a leaf outputs its own gate bit.  Bits map to vertices in heap order.
    inst = bf.make_instance(bf.FunctionSpec("andor", 1))
    # root AND, both leaves OR -> AND(1, 1) = 1
    assert bf.evaluate(inst, [0, 1, 1]) == 1
    # root AND, one leaf AND -> AND(0, 1) = 0
    assert bf.evaluate(inst, [0, 0, 1]) == 0
    # root OR, one leaf OR -> OR(1, 0) = 1
    assert bf.evaluate(inst, [1, 1, 0]) == 1
    assert bf.evaluate(inst, [1, 0, 0]) == 0
    leaf = bf.make_instance(bf.FunctionSpec("andor", 0))
    assert bf.evaluate(leaf, [1]) == 1
    assert bf.evaluate(leaf, [0]) == 0


def test_evaluate_andor_heap_order():
    # depth 2, heap order: bit 0 is the root, bits 1 and 2 its left and
    # right gates, bits 3, 4 the left gate's leaves and bits 5, 6 the
    # right's.  Read in depth-first preorder, each configuration below
    # gives the other output
    inst = bf.make_instance(bf.FunctionSpec("andor", 2))
    # root OR; left OR of leaves (AND, OR) -> 1; right AND of (AND, AND) -> 0
    assert bf.evaluate(inst, [1, 1, 0, 0, 1, 0, 0]) == 1
    # root OR; left AND of (AND, AND) -> 0; right OR of (AND, OR) -> 1
    assert bf.evaluate(inst, [1, 0, 1, 0, 0, 0, 1]) == 1
    # root OR; both gates OR, every leaf AND -> 0
    assert bf.evaluate(inst, [1, 1, 1, 0, 0, 0, 0]) == 0


def test_evaluate_perc():
    # edges indexed breadth-first: level 1 edges first, then level 2.
    inst = bf.make_instance(bf.FunctionSpec.perc((2, 2), 2))
    assert bf.evaluate(inst, [1, 0, 1, 0, 0, 0]) == 1
    assert bf.evaluate(inst, [1, 0, 0, 0, 1, 0]) == 0  # open level-2 edge not below open level-1 edge
    assert bf.evaluate(inst, [0, 1, 0, 0, 1, 0]) == 1
    assert bf.evaluate(inst, [1, 1, 0, 0, 0, 0]) == 0


def test_evaluate_arity_mismatch():
    inst = bf.make_instance(bf.FunctionSpec("maj", 3))
    with pytest.raises(ArityMismatch):
        bf.evaluate(inst, [1, 1])
    with pytest.raises(ArityMismatch):
        bf.build_state(inst, [1, 1, 0, 0])


# ---------------------------------------------------------------------------
# incremental evaluation
# ---------------------------------------------------------------------------

def test_build_state_majority5():
    inst = bf.make_instance(bf.FunctionSpec("maj", 5))
    st = bf.build_state(inst, [1, 0, 1, 0, 1])
    assert st.output == 1
    assert st.sums.tolist() == [3]


def test_build_state_itermaj3():
    inst = bf.make_instance(bf.FunctionSpec("itermaj3", 1))
    st = bf.build_state(inst, [0, 0, 1])
    assert st.output == 0


def test_build_state_perc_closed():
    inst = bf.make_instance(bf.FunctionSpec.perc((2,), 1))
    st = bf.build_state(inst, [0, 0])
    assert st.output == 0
    assert st.counts[-1][0] == 0


def test_apply_update_majority():
    inst = bf.make_instance(bf.FunctionSpec("maj", 3))
    st = bf.build_state(inst, [1, 1, 0])
    out, changed = st.apply_update(2, 1)
    assert (out, changed) == (1, False)
    st = bf.build_state(inst, [1, 1, 0])
    out, changed = st.apply_update(0, 0)
    assert (out, changed) == (0, True)


def test_apply_update_validation():
    inst = bf.make_instance(bf.FunctionSpec("maj", 3))
    st = bf.build_state(inst, [1, 1, 0])
    with pytest.raises(IndexOutOfRange):
        st.apply_update(3, 1)
    with pytest.raises(ValueError):
        st.apply_update(0, 2)


def _all_specs_small():
    return [
        bf.FunctionSpec("dictator", 5),
        bf.FunctionSpec("parity", 8),
        bf.FunctionSpec("dap", 8),
        bf.FunctionSpec("type2", 8),
        bf.FunctionSpec("maj", 9),
        bf.FunctionSpec("itermaj3", 2),
        bf.FunctionSpec("andor", 3),
        bf.FunctionSpec("bigtame", 2),
        bf.FunctionSpec.perc((2, 3, 2), 3),
        bf.FunctionSpec.perc((3, 1, 2, 5), 3),
    ]


@pytest.mark.parametrize("spec", _all_specs_small(), ids=lambda s: s.spec_string())
def test_incremental_matches_full_evaluation(spec):
    # one long random update walk per family; every intermediate cached output
    # must equal a from-scratch evaluation of the mutated configuration
    rng = np.random.default_rng(20260814)
    inst = bf.make_instance(spec)
    m = inst.arity
    n_steps = 10_000
    config = (rng.random(m) < 0.5).astype(np.uint8)
    st = bf.build_state(inst, config)
    idx = rng.integers(0, m, size=n_steps)
    vals = (rng.random(n_steps) < 0.5).astype(np.uint8)
    outs = np.empty(n_steps, dtype=np.uint8)
    configs = np.empty((n_steps, m), dtype=np.uint8)
    prev = st.output
    for j in range(n_steps):
        out, changed = st.apply_update(int(idx[j]), int(vals[j]))
        assert changed == (out != prev)
        prev = out
        config[idx[j]] = vals[j]
        outs[j] = out
        configs[j] = config
        assert list(config) == st.config
    full = bf.evaluate_batch(inst, configs)
    assert np.array_equal(full, outs)


@pytest.mark.parametrize("spec,depth", [
    (bf.FunctionSpec("itermaj3", 3), 3),
    (bf.FunctionSpec("andor", 4), 4),
    (bf.FunctionSpec.perc((2, 2, 2, 2), 4), 4),
    (bf.FunctionSpec("itermaj3", 0), 0),
    (bf.FunctionSpec("andor", 0), 0),
    (bf.FunctionSpec.perc((3, 1, 2, 5), 3), 3),
], ids=["itermaj3", "andor", "perc", "itermaj3-0", "andor-0", "perc-fan1"])
def test_update_cost_bounded_by_depth(spec, depth):
    rng = np.random.default_rng(7)
    inst = bf.make_instance(spec)
    m = inst.arity
    st = bf.build_state(inst, (rng.random(m) < 0.5).astype(np.uint8))
    for _ in range(2000):
        before = st.recompute_count
        st.apply_update(int(rng.integers(0, m)), int(rng.random() < 0.5))
        assert st.recompute_count - before <= depth + 1


def _tree_by_definition(spec, config):
    """Recursive evaluation straight from the family definitions."""
    if spec.family == "itermaj3":
        def node(level, j):  # vertex j at height `level`
            if level == 0:
                return config[j]
            return int(sum(node(level - 1, 3 * j + c) for c in range(3)) >= 2)
        return node(spec.param, 0)
    if spec.family == "andor":
        def node(h):  # gate bit h in heap order; its children are 2h+1, 2h+2
            gate = config[h]
            if 2 * h + 1 >= len(config):
                return gate
            left, right = node(2 * h + 1), node(2 * h + 2)
            return (left | right) if gate else (left & right)
        return node(0)
    children, n = spec.profile, spec.level
    offsets = [0]
    width = 1
    for c in children[:n]:
        width *= c
        offsets.append(offsets[-1] + width)

    def connected(k, j):  # vertex j of level k reaches level n
        if k == n:
            return True
        c = children[k]
        return any(config[offsets[k] + j * c + i] and connected(k + 1, j * c + i)
                   for i in range(c))
    return int(connected(0, 0))


@pytest.mark.parametrize("text", ["itermaj3:0", "itermaj3:3", "andor:0", "andor:1", "andor:4",
                                  "perc:1:1", "perc:3,1,2:3", "perc:2,3,2:2", "perc:4:1"])
def test_tree_evaluation_matches_definition(text):
    spec = bf.parse_spec(text)
    inst = bf.make_instance(spec)
    rng = np.random.default_rng(11)
    rows = (rng.random((200, inst.arity)) < 0.5).astype(np.uint8)
    want = [_tree_by_definition(spec, row.tolist()) for row in rows]
    assert bf.evaluate_batch(inst, rows).tolist() == want
    assert [bf.build_state(inst, row).output for row in rows[:20]] == want[:20]
    # a random update walk through the incremental state, checked against
    # the recursive definition after every event
    config = rows[0].tolist()
    st = bf.build_state(inst, config)
    for i, v in zip(rng.integers(0, inst.arity, size=300).tolist(),
                    (rng.random(300) < 0.5).tolist()):
        config[i] = int(v)
        out, _ = st.apply_update(i, int(v))
        assert out == _tree_by_definition(spec, config)


@pytest.mark.parametrize("text", ["itermaj3:1", "itermaj3:4", "andor:1", "andor:5",
                                  "perc:1:1", "perc:3,1,2:3", "perc:2,3,2:2"])
def test_bit_inputs_match_slice_bisection(text):
    # the per-instance table of (step, node) against the bisection over the
    # declared slices it replaces, for bits in any order and repeated
    inst = bf.make_instance(bf.parse_spec(text))
    bits = np.random.default_rng(12).integers(0, inst.arity, 500)
    lo, step, fan = inst._slices[np.searchsorted(inst._slices[:, 0], bits, side="right") - 1].T
    got = inst.bit_inputs(bits)
    assert np.array_equal(got[0], step) and np.array_equal(got[1], (bits - lo) // fan)


@pytest.mark.parametrize("text", ["maj:257", "parity:257", "dap:258", "type2:259", "bigtame:6"])
def test_bit_sums_exact_past_255_ones(text):
    # a uint8 row sum would wrap at 256 ones; every sum must stay exact
    inst = bf.make_instance(bf.parse_spec(text))
    m = inst.arity
    tail = {"maj": 0, "parity": 0, "dap": 1, "type2": 2, "bigtame": 7}[inst.spec.family]
    rows = []
    for ones in (255, 256, 257):
        for head in range(1 << tail):
            row = np.zeros(m, dtype=np.uint8)
            row[:tail] = [(head >> k) & 1 for k in range(tail)]
            row[tail:tail + ones] = 1
            rows.append(row)
    rows = np.array(rows)

    def by_definition(x):
        x = x.tolist()
        if text == "maj:257":
            return int(sum(x) >= 129)
        if text == "parity:257":
            return sum(x) % 2
        if text == "dap:258":
            return int(x[0] == 1 and sum(x[1:]) % 2 == 0)
        if text == "type2:259":
            return x[0] if x[1] == 1 else sum(x[2:]) % 2
        return sum(x[7:]) % 2 if sum(x[1:7]) == 6 else x[0]

    assert bf.evaluate_batch(inst, rows).tolist() == [by_definition(x) for x in rows]


def test_andor_complement_symmetry():
    # complementing every gate bit complements the output: f(x) = 1 - f(1-x)
    inst = bf.make_instance(bf.FunctionSpec("andor", 2))
    all_cfg = ((np.arange(128)[:, None] >> np.arange(6, -1, -1)) & 1).astype(np.uint8)
    f = bf.evaluate_batch(inst, all_cfg)
    fc = bf.evaluate_batch(inst, 1 - all_cfg)
    assert np.array_equal(f, 1 - fc)
    deep = bf.make_instance(bf.FunctionSpec("andor", 5))
    rng = np.random.default_rng(3)
    cfg = (rng.random((500, deep.arity)) < 0.5).astype(np.uint8)
    assert np.array_equal(bf.evaluate_batch(deep, cfg), 1 - bf.evaluate_batch(deep, 1 - cfg))


def test_perc_monotone_in_edges():
    # opening an edge never turns the output 1 -> 0
    inst = bf.make_instance(bf.FunctionSpec.perc((2, 3, 2), 3))
    rng = np.random.default_rng(11)
    cfg = (rng.random((200, inst.arity)) < 0.4).astype(np.uint8)
    base = bf.evaluate_batch(inst, cfg)
    for i in range(inst.arity):
        up = cfg.copy()
        up[:, i] = 1
        assert np.all(bf.evaluate_batch(inst, up) >= base)
        down = cfg.copy()
        down[:, i] = 0
        assert np.all(bf.evaluate_batch(inst, down) <= base)


def test_perc_nested_levels():
    # connection to level n implies connection to level n-1 on the same bits
    profile = (2, 2, 3)
    deep = bf.make_instance(bf.FunctionSpec.perc(profile, 3))
    shallow = bf.make_instance(bf.FunctionSpec.perc(profile, 2))
    rng = np.random.default_rng(5)
    cfg = (rng.random((500, deep.arity)) < 0.5).astype(np.uint8)
    f_deep = bf.evaluate_batch(deep, cfg)
    f_shallow = bf.evaluate_batch(shallow, cfg[:, :shallow.arity])
    assert np.all(f_deep <= f_shallow)


def test_evaluate_batch_matches_scalar():
    rng = np.random.default_rng(2)
    for spec in _all_specs_small():
        inst = bf.make_instance(spec)
        cfg = (rng.random((50, inst.arity)) < 0.5).astype(np.uint8)
        batch = bf.evaluate_batch(inst, cfg)
        scalar = [bf.evaluate(inst, row) for row in cfg]
        assert list(batch) == scalar
