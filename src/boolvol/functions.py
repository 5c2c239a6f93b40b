"""Boolean function families with full and O(depth) incremental evaluation.

Families
--------
dictator:m   output of the first bit, m bits total
parity:m     mod-2 sum of all bits
dap:m        1 iff bit 1 is 1 and the mod-2 sum of bits 2..m is 0
type2:m      bit 1 if bit 2 is 1, else the mod-2 sum of bits 3..m
maj:n        1 iff at least (n+1)/2 of the n bits are 1 (n odd)
itermaj3:d   majority-of-three iterated on a ternary tree of depth d;
             the 3^d leaves are the input bits
andor:d      perfect binary tree of depth d whose 2^(d+1)-1 vertices each
             carry a gate bit (1 = OR, 0 = AND); every leaf receives one
             0 in-signal and one 1 in-signal, so a leaf outputs its own
             gate bit; internal gates combine their children
bigtame:n    1+n+3^n bits; outputs bit 1 unless bits 2..n+1 are all 1,
             in which case it outputs the mod-2 sum of the last 3^n bits
perc:...:n   spherically symmetric tree with a fixed child count per
             level; each bit is an edge (open/closed) and the output is 1
             iff an open path joins the root to level n

Each family is one row, stated once, and three classes read the rows.  A
row starts with the family's least integer parameter; `_validate` adds the
four rules no row holds (maj is odd, perc's profile and level, a table's
length and entries, the arity cap).
Counter families (dictator, parity, dap, type2, maj, bigtame) are rows of
`_COUNTERS`: an arity, a few bit slices and one output rule over the slice
sums.  `CounterInstance` applies that rule both to the slice sums of a
block of configurations (`evaluate_rows`) and to the Monte Carlo kernel's
sums (`counter_weights`, `counter_output`).  An imported truth table
(`TableInstance`) is a counter with one weighted sum, the row's index.
Tree families (itermaj3, andor, perc) are rows of `_TREES` whose function
gives, from the spec alone, a read-once tree of threshold nodes, bottom up
(`steps`, `TreeStep`).  In `TreeInstance`, one vectorised pass over a block
of configurations (`input_counts`) gives every node's input count, and
`evaluate_rows`, `build_state` and the level-by-level Monte Carlo replay in
`dynamics` all read it.  Two generic incremental states (`build_state`,
`apply_update`) replay the same declarations bit by bit: one keeps the
counter sums, the other the tree's node counts.  Since every route shares
the declarations, the tests check them against each family's definition
written out directly (recursively for the trees).

Bit-to-vertex conventions (fixed so results are reproducible): every
tree numbers its bits breadth-first, level by level, left to right.
itermaj3 leaves are numbered left to right; andor gate bits are in heap
order (bit 0 is the root and gate h has children 2h+1 and 2h+2, so the
leftmost level-k gate is bit 2^k - 1); perc edges are numbered level by
level, so the bit of the edge ending at vertex j of level k is (number of
edges above level k) + j (`_edge_offsets`).  A bit, like a table entry,
is a bool or an integer equal to 0 or 1 (`_bits`); anything else, a float
or a string included, raises ValueError.
"""

from __future__ import annotations

import functools
import numbers
import os
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ArityMismatch, IndexOutOfRange, InstanceTooLarge, InvalidSpec

MAX_ARITY = 2**31 - 1

_INLINE_PROFILE = re.compile(r"^\d+(,\d+)*$")


@dataclass(frozen=True)
class FunctionSpec:
    """Declarative description of one function-family instance.

    `param` is the family's integer parameter (bit count, majority size,
    tree depth, or selector width); `profile`/`level` apply to perc only;
    `table` holds the output bits of an imported truth table.  Nothing is
    coerced: `make_instance` checks every field.
    """

    family: str
    param: int = 0
    profile: tuple = ()
    level: int = 0
    table: tuple = ()

    @classmethod
    def perc(cls, profile, level):
        return cls("perc", 0, tuple(profile), level)

    @classmethod
    def truth_table(cls, bits):
        return cls("table", 0, (), 0, tuple(bits))

    def spec_string(self):
        """Canonical textual form, e.g. 'maj:9' or 'perc:2,16,7:3'."""
        if self.family == "perc":
            return "perc:%s:%d" % (",".join(str(c) for c in self.profile), self.level)
        if self.family == "table":
            return "table:<%d bits>" % len(self.table)
        return "%s:%d" % (self.family, self.param)


def parse_spec(text):
    """Parses the canonical textual form of a FunctionSpec.

    `perc:<profile>:<level>` accepts either an inline comma-separated
    child-count list or a path to a file with one integer per line.
    `table:<path>` reads a file of '0'/'1' characters (most significant
    bit first: the output for bits (b_0..b_{m-1}) sits at index
    sum b_i 2^(m-1-i)).
    """
    parts = text.strip().split(":")
    family = parts[0]
    if family == "perc":
        if len(parts) != 3:
            raise InvalidSpec("perc spec must be perc:<profile>:<level>: %r" % text)
        raw, level = parts[1], parts[2]
        profile = parse_profile(raw)
        try:
            return FunctionSpec.perc(profile, int(level))
        except ValueError:
            raise InvalidSpec("bad perc level: %r" % level) from None
    if family == "table":
        if len(parts) != 2 or not os.path.isfile(parts[1]):
            raise InvalidSpec("table spec must be table:<file>: %r" % text)
        with open(parts[1]) as fh:
            chars = "".join(fh.read().split())
        if not chars or set(chars) - {"0", "1"}:
            raise InvalidSpec("truth-table file must contain only 0/1 characters")
        return FunctionSpec.truth_table([int(c) for c in chars])
    if len(parts) != 2:
        raise InvalidSpec("spec must be <family>:<param>: %r" % text)
    if family not in _COUNTERS and family not in _TREES:
        raise InvalidSpec("unknown family: %r" % family)
    try:
        param = int(parts[1])
    except ValueError:
        raise InvalidSpec("bad parameter in spec: %r" % text) from None
    return FunctionSpec(family, param)


def parse_profile(text):
    """Child counts from an inline comma-separated list or a profile file."""
    if _INLINE_PROFILE.match(text):
        return tuple(int(c) for c in text.split(","))
    if os.path.isfile(text):
        return read_profile_file(text)
    raise InvalidSpec("profile is neither an inline list nor a file: %r" % text)


def read_profile_file(path):
    """Reads a level profile: one child count per line."""
    profile = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    profile.append(int(line))
                except ValueError:
                    raise InvalidSpec("bad child count in %s: %r" % (path, line)) from None
    return tuple(profile)


# ---------------------------------------------------------------------------
# evaluation states
# ---------------------------------------------------------------------------

class EvaluationState:
    """Mutable per-instance cache for single-bit updates.

    `config` always mirrors the current bits, `output` the cached output,
    and `recompute_count` the cumulative number of vertices recomputed.
    Two generic states replay every family from its declaration: a counter
    state keeps the `counter_weights` sums (one recompute per update), a
    tree state keeps each `TreeStep` node's input count and walks up while
    node outputs flip.  A walk counts its entry node and every step it
    climbs into whose node gathers more than one node of the step below,
    so an update costs at most depth+1.  Subclasses set `output` in
    `__init__` and return the new output from `_propagate(i, delta)`.
    """

    __slots__ = ("instance", "config", "output", "recompute_count")

    def __init__(self, instance, config):
        self.instance = instance
        self.config = config
        self.recompute_count = 0

    def apply_update(self, bit_index, new_value):
        """Sets one bit and incrementally refreshes the cached output.

        Returns (output_after, output_changed).
        """
        if not (_integer(bit_index, 0) and bit_index < self.instance.arity):
            raise IndexOutOfRange("bit index %r outside [0, %d)" % (bit_index, self.instance.arity))
        return self._update(int(bit_index), _bits(new_value).item())

    def _update(self, i, v):
        old = self.config[i]
        if v == old:
            return self.output, False
        self.config[i] = v
        out = self._propagate(i, v - old)
        changed = out != self.output
        self.output = out
        return out, changed


class _CounterState(EvaluationState):
    # sums = config @ counter_weights; an update adds or subtracts row i
    __slots__ = ("weights", "sums")

    def __init__(self, instance, config):
        super().__init__(instance, config)
        self.weights = instance.counter_weights()
        self.sums = np.array(config, dtype=np.int64) @ self.weights
        self.output = self._counter_output()

    def _counter_output(self):
        return int(self.instance.counter_output(self.sums[None, :])[0])

    def _propagate(self, i, delta):
        self.recompute_count += 1
        self.sums += delta * self.weights[i]
        return self._counter_output()


class _TreeState(EvaluationState):
    # counts[s][j] = input count of node j of step s; bit i feeds node
    # node[i] of step step[i].  A tree without steps outputs its one bit.
    __slots__ = ("counts", "step", "node")

    def __init__(self, instance, config):
        super().__init__(instance, config)
        self.output = config[0]
        if instance.steps:
            rows = np.array([config], dtype=np.uint8)
            self.counts = [c[0].tolist() for c in instance.input_counts(rows)]
            step, node = instance.bit_inputs(np.arange(instance.arity))
            self.step, self.node = step.tolist(), node.tolist()
            self.output = self._root_output()

    def _root_output(self):
        return int(self.counts[-1][0] >= self.instance.steps[-1].threshold)

    def _propagate(self, i, delta):
        self.recompute_count += 1
        steps = self.instance.steps
        if not steps:
            return self.config[0]
        s, j = self.step[i], self.node[i]
        while True:
            counts, threshold = self.counts[s], steps[s].threshold
            was = counts[j] >= threshold
            counts[j] += delta
            if (counts[j] >= threshold) == was or s + 1 == len(steps):
                return self._root_output()
            delta = -1 if was else 1
            fan = steps[s].nodes // steps[s + 1].nodes
            s, j = s + 1, j // fan
            if fan > 1:
                self.recompute_count += 1


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

class FunctionInstance:
    """Immutable structural index for one family instance.

    Instances are safely shareable across threads/processes; all mutable
    evaluation state lives in EvaluationState objects.  Three classes read
    the family declarations: `CounterInstance`, `TreeInstance` and
    `TableInstance`.  Each defines `build_state` and `evaluate_rows` itself,
    because perfbench's tracer wraps them class by class.
    """

    def __init__(self, spec, arity, depth=0):
        if arity > MAX_ARITY:
            raise InstanceTooLarge("arity %d exceeds the 2^31-1 cap" % arity)
        self.spec = spec
        self.arity = int(arity)  # a numpy parameter gives a numpy arity
        self.depth = int(depth)

    def counter_weights(self):
        """(arity, k) int64 weights when the output is a function of the k
        weighted bit sums config @ weights (see counter_output), else None."""
        return None


def _ones(bits):
    """Exact row sums of a 0/1 uint8 block: in uint8 below 256 columns,
    where no sum can wrap, else in int64.  A single column is its own sum,
    returned as a view: a reduction over one column costs as much as the
    rest of a counter rule."""
    if bits.shape[1] == 1:
        return bits[:, 0]
    return bits.sum(axis=1, dtype=np.uint8 if bits.shape[1] < 256 else np.int64)


# counter families.  Each row holds the least integer parameter n, then a
# function of n giving the arity and the bit slices (lo, hi) whose sums the
# output reads, then the output rule, a function of the list of slice sums and n
_COUNTERS = {
    "dictator": (1, lambda n: (n, ((0, 1),)), lambda s, n: s[0]),
    "parity": (1, lambda n: (n, ((0, n),)), lambda s, n: s[0] & 1),
    "dap": (2, lambda n: (n, ((0, 1), (1, n))), lambda s, n: (s[0] == 1) & ((s[1] & 1) == 0)),
    "type2": (3, lambda n: (n, ((0, 1), (1, 2), (2, n))),
              lambda s, n: np.where(s[1] == 1, s[0], s[2] & 1)),
    "maj": (1, lambda n: (n, ((0, n),)), lambda s, n: s[0] >= (n + 1) // 2),
    "bigtame": (1, lambda n: (1 + n + 3**n, ((0, 1), (1, n + 1), (n + 1, 1 + n + 3**n))),
                lambda s, n: np.where(s[1] == n, s[2] & 1, s[0])),
}


class CounterInstance(FunctionInstance):
    """A family whose output is one rule over the sums of a few bit slices,
    declared in `_COUNTERS`: a block of configurations is read through its
    uint8 slice sums, the Monte Carlo kernel's sums through the same rule."""

    def __init__(self, spec):
        arity, self.slices = _COUNTERS[spec.family][1](spec.param)
        super().__init__(spec, arity)

    def _output(self, sums):
        # looked up, not stored, so that an instance holds no function and
        # pickles as before
        rule = _COUNTERS[self.spec.family][2]
        return rule(sums, self.spec.param).astype(np.uint8)

    def evaluate_rows(self, bits):
        return self._output([_ones(bits[:, lo:hi]) for lo, hi in self.slices])

    def counter_weights(self):
        w = np.zeros((self.arity, len(self.slices)), dtype=np.int64)
        for j, (lo, hi) in enumerate(self.slices):
            w[lo:hi, j] = 1
        return w

    def counter_output(self, sums):
        return self._output(list(sums.T))

    def build_state(self, config):
        return _CounterState(self, config)


class TreeStep(NamedTuple):
    """One bottom-up step of a read-once tree of threshold nodes.

    The step has `nodes` nodes per configuration; a node is 1 iff at least
    `threshold` of its inputs are 1.  A node's inputs are its share of the
    step below's outputs (all of them, in equal consecutive runs; none for
    the first step) and of each slice (lo, hi) of the tree's bit order.
    """

    nodes: int
    threshold: int
    slices: tuple = ()


def _itermaj3_tree(spec):
    # step s holds the nodes at height s + 1; the leaves feed the first
    d = spec.param
    return 3**d, d, [TreeStep(3 ** (d - 1 - s), 2, ((0, 3**d),) if s == 0 else ())
                     for s in range(d)]


def _andor_tree(spec):
    # gate bits are in heap order.  A gate is the majority of its
    # left input, its right input and its gate bit (OR when the gate bit
    # is 1, AND when it is 0); step s holds the gates at height s + 1, and
    # a leaf outputs its own gate bit, so the leaves feed the first step
    d = spec.param
    n_nodes = 2 ** (d + 1) - 1
    steps = []
    for s in range(d):
        k = d - 1 - s
        gates = (2**k - 1, 2 ** (k + 1) - 1)
        steps.append(TreeStep(2**k, 2, ((2**d - 1, n_nodes), gates) if s == 0 else (gates,)))
    return n_nodes, d, steps


def _perc_tree(spec):
    # bottom up, level k = n..1 of vertices: the vertices of level k - 1
    # are connected iff one of their children is alive (threshold 1), and a
    # vertex of level k < n is alive iff its edge is open and it is itself
    # connected (threshold 2); the bottom vertices are connected, so their
    # edges feed the first step directly
    n = spec.level
    offsets = _edge_offsets(spec.profile[:n])
    v = [1] + [b - a for a, b in zip(offsets[1:], offsets[2:])]  # level sizes
    steps = [TreeStep(v[n - 1], 1, ((offsets[n], offsets[n + 1]),))]
    for k in range(n - 1, 0, -1):
        steps += [TreeStep(v[k], 2, ((offsets[k], offsets[k + 1]),)),
                  TreeStep(v[k - 1], 1)]
    return offsets[n + 1], n, steps


def _edge_offsets(children):
    """offsets[k] = id of the first level-k edge in breadth-first order, for
    k = 1..n + 1 of a tree of n = len(children) levels, so offsets[n + 1] is
    its edge count; offsets[0] = 0.  `perctree` keys its edges by these ids."""
    offsets, v = [0, 0], 1
    for c in children:
        v *= int(c)  # exact, for numpy child counts too
        offsets.append(offsets[-1] + v)
    return offsets


# tree families.  Each row holds the least integer parameter, then a function
# giving (arity, depth, steps) from the spec alone, with no per-bit array
_TREES = {"itermaj3": (0, _itermaj3_tree), "andor": (0, _andor_tree), "perc": (0, _perc_tree)}


def _fan_sum(x, nodes):
    """Sums over equal consecutive runs of columns: a (rows, nodes) array."""
    return x.reshape(x.shape[0], nodes, x.shape[1] // nodes).sum(axis=2, dtype=np.int64)


class TreeInstance(FunctionInstance):
    """A read-once tree declared in `_TREES` as `steps`, bottom up, the root
    last.

    The steps' slices read the bits by id, breadth-first, so an instance
    holds no per-bit array until `bit_inputs` is first called.  Every bit
    feeds exactly one node.  A tree without steps outputs its single bit.
    """

    def __init__(self, spec):
        arity, depth, steps = _TREES[spec.family][1](spec)
        super().__init__(spec, arity, depth)
        self.steps = tuple(steps)
        # (lo, step, bits per node) of every slice, in bit order
        self._slices = np.array(sorted(
            (lo, s, (hi - lo) // st.nodes)
            for s, st in enumerate(self.steps) for lo, hi in st.slices), dtype=np.int64)

    def input_counts(self, rows):
        """Every node's count of 1-inputs for a (rows, arity) uint8 array:
        one (rows, nodes) int64 array per step, bottom up."""
        counts, below = [], None
        for st in self.steps:
            parts = [] if below is None else [below]
            parts += [rows[:, lo:hi] for lo, hi in st.slices]
            c = _fan_sum(parts[0], st.nodes)
            for x in parts[1:]:
                c += _fan_sum(x, st.nodes)
            counts.append(c)
            below = c >= st.threshold
        return counts

    def evaluate_rows(self, bits):
        if not self.steps:
            return bits[:, 0].copy()
        return (self.input_counts(bits)[-1][:, 0] >= self.steps[-1].threshold).astype(np.uint8)

    @functools.cached_property
    def _bit_inputs(self):
        # (step, node) of every bit, found once per instance
        bits = np.arange(self.arity)
        lo, step, fan = self._slices[np.searchsorted(self._slices[:, 0], bits, side="right") - 1].T
        return step, (bits - lo) // fan

    def bit_inputs(self, bits):
        """(step, node) fed by each bit of an int64 array."""
        step, node = self._bit_inputs
        return step[bits], node[bits]

    def build_state(self, config):
        return _TreeState(self, config)


class TableInstance(FunctionInstance):
    def __init__(self, spec):
        size = len(spec.table)
        m = size.bit_length() - 1
        super().__init__(spec, m)
        self._table_arr = np.array(spec.table, dtype=np.uint8)
        self._weight_arr = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)

    def evaluate_rows(self, bits):
        idx = bits.astype(np.int64) @ self._weight_arr
        return self._table_arr[idx]

    def counter_weights(self):
        return self._weight_arr[:, None]

    def counter_output(self, sums):
        return self._table_arr[sums[:, 0]]

    def build_state(self, config):
        return _CounterState(self, config)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def _integer(value, low):
    """True iff `value` is an integer >= `low`; a bool is not an integer."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= low


def check_profile(children):
    """perc child counts, root downward, as a tuple of ints; InvalidSpec
    unless they are a nonempty sequence of integers >= 1."""
    children = tuple(children)
    if not children or not all(_integer(c, 1) for c in children):
        raise InvalidSpec("a profile must be one or more integers >= 1, got %r" % (children,))
    return tuple(int(c) for c in children)


def _bits(values, what="bits", error=ValueError):
    """`values` as a uint8 array, or `error` unless every entry is a bool or
    an integer equal to 0 or 1."""
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() > 1):
        raise error("%s must be 0 or 1" % what)
    return arr.astype(np.uint8, copy=False)


def _validate(spec):
    # the parameter against its row's least value, then the other four rules
    f, p = spec.family, spec.param
    if f != "table":
        if not isinstance(f, str) or f not in _CLASSES:
            raise InvalidSpec("unknown family: %r" % (f,))
        least = (_COUNTERS.get(f) or _TREES[f])[0]
        if not _integer(p, least):
            raise InvalidSpec("%s parameter must be an integer >= %d, got %r" % (f, least, p))
    if f == "maj" and p % 2 == 0:
        raise InvalidSpec("majority size must be odd, got %d" % p)
    if f == "perc":
        profile = check_profile(spec.profile)
        if not _integer(spec.level, 1) or spec.level > len(profile):
            raise InvalidSpec("perc level %r outside 1..%d" % (spec.level, len(profile)))
    if f == "table":
        table = _bits(spec.table, "table entries", InvalidSpec)
        if table.ndim != 1 or table.size < 2 or table.size & (table.size - 1):
            raise InvalidSpec("a truth table must be a flat list of 2^m >= 2 entries")
    # these arities exceed 2^p, so a p of the cap's bit length or more is
    # refused before 3^p or 2^(p+1) is formed; FunctionInstance checks the rest
    if f in ("itermaj3", "andor", "bigtame") and p >= MAX_ARITY.bit_length():
        raise InstanceTooLarge("%s:%d arity exceeds the 2^31-1 cap" % (f, p))


_CLASSES = {**dict.fromkeys(_COUNTERS, CounterInstance),
            **dict.fromkeys(_TREES, TreeInstance), "table": TableInstance}


def make_instance(spec):
    """Builds the structural index for `spec`.

    Raises InvalidSpec for a non-integer or out-of-range field (a float
    size, even majority size, empty profile, table entry 2) and
    InstanceTooLarge for an arity above the 2^31-1 cap.
    """
    _validate(spec)
    return _CLASSES[spec.family](spec)


def _config(instance, config, ndim):
    arr = _bits(config)
    if arr.ndim != ndim or arr.shape[-1] != instance.arity:
        raise ArityMismatch("config rows must have length %d" % instance.arity)
    return arr


def evaluate_batch(instance, bits):
    """Evaluates many configurations at once; bits is a (rows, arity) array."""
    return instance.evaluate_rows(_config(instance, bits, 2))


def evaluate(instance, config):
    """Full from-scratch evaluation of one configuration."""
    return int(instance.evaluate_rows(_config(instance, config, 1)[None, :])[0])


def build_state(instance, config):
    """Creates an EvaluationState whose cached output equals evaluate()."""
    return instance.build_state(_config(instance, config, 1).tolist())


def apply_update(state, bit_index, new_value):
    """Single-bit update with incremental recomputation; see EvaluationState."""
    return state.apply_update(bit_index, new_value)
