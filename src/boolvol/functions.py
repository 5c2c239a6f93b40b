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

Each family is stated once, and three classes read the statements.
Counter families (dictator, parity, dap, type2, maj, bigtame) are rows of
`_COUNTERS`: an arity, a few bit slices and one output rule over the slice
sums.  `CounterInstance` applies that rule both to the slice sums of a
block of configurations (`evaluate_rows`) and to the Monte Carlo kernel's
sums (`counter_weights`, `counter_output`).  An imported truth table
(`TableInstance`) is a counter with one weighted sum, the row's index.
Tree families (itermaj3, andor, perc) are functions in `_TREES` that give,
from the spec alone, a read-once tree of threshold nodes, bottom up
(`steps`, `TreeStep`).  In `TreeInstance`, one vectorised pass over a block
of configurations (`input_counts`) gives every node's input count, and
`evaluate_rows`, `build_state` and the level-by-level Monte Carlo replay in
`dynamics` all read it.  Two generic incremental states (`build_state`,
`apply_update`) replay the same declarations bit by bit: one keeps the
counter sums, the other the tree's node counts.  Since every route shares
the declarations, the tests check them against each family's definition
written out directly (recursively for the trees).

Bit-to-vertex conventions (fixed so results are reproducible):
itermaj3 leaves are numbered left to right; andor gate bits map to
vertices in depth-first preorder (bit 0 is the root, then the whole left
subtree, then the right); perc edges are numbered breadth-first, level by
level, left to right, so the bit of the edge ending at vertex j of level
k is (number of edges above level k) + j.
"""

from __future__ import annotations

import functools
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
    `table` holds the output bits of an imported truth table.
    """

    family: str
    param: int = 0
    profile: tuple = ()
    level: int = 0
    table: tuple = ()

    # -- constructors -------------------------------------------------
    @classmethod
    def dictator(cls, m):
        return cls("dictator", int(m))

    @classmethod
    def parity(cls, m):
        return cls("parity", int(m))

    @classmethod
    def dap(cls, m):
        return cls("dap", int(m))

    @classmethod
    def type2(cls, m):
        return cls("type2", int(m))

    @classmethod
    def majority(cls, n):
        return cls("maj", int(n))

    @classmethod
    def itermaj3(cls, depth):
        return cls("itermaj3", int(depth))

    @classmethod
    def andor(cls, depth):
        return cls("andor", int(depth))

    @classmethod
    def bigtame(cls, n):
        return cls("bigtame", int(n))

    @classmethod
    def perc(cls, profile, level):
        return cls("perc", 0, tuple(int(c) for c in profile), int(level))

    @classmethod
    def truth_table(cls, bits):
        return cls("table", 0, (), 0, tuple(int(b) for b in bits))

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
        if not 0 <= bit_index < self.instance.arity:
            raise IndexOutOfRange("bit index %d outside [0, %d)" % (bit_index, self.instance.arity))
        if new_value not in (0, 1):
            raise ValueError("bit value must be 0 or 1, got %r" % (new_value,))
        return self._update(int(bit_index), int(new_value))

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
        self.arity = arity
        self.depth = depth

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


# counter families.  Each row holds a function of the family's parameter n
# giving the arity and the bit slices (lo, hi) whose sums the output reads,
# then the output rule, a function of the list of slice sums and n
_COUNTERS = {
    "dictator": (lambda n: (n, ((0, 1),)), lambda s, n: s[0]),
    "parity": (lambda n: (n, ((0, n),)), lambda s, n: s[0] & 1),
    "dap": (lambda n: (n, ((0, 1), (1, n))), lambda s, n: (s[0] == 1) & ((s[1] & 1) == 0)),
    "type2": (lambda n: (n, ((0, 1), (1, 2), (2, n))),
              lambda s, n: np.where(s[1] == 1, s[0], s[2] & 1)),
    "maj": (lambda n: (n, ((0, n),)), lambda s, n: s[0] >= (n + 1) // 2),
    "bigtame": (lambda n: (1 + n + 3**n, ((0, 1), (1, n + 1), (n + 1, 1 + n + 3**n))),
                lambda s, n: np.where(s[1] == n, s[2] & 1, s[0])),
}


class CounterInstance(FunctionInstance):
    """A family whose output is one rule over the sums of a few bit slices,
    declared in `_COUNTERS`: a block of configurations is read through its
    uint8 slice sums, the Monte Carlo kernel's sums through the same rule."""

    def __init__(self, spec):
        arity, self.slices = _COUNTERS[spec.family][0](spec.param)
        super().__init__(spec, arity)

    def _output(self, sums):
        # looked up, not stored, so that an instance holds no function and
        # pickles as before
        rule = _COUNTERS[self.spec.family][1]
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
    # the tree's bit order is heap order.  A gate is the majority of its
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
    v = [1]
    for c in spec.profile[:n]:
        v.append(v[-1] * c)
    offsets = [0, 0]  # offsets[k] = first bit of level-k edges, k >= 1
    for k in range(1, n):
        offsets.append(offsets[k] + v[k])
    arity = sum(v[1:])
    steps = [TreeStep(v[n - 1], 1, ((offsets[n], arity),))]
    for k in range(n - 1, 0, -1):
        steps += [TreeStep(v[k], 2, ((offsets[k], offsets[k] + v[k]),)),
                  TreeStep(v[k - 1], 1)]
    return arity, n, steps


# tree families: each declaration gives (arity, depth, steps) from the spec
# alone, with no per-bit array
_TREES = {"itermaj3": _itermaj3_tree, "andor": _andor_tree, "perc": _perc_tree}


def _preorder(d):
    """Preorder position of every vertex of the perfect binary tree of depth
    d, in heap order.  A left child comes right after its parent; a right
    child at level k comes 2^(d-k+1) positions after it, past the left
    child's subtree."""
    pos = np.zeros(2 ** (d + 1) - 1, dtype=np.int64)
    for k in range(1, d + 1):
        parent = pos[2 ** (k - 1) - 1:2**k - 1]
        level = pos[2**k - 1:2 ** (k + 1) - 1].reshape(-1, 2)
        level[:, 0] = parent + 1
        level[:, 1] = parent + 2 ** (d - k + 1)
    return pos


def _fan_sum(x, nodes):
    """Sums over equal consecutive runs of columns: a (rows, nodes) array."""
    return x.reshape(x.shape[0], nodes, x.shape[1] // nodes).sum(axis=2, dtype=np.int64)


class TreeInstance(FunctionInstance):
    """A read-once tree declared in `_TREES` as `steps`, bottom up, the root
    last.

    Position h of the tree's bit order holds bit `bit_order[h]` and bit b
    sits at position `bit_position[b]`; both are None, the identity, except
    on AND/OR, whose gate bits are numbered in preorder and whose steps read
    them in heap order.  Every bit feeds exactly one node.  A tree without
    steps outputs its single bit.
    """

    bit_order = bit_position = None

    def __init__(self, spec):
        arity, depth, steps = _TREES[spec.family](spec)
        super().__init__(spec, arity, depth)
        if spec.family == "andor":
            self.bit_order = _preorder(depth)
            self.bit_position = np.empty_like(self.bit_order)
            self.bit_position[self.bit_order] = np.arange(arity)
        self.steps = tuple(steps)
        # (lo, step, bits per node) of every slice, in bit order
        self._slices = np.array(sorted(
            (lo, s, (hi - lo) // st.nodes)
            for s, st in enumerate(self.steps) for lo, hi in st.slices), dtype=np.int64)

    def input_counts(self, rows):
        """Every node's count of 1-inputs for a (rows, arity) uint8 array:
        one (rows, nodes) int64 array per step, bottom up."""
        bits = rows if self.bit_order is None else rows[:, self.bit_order]
        counts, below = [], None
        for st in self.steps:
            parts = [] if below is None else [below]
            parts += [bits[:, lo:hi] for lo, hi in st.slices]
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
        pos = np.arange(self.arity) if self.bit_position is None else self.bit_position
        lo, step, fan = self._slices[np.searchsorted(self._slices[:, 0], pos, side="right") - 1].T
        return step, (pos - lo) // fan

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

def _validate(spec):
    f, p = spec.family, spec.param
    if f == "maj":
        if p < 1 or p % 2 == 0:
            raise InvalidSpec("majority size must be odd and >= 1, got %d" % p)
    elif f in ("itermaj3", "andor"):
        if p < 0:
            raise InvalidSpec("depth must be >= 0, got %d" % p)
    elif f in ("dictator", "parity"):
        if p < 1:
            raise InvalidSpec("%s needs at least 1 bit" % f)
    elif f == "dap":
        if p < 2:
            raise InvalidSpec("dap needs at least 2 bits")
    elif f == "type2":
        if p < 3:
            raise InvalidSpec("type2 needs at least 3 bits")
    elif f == "bigtame":
        if p < 1:
            raise InvalidSpec("bigtame selector width must be >= 1")
        if 1 + p + 3**p > MAX_ARITY:
            raise InstanceTooLarge("bigtame:%d arity exceeds the 2^31-1 cap" % p)
    elif f == "perc":
        if not spec.profile:
            raise InvalidSpec("perc profile must be nonempty")
        if any(c < 1 for c in spec.profile):
            raise InvalidSpec("perc child counts must be >= 1")
        if not 1 <= spec.level <= len(spec.profile):
            raise InvalidSpec("perc level %d outside 1..%d" % (spec.level, len(spec.profile)))
    elif f == "table":
        size = len(spec.table)
        if size < 2 or size & (size - 1):
            raise InvalidSpec("truth table length must be a power of two >= 2")
    else:
        raise InvalidSpec("unknown family: %r" % f)


_CLASSES = {**dict.fromkeys(_COUNTERS, CounterInstance),
            **dict.fromkeys(_TREES, TreeInstance), "table": TableInstance}


def make_instance(spec):
    """Builds the structural index for `spec`.

    Raises InvalidSpec for out-of-range parameters (even majority size,
    negative depth, empty profile) and InstanceTooLarge for an arity above
    the 2^31-1 cap.
    """
    _validate(spec)
    return _CLASSES[spec.family](spec)


def _check_rows(instance, bits):
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2 or bits.shape[1] != instance.arity:
        raise ArityMismatch("config rows must have length %d" % instance.arity)
    if bits.size and bits.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return bits


def evaluate_batch(instance, bits):
    """Evaluates many configurations at once; bits is a (rows, arity) array."""
    return instance.evaluate_rows(_check_rows(instance, bits))


def evaluate(instance, config):
    """Full from-scratch evaluation of one configuration."""
    row = np.asarray(config, dtype=np.uint8)
    if row.ndim != 1 or row.shape[0] != instance.arity:
        raise ArityMismatch("config must have length %d" % instance.arity)
    return int(instance.evaluate_rows(_check_rows(instance, row[None, :]))[0])


def build_state(instance, config):
    """Creates an EvaluationState whose cached output equals evaluate()."""
    arr = np.asarray(config)
    if arr.ndim != 1 or arr.shape[0] != instance.arity:
        raise ArityMismatch("config must have length %d" % instance.arity)
    lst = [int(b) for b in arr]
    if any(b not in (0, 1) for b in lst):
        raise ValueError("bits must be 0 or 1")
    return instance.build_state(lst)


def apply_update(state, bit_index, new_value):
    """Single-bit update with incremental recomputation; see EvaluationState."""
    return state.apply_update(bit_index, new_value)
