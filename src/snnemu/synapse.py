"""Synaptic weight memory, the compiled crossbar, post-synaptic
accumulation and reciprocal decay.

Weights are signed 4-bit (-8..+7), packed eight to a 32-bit word with nibble 0
holding the lowest-indexed target. One word read costs one clock cycle in the
cycle model. Targets are partitioned into groups of 8, one word each; a
group-sparse read skips the words that are 0, so it sets a row's read cost
and never its weights.

Being the lowest module, it also holds the integer rule of every config
field (`int_value`, `int_array`) and the `ConfigError` it raises.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

WEIGHT_MIN = -8
WEIGHT_MAX = 7
GROUP_SIZE = 8
SAT_MAX = 2047
SAT_MIN = -2048
# The largest |MAC| of one step: every one of the chip's 33 + 129 sources
# spiking at |weight| 8 (the global broadcast can be +8).
MAC_BOUND = (33 + 129) * 8
# External input beyond +-EXT_BOUND saturates the accumulator whatever its
# 12-bit value and the MAC are, so clipping the input there is exact.
EXT_BOUND = SAT_MAX - SAT_MIN + MAC_BOUND
# The lowest accumulator plus clipped input plus MAC; `sat_decay_table`
# covers SAT_DECAY_LO..-SAT_DECAY_LO - 1.
SAT_DECAY_LO = SAT_MIN - EXT_BOUND - MAC_BOUND


def group_count(n_targets: int) -> int:
    """8-target groups (one SRAM word each) of a row of `n_targets`."""
    return max(1, -(-n_targets // GROUP_SIZE))


class ConfigError(ValueError):
    """Invalid network description; message starts with the field path."""

    def __init__(self, path: str, msg: str):
        super().__init__(f"{path}: {msg}")
        self.path, self.msg = path, msg


def show_value(value) -> str:
    """`repr(value)`, cut to 40 characters for an error message."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def int_value(value, path: str) -> int:
    """`value` as a Python int, the one integer rule of a config field: an
    int passes by its type, and a numpy integer scalar or a 0-d integer
    array is taken as its Python int. A bool, float, str, list or any other
    value raises ConfigError(path, "must be an integer, got <repr>")."""
    if type(value) is int:
        return value
    if (isinstance(value, (np.integer, np.ndarray)) and value.shape == ()
            and value.dtype.kind in "iu"):
        return int(value)
    raise ConfigError(path, f"must be an integer, got {show_value(value)}")


def int_fields(obj, names) -> None:
    """Store each field `names` of the frozen dataclass `obj` as a Python int
    by `int_value`, raising at the field's own name."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int:
            object.__setattr__(obj, name, int_value(value, name))


def int_array(values, error) -> np.ndarray:
    """`values` as an array of integers taken at their values: int64 (an
    int64 array is returned itself), or an object array of Python ints
    when one is past int64. An integer dtype decides for an array; a
    sequence is checked element by element, since numpy reads True as 1
    and 2^63 as a float; an element that is a 0-d integer array is taken
    as its integer, as `int_value` takes it. A bool, float, str or any
    other non-integer raises error("must be integers, got <its type>")."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype.kind not in "iu":
            raise error(f"must be integers, got {values.dtype}")
        wide = values.dtype == np.uint64 and values.size and values.max() > 2**63 - 1
        return values.astype(object if wide else np.int64, copy=False)
    values = np.array(values, dtype=object)
    types = set(map(type, values.flat))
    if np.ndarray in types:
        for i, x in enumerate(values.flat):
            if type(x) is np.ndarray and x.shape == () and x.dtype.kind in "iu":
                values.flat[i] = int(x)
        types = set(map(type, values.flat))
    bad = [k for k in types if issubclass(k, bool) or not issubclass(k, (int, np.integer))]
    if bad:
        raise error("must be integers, got " + next(type(x).__name__ for x in values.flat
                                                     if type(x) in bad))
    try:
        return values.astype(np.int64)
    except OverflowError:
        return values


def group_cost(weights: np.ndarray, sparse: bool) -> np.ndarray:
    """Word reads of each row of a (rows, targets) int64 weight matrix: its
    nonzero 8-target groups when `sparse` (a 4-bit weight is 0 exactly when
    its nibble is, so these are the row's nonzero SRAM words), every group
    otherwise. A weight's bool is its nonzero test, and a group's eight
    bools, zero-padded, are nonzero exactly when their uint64 view is."""
    n_rows, n_targets = weights.shape
    nonzero = np.zeros((n_rows, GROUP_SIZE * group_count(n_targets)), dtype=bool)
    nonzero[:, :n_targets] = weights
    groups = nonzero.view(np.uint64) != 0
    return groups.sum(axis=1) if sparse else np.full(n_rows, groups.shape[1])


def check_weights(matrix, error=ValueError) -> np.ndarray:
    """`matrix` as a (sources, targets) int64 array of signed 4-bit
    weights, integers taken at their values (`int_array`); a bad one
    raises error(detail)."""
    matrix = int_array(matrix, lambda detail: error("weights " + detail))
    if matrix.ndim != 2:
        raise error("weight matrix must be 2-D")
    # Two reductions pass a valid matrix; only a bad one is searched.
    if matrix.size and (matrix.min() < WEIGHT_MIN or matrix.max() > WEIGHT_MAX):
        r, c = np.argwhere((matrix < WEIGHT_MIN) | (matrix > WEIGHT_MAX))[0]
        raise error(f"weight out of range at row {r}, target {c}: {matrix[r, c]}")
    return matrix


class WeightMemory:
    """Word-addressable synaptic SRAM: one row per presynaptic source, each
    row zero-padded to a whole number of 32-bit words. It is the weight
    image's format; the chip compiles from the signed matrix."""

    def __init__(self, words: np.ndarray, n_targets: int):
        words = np.asarray(words, dtype=np.uint32)
        if words.ndim != 2:
            raise ValueError("words must be a (rows, stride) array")
        if words.shape[1] * GROUP_SIZE < n_targets:
            raise ValueError("row stride too small for target count")
        self.words = words
        self.n_targets = n_targets

    @classmethod
    def from_matrix(cls, matrix) -> "WeightMemory":
        """Pack a (sources, targets) weight matrix, one row per source."""
        matrix = check_weights(matrix)
        n_rows, n_targets = matrix.shape
        stride = group_count(n_targets)
        padded = np.zeros((n_rows, stride * GROUP_SIZE), dtype=np.int64)
        padded[:, :n_targets] = matrix
        nibbles = (padded & 0xF).astype(np.uint32).reshape(n_rows, stride, GROUP_SIZE)
        shifts = (4 * np.arange(GROUP_SIZE, dtype=np.uint32))[None, None, :]
        words = (nibbles << shifts).sum(axis=2, dtype=np.uint32)
        return cls(words, n_targets)

    def row_weights(self, source: int) -> np.ndarray:
        """Unpack one row to signed weights."""
        if not 0 <= source < len(self.words):
            raise IndexError(f"source {source} out of range (rows={len(self.words)})")
        return _signed_nibbles(self.words[source : source + 1])[0, : self.n_targets]

    def unpack(self) -> np.ndarray:
        """Full (sources, targets) signed weight matrix."""
        return _signed_nibbles(self.words)[:, : self.n_targets]


# The signed (low, high) nibbles of each byte value: 0..7 stay, 8..15 -> -8..-1.
_BYTE_NIBBLES = (((np.arange(256)[:, None] >> np.array([0, 4])) & 0xF) ^ 8) - 8


def _signed_nibbles(words: np.ndarray) -> np.ndarray:
    """(rows, stride) packed words -> (rows, 8 * stride) signed weights. The
    little-endian bytes of a word hold its nibbles 0..7 low nibble first."""
    data = np.ascontiguousarray(words, dtype="<u4").view(np.uint8)
    return _BYTE_NIBBLES.take(data, axis=0).reshape(words.shape[0], GROUP_SIZE * words.shape[1])


@dataclass(frozen=True)
class Crossbar:
    """The weights a spike can reach, compiled once from the signed weight
    matrix: one row per source, and the word reads each row costs. The
    chip's crossbar keeps one cost column per NPU."""

    weights: np.ndarray  # (sources, targets) int64
    cost: np.ndarray  # (sources,) or (sources, NPUs) int64

    def mac(self, spikes: np.ndarray, y: np.ndarray) -> None:
        """Add the row of every spiking source (a 0/1 or bool vector) into `y`,
        unsaturated: callers saturate once per timestep, so order never
        matters."""
        if len(spikes) != len(self.cost):
            raise ValueError(
                f"spike vector length {len(spikes)}, expected {len(self.cost)} sources"
            )
        rows = spikes.nonzero()[0]
        if rows.size:
            y += np.add.reduce(self.weights.take(rows, axis=0))

    def reads(self, spikes: np.ndarray) -> np.ndarray:
        """Word reads the MAC of `spikes` is charged, per cost column; a
        (steps, sources) block of spike vectors gives one row per step."""
        return spikes @ self.cost


def decay_array(y: np.ndarray, decay_a: int | np.ndarray) -> np.ndarray:
    """One reciprocal-decay step y - SEL(y >> decay_a, +/-1), with one
    exponent or one per element: the selector substitutes sign(y) when the
    shift truncates to 0, so |y| falls until y is 0. That happens only for
    0 <= y < 2**decay_a, where the selector is min(y, 1) (1, or 0 at
    y == 0); everywhere else the shift is already at least min(y, 1)."""
    y = np.asarray(y, dtype=np.int64)
    return y - np.maximum(y >> decay_a, np.minimum(y, 1))


@functools.lru_cache(maxsize=8)
def sat_decay_table(decay_a: tuple[int, ...]) -> np.ndarray:
    """(len(decay_a), -2 * SAT_DECAY_LO) read-only table of saturation and
    decay in one: row k, column x - SAT_DECAY_LO holds
    decay_array(clamp(x), decay_a[k]), where clamp is the signed 12-bit
    saturation, for every x an accumulator plus clipped external input plus
    MAC can reach. Cached per tuple of distinct exponents."""
    x = np.arange(SAT_DECAY_LO, -SAT_DECAY_LO)
    table = decay_array(np.clip(x, SAT_MIN, SAT_MAX), np.array(decay_a)[:, None])
    table.setflags(write=False)
    return table

