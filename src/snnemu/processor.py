"""Top controller: two NPUs (32+1 and 128+1 neurons max) compiled into one
chip, the hierarchy-population scheduling that delays NPU1 spikes by exactly
one timestep on their way to NPU2, and whole-chip analytics.

A timestep runs four phases in fixed order: external stimulus accumulation,
inter-spike accumulation (previous-step recurrent spikes plus any feedforward
stream), synaptic decay, then the neuron update. Spikes emitted at timestep t
therefore reach accumulators at t+1, never earlier. `Processor.advance` holds
the only copy of these phases, and it steps both NPUs of the chip at once.

Each NPU carries one extra neuron at the highest address: the global
excitatory/inhibitory neuron. Its fan-out is a single shared weight broadcast
to every accumulator instead of an SRAM row; the compiled crossbar holds it
as one more row that costs one cycle.

The two NPUs compute independently within a timestep, so the parallel cycle
total is the max of the two; the serial sum is reported alongside.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .neuron import V_MAX, neuron_tables, next_membrane
from .npu import (ConfigError, NpuConfig, PhaseCycles, check_chop_weights, chop_op_count,
                  dense_op_count)
from .synapse import (EXT_BOUND, MAC_BOUND, SAT_DECAY_LO, WEIGHT_MIN, Crossbar, check_weights,
                      group_cost, sat_decay_table)

DEFAULT_CLOCK_HZ = 100_000_000


def cycle_totals(cycles: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (..., 2) `total_parallel` and `total_serial` of (..., 2, 5)
    cycles, per NPU and phase: the NPUs run simultaneously, so the slower
    one bounds the timestep, and the serial total is their sum. Written
    into `out` when it is given."""
    sums = cycles.sum(axis=-1)
    if out is None:
        out = np.empty(sums.shape, dtype=sums.dtype)
    sums.max(axis=-1, out=out[..., 0])
    sums.sum(axis=-1, out=out[..., 1])
    return out


@dataclass(frozen=True)
class CycleReport:
    """Per-NPU, per-phase clock-cycle tallies for one or more timesteps."""

    npu1: PhaseCycles = PhaseCycles()
    npu2: PhaseCycles = PhaseCycles()
    timesteps: int = 0
    model: ClassVar[str] = "sequential"

    @cached_property
    def _totals(self) -> list[int]:
        """`total_parallel` and `total_serial`, by `cycle_totals`."""
        return cycle_totals(np.array((self.npu1, self.npu2))).tolist()

    @property
    def total_parallel(self) -> int:
        return self._totals[0]

    @property
    def total_serial(self) -> int:
        return self._totals[1]

    @classmethod
    def of(cls, cycles, timesteps: int = 1) -> "CycleReport":
        """The report of `cycles`, a (2, 5) int array such as one row of
        `Processor.cycles`: per NPU, its phase counts in `PhaseCycles`
        field order."""
        npu1, npu2 = np.asarray(cycles).tolist()
        return cls(PhaseCycles(*npu1), PhaseCycles(*npu2), timesteps)

    def timesteps_per_sec(self, clock_hz: int = DEFAULT_CLOCK_HZ) -> float:
        if self.total_parallel == 0:
            return float("inf")
        return clock_hz * self.timesteps / self.total_parallel


class Processor:
    """The compiled chip: NPU1's t1 neurons, then NPU2's t2.

    `weights1` is NPU1's signed (active1, t1) matrix; `weights2` is NPU2's
    (t1 + active2, t2) matrix, NPU1's neurons (global included) as its
    feedforward rows first. Every row spans its NPU's total targets, so the
    global neuron can receive ordinary synaptic weight. Both are written
    once, each NPU's global broadcast as its last row, into one block
    matrix `[[W1, W2_ff], [0, W2_rec]]` whose sources are every neuron of
    the chip, with one cost column per NPU (`group_cost`): under `gs_mode`
    "auto" a spiking row reads its nonzero 8-target groups, under "dense"
    all of them. The scheduler's one-step delay needs no buffer: NPU2's
    feedforward rows read the chip's spikes of the previous step, the same
    vector NPU1's recurrent rows read.

    `advance` is the one copy of the phase code; saturation and decay read
    a lookup table held once per distinct exponent, and the neuron update
    one held once per distinct parameter set. A step's cycles depend only
    on its inputs, so `cycles` charges a whole block of steps at once.

    The compiled arrays are read-only; the state is `v_m`, `y` and
    `last_spikes`. `fresh` gives a copy at step 0 that shares the compiled
    arrays, so one compile serves any number of runs.
    """

    def __init__(self, npu1: NpuConfig, weights1, npu2: NpuConfig, weights2, gs_mode: str):
        check_chip(npu1, weights1, npu2, weights2, gs_mode)
        self.t1 = t1 = npu1.total_neurons
        self.n = t1 + npu2.total_neurons
        exps = {a: k for k, a in enumerate(dict.fromkeys((npu1.decay_a, npu2.decay_a)))}
        sat_decay = sat_decay_table(tuple(exps))
        self._sat_decay = sat_decay.ravel()
        self._sd_off = np.empty(self.n, dtype=np.int64)
        weights = np.zeros((self.n, self.n), dtype=np.int64)
        cost = np.zeros((self.n, 2), dtype=np.int64)
        self._fixed = np.zeros((2, 5), dtype=np.int64)
        # NPU2's feedforward sources are NPU1's neurons, and its targets sit
        # after them: n_ff is both its first own row and its first column.
        # An NPU's last row is its global neuron's broadcast.
        for k, (cfg, w, n_ff) in enumerate(((npu1, weights1, 0), (npu2, weights2, t1))):
            total = cfg.total_neurons
            own = slice(n_ff, n_ff + total)
            weights[: n_ff + total - 1, own] = check_weights(w)
            weights[n_ff + total - 1, own] = cfg.global_neuron.effective_weight
            cost[: n_ff + total, k] = group_cost(weights[: n_ff + total, own], gs_mode == "auto")
            cost[n_ff + total - 1, k] = 1
            # Each neuron's offset to its NPU's row of the flat sat-decay table.
            self._sd_off[own] = exps[cfg.decay_a] * sat_decay.shape[1] - SAT_DECAY_LO
            # Per NPU: external and mac (filled per step); scan, two bits of
            # each spike stream per clock, odd lengths padded; decay and pde,
            # one shifter pass and one neuron update per neuron.
            self._fixed[k] = [0, (n_ff + 1) // 2 + (total + 1) // 2, 0, total, total]
        # A column sums at most one |weight| <= -WEIGHT_MIN per source, so
        # the exact sum is needed only when the sources could pass MAC_BOUND.
        if (-WEIGHT_MIN * self.n > MAC_BOUND
                and np.abs(weights).sum(axis=0).max() > MAC_BOUND):
            raise ValueError(f"a crossbar column's |weights| sum past MAC_BOUND ({MAC_BOUND})")
        self.crossbar = Crossbar(weights, cost)
        self._step, self._off, self._v_r, self._v_reset = neuron_tables(
            (*npu1.params, npu1.global_neuron.params, *npu2.params, npu2.global_neuron.params))
        self._thr = self._off + V_MAX
        # _sat_decay and _step view cached tables that are read-only.
        for compiled in (weights, cost, self._fixed, self._sd_off, self._off, self._thr,
                         self._v_r, self._v_reset):
            compiled.setflags(write=False)
        self._start()

    def _start(self) -> None:
        """Set the state of step 0: each neuron at its v_r, no input, no spikes."""
        self.v_m = self._v_r.copy()
        self.y = np.zeros(self.n, dtype=np.int64)  # signed 12-bit after every step
        self.last_spikes = np.zeros(self.n, dtype=np.uint8)

    def holds(self, weights1: np.ndarray, weights2: np.ndarray) -> bool:
        """Whether the crossbar above each NPU's broadcast row equals its
        int64 matrix, compared as bytes: on a small chip that costs less
        than `np.array_equal`."""
        w, t1 = self.crossbar.weights, self.t1
        return all(a.shape == b.shape and a.tobytes() == b.tobytes()
                   for a, b in ((w[: t1 - 1, :t1], weights1), (w[:-1, t1:], weights2)))

    def fresh(self) -> "Processor":
        """A copy of the chip at step 0 with its own state, sharing this
        chip's compiled crossbar and tables, which no run can write."""
        proc = copy.copy(self)
        proc._start()
        return proc

    def advance(self, ext: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance the chip k timesteps in place with `ext`, the (k, neurons)
        summed external input of each step, and `counts`, its (k, 2) event
        count per NPU; addresses were checked where the input was compiled.
        Returns the chip's (k, neurons) spikes and the (k, 2, 5) cycles.

        Each step: external input, one MAC over the sources that spiked at
        the step before, saturation and decay as one table lookup, then the
        neuron update with i_t sampled after decay, as one addition, the
        spike test and one lookup. The loop carries each neuron's drifted,
        offset membrane (`neuron_tables`), not `v_m`: a membrane in 0..255
        is its own candidate, so the table drifts `v_m` at the block's
        start, and `next_membrane` rebuilds it from the last candidate at
        the end (a block of no steps gives it back); between calls `v_m`,
        `y` and `last_spikes` are the state. The input is clipped to
        +-EXT_BOUND and offset to each neuron's sat-decay row once per
        block. The invariants (12-bit y, 0..255 v_m, the clip, column sums
        within MAC_BOUND) keep each index inside its row of the flat tables;
        `take` only raises past either end of a table. On vectors this
        short a fresh `take` result is cheaper than `take(out=)`, which
        mode="raise" buffers. The spike test writes through a bool view, which
        the MAC reads, against an array to skip a cast and a scalar conversion.
        The loop's callables are bound once per block, and it walks the rows
        of the input and of the spikes split into lists beforehand; the MAC
        stays one call of `Crossbar.mac` per step."""
        spikes = np.empty((len(ext) + 1, self.n), dtype=np.uint8)
        spikes[0] = self.last_spikes
        ext = np.clip(ext, -EXT_BOUND, EXT_BOUND)
        ext += self._sd_off
        y, s = self.y, self.v_m + self._off
        mac, sat_decay, step, thr = (self.crossbar.mac, self._sat_decay.take, self._step.take,
                                     self._thr)
        add, greater, fired = np.add, np.greater, list(spikes.view(bool))
        w = step(s)
        for row, src, dst in zip(list(ext), fired, fired[1:]):
            add(row, y, row)
            mac(src, row)
            y = sat_decay(row)
            s = add(w, y)
            greater(s, thr, dst)
            w = step(s)
        self.y[:], self.v_m[:] = y, next_membrane(s - self._off, self._v_reset)
        self.last_spikes = spikes[-1].copy()
        return spikes[1:], self.cycles(spikes[:-1], counts)

    def cycles(self, sources: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """(k, 2, 5) cycles of k steps per NPU and phase (external, scan,
        mac, decay, pde), from the (k, sources) spikes each step's MAC read
        and the (k, 2) external events each NPU took: one input-bus cycle
        per event, and each NPU's word reads of the spiking rows."""
        out = np.empty((len(sources), 2, 5), dtype=np.int64)
        out[:] = self._fixed
        out[:, :, 0] = counts
        out[:, :, 2] = self.crossbar.reads(sources)
        return out


def check_chip(npu1: NpuConfig, weights1, npu2: NpuConfig, weights2, gs_mode: str) -> None:
    """The chip's rules, the one copy of each, raising a ConfigError that
    names the field: gs_mode is auto or dense, NPU1 is the 32-neuron unit
    and NPU2 the 128-neuron one, each weight matrix has its NPU's shape
    (NPU2's feedforward rows first), and no chopped NPU's sub-population 2
    feeds its sub-population 1."""
    if gs_mode not in ("auto", "dense"):
        raise ConfigError("gs_mode", f"must be auto or dense, got {gs_mode}")
    for k, cfg, w, n_ff, size in ((1, npu1, weights1, 0, 32),
                                  (2, npu2, weights2, npu1.total_neurons, 128)):
        if cfg.max_neurons != size:
            raise ConfigError(f"npu{k}.max_neurons",
                              f"NPU{k} must be the {size}-neuron unit, got {cfg.max_neurons}")
        shape = (n_ff + cfg.active_neurons, cfg.total_neurons)
        if np.shape(w) != shape:
            raise ConfigError(f"weights.npu{k}", f"shape {np.shape(w)}, expected {shape}")
        if cfg.chop is not None:
            check_chop_weights(w, n_ff, *cfg.chop, path=f"weights.npu{k}")


def synapse_count(n1_total: int, n2_total: int) -> int:
    """Recurrent synapse budget of the full chip: each NPU is fully
    recurrently connected over its total (global neuron included)."""
    return dense_op_count(n1_total) + dense_op_count(n2_total)


def hierarchy_op_reduction(n: int, m: int) -> float:
    """Fractional reduction in synaptic operations of the uni-directional
    two-population hierarchy (n feeding m) versus one flat recurrent
    population of n + m neurons. Peaks at 0.25 when n == m."""
    if n < 0 or m < 0 or n + m == 0:
        raise ValueError("need n, m >= 0 with n + m > 0")
    return 1.0 - chop_op_count(n, m) / dense_op_count(n + m)
