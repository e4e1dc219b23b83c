"""Top controller: two NPUs (32+1 and 128+1 neurons max) stepped as one
datapath, the hierarchy-population scheduling that delays NPU1 spikes by
exactly one timestep on their way to NPU2, and whole-chip analytics.

The two NPUs compute independently within a timestep, so the parallel cycle
total is the max of the two; the serial sum is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .npu import NO_EVENTS, Datapath, Npu, NpuState, PhaseCycles

DEFAULT_CLOCK_HZ = 100_000_000


@dataclass
class CycleReport:
    """Per-NPU, per-phase clock-cycle tallies for one or more timesteps."""

    npu1: PhaseCycles = field(default_factory=PhaseCycles)
    npu2: PhaseCycles = field(default_factory=PhaseCycles)
    timesteps: int = 0
    model: str = "sequential"

    @property
    def total_parallel(self) -> int:
        """NPUs run simultaneously; the slower one bounds the timestep."""
        return max(self.npu1.total, self.npu2.total)

    @property
    def total_serial(self) -> int:
        return self.npu1.total + self.npu2.total

    @classmethod
    def of(cls, phases, timesteps: int = 1) -> "CycleReport":
        """The report of `phases`: per NPU, its five phase counts in
        `PhaseCycles` field order, as one row of `Datapath.cycles` lists."""
        return cls(PhaseCycles(*phases[0]), PhaseCycles(*phases[1]), timesteps)

    def timesteps_per_sec(self, clock_hz: int = DEFAULT_CLOCK_HZ) -> float:
        if self.total_parallel == 0:
            return float("inf")
        return clock_hz * self.timesteps / self.total_parallel


class Processor:
    """Two hierarchically connected NPUs, compiled into one datapath.

    The scheduler's one-step delay needs no buffer: NPU2's feedforward rows
    sit in the same block crossbar as NPU1's recurrent rows, so both read
    the chip's spikes of the previous step.
    """

    def __init__(
        self,
        npu1: Npu,
        npu2: Npu,
        clock_hz: int = DEFAULT_CLOCK_HZ,
    ):
        if npu1.cfg.max_neurons != 32:
            raise ValueError("NPU1 must be the 32-neuron unit")
        if npu2.cfg.max_neurons != 128:
            raise ValueError("NPU2 must be the 128-neuron unit")
        if npu1.n_ff_sources != 0:
            raise ValueError("NPU1 accepts no feedforward stream")
        if npu2.n_ff_sources != npu1.cfg.total_neurons:
            raise ValueError(
                f"NPU2 expects {npu1.cfg.total_neurons} feedforward sources, "
                f"configured for {npu2.n_ff_sources}"
            )
        self.clock_hz = clock_hz
        self.datapath = Datapath(npu1, npu2)
        self.state = self.datapath.initial_state()

    @property
    def state1(self) -> NpuState:
        return self.datapath.unit_state(self.state, 0)

    @property
    def state2(self) -> NpuState:
        return self.datapath.unit_state(self.state, 1)

    @property
    def pending(self) -> np.ndarray:
        """NPU1's spikes of the last step, which NPU2's feedforward rows
        read at the next one."""
        return self.state.last_spikes[self.datapath.spans[0]]

    def timestep(
        self,
        events1: tuple[np.ndarray, np.ndarray] = NO_EVENTS,
        events2: tuple[np.ndarray, np.ndarray] = NO_EVENTS,
    ) -> tuple[np.ndarray, np.ndarray, CycleReport]:
        """Advance both NPUs one timestep, each with its (addresses, values)
        external events. Returns the fresh spike vectors of both NPUs and
        the cycle report."""
        dp = self.datapath
        ext = np.zeros(dp.n, dtype=np.int64)
        for (addrs, values), sl in zip((events1, events2), dp.spans):
            if len(addrs):
                total = sl.stop - sl.start
                bad = (addrs < 0) | (addrs >= total)
                if bad.any():
                    raise IndexError(
                        f"external event address {int(addrs[bad][0])} out of range "
                        f"(total neurons {total})"
                    )
                np.add.at(ext[sl], addrs, values)
        counts = np.array([[len(events1[0]), len(events2[0])]])
        spikes, cycles = dp.advance(self.state, ext[None], counts)
        span1, span2 = dp.spans
        return spikes[0, span1], spikes[0, span2], CycleReport.of(cycles[0].tolist())


def synapse_count(n1_total: int, n2_total: int) -> int:
    """Recurrent synapse budget of the full chip: each NPU is fully
    recurrently connected over its total (global neuron included)."""
    return n1_total * n1_total + n2_total * n2_total


def hierarchy_op_reduction(n: int, m: int) -> float:
    """Fractional reduction in synaptic operations of the uni-directional
    two-population hierarchy (n feeding m) versus one flat recurrent
    population of n + m neurons. Peaks at 0.25 when n == m."""
    if n < 0 or m < 0 or n + m == 0:
        raise ValueError("need n, m >= 0 with n + m > 0")
    flat = (n + m) ** 2
    hier = n * n + (n + m) * m
    return 1.0 - hier / flat
