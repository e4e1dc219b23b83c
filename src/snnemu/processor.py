"""Top controller: two NPUs (32+1 and 128+1 neurons max), the
hierarchy-population scheduler that delays NPU1 spikes by exactly one
timestep on their way to NPU2, and whole-chip analytics.

The two NPUs compute independently within a timestep, so the parallel cycle
total is the max of the two; the serial sum is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .npu import NO_EVENTS, Npu, PhaseCycles

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

    def merge(self, other: "CycleReport") -> None:
        self.npu1 += other.npu1
        self.npu2 += other.npu2
        self.timesteps += other.timesteps

    def timesteps_per_sec(self, clock_hz: int = DEFAULT_CLOCK_HZ) -> float:
        if self.total_parallel == 0:
            return float("inf")
        return clock_hz * self.timesteps / self.total_parallel


class Processor:
    """Two hierarchically connected NPUs plus the spike scheduler."""

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
        self.npu1 = npu1
        self.npu2 = npu2
        self.clock_hz = clock_hz
        self.state1 = npu1.initial_state()
        self.state2 = npu2.initial_state()
        # The scheduler: one timestep of NPU1 spikes awaiting NPU2.
        self.pending = np.zeros(npu1.cfg.total_neurons, dtype=np.uint8)

    def timestep(
        self,
        events1: tuple[np.ndarray, np.ndarray] = NO_EVENTS,
        events2: tuple[np.ndarray, np.ndarray] = NO_EVENTS,
    ) -> tuple[np.ndarray, np.ndarray, CycleReport]:
        """Advance both NPUs one timestep, each with its (addresses, values)
        external events. Returns the fresh spike vectors of both NPUs and
        the cycle report."""
        _, spikes1, cyc1 = self.npu1.timestep(self.state1, events1)
        _, spikes2, cyc2 = self.npu2.timestep(self.state2, events2, self.pending)
        self.pending = spikes1
        return spikes1, spikes2, CycleReport(npu1=cyc1, npu2=cyc2, timesteps=1)


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
