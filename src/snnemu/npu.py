"""One neuromorphic processing unit: population controller, I-QIF neuron
cluster, virtualized-crossbar accumulation, optional half-hierarchy chop, and
per-phase cycle accounting.

A timestep runs four phases in fixed order: external stimulus accumulation,
inter-spike accumulation (previous-step recurrent spikes plus any feedforward
stream), synaptic decay, then the neuron update. Spikes emitted at timestep t
therefore reach accumulators at t+1, never earlier. `Datapath.step` holds the
only copy of these phases; it steps one NPU, or both NPUs of the chip at
once.

Each NPU carries one extra neuron at the highest address: the global
excitatory/inhibitory neuron. Its fan-out is a single shared weight broadcast
to every accumulator instead of an SRAM row; the compiled crossbar holds it
as one more row that costs one cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .neuron import NeuronParams, pde_threshold, step_arrays
from .synapse import Crossbar, GroupSparseConfig, PostSynapticState, WeightMemory

# External events of one timestep for one NPU: (addresses, values).
NO_EVENTS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass
class GlobalNeuronConfig:
    params: NeuronParams
    out_weight: int = 0
    mode: str = "excitatory"

    def __post_init__(self):
        if not -8 <= self.out_weight <= 7:
            raise ValueError(f"out_weight must fit signed 4-bit, got {self.out_weight}")
        if self.mode not in ("excitatory", "inhibitory"):
            raise ValueError(f"mode must be excitatory or inhibitory, got {self.mode}")

    @property
    def effective_weight(self) -> int:
        """Broadcast weight with the sign imposed by the configured path."""
        mag = abs(self.out_weight)
        return mag if self.mode == "excitatory" else -mag


@dataclass
class NpuConfig:
    max_neurons: int
    active_neurons: int
    params: list[NeuronParams]
    global_neuron: GlobalNeuronConfig
    decay_a: int = 3
    chop: tuple[int, int] | None = None

    def __post_init__(self):
        if self.max_neurons not in (32, 128):
            raise ValueError(f"max_neurons must be 32 or 128, got {self.max_neurons}")
        if not _is_pow2(self.active_neurons) or self.active_neurons > self.max_neurons:
            raise ValueError(
                f"active_neurons must be a power of two <= {self.max_neurons}, "
                f"got {self.active_neurons}"
            )
        if len(self.params) != self.active_neurons:
            raise ValueError(
                f"need {self.active_neurons} neuron parameter sets, got {len(self.params)}"
            )
        if not 0 <= self.decay_a <= 7:
            raise ValueError(f"decay_a must be 0..7, got {self.decay_a}")
        if self.chop is not None:
            n1, n2 = self.chop
            if not (_is_pow2(n1) and _is_pow2(n2)):
                raise ValueError(f"chop sizes must be powers of two, got {self.chop}")
            if n1 + n2 > self.max_neurons:
                raise ValueError(f"chop sizes exceed max_neurons: {self.chop}")
            if n1 + n2 != self.active_neurons:
                raise ValueError("chop sizes must sum to active_neurons")

    @property
    def total_neurons(self) -> int:
        """Active neurons plus the global neuron."""
        return self.active_neurons + 1


def configure_chop(cfg: NpuConfig, n1: int, n2: int) -> NpuConfig:
    """Split the population into two uni-directional sub-populations
    (sub-population 1 feeds 2, never the reverse)."""
    if not (_is_pow2(n1) and _is_pow2(n2)):
        raise ValueError(f"chop sizes must be powers of two, got ({n1}, {n2})")
    if n1 + n2 > cfg.max_neurons:
        raise ValueError(f"chop sizes {n1}+{n2} exceed max_neurons {cfg.max_neurons}")
    new_params = cfg.params
    if n1 + n2 != cfg.active_neurons:
        if len(cfg.params) < n1 + n2:
            raise ValueError("not enough neuron parameter sets for chop sizes")
        new_params = cfg.params[: n1 + n2]
    return dataclasses.replace(
        cfg, chop=(n1, n2), active_neurons=n1 + n2, params=new_params
    )


def dense_op_count(n: int) -> int:
    """Synaptic operations per dense timestep for a flat n-neuron population."""
    return n * n

def chop_op_count(n1: int, n2: int) -> int:
    """Synaptic operations per dense timestep for a chopped (n1 -> n2) layout:
    sub1 is recurrent over n1, sub2 sees both sub-populations."""
    return n1 * n1 + (n1 + n2) * n2


def check_chop_weights(mem: WeightMemory, n_ff: int, n1: int, n2: int) -> None:
    """Reject recurrent weights flowing from sub-population 2 back to 1.

    Rows n_ff..n_ff+n1+n2-1 are the NPU's own sources; the last n2 of them
    must carry zero weight toward targets 0..n1-1.
    """
    for src in range(n1, n1 + n2):
        row = mem.row_weights(n_ff + src)
        bad = np.nonzero(row[:n1])[0]
        if bad.size:
            raise ValueError(
                f"chop violation: source {src} (sub-population 2) has weight "
                f"to target {int(bad[0])} (sub-population 1)"
            )


@dataclass
class PhaseCycles:
    """Clock cycles charged per timestep phase (sequential model)."""

    external: int = 0
    scan: int = 0
    mac: int = 0
    decay: int = 0
    pde: int = 0

    @property
    def total(self) -> int:
        return self.external + self.scan + self.mac + self.decay + self.pde

    def __iadd__(self, other: "PhaseCycles") -> "PhaseCycles":
        self.external += other.external
        self.scan += other.scan
        self.mac += other.mac
        self.decay += other.decay
        self.pde += other.pde
        return self


@dataclass
class NpuState:
    v_m: np.ndarray
    psp: PostSynapticState
    last_spikes: np.ndarray


class Datapath:
    """The compiled phase pipeline of one NPU, or of NPUs side by side.

    Targets are the neurons of every NPU, in order; sources are the rows of
    the crossbar. Each NPU is a unit with its own span of targets, its own
    cost column and its own scan charge. `step` is the one copy of the
    phase code: external events, one MAC over the spiking sources,
    saturation, decay and the neuron update.
    """

    def __init__(self, crossbar: Crossbar, cfgs: list[NpuConfig], scan: list[int]):
        self.crossbar = Crossbar(
            crossbar.weights, crossbar.cost.reshape(len(crossbar.cost), -1)
        )
        self.cfgs = cfgs
        self.scan = scan
        self._totals = totals = [cfg.total_neurons for cfg in cfgs]
        bounds = list(accumulate(totals, initial=0))
        self.spans = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        params = [p for cfg in cfgs for p in list(cfg.params) + [cfg.global_neuron.params]]
        self._a = np.array([p.a_num for p in params], dtype=np.int64)
        self._b = np.array([p.b_num for p in params], dtype=np.int64)
        self._vr = np.array([p.v_r for p in params], dtype=np.int64)
        self._vt = np.array([p.v_t for p in params], dtype=np.int64)
        self._vreset = np.array([p.v_reset for p in params], dtype=np.int64)
        self._pde_th = np.array([pde_threshold(p) for p in params], dtype=np.int64)
        self._decay_a = np.repeat([cfg.decay_a for cfg in cfgs], totals)

    @classmethod
    def chain(cls, first: "Datapath", second: "Datapath") -> "Datapath":
        """Both pipelines in one: the feedforward rows of `second` read the
        spikes of `first` that `first` reads for its own recurrence, so
        both see them one step after they fire."""
        return cls(
            Crossbar.chain(first.crossbar, second.crossbar),
            first.cfgs + second.cfgs,
            first.scan + second.scan,
        )

    def initial_state(self, v_m: int | None = None) -> NpuState:
        n = len(self._vr)
        return NpuState(
            v_m=self._vr.copy() if v_m is None else np.full(n, v_m, dtype=np.int64),
            psp=PostSynapticState.zeros(n, decay_a=self._decay_a),
            last_spikes=np.zeros(n, dtype=np.uint8),
        )

    def unit_state(self, state: NpuState, k: int) -> NpuState:
        """Views of unit k's part of `state`."""
        sl = self.spans[k]
        return NpuState(
            v_m=state.v_m[sl],
            psp=PostSynapticState(state.psp.y[sl], decay_a=self.cfgs[k].decay_a),
            last_spikes=state.last_spikes[sl],
        )

    def step(self, state: NpuState, events, sources: np.ndarray) -> list[PhaseCycles]:
        """Advance `state` one timestep in place, with one (addresses,
        values) event pair per unit and the 0/1 spikes of every crossbar
        source. The fresh spikes replace `state.last_spikes`; earlier spike
        vectors are never written to."""
        y = state.psp.y

        # Phase 1: external stimulus, one input-bus cycle per event.
        for (addrs, values), sl in zip(events, self.spans):
            if len(addrs):
                total = sl.stop - sl.start
                bad = (addrs < 0) | (addrs >= total)
                if bad.any():
                    raise IndexError(
                        f"external event address {int(addrs[bad][0])} out of range "
                        f"(total neurons {total})"
                    )
                np.add.at(y[sl], addrs, values)

        # Phase 2: one MAC over every spiking source, global broadcasts
        # included; each unit is charged its own word reads.
        mac = self.crossbar.mac(sources, y).tolist()
        state.psp.saturate()

        # Phase 3: reciprocal decay, one shifter pass per accumulator.
        state.psp.decay()

        # Phase 4: neuron update with i_t sampled after decay.
        state.v_m, spiked = step_arrays(
            state.v_m,
            self._a,
            self._b,
            self._vr,
            self._vt,
            self._vreset,
            self._pde_th,
            state.psp.y,
        )
        state.last_spikes = spiked.view(np.uint8)
        return [
            PhaseCycles(external=len(ev[0]), scan=scan, mac=m, decay=n, pde=n)
            for ev, scan, m, n in zip(events, self.scan, mac, self._totals)
        ]


class Npu:
    """Execution engine for one NPU.

    `memory` holds one row per non-global source: first `n_ff_sources`
    feedforward rows (sources in the upstream NPU, global included), then
    `active_neurons` recurrent rows. Every row spans `total_neurons` targets,
    so the global neuron can receive ordinary synaptic weight. The crossbar
    is compiled from it once, with the global broadcast as its last row.
    """

    def __init__(
        self,
        cfg: NpuConfig,
        memory: WeightMemory,
        gs: GroupSparseConfig | None = None,
        n_ff_sources: int = 0,
    ):
        total = cfg.total_neurons
        expected_rows = n_ff_sources + cfg.active_neurons
        if memory.n_rows != expected_rows:
            raise ValueError(
                f"memory has {memory.n_rows} rows, expected {expected_rows}"
            )
        if memory.n_targets != total:
            raise ValueError(
                f"memory spans {memory.n_targets} targets, expected {total}"
            )
        if cfg.chop is not None:
            check_chop_weights(memory, n_ff_sources, *cfg.chop)
        self.cfg = cfg
        self.n_ff_sources = n_ff_sources
        crossbar = Crossbar.compile(
            memory,
            gs if gs is not None else GroupSparseConfig.dense(total),
            broadcast=cfg.global_neuron.effective_weight,
        )
        # Each spike stream is scanned two bits per clock, odd lengths padded.
        scan = (n_ff_sources + 1) // 2 + (total + 1) // 2
        self.datapath = Datapath(crossbar, [cfg], [scan])

    def initial_state(self, v_m: int | None = None) -> NpuState:
        return self.datapath.initial_state(v_m)

    def timestep(
        self,
        state: NpuState,
        external: tuple[np.ndarray, np.ndarray] = NO_EVENTS,
        feedforward: np.ndarray | None = None,
    ) -> tuple[NpuState, np.ndarray, PhaseCycles]:
        """Run one timestep in place; returns (state, fresh spikes, cycles).
        `external` holds the addresses and values of this step's events."""
        got = 0 if feedforward is None else len(feedforward)
        if got != self.n_ff_sources:
            raise ValueError(
                f"feedforward stream length {got}, expected {self.n_ff_sources}"
            )
        sources = state.last_spikes
        if got:
            sources = np.concatenate((feedforward, sources))
        (cycles,) = self.datapath.step(state, [external], sources)
        return state, state.last_spikes, cycles
