"""One neuromorphic processing unit: population controller, I-QIF neuron
cluster, virtualized-crossbar accumulation, optional half-hierarchy chop, and
per-phase cycle accounting.

A timestep runs four phases in fixed order: external stimulus accumulation,
inter-spike accumulation (previous-step recurrent spikes plus any feedforward
stream), synaptic decay, then the neuron update. Spikes emitted at timestep t
therefore reach accumulators at t+1, never earlier. `Datapath.advance` holds
the only copy of these phases, and it steps both NPUs of the chip at once.

Each NPU carries one extra neuron at the highest address: the global
excitatory/inhibitory neuron. Its fan-out is a single shared weight broadcast
to every accumulator instead of an SRAM row; the compiled crossbar holds it
as one more row that costs one cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .neuron import V_MAX, NeuronParams, neuron_tables
from .synapse import (
    EXT_BOUND,
    MAC_BOUND,
    SAT_DECAY_LO,
    Crossbar,
    GroupSparseConfig,
    sat_decay_table,
)

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
        if self.chop is not None:
            n1, n2 = self.chop
            if not (_is_pow2(n1) and _is_pow2(n2)):
                raise ValueError(f"chop sizes must be powers of two, got {self.chop}")
            if n1 + n2 > self.max_neurons:
                raise ValueError(f"chop sizes exceed max_neurons: {self.chop}")
            if n1 + n2 != self.active_neurons:
                raise ValueError("chop sizes must sum to active_neurons")
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

    @property
    def total_neurons(self) -> int:
        """Active neurons plus the global neuron."""
        return self.active_neurons + 1


def configure_chop(cfg: NpuConfig, n1: int, n2: int) -> NpuConfig:
    """Split the population into two uni-directional sub-populations
    (sub-population 1 feeds 2, never the reverse). `NpuConfig` checks the
    sizes."""
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


def check_chop_weights(weights: np.ndarray, n_ff: int, n1: int, n2: int) -> None:
    """Reject recurrent weights flowing from sub-population 2 back to 1.

    Rows n_ff..n_ff+n1+n2-1 of the (sources, targets) matrix are the NPU's
    own sources; the last n2 of them must carry zero weight toward targets
    0..n1-1.
    """
    bad = np.argwhere(np.asarray(weights)[n_ff + n1 : n_ff + n1 + n2, :n1])
    if bad.size:
        src, tgt = bad[0]
        raise ValueError(
            f"chop violation: source {n1 + src} (sub-population 2) has weight "
            f"to target {tgt} (sub-population 1)"
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


@dataclass
class NpuState:
    v_m: np.ndarray
    y: np.ndarray  # accumulators, signed 12-bit after every step
    last_spikes: np.ndarray


class Datapath:
    """The compiled phase pipeline of the chip: NPU1's neurons, then NPU2's.

    The crossbar is one block matrix `[[W1, W2_ff], [0, W2_rec]]` whose
    sources are every neuron of the chip, with one cost column per NPU:
    NPU2's feedforward rows read NPU1's spikes of the previous step, the
    same vector NPU1's recurrent rows read. `advance` is the one copy of
    the phase code: dense external input, one MAC over the spiking sources,
    then saturation, decay and the neuron update read from lookup tables,
    each held once per distinct exponent, parameter set or reset potential.
    The cycles a step is charged depend only on its inputs, so `cycles`
    charges a whole block of steps at once.
    """

    def __init__(self, npu1: Npu, npu2: Npu):
        t1, t2 = npu1.cfg.total_neurons, npu2.cfg.total_neurons
        weights = np.zeros((t1 + t2, t1 + t2), dtype=np.int64)
        weights[:t1, :t1] = npu1.crossbar.weights
        weights[:, t1:] = npu2.crossbar.weights
        cost = np.zeros((t1 + t2, 2), dtype=np.int64)
        cost[:t1, 0] = npu1.crossbar.cost
        cost[:, 1] = npu2.crossbar.cost
        self.crossbar = Crossbar(weights, cost)
        self.cfgs = (npu1.cfg, npu2.cfg)
        self.n = t1 + t2
        self.spans = (slice(0, t1), slice(t1, t1 + t2))
        if np.abs(weights).sum(axis=0).max() > MAC_BOUND:
            raise ValueError(f"a crossbar column's |weights| sum past MAC_BOUND ({MAC_BOUND})")
        exps = {a: k for k, a in enumerate(dict.fromkeys(cfg.decay_a for cfg in self.cfgs))}
        sat_decay = sat_decay_table(tuple(exps))
        self._sat_decay = sat_decay.ravel()
        rows = np.repeat([exps[cfg.decay_a] for cfg in self.cfgs], (t1, t2))
        self._sd_off = rows * sat_decay.shape[1] - SAT_DECAY_LO
        params = [p for cfg in self.cfgs for p in cfg.params + [cfg.global_neuron.params]]
        self._vd, self._vbase, self._reset, self._roff = neuron_tables(params)
        self._vr = np.array([p.v_r for p in params], dtype=np.int64)
        # Per NPU: external (filled per step), scan, mac (filled per step),
        # decay and pde, one shifter pass and one neuron update per neuron.
        self._fixed = np.array(
            [[0, npu.scan, 0, t, t] for npu, t in ((npu1, t1), (npu2, t2))],
            dtype=np.int64,
        )

    def initial_state(self) -> NpuState:
        return NpuState(self._vr.copy(), np.zeros(self.n, dtype=np.int64),
                        np.zeros(self.n, dtype=np.uint8))

    def unit_state(self, state: NpuState, k: int) -> NpuState:
        """Views of NPU k's part of `state` (0 for NPU1, 1 for NPU2)."""
        sl = self.spans[k]
        return NpuState(state.v_m[sl], state.y[sl], state.last_spikes[sl])

    def advance(
        self, state: NpuState, ext: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance `state` k timesteps in place with `ext`, the (k, neurons)
        summed external input of each step, and `counts`, its (k, 2) event
        count per NPU; addresses were checked where the input was compiled.
        Returns the chip's (k, neurons) spikes and the (k, 2, 5) cycles.

        Each step: external input, one MAC over the sources that spiked at
        the step before, saturation and decay as one table lookup, then the
        neuron update with i_t sampled after decay. The input is clipped to
        +-EXT_BOUND and offset to each neuron's sat-decay row once per
        block. The invariants (12-bit y, 0..255 v_m, the clip, column sums
        within MAC_BOUND) keep each index inside its row of the flat tables;
        `take` only raises past either end of a table. On vectors this
        short a fresh `take` result is cheaper than `take(out=)`, which
        mode="raise" buffers, and the spike test writes through a bool view
        against an array to skip a cast and a scalar conversion."""
        spikes = np.empty((len(ext) + 1, self.n), dtype=np.uint8)
        spikes[0] = state.last_spikes
        ext = np.clip(ext, -EXT_BOUND, EXT_BOUND)
        ext += self._sd_off
        y, v = state.y, state.v_m
        mac, sat_decay, vd, reset = self.crossbar.mac, self._sat_decay, self._vd, self._reset
        vbase, roff, v_max, fired = self._vbase, self._roff, np.full(self.n, V_MAX), spikes.view(bool)
        for t, row in enumerate(ext):
            idx = y + row
            mac(spikes[t], idx)
            y = sat_decay.take(idx)
            s = vd.take(vbase + v)
            s += y
            np.greater(s, v_max, out=fired[t + 1])
            s += roff
            v = reset.take(s)
        state.y[:], state.v_m[:] = y, v
        state.last_spikes = spikes[-1].copy()
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


class Npu:
    """The compile step of one NPU.

    `weights` is the signed (sources, targets) matrix: first `n_ff_sources`
    feedforward rows (sources in the upstream NPU, global included), then
    `active_neurons` recurrent rows. Every row spans `total_neurons` targets,
    so the global neuron can receive ordinary synaptic weight. The crossbar
    is compiled from it once, with the global broadcast as its last row;
    `Processor` joins two compiled NPUs into the chip's `Datapath`.
    """

    def __init__(
        self,
        cfg: NpuConfig,
        weights: np.ndarray,
        gs: GroupSparseConfig | None = None,
        n_ff_sources: int = 0,
    ):
        total = cfg.total_neurons
        shape = (n_ff_sources + cfg.active_neurons, total)
        if np.shape(weights) != shape:
            raise ValueError(f"weights of shape {np.shape(weights)}, expected {shape}")
        self.crossbar = Crossbar.compile(
            weights,
            gs if gs is not None else GroupSparseConfig.dense(total),
            broadcast=cfg.global_neuron.effective_weight,
        )
        if cfg.chop is not None:
            check_chop_weights(weights, n_ff_sources, *cfg.chop)
        self.cfg = cfg
        self.n_ff_sources = n_ff_sources
        # Each spike stream is scanned two bits per clock, odd lengths padded.
        self.scan = (n_ff_sources + 1) // 2 + (total + 1) // 2
