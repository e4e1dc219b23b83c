"""One neuromorphic processing unit's configuration: the population size,
I-QIF neuron parameters, the global neuron, decay, the optional
half-hierarchy chop and its weight check, and per-phase cycle tallies.
`Processor` compiles two of them into the chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .neuron import NeuronParams
from .synapse import ConfigError, int_fields, int_value, show_value


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GlobalNeuronConfig:
    params: NeuronParams
    out_weight: int = 0
    mode: str = "excitatory"

    def __post_init__(self):
        int_fields(self, ("out_weight",))
        if not -8 <= self.out_weight <= 7:
            raise ValueError(f"out_weight must fit signed 4-bit, got {self.out_weight}")
        if self.mode not in ("excitatory", "inhibitory"):
            raise ValueError(f"mode must be excitatory or inhibitory, got {show_value(self.mode)}")

    @property
    def effective_weight(self) -> int:
        """Broadcast weight with the sign imposed by the configured path."""
        mag = abs(self.out_weight)
        return mag if self.mode == "excitatory" else -mag


@dataclass(frozen=True)
class NpuConfig:
    """One NPU's configuration. It cannot change once built (`params` is
    stored as a tuple, `chop` as a tuple of two Python ints, each other
    integer field as a Python int), so a compiled chip can be reused for
    the same object."""

    max_neurons: int
    active_neurons: int
    params: tuple[NeuronParams, ...]
    global_neuron: GlobalNeuronConfig
    decay_a: int = 3
    chop: tuple[int, int] | None = None

    def __post_init__(self):
        int_fields(self, ("max_neurons", "active_neurons", "decay_a"))
        if type(self.params) is not tuple:
            object.__setattr__(self, "params", tuple(self.params))
        if self.max_neurons not in (32, 128):
            raise ValueError(f"max_neurons must be 32 or 128, got {self.max_neurons}")
        if self.chop is not None:
            try:
                n1, n2 = self.chop if isinstance(self.chop, (list, tuple, np.ndarray)) else ()
                n1, n2 = int_value(n1, "chop"), int_value(n2, "chop")
            except (TypeError, ValueError):
                raise ConfigError(
                    "chop", f"must be a list of two integers, got {self.chop!r}") from None
            object.__setattr__(self, "chop", (n1, n2))
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


def dense_op_count(n: int) -> int:
    """Synaptic operations per dense timestep for a flat n-neuron population."""
    return n * n

def chop_op_count(n1: int, n2: int) -> int:
    """Synaptic operations per dense timestep for a chopped (n1 -> n2) layout:
    sub1 is recurrent over n1, sub2 sees both sub-populations."""
    return n1 * n1 + (n1 + n2) * n2


def check_chop_weights(weights: np.ndarray, n_ff: int, n1: int, n2: int,
                       path: str = "weights") -> None:
    """Reject recurrent weights flowing from sub-population 2 back to 1 with
    a ConfigError at `path`.

    Rows n_ff..n_ff+n1+n2-1 of the (sources, targets) matrix are the NPU's
    own sources; the last n2 of them must carry zero weight toward targets
    0..n1-1.
    """
    bad = np.argwhere(np.asarray(weights)[n_ff + n1 : n_ff + n1 + n2, :n1])
    if bad.size:
        src, tgt = bad[0]
        raise ConfigError(path, f"chop violation: source {n1 + src} (sub-population 2) "
                                f"has weight to target {tgt} (sub-population 1)")


class PhaseCycles(NamedTuple):
    """Clock cycles charged per timestep phase (sequential model). Its
    `_fields` are the one list of the paper's phase names."""

    external: int = 0
    scan: int = 0
    mac: int = 0
    decay: int = 0
    pde: int = 0

    @property
    def total(self) -> int:
        return sum(self)
