"""Integer quadratic integrate-and-fire (I-QIF) neuron model.

All arithmetic is plain integer arithmetic. The membrane potential is an
unsigned 8-bit value; the per-step update is a piecewise-linear drift with
3-bit fractional slopes realized as (num * x) >> 3, i.e. floor division by 8
(rounds toward -inf, matching an arithmetic right shift in hardware).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

V_MAX = 255


@dataclass(frozen=True)
class NeuronParams:
    """I-QIF parameters: slopes a = a_num/8 and b = b_num/8, plus potentials."""

    a_num: int
    b_num: int
    v_r: int
    v_t: int
    v_reset: int

    def __post_init__(self):
        if not 0 <= self.a_num <= 7:
            raise ValueError(f"a_num must be 0..7, got {self.a_num}")
        if not 0 <= self.b_num <= 7:
            raise ValueError(f"b_num must be 0..7, got {self.b_num}")
        for name in ("v_r", "v_t", "v_reset"):
            v = getattr(self, name)
            if not 0 <= v <= V_MAX:
                raise ValueError(f"{name} must be 0..{V_MAX}, got {v}")
        if self.v_r > self.v_t:
            raise ValueError(f"v_r ({self.v_r}) must not exceed v_t ({self.v_t})")


@dataclass
class NeuronState:
    """Membrane potential, kept in 0..255 after every step."""

    v_m: int = 0


def pde_threshold(params: NeuronParams) -> int:
    """Branch-switch potential (a*v_r + b*v_t) / (a + b), floored.

    With a_num = b_num = 0 both branches reduce to the input current alone,
    so the threshold choice is unobservable; v_t is returned for definiteness.
    """
    denom = params.a_num + params.b_num
    if denom == 0:
        return params.v_t
    return (params.a_num * params.v_r + params.b_num * params.v_t) // denom


def delta_vm(v_prev: int, params: NeuronParams, i_t: int) -> int:
    """Per-step membrane increment: restoring branch below the switch point,
    regenerative branch at or above it, plus the synaptic current."""
    if v_prev < pde_threshold(params):
        drift = (params.a_num * (params.v_r - v_prev)) >> 3
    else:
        drift = (params.b_num * (v_prev - params.v_t)) >> 3
    return drift + i_t


def neuron_step(
    state: NeuronState, params: NeuronParams, i_t: int
) -> tuple[NeuronState, bool]:
    """Advance one timestep; returns (new state, spiked).

    The candidate sum v_m + delta is evaluated at full width (the hardware's
    8-bit register plus overflow bit); overflow past 255 emits a spike and
    resets to v_reset, underflow clamps at 0.
    """
    s = state.v_m + delta_vm(state.v_m, params, i_t)
    if s > V_MAX:
        return NeuronState(v_m=params.v_reset), True
    if s < 0:
        return NeuronState(v_m=0), False
    return NeuronState(v_m=s), False


def drift_table(params: list[NeuronParams]) -> np.ndarray:
    """(N, 256) drift of N neurons at every membrane potential: row k,
    column v holds delta_vm(v, params[k], 0). Compiled once per network, so
    a step reads each neuron's drift instead of evaluating both branches.
    Populations share a few parameter sets, so each distinct set is
    evaluated once."""
    distinct: dict[NeuronParams, int] = {}
    rows = [distinct.setdefault(p, len(distinct)) for p in params]
    a, b, v_r, v_t, th = np.array(
        [(p.a_num, p.b_num, p.v_r, p.v_t, pde_threshold(p)) for p in distinct],
        dtype=np.int64,
    ).reshape(-1, 5).T[:, :, None]
    v = np.arange(V_MAX + 1)
    drift = np.where(v < th, (a * (v_r - v)) >> 3, (b * (v - v_t)) >> 3)
    return drift.astype(np.int16)[rows]  # |drift| <= (7 * 255) >> 3


def step_arrays(v, drift, v_reset, i_t):
    """Vectorized neuron_step over int64 arrays, with the drift read from
    `drift_table` rows; bit-identical to the scalar form element-wise. Used
    by the NPU neuron cluster. A candidate that does not spike is at most
    V_MAX already, so only underflow needs clamping."""
    s = v + drift.take(np.arange(0, drift.size, V_MAX + 1) + v)
    s += i_t
    spiked = s > V_MAX
    np.maximum(s, 0, out=s)
    np.copyto(s, v_reset, where=spiked)
    return s, spiked
