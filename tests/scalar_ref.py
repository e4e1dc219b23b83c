"""Scalar reference models of the neuron update, the synaptic decay and the
noise generator: one neuron, one accumulator, one draw at a time in plain
integers. The chip runs the first two as lookup tables (`neuron_tables`,
`sat_decay_table`) and draws noise a block at a time (`NoiseDraws`); the
tests check every table entry and every draw against these. Beside them is
the reference crossbar compile of one weight matrix (`compile_crossbar`),
which the chip does for both NPUs in one pass."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from snnemu.netio import LCG_INC, LCG_MULT
from snnemu.neuron import V_MAX, NeuronParams, pde_threshold
from snnemu.synapse import Crossbar, check_weights, group_cost


def compile_crossbar(weights, sparse: bool, broadcast: int | None = None) -> Crossbar:
    """The crossbar of one (sources, targets) matrix `weights`, each row
    costing its `group_cost`, plus an optional last row holding `broadcast`
    in every column at a cost of one cycle."""
    weights = check_weights(weights)
    cost = group_cost(weights, sparse)
    if broadcast is not None:
        cost = np.append(cost, 1)
        weights = np.vstack((weights, np.full((1, weights.shape[1]), broadcast)))
    return Crossbar(weights, cost)


class Lcg:
    """32-bit linear congruential generator with the documented constants,
    one draw at a time."""

    def __init__(self, seed: int):
        self.state = seed & 0xFFFFFFFF

    def next_u32(self) -> int:
        self.state = (LCG_MULT * self.state + LCG_INC) & 0xFFFFFFFF
        return self.state

    def int_range(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is acceptable and
        fully reproducible)."""
        return lo + self.next_u32() % (hi - lo + 1)


@dataclass
class NeuronState:
    """Membrane potential, kept in 0..255 after every step."""

    v_m: int = 0


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


def decay_value(y: int, decay_a: int) -> int:
    """One reciprocal-decay step: y - SEL(y >> decay_a, +/-1).

    The selector substitutes sign(y)*1 whenever the arithmetic shift truncates
    to zero, so the magnitude strictly decreases until y reaches exactly 0.
    """
    if not 0 <= decay_a <= 7:
        raise ValueError(f"decay_a must be 0..7, got {decay_a}")
    if y == 0:
        return 0
    s = y >> decay_a
    if s == 0:
        s = 1 if y > 0 else -1
    return y - s


def steps_to_fraction(y0: int, decay_a: int, fraction: float) -> int:
    """Steps of decay_value until |y| falls to fraction*|y0| or below."""
    if y0 == 0:
        return 0
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    target = fraction * abs(y0)
    y = y0
    n = 0
    while abs(y) > target:
        y = decay_value(y, decay_a)
        n += 1
    return n
