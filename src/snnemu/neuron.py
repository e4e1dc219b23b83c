"""Integer quadratic integrate-and-fire (I-QIF) neuron model.

All arithmetic is plain integer arithmetic. The membrane potential is an
unsigned 8-bit value; the per-step update is a piecewise-linear drift with
3-bit fractional slopes realized as (num * x) >> 3, i.e. floor division by 8
(rounds toward -inf, matching an arithmetic right shift in hardware).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .synapse import SAT_MAX, SAT_MIN

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


def pde_threshold(params: NeuronParams) -> int:
    """Branch-switch potential (a*v_r + b*v_t) / (a + b), floored.

    With a_num = b_num = 0 both branches reduce to the input current alone,
    so the threshold choice is unobservable; v_t is returned for definiteness.
    """
    denom = params.a_num + params.b_num
    if denom == 0:
        return params.v_t
    return (params.a_num * params.v_r + params.b_num * params.v_t) // denom


@functools.lru_cache(maxsize=16)
def drift_table(params: tuple[NeuronParams, ...]) -> np.ndarray:
    """(len(params), 256) read-only table of the membrane after drift: row
    k, column v holds v plus the drift (a_num * (v_r - v)) >> 3 below
    params[k]'s switch point `pde_threshold`, else (b_num * (v - v_t)) >> 3.
    Cached per tuple of distinct parameter sets; a population shares a few."""
    a, b, v_r, v_t, th = np.array(
        [(p.a_num, p.b_num, p.v_r, p.v_t, pde_threshold(p)) for p in params],
        dtype=np.int64,
    ).reshape(-1, 5).T[:, :, None]
    v = np.arange(V_MAX + 1)
    table = v + np.where(v < th, (a * (v_r - v)) >> 3, (b * (v - v_t)) >> 3)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def reset_table(v_reset: tuple[int, ...], lo: int, hi: int) -> np.ndarray:
    """(len(v_reset), hi - lo + 1) read-only table of the next membrane: row
    k, column s - lo holds v_reset[k] if the candidate s spikes (s > V_MAX),
    else s clamped at 0. Cached per tuple of distinct reset potentials and
    candidate range."""
    s = np.arange(lo, hi + 1)
    table = np.where(s > V_MAX, np.array(v_reset)[:, None], np.maximum(s, 0))
    table.setflags(write=False)
    return table


def neuron_tables(params: list[NeuronParams]):
    """The neuron update of a population as flat tables and per-neuron
    offsets (vd, vbase, reset, roff), for any 12-bit current i. Neuron k at
    membrane v has the candidate s = vd[vbase[k] + v] + i, spikes if
    s > V_MAX, and moves to reset[s + roff[k]]: v_reset on a spike, else s
    clamped at 0. The tables hold one row per distinct parameter set and
    reset potential, never one per neuron. Only the first object of each
    identity is hashed: a population usually shares one."""
    sets: dict[NeuronParams, int] = {}
    row_of = {i: sets.setdefault(p, len(sets)) for i, p in {id(p): p for p in params}.items()}
    rows = np.array([row_of[id(p)] for p in params], dtype=np.int64)
    resets = {r: k for k, r in enumerate(dict.fromkeys(p.v_reset for p in sets))}
    vd = drift_table(tuple(sets))
    lo, hi = int(vd.min()) + SAT_MIN, int(vd.max()) + SAT_MAX
    reset = reset_table(tuple(resets), lo, hi)
    roff = np.array([resets[p.v_reset] for p in sets])[rows] * (hi - lo + 1) - lo
    return vd.ravel(), rows * (V_MAX + 1), reset.ravel(), roff
