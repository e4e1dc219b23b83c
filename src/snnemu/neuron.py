"""Integer quadratic integrate-and-fire (I-QIF) neuron model.

All arithmetic is plain integer arithmetic. The membrane potential is an
unsigned 8-bit value; the per-step update is a piecewise-linear drift with
3-bit fractional slopes realized as (num * x) >> 3, i.e. floor division by 8
(rounds toward -inf, matching an arithmetic right shift in hardware).
"""

from __future__ import annotations

import functools
import itertools
import operator
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


def drift_table(params: tuple[NeuronParams, ...]) -> np.ndarray:
    """(len(params), 256) table of the membrane after drift: row k, column v
    holds v plus the drift (a_num * (v_r - v)) >> 3 below params[k]'s
    switch point `pde_threshold`, else (b_num * (v - v_t)) >> 3."""
    a, b, v_r, v_t, th = np.array(
        [(p.a_num, p.b_num, p.v_r, p.v_t, pde_threshold(p)) for p in params],
        dtype=np.int64,
    ).reshape(-1, 5).T[:, :, None]
    v = np.arange(V_MAX + 1)
    return v + np.where(v < th, (a * (v_r - v)) >> 3, (b * (v - v_t)) >> 3)


def next_membrane(s, v_reset):
    """The reset rule, the one copy of it: the membrane after the candidate
    s = v + drift(v) + i is v_reset if s spikes (s > V_MAX), else s clamped
    at 0."""
    return np.where(s > V_MAX, v_reset, np.maximum(s, 0))


@functools.lru_cache(maxsize=16)
def step_table(params: tuple[NeuronParams, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The neuron update of each parameter set as one read-only table row
    and offset (step, off). A neuron holds its candidate s as s + off[k]:
    row k, column s - lo holds the next step's drifted, offset membrane
    drift_table[k, next_membrane(s)] + off[k], for every candidate lo..hi
    that the drift table and a signed 12-bit current can form. Rows lie end
    to end, so off[k] = k * (hi - lo + 1) - lo, and a membrane v in 0..255
    is its own candidate: step.ravel()[v + off[k]] drifts it. Cached per
    tuple of distinct parameter sets."""
    vd = drift_table(params)
    lo, hi = int(vd.min()) + SAT_MIN, int(vd.max()) + SAT_MAX
    off = np.arange(len(params)) * (hi - lo + 1) - lo
    nxt = next_membrane(np.arange(lo, hi + 1), np.array([[p.v_reset] for p in params]))
    table = np.take_along_axis(vd, nxt, axis=1)
    table += off[:, None]
    table.setflags(write=False)
    off.setflags(write=False)
    return table, off


def neuron_tables(params: list[NeuronParams]):
    """The neuron update of a population as a flat table and per-neuron
    arrays (step, off, v_r, v_reset), for any 12-bit current i. Neuron k at
    membrane v carries w = step[v + off[k]]; each step its candidate is
    s = w + i, it spikes if s > V_MAX + off[k], and it carries w = step[s]
    on, while its membrane is next_membrane(s - off[k], v_reset[k]). The
    table holds one row per distinct parameter set, never one per neuron.
    A population usually shares one object per NPU, as (p,) * active, so
    it is mapped a run of one object at a time, and only the first object
    of each identity is hashed."""
    n = len(params)
    # The end of each run of one object, found by a pass in C.
    ends = [*itertools.compress(itertools.count(1), map(operator.is_not, params, params[1:])), n]
    firsts = [params[e - 1] for e in ends]
    ids = list(map(id, firsts))
    sets: dict[NeuronParams, int] = {}
    row_of = {i: sets.setdefault(p, len(sets)) for i, p in dict(zip(ids, firsts)).items()}
    step, off = step_table(tuple(sets))
    per_set = np.array([off, [p.v_r for p in sets], [p.v_reset for p in sets]], dtype=np.int64)
    cols = per_set[:, np.fromiter(map(row_of.__getitem__, ids), np.int64, len(ids))]
    cols = cols.repeat(list(map(operator.sub, ends, [0, *ends])), axis=1)
    return step.ravel(), *cols
