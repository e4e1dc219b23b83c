"""Unit and property tests for the integer QIF neuron."""

import dataclasses
import math
import random
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_ref import NeuronState, delta_vm, neuron_step
from snnemu.neuron import (V_MAX, NeuronParams, drift_table, neuron_tables, next_membrane,
                           pde_threshold)


def reference_step(v_m, a_num, b_num, v_r, v_t, v_reset, i_t):
    """Independent evaluator of the published update rule, written directly
    from the two-branch equation with floor semantics. Kept deliberately
    separate from the implementation under test."""
    if a_num + b_num == 0:
        th = v_t
    else:
        th = math.floor((a_num * v_r + b_num * v_t) / (a_num + b_num))
    if v_m < th:
        dv = math.floor(a_num * (v_r - v_m) / 8) + i_t
    else:
        dv = math.floor(b_num * (v_m - v_t) / 8) + i_t
    s = v_m + dv
    if s > 255:
        return v_reset, True
    if s < 0:
        return 0, False
    return s, False


params_st = st.builds(
    lambda a, b, lo, hi, rst: NeuronParams(
        a_num=a, b_num=b, v_r=min(lo, hi), v_t=max(lo, hi), v_reset=rst
    ),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 255),
    st.integers(0, 255),
    st.integers(0, 255),
)


class TestPdeThreshold:
    def test_symmetric_midpoint(self):
        p = NeuronParams(a_num=4, b_num=4, v_r=50, v_t=150, v_reset=0)
        assert pde_threshold(p) == 100

    def test_degenerate_zero_slopes(self):
        p = NeuronParams(a_num=0, b_num=0, v_r=50, v_t=150, v_reset=0)
        assert pde_threshold(p) == 150

    def test_weighted(self):
        p = NeuronParams(a_num=2, b_num=6, v_r=40, v_t=160, v_reset=0)
        assert pde_threshold(p) == 130


class TestDeltaVm:
    P = NeuronParams(a_num=2, b_num=4, v_r=50, v_t=150, v_reset=30)

    def test_resting_fixed_point(self):
        assert delta_vm(50, self.P, 0) == 0

    def test_upper_branch(self):
        # 4 * (200 - 150) = 200; 200 >> 3 = 25
        assert delta_vm(200, self.P, 0) == 25

    def test_lower_branch_floor(self):
        # threshold = (2*50 + 4*150) // 6 = 116; 2*(50-100) = -100 -> floor -13
        assert pde_threshold(self.P) == 116
        assert delta_vm(100, self.P, 0) == -13


class TestDriftTable:
    def test_every_potential_and_slope_pair(self):
        """Row k, column v of the table is v + delta_vm(v, params[k], 0), for
        every v in 0..255 and every (a_num, b_num), with the switch point
        at both ends of the range and in between; parameter sets that
        repeat, as they do across a population, share one row."""
        params = [
            NeuronParams(a_num=a, b_num=b, v_r=v_r, v_t=v_t, v_reset=0)
            for a in range(8) for b in range(8)
            for v_r, v_t in ((0, 255), (40, 160), (93, 94), (200, 200), (0, 0))
        ]
        table = drift_table(tuple(params))
        assert table.shape == (len(params), 256)
        assert table.tolist() == [[v + delta_vm(v, p, 0) for v in range(256)] for p in params]
        population = params + params[::7]
        step, off = neuron_tables(population)
        assert step.size == len(params) * (int(table.max()) - int(table.min()) + 4096)
        assert (step.take(off[:, None] + range(256)) - off[:, None]).tolist() == [
            [v + delta_vm(v, p, 0) for v in range(256)] for p in population
        ]


class TestNeuronTables:
    """The tables of the neuron update against neuron_step, for every
    signed 12-bit current -2048..2047 (post-decay currents span
    -2032..2032)."""

    # Every (a_num, b_num), the switch point at the ends of the range and in
    # between, v_reset 0 and 255, in one population, so the per-neuron
    # offsets into shared rows are exercised too.
    SWEEP = [
        NeuronParams(a_num=k // 8, b_num=k % 8, v_r=v_r, v_t=v_t, v_reset=255 * (k % 2))
        for k, (v_r, v_t) in zip(
            range(64), [(0, 255), (40, 160), (93, 94), (200, 200), (0, 0)] * 13
        )
    ]

    @staticmethod
    def step_all(params, currents):
        """(next membrane, spiked, carried) of the tables for neuron k at v
        with current currents[k][v][j], as nested lists of that shape: the
        membrane is next_membrane of the candidate, and carried is the
        drifted membrane the step table hands to the next step, less its
        offset."""
        step, off = neuron_tables(params)
        off = off[:, None, None]
        s = step.take(off + np.arange(256)[:, None]) + np.array(currents)
        v_reset = np.array([p.v_reset for p in params])[:, None, None]
        return (next_membrane(s - off, v_reset).tolist(), (s > V_MAX + off).tolist(),
                (step.take(s) - off).tolist())

    def test_every_current(self):
        """Every v and every post-decay current, for a regenerative and a
        mixed parameter set, with v_reset 0 and 255."""
        params = [NeuronParams(a_num=7, b_num=7, v_r=0, v_t=255, v_reset=0),
                  NeuronParams(a_num=3, b_num=5, v_r=40, v_t=160, v_reset=255)]
        currents = range(-2048, 2048)
        nxt, spiked, carried = self.step_all(params, [[currents] * 256] * 2)
        for k, p in enumerate(params):
            drifted = [v + delta_vm(v, p, 0) for v in range(256)]
            for v in range(256):
                want = map(neuron_step, repeat(NeuronState(v_m=v)), repeat(p), currents)
                assert all(st_.v_m == got_v and sp == got_sp and drifted[st_.v_m] == got_w
                           for (st_, sp), got_v, got_sp, got_w
                           in zip(want, nxt[k][v], spiked[k][v], carried[k][v])), (p, v)

    def test_sweep_at_the_edges(self):
        """Every v for every parameter set of the sweep, at the ends of the
        current range and at the currents that put the candidate at the
        clamp and spike edges."""
        currents = [
            [[-2048, -1, 0, 1, 2047] + [e - v - delta_vm(v, p, 0) for e in (-1, 0, 255, 256)]
             for v in range(256)]
            for p in self.SWEEP
        ]
        nxt, spiked, carried = self.step_all(self.SWEEP, currents)
        for k, p in enumerate(self.SWEEP):
            for v in range(256):
                want = [neuron_step(NeuronState(v_m=v), p, c) for c in currents[k][v]]
                assert nxt[k][v] == [w.v_m for w, _ in want], (p, v)
                assert spiked[k][v] == [sp for _, sp in want], (p, v)
                assert carried[k][v] == [w.v_m + delta_vm(w.v_m, p, 0) for w, _ in want], (p, v)

    def test_tables_are_shared_and_read_only(self):
        """One row per distinct parameter set, built once and cached: each
        row spans every candidate of the drift table and a 12-bit current,
        and the rows lie end to end."""
        step, off = neuron_tables(self.SWEEP * 3)
        vd = drift_table(tuple(self.SWEEP))
        width = int(vd.max()) - int(vd.min()) + 4096
        assert step.size == 64 * width and not step.flags.writeable
        assert off.tolist() == [k * width - int(vd.min()) + 2048 for k in range(64)] * 3
        again = neuron_tables(self.SWEEP)
        assert again[0].base is step.base

    @pytest.mark.parametrize("population", [
        [NeuronParams(a_num=2, b_num=4, v_r=50, v_t=150, v_reset=30)] * 162,
        ([NeuronParams(a_num=1, b_num=1, v_r=0, v_t=255, v_reset=0)] * 2 + SWEEP[:3]) * 32
        + SWEEP[:2],
    ], ids=["one-object", "shared-and-distinct"])
    def test_shared_objects_match_equal_copies(self, population):
        """Tables are deduplicated by identity before equality: references
        to shared objects give the same two arrays as equal but distinct
        objects, one per neuron."""
        copies = [dataclasses.replace(p) for p in population]
        assert all(a is not b and a == b for a, b in zip(population, copies))
        for shared, distinct in zip(neuron_tables(population), neuron_tables(copies)):
            assert shared.dtype == distinct.dtype and np.array_equal(shared, distinct)


class TestNeuronStep:
    P = NeuronParams(a_num=2, b_num=4, v_r=50, v_t=150, v_reset=30)

    def test_overflow_spike_and_reset(self):
        st_, spiked = neuron_step(NeuronState(v_m=240), self.P, 0)
        assert spiked
        assert st_.v_m == 30

    def test_subthreshold(self):
        st_, spiked = neuron_step(NeuronState(v_m=100), self.P, 0)
        assert not spiked
        assert st_.v_m == 87

    def test_underflow_clamp(self):
        p = NeuronParams(a_num=2, b_num=0, v_r=50, v_t=200, v_reset=0)
        # threshold = v_r = 50; drift at v=5 is (2*45)>>3 = 11
        st_, spiked = neuron_step(NeuronState(v_m=5), p, -20)
        assert not spiked
        assert st_.v_m == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            NeuronParams(a_num=8, b_num=0, v_r=0, v_t=100, v_reset=0)
        with pytest.raises(ValueError):
            NeuronParams(a_num=1, b_num=1, v_r=200, v_t=100, v_reset=0)

    def test_long_trajectory_matches_reference(self):
        rng = random.Random(1234)
        for _ in range(20):
            a, b = rng.randrange(8), rng.randrange(8)
            v_r = rng.randrange(256)
            v_t = rng.randrange(v_r, 256)
            v_reset = rng.randrange(256)
            p = NeuronParams(a_num=a, b_num=b, v_r=v_r, v_t=v_t, v_reset=v_reset)
            state = NeuronState(v_m=rng.randrange(256))
            ref_v = state.v_m
            for _ in range(10_000):
                i_t = rng.randrange(-64, 65)
                state, spiked = neuron_step(state, p, i_t)
                ref_v, ref_spiked = reference_step(ref_v, a, b, v_r, v_t, v_reset, i_t)
                assert (state.v_m, spiked) == (ref_v, ref_spiked)


class TestProperties:
    @given(params_st, st.integers(0, 255), st.integers(-2048, 2047))
    def test_range_and_reset(self, p, v0, i_t):
        st_, spiked = neuron_step(NeuronState(v_m=v0), p, i_t)
        assert 0 <= st_.v_m <= 255
        assert spiked == (v0 + delta_vm(v0, p, i_t) > 255)
        if spiked:
            assert st_.v_m == p.v_reset

    @given(params_st)
    def test_resting_fixed_point(self, p):
        if not p.v_r < pde_threshold(p):
            return
        st_, spiked = neuron_step(NeuronState(v_m=p.v_r), p, 0)
        assert not spiked
        assert st_.v_m == p.v_r

    @settings(max_examples=30, deadline=None)
    @given(params_st, st.integers(0, 40), st.integers(1, 20))
    def test_fi_monotone(self, p, i_lo, di):
        def count(i_t, horizon=300):
            s, n = NeuronState(v_m=p.v_r), 0
            for _ in range(horizon):
                s, spiked = neuron_step(s, p, i_t)
                n += spiked
            return n

        assert count(i_lo + di) >= count(i_lo)
