"""NPU timestep semantics, each NPU stepped on a chip: phase ordering,
recurrent delay, global neuron broadcast, chop validation, and agreement with
a dense reference simulator."""

import dataclasses
import math

import numpy as np
import pytest

from snnemu.neuron import NeuronParams
from snnemu.netio import NetworkDescription, StimulusTrace, simulate
from snnemu.npu import (
    GlobalNeuronConfig,
    NpuConfig,
    check_chop_weights,
    chop_op_count,
    dense_op_count,
)
from test_processor import events, on_chip, quiet_npu, step

QUIET = NeuronParams(a_num=0, b_num=0, v_r=0, v_t=255, v_reset=0)
LEAKY = NeuronParams(a_num=2, b_num=4, v_r=50, v_t=150, v_reset=30)


def make_npu(active=4, params=None, weights=None, decay_a=3, global_cfg=None,
             max_neurons=32, gs_mode="dense"):
    """(config, weights, gs_mode) of an NPU under test, for `on_chip`."""
    total = active + 1
    params = params if params is not None else [QUIET] * active
    if weights is None:
        weights = np.zeros((active, total), dtype=int)
    cfg = NpuConfig(
        max_neurons=max_neurons,
        active_neurons=active,
        params=params,
        global_neuron=global_cfg or GlobalNeuronConfig(params=QUIET),
        decay_a=decay_a,
    )
    return cfg, weights, gs_mode


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


def dense_reference(weights, params, decay_a, stim_fn, steps, v0=None):
    """Straightforward dense simulator of the whole timestep loop, written
    from the update equations alone (no packed memory, no cycle model)."""
    n = weights.shape[1]  # total incl. global; weights rows = active sources
    active = weights.shape[0]
    v = np.array(v0 if v0 is not None else [p.v_r for p in params], dtype=float)
    y = np.zeros(n)
    last = np.zeros(n, dtype=int)
    raster = []
    for t in range(steps):
        for addr, val in stim_fn(t):
            y[addr] += val
        for s in np.nonzero(last)[0]:
            if s < active:
                y += weights[s]
        y = np.clip(y, -2048, 2047)
        # reciprocal decay with the +/-1 selector
        ynew = []
        for yi in y:
            yi = int(yi)
            if yi == 0:
                ynew.append(0)
                continue
            sh = math.floor(yi / 2**decay_a)
            if sh == 0:
                sh = 1 if yi > 0 else -1
            ynew.append(yi - sh)
        y = np.array(ynew, dtype=float)
        spikes = np.zeros(n, dtype=int)
        vn = []
        for k in range(n):
            p = params[k]
            if p.a_num + p.b_num == 0:
                th = p.v_t
            else:
                th = math.floor((p.a_num * p.v_r + p.b_num * p.v_t) / (p.a_num + p.b_num))
            if v[k] < th:
                dv = math.floor(p.a_num * (p.v_r - v[k]) / 8) + y[k]
            else:
                dv = math.floor(p.b_num * (v[k] - p.v_t) / 8) + y[k]
            s = v[k] + dv
            if s > 255:
                spikes[k] = 1
                vn.append(p.v_reset)
            else:
                vn.append(max(s, 0))
        v = np.array(vn, dtype=float)
        last = spikes
        raster.append(spikes.copy())
    return np.array(raster)


class TestTimestep:
    def test_resting_network_stays_silent(self):
        proc = on_chip(*make_npu(active=4, params=[LEAKY] * 4,
                                global_cfg=GlobalNeuronConfig(params=LEAKY)))
        for _ in range(10):
            spikes, _, _ = step(proc)
            assert not spikes.any()
            assert not proc.y[:proc.t1].any()

    def test_constant_stimulus_spikes_within_three_steps(self):
        # pure integrator fed 127 each step; psp decays between steps
        proc = on_chip(*make_npu(active=4, decay_a=3))
        spiked_at = None
        for t in range(5):
            spikes, _, _ = step(proc, events((0, 127)))
            if spikes[0]:
                spiked_at = t
                break
        assert spiked_at is not None and spiked_at <= 2

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(42)
        active, total = 4, 5
        w = rng.integers(-4, 5, size=(active, total))
        params = [LEAKY, QUIET, LEAKY, QUIET, LEAKY]
        proc = on_chip(*make_npu(active=active, params=params[:4], weights=w,
                                global_cfg=GlobalNeuronConfig(params=LEAKY), decay_a=2))

        def stim(t):
            return [(0, 90), (1, 60)] if t < 10 else []

        raster = []
        for t in range(20):
            spikes, _, _ = step(proc, events(*stim(t)))
            raster.append(spikes.copy())
        ref = dense_reference(w, params, 2, stim, 20)
        assert np.array_equal(np.array(raster), ref)

    def test_spikes_delayed_one_timestep(self):
        # source 0 spikes at t0; weight reaches target accumulator at t0+1
        w = np.zeros((2, 3), dtype=int)
        w[0, 1] = 7
        proc = on_chip(*make_npu(active=2, weights=w))
        spikes, _, _ = step(proc, events(*[(0, 127)] * 3))
        assert spikes[0] == 1
        assert proc.y[1] == 0
        step(proc)
        # +7 arrived this step, then decayed once (7 - 0 -> selector 1 -> 6)
        assert proc.y[1] == 6

    def test_event_address_out_of_range(self):
        cfg, weights, _ = make_npu(active=2)
        cfg2, weights2 = quiet_npu(1, 128, n_ff=cfg.total_neurons)
        desc = NetworkDescription(npu1=cfg, npu2=cfg2, weights1=weights, weights2=weights2)
        run = simulate(desc, StimulusTrace(records=[(0, 1, 5, 1)]), steps=1)
        with pytest.raises(ValueError, match="^record 0: address 5 out of range for npu1$"):
            next(run)

    def test_phase_order_decay_before_pde(self):
        # i_t is sampled after decay: a lone +8 event decays to +7 before the
        # neuron sees it.
        proc = on_chip(*make_npu(active=1, decay_a=3))
        step(proc, events((0, 8)))
        assert proc.y[0] == 7
        assert proc.v_m[0] == 7


class TestGlobalNeuron:
    @pytest.mark.parametrize("mode,delta", [("excitatory", 5), ("inhibitory", -5)])
    def test_broadcast_sign(self, mode, delta):
        g = GlobalNeuronConfig(params=QUIET, out_weight=5, mode=mode)
        proc = on_chip(*make_npu(active=2, global_cfg=g, decay_a=7))
        # force the global neuron (addr 2) to spike
        spikes, _, _ = step(proc, events(*[(2, 127)] * 3))
        assert spikes[2] == 1
        y_before = proc.y[:proc.t1].copy()
        step(proc)
        expected = y_before + delta
        # then one decay step
        for k, e in enumerate(expected):
            e = int(e)
            if e != 0:
                sh = e >> 7
                if sh == 0:
                    sh = 1 if e > 0 else -1
                e -= sh
            assert proc.y[k] == e

    def test_broadcast_costs_one_cycle(self):
        g = GlobalNeuronConfig(params=QUIET, out_weight=3, mode="excitatory")
        proc = on_chip(*make_npu(active=2, global_cfg=g))
        proc.last_spikes[2] = 1
        _, _, rep = step(proc)
        assert rep.npu1.mac == 1


class TestCycles:
    def test_scan_only_when_silent(self):
        proc = on_chip(*make_npu(active=4))
        cyc = step(proc)[2].npu1
        total = 5
        assert cyc.scan == math.ceil(total / 2)
        assert cyc.mac == 0
        assert cyc.external == 0
        assert cyc.decay == total
        assert cyc.pde == total
        assert cyc.total == cyc.scan + 2 * total

    def test_mac_charge_is_popcount(self):
        w = np.zeros((8, 9), dtype=int)
        w[0, :8] = 1  # group 1 (target 8) is all zero
        proc = on_chip(*make_npu(active=8, weights=w, gs_mode="auto"))
        proc.last_spikes[0] = 1
        _, _, rep = step(proc)
        assert rep.npu1.mac == 1


class TestCompile:
    """The NPU compiles its crossbar from the signed weight matrix, which
    must hold 4-bit weights in the NPU's shape."""

    @pytest.mark.parametrize("value", [-9, 8])
    def test_weight_out_of_range(self, value):
        w = np.zeros((4, 5), dtype=int)
        w[2, 3] = value
        with pytest.raises(ValueError, match=f"weight out of range at row 2, target 3: {value}$"):
            on_chip(*make_npu(weights=w))

    @pytest.mark.parametrize("value", [-9, 8])
    def test_build_processor_weight_out_of_range(self, value):
        cfg = make_npu(active=1)[0]
        cfg2 = NpuConfig(max_neurons=128, active_neurons=1, params=[QUIET],
                         global_neuron=GlobalNeuronConfig(params=QUIET))
        weights2 = np.zeros((3, 2), dtype=int)
        weights2[1, 0] = value
        desc = NetworkDescription(npu1=cfg, npu2=cfg2, weights1=np.zeros((1, 2), dtype=int),
                                  weights2=weights2)
        with pytest.raises(ValueError, match=f"weight out of range at row 1, target 0: {value}$"):
            desc.build_processor()

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match=r"weights\.npu1: shape \(3, 5\), expected \(4, 5\)"):
            on_chip(*make_npu(weights=np.zeros((3, 5), dtype=int)))


class TestChop:
    def test_op_count_64_8(self):
        assert chop_op_count(64, 8) == 4672
        assert dense_op_count(128) == 16384
        assert dense_op_count(128) / chop_op_count(64, 8) == pytest.approx(3.506, abs=0.01)

    def test_op_count_64_64(self):
        assert chop_op_count(64, 64) == 12288
        assert dense_op_count(128) / chop_op_count(64, 64) == pytest.approx(4 / 3)

    def test_rejects_non_power_of_two(self):
        cfg = make_npu(active=8, max_neurons=32)[0]
        with pytest.raises(ValueError, match="power"):
            configure_chop(cfg, 3, 4)

    def test_rejects_backward_weights(self):
        w = np.zeros((8, 9), dtype=int)
        w[6, 1] = -2  # sub2 source -> sub1 target
        with pytest.raises(ValueError, match="chop violation"):
            check_chop_weights(w, 0, 4, 4)

    def test_chopped_raster_matches_unchopped(self):
        rng = np.random.default_rng(3)
        w = rng.integers(-4, 5, size=(8, 9))
        w[4:8, 0:4] = 0  # respect the uni-directional constraint
        params = [LEAKY] * 8
        raster = {}
        for chopped in (False, True):
            cfg = NpuConfig(
                max_neurons=32, active_neurons=8, params=params,
                global_neuron=GlobalNeuronConfig(params=LEAKY), decay_a=3,
                chop=(4, 4) if chopped else None,
            )
            proc = on_chip(cfg, w)
            rows = []
            for t in range(30):
                ev = events(*[(k, 70) for k in range(4)])
                spikes, _, _ = step(proc, ev)
                rows.append(spikes)
            raster[chopped] = np.array(rows)
        assert np.array_equal(raster[False], raster[True])

    def test_configure_chop_sets_counts(self):
        cfg = make_npu(active=8, max_neurons=32)[0]
        chopped = configure_chop(cfg, 4, 4)
        assert chopped.chop == (4, 4)
        assert chopped.active_neurons == 8
