"""Independent scalar reference of one Processor timestep, diffed against
the executed datapath (`Processor.advance`), one step at a time and inside
the `simulate` run loop.

The reference works on plain Python ints and lists, straight from the phase
order in the README: external events, then the spike MACs of the previous
step (NPU2's feedforward stream is NPU1's raster of the step before, the
scheduler's one-step delay), then 12-bit saturation, decay, and the neuron
update. Group masks are applied per target from the mask bits the test
computes itself; nothing is shared with the packed weight memory or the
compiled crossbar.
"""

import contextlib
import dataclasses
import hashlib
import io

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from snnemu.cli import main
from snnemu.netio import (
    BLOCK,
    DcSource,
    NetworkDescription,
    NoiseSource,
    StimulusTrace,
    run,
    save_cycles,
    save_raster,
    simulate,
)
from snnemu.neuron import NeuronParams
from snnemu.npu import GlobalNeuronConfig, NpuConfig
from snnemu.processor import Processor
from snnemu.synapse import EXT_BOUND, MAC_BOUND
from scalar_ref import Lcg
from test_processor import events, step

PHASES = ("external", "scan", "mac", "decay", "pde")


class RefNpu:
    """One NPU as lists of ints: `weights[row][target]` with feedforward
    rows first, `masks[row]` the group bits read for that row."""

    def __init__(self, params, global_weight, decay_a, weights, masks, n_ff):
        self.params = params  # active neurons, then the global neuron
        self.global_weight = global_weight
        self.decay_a = decay_a
        self.weights = weights
        self.masks = masks
        self.n_ff = n_ff
        self.total = len(params)
        self.v = [p.v_r for p in params]
        self.y = [0] * self.total
        self.last = [0] * self.total

    def _read(self, row):
        """Masked weights of one SRAM row and its word-read count."""
        mask = self.masks[row]
        w = [
            self.weights[row][i] if (mask >> (i // 8)) & 1 else 0
            for i in range(self.total)
        ]
        return w, bin(mask).count("1")

    def step(self, events, feedforward):
        cyc = dict.fromkeys(PHASES, 0)
        y = self.y
        for addr, value in events:
            y[addr] += value
            cyc["external"] += 1
        if self.n_ff:
            cyc["scan"] += -(-len(feedforward) // 2)
            for src, bit in enumerate(feedforward):
                if bit:
                    w, reads = self._read(src)
                    y = [a + b for a, b in zip(y, w)]
                    cyc["mac"] += reads
        cyc["scan"] += -(-self.total // 2)
        for src, bit in enumerate(self.last):
            if not bit:
                continue
            if src == self.total - 1:
                y = [a + self.global_weight for a in y]
                cyc["mac"] += 1
            else:
                w, reads = self._read(self.n_ff + src)
                y = [a + b for a, b in zip(y, w)]
                cyc["mac"] += reads
        y = [min(max(a, -2048), 2047) for a in y]
        decayed = []
        for a in y:
            shifted = a // (1 << self.decay_a)
            if shifted == 0 and a != 0:
                shifted = 1 if a > 0 else -1
            decayed.append(a - shifted)
        self.y = decayed
        cyc["decay"] = cyc["pde"] = self.total
        spikes = []
        for k, p in enumerate(self.params):
            v = self.v[k]
            if p.a_num + p.b_num:
                switch = (p.a_num * p.v_r + p.b_num * p.v_t) // (p.a_num + p.b_num)
            else:
                switch = p.v_t
            if v < switch:
                drift = (p.a_num * (p.v_r - v)) // 8
            else:
                drift = (p.b_num * (v - p.v_t)) // 8
            s = v + drift + self.y[k]
            spikes.append(int(s > 255))
            self.v[k] = p.v_reset if s > 255 else max(s, 0)
        self.last = spikes
        return spikes, cyc


class RefProcessor:
    def __init__(self, ref1, ref2):
        self.ref1, self.ref2 = ref1, ref2
        self.pending = [0] * ref1.total

    def step(self, stimulus):
        s1, c1 = self.ref1.step([(a, v) for n, a, v in stimulus if n == 1], [])
        s2, c2 = self.ref2.step([(a, v) for n, a, v in stimulus if n == 2], self.pending)
        self.pending = s1
        return s1, s2, c1, c2


def _params(rng):
    v_r = int(rng.integers(0, 200))
    return NeuronParams(
        a_num=int(rng.integers(0, 8)), b_num=int(rng.integers(0, 8)),
        v_r=v_r, v_t=int(rng.integers(v_r, 256)), v_reset=int(rng.integers(0, 256)),
    )


def _masks(weights, gs_mode):
    """Per-row mask bits: every group, or the non-zero groups."""
    n_groups = -(-weights.shape[1] // 8)
    if gs_mode == "dense":
        return [(1 << n_groups) - 1] * weights.shape[0]
    return [
        sum(1 << g for g in range(n_groups) if row[8 * g:8 * g + 8].any())
        for row in weights
    ]


def _weights(rng, rows, total):
    """Random 4-bit weights with some all-zero columns and 8-target groups."""
    w = rng.integers(-8, 8, size=(rows, total))
    w[:, rng.random(total) < 0.3] = 0
    zero = rng.random((rows, -(-total // 8))) < 0.3
    w[zero.repeat(8, axis=1)[:, :total]] = 0
    return w


def _pair(n, rng, chopped, n_ff, gs_mode, g_mode, g_weight, max_neurons):
    """A random NPU of n active neurons as (config, weights), and its
    reference twin."""
    total = n + 1
    params = [_params(rng) for _ in range(total)]
    chop = (n // 2, n // 2) if chopped and n >= 2 else None
    weights = _weights(rng, n_ff + n, total)
    if chop is not None:
        # sub-population 2 never feeds sub-population 1
        weights[n_ff + chop[0]:n_ff + n, :chop[0]] = 0
    g = GlobalNeuronConfig(params=params[-1], out_weight=g_weight, mode=g_mode)
    cfg = NpuConfig(max_neurons=max_neurons, active_neurons=n, params=params[:-1],
                    global_neuron=g, decay_a=int(rng.integers(0, 8)), chop=chop)
    ref = RefNpu(params, g.effective_weight, cfg.decay_a,
                 weights.tolist(), _masks(weights, gs_mode), n_ff)
    return (cfg, weights), ref


def _stimulus(rng, totals):
    stimulus = []
    for _ in range(int(rng.integers(0, 12))):
        npu = int(rng.integers(1, 3))
        stimulus.append((npu, int(rng.integers(0, totals[npu - 1])),
                         int(rng.integers(-40, 128))))
    return stimulus


def drive(proc, stimulus):
    """Feed (npu, addr, value) events through `Processor.advance`."""
    return step(proc, *(
        events(*[(a, v) for n, a, v in stimulus if n == k]) for k in (1, 2)
    ))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n1=st.sampled_from([1, 2, 4, 8, 16, 32]),
    n2=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    gs_mode=st.sampled_from(["dense", "auto"]),
    chop=st.tuples(st.booleans(), st.booleans()),
    globals_=st.tuples(
        st.sampled_from(["excitatory", "inhibitory"]), st.integers(-8, 7),
        st.sampled_from(["excitatory", "inhibitory"]), st.integers(-8, 7),
    ),
    steps=st.integers(1, 12),
)
def test_processor_matches_scalar_reference(seed, n1, n2, gs_mode, chop, globals_, steps):
    rng = np.random.default_rng(seed)
    g1_mode, g1_weight, g2_mode, g2_weight = globals_
    npu1, ref1 = _pair(n1, rng, chop[0], 0, gs_mode, g1_mode, g1_weight, 32)
    npu2, ref2 = _pair(n2, rng, chop[1], n1 + 1, gs_mode, g2_mode, g2_weight, 128)
    proc = Processor(*npu1, *npu2, gs_mode)
    ref = RefProcessor(ref1, ref2)
    for t in range(steps):
        check_step(t, proc, ref, _stimulus(rng, (n1 + 1, n2 + 1)))


def check_step(t, proc, ref, stimulus):
    """One step of both with (npu, addr, value) events: spikes, cycles,
    accumulators and membranes all equal."""
    s1, s2, rep = drive(proc, stimulus)
    r1, r2, c1, c2 = ref.step(stimulus)
    assert s1.tolist() == r1, f"step {t}: npu1 spikes"
    assert s2.tolist() == r2, f"step {t}: npu2 spikes"
    for name in PHASES:
        assert getattr(rep.npu1, name) == c1[name], f"step {t}: npu1 {name}"
        assert getattr(rep.npu2, name) == c2[name], f"step {t}: npu2 {name}"
    for span, unit in ((slice(None, proc.t1), ref.ref1), (slice(proc.t1, None), ref.ref2)):
        assert proc.y[span].tolist() == unit.y, f"step {t}: accumulators"
        assert proc.v_m[span].tolist() == unit.v, f"step {t}: membranes"


def advance_block(proc, stimuli):
    """Feed one block of steps, each a list of (npu, addr, value) events,
    through one `Processor.advance` call; returns its spikes and cycles."""
    ext = np.zeros((len(stimuli), proc.n), dtype=np.int64)
    counts = np.zeros((len(stimuli), 2), dtype=np.int64)
    for i, stimulus in enumerate(stimuli):
        for npu, addr, value in stimulus:
            ext[i, addr + (npu - 1) * proc.t1] += value
            counts[i, npu - 1] += 1
    return proc.advance(ext, counts)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n1=st.sampled_from([1, 4, 32]),
    n2=st.sampled_from([1, 8, 64, 128]),
    gs_mode=st.sampled_from(["dense", "auto"]),
    blocks=st.lists(st.integers(0, 9), min_size=2, max_size=4),
)
def test_state_written_between_blocks(seed, n1, n2, gs_mode, blocks):
    """Random membranes, accumulators and last spikes written into the chip
    between two `advance` calls are the state the next block starts from.
    Inside a block the loop carries each neuron's drifted membrane and
    converts it back to `v_m` only at the block's end (a block of no steps
    included), so the scalar reference, started from the same written
    state, must agree on every step's spikes and cycles and on the state
    at every block end."""
    rng = np.random.default_rng(seed)
    npu1, ref1 = _pair(n1, rng, False, 0, gs_mode, "excitatory", int(rng.integers(-8, 8)), 32)
    npu2, ref2 = _pair(n2, rng, False, n1 + 1, gs_mode, "inhibitory",
                       int(rng.integers(-8, 8)), 128)
    proc = Processor(*npu1, *npu2, gs_mode)
    ref = RefProcessor(ref1, ref2)
    t1, totals = proc.t1, (n1 + 1, n2 + 1)
    for b, k in enumerate(blocks):
        if b:
            v = rng.integers(0, 256, proc.n)
            y = rng.integers(-2048, 2048, proc.n)
            last = rng.integers(0, 2, proc.n, dtype=np.uint8)
            proc.v_m[:], proc.y[:], proc.last_spikes[:] = v, y, last
            for unit, span in ((ref1, slice(None, t1)), (ref2, slice(t1, None))):
                unit.v, unit.y, unit.last = v[span].tolist(), y[span].tolist(), last[span].tolist()
            ref.pending = last[:t1].tolist()
        stimuli = [_stimulus(rng, totals) for _ in range(k)]
        spikes, cycles = advance_block(proc, stimuli)
        for i, (stimulus, row, cyc) in enumerate(zip(stimuli, spikes, cycles, strict=True)):
            r1, r2, c1, c2 = ref.step(stimulus)
            assert row.tolist() == r1 + r2, f"block {b}, step {i}: spikes"
            assert cyc.tolist() == [[c[name] for name in PHASES] for c in (c1, c2)], (
                f"block {b}, step {i}: cycles"
            )
        assert proc.v_m.tolist() == ref1.v + ref2.v, f"block {b}: membranes"
        assert proc.y.tolist() == ref1.y + ref2.y, f"block {b}: accumulators"
        assert proc.last_spikes.tolist() == ref1.last + ref2.last, f"block {b}: last spikes"


@pytest.mark.parametrize("global2", [-8, 8])
def test_full_chip_at_the_table_bounds(global2):
    """A full 32+1 -> 128+1 chip with every source spiking, each weight -8
    or 7, and whole columns at either weight, so NPU2's MAC reaches
    -MAC_BOUND under a -8 global broadcast. Accumulators start at the 12-bit
    ends, and stacked events put the external input beyond, at and one
    below +-EXT_BOUND: where the accumulator is -2048 and the MAC
    -MAC_BOUND, only input of at least EXT_BOUND saturates."""
    rng = np.random.default_rng(2026 + global2)
    units, refs, y0, ext = [], [], [], []
    for n, n_ff, g in ((32, 0, -8), (128, 33, global2)):
        total = n + 1
        params = [_params(rng) for _ in range(total)]
        w = rng.choice([-8, 7], size=(n_ff + n, total))
        w[:, 0::3], w[:, 1::3] = -8, 7
        gcfg = GlobalNeuronConfig(params=params[-1], out_weight=-8,
                                  mode="excitatory" if g > 0 else "inhibitory")
        cfg = NpuConfig(max_neurons=max(n, 32), active_neurons=n, params=params[:-1],
                        global_neuron=gcfg, decay_a=int(rng.integers(1, 8)))
        units += [cfg, w]
        refs.append(RefNpu(params, g, cfg.decay_a, w.tolist(),
                           [(1 << -(-total // 8)) - 1] * len(w), n_ff))
        col = np.arange(total) % 3
        y0.append(np.where(col == 0, -2048, np.where(col == 1, 2047, rng.integers(-2048, 2048, total))))
        bound = EXT_BOUND + 1 - np.arange(total) // 3 % 3  # beyond, at, one below
        ext.append(np.where(col == 0, bound, np.where(col == 1, -bound, 0)))
    proc = Processor(*units, "dense")
    assert np.abs(proc.crossbar.weights).sum(axis=0).max() == MAC_BOUND
    stimulus = []
    for npu, values in ((1, ext[0]), (2, ext[1])):
        for addr, value in enumerate(values.tolist()):
            q, r = divmod(abs(value), 127)
            sign = 1 if value > 0 else -1
            stimulus += [(npu, addr, sign * 127)] * q + [(npu, addr, sign * r)] * (r > 0)
    ref = RefProcessor(*refs)
    proc.last_spikes[:] = 1
    proc.y[:] = np.concatenate(y0)
    for unit, y in zip(refs, y0):
        unit.last, unit.y = [1] * unit.total, y.tolist()
    ref.pending = [1] * 33
    for t in range(3):
        check_step(t, proc, ref, stimulus)


def _desc_and_reference(rng, n1, n2, gs_mode, chop=(False, False), ranges=False):
    """A random NetworkDescription with DC and noise on both NPUs, and the
    scalar reference processor of the same network. `chop[k]` halves NPU
    k+1 (when it has two neurons or more); with `ranges`, each noise source
    is drawn either as a list or as one ascending run of addresses, which
    `save` writes in the range form."""
    cfgs, refs, weights = [], [], []
    for n, n_ff, max_neurons, chopped in ((n1, 0, 32, chop[0]), (n2, n1 + 1, 128, chop[1])):
        total = n + 1
        params = [_params(rng) for _ in range(total)]
        w = _weights(rng, n_ff + n, total)
        halves = (n // 2, n // 2) if chopped and n >= 2 else None
        if halves is not None:
            w[n_ff + halves[0]:n_ff + n, :halves[0]] = 0
        g = GlobalNeuronConfig(params=params[-1], out_weight=int(rng.integers(-8, 8)),
                               mode=str(rng.choice(["excitatory", "inhibitory"])))
        cfg = NpuConfig(max_neurons=max_neurons, active_neurons=n, params=params[:-1],
                        global_neuron=g, decay_a=int(rng.integers(0, 8)), chop=halves)
        cfgs.append(cfg)
        weights.append(w)
        refs.append(RefNpu(params, g.effective_weight, cfg.decay_a, w.tolist(),
                           _masks(w, gs_mode), n_ff))
    totals = (n1 + 1, n2 + 1)
    dc = [DcSource(npu=int(k), addr=int(rng.integers(0, totals[k - 1])),
                   value=int(rng.integers(-128, 128)))
          for k in rng.integers(1, 3, size=int(rng.integers(0, 4)))]
    noise = []
    for k in rng.integers(1, 3, size=int(rng.integers(0, 4))):
        low = int(rng.integers(-128, 128))
        if ranges and rng.random() < 0.5:
            start = int(rng.integers(0, totals[k - 1]))
            addrs = list(range(start, int(rng.integers(start + 1, totals[k - 1] + 1))))
        else:
            addrs = rng.integers(0, totals[k - 1], size=int(rng.integers(1, 6))).tolist()
        noise.append(NoiseSource(npu=int(k), addrs=addrs, low=low,
                                 high=int(rng.integers(low, 128))))
    desc = NetworkDescription(npu1=cfgs[0], npu2=cfgs[1], weights1=weights[0],
                              weights2=weights[1], gs_mode=gs_mode, dc=dc, noise=noise)
    return desc, RefProcessor(*refs)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n1=st.sampled_from([1, 2, 4, 8, 32]),
    n2=st.sampled_from([1, 2, 8, 16, 64]),
    gs_mode=st.sampled_from(["dense", "auto"]),
    steps=st.integers(1, 40),
    block=st.sampled_from([1, 2, 3, 7, 64, "steps", "steps+5"]),
)
def test_simulate_matches_scalar_reference(seed, n1, n2, gs_mode, steps, block):
    """The whole run loop against a scalar one, for blocks of any length:
    noise drawn one value at a time with Lcg.int_range in declaration
    order, per-NPU event lists (trace, then DC, then noise), and the
    reference processor with its one-step scheduler delay. Trace records
    sit on the first and last step of every block, so the LCG state, the
    last spikes and the input offsets all cross block boundaries."""
    block = {"steps": steps, "steps+5": steps + 5}.get(block, block)
    rng = np.random.default_rng(seed)
    desc, ref = _desc_and_reference(rng, n1, n2, gs_mode)
    totals = (n1 + 1, n2 + 1)
    edges = [t for t0 in range(0, steps, block) for t in (t0, min(t0 + block, steps) - 1)]
    times = edges + rng.integers(0, steps, size=int(rng.integers(0, 3 * steps))).tolist()
    records = sorted(
        (int(t), int(k), int(rng.integers(0, totals[k - 1])), int(rng.integers(-128, 128)))
        for t, k in zip(times, rng.integers(1, 3, size=len(times)))
    )
    noise_seed = int(rng.integers(0, 2**32))
    lcg = Lcg(noise_seed)
    t1 = n1 + 1
    seen = 0
    for t0, spikes, cycles in simulate(desc, StimulusTrace(records=records), steps,
                                       seed=noise_seed, block=block):
        assert t0 == seen and len(spikes) == len(cycles) == min(block, steps - t0)
        for i, (row, cyc) in enumerate(zip(spikes, cycles)):
            t = t0 + i
            stimulus = [(k, a, v) for ts, k, a, v in records if ts == t]
            stimulus += [(s.npu, s.addr, s.value) for s in desc.dc]
            stimulus += [(ns.npu, a, lcg.int_range(ns.low, ns.high))
                         for ns in desc.noise for a in ns.addrs]
            r1, r2, c1, c2 = ref.step(stimulus)
            assert row[:t1].tolist() == r1, f"step {t}: npu1 spikes"
            assert row[t1:].tolist() == r2, f"step {t}: npu2 spikes"
            assert cyc.tolist() == [[c[name] for name in PHASES] for c in (c1, c2)], (
                f"step {t}: cycles"
            )
        seen += len(spikes)
    assert seen == steps


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n1=st.sampled_from([1, 2, 8, 32]),
    n2=st.sampled_from([1, 8, 16, 64, 128]),
    g_modes=st.tuples(*[st.sampled_from(["excitatory", "inhibitory"])] * 2),
    steps=st.integers(1, 80),
)
def test_gs_mode_moves_only_the_mac_cycles(seed, n1, n2, g_modes, steps):
    """One random description, whose matrices hold all-zero 8-target
    groups, run under auto and under dense: the rasters are the same, and
    so is every cycle count but each NPU's mac, which auto never raises."""
    desc, _ = _desc_and_reference(np.random.default_rng(seed), n1, n2, "auto")
    desc.npu1, desc.npu2 = (
        dataclasses.replace(cfg, global_neuron=dataclasses.replace(cfg.global_neuron, mode=mode))
        for cfg, mode in zip((desc.npu1, desc.npu2), g_modes))
    raster, rows, _ = run(desc, None, steps, seed)
    dense = dataclasses.replace(desc, gs_mode="dense")
    dense_raster, dense_rows, _ = run(dense, None, steps, seed)
    assert raster.tobytes() == dense_raster.tobytes()
    for (t, rep), (_, dense_rep) in zip(rows, dense_rows, strict=True):
        for unit, dense_unit in ((rep.npu1, dense_rep.npu1), (rep.npu2, dense_rep.npu2)):
            assert unit.mac <= dense_unit.mac, f"step {t}: mac"
            assert unit._replace(mac=0) == dense_unit._replace(mac=0), (
                f"step {t}: cycles other than mac"
            )


RASTER_HEAD = "timestep,npu,neuron"
CYCLES_HEAD = ("timestep,npu1_external,npu1_scan,npu1_mac,npu1_decay,npu1_pde,"
               "npu2_external,npu2_scan,npu2_mac,npu2_decay,npu2_pde,"
               "total_parallel,total_serial,model")


def parse_csv(text, header):
    """The comma-split fields, as strings, of each line after `header`;
    every line, the header's too, must end in a newline."""
    lines = text.split("\n")
    assert lines[0] == header and lines[-1] == "", "header or final newline"
    return [line.split(",") for line in lines[1:-1]]


def reference_run(ref, desc, records, steps, seed):
    """The scalar reference of `snnemu run`: the raster records, each
    step's ten phase counts (NPU1's five, then NPU2's), and the summary
    line, all as ints."""
    lcg = Lcg(seed)
    raster, counts = [], []
    for t in range(steps):
        stimulus = [(k, a, v) for ts, k, a, v in records if ts == t]
        stimulus += [(s.npu, s.addr, s.value) for s in desc.dc]
        stimulus += [(ns.npu, a, lcg.int_range(ns.low, ns.high))
                     for ns in desc.noise for a in ns.addrs]
        r1, r2, c1, c2 = ref.step(stimulus)
        raster += [[t, k, a] for k, spikes in ((1, r1), (2, r2)) for a, s in enumerate(spikes) if s]
        counts.append([c[name] for c in (c1, c2) for name in PHASES])
    npu1, npu2 = (sum(row[k] for row in counts for k in span)
                  for span in (range(0, 5), range(5, 10)))
    parallel = max(npu1, npu2)
    rate = f"{desc.clock_hz * steps / parallel:.0f}" if parallel else "inf"
    summary = (f"steps={steps} spikes={len(raster)} cycles_parallel={parallel} "
               f"cycles_serial={npu1 + npu2} timesteps_per_sec={rate}\n")
    return raster, counts, summary


# The explain phase, which varies each argument of a failing example in
# turn, runs thousands of CLI calls here; a shrunk failure says enough.
@settings(max_examples=100, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(
    seed=st.integers(0, 2**32 - 1),
    n1=st.sampled_from([1, 2, 8, 32]),
    n2=st.sampled_from([1, 2, 16, 64]),
    gs_mode=st.sampled_from(["dense", "auto"]),
    chop=st.tuples(st.booleans(), st.booleans()),
    steps=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]) | st.integers(1, 150),
    with_trace=st.booleans(),
)
def test_cli_run_matches_scalar_reference(tmp_path_factory, seed, n1, n2, gs_mode, chop,
                                          steps, with_trace):
    """`snnemu run` on a random description saved to YAML and a weight
    image, a random stimulus CSV and seed, against the scalar reference:
    every raster record, every step's phase counts and per-step totals in
    cycles.csv, and the summary line's totals. Fields are compared as the
    decimal text of the reference's ints, so the files must match byte for
    byte. Step counts around and between multiples of the run's block, so
    the last block is short."""
    rng = np.random.default_rng(seed)
    desc, ref = _desc_and_reference(rng, n1, n2, gs_mode, chop, ranges=True)
    desc.clock_hz = int(rng.choice([1, 7, 100_000_000]))
    totals = (n1 + 1, n2 + 1)
    records = sorted(
        (int(t), int(k), int(rng.integers(0, totals[k - 1])), int(rng.integers(-128, 128)))
        for t, k in zip(rng.integers(0, steps, size=int(rng.integers(0, 2 * steps))),
                        rng.integers(1, 3, size=2 * steps))
    ) if with_trace else []
    noise_seed = int(rng.integers(0, 2**32))
    tmp = tmp_path_factory.mktemp("run")
    desc.save(str(tmp / "net.yaml"))
    argv = ["run", "--config", str(tmp / "net.yaml"), "--steps", str(steps),
            "--seed", str(noise_seed), "--raster-out", str(tmp / "raster.csv"),
            "--cycles-out", str(tmp / "cycles.csv")]
    if with_trace:
        StimulusTrace(records=records).save(str(tmp / "stim.csv"))
        argv += ["--stimulus", str(tmp / "stim.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert (rc, err.getvalue()) == (0, "")

    raster, counts, summary = reference_run(ref, desc, records, steps, noise_seed)
    got = parse_csv((tmp / "raster.csv").read_text(), RASTER_HEAD)
    raster = [[str(v) for v in record] for record in raster]
    first = next((i for i, (a, b) in enumerate(zip(got, raster)) if a != b), None)
    assert first is None, f"record {first}: {got[first]}, want {raster[first]}"
    assert len(got) == len(raster), f"{len(got)} records, want {len(raster)}"
    rows = parse_csv((tmp / "cycles.csv").read_text(), CYCLES_HEAD)
    assert len(rows) == steps, f"{len(rows)} cycle rows, want {steps}"
    for t, (row, want) in enumerate(zip(rows, counts)):
        assert row[:11] == [str(v) for v in [t] + want], f"step {t}: phase counts"
        parallel, serial = max(sum(want[:5]), sum(want[5:])), sum(want)
        assert row[11:] == [str(parallel), str(serial), "sequential"], f"step {t}: totals"
    assert out.getvalue() == summary


# Noise columns that repeat an address, overlap across sources or form one
# run over the whole chip, on both NPUs of one random network (8 + 16
# active neurons). Each case's raster.csv and cycles.csv sha256 digests were
# recorded from the run that scattered every noise column with np.add.at.
NOISE_CASES = {
    "repeated_and_overlapping": (
        [(1, [0, 3, 3, 8, 0], -20, 60), (1, [3, 4, 5], -5, 5),
         (2, [16, 2, 9, 2], -40, 90), (2, [2, 2, 2], 0, 3), (2, [9, 10], -128, 127)],
        "f6877ef0f337f3465bea73af325a0065b2fa6693a1d85095b2846fbb548a957a",
        "e4872c57e4a38e0d48e315e7f88ee84a4923d83715a57d91a563bbc21957999c"),
    "one_run_over_the_chip": (
        [(1, list(range(9)), -10, 38), (2, list(range(17)), -10, 38)],
        "efc959443f32952c2f1fcecad16318f0949fadc7200bb888e74342092dc26e79",
        "5d3975f88695c548b475b9af19e6eab8fb49d930db8c20c560854b65e016293d"),
    "distinct_unordered": (
        [(2, [5, 1, 16], -30, 80), (1, [7, 2], -1, 40), (2, [0, 3], 10, 20)],
        "2aa6cde3fd8bf5a0a715c4286c2752b8f3305bde8bbee9e8e0048773a20c57f5",
        "28e5117ac651c36d4ba1aae959b6137bfd4b9f8bbbb3336970b20f0d3771085a"),
}


def _noise_case_files(case, tmp):
    """The description of `case`, its scalar reference, the run's result
    and the bytes of the two files `run` writes."""
    desc, ref = _desc_and_reference(np.random.default_rng(2020), 8, 16, "auto")
    desc.noise = [NoiseSource(npu=k, addrs=addrs, low=lo, high=hi)
                  for k, addrs, lo, hi in NOISE_CASES[case][0]]
    desc.dc = [DcSource(npu=2, addr=2, value=30), DcSource(npu=1, addr=3, value=-7)]
    result = run(desc, None, 2 * BLOCK + 5, seed=12345)
    save_raster(str(tmp / "raster.csv"), result[0])
    save_cycles(str(tmp / "cycles.csv"), result[1])
    files = [(tmp / name).read_bytes() for name in ("raster.csv", "cycles.csv")]
    return desc, ref, result, files


@pytest.mark.parametrize("case", NOISE_CASES)
def test_pinned_noise_scatter(tmp_path, case):
    """Each noise case's run equals the scalar reference, which adds every
    draw one at a time, over three blocks (the last one short), and its
    files equal the pinned bytes."""
    steps = 2 * BLOCK + 5
    desc, ref, (raster, rows, _), files = _noise_case_files(case, tmp_path)
    want_raster, counts, _ = reference_run(ref, desc, [], steps, 12345)
    assert raster.tolist() == want_raster
    assert [[*rep.npu1, *rep.npu2] for _, rep in rows] == counts
    assert len(want_raster) > steps, "the case should spike on most steps"
    digests = [hashlib.sha256(data).hexdigest() for data in files]
    assert digests == list(NOISE_CASES[case][1:])


# Trace records on the first and last step of each block, on both NPUs:
# seven on one (t, npu, addr), two more on another, and one address taken
# on both NPUs. The sha256 digests of raster.csv and cycles.csv were
# recorded from the run that scattered a block's records with a 2-D
# np.add.at over (step, neuron) and (step, npu).
TRACE_SCATTER_DIGESTS = (
    "06bc3c1aefeeda4e1249f621a20237e0f3a6a7274c7002c5369731225b7f9f78",
    "e2fafa23b7cd761aa8c56e04e3d909179c5ea52a5a4178c6dd8760d6b2002d11",
)


def test_pinned_trace_scatter(tmp_path):
    """A block's trace records are summed per step and neuron, repeats
    included, as the scalar reference adds them one at a time, over three
    blocks (the last one short), and the files equal the pinned bytes."""
    steps = 2 * BLOCK + 5
    desc, ref = _desc_and_reference(np.random.default_rng(2022), 8, 16, "auto")
    records = []
    for t in (0, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, steps - 1):
        records += [(t, 1, 3, 90)] * 7 + [(t, 2, 16, 60), (t, 1, 5, -100), (t, 2, 5, 33)] * 2
    result = run(desc, StimulusTrace(records=records), steps, seed=12345)
    want_raster, counts, _ = reference_run(ref, desc, records, steps, 12345)
    assert result[0].tolist() == want_raster
    assert result[1].cycles.reshape(steps, 10).tolist() == counts
    save_raster(str(tmp_path / "raster.csv"), result[0])
    save_cycles(str(tmp_path / "cycles.csv"), result[1])
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("raster.csv", "cycles.csv")]
    assert digests == list(TRACE_SCATTER_DIGESTS)
