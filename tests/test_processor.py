"""Two-NPU scheduler delay, analytics formulas, cycle report arithmetic."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnemu import apps
from snnemu.neuron import NeuronParams, drift_table, step_table
from snnemu.netio import DcSource, NoiseSource, StimulusTrace
from snnemu.npu import GlobalNeuronConfig, NpuConfig
from snnemu.processor import (
    CycleReport,
    Processor,
    check_chip,
    cycle_totals,
    hierarchy_op_reduction,
    synapse_count,
)
from snnemu.synapse import GROUP_SIZE, SAT_DECAY_LO, Crossbar, sat_decay_table
from scalar_ref import compile_crossbar

QUIET = NeuronParams(a_num=0, b_num=0, v_r=0, v_t=255, v_reset=0)


def events(*pairs):
    """(addresses, values) arrays of one step's (addr, value) events."""
    return (np.array([a for a, _ in pairs], dtype=np.int64),
            np.array([v for _, v in pairs], dtype=np.int64))


def step(proc, events1=events(), events2=events()):
    """One step of `proc` through `Processor.advance`, the block loop
    `simulate` runs: each NPU's (addresses, values) events summed into one
    dense (1, n) row, with their (1, 2) counts. Returns both NPUs' spikes
    and the step's CycleReport."""
    ext = np.zeros((1, proc.n), dtype=np.int64)
    for (addrs, values), offset in zip((events1, events2), (0, proc.t1)):
        np.add.at(ext[0], addrs + offset, values)
    counts = np.array([[len(events1[0]), len(events2[0])]])
    spikes, cycles = proc.advance(ext, counts)
    return spikes[0, :proc.t1], spikes[0, proc.t1:], CycleReport.of(cycles[0].tolist())


def quiet_npu(active, max_neurons, n_ff=0):
    """(config, weights) of an NPU of silent integrators with all-zero
    weights."""
    cfg = NpuConfig(max_neurons=max_neurons, active_neurons=active,
                    params=[QUIET] * active,
                    global_neuron=GlobalNeuronConfig(params=QUIET))
    return cfg, np.zeros((n_ff + active, active + 1), dtype=int)


def on_chip(cfg, weights, gs_mode="dense"):
    """A Processor around the NPU under test: as NPU1 ahead of a quiet
    one-neuron NPU2 when it is the 32-neuron unit, else as NPU2 behind a
    quiet NPU1 whose spikes are its feedforward rows."""
    if cfg.max_neurons == 32:
        return Processor(cfg, weights, *quiet_npu(1, 128, n_ff=cfg.total_neurons), gs_mode)
    n_ff = len(weights) - cfg.active_neurons
    return Processor(*quiet_npu(n_ff - 1, 32), cfg, weights, gs_mode)


def make_processor(n1=2, n2=4, ff=None, w2=None, decay_a=3):
    t1, t2 = n1 + 1, n2 + 1
    cfg1 = NpuConfig(max_neurons=32, active_neurons=n1, params=[QUIET] * n1,
                     global_neuron=GlobalNeuronConfig(params=QUIET), decay_a=decay_a)
    cfg2 = NpuConfig(max_neurons=128, active_neurons=n2, params=[QUIET] * n2,
                     global_neuron=GlobalNeuronConfig(params=QUIET), decay_a=decay_a)
    rows2 = np.zeros((t1 + n2, t2), dtype=int)
    if ff is not None:
        rows2[:t1, :] = ff
    if w2 is not None:
        rows2[t1:, :] = w2
    return Processor(cfg1, np.zeros((n1, t1), dtype=int), cfg2, rows2, "dense")


class TestScheduler:
    def test_feedforward_arrives_next_step_only(self):
        ff = np.zeros((3, 5), dtype=int)
        ff[0, 2] = 7
        proc = make_processor(ff=ff, decay_a=7)
        # drive NPU1 neuron 0 over threshold at t=0
        s1, s2, _ = step(proc, events(*[(0, 127)] * 3))
        assert s1[0] == 1
        assert proc.y[proc.t1 + 2] == 0  # not yet delivered
        s1, s2, _ = step(proc)
        assert proc.y[proc.t1 + 2] == 6  # +7 delivered, one decay step

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_pending_equals_previous_raster(self, seed):
        rng = np.random.default_rng(seed)
        proc = make_processor()
        prev = None
        for t in range(15):
            stim = events(*[
                (int(rng.integers(0, 3)), int(rng.integers(-50, 120)))
                for _ in range(rng.integers(0, 4))
            ])
            if prev is not None:
                assert np.array_equal(proc.last_spikes[:proc.t1], prev)
            s1, _, _ = step(proc, stim)
            prev = s1
            assert np.array_equal(proc.last_spikes[:proc.t1], s1)

    def test_empty_run_scan_only(self):
        proc = make_processor()
        s1, s2, rep = step(proc)
        assert not s1.any() and not s2.any()
        assert rep.npu1.mac == 0 and rep.npu2.mac == 0
        assert rep.npu1.scan > 0 and rep.npu2.scan > 0

    def test_unknown_npu_id(self):
        # Events reach the processor per NPU, so an unknown NPU id is
        # rejected wherever stimulus is declared.
        with pytest.raises(ValueError, match="npu must be 1 or 2"):
            StimulusTrace(records=[(0, 3, 0, 1)])
        with pytest.raises(ValueError, match="must be 1 or 2"):
            DcSource(npu=3, addr=0, value=1)
        with pytest.raises(ValueError, match="must be 1 or 2"):
            NoiseSource(npu=0, addrs=[0], low=0, high=1)


def per_npu_compile(npu1, weights1, npu2, weights2, gs_mode):
    """The compiled arrays of a chip, built one NPU at a time: the chip's
    rules (`check_chip`), then each NPU's crossbar compiled alone with its
    global broadcast as its last row (`compile_crossbar`) and placed into
    the block, and each neuron's table row, offset, v_r and v_reset from
    the parameter sets deduplicated by equality."""
    check_chip(npu1, weights1, npu2, weights2, gs_mode)
    t1 = npu1.total_neurons
    n = t1 + npu2.total_neurons
    exps = list(dict.fromkeys((npu1.decay_a, npu2.decay_a)))
    width = sat_decay_table(tuple(exps)).shape[1]
    out = {"weights": np.zeros((n, n), dtype=np.int64), "cost": np.zeros((n, 2), dtype=np.int64),
           "_fixed": np.zeros((2, 5), dtype=np.int64), "_sd_off": np.zeros(n, dtype=np.int64)}
    for k, (cfg, w, n_ff) in enumerate(((npu1, weights1, 0), (npu2, weights2, t1))):
        total = cfg.total_neurons
        xbar = compile_crossbar(w, gs_mode == "auto", broadcast=cfg.global_neuron.effective_weight)
        out["weights"][: n_ff + total, n_ff : n_ff + total] = xbar.weights
        out["cost"][: n_ff + total, k] = xbar.cost
        out["_sd_off"][n_ff : n_ff + total] = exps.index(cfg.decay_a) * width - SAT_DECAY_LO
        out["_fixed"][k] = [0, (n_ff + 1) // 2 + (total + 1) // 2, 0, total, total]
    params = [p for cfg in (npu1, npu2) for p in (*cfg.params, cfg.global_neuron.params)]
    sets = list(dict.fromkeys(params))
    step, off = step_table(tuple(sets))
    out["_step"], out["_off"] = step.ravel(), off[[sets.index(p) for p in params]]
    out["_v_r"], out["_v_reset"] = [[getattr(p, f) for p in params] for f in ("v_r", "v_reset")]
    return out


# Parameter sets the random chips draw from, each shared or as an equal copy.
PARAM_POOL = [QUIET, apps.LEAKY, NeuronParams(a_num=2, b_num=4, v_r=50, v_t=150, v_reset=30)]


@st.composite
def chip_inputs(draw):
    """(npu1, weights1, npu2, weights2) of a random chip: any active sizes,
    chopped or not, any decay exponents, shared and equal-but-distinct
    parameter sets, either global mode at any out_weight (so the broadcast
    can be +8), and weights with whole 8-target groups zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chip, n_ff = [], 0
    for max_neurons in (32, 128):
        active = draw(st.sampled_from([2**i for i in range(max_neurons.bit_length())]))
        chop = (active // 2,) * 2 if active > 1 and draw(st.booleans()) else None
        params = [dataclasses.replace(p) if rng.random() < 0.3 else p
                  for p in rng.choice(np.array(PARAM_POOL, dtype=object), active)]
        glob = GlobalNeuronConfig(params=draw(st.sampled_from(PARAM_POOL)),
                                  out_weight=draw(st.integers(-8, 7)),
                                  mode=draw(st.sampled_from(["excitatory", "inhibitory"])))
        cfg = NpuConfig(max_neurons=max_neurons, active_neurons=active, params=params,
                        global_neuron=glob, decay_a=draw(st.integers(0, 7)), chop=chop)
        rows, groups = n_ff + active, -(-(active + 1) // GROUP_SIZE)
        kept = rng.random((rows, groups)) < draw(st.sampled_from([0.0, 0.4, 1.0]))
        w = rng.integers(-8, 8, (rows, active + 1)) * kept.repeat(GROUP_SIZE, axis=1)[:, : active + 1]
        if chop is not None:
            w[n_ff + chop[0] :, : chop[0]] = 0
        chip += [cfg, w]
        n_ff = cfg.total_neurons
    return tuple(chip)


class TestAssembly:
    @settings(max_examples=80, deadline=None)
    @given(chip=chip_inputs(), gs_mode=st.sampled_from(["auto", "dense"]))
    def test_block_compile_matches_per_npu_compile(self, chip, gs_mode):
        """The chip compiled in one pass into its block holds what the
        compile of each NPU alone, placed into the block, holds."""
        proc = Processor(*chip, gs_mode)
        got = {"weights": proc.crossbar.weights, "cost": proc.crossbar.cost, **{
            k: getattr(proc, k) for k in ("_fixed", "_sd_off", "_step", "_off", "_v_r", "_v_reset")}}
        for key, want in per_npu_compile(*chip, gs_mode).items():
            assert got[key].dtype == np.int64 and np.array_equal(got[key], want), key

    @settings(max_examples=60, deadline=None)
    @given(chip=chip_inputs(), faults=st.sampled_from([(0,), (1,), (0, 1), (1, 0)]),
           bad=st.sampled_from([0.5, 8, -9, 2**63, -2**70]), at=st.integers(0, 2**16),
           gs_mode=st.sampled_from(["auto", "dense"]))
    def test_bad_weight_raises_as_per_npu_compile(self, chip, faults, bad, at, gs_mode):
        """A non-integer or out-of-range weight in either matrix, or one in
        each, raises the exception and message of the per-NPU compile."""
        chip = list(chip)
        for k in faults:  # one bad weight, the matrix taken as floats or Python ints
            w = chip[2 * k + 1].astype(float if isinstance(bad, float) else object)
            w.flat[at % w.size] = bad
            chip[2 * k + 1] = w
            bad = 0.5 if bad != 0.5 else 8  # the other matrix gets the other kind
        with pytest.raises(Exception) as want:
            per_npu_compile(*chip, gs_mode)
        with pytest.raises(Exception) as got:
            Processor(*chip, gs_mode)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_rejects_malformed_chip(self):
        npu1, npu2 = quiet_npu(2, 32), quiet_npu(4, 128, n_ff=3)
        for bad, match in (
            ((quiet_npu(2, 128), npu2), "NPU1 must be the 32-neuron"),
            ((npu1, quiet_npu(4, 32, n_ff=3)), "NPU2 must be the 128-neuron"),
            ((quiet_npu(2, 32, n_ff=1), npu2),
             r"weights\.npu1: shape \(3, 3\), expected \(2, 3\)"),
            ((npu1, quiet_npu(4, 128, n_ff=4)),
             r"weights\.npu2: shape \(8, 5\), expected \(7, 5\)"),
        ):
            with pytest.raises(ValueError, match=match):
                Processor(*bad[0], *bad[1], "dense")
        assert Processor(*npu1, *npu2, "dense").crossbar.weights.shape == (8, 8)

    def test_distinct_neurons_cost_one_row_each(self):
        """A full chip whose 162 neurons each have their own parameter set
        and reset potential holds one step-table row per neuron, and no
        more bytes than a drift row per parameter set plus a reset row per
        reset potential over the candidate range, the neuron tables it
        replaced."""
        params = [NeuronParams(a_num=k % 8, b_num=k // 8 % 8, v_r=k % 97,
                               v_t=97 + k % 159, v_reset=k) for k in range(162)]
        cfg1 = NpuConfig(max_neurons=32, active_neurons=32, params=params[:32],
                         global_neuron=GlobalNeuronConfig(params=params[32]))
        cfg2 = NpuConfig(max_neurons=128, active_neurons=128, params=params[33:161],
                         global_neuron=GlobalNeuronConfig(params=params[161]))
        proc = Processor(cfg1, np.zeros((32, 33), dtype=int), cfg2,
                         np.zeros((33 + 128, 129), dtype=int), "dense")
        vd = drift_table(tuple(params))
        width = int(vd.max()) - int(vd.min()) + 4096
        assert proc._step.size == 162 * width
        assert len(set(proc._off.tolist())) == 162
        assert proc._step.nbytes <= vd.nbytes + 162 * width * 8


class TestFresh:
    """`Processor.fresh` is the chip at step 0 with its own state, sharing the
    compiled crossbar and tables, which no run can write."""

    def test_copy_starts_at_v_r_with_its_own_state(self):
        params = [NeuronParams(a_num=2, b_num=1, v_r=v, v_t=200, v_reset=3) for v in (10, 40)]
        cfg = NpuConfig(max_neurons=32, active_neurons=2, params=params,
                        global_neuron=GlobalNeuronConfig(params=params[1]))
        proc = on_chip(cfg, np.full((2, 3), 7))
        start = proc.v_m.copy()
        assert start.tolist()[:3] == [10, 40, 40]
        step(proc, events(*[(0, 127)] * 3, (1, 60)))
        state = [a.copy() for a in (proc.v_m, proc.y, proc.last_spikes)]
        assert proc.last_spikes.any() and proc.y.any()
        copy = proc.fresh()
        assert copy.crossbar is proc.crossbar and copy._step is proc._step
        assert copy.v_m.tolist() == start.tolist()
        assert not copy.y.any() and not copy.last_spikes.any()
        step(copy, events((0, 100)))
        assert all(np.array_equal(a, b)
                   for a, b in zip(state, (proc.v_m, proc.y, proc.last_spikes)))

    def test_compiled_arrays_are_read_only(self):
        proc = make_processor()
        compiled = [proc.crossbar.weights, proc.crossbar.cost] + [
            v for k, v in vars(proc).items() if k.startswith("_")]
        assert len(compiled) == 10
        for a in compiled:
            assert not a.flags.writeable

    def test_mac_is_one_call_per_step(self, monkeypatch):
        """`advance` calls `Crossbar.mac`, looked up on the class, once per
        step of a block, with the spikes of the step before: a wrapper put
        on the class before the chip is built sees every MAC, as a tracer
        that times the MAC there does."""
        calls = []
        mac = Crossbar.mac
        monkeypatch.setattr(Crossbar, "mac", lambda xbar, spikes, y: (
            calls.append(spikes.astype(np.uint8)), mac(xbar, spikes, y))[1])
        proc = make_processor(ff=np.full((3, 5), 7), w2=np.full((4, 5), 3))
        ext = np.zeros((6, proc.n), dtype=np.int64)
        ext[::2, :2] = 300
        for k in (6, 1, 0):
            before = proc.last_spikes.copy()
            spikes, _ = proc.advance(ext[:k].copy(), np.zeros((k, 2), dtype=np.int64))
            assert len(calls) == k
            assert np.array_equal(np.array(calls, dtype=np.uint8).reshape(k, proc.n),
                                  np.concatenate(([before], spikes[:-1]))[:k])
            calls.clear()
        assert spikes.size == 0 and proc.last_spikes.any()

    def test_sudoku_puzzles_share_one_chip(self):
        a, _ = apps.build_sudoku_network(apps.random_puzzle(4, seed=1))
        b, _ = apps.build_sudoku_network(apps.random_puzzle(4, seed=2))
        assert a.dc != b.dc
        assert a.build_processor().crossbar is b.build_processor().crossbar


class TestAnalytics:
    def test_chip_synapse_count(self):
        assert synapse_count(33, 129) == 17730

    def test_small_counts(self):
        assert synapse_count(1, 1) == 2
        assert synapse_count(8, 0) == 64

    def test_reduction_quarter_when_equal(self):
        for n in (1, 7, 32, 128):
            assert hierarchy_op_reduction(n, n) == pytest.approx(0.25)

    def test_reduction_zero_without_second_population(self):
        assert hierarchy_op_reduction(5, 0) == 0

    def test_reduction_chip_sizes(self):
        assert hierarchy_op_reduction(32, 128) == pytest.approx(1 - 21504 / 25600)

    def test_quarter_only_when_equal(self):
        for n in range(1, 40):
            for m in range(1, 40):
                r = hierarchy_op_reduction(n, m)
                if n == m:
                    assert r == pytest.approx(0.25)
                else:
                    assert r < 0.25


class TestCycleReport:
    def test_totals_additive(self):
        proc = make_processor()
        per = [step(proc)[2] for _ in range(5)]
        phases = np.sum([[r.npu1, r.npu2] for r in per], axis=0)
        agg = CycleReport.of(phases.tolist(), 5)
        assert agg.npu1.total == sum(r.npu1.total for r in per)
        assert agg.total_serial == agg.npu1.total + agg.npu2.total
        assert agg.timesteps == 5

    def test_parallel_is_max(self):
        proc = make_processor(n1=2, n2=16)
        _, _, rep = step(proc)
        assert rep.total_parallel == max(rep.npu1.total, rep.npu2.total)
        assert rep.npu2.total > rep.npu1.total

    @settings(max_examples=200, deadline=None)
    @given(cycles=st.lists(st.integers(-2**40, 2**40), min_size=10, max_size=10),
           timesteps=st.integers(0, 10**6))
    def test_of_an_array(self, cycles, timesteps):
        """`of` reads a (2, 5) int64 array as it reads its lists: the same
        report, of Python ints, with the totals of `cycle_totals`. The
        report and its phase tuples cannot be assigned to."""
        array = np.array(cycles, dtype=np.int64).reshape(2, 5)
        rep = CycleReport.of(array, timesteps)
        assert rep == CycleReport.of(array.tolist(), timesteps)
        assert all(type(c) is int for c in (*rep.npu1, *rep.npu2, rep.total_parallel))
        assert [rep.total_parallel, rep.total_serial] == cycle_totals(array).tolist()
        with pytest.raises(AttributeError):
            rep.npu1 = rep.npu2
        with pytest.raises(AttributeError):
            rep.npu1.mac = 0

    def test_model_flag(self):
        assert CycleReport().model == "sequential"
