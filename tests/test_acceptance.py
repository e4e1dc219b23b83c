"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or check the captured output on failure)."""

import json
import os
import subprocess
import sys
import time

import numpy as np

from snnemu.apps import (
    build_avoidance_network,
    decide_direction,
    make_direction_stimulus,
    random_puzzle,
    solve_sudoku,
    verify_sudoku,
)
from snnemu.neuron import NeuronParams, neuron_tables, next_membrane
from snnemu.netio import run as run_network
from snnemu.processor import hierarchy_op_reduction, synapse_count
from snnemu.synapse import (
    SAT_DECAY_LO,
    decay_array,
    sat_decay_table,
)
from scalar_ref import compile_crossbar
from test_apps import behavior_sweep, default_behavior_cases, isi_signature, reference_verify
from test_processor import events, make_processor, step

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_1_neuron_oracle_equivalence():
    """1,000 random cases x 10,000 steps of the table-driven neuron update,
    bit-exact against a floor-division oracle, under a minute. Every tenth
    step draws its currents over the whole range -2047..2047."""
    t0 = time.time()
    cases = 1000
    steps = 10_000
    rng = np.random.default_rng(20240817)
    a = rng.integers(0, 8, cases)
    b = rng.integers(0, 8, cases)
    v_r = rng.integers(0, 256, cases)
    v_t = np.array([rng.integers(lo, 256) for lo in v_r])
    v_reset = rng.integers(0, 256, cases)
    denom = a + b
    params = [NeuronParams(*map(int, p)) for p in zip(a, b, v_r, v_t, v_reset)]
    table, off, _, _ = neuron_tables(params)
    v_ref = rng.integers(0, 256, cases)
    w_impl = table.take(v_ref + off)
    mismatches = 0
    for step in range(steps):
        i_t = rng.integers(-2047, 2048, cases) if step % 10 == 0 else rng.integers(-80, 81, cases)
        # the chip's loop carries w_impl; v_impl is its membrane at a block end
        s_impl = w_impl + i_t
        spk_impl = s_impl > 255 + off
        w_impl = table.take(s_impl)
        v_impl = next_membrane(s_impl - off, v_reset)
        # independent evaluator: floor division only, no shifts
        th = np.where(denom == 0, v_t, np.floor_divide(a * v_r + b * v_t, np.maximum(denom, 1)))
        drift = np.where(
            v_ref < th,
            np.floor_divide(a * (v_r - v_ref), 8),
            np.floor_divide(b * (v_ref - v_t), 8),
        )
        s = v_ref + drift + i_t
        spk_ref = s > 255
        v_ref = np.where(spk_ref, v_reset, np.minimum(np.maximum(s, 0), 255))
        mismatches += int((v_impl != v_ref).sum() + (spk_impl != spk_ref).sum())
    elapsed = time.time() - t0
    report(
        "1 neuron-oracle-equivalence",
        mismatches == 0 and elapsed < 60,
        f"(mismatches={mismatches}, {elapsed:.1f}s)",
    )


def test_2_decay_exhaustive():
    """Every start value and exponent decays to exactly 0, monotonically,
    without sign change."""
    t0 = time.time()
    ok = True
    for decay_a in range(8):
        y = np.arange(-2047, 2048, dtype=np.int64)
        sign0 = np.sign(y)
        active = y != 0
        while active.any():
            nxt = decay_array(y, decay_a)
            if not (np.abs(nxt[active]) < np.abs(y[active])).all():
                ok = False
                break
            if (np.sign(nxt) * sign0 < 0).any():
                ok = False
                break
            y = nxt
            active = y != 0
        if not ok or (y != 0).any():
            ok = False
            break
    elapsed = time.time() - t0
    report("2 decay-exhaustive", ok, f"({elapsed:.1f}s)")


def test_3_crossbar_equivalence():
    """200 random instances up to 160x160 whose weights hold random all-zero
    8-target groups, compiled with and without group-sparse reads in turn:
    the compiled crossbar's MAC (the one Processor.advance runs), saturated,
    matches the dense matrix-vector oracle, and the sat-decay table's
    lookup of it (exponents 1..7) matches one decay of the oracle. The
    cycle charge from the word reads Processor.cycles charges is, per
    spiking row, its count of nonzero groups when sparse, else its group
    count."""
    rng = np.random.default_rng(7)
    failures = 0
    for trial in range(200):
        n_src = int(rng.integers(1, 161))
        n_tgt = int(rng.integers(1, 161))
        n_groups = -(-n_tgt // 8)
        w = rng.integers(-8, 8, size=(n_src, n_tgt))
        zero = rng.random((n_src, n_groups)) < rng.random()
        w[zero.repeat(8, axis=1)[:, :n_tgt]] = 0
        spikes = rng.integers(0, 2, size=n_src)
        sparse = trial % 2 == 0
        acc = np.zeros(n_tgt, dtype=np.int64)
        xbar = compile_crossbar(w, sparse)
        xbar.mac(spikes, acc)
        cycles = xbar.reads(spikes)
        decay_a = trial % 7 + 1
        y = sat_decay_table((decay_a,))[0].take(acc - SAT_DECAY_LO)
        oracle = np.clip(w.T @ spikes, -2048, 2047)
        reads = 0
        for row in w[spikes == 1].tolist():
            groups = [row[g * 8 : g * 8 + 8] for g in range(n_groups)]
            reads += sum(any(group) for group in groups) if sparse else n_groups
        if not np.array_equal(np.clip(acc, -2048, 2047), oracle):
            failures += 1
        if not np.array_equal(y, decay_array(oracle, decay_a)):
            failures += 1
        if cycles != reads:
            failures += 1
    report("3 crossbar-equivalence", failures == 0, f"(failures={failures})")


def test_4_hierarchy_arithmetic():
    quarter = all(
        abs(hierarchy_op_reduction(n, n) - 0.25) < 1e-12 for n in range(1, 257)
    )
    syn = synapse_count(33, 129)
    report(
        "4 hierarchy-arithmetic",
        quarter and syn == 17730,
        f"(synapse_count={syn})",
    )


def test_5_scheduler_delay():
    """NPU1's raster at t is exactly NPU2's feedforward input at t+1."""
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(20):
        proc = make_processor(n1=2, n2=4)
        prev = np.zeros(3, dtype=np.uint8)
        for t in range(40):
            if not np.array_equal(proc.last_spikes[:proc.t1], prev):
                ok = False
            stim = events(*[
                (int(rng.integers(0, 3)), int(rng.integers(-60, 128)))
                for _ in range(rng.integers(0, 5))
            ])
            prev, _, _ = step(proc, stim)
    report("5 scheduler-delay", ok)


def test_6_determinism(tmp_path):
    """Byte-identical raster and cycle files across repeated runs and across
    BLAS/OMP thread counts (the engine itself is single-threaded)."""
    cfg_script = os.path.join(os.path.dirname(__file__), "_det_run.py")
    outputs = []
    for threads in ("1", "4", "1"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        out_dir = tmp_path / f"t{threads}_{len(outputs)}"
        out_dir.mkdir()
        subprocess.run(
            [sys.executable, cfg_script, str(out_dir)], check=True, env=env
        )
        outputs.append(
            (
                (out_dir / "raster.csv").read_bytes(),
                (out_dir / "cycles.csv").read_bytes(),
            )
        )
    ok = outputs[0] == outputs[1] == outputs[2]
    report("6 determinism", ok)


def test_7_sudoku():
    """>= 95% of 20 seeded 4x4 puzzles solved within 100k timesteps; cycle
    cost per solved puzzle within 100x of ~7.5k cycles. Every grid
    `verify_sudoku` accepts must pass the tests' reference check too."""
    t0 = time.time()
    solved = 0
    cycles = []
    rejected = []  # seeds whose grid verify_sudoku accepts and the reference does not
    for seed in range(20):
        puz = random_puzzle(4, seed=seed)
        result = solve_sudoku(puz, seed=1000 + seed, max_steps=100_000)
        if result.solved and verify_sudoku(result.grid, puz):
            if not reference_verify(result.grid, puz):
                rejected.append(seed)
            solved += 1
            cycles.append(result.cycles.total_parallel)
    mean_cycles = float(np.mean(cycles)) if cycles else float("inf")
    within = 7500 / 100 <= mean_cycles <= 7500 * 100
    elapsed = time.time() - t0
    report(
        "7 sudoku",
        solved >= 19 and within and not rejected,
        f"(solved={solved}/20, mean_cycles_per_puzzle={mean_cycles:.0f}, "
        f"reference_rejects={rejected}, {elapsed:.0f}s)",
    )


def test_8_avoidance():
    """Dominant-direction stimulus decided correctly for all 20 seeds over
    50-step windows; cycles/decision reported vs the chip's ~3.4k."""
    desc = build_avoidance_network()
    correct = 0
    cycles = []
    for seed in range(20):
        direction = seed % 8
        stim = make_direction_stimulus(direction, steps=50, seed=seed)
        raster, _, agg = run_network(desc, stim, steps=50, seed=seed)
        d, tie, _ = decide_direction(raster, (0, 50))
        correct += d == direction and not tie
        cycles.append(agg.total_parallel)
    mean_cycles = float(np.mean(cycles))
    report(
        "8 avoidance",
        correct == 20,
        f"(correct={correct}/20, cycles_per_decision={mean_cycles:.0f}, chip~3400)",
    )


def test_9_behavior_fixtures():
    """Five pinned parameter sets reproduce bit-exactly with five distinct
    inter-spike-interval signatures."""
    with open(os.path.join(FIXTURES, "behaviors.json")) as f:
        pinned = json.load(f)
    fresh = json.loads(json.dumps(behavior_sweep(default_behavior_cases()), sort_keys=True))
    sigs = {name: isi_signature(rec["spikes"]) for name, rec in fresh.items()}
    ok = fresh == pinned and len(fresh) == 5 and len(set(sigs.values())) == 5
    report("9 behavior-fixtures", ok, f"(signatures={sorted(sigs.values())})")
