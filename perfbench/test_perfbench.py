"""Self-tests of the benchmark's own helpers and checks.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import random
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from snnemu import netio  # noqa: E402
from snnemu.synapse import WeightMemory  # noqa: E402


@pytest.mark.parametrize("n", [1, 2, 7, 100, 101])
def test_percentile_matches_numpy(n):
    rng = random.Random(n)
    xs = [rng.uniform(0, 100) for _ in range(n)]
    for q in (0, 10, 50, 90, 99, 100):
        assert run.percentile(xs, q) == pytest.approx(np.percentile(xs, q))


def test_percentile_small_cases():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile(range(1, 12), 90) == 10
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_tally_counts_operations_not_messages():
    t = run.Tally()
    t.record([], "ok")
    t.record(["bad"], "one")
    t.record(["worse", "worst"], "two")
    assert (t.attempted, t.failed) == (3, 2)
    assert t.fail_ratio == pytest.approx(2 / 3)
    assert len(t.messages) == 3
    assert run.Tally().fail_ratio == 0.0


def _corrupt_one_byte(path):
    """Replace the last digit of the file with another digit."""
    data = bytearray(open(path, "rb").read())
    i = max(k for k, b in enumerate(data) if chr(b).isdigit())
    data[i] = ord(str((int(chr(data[i])) + 1) % 10))
    open(path, "wb").write(bytes(data))


def test_one_byte_raster_corruption_is_a_failure(tmp_path, monkeypatch):
    pins = json.loads(run.PINS.read_text())
    wl = workloads.ChipNoise(run.PIN_SEED, tmp_path)
    tally = run.Tally()
    outs = run.run_check_set(wl, tally)
    run.check_pins(outs, pins, tally, wl.name)
    assert tally.failed == 0, tally.messages
    reference = [o.digest for o in outs]

    save_raster = netio.save_raster

    def corrupting_save_raster(path, records):
        save_raster(path, records)
        _corrupt_one_byte(path)

    monkeypatch.setattr(netio, "save_raster", corrupting_save_raster)
    bad = run.Tally()
    outs = run.run_check_set(wl, bad, reference)
    assert bad.failed == wl.check_size
    run.check_pins(outs, pins, bad, wl.name)
    assert bad.failed == wl.check_size + 1


def test_cycles_corruption_fails_independent_model_on_any_seed(tmp_path, monkeypatch):
    save_cycles = netio.save_cycles

    def corrupting_save_cycles(path, rows):
        save_cycles(path, rows)
        _corrupt_one_byte(path)

    monkeypatch.setattr(netio, "save_cycles", corrupting_save_cycles)
    wl = workloads.ChipNoise(12345, tmp_path)
    assert wl.request(0).errors


def test_check_grid_is_independent_of_snnemu():
    grid = [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]]
    clues = [(0, 0, 1), (3, 3, 1)]
    assert workloads.check_grid(grid, clues, 4) == []
    assert workloads.check_grid(grid, [(0, 0, 2)], 4)
    swapped = [row[:] for row in grid]
    swapped[0][0], swapped[0][1] = swapped[0][1], swapped[0][0]
    assert workloads.check_grid(swapped, [], 4)


def test_sudoku_restart_is_timed_checked_and_counted(tmp_path):
    """Request 34 of seed 2 locks up on its first call and solves on the
    second; counts and steps must cover both calls."""
    o = workloads.Sudoku(2, tmp_path).request(34)
    assert o.errors == []
    assert o.retries == 1
    assert o.steps > workloads.Sudoku.attempt_steps
    assert o.counts["npu1.cycles.scan"] == o.steps  # one scan cycle per step


def test_missing_trace_target_is_absent(monkeypatch):
    assert tracing.resolve("snnemu.synapse:WeightMemory.no_such_method") is None
    assert tracing.resolve("snnemu.no_such_module:f") is None
    monkeypatch.delattr(WeightMemory, "row_weights")
    tracer = tracing.Tracer()
    assert "snnemu.synapse:WeightMemory.row_weights" in tracer.absent
    tracer.install()
    tracer.uninstall()
    assert not hasattr(WeightMemory, "row_weights")


def test_traced_pass_partitions_time_and_keeps_outputs(tmp_path):
    wl = workloads.Avoid(7, tmp_path)
    wl.setup(1)
    tally = run.Tally()
    reference = [o.digest for o in run.run_check_set(wl, tally)]
    original = WeightMemory.row_weights
    tracer = tracing.Tracer()
    tracer.install()
    wl.span = tracer.request
    try:
        run.run_check_set(wl, tally, reference)
    finally:
        tracer.uninstall()
    assert WeightMemory.row_weights is original
    assert tally.failed == 0, tally.messages
    spans = tracer.arrays()
    roots = spans["parent"] < 0
    assert roots.sum() == wl.check_size
    root_ns = int((spans["end"] - spans["start"])[roots].sum())
    layer_ns = sum(tracer.layer_self_ns().values())
    assert 0 < layer_ns <= root_ns
    assert tracer.layer_self_ns()["synapse.mac_s"] > 0
