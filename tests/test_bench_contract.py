"""The benchmark's own correctness checks, run as tests: for each perfbench
workload, seed 0's check set through `run_check_set` and `check_pins`. Every
request is checked against the benchmark's independent cycle model and its
answer checks, and the set's output digests and summed modelled cycles
against `perfbench/pinned.json`. The perfbench files are loaded by path and
only read."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


bench = _load("run")
workloads = _load("workloads")


@pytest.mark.parametrize("name", ["chip_noise", "sudoku", "avoid"])
def test_pinned_check_set(tmp_path, name):
    cls = workloads.WORKLOADS[name]
    wl = cls(bench.PIN_SEED, tmp_path)
    wl.setup(1)
    tally = bench.Tally()
    outs = bench.run_check_set(wl, tally, what="check ")
    bench.check_pins(outs, json.loads(bench.PINS.read_text()), tally, cls.name)
    assert tally.attempted == wl.check_size + 1
    assert tally.failed == 0, tally.messages
