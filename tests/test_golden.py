"""Golden outputs: `snnemu run` on one seeded network must keep writing the
same raster and cycles bytes.

The network covers every datapath feature at once: NPU1 -> NPU2
feedforward, global neurons (NPU2's inhibitory), group-sparse masks over
partly zero weight rows, chopped populations in both NPUs, and all three
stimulus forms (DC, seeded noise and a trace). The digests in
`fixtures/golden_run.json` were recorded from the emulator before its
datapath was compiled into one crossbar and one step loop.

The determinism helper `_det_run.py` is pinned too: its avoidance network,
`make_direction_stimulus` trace and noise are the bytes that the
determinism acceptance test only compares run against run.
"""

import hashlib
import json
import os
import random

import numpy as np

from snnemu.cli import main
from snnemu.neuron import NeuronParams
from snnemu.netio import DcSource, NetworkDescription, NoiseSource, StimulusTrace
from snnemu.npu import GlobalNeuronConfig, NpuConfig
from _det_run import main as det_run

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_run.json")

LEAKY = NeuronParams(a_num=4, b_num=1, v_r=0, v_t=255, v_reset=0)
BURSTY = NeuronParams(a_num=2, b_num=3, v_r=40, v_t=180, v_reset=120)


def _weights(rng, rows, cols, chop_rows, chop_cols):
    """Random 4-bit weights, each 8-target group zero with p = 1/2; rows in
    `chop_rows` carry no weight to targets below `chop_cols`."""
    w = [[rng.randint(-8, 7) for _ in range(cols)] for _ in range(rows)]
    for r, row in enumerate(w):
        for g in range(0, cols, 8):
            if rng.random() < 0.5:
                row[g:g + 8] = [0] * len(row[g:g + 8])
        if r in chop_rows:
            row[:chop_cols] = [0] * chop_cols
    return np.array(w, dtype=np.int64)


def golden_inputs(directory):
    """Write the golden network and stimulus; returns (config, stimulus)."""
    rng = random.Random(2024)
    npu1 = NpuConfig(
        max_neurons=32, active_neurons=8, params=[LEAKY, BURSTY] * 4,
        global_neuron=GlobalNeuronConfig(params=LEAKY, out_weight=2),
        decay_a=2, chop=(4, 4),
    )
    npu2 = NpuConfig(
        max_neurons=128, active_neurons=32, params=[LEAKY] * 24 + [BURSTY] * 8,
        global_neuron=GlobalNeuronConfig(params=LEAKY, out_weight=3, mode="inhibitory"),
        decay_a=3, chop=(16, 16),
    )
    t1, t2 = npu1.total_neurons, npu2.total_neurons
    desc = NetworkDescription(
        npu1=npu1, npu2=npu2,
        weights1=_weights(rng, 8, t1, range(4, 8), 4),
        weights2=_weights(rng, t1 + 32, t2, range(t1 + 16, t1 + 32), 16),
        gs_mode="auto",
        dc=[DcSource(npu=1, addr=0, value=40), DcSource(npu=2, addr=5, value=-20),
            DcSource(npu=2, addr=20, value=35)],
        noise=[NoiseSource(npu=2, addrs=list(range(0, 33, 2)), low=-10, high=40),
               NoiseSource(npu=1, addrs=[1, 2, 3, 8], low=0, high=60)],
    )
    records = []
    for t in range(0, 300, 3):
        for _ in range(rng.randint(1, 4)):
            npu = rng.randint(1, 2)
            addr = rng.randrange(t1 if npu == 1 else t2)
            records.append((t, npu, addr, rng.randint(-30, 127)))
    config = os.path.join(directory, "golden.yaml")
    stimulus = os.path.join(directory, "golden_stim.csv")
    desc.save(config)
    StimulusTrace(records=records).save(stimulus)
    return config, stimulus


def golden_digests(directory):
    config, stimulus = golden_inputs(directory)
    with open(FIXTURE) as f:
        run = json.load(f)["run"]
    raster = os.path.join(directory, "raster.csv")
    cycles = os.path.join(directory, "cycles.csv")
    rc = main(["run", "--config", config, "--stimulus", stimulus,
               "--steps", str(run["steps"]), "--seed", str(run["seed"]),
               "--raster-out", raster, "--cycles-out", cycles])
    assert rc == 0
    return file_digests(directory)


def file_digests(directory):
    """SHA-256 of the raster.csv and cycles.csv in `directory`."""
    digests = {}
    for name in ("raster", "cycles"):
        with open(os.path.join(directory, f"{name}.csv"), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def test_golden_run_reproduces(tmp_path, capsys):
    with open(FIXTURE) as f:
        pinned = json.load(f)
    assert golden_digests(str(tmp_path)) == pinned["sha256"]
    summary = capsys.readouterr().out
    assert f"spikes={pinned['spikes']}" in summary


def test_det_run_reproduces(tmp_path):
    with open(FIXTURE) as f:
        pinned = json.load(f)["det_run"]
    det_run(str(tmp_path))
    assert file_digests(str(tmp_path)) == pinned["sha256"]
