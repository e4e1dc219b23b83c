"""CLI subcommands exercised through main()."""

import contextlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import snnemu
from snnemu.cli import main
from snnemu.apps import build_avoidance_network, make_direction_stimulus
from snnemu.neuron import NeuronParams
from snnemu.npu import GlobalNeuronConfig, NpuConfig
from snnemu.netio import (
    DcSource,
    NetworkDescription,
    StimulusTrace,
    run,
    save_weight_image,
)
from test_io import load_raster

QUIET = NeuronParams(a_num=0, b_num=0, v_r=0, v_t=255, v_reset=0)


@pytest.fixture
def config_path(tmp_path):
    desc = NetworkDescription(
        npu1=NpuConfig(max_neurons=32, active_neurons=1, params=[QUIET],
                       global_neuron=GlobalNeuronConfig(params=QUIET)),
        npu2=NpuConfig(max_neurons=128, active_neurons=1, params=[QUIET],
                       global_neuron=GlobalNeuronConfig(params=QUIET)),
        weights1=np.zeros((1, 2), dtype=int),
        weights2=np.zeros((3, 2), dtype=int),
        dc=[DcSource(npu=1, addr=0, value=100)],
    )
    path = tmp_path / "net.yaml"
    desc.save(str(path))
    return str(path)


class TestRunCommand:
    def test_run_writes_outputs(self, config_path, tmp_path, capsys):
        raster = tmp_path / "raster.csv"
        cycles = tmp_path / "cycles.csv"
        rc = main(["run", "--config", config_path, "--steps", "20",
                   "--raster-out", str(raster), "--cycles-out", str(cycles)])
        assert rc == 0
        assert len(load_raster(str(raster)))  # dc drive produces spikes
        assert cycles.read_text().count("\n") == 21
        assert "cycles_parallel=" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, config_path, tmp_path):
        outs = []
        for i in range(2):
            raster = tmp_path / f"r{i}.csv"
            main(["run", "--config", config_path, "--steps", "30",
                  "--seed", "5", "--raster-out", str(raster)])
            outs.append(raster.read_bytes())
        assert outs[0] == outs[1]

    def test_outputs_to_dev_null(self, config_path):
        """A device is written, not cut to length."""
        assert main(["run", "--config", config_path, "--steps", "5",
                     "--raster-out", os.devnull, "--cycles-out", os.devnull]) == 0

    def test_missing_config_errors(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.yaml"), "--steps", "1",
                   "--raster-out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: io: ")


class TestSudokuCommand:
    def test_generated_puzzle_solves(self, capsys):
        rc = main(["sudoku", "--n", "4", "--seed", "0", "--max-steps", "20000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("solved")

    def test_puzzle_file(self, tmp_path, capsys):
        p = tmp_path / "puzzle.txt"
        p.write_text("1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 0\n")
        rc = main(["sudoku", "--n", "4", "--puzzle", str(p),
                   "--seed", "1", "--max-steps", "20000"])
        assert rc == 0
        assert "solved" in capsys.readouterr().out


class TestAvoidCommand:
    def test_decision_lines(self, tmp_path, capsys):
        stim = make_direction_stimulus(3, steps=50, seed=9)
        path = tmp_path / "stim.csv"
        stim.save(str(path))
        rc = main(["avoid", "--stimulus", str(path), "--windows", "1"])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        idx, direction, tie = line.split(",")[:3]
        assert (idx, direction, tie) == ("0", "3", "0")


def avoid_reference(stim, windows, window_steps):
    """What `snnemu avoid` answers, from `run`'s raster with seed 0: each
    window's spikes of NPU1's eight direction neurons counted in a Python
    loop, the most-spiking direction decided, the lowest one on a tie
    (flagged); (exit code, stdout, stderr)."""
    raster, _, agg = run(build_avoidance_network(), stim, windows * window_steps, 0)
    counts = [[0] * 8 for _ in range(windows)]
    for t, npu, addr in raster.tolist():
        if npu == 1 and addr < 8:
            counts[t // window_steps][addr] += 1
    out = ""
    for i, c in enumerate(counts):
        if not any(c):
            a, b = i * window_steps, (i + 1) * window_steps
            return 2, "", f"error: decode: no spikes in window [{a}, {b})\n"
        best = min(d for d in range(8) if c[d] == max(c))
        out += f"{i},{best},{int(c.count(c[best]) > 1)}," + ",".join(map(str, c)) + "\n"
    return 0, out, f"# cycles_per_decision={agg.total_parallel / windows:.0f}\n"


def avoid_trace(kind, windows, window_steps, seed):
    """A random stimulus of `windows` windows on the eight direction
    channels. "sparse" writes any signed 8-bit value (0 included) to about
    a third of the (step, channel) pairs. The other kinds leave some
    windows after the first silent and drive the rest: "biased" favours one
    random direction, with jitter, "tied" drives two random directions
    equally and the others less, and "fade" drives only the first window."""
    rng = np.random.default_rng(seed)
    steps = windows * window_steps
    if kind == "sparse":
        t, d = np.nonzero(rng.random((steps, 8)) < 0.3)
        value = rng.integers(-128, 128, size=len(t))
        return StimulusTrace(records=np.column_stack((t, np.ones_like(t), d, value)))
    value = np.zeros((steps, 8), dtype=np.int64)
    for i in range(windows):
        rows = slice(i * window_steps, (i + 1) * window_steps)
        if i and (kind == "fade" or rng.random() < 0.2):
            continue
        base = np.full(8, int(rng.integers(0, 24)))
        if kind == "tied":
            base[rng.choice(8, 2, replace=False)] = int(rng.integers(24, 90))
            value[rows] = base
            continue
        base[rng.integers(8)] = int(rng.integers(24, 90))
        value[rows] = base + rng.integers(-6, 7, size=(window_steps, 8))
    t, d = np.nonzero(value)
    return StimulusTrace(records=np.column_stack((t, np.ones_like(t), d, value[t, d])))


class TestAvoidDifferential:
    """`snnemu avoid` against `avoid_reference`, byte for byte: stdout,
    stderr and the exit code, for window lengths around the run's 64-step
    block and its multiples."""

    @staticmethod
    def check(tmp, stim, windows, window_steps):
        path = os.path.join(tmp, "stim.csv")
        stim.save(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["avoid", "--stimulus", path, "--windows", str(windows),
                       "--window-steps", str(window_steps)])
        want = avoid_reference(stim, windows, window_steps)
        assert (rc, out.getvalue(), err.getvalue()) == want
        return want

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["biased", "tied", "sparse", "fade"]),
           window_steps=st.sampled_from([1, 7, 63, 64, 65, 130]),
           windows=st.integers(1, 5), trace_seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, tmp_path_factory, kind, window_steps, windows, trace_seed):
        stim = avoid_trace(kind, windows, window_steps, trace_seed)
        self.check(tmp_path_factory.getbasetemp(), stim, windows, window_steps)

    @pytest.mark.parametrize("window_steps", [7, 64, 65, 130])
    def test_tied_windows(self, tmp_path, window_steps):
        """Two directions driven alike spike alike: every window is a tie,
        decided for the lower one."""
        t, d = np.indices((3 * window_steps, 8)).reshape(2, -1)
        value = np.where((d == 2) | (d == 5), 60, 10)
        stim = StimulusTrace(records=np.column_stack((t, np.ones_like(t), d, value)))
        rc, out, _ = self.check(str(tmp_path), stim, 3, window_steps)
        assert rc == 0 and [line.split(",")[1:3] for line in out.splitlines()] == [["2", "1"]] * 3

    @pytest.mark.parametrize("window_steps", [7, 63, 64, 130])
    def test_spikeless_window_after_the_first(self, tmp_path, window_steps):
        """A silent window after decided ones is one decode error, and no
        decision is printed."""
        stim = make_direction_stimulus(4, window_steps, seed=3)
        rc, out, err = self.check(str(tmp_path), stim, 5, window_steps)
        assert (rc, out) == (2, "")
        assert err.startswith("error: decode: no spikes in window [")
        assert not err.startswith("error: decode: no spikes in window [0,")


class TestInspectCommand:
    def test_reports_chip_numbers(self, config_path, capsys):
        rc = main(["inspect", "--config", config_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "synapse_count=8" in out  # 2^2 + 2^2
        assert "hierarchy_op_reduction=" in out

    def test_weight_words_of_known_shape(self, tmp_path, capsys):
        # NPU1: 4 rows of 5 targets, one word each. NPU2: 5 + 16 rows of
        # 17 targets, three words each. 4 + 63 = 67 words.
        desc = NetworkDescription(
            npu1=NpuConfig(max_neurons=32, active_neurons=4, params=[QUIET] * 4,
                           global_neuron=GlobalNeuronConfig(params=QUIET)),
            npu2=NpuConfig(max_neurons=128, active_neurons=16, params=[QUIET] * 16,
                           global_neuron=GlobalNeuronConfig(params=QUIET)),
            weights1=np.zeros((4, 5), dtype=int),
            weights2=np.zeros((21, 17), dtype=int),
        )
        path = tmp_path / "net.yaml"
        desc.save(str(path))
        assert main(["inspect", "--config", str(path)]) == 0
        assert "weight_memory_words=67" in capsys.readouterr().out


def noise_addrs(addrs):
    """An edit of a config document: one noise source on NPU1 (two neurons
    in `config_path`) with the addresses `addrs`."""
    return lambda d: d["stimulus"].update(noise=[{"npu": 1, "addrs": addrs, "low": 0, "high": 1}])


class TestErrorContract:
    """Malformed inputs exit 2 with exactly one `error: <category>: ...` line."""

    @staticmethod
    def one_error_line(capsys, prefix):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(prefix), err

    def inspect(self, path):
        return main(["inspect", "--config", str(path)])

    def test_weight_image_truncated_in_header(self, config_path, tmp_path, capsys):
        image = tmp_path / "net.weights.bin"
        image.write_bytes(image.read_bytes()[:14])
        assert self.inspect(config_path) == 2
        self.one_error_line(capsys, f"error: config: {image}: ")

    @pytest.mark.parametrize("where", ["missing/raster.csv", ""],
                             ids=["missing-directory", "directory"])
    def test_raster_out_unwritable(self, config_path, tmp_path, capsys, where):
        """A path into a missing directory, or a directory itself."""
        assert main(["run", "--config", config_path, "--steps", "1",
                     "--raster-out", str(tmp_path / where)]) == 2
        self.one_error_line(capsys, "error: ")

    def test_malformed_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("version: 1\nnpu1: [1, 2\n")
        assert self.inspect(path) == 2
        self.one_error_line(capsys, f"error: config: {path}: malformed YAML")

    @staticmethod
    def replace_key(config_path, key, text):
        """Replace the lines of the top-level `key` of the config with `text`."""
        lines = Path(config_path).read_text().splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines) if line.startswith(key + ":"))
        end = next((i for i in range(start + 1, len(lines))
                    if not lines[i].startswith(" ")), len(lines))
        with open(config_path, "w") as f:
            f.writelines(lines[:start] + [text] + lines[end:])

    @pytest.mark.parametrize("command, missing", [
        ("sudoku", "puzzle.txt"),
        ("run", "stim.csv"),
        ("avoid", "stim.csv"),
        ("inspect", "net.weights.bin"),
        ("run", "net.weights.bin"),
    ])
    def test_missing_file_is_io_error(self, config_path, tmp_path, capsys, command, missing):
        """A file that cannot be opened is one `error: io:` line naming it."""
        stim = tmp_path / "stim.csv"
        StimulusTrace(records=[(0, 1, 0, 5)]).save(str(stim))
        (tmp_path / missing).unlink(missing_ok=True)
        argv = {
            "sudoku": ["sudoku", "--puzzle", tmp_path / "puzzle.txt"],
            "run": ["run", "--config", config_path, "--stimulus", stim, "--steps", "5",
                    "--raster-out", tmp_path / "r.csv"],
            "avoid": ["avoid", "--stimulus", stim],
            "inspect": ["inspect", "--config", config_path],
        }[command]
        assert main([str(a) for a in argv]) == 2
        self.one_error_line(
            capsys, f"error: io: [Errno 2] No such file or directory: '{tmp_path / missing}'")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("key", ["npu1", "npu2", "weight_image"])
    def test_missing_top_level_key(self, config_path, capsys, key):
        self.replace_key(config_path, key, "")
        assert self.inspect(config_path) == 2
        self.one_error_line(capsys, f"error: config: {config_path}: missing field '{key}'")

    @pytest.mark.parametrize("chop", ["[a, b]", "4", "[0.5, 0.5]"])
    def test_non_integer_chop(self, config_path, capsys, chop):
        text = Path(config_path).read_text()
        with open(config_path, "w") as f:
            f.write(text.replace("npu2:\n", f"npu2:\n  chop: {chop}\n"))
        assert self.inspect(config_path) == 2
        self.one_error_line(capsys, "error: config: npu2.chop: must be a list of two integers")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["stimulus"]["dc"][0].pop("value"),
         "stimulus.dc[0]: missing field 'value'"),
        (lambda d: d.update(stimulus=[1, 2]), "stimulus: must be a mapping"),
        (lambda d: d.update(npu1=[1]), "npu1: must be a mapping"),
        (lambda d: d["stimulus"].update(
            noise=[{"npu": 1, "addrs": 3, "low": 0, "high": 1}]),
         "stimulus.noise[0].addrs: must be a list"),
        (lambda d: d["npu1"].update(neurons="abc"),
         "npu1.neurons: must be a mapping or a list of mappings"),
        (lambda d: d["npu2"].update(active_neurons=[4]),
         "npu2.active_neurons: must be an integer"),
        (lambda d: d["npu2"]["global"].update(params=5), "npu2.global.params: must be a mapping"),
        (lambda d: d.update(weight_image=[1]), "weight_image: must be a file name"),
        (lambda d: d["npu1"]["neurons"].update(v_t=1e9), "npu1.neurons.v_t: must be an integer"),
        (lambda d: d.update(version=True), "version: unsupported config version True"),
        (lambda d: d.update(version=1.0), "version: unsupported config version 1.0"),
        (lambda d: d["stimulus"]["dc"][0].update(value=300),
         "stimulus.dc[0].value: must fit signed 8-bit, got 300"),
        (lambda d: d["stimulus"].update(noise=[{"npu": 1, "addrs": [0], "low": 0, "high": 1},
                                               {"npu": 3, "addrs": [0], "low": 0, "high": 1}]),
         "stimulus.noise[1].npu: must be 1 or 2, got 3"),
        (lambda d: d["stimulus"].update(noise=[{"npu": 1, "addrs": [0], "low": 0, "high": 1},
                                               {"npu": 1, "addrs": [1, 40], "low": 0, "high": 1}]),
         "stimulus.noise[1].addrs[1]: address 40 out of range for npu1"),
        *[(noise_addrs(addrs), "stimulus.noise[0].addrs" + message) for addrs, message in [
            ({"start": 2, "stop": 1}, ": need 0 <= start <= stop <= 2, got 2..1"),
            ({"start": 0, "stop": 1.5}, ".stop: must be an integer, got 1.5"),
            ({"start": True, "stop": 2}, ".start: must be an integer, got True"),
            ({"start": 0}, ": need exactly the keys start and stop, got ['start']"),
            ({"start": 0, "stop": 2, "step": 1},
             ": need exactly the keys start and stop, got ['start', 'step', 'stop']"),
            ({"start": 0, "stop": 3}, ": need 0 <= start <= stop <= 2, got 0..3"),
            ({"start": -1, "stop": 1}, ": need 0 <= start <= stop <= 2, got -1..1"),
            ({"start": 0, "stop": 2**70},
             f": need 0 <= start <= stop <= 2, got 0..{2**70}"),
        ]],
        # A rejected mode is shown as its repr cut to 40 characters: one line.
        (lambda d: d.update(gs_mode="x\ny"), r"gs_mode: must be auto or dense, got 'x\ny'"),
        (lambda d: d["npu1"]["global"].update(mode="m" * 200),
         "npu1: mode must be excitatory or inhibitory, got '" + "m" * 36 + "...\n"),
    ])
    def test_malformed_field_names_its_path(self, config_path, capsys, edit, message):
        with open(config_path) as f:
            doc = yaml.safe_load(f)
        edit(doc)
        with open(config_path, "w") as f:
            yaml.safe_dump(doc, f)
        assert self.inspect(config_path) == 2
        self.one_error_line(capsys, f"error: config: {message}")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(gs_mod="dense"), "{path}: unknown field 'gs_mod'"),
        (lambda d: d["npu1"].update(decay=5), "npu1: unknown field 'decay'"),
        (lambda d: d["npu2"]["neurons"].update(v_th=9), "npu2.neurons: unknown field 'v_th'"),
        (lambda d: d["npu2"].update(neurons=[{**d["npu2"]["neurons"], "b": 1}]),
         "npu2.neurons[0]: unknown field 'b'"),
        (lambda d: d["npu1"]["global"].update(weight=2), "npu1.global: unknown field 'weight'"),
        (lambda d: d["npu1"]["global"]["params"].update(vr=0),
         "npu1.global.params: unknown field 'vr'"),
        (lambda d: d["stimulus"].update(dcs=[]), "stimulus: unknown field 'dcs'"),
        (lambda d: d["stimulus"]["dc"][0].update(addrs=[0]),
         "stimulus.dc[0]: unknown field 'addrs'"),
        (lambda d: d["stimulus"].update(noise=[{"npu": 1, "addrs": [0], "low": 0, "high": 1,
                                                 "seed": 3}]),
         "stimulus.noise[0]: unknown field 'seed'"),
    ])
    def test_unknown_field_is_an_error(self, config_path, capsys, edit, message):
        """A key that the loader does not map, such as a misspelled one, is
        rejected at its mapping, never dropped for the field's default."""
        with open(config_path) as f:
            doc = yaml.safe_load(f)
        edit(doc)
        with open(config_path, "w") as f:
            yaml.safe_dump(doc, f)
        assert self.inspect(config_path) == 2
        assert capsys.readouterr() == ("", f"error: config: {message.format(path=config_path)}\n")

    @pytest.mark.parametrize("command", ["run", "inspect"])
    @pytest.mark.parametrize("rule, detail", [
        ("max_neurons", "npu1.max_neurons: NPU1 must be the 32-neuron unit, got 128"),
        ("chop", "weights.npu1: chop violation: source 1 (sub-population 2) has weight "
                 "to target 0 (sub-population 1)"),
        ("gs_mode", "gs_mode: must be auto or dense, got 'bogus'"),
    ])
    def test_chip_rule_broken_at_load(self, tmp_path, capsys, command, rule, detail):
        """A config that breaks a rule of the chip is rejected when it loads,
        by inspect as by run, with the field named."""
        desc = NetworkDescription(
            npu1=NpuConfig(max_neurons=32, active_neurons=2, params=[QUIET] * 2,
                           global_neuron=GlobalNeuronConfig(params=QUIET), chop=(1, 1)),
            npu2=NpuConfig(max_neurons=128, active_neurons=1, params=[QUIET],
                           global_neuron=GlobalNeuronConfig(params=QUIET)),
            weights1=np.zeros((2, 3), dtype=int),
            weights2=np.zeros((4, 2), dtype=int),
        )
        path = tmp_path / "net.yaml"
        desc.save(str(path))
        if rule == "max_neurons":
            path.write_text(path.read_text().replace("max_neurons: 32", "max_neurons: 128"))
        elif rule == "gs_mode":
            path.write_text(path.read_text().replace("gs_mode: auto", "gs_mode: bogus"))
        else:  # sub-population 2's neuron 1 feeds neuron 0 of sub-population 1
            save_weight_image(str(tmp_path / "net.weights.bin"),
                              [np.array([[0, 0, 0], [3, 0, 0]]), desc.weights2])
        argv = {"run": ["run", "--steps", "5", "--raster-out", str(tmp_path / "r.csv")],
                "inspect": ["inspect"]}[command]
        assert main(argv + ["--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: config: {detail}\n")
        assert not (tmp_path / "r.csv").exists()

    def test_trace_address_out_of_range_before_step_0(self, config_path, tmp_path, capsys):
        stim = tmp_path / "stim.csv"
        StimulusTrace(records=[(0, 1, 0, 5), (40, 2, 2, 1)]).save(str(stim))
        raster = tmp_path / "raster.csv"
        rc = main(["run", "--config", config_path, "--stimulus", str(stim),
                   "--steps", "50", "--raster-out", str(raster)])
        assert rc == 2
        self.one_error_line(capsys, "error: stimulus: record 1: address 2 out of range for npu2")
        assert not raster.exists()

    @pytest.mark.parametrize("command", ["run", "avoid"])
    @pytest.mark.parametrize("text, detail", [
        ("timestep,npu,neuron,value\n0,3,0,5\n", "record 0: npu must be 1 or 2, got 3"),
        ("timestep,npu,neuron,value\n2,1,0,5\n1,1,0,5\n",
         "record 1: timesteps must be non-negative and non-decreasing"),
        ("timestep,npu,neuron,value\n0,1,0\n",
         "{path}: line 2: expected four integers timestep,npu,neuron,value, got '0,1,0'"),
        ("t,npu,neuron,value\n", "{path}: unexpected stimulus header 't,npu,neuron,value'"),
    ])
    def test_bad_stimulus_is_stimulus_error(self, config_path, tmp_path, capsys,
                                            command, text, detail):
        """A stimulus file that does not parse, or a record that breaks a
        rule, is one `error: stimulus:` line; nothing is written."""
        stim = tmp_path / "stim.csv"
        stim.write_text(text)
        raster = tmp_path / "r.csv"
        argv = {"run": ["run", "--config", config_path, "--steps", "5",
                        "--raster-out", str(raster)],
                "avoid": ["avoid"]}[command]
        assert main(argv + ["--stimulus", str(stim)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: stimulus: {detail.format(path=stim)}\n"
        assert not raster.exists()

    @pytest.mark.parametrize("argv, flag, value", [
        (["run", "--steps", "-5"], "--steps", -5),
        (["run", "--steps", "0"], "--steps", 0),
        (["sudoku", "--max-steps", "-3"], "--max-steps", -3),
        (["avoid", "--windows", "-2"], "--windows", -2),
        (["avoid", "--window-steps", "0"], "--window-steps", 0),
    ])
    def test_count_flags_below_one(self, config_path, tmp_path, capsys, argv, flag, value):
        stim = tmp_path / "stim.csv"
        StimulusTrace(records=[(0, 1, 0, 5)]).save(str(stim))
        files = {"run": ["--config", config_path, "--raster-out", str(tmp_path / "r.csv")],
                 "sudoku": [], "avoid": ["--stimulus", str(stim)]}[argv[0]]
        assert main(argv + files) == 2
        self.one_error_line(capsys, f"error: usage: {flag} must be at least 1, got {value}")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["run", "sudoku"])
    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_32_bits(self, config_path, tmp_path, capsys, command, seed):
        """The LCG keeps 32 bits of state, so a seed outside 0..2**32-1
        would alias one inside; it is rejected before anything runs."""
        files = {"run": ["--config", config_path, "--steps", "5",
                         "--raster-out", str(tmp_path / "r.csv")],
                 "sudoku": []}[command]
        assert main([command, "--seed", str(seed)] + files) == 2
        self.one_error_line(capsys, f"error: usage: --seed must be 0..4294967295, got {seed}")
        assert not (tmp_path / "r.csv").exists()

    def test_avoid_takes_no_seed(self, tmp_path, capsys):
        """The avoidance network draws no noise, so `avoid` has no --seed."""
        stim = tmp_path / "stim.csv"
        StimulusTrace(records=[(0, 1, 0, 5)]).save(str(stim))
        with pytest.raises(SystemExit) as exc:
            main(["avoid", "--stimulus", str(stim), "--seed", "9"])
        assert exc.value.code == 2
        self.one_error_line(capsys, "error: usage: unrecognized arguments: --seed 9")

    def test_seed_at_32_bit_ends(self, config_path, tmp_path):
        for seed in (0, 2**32 - 1):
            assert main(["run", "--config", config_path, "--steps", "5", "--seed", str(seed),
                         "--raster-out", str(tmp_path / "r.csv")]) == 0

    @pytest.mark.parametrize("argv, detail", [
        (["run", "--steps", "abc"], "argument --steps: invalid int value: 'abc'"),
        (["run", "--steps", "5", "--seed", "0x1"], "argument --seed: invalid int value: '0x1'"),
        (["run", "--steps", "5", "--bogus"], "unrecognized arguments: --bogus"),
        (["run", "--raster-out", "r.csv", "--steps", "5"],
         "the following arguments are required: --config"),
        (["sudoku", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["sudoku", "--max-steps"], "argument --max-steps: expected one argument"),
        (["sudoku", "--puzzle", "p.txt", "extra"], "unrecognized arguments: extra"),
        (["avoid", "--windows", "2"], "the following arguments are required: --stimulus"),
        (["avoid", "--stimulus", "s.csv", "--window-steps", "1.5"],
         "argument --window-steps: invalid int value: '1.5'"),
        (["inspect"], "the following arguments are required: --config"),
        (["inspect", "--config", "c.yaml", "--steps", "5"], "unrecognized arguments: --steps 5"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_errors(self, config_path, tmp_path, capsys, argv, detail):
        """Parser errors of every subcommand are one `error: usage:` line with
        exit status 2, raised before any file is read or written."""
        if argv[:1] == ["run"] and "--raster-out" not in argv:
            argv = argv + ["--config", config_path, "--raster-out", str(tmp_path / "r.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        self.one_error_line(capsys, f"error: usage: {detail}")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["inspect", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr()
        assert out.out.startswith("usage: snnemu") and out.err == ""

    @pytest.mark.parametrize("clock_hz", [0, -5])
    def test_clock_below_one(self, config_path, tmp_path, capsys, clock_hz):
        text = Path(config_path).read_text()
        with open(config_path, "w") as f:
            f.write(text.replace("clock_hz: 100000000", f"clock_hz: {clock_hz}"))
        assert main(["run", "--config", config_path, "--steps", "5",
                     "--raster-out", str(tmp_path / "r.csv")]) == 2
        self.one_error_line(capsys, f"error: config: clock_hz: must be at least 1, got {clock_hz}")
        assert not (tmp_path / "r.csv").exists()

    def nest(self, config_path, key, depth):
        """Make the top-level `key` a flow list nested `depth` levels deep."""
        self.replace_key(config_path, key, f"{key}: {'[' * depth}{']' * depth}\n")

    @pytest.mark.parametrize("key, depth", [("npu1", 3_500), ("gs_mode", 3_500), ("npu1", 5_000)])
    def test_deeply_nested_value(self, config_path, capsys, key, depth):
        """3,500 levels fit in under 8 KiB and are only too deep for Python's
        recursion (formatting the value into a message); the 10 KB text of
        5,000 levels is rejected by the depth walk before it is composed."""
        self.nest(config_path, key, depth)
        assert (os.path.getsize(config_path) < 8192) == (depth < 4_000)
        assert self.inspect(config_path) == 2
        self.one_error_line(capsys, f"error: config: {config_path}: nested too deeply")

    def test_nesting_past_the_yaml_composer(self, config_path):
        """30,000 levels would overflow libyaml's recursive composer and end
        the process with a segfault, so this runs the CLI in a subprocess."""
        self.nest(config_path, "npu1", 30_000)
        src = os.path.dirname(os.path.dirname(snnemu.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "snnemu.cli", "inspect", "--config", config_path],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: config: {config_path}: nested too deeply\n"

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "avoid.yaml", "--steps", "1000000000000", "--raster-out", "r.csv"],
        ["avoid", "--stimulus", "stim.csv", "--window-steps", "100000000000"],
    ])
    def test_allocation_failure_is_memory_error(self, tmp_path, argv):
        """A run whose arrays cannot be allocated exits 2 with one
        `error: memory:` line and writes no file. The child's address space
        is capped as the CI step caps it (`ulimit -v 3000000`), so the
        allocation fails at once; uncapped, overcommit could let the run
        start stepping."""
        build_avoidance_network().save(str(tmp_path / "avoid.yaml"))
        make_direction_stimulus(3, 100).save(str(tmp_path / "stim.csv"))
        inputs = sorted(os.listdir(tmp_path))

        def cap():
            limit = 3_000_000 * 1024
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            if hard != resource.RLIM_INFINITY:
                limit = min(limit, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = os.path.dirname(os.path.dirname(snnemu.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "snnemu.cli", *argv], cwd=tmp_path, preexec_fn=cap,
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (done.returncode, done.stdout) == (2, "")
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: memory: "), done.stderr
        assert sorted(os.listdir(tmp_path)) == inputs

    @pytest.mark.parametrize("grid, n, detail", [
        ("1 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n", 3, "puzzle is 4x4, --n says 3"),
        ("1 0 0 0\n0 0 0 0\n0 0 0\n0 0 0 0\n", 4, "row 2 has 3 entries, expected 4"),
        ("1 0 0 0\n0 1 0 0\n0 0 0 0\n0 0 0 0\n", 4,
         "inconsistent clues: digit 1 at (0, 0) and (1, 1)"),
        ("0 0 0 0 0 0\n" * 6, 6, "side length must be 2..5, got 6"),
    ])
    def test_bad_puzzle_is_puzzle_error(self, tmp_path, capsys, grid, n, detail):
        puzzle = tmp_path / "p.txt"
        puzzle.write_text(grid)
        assert main(["sudoku", "--n", str(n), "--puzzle", str(puzzle)]) == 2
        assert capsys.readouterr() == ("", f"error: puzzle: {detail}\n")

    @pytest.mark.parametrize("kind", ["config", "stimulus", "puzzle"])
    def test_file_not_utf8(self, config_path, tmp_path, capsys, kind):
        """A byte that is not UTF-8 is one line of the file's category that
        names the file and the byte's offset."""
        stim = tmp_path / "stim.csv"
        StimulusTrace(records=[(0, 1, 0, 5)]).save(str(stim))
        path = {"config": config_path, "stimulus": stim, "puzzle": tmp_path / "p.txt"}[kind]
        text = {"puzzle": b"1 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"}.get(kind)
        text = text or Path(path).read_bytes()
        with open(path, "wb") as f:
            f.write(text + b"# caf\xe9\n")
        argv = {"config": ["inspect", "--config", config_path],
                "stimulus": ["avoid", "--stimulus", str(stim)],
                "puzzle": ["sudoku", "--puzzle", str(path)]}[kind]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {kind}: {path}: byte {len(text) + 5} (0xe9) is not UTF-8\n")

    def test_generated_puzzle_side_out_of_range(self, capsys):
        assert main(["sudoku", "--n", "300"]) == 2
        assert capsys.readouterr() == ("", "error: puzzle: side length must be 2..5, got 300\n")

    def test_window_without_spikes_is_decode_error(self, tmp_path, capsys):
        stim = tmp_path / "stim.csv"
        StimulusTrace().save(str(stim))
        assert main(["avoid", "--stimulus", str(stim), "--windows", "2"]) == 2
        assert capsys.readouterr() == ("", "error: decode: no spikes in window [0, 50)\n")

    def test_puzzle_token_names_row_and_column(self, tmp_path, capsys):
        puzzle = tmp_path / "p.txt"
        puzzle.write_text("1 0 0 0\n0 0 x 0\n0 0 0 0\n0 0 0 0\n")
        assert main(["sudoku", "--puzzle", str(puzzle)]) == 2
        self.one_error_line(
            capsys, "error: puzzle: row 1, column 2: expected a digit or '.', got 'x'")
