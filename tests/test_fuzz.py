"""Fuzzers for the four input formats: YAML config text, stimulus CSV
text, weight-image bytes and puzzle text, and for the argv of all four
subcommands. Every input either loads or makes the CLI exit 2 with exactly
one `error: ...` line on stderr, never a traceback; only `sudoku` may also
exit 1, for a puzzle it did not solve. A last fuzzer sets each integer
field of each config type to a value of another kind."""

import contextlib
import io
import re
import struct
import tempfile
import zlib

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snnemu import apps
from snnemu.cli import main
from snnemu.neuron import NeuronParams
from snnemu.netio import ConfigError, DcSource, NetworkDescription, NoiseSource
from snnemu.npu import GlobalNeuronConfig, NpuConfig

QUIET = NeuronParams(a_num=0, b_num=0, v_r=0, v_t=255, v_reset=0)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# No path separators or NUL, so a mutated file name stays inside the test
# directory.
SAFE_TEXT = st.text(st.characters(blacklist_characters="/\\\x00",
                                  blacklist_categories=("Cs",)), max_size=8)
YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.integers(-3, 130) | SAFE_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(SAFE_TEXT, inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A saved valid network, net.yaml plus net.weights.bin."""
    d = tmp_path_factory.mktemp("fuzz")
    weights2 = np.ones((5, 3), dtype=int)
    weights2[4, 0] = 0  # chop: sub-population 2 never feeds 1
    desc = NetworkDescription(
        npu1=NpuConfig(max_neurons=32, active_neurons=2, params=[QUIET] * 2,
                       global_neuron=GlobalNeuronConfig(params=QUIET)),
        npu2=NpuConfig(max_neurons=128, active_neurons=2, params=[QUIET] * 2,
                       global_neuron=GlobalNeuronConfig(params=QUIET, out_weight=-3,
                                                        mode="inhibitory"),
                       chop=(1, 1)),
        weights1=np.ones((2, 3), dtype=int),
        weights2=weights2,
        dc=[DcSource(npu=1, addr=0, value=100)],
        noise=[NoiseSource(npu=2, addrs=[0, 1], low=-5, high=9)],
    )
    desc.save(str(d / "net.yaml"))
    apps.make_direction_stimulus(3, 60).save(str(d / "stim.csv"))
    (d / "puzzle.txt").write_text(". 2 . 4\n3 . . .\n. . 4 .\n. . . .\n")
    return d


def cli(*argv):
    """The exit status and stderr of `main(argv)`, argparse's own exits (a
    usage error, `-h`) included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main([str(a) for a in argv])
        except SystemExit as e:
            rc = e.code
    return rc, err.getvalue()


# A run exits 2 with one `error: <category>: <detail>` line, the form CI
# checks for the installed script.
ONE_ERROR = re.compile(r"error: [A-Za-z]+: [^\n]*\n")


def assert_loads_or_one_error(rc, err):
    if rc == 0:
        assert err == ""
    else:
        assert rc == 2, err
        assert ONE_ERROR.fullmatch(err), err


def assert_exit_status(rc, err):
    """0 or 1 (`sudoku` unsolved), whatever the run printed, or 2 with one
    error line."""
    assert rc in (0, 1, 2), (rc, err)
    if rc == 2:
        assert ONE_ERROR.fullmatch(err), err


def paths_of(doc, prefix=()):
    """Every (container, key) position in a nested YAML document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths_of(value, prefix + (key,))


@FUZZ
@given(data=st.data())
def test_yaml_config(workdir, data):
    text = (workdir / "net.yaml").read_text()
    doc = yaml.safe_load(text)
    # The noise addresses [0, 1] are saved as a range, so it is mutated too.
    assert doc["stimulus"]["noise"][0]["addrs"] == {"start": 0, "stop": 2}
    if data.draw(st.booleans(), label="structured"):
        path = data.draw(st.sampled_from(list(paths_of(doc))), label="path")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans(), label="delete"):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(YAML_VALUES, label="value")
        text = yaml.safe_dump(doc)
    else:
        at = data.draw(st.integers(0, len(text)), label="at")
        cut = data.draw(st.integers(0, 12), label="cut")
        text = text[:at] + data.draw(SAFE_TEXT, label="insert") + text[at + cut:]
    config = workdir / "fuzz.yaml"
    config.write_text(text)
    assert_loads_or_one_error(*cli("inspect", "--config", config))


CSV_INT = st.integers(-3, 140) | st.integers(-2**70, 2**70)
CSV_ROWS = st.one_of(
    st.tuples(CSV_INT, st.integers(0, 3), CSV_INT, st.integers(-130, 130)),
    st.lists(CSV_INT, max_size=6),
).map(lambda r: ",".join(map(str, r))) | SAFE_TEXT


@FUZZ
@given(rows=st.lists(CSV_ROWS, max_size=8), header=st.booleans())
def test_stimulus_csv(workdir, rows, header):
    head = ["timestep,npu,neuron,value"] if header else []
    stim = workdir / "stim.csv"
    stim.write_text("\n".join(head + rows) + "\n")
    rc, err = cli("run", "--config", workdir / "net.yaml", "--stimulus", stim,
                  "--steps", 3, "--raster-out", workdir / "raster.csv")
    assert_loads_or_one_error(rc, err)


def _header_len(image: bytes) -> int:
    return 16 + 12 * struct.unpack_from("<I", image, 8)[0]


@st.composite
def weight_images(draw, valid: bytes):
    kind = draw(st.sampled_from(["random", "header", "truncated", "payload"]))
    if kind == "random":
        return draw(st.binary(max_size=80))
    if kind == "truncated":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    image = bytearray(valid)
    head = _header_len(valid)
    if kind == "header":  # geometry changes; the payload checksum still holds
        for _ in range(draw(st.integers(1, 3))):
            image[draw(st.integers(0, head - 5))] = draw(st.integers(0, 255))
        return bytes(image)
    pos = draw(st.integers(head, len(valid) - 1))
    image[pos] = draw(st.integers(0, 255))
    image[head - 4:head] = struct.pack("<I", zlib.crc32(bytes(image[head:])))
    return bytes(image)


@FUZZ
@given(data=st.data())
def test_weight_image(workdir, data):
    valid = (workdir / "net.weights.bin").read_bytes()
    image = data.draw(weight_images(valid), label="image")
    (workdir / "fuzz.weights.bin").write_bytes(image)
    config = workdir / "fuzz.yaml"
    config.write_text((workdir / "net.yaml").read_text().replace(
        "net.weights.bin", "fuzz.weights.bin"))
    assert_loads_or_one_error(*cli("inspect", "--config", config))


PUZZLE_BYTES = st.sampled_from([b"0", b"1", b"4", b"5", b"9", b"12", b".", b" ", b"\n", b"\r",
                                b"\t", b"-1", b"x", b"\xff", "\u0663".encode(), b"\xe2\x82"])


@FUZZ
@given(data=st.data())
def test_puzzle_text(workdir, data):
    """A puzzle grid, the saved one or a random puzzle's, with bytes cut or
    inserted, is solved, left unsolved (exit 1) or rejected with one error
    line. `--n` is the grid's side or a drawn one, and the step budget is
    short, so no run is long."""
    text = (workdir / "puzzle.txt").read_bytes()
    if data.draw(st.booleans(), label="random"):
        puzzle = apps.random_puzzle(data.draw(st.integers(2, 5), label="side"),
                                    data.draw(st.integers(0, 99), label="seed"))
        grid = [[b"."] * puzzle.n for _ in range(puzzle.n)]
        for r, c, d in puzzle.clues:
            grid[r][c] = b"%d" % d
        text = b"\n".join(b" ".join(row) for row in grid)
    for _ in range(data.draw(st.integers(0, 2), label="edits")):
        at = data.draw(st.integers(0, len(text)), label="at")
        cut = data.draw(st.integers(0, 3), label="cut")
        text = text[:at] + data.draw(PUZZLE_BYTES, label="insert") + text[at + cut:]
    (workdir / "fuzz_puzzle.txt").write_bytes(text)
    rows = len(text.split(b"\n"))
    n = data.draw(st.sampled_from([rows, rows, rows, 4, 6]), label="n")
    assert_exit_status(*cli("sudoku", "--n", n, "--puzzle", workdir / "fuzz_puzzle.txt",
                            "--seed", 1, "--max-steps",
                            data.draw(st.integers(1, 250), label="max_steps")))


BASE_ARGVS = {
    "run": ["run", "--config", "net.yaml", "--stimulus", "stim.csv", "--seed", "3",
            "--raster-out", "raster.csv", "--cycles-out", "cycles.csv"],
    "sudoku": ["sudoku", "--n", "4", "--puzzle", "puzzle.txt", "--seed", "0"],
    "avoid": ["avoid", "--stimulus", "stim.csv"],
    "inspect": ["inspect", "--config", "net.yaml"],
}
OPTIONS = sorted({t for argv in BASE_ARGVS.values() for t in argv if t.startswith("--")}
                 | {"--steps", "--max-steps", "--windows", "--window-steps"})
# Values of each kind: counts at and past their bounds, a seed past 32
# bits, text that is no number, and file names of each input, of a missing
# file and of a directory.
VALUES = st.sampled_from(sorted({
    *(t for argv in BASE_ARGVS.values() for t in argv[1:] if not t.startswith("--")),
    "-1", "0", "1", "2", "5", "4294967296", str(2**70), "1.5", "x", "", "-",
    "net.weights.bin", "missing.yaml", ".",
}))
TOKENS = VALUES | st.sampled_from([*BASE_ARGVS, *OPTIONS, "-h", "--", "--steps=2",
                                   "--config=stim.csv"])
# The last word on each count, appended after the edits, so that no run
# takes more than a few hundred steps.
BUDGETS = {"run": ("--steps",), "sudoku": ("--max-steps",),
           "avoid": ("--windows", "--window-steps"), "inspect": ()}


def edit_argv(data, argv):
    """`argv` with one edit: an option's value replaced, an option and its
    value dropped or added, or any token deleted, inserted or replaced."""
    pairs = [i for i, t in enumerate(argv[:-1]) if t.startswith("--")]
    op = data.draw(st.sampled_from(["value", "drop", "add", "token"]), label="op")
    if op in ("value", "drop") and pairs:
        i = data.draw(st.sampled_from(pairs), label="option")
        if op == "value":
            argv[i + 1] = data.draw(VALUES, label="value")
        else:
            del argv[i : i + 2]
    elif op == "add":
        argv += [data.draw(st.sampled_from(OPTIONS), label="added"), data.draw(VALUES)]
    else:
        at = data.draw(st.integers(0, len(argv)), label="at")
        cut = data.draw(st.integers(0, 1), label="cut")
        argv[at : at + cut] = [data.draw(TOKENS, label="token")] * data.draw(st.booleans())


@FUZZ
@given(data=st.data())
def test_argv(workdir, data):
    """Each subcommand's argv, edited with every option and value of the
    CLI, runs in a directory of its own inputs and exits 0, 1 or 2, with
    one error line on exit 2."""
    argv = list(BASE_ARGVS[data.draw(st.sampled_from(sorted(BASE_ARGVS)), label="command")])
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        edit_argv(data, argv)
    for option in BUDGETS.get(argv[0] if argv else "", ()):
        top = 250 if option == "--max-steps" else 12
        argv += [option, data.draw(st.sampled_from([-1, 0, *range(1, top + 1)]), label=option)]
    with tempfile.TemporaryDirectory() as d, contextlib.chdir(d):
        for name in ("net.yaml", "net.weights.bin", "stim.csv", "puzzle.txt"):
            with open(name, "wb") as f:
                f.write((workdir / name).read_bytes())
        assert_exit_status(*cli(*argv))


# Each integer field of each config type, as (type, field, a valid value):
# `chop` and `addrs` take the drawn value as their first element.
INT_FIELDS = [
    *((NeuronParams, f, v) for f, v in dict(a_num=1, b_num=2, v_r=3, v_t=200, v_reset=5).items()),
    (GlobalNeuronConfig, "out_weight", -3),
    *((NpuConfig, f, v) for f, v in dict(max_neurons=128, active_neurons=2, decay_a=4,
                                         chop=1).items()),
    *((DcSource, f, v) for f, v in dict(npu=1, addr=1, value=-7).items()),
    *((NoiseSource, f, v) for f, v in dict(npu=2, addrs=0, low=-5, high=9).items()),
    (NetworkDescription, "clock_hz", 1_000_000),
]
NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def field_values(valid: int):
    """Values of every kind for an integer field whose valid value is
    `valid`: a float, bool, str or 1-element list (never an integer), or
    `valid` as a numpy integer scalar or 0-d array (always one)."""
    fits = [t for t in NUMPY_INTS if np.iinfo(t).min <= valid <= np.iinfo(t).max]
    return st.one_of(
        st.floats() | st.just(float(valid)), st.booleans(), st.text(max_size=3) | st.just(str(valid)),
        st.just([valid]), st.sampled_from(fits).map(lambda t: t(valid)),
        st.sampled_from(fits).map(lambda t: np.array(valid, dtype=t)),
    )


def described(cls, field: str, value) -> tuple[NetworkDescription, object]:
    """A description whose one `cls` object holds `value` at `field`, and
    that object."""
    def fields(kind, **base):
        if kind is cls:
            base[field] = [value, base[field][1]] if field in ("chop", "addrs") else value
        return base

    params = NeuronParams(**fields(NeuronParams, a_num=1, b_num=2, v_r=3, v_t=200, v_reset=5))
    global_neuron = GlobalNeuronConfig(params=params, **fields(GlobalNeuronConfig, out_weight=-3,
                                                              mode="inhibitory"))
    npu2 = NpuConfig(params=[params] * 2, global_neuron=global_neuron,
                     **fields(NpuConfig, max_neurons=128, active_neurons=2, decay_a=4,
                              chop=[1, 1]))
    weights2 = np.ones((4, 3), dtype=int)
    weights2[3, 0] = 0  # chop: sub-population 2 never feeds 1
    desc = NetworkDescription(
        npu1=NpuConfig(max_neurons=32, active_neurons=1, params=[QUIET],
                       global_neuron=GlobalNeuronConfig(params=QUIET)),
        npu2=npu2, weights1=np.ones((1, 2), dtype=int), weights2=weights2,
        dc=[DcSource(**fields(DcSource, npu=1, addr=1, value=-7))],
        noise=[NoiseSource(**fields(NoiseSource, npu=2, addrs=[0, 2], low=-5, high=9))],
        **fields(NetworkDescription, clock_hz=1_000_000),
    )
    owner = {NeuronParams: params, GlobalNeuronConfig: global_neuron, NpuConfig: npu2,
             DcSource: desc.dc[0], NoiseSource: desc.noise[0], NetworkDescription: desc}
    return desc, owner[cls]


@FUZZ
@given(data=st.data())
def test_integer_fields(data):
    """An integer field of a config type set to a float, bool, str or
    1-element list is a ConfigError at the field's own name; set to a numpy
    integer scalar or 0-d array, it is stored as a Python int, and the
    description round-trips through `save` and `load`."""
    cls, field, valid = data.draw(st.sampled_from(INT_FIELDS), label="field")
    value = data.draw(field_values(valid), label="value")
    if not isinstance(value, (np.integer, np.ndarray)):
        with pytest.raises(ConfigError) as err:
            described(cls, field, value)
        assert err.value.path == field
        return
    desc, owner = described(cls, field, value)
    stored = getattr(owner, field)
    assert (stored[0] if field in ("chop", "addrs") else stored) == valid
    assert set(map(type, stored if field in ("chop", "addrs") else [stored])) == {int}
    with tempfile.TemporaryDirectory() as d:
        desc.save(f"{d}/net.yaml")
        loaded = NetworkDescription.load(f"{d}/net.yaml")
    assert (loaded.npu2, loaded.dc, loaded.noise, loaded.clock_hz) == (
        desc.npu2, desc.dc, desc.noise, desc.clock_hz)
