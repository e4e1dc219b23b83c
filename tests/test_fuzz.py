"""Fuzzers for the three input formats: YAML config text, stimulus CSV
text and weight-image bytes. Every input either loads or makes the CLI exit
2 with exactly one `error: ...` line on stderr, never a traceback."""

import contextlib
import io
import struct
import zlib

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snnemu.cli import main
from snnemu.neuron import NeuronParams
from snnemu.netio import DcSource, NetworkDescription, NoiseSource
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
    return d


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


def assert_loads_or_one_error(rc, err):
    if rc == 0:
        assert err == ""
    else:
        assert rc == 2, err
        assert err.count("\n") == 1 and err.startswith("error: "), err


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
