"""The config reader: `netio._Loader` builds a YAML document from the node
tree that it composes, and must read every text as
`yaml.load(text, Loader=netio._YAML_LOADER)` does, value for value and
type for type, or raise the same error. The files that `save` writes never
need PyYAML's constructor."""

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from snnemu import apps, netio
from snnemu.neuron import NeuronParams
from snnemu.npu import GlobalNeuronConfig, NpuConfig
from snnemu.netio import DcSource, NetworkDescription, NoiseSource
from test_golden import golden_inputs
from test_io import desc_equal


def flat(doc) -> list:
    """A type-strict, alias-aware form of a document, walked without
    recursion so that any depth fits: each scalar as its type and repr (so
    True is not 1, "5" is not 5 and nan equals nan), each container as its
    type and length before its items, and a container met again as the
    index of its first visit, so shared and recursive anchors compare."""
    out, first, stack = [], {}, [(False, doc)]
    while stack:
        is_key, value = stack.pop()
        if type(value) not in (dict, list):
            out.append(("key" if is_key else "value", type(value), repr(value)))
            continue
        if id(value) in first:
            out.append(("alias", first[id(value)]))
            continue
        first[id(value)] = len(first)
        out.append((type(value), len(value)))
        items = value.items() if type(value) is dict else ((None, v) for v in value)
        for key, item in reversed(list(items)):
            stack.append((False, item))
            if type(value) is dict:
                stack.append((True, key))
    return out


def outcome(read, text):
    """('doc', flat(document)) of a text that `read` loads, else ('error',
    the exception's type, its text)."""
    try:
        return "doc", flat(read(text))
    except Exception as e:  # a constructor may raise ValueError as well
        return "error", type(e), str(e)


def reference(text):
    return yaml.load(text, Loader=netio._YAML_LOADER)


def built(text, loader=netio._Loader):
    return yaml.load(text, Loader=loader)


# Scalars that resolve to every implicit tag and to the edges of the subset,
# quoted and plain, and explicit tags on every node kind.
SCALARS = [
    "0", "5", "-5", "-0", "+5", "007", "0o17", "0x1F", "0b101", "1_000", "1__0", "10_", "1:30",
    "190:20:30",
    "123456789012345678901234567890", "'5'", '"-0"', "'0x1F'", "true", "True", "yes", "no", "on",
    "off", "null", "~", "''", "1.5", "1e3", ".inf", "-.inf", ".nan", "2001-12-14", "abc",
    "'a b'", '"x\\ny"', "-", "=", "<<", "a" * 70, "9" * 70, "!!str 5", "!!str true", "!!int abc",
    "!!int 7", "!!int '7'", "!!int 0x10", "!!float 1", "!!bool yes", "!!null ''", "!!map 5",
    "!!seq 5", "!!binary aGk=", "! 5", "!local 5", "!!str", "!!timestamp 2001-12-14",
]
KEYS = ["a", "b", "addrs", "5", "'5'", "true", "null", "<<", "=", "!!str k", "!!int 3", "~"]
TAGGED = ["!!str {a: 1}", "!!str [1]", "!!map [1]", "!!map {a: 1}", "!!seq {a: 1}",
          "!!seq [1, 2]", "!!set {a: null}", "!!omap [{a: 1}]", "!!pairs [{a: 1}]", "!x [1]"]
# Anchors and aliases that stand alone: anchored scalars are aliased inside
# one flow node, recursive anchors refer to themselves.
ANCHORED = ["[&s 5, *s]", "{a: &s x, b: *s}", "&r [1, *r]", "&m {a: 1, b: *m}",
            "[&q {a: 1}, *q]", "[&q [1], *q, *q]", "{<<: {a: 1}, b: 2}",
            "{<<: [{a: 1}, {b: 2}], c: 3}", "{<<: 5}", "[&q {a: 1}, {<<: *q, b: 2}]"]


# Nodes inside the subset that the builder makes: str and plain decimal int
# scalars, str keys, scalar aliases. A document of these alone is built.
SUBSET = ["0", "5", "-5", "-0", "127", "-128", "100000000", "abc", "x y", "'5'", '"-0"',
          "'true'", "''", '"x\\ny"', "'null'", "a" * 70, "-", "[&s 5, *s]", "{a: &s x, b: *s}"]
SUBSET_KEYS = ["a", "b", "addrs", "'5'", "'true'", "!!str k", "start", "stop"]


def node_text(leaves, keys):
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.lists(inner, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]")
        | st.lists(st.tuples(st.sampled_from(keys), inner), max_size=4).map(
            lambda kvs: "{" + ", ".join(f"{k}: {v}" for k, v in kvs) + "}"),
        max_leaves=12,
    )


@st.composite
def documents(draw):
    """Block mappings of flow nodes, some entries anchored and later ones
    aliasing them (a merge key may alias a mapping), or one flow node; in
    half of them every node but the aliases is inside the subset."""
    edges = draw(st.booleans())
    nodes = (node_text(SUBSET + SCALARS + TAGGED + ANCHORED, SUBSET_KEYS + KEYS) if edges
             else node_text(SUBSET, SUBSET_KEYS))
    if draw(st.booleans()):
        return draw(nodes)
    lines, anchors = [], []
    for i, (key, value) in enumerate(draw(st.lists(
            st.tuples(st.sampled_from(KEYS if edges else SUBSET_KEYS), nodes), max_size=6))):
        form = draw(st.sampled_from(["plain", "anchor", "alias"]))
        if form == "anchor":
            value = f"&e{i} {value}"
            anchors.append(i)
        elif form == "alias" and anchors:
            value = f"*e{draw(st.sampled_from(anchors))}"
        lines.append(f"{key}: {value}\n")
    return "".join(lines)


def nested(depth: int, kind: str) -> str:
    """A whole document nested `depth` collections deep."""
    return ("[" * depth + "]" * depth) if kind == "seq" else ("{a: " * depth + "1" + "}" * depth)


READER = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
LONG_ADDRS = "addrs: [" + ", ".join(map(str, range(2500))) + "]\n"


@READER
@given(text=documents())
@example(text="")
@example(text="# only a comment\n")
@example(text="a: 1\n---\nb: 2\n")
@example(text="version: 1\nn: '5'\nm: 5\nk: \"5\"\nb: true\nz: null\nf: 1.0\n")
@example(text=LONG_ADDRS)
@example(text="a: [1, 2\n")
@example(text="a: &x [1]\nb: *y\n")
@example(text="a: -" + "9" * 5_000)  # past int()'s digit limit
def test_document_matches_yaml_load(text):
    assert outcome(built, text) == outcome(reference, text)


@pytest.mark.parametrize("kind", ["seq", "map"])
@pytest.mark.parametrize("depth", [99, 100, 101, 500, 4_000])
def test_nesting_past_the_depth_limit_reads_as_yaml_load(monkeypatch, depth, kind):
    """A document nested no deeper than `_MAX_DEPTH` is built from its
    nodes; a deeper one by PyYAML's constructor, to the same document."""
    text = nested(depth, kind)
    want = outcome(reference, text)
    calls = []
    construct = netio._YAML_LOADER.construct_document
    monkeypatch.setattr(netio._YAML_LOADER, "construct_document",
                        lambda *a: calls.append(1) or construct(*a))
    assert outcome(built, text) == want
    assert len(calls) == (depth > netio._MAX_DEPTH)


PY_LOADER = type("PyLoader", (netio._NodeBuilder, yaml.SafeLoader), {})


@READER
@given(text=documents())
@example(text=LONG_ADDRS)
@example(text="a: [1, 2\n")
def test_document_over_the_python_loader(text):
    """Where PyYAML is built without libyaml, `_YAML_LOADER` is its
    pure-Python safe loader, and the builder over that loader reads every
    text as `yaml.load` with it does."""
    got = outcome(lambda t: built(t, PY_LOADER), text)
    assert got == outcome(lambda t: yaml.load(t, Loader=yaml.SafeLoader), text)


def chip_noise_network(seed: int) -> NetworkDescription:
    """A full 32 -> 128 chip with random per-neuron parameters and weights,
    noise on both NPUs (NPU1's addresses as a list, NPU2's as a range) and
    DC sources."""
    rng = np.random.default_rng(seed)

    def params(n):
        return [NeuronParams(a_num=int(rng.integers(0, 8)), b_num=int(rng.integers(0, 8)),
                             v_r=0, v_t=int(rng.integers(100, 256)), v_reset=0) for _ in range(n)]

    def npu(n):
        return NpuConfig(max_neurons=n, active_neurons=n, params=params(n), decay_a=3,
                         global_neuron=GlobalNeuronConfig(params=params(1)[0], out_weight=-4,
                                                          mode="inhibitory"))

    return NetworkDescription(
        npu1=npu(32), npu2=npu(128),
        weights1=rng.integers(-8, 8, (32, 33)), weights2=rng.integers(-8, 8, (161, 129)),
        dc=[DcSource(npu=2, addr=7, value=-20), DcSource(npu=1, addr=0, value=40)],
        noise=[NoiseSource(npu=1, addrs=list(range(0, 33, 2)), low=-10, high=38),
               NoiseSource(npu=2, addrs=range(129), low=-128, high=127)],
    )


def refuse(*args, **kwargs):
    raise AssertionError("PyYAML's constructor called")


@pytest.mark.parametrize("make", [
    apps.build_avoidance_network,
    lambda: apps.build_sudoku_network(apps.random_puzzle(4, 0))[0],
    lambda: chip_noise_network(3),
], ids=["avoidance", "sudoku", "chip_noise"])
def test_saved_config_is_built_from_its_nodes(tmp_path, monkeypatch, make):
    """Every config that `save` writes is read by `_built` alone."""
    desc = make()
    desc.save(str(tmp_path / "net.yaml"))
    monkeypatch.setattr(netio._YAML_LOADER, "construct_document", refuse)
    assert desc_equal(NetworkDescription.load(str(tmp_path / "net.yaml")), desc)


def test_golden_config_is_built_from_its_nodes(tmp_path, monkeypatch):
    config, _ = golden_inputs(str(tmp_path))
    with open(config) as f:
        text = f.read()
    want = flat(reference(text))
    monkeypatch.setattr(netio._YAML_LOADER, "construct_document", refuse)
    assert flat(built(text)) == want
    NetworkDescription.load(config)
